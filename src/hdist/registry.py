"""Named built-in spatial fields and multiplier symbols.

Registry names are stable identifiers used by the experiment configs; field
specs are small dicts {"name": ..., "params": {...}} with two combinators,
{"product": [...]} and {"scale": c, "of": ...}, for composite coefficients.
"""

from __future__ import annotations

import numbers

import numpy as np

from .grid import Grid, GridFunction
from .symbol import SphericalSymbol


def _number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _resolve(kind: str, builtins: dict, spec):
    """(name, builder, params) of a named spec or bare name, with the
    builtin's defaults merged and unknown or mistyped parameters rejected:
    a numeric default takes a number, and center (default null) takes null
    or an array of numbers."""
    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec["name"]
    if name not in builtins:
        raise ValueError(f"unknown {kind} {name!r}; see list_builtins()")
    fn, defaults = builtins[name]
    params = {**defaults, **spec.get("params", {})}
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {kind} {name!r}: {sorted(unknown)}")
    for key, value in sorted(params.items()):
        center = defaults[key] is None  # the one param whose default is null
        if not (value is None or (isinstance(value, list) and all(map(_number, value)))
                if center else _number(value)):
            want = "null or an array of numbers" if center else "a number"
            raise ValueError(f"{kind} {name!r} parameter {key!r} must be {want}, "
                             f"got {value!r}")
    return name, fn, params


# ---------------------------------------------------------------------------
# fields


def _center(params, d):
    c = params["center"]
    if c is None:
        return np.zeros(d)
    c = np.asarray(c, dtype=float)
    if c.shape != (d,):
        raise ValueError(f"center must have length {d}")
    return c


def _radius2(coords, center):
    return sum((x - c) ** 2 for x, c in zip(coords, center))


def _gaussian(d, params):
    w = float(params["width"])
    c = _center(params, d)
    return lambda *x: np.exp(-np.pi * _radius2(x, c) / w**2)


def _smooth_step(t):
    # C-infinity transition, 0 for t <= 0 and 1 for t >= 1.
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def _bump(d, params):
    r = float(params["radius"])
    c = _center(params, d)

    def f(*x):
        q = _radius2(x, c) / r**2
        inside = q < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            v = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - q, 1.0)), 0.0)
        return v

    return f


def _constant_one(d, params):
    return lambda *x: np.ones_like(x[0])


def _coordinate(d, params):
    axis = int(params["axis"])
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return lambda *x: x[axis]


def _shell_cutoff(d, params):
    """0 inside r_inner, 1 outside r_outer, smooth in between."""
    r_in = float(params["r_inner"])
    r_out = float(params["r_outer"])
    if not 0 < r_in < r_out:
        raise ValueError("need 0 < r_inner < r_outer")
    c = _center(params, d)
    return lambda *x: _smooth_step((np.sqrt(_radius2(x, c)) - r_in) / (r_out - r_in))


FIELD_BUILTINS = {
    "gaussian": (_gaussian, {"width": 1.0, "center": None}),
    "bump": (_bump, {"radius": 1.5, "center": None}),
    "constant_one": (_constant_one, {}),
    "coordinate": (_coordinate, {"axis": 0}),
    "shell_cutoff": (_shell_cutoff, {"r_inner": 2.0, "r_outer": 3.0, "center": None}),
}


def field_function(d: int, spec):
    """Resolve a field spec to a callable on coordinate arrays.

    Accepts a bare name, {"name", "params"}, {"product": [specs]} or
    {"scale": c, "of": spec}.
    """
    if isinstance(spec, dict) and "product" in spec:
        parts = [field_function(d, s) for s in spec["product"]]
        return lambda *x: np.prod([p(*x) for p in parts], axis=0)
    if isinstance(spec, dict) and "scale" in spec:
        c = spec["scale"]
        scale = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
        inner = field_function(d, spec["of"])
        return lambda *x: scale * inner(*x)
    _, fn, params = _resolve("field", FIELD_BUILTINS, spec)
    return fn(d, params)


def _spec_label(spec):
    if isinstance(spec, str):
        return spec
    if "product" in spec:
        return "*".join(_spec_label(s) for s in spec["product"])
    if "scale" in spec:
        return f"scaled({_spec_label(spec['of'])})"
    return spec["name"]


def make_field(grid: Grid, spec) -> GridFunction:
    """Sample a field spec onto a grid; the result carries the spec's name."""
    gf = grid.sample(field_function(grid.d, spec))
    return GridFunction(gf.grid, gf.values, gf.side, name=_spec_label(spec))


# ---------------------------------------------------------------------------
# symbols

def constant_symbol(d, value=1.0):
    v = complex(value)
    return SphericalSymbol(
        d,
        lambda xi: np.full(xi.shape[1], v),
        name="constant_one" if v == 1.0 else f"constant_{value}",
        sphere_mean=v,
    )


def coordinate_symbol(d, axis=0):
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return SphericalSymbol(
        d,
        lambda xi: xi[axis].astype(complex),
        name=f"coordinate_{axis + 1}",
        sphere_mean=0.0,
    )


def riesz_symbol(d, axis=0):
    """Symbol xi_j / (i |xi|) of the j-th Riesz transform."""
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return SphericalSymbol(
        d,
        lambda xi: -1j * xi[axis],
        name=f"riesz_{axis + 1}",
        sphere_mean=0.0,
    )


def smoothed_sign_symbol(d, axis=0, eps=0.25):
    """tanh(xi_j / eps): a smooth odd step across the hyperplane xi_j = 0."""
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return SphericalSymbol(
        d,
        lambda xi: np.tanh(xi[axis] / eps).astype(complex),
        name=f"smoothed_sign_{axis + 1}",
        sphere_mean=0.0,  # odd in xi_j
    )


SYMBOL_BUILTINS = {
    "constant_one": (lambda d, params: constant_symbol(d, params["value"]),
                     {"value": 1.0}),
    "coordinate_1": (lambda d, params: coordinate_symbol(d, 0), {}),
    "coordinate_2": (lambda d, params: coordinate_symbol(d, 1), {}),
    "riesz_1": (lambda d, params: riesz_symbol(d, 0), {}),
    "riesz_2": (lambda d, params: riesz_symbol(d, 1), {}),
    "riesz_3": (lambda d, params: riesz_symbol(d, 2), {}),
    "smoothed_sign": (
        lambda d, params: smoothed_sign_symbol(d, int(params["axis"]),
                                               float(params["eps"])),
        {"axis": 0, "eps": 0.25},
    ),
}


def make_symbol(d: int, spec) -> SphericalSymbol:
    """Resolve a symbol spec ({"name", "params"} or bare name)."""
    _, fn, params = _resolve("symbol", SYMBOL_BUILTINS, spec)
    return fn(d, params)


def list_builtins():
    """Stable dump of registry names and default parameters."""
    return {
        "fields": {
            name: dict(defaults) for name, (_, defaults) in sorted(FIELD_BUILTINS.items())
        },
        "symbols": {
            name: dict(defaults) for name, (_, defaults) in sorted(SYMBOL_BUILTINS.items())
        },
    }
