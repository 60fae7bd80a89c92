"""Named built-in spatial fields and multiplier symbols.

Registry names are stable identifiers used by the experiment configs; field
specs are small dicts {"name": ..., "params": {...}} with two combinators,
{"product": [...]} and {"scale": c, "of": ...}, for composite coefficients.
Every builtin field is real, and so is a product of them or a scale by a
real c; a scale by an [re, im] pair makes the field complex.
"""

from __future__ import annotations

import functools
import numbers
import operator

import numpy as np

from .grid import Grid, GridFunction
from .symbol import SphericalSymbol
from .util import exponent_label


def _number(x) -> bool:
    """A real, not a bool, that float() converts: a builder takes float(x),
    which overflows on an integer beyond the float range (10**400)."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _resolve(kind: str, builtins: dict, spec):
    """(name, builder, params) of a named spec or bare name, with the
    builtin's defaults merged and unknown or mistyped parameters rejected:
    a float default takes a number in float range, an int default (axis) a
    whole number, and center (default null) takes null or an array of
    numbers in float range."""
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
        default = defaults[key]
        if default is None:  # center, the one param whose default is null
            ok = value is None or (isinstance(value, list) and all(map(_number, value)))
            want = "null or an array of numbers in float range"
        else:  # the builder truncates an int param with int(): refuse fractions
            whole = isinstance(default, int)
            ok = _number(value) and (not whole or float(value).is_integer())
            want = "an integer" if whole else "a number in float range"
        if not ok:
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
    # separable: on the sparse x_axes each factor costs N exponentials
    w = float(params["width"])
    c = _center(params, d)
    return lambda *x: functools.reduce(
        operator.mul, [np.exp(-np.pi * (xi - ci) ** 2 / w**2) for xi, ci in zip(x, c)])


def _smooth_step(t):
    # C-infinity transition, 0 for t <= 0 and 1 for t >= 1; the exponentials
    # are evaluated on the transition band only
    t = np.asarray(t, dtype=np.float64)
    out = (t >= 1.0).astype(np.float64)
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    a, b = np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))
    out[band] = a / (a + b)
    return out


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
        return lambda *x: functools.reduce(operator.mul, [p(*x) for p in parts])
    if isinstance(spec, dict) and "scale" in spec:
        c = spec["scale"]
        # an [re, im] pair is complex; a real factor keeps a real field real
        scale = complex(c[0], c[1]) if isinstance(c, (list, tuple)) else c
        inner = field_function(d, spec["of"])
        return lambda *x: scale * inner(*x)
    _, fn, params = _resolve("field", FIELD_BUILTINS, spec)
    return fn(d, params)


def spec_label(spec) -> str:
    """A field spec's name in artifacts: products joined by "*", scaled(...)."""
    if isinstance(spec, str):
        return spec
    if "product" in spec:
        return "*".join(spec_label(s) for s in spec["product"])
    if "scale" in spec:
        return f"scaled({spec_label(spec['of'])})"
    return spec["name"]


def make_field(grid: Grid, spec) -> GridFunction:
    """Sample a field spec onto a grid."""
    return grid.sample(field_function(grid.d, spec))


# ---------------------------------------------------------------------------
# symbols

def constant_symbol(d, value=1.0):
    name = "constant_one" if value == 1.0 else f"constant_{value}"
    return SphericalSymbol(d, lambda xi: np.full(np.shape(xi[0]), value), name=name,
                           sphere_mean=value)


def _odd_axis_symbol(d, axis, label, fn, suffix=""):
    """fn as the symbol label_{axis+1}suffix: a function of xi_j alone, odd in it."""
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for d={d}")
    return SphericalSymbol(d, fn, name=f"{label}_{axis + 1}{suffix}", sphere_mean=0.0)


def coordinate_symbol(d, axis=0):
    return _odd_axis_symbol(d, axis, "coordinate", lambda xi: xi[axis])


def riesz_symbol(d, axis=0):
    """Symbol xi_j / (i |xi|) of the j-th Riesz transform."""
    return _odd_axis_symbol(d, axis, "riesz", lambda xi: -1j * xi[axis])


def smoothed_sign_symbol(d, axis=0, eps=0.25):
    """tanh(xi_j / eps), a smooth odd step; a width other than 0.25 is named."""
    named = "" if eps == 0.25 else f"_eps={exponent_label(eps)}"
    return _odd_axis_symbol(d, axis, "smoothed_sign", lambda xi: np.tanh(xi[axis] / eps), named)


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
