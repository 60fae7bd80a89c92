"""Small shared helpers: multi-indices, canonical JSON, exponent labels."""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np


class AliasingError(ValueError):
    """Oscillation index would push the shifted spectrum past the safe band."""


class SupportError(ValueError):
    """Field does not fit inside the periodic box at the requested accuracy."""


def multi_indices(d, k):
    """All multi-indices alpha in N_0^d with |alpha| <= k, lexicographic."""
    return [alpha for alpha in itertools.product(range(k + 1), repeat=d)
            if sum(alpha) <= k]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex to JSON types.

    Complex numbers become [re, im] pairs.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.stack([obj.real, obj.imag], axis=-1).tolist()
        return obj.tolist()
    return obj


def exponent_label(x) -> str:
    """The artifact label of an exponent: f"{x:g}" where that reads back as
    x, else the exact repr(float(x)); float(label) == x either way."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def dump_json(obj) -> str:
    """Canonical (sorted-key, compact) strict JSON text of obj, ending in a
    newline; deterministic.  NaN and infinities raise ValueError."""
    # json uses its C encoder only when indent is None.
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def canonical_hash(obj) -> str:
    """sha256 of dump_json(obj) without its final newline (compact JSON holds
    no other)."""
    return hashlib.sha256(dump_json(obj)[:-1].encode()).hexdigest()
