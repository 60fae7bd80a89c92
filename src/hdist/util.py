"""Small shared helpers: multi-indices, worker pool, canonical JSON."""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

WORKERS_ENV = "HDIST_WORKERS"


class AliasingError(ValueError):
    """Oscillation index would push the shifted spectrum past the safe band."""


class SupportError(ValueError):
    """Field does not fit inside the periodic box at the requested accuracy."""


def multi_indices(d, k):
    """All multi-indices alpha in N_0^d with |alpha| <= k, lexicographic."""
    out = [
        alpha
        for alpha in itertools.product(range(k + 1), repeat=d)
        if sum(alpha) <= k
    ]
    out.sort()
    return out


def multi_binomial(alpha, beta):
    """Product of per-component binomial coefficients C(alpha_i, beta_i)."""
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def sub_indices(alpha):
    """All beta with 0 <= beta <= alpha componentwise."""
    return list(itertools.product(*(range(a + 1) for a in alpha)))


def worker_count():
    """Worker cap from the environment; defaults to 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def ordered_map(fn, items):
    """Map preserving input order, threaded when HDIST_WORKERS > 1.

    Work items must be independent; results are merged by position so the
    output is identical to the serial run.
    """
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


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
        return [jsonable(v) for v in obj.tolist()]
    return obj


def dump_json(obj, path):
    """Write canonical (sorted-key, fixed-format) strict JSON; deterministic
    bytes.  NaN and infinities raise ValueError before the file is opened."""
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def canonical_hash(obj):
    """sha256 of the canonical JSON encoding of obj."""
    import hashlib

    blob = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
