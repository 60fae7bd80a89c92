"""The benchmark's workloads: fixed config sets for `hdist.cli.run_config`.

Standard library only, so that building the inputs imports nothing the
set-up clock should see.  A seed selects an axis permutation of every
input (direction, coefficient order, which Riesz symbol carries the
oracle, field centres); the work and the oracles are the same for every
seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import itertools

DEFAULT_SEED = 0

# loc64: the acceptance suite's criterion-5 setup at 64^3.
_LOC_COEFFS = [
    {"name": "gaussian", "params": {"width": 1.6}},
    {"name": "gaussian", "params": {"width": 1.5}},
    {"name": "gaussian", "params": {"width": 1.3}},
]
_LOC_PHI = {"name": "gaussian", "params": {"width": 1.5}}


def axis_permutation(d: int, seed: int) -> tuple:
    """The seed's permutation of range(d); seed 0 is the identity."""
    perms = list(itertools.permutations(range(d)))
    return perms[seed % len(perms)]


def _unit(d, axis):
    return [1 if i == axis else 0 for i in range(d)]


def _permute(values, perm):
    """Move values[i] to position perm[i]."""
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return out


def loc64(seed):
    perm = axis_permutation(3, seed)
    configs = []
    for characteristic in (True, False):
        configs.append({
            "experiment": "localization",
            "grid": {"d": 3, "N": 64, "L": 8.0},
            "coefficients": _permute(_LOC_COEFFS, perm),
            "amplitude": {"name": "gaussian", "params": {"width": 1.2}},
            "direction": _unit(3, perm[0]),
            "k": 0,
            "p": 2.0,
            "q": 2.0,
            "indices": [8, 12, 16],
            "characteristic": characteristic,
            "cutoff": {"r_inner": 2.3, "r_outer": 3.3},
            "test_functions": {"phi1": _LOC_PHI, "phi2": _LOC_PHI},
            "symbol": "constant_one",
        })
    return configs, perm[0]


def tensor256(seed):
    perm = axis_permutation(2, seed)
    cfg = {
        "experiment": "hdist_sweep",
        "grid": {"d": 2, "N": 256, "L": 16.0},
        "families": {
            "u": {"kind": "oscillation", "amplitude": "gaussian",
                  "direction": _unit(2, perm[0]), "indices": [16, 32, 64]},
        },
        "test_functions": {"phi1": "gaussian", "phi2": "gaussian"},
        "symbols": ["constant_one", "riesz_1", "riesz_2"],
        "tensor": {"m_max": 12, "n_max": 12},
        "zero_check": {"theta": "gaussian", "k": 0, "p": 2.0},
    }
    return [cfg], perm[0]


def probes2d(seed):
    perm = axis_permutation(2, seed)
    axis = perm[0]
    commutator = {
        "experiment": "commutator",
        "grid": {"d": 2, "N": 256, "L": 16.0},
        "symbol": f"riesz_{axis + 1}",
        "b": "gaussian",
        "family": {"kind": "oscillation", "amplitude": "gaussian",
                   "direction": _unit(2, axis), "indices": [8, 16, 32, 64]},
        "q_list": [2, 4],
    }
    norm_suite = {
        "experiment": "norm_suite",
        "grid": {"d": 2, "N": 256, "L": 16.0},
        "fields": [
            "gaussian",
            {"name": "bump",
             "params": {"radius": 2.0, "center": _permute([0.5, 0.0], perm)}},
            {"product": [{"name": "gaussian", "params": {"width": 1.5}},
                         {"name": "coordinate", "params": {"axis": axis}}]},
        ],
        "k_list": [0, 1, 2],
        "p_list": [1.5, 2.0, 4.0],
    }
    se_analysis = {
        "experiment": "se_analysis",
        "grid": {"d": 2, "N": 128, "L": 32.0},
        "theta": {"hermite": _permute([2, 1], perm), "harmonic": [2, 1]},
        "m_max": 16,
        "n_max": 16,
        "r_list": [0.5, 1.0, 2.0],
    }
    return [commutator, norm_suite, se_analysis], axis


# name -> seed -> (configs, axis of the oscillation direction)
WORKLOADS = {"loc64": loc64, "tensor256": tensor256, "probes2d": probes2d}
