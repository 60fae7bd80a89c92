"""Outside-in span recorder for the hdist layers.

Nothing in the package is instrumented.  While a `Recorder` is installed it
replaces each layer's public functions with timing wrappers: the defining
module's attribute, every `hdist` module that imported the name (for
example `from .grid import dft` in `multiplier`), and methods on classes.
Transforms are counted where `numpy.fft` / `scipy.fft` are entered, so a
backend switch or a direct call in a later version still counts.

A span is (name, start, end, parent span, repetition).  Self time is a
span's duration minus the time its child spans cover.  Content hashing for
the distinct-input ratios runs in its own `trace.hash` child span, so it
never inflates a layer's self time.  A function that a later version
removes or renames makes its metrics `absent`, not zero.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path): several targets may feed one span.
TARGETS = (
    ("grid.dft", "hdist.grid", "dft"),
    ("grid.idft", "hdist.grid", "idft"),
    ("grid.pairing", "hdist.grid", "pairing"),
    ("grid.lp_norm", "hdist.grid", "lp_norm"),
    ("symbol.eval", "hdist.symbol", "SphericalSymbol.__call__"),
    ("symbol.harmonic_basis", "hdist.symbol", "SphericalHarmonicBasis.build"),
    ("multiplier.build", "hdist.multiplier", "from_symbol"),
    ("multiplier.build", "hdist.multiplier", "riesz"),
    ("multiplier.build", "hdist.multiplier", "riesz_potential"),
    ("multiplier.build", "hdist.multiplier", "bessel_potential"),
    ("multiplier.build", "hdist.multiplier", "derivative_op"),
    ("multiplier.apply", "hdist.multiplier", "MultiplierOperator.apply"),
    ("sobolev.sample", "hdist.sobolev", "SequenceFamily.u"),
    ("sobolev.norm", "hdist.sobolev", "wkq_norm"),
    ("sobolev.norm", "hdist.sobolev", "surrogate_negative_norm"),
    ("fitting.fit_limit", "hdist.fitting", "fit_limit"),
    ("fitting.fit_decay", "hdist.fitting", "fit_decay"),
    ("functional.mu_tensor", "hdist.functional", "mu_tensor"),
    ("functional.pairing_records", "hdist.functional", "pairing_records"),
    ("specbasis.hermite_analyze", "hdist.specbasis", "HermiteBasis.analyze"),
    ("specbasis.se_analyze", "hdist.specbasis", "se_analyze"),
    ("specbasis.se_membership", "hdist.specbasis", "se_membership_score"),
    ("localization.verdict", "hdist.localization", "localization_verdict"),
    ("commutator.probe", "hdist.commutator", "compactness_probe"),
    ("registry.make_field", "hdist.registry", "make_field"),
    ("cli.validate", "hdist.cli", "validate_config"),
    ("cli.write", "hdist.util", "dump_json"),
    ("cli.write", "hdist.cli", "_write_csv"),
)

FFT = "grid.fft"
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# read and write of one complex128 value per point
FFT_BYTES_PER_POINT = 2 * 16

# (name, unit, better, the end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("grid.fft.calls", "count", "lower",
     "run_s.p50 on loc64; flat or worse on probes2d is the cost to watch"),
    ("grid.fft.self_s", "s", "lower",
     "run_s.p50 on loc64; flat or worse on probes2d is the cost to watch"),
    ("grid.fft.bytes_computed", "B", "lower", "run_s.p50 on loc64"),
    ("grid.dft.calls", "count", "lower", "run_s.p50 on loc64"),
    ("grid.idft.calls", "count", "lower", "run_s.p50 on loc64"),
    ("grid.dft.distinct_frac", "ratio", "higher", "run_s.p50 on loc64"),
    ("grid.pairing.calls", "count", "lower", "run_s.p50 on probes2d"),
    ("grid.pairing.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("grid.lp_norm.calls", "count", "lower", "run_s.p50 on probes2d"),
    ("grid.lp_norm.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("symbol.eval.calls", "count", "lower", "run_s.p50 on tensor256"),
    ("symbol.eval.self_s", "s", "lower", "run_s.p50 on tensor256"),
    ("symbol.harmonic_basis.self_s", "s", "lower", "setup_s"),
    ("multiplier.build.calls", "count", "lower",
     "run_s.p50 on loc64, with peak_rss_mb on tensor256 as the cost"),
    ("multiplier.build.self_s", "s", "lower",
     "run_s.p50 on loc64, with peak_rss_mb on tensor256 as the cost"),
    ("multiplier.build.distinct_frac", "ratio", "higher",
     "run_s.p50 on loc64, with peak_rss_mb on tensor256 as the cost"),
    ("multiplier.apply.calls", "count", "lower", "run_s.p50 on loc64"),
    ("multiplier.apply.self_s", "s", "lower", "run_s.p50 on loc64"),
    ("sobolev.sample.calls", "count", "lower",
     "run_s.p50 and peak_rss_mb on loc64"),
    ("sobolev.sample.self_s", "s", "lower", "run_s.p50 and peak_rss_mb on loc64"),
    ("sobolev.sample.distinct_frac", "ratio", "higher",
     "run_s.p50 and peak_rss_mb on loc64"),
    ("sobolev.norm.calls", "count", "lower", "run_s.p50 on probes2d"),
    ("sobolev.norm.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("fitting.fit_limit.calls", "count", "lower",
     "run_s.p50 on tensor256; no effect expected on loc64"),
    ("fitting.fit_limit.self_s", "s", "lower",
     "run_s.p50 on tensor256; no effect expected on loc64"),
    ("fitting.fit_decay.calls", "count", "lower",
     "run_s.p50 on tensor256; no effect expected on loc64"),
    ("fitting.fit_decay.self_s", "s", "lower",
     "run_s.p50 on tensor256; no effect expected on loc64"),
    ("functional.mu_tensor.calls", "count", "lower", "run_s.p50 on tensor256"),
    ("functional.mu_tensor.self_s", "s", "lower", "run_s.p50 on tensor256"),
    ("functional.pairing_records.calls", "count", "lower", "run_s.p50 on tensor256"),
    ("functional.pairing_records.self_s", "s", "lower", "run_s.p50 on tensor256"),
    ("specbasis.hermite_analyze.calls", "count", "lower", "run_s.p50 on tensor256"),
    ("specbasis.hermite_analyze.self_s", "s", "lower", "run_s.p50 on tensor256"),
    ("specbasis.se_analyze.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("specbasis.se_membership.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("localization.verdict.self_s", "s", "lower", "run_s.p50 on loc64"),
    ("commutator.probe.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("registry.make_field.calls", "count", "lower", "setup_s and run_s.p50 on loc64"),
    ("registry.make_field.self_s", "s", "lower", "setup_s and run_s.p50 on loc64"),
    ("cli.validate.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("cli.write.self_s", "s", "lower", "run_s.p50 on probes2d"),
    ("cli.output_bytes", "B", "lower", "run_s.p50 on probes2d"),
    ("trace.overhead_s", "s", "lower",
     "none: traced minus untraced run_s.p50 on the same workload"),
)

# Metrics that run.py supplies per repetition instead of the wrappers.
OUTPUT_BYTES = "cli.output_bytes"
OVERHEAD = "trace.overhead_s"


def _digest(array) -> bytes:
    return hashlib.sha1(memoryview(array).cast("B")).digest()


def _dft_key(rec, args, kwargs, result):
    return _digest(args[0].values)


def _build_key(rec, args, kwargs, result):
    return _digest(result.m)


def _sample_key(rec, args, kwargs, result):
    # keyed by (family object, index); the recorder keeps the family alive
    # for the repetition so its id cannot be reused by a later family
    family = args[0]
    rec.keep_alive.append(family)
    return (id(family),) + tuple(args[1:]) + tuple(sorted(kwargs.items()))


DISTINCT_KEYS = {
    "grid.dft": _dft_key,
    "multiplier.build": _build_key,
    "sobolev.sample": _sample_key,
}


class RepStats:
    """Per-repetition counts, self times, distinct keys and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.counters = defaultdict(float)


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Recorder:
    """Keeps spans in memory and aggregates them per repetition."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, repetition]
        self.reps = []           # RepStats per traced repetition
        self.absent = set()      # span names whose every target is gone
        self.keep_alive = []
        self._stack = []
        self._child = []
        self._rep = None
        self._stats = None
        self._in_fft = False

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._rep])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _exit(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        child = self._child.pop()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        if self._child:
            self._child[-1] += duration
        self._stats.calls[span[0]] += 1
        self._stats.self_s[span[0]] += duration - child

    def _wrap(self, name, fn):
        key = DISTINCT_KEYS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if key is not None:
                h = self._enter("trace.hash")
                try:
                    self._stats.distinct[name].add(key(self, args, kwargs, result))
                finally:
                    self._exit(h)
            return result

        return wrapper

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._in_fft:  # a transform built from another: count it once
                return fn(a, *args, **kwargs)
            idx = self._enter(FFT)
            self._in_fft = True
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._in_fft = False
                self._exit(idx)
            points = max(getattr(a, "size", 0), getattr(out, "size", 0))
            self._stats.counters["grid.fft.bytes_computed"] += FFT_BYTES_PER_POINT * points
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def _bindings(self):
        """(owner, attribute, original raw value, replacement) for every site."""
        hdist_modules = [m for n, m in list(sys.modules.items())
                         if m is not None and (n == "hdist" or n.startswith("hdist."))]
        out = []
        resolved = set()

        def rebind_imports(original, replacement):
            for mod in hdist_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        out.append((mod, attr, value, replacement))

        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            resolved.add(name)
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                out.append((owner, attr, raw, type(raw)(self._wrap(name, raw.__func__))))
            elif isinstance(owner, type):
                out.append((owner, attr, raw, self._wrap(name, raw)))
            else:
                wrapper = self._wrap(name, raw)
                out.append((owner, attr, raw, wrapper))
                rebind_imports(raw, wrapper)
        self.absent = {name for name, _, _ in TARGETS} - resolved

        for module_name in FFT_MODULES:
            module = sys.modules.get(module_name)
            if module is None:  # never imported, so never called
                continue
            for fname in FFT_FUNCTIONS:
                raw = getattr(module, fname, None)
                if raw is None:
                    continue
                wrapper = self._wrap_fft(raw)
                out.append((module, fname, raw, wrapper))
                rebind_imports(raw, wrapper)
        return out

    @contextmanager
    def repetition(self, rep):
        """Install the wrappers for one traced repetition, then remove them."""
        self._rep = rep
        self._stats = RepStats()
        self.keep_alive = []
        bindings = self._bindings()
        for owner, attr, _, replacement in bindings:
            setattr(owner, attr, replacement)
        try:
            yield self._stats
        finally:
            for owner, attr, original, _ in reversed(bindings):
                setattr(owner, attr, original)
            self.reps.append(self._stats)
            self.keep_alive = []
            self._stats = None

    # -- results ---------------------------------------------------------------

    def _value(self, stats, metric):
        if metric in (OUTPUT_BYTES, "grid.fft.bytes_computed"):
            return stats.counters[metric]
        span, kind = metric.rsplit(".", 1)
        if kind == "calls":
            return stats.calls[span]
        if kind == "self_s":
            return stats.self_s[span]
        if kind == "distinct_frac":
            calls = stats.calls[span]
            return len(stats.distinct[span]) / calls if calls else 0.0
        raise ValueError(f"no rule for metric {metric}")

    def metrics(self, overhead_s):
        """Median over traced repetitions of every layer metric.

        An absent metric has value None and `"absent": true`.
        """
        out = {}
        for metric, unit, _, _ in LAYER_METRICS:
            if metric == OVERHEAD:
                out[metric] = {"value": overhead_s, "unit": unit}
                continue
            if metric.rsplit(".", 1)[0] in self.absent:
                out[metric] = {"value": None, "unit": unit, "absent": True}
                continue
            values = [self._value(s, metric) for s in self.reps]
            out[metric] = {"value": statistics.median(values), "unit": unit}
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, repetition."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
