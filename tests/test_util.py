"""The artifact encoder: compact, sorted-key, strict JSON, with every array
converted in one step; the config hash over the same text; exponent labels."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hdist.util import canonical_hash, dump_json, exponent_label, jsonable

# Signed zeros, the smallest and largest subnormals, and the ends of the range.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
SHAPES = st.sampled_from([(), (0,)]) | st.tuples(st.integers(1, 4)) \
    | st.tuples(st.integers(1, 4), st.integers(1, 4))


def value_by_value(value):
    """Reference conversion of a tolist() result: walk it, and turn each
    complex value into [re, im]."""
    if isinstance(value, list):
        return [value_by_value(v) for v in value]
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return value


@st.composite
def arrays(draw):
    """A complex, real or bool array of shape (), (0,), (k,) or (k, m)."""
    kind = draw(st.sampled_from(["complex", "real", "bool"]))
    shape = draw(SHAPES)
    # np.asarray: hnp.arrays draws a numpy scalar, not an array, for shape ()
    if kind == "bool":
        return np.asarray(draw(hnp.arrays(np.bool_, shape)))
    re = np.asarray(draw(hnp.arrays(np.float64, shape, elements=FINITE)))
    if kind == "real":
        return re
    z = np.empty(shape, dtype=complex)  # re + 1j * im would lose an imaginary -0.0
    z.real = re
    z.imag = draw(hnp.arrays(np.float64, shape, elements=FINITE))
    return z


def outside_strings(text):
    """The characters of JSON text that are not inside a string literal."""
    out, in_string, escaped = [], False, False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        else:
            out.append(ch)
    return "".join(out)


def sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


class TestDumpJson:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(x=arrays())
    def test_arrays_encode_as_the_value_by_value_conversion(self, x):
        expected = value_by_value(x.tolist())
        text = dump_json({"b": {"d": x, "c": "two words\tand a tab"}, "a": x, 10: True})
        loaded = json.loads(text, object_pairs_hook=sorted_pairs)
        assert loaded == {"10": True, "a": expected,
                          "b": {"c": "two words\tand a tab", "d": expected}}
        # repr tells -0.0 from 0.0 and True from 1, which == does not
        assert repr(loaded["a"]) == repr(expected)
        assert not any(ch.isspace() for ch in outside_strings(text[:-1]))
        assert text.endswith("\n") and text.count("\n") == 1

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(x=arrays(), data=st.data())
    def test_non_finite_values_raise(self, x, data):
        if x.dtype == np.bool_ or x.size == 0:
            return
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        index = data.draw(st.integers(0, x.size - 1))
        flat = x.reshape(-1)  # a view: writes land in x
        if np.iscomplexobj(x) and data.draw(st.booleans()):
            flat.imag[index] = bad
        else:
            flat.real[index] = bad
        assert not np.isfinite(x).all()
        with pytest.raises(ValueError, match="JSON compliant"):
            dump_json({"a": x})

    def test_zero_dimensional_complex(self):
        assert jsonable(np.array(1 + 2j)) == [1.0, 2.0]
        assert jsonable(np.array(3.5)) == 3.5


ROOT = Path(__file__).resolve().parent.parent


def workload_config():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    configs, _ = module.probes2d(0)
    return configs[1]


def readme_config():
    [block] = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return json.loads(block)


@pytest.mark.parametrize("cfg", [readme_config(), workload_config()], ids=["readme", "probes2d"])
def test_config_hash_is_the_artifact_text(cfg):
    # the config_hash stamp hashes the artifact text of the config; a finite
    # config's hash is the one the stamp held when it was spelled apart
    text = dump_json(cfg)[:-1]
    assert canonical_hash(cfg) == hashlib.sha256(text.encode()).hexdigest()
    apart = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert canonical_hash(cfg) == hashlib.sha256(apart.encode()).hexdigest()


EXPONENTS = st.floats(1, 1e6, exclude_min=True, exclude_max=True) | st.integers(2, 100)


class TestExponentLabel:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(x=EXPONENTS, y=EXPONENTS)
    def test_labels_read_back_exactly(self, x, y):
        label, short = exponent_label(x), f"{x:g}"
        assert float(label) == x
        if float(short) == x:
            assert label == short
        # distinct exponents, a float's neighbours among them, never share a label
        for other in (y, np.nextafter(float(x), 0), np.nextafter(float(x), 2e6)):
            assert (exponent_label(other) == label) == (other == x)

    @pytest.mark.parametrize("x, label", [
        (2, "2"), (4.0, "4"), (1.5, "1.5"), (4 / 3, "1.3333333333333333"),
        (4.0000001, "4.0000001"),
    ])
    def test_pinned_labels(self, x, label):
        assert exponent_label(x) == label
