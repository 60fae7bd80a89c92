"""The artifact encoder: compact, sorted-key, strict JSON, with every array
converted in one step."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hdist.util import dump_json, jsonable

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
