"""hdist.cli checks configs by JSON Schema 2020-12 without a validator
library; these tests hold it to jsonschema's Draft202012Validator on
mutations of the valid test configs."""

import copy
import re

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from hdist import cli
from hdist.cli import CONFIG_SCHEMAS, validate_config

from .test_cli import FULL_CFGS, NORM_CFG, SWEEP_CFG, U_FAMILY

# the full configs, and field specs and families that take the branches the
# full configs leave out
BASES = [
    *FULL_CFGS.values(),
    {**NORM_CFG, "fields": [{"product": ["gaussian", {"name": "bump"}]},
                            {"scale": 2.0, "of": "gaussian"},
                            {"scale": [1.0, 2.0], "of": {"product": []}}]},
    {**SWEEP_CFG, "families": {"u": U_FAMILY, "v": {**U_FAMILY, "order": -1}},
     "symbols": [{"name": "smoothed_sign", "params": {"axis": 0}}]},
    {**FULL_CFGS["commutator"],
     "family": {"kind": "concentration", "amplitude": "gaussian", "p": 2.0,
                "center": [0, 0.5], "profile_width": 4.0, "prefactor_power": 0.5,
                "indices": [1, 2, 4]}},
    {**FULL_CFGS["se_analysis"], "theta": {"x_field": "gaussian", "sphere_symbol": "riesz_1"}},
]

OTHER_VALUES = ["text", 3, 2.5, -1, 0, True, None, [], {}]

# a second theta side breaks one of the theta's oneOfs
MUTATION_KINDS = ["drop a key", "add a key", "retype", "1.0 for an integer",
                  "true for a number", "empty a list", "shorten a list",
                  "repeat an entry", "second theta side"]


def nodes(value, path=()):
    """(path, value) of every node of a JSON value, the root included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from nodes(sub, (*path, key))


def mutations(cfg):
    """{kind: [(path, new value), ...]} of the one-node mutations of cfg
    that keep its experiment."""
    kinds = {kind: [] for kind in MUTATION_KINDS}
    for path, node in nodes(cfg):
        if path == ("experiment",):
            continue
        if isinstance(node, dict):
            kinds["drop a key"] += [(path, {k: v for k, v in node.items() if k != key})
                                    for key in node if path or key != "experiment"]
            kinds["add a key"].append((path, {**node, "unknown_key": 1}))
        if path:
            kinds["retype"] += [(path, other) for other in OTHER_VALUES]
        if isinstance(node, list) and node:
            kinds["empty a list"].append((path, []))
            kinds["shorten a list"].append((path, node[:-1]))
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            kinds["true for a number"].append((path, True))
            if isinstance(node, int):
                kinds["1.0 for an integer"].append((path, float(node)))
        if path in (("q_list",), ("p_list",)) and isinstance(node, list):
            kinds["repeat an entry"] += [(path, [*node, 4, 4.0]), (path, [*node, 1, True])]
        if path == ("theta",) and isinstance(node, dict):
            kinds["second theta side"] += [(path, {**node, "x_field": "gaussian"}),
                                           (path, {**node, "sphere_symbol": "riesz_1"})]
    return kinds


def replaced(cfg, path, new):
    if not path:
        return new
    cfg = copy.deepcopy(cfg)
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = new
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 3))):
        options = mutations(cfg)[draw(st.sampled_from(MUTATION_KINDS))]
        if options:
            cfg = replaced(cfg, *draw(st.sampled_from(options)))
    return cfg


VALIDATORS = {name: jsonschema.Draft202012Validator(schema)
              for name, schema in CONFIG_SCHEMAS.items()}


def test_bases_are_valid():
    for cfg in BASES:
        assert validate_config(cfg) == [], cfg


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_configs())
def test_check_agrees_with_jsonschema(cfg):
    # a config accepted or refused alike, with its errors at the same paths
    want = {".".join(map(str, e.absolute_path)) or "(top level)"
            for e in VALIDATORS[cfg["experiment"]].iter_errors(cfg)}
    errors = validate_config(cfg)
    assert {e.split(": ", 1)[0].removeprefix("config.") for e in errors} == want


@pytest.mark.parametrize("rule", [
    {"pattern": "^g"},  # a keyword outside the list
    {"additionalProperties": True},
    {"type": "null"},
    {"$ref": "#/definitions/field"},
    {"$ref": "#/$defs/nowhere"},
])
def test_unchecked_schema_rule_raises(rule):
    # the module runs this check on every schema when it loads, so no rule
    # of an edited schema goes unchecked; each rule here sits inside $defs
    schema = copy.deepcopy(CONFIG_SCHEMAS["commutator"])
    cli._check_keywords(schema, schema["$defs"])
    schema["$defs"]["family"]["properties"]["direction"]["items"].update(rule)
    with pytest.raises(ValueError, match=re.escape(repr(next(iter(rule))))):
        cli._check_keywords(schema, schema["$defs"])
