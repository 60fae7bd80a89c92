"""Every function the benchmark's tracer wraps exists in the package.

perfbench/tracer.py reports a layer whose targets are all gone as `absent`,
not as an error; this test makes a rename of a traced function fail here
instead of silently emptying that layer's metrics.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("span, module, path", tracer.TARGETS,
                         ids=[f"{module}.{path}" for _, module, path in tracer.TARGETS])
def test_traced_name_resolves(span, module, path):
    assert tracer._resolve(module, path) is not None, f"{span}: {module}.{path} is gone"
