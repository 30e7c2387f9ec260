"""The benchmark's use of the public API still works.

perfbench/ is loaded by file path, as its worker imports it.  Each workload
runs one pass at the self-check's tiny scale and seed and its own output
checks must find nothing, and every function a per-layer metric names must
still be a public function of its hsps module, so a rename or removal that
would fail a workload or the traced run fails here first.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """(workloads, layers) modules; layers imports its siblings by bare name."""
    loaded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("tracer", "workloads", "layers"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            loaded[name] = module
    return loaded["workloads"], loaded["layers"]


@pytest.mark.parametrize("name", ["mc_lab", "sweep_reduce", "oracle_audit"])
def test_workload_pass_checks_clean(perfbench, tmp_path, name):
    workloads, _ = perfbench
    workload = workloads.WORKLOADS[name](ROOT, tmp_path, 12345, scale=0.01)
    results = {}
    for op_name, op in workload.ops(None):
        try:
            results[op_name] = op()
        except Exception as exc:  # reported as this operation's problem
            results[op_name] = exc
    raised = {k: repr(v) for k, v in results.items() if isinstance(v, Exception)}
    assert not raised
    assert {k: v for k, v in workload.check(results).items() if v} == {}


def test_layer_metrics_name_public_functions(perfbench):
    _, layers = perfbench
    names = set()
    for fnames in layers.FUNCTION_METRICS.values():
        names.update((fnames,) if isinstance(fnames, str) else fnames)
    for traced in sorted(names):
        qualified = re.sub(r"(\[\w+\])?(_n\d+)?$", "", traced)
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"hsps.{module_name}")
        func = getattr(module, func_name, None)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, traced
        assert not func_name.startswith("_"), traced
