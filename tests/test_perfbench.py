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
import json
import pathlib
import re
import sys

import pytest

from hsps import pipeline
from hsps.config import config_from_dict

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


def test_sweep_reduce_setups_are_the_declared_ones(perfbench, tmp_path):
    # the benchmark's frozen copy of the paper's filter pairs differs from
    # pipeline.paper_filter_pair only in its energy-matched signal center
    workloads, _ = perfbench
    workload = workloads.WORKLOADS["sweep_reduce"](ROOT, tmp_path, 12345, scale=0.01)
    assert [job["label"] for job in workload.jobs] == list(pipeline.PAPER_FILTER_PAIRS)
    for job in workload.jobs:
        declared, s1, s2 = pipeline.paper_filter_pair(job["label"])
        doc = json.loads(job["config_path"].read_text())
        assert (config_from_dict(doc), job["s1"], job["s2"]) == (job["config"], s1, s2)
        assert abs(job["config"].center_mismatch_sigmas) < 1e-6
        doc["filters"]["signal"]["center_nm"] = declared.signal_filter.center_wavelength
        assert config_from_dict(doc) == declared
