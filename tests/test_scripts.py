"""Smoke tests: the experiment scripts run end to end and write their CSVs."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np

from hsps import montecarlo as mc
from hsps.config import load_config
from hsps.montecarlo import RNG_SCHEME

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )


def test_contour_figures(tmp_path):
    result = _run_script("run_contour_figures.py", "--out-dir", str(tmp_path))
    for p_pair in ("0.01", "0.02", "0.005"):
        lines = (tmp_path / f"contour_ppair_{p_pair}.csv").read_text().splitlines()
        assert lines[0] == "sigma_s_prime,sigma_i_prime,car,g_c2,h"
        assert len(lines) == 1 + 59 * 59
    strategy = (tmp_path / "strategy_sweep_ppair_0.005.csv").read_text().splitlines()
    assert strategy[0] == "sigma_free,g_c2,h,strategy"
    assert "better H strategy: narrow_idler" in result.stdout


def test_oracle_comparison(tmp_path):
    out = tmp_path / "oracle.csv"
    result = _run_script("run_oracle_comparison.py", "--out", str(out))
    lines = out.read_text().splitlines()
    # 3 x 3 bandwidths, 2 gains, 6 quantities each
    assert len(lines) == 1 + 3 * 3 * 2 * 6
    assert max(float(line.rsplit(",", 1)[1]) for line in lines[1:]) < 1e-6
    assert "worst relative error" in result.stdout


def test_synthetic_experiment(tmp_path):
    result = _run_script("run_synthetic_experiment.py", "--out-dir", str(tmp_path))
    for label in ("F_I", "F_II", "F_III"):
        records = (tmp_path / f"records_{label}.csv").read_text().splitlines()
        assert records[0].startswith("p_ave_mw,gates,")
        assert len(records) == 1 + 5
        corrected = (tmp_path / f"corrected_{label}.csv").read_text().splitlines()
        assert corrected[0].startswith("p_ave_mw,p_pair,car,")
        assert len(corrected) == 1 + 5
        assert f"{label}: fit s1=" in result.stdout


def test_check_rng_scheme():
    config = ROOT / "configs" / "symmetric.json"
    result = _run_script("check_rng_scheme.py", "--config", str(config),
                         "--pulses", "200000", "--seeds", "8")
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"rng_scheme {RNG_SCHEME}; 8 seeds x 200000 gates")
    statistics = [line.split()[0] for line in lines[2:-1]]
    assert statistics == ["singles_1", "singles_2", "singles_3", "coinc_12", "coinc_13",
                          "coinc_23", "triples_123", "acc_12", "acc_13",
                          "var(acc_12)", "cov(acc_12,coinc_12)",
                          "var(acc_13)", "cov(acc_13,coinc_13)"]
    assert lines[-1].startswith("max |z| ")


def test_check_rng_scheme_first_seed():
    # the table is drawn on seeds 5..7: its singles_1 mean is theirs
    config = ROOT / "configs" / "symmetric.json"
    result = _run_script("check_rng_scheme.py", "--config", str(config),
                         "--pulses", "200000", "--seeds", "3", "--first-seed", "5")
    lines = result.stdout.splitlines()
    assert lines[0].startswith(f"rng_scheme {RNG_SCHEME}; 3 seeds x 200000 gates")
    assert lines[0].endswith(", seeds 5..7")
    model = dataclasses.replace(mc.build_pulse_model(load_config(config)),
                                dead_time_gates=(0, 0, 0))
    singles = [mc.simulate(model, 200000, seed=seed).singles_1 for seed in (5, 6, 7)]
    name, _, mean = lines[2].split()[:3]
    assert (name, mean) == ("singles_1", f"{np.mean(singles):.3f}")
