import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hsps.modes import filtered_jsa, marginal_mode_number, mode_report, schmidt
from hsps.cli import run
from hsps.config import config_to_dict, load_config
from hsps.oracle import MAX_DEFAULT_POINTS, FrequencyGrid, make_default_grids
from hsps.spectral import filter_amplitude
from hsps.stats import unconditional_g2

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestFilteredJsa:
    def test_unit_norm(self, symmetric):
        jsa = filtered_jsa(symmetric(1.0, 1.0, 0.01))
        assert np.linalg.norm(jsa) == pytest.approx(1.0, abs=1e-12)

    def test_separability_limit(self, symmetric):
        # filters much narrower than the pump see a flat envelope: the
        # amplitude factorizes and a single Schmidt mode survives
        config = symmetric(0.02, 0.02, 0.01)
        report = mode_report(config)
        assert report.schmidt_number == pytest.approx(1.0, abs=1e-3)
        assert report.heralded_purity == pytest.approx(1.0, abs=1e-3)

    def test_lone_grid_is_rejected(self, symmetric):
        config = symmetric(0.8, 0.8, 0.01)
        grid_s, _ = make_default_grids(config, 64)
        with pytest.raises(ValueError, match="both grid_s and grid_i"):
            filtered_jsa(config, grid_s)

    def test_band_swap_symmetry(self, symmetric):
        config = symmetric(0.8, 0.8, 0.01)
        grid_s, grid_i = make_default_grids(config, 128)
        jsa = filtered_jsa(config, grid_s, grid_i)
        assert np.allclose(jsa, jsa.T, atol=1e-10)

    def test_leading_coefficient_grid_convergence(self, symmetric):
        config = symmetric(1.0, 0.5, 0.01)
        lead = []
        for n in (128, 256):
            grid_s, grid_i = make_default_grids(config, n)
            lead.append(schmidt(filtered_jsa(config, grid_s, grid_i)).coefficients[0])
        assert abs(lead[1] - lead[0]) <= 1e-6


class TestSchmidt:
    def test_rank_one_gives_unit_mode_number(self):
        matrix = np.outer(np.exp(-np.linspace(-3, 3, 40) ** 2), np.exp(-np.linspace(-2, 2, 50) ** 2))
        result = schmidt(matrix / np.linalg.norm(matrix))
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-12)

    def test_coefficients_normalized_and_descending(self, symmetric):
        result = schmidt(filtered_jsa(symmetric(1.5, 0.7, 0.01)))
        lam = result.coefficients
        assert lam.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(lam) <= 1e-15)
        assert result.schmidt_number >= 1.0

    @pytest.mark.parametrize(
        "sig_s, sig_i, n_s, n_i",
        [(0.3, 0.3, 256, 256), (1.0, 1.0, 256, 256), (2.0, 0.3, 256, 256),
         (3.0, 0.6, 256, 256), (1.5, 0.7, 96, 160), (0.7, 1.5, 160, 96)],
    )
    def test_matches_squared_singular_values(self, symmetric, sig_s, sig_i, n_s, n_i):
        # the reduced-density-matrix spectrum against the SVD of the
        # amplitude, square and rectangular (wide and tall)
        config = symmetric(sig_s, sig_i, 0.01)
        grid_s, grid_i = make_default_grids(config)
        grid_s = FrequencyGrid(grid_s.band_center, grid_s.half_width, n_s)
        grid_i = FrequencyGrid(grid_i.band_center, grid_i.half_width, n_i)
        jsa = filtered_jsa(config, grid_s, grid_i)
        lam = schmidt(jsa).coefficients
        assert lam.shape == (min(n_s, n_i),)
        assert np.max(np.abs(lam - np.linalg.svd(jsa, compute_uv=False) ** 2)) <= 1e-15
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 0.0)

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            schmidt(np.zeros((8, 8)))


class TestMarginalModeNumber:
    def test_narrow_filter_single_mode(self, symmetric):
        k = marginal_mode_number(symmetric(0.05, 0.05, 0.01), "signal")
        assert k == pytest.approx(1.0, abs=2e-3)

    def test_matches_closed_form_at_unit_bandwidth(self, symmetric):
        k = marginal_mode_number(symmetric(1.0, 1.0, 0.01), "signal")
        assert 1.0 + 1.0 / k == pytest.approx(1.8164965809277263, abs=1e-12)

    def test_independent_of_other_band(self, symmetric):
        values = [
            marginal_mode_number(symmetric(1.0, sig_i, 0.01), "signal")
            for sig_i in (0.3, 2.0)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.7, 1.0, 1.8, 3.0])
    def test_consistency_with_band_autocorrelation(self, symmetric, sigma):
        config = symmetric(sigma, 0.5, 0.01)
        k = marginal_mode_number(config, "signal")
        assert 1.0 + 1.0 / k == pytest.approx(unconditional_g2(sigma), abs=1e-12)

    def test_rejects_unknown_band(self, symmetric):
        with pytest.raises(ValueError):
            marginal_mode_number(symmetric(), "pump")

    @pytest.mark.parametrize("sigma", [0.04, 0.1, 1.0, 5.0])
    def test_convolution_equals_dense_kernel(self, symmetric, sigma):
        # trace^2 / |k|^2 of the n x n kernel the convolution replaces; at
        # sigma' = 0.04 the band is capped at MAX_DEFAULT_POINTS
        config = symmetric(sigma, 1.0, 0.01)
        grid = make_default_grids(config)[0]
        assert (grid.n_points == MAX_DEFAULT_POINTS) == (sigma == 0.04)
        w = grid.points()
        f = filter_amplitude(w, config.signal_filter)
        kernel = np.outer(f, f) * np.exp(
            -np.subtract.outer(w, w) ** 2 / (8.0 * config.pump.bandwidth_sigma**2)
        )
        expected = np.trace(kernel) ** 2 / np.sum(kernel * kernel)
        assert marginal_mode_number(config, "signal") == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("band, index", [("signal", 0), ("idler", 1)])
    def test_matches_eigenvalue_form_on_demo(self, band, index):
        # (sum mu)^2 / sum mu^2 over the clipped kernel spectrum
        config = load_config("configs/demo.json")
        filt = config.signal_filter if band == "signal" else config.idler_filter
        w = make_default_grids(config)[index].points()
        f = filter_amplitude(w, filt)
        kernel = np.outer(f, f) * np.exp(
            -np.subtract.outer(w, w) ** 2 / (8.0 * config.pump.bandwidth_sigma**2)
        )
        mu = np.clip(np.linalg.eigvalsh(kernel), 0.0, None)
        expected = mu.sum() ** 2 / np.sum(mu**2)
        assert marginal_mode_number(config, band) == pytest.approx(expected, rel=1e-12)


MEHLER_SIGMAS = (0.1, 0.3, 1.0, 3.0, 5.0)


class TestMehlerClosedForms:
    """mode_report on the default grids against the exact answer: the
    filtered amplitude is a bivariate Gaussian, so by Mehler's formula its
    Schmidt spectrum is geometric, lambda_k = (1 - mu) mu^k with
    mu = (K - 1) / (K + 1), and each band's marginal mode number is
    K_eff = sqrt(1 + sigma'^2 / 2)."""

    @pytest.mark.parametrize("sig_i", MEHLER_SIGMAS)
    @pytest.mark.parametrize("sig_s", MEHLER_SIGMAS)
    def test_mode_report_matches_mehler(self, symmetric, sig_s, sig_i):
        report = mode_report(symmetric(sig_s, sig_i, 0.02))
        k = math.sqrt((2 + sig_s**2) * (2 + sig_i**2) / (2 * (2 + sig_s**2 + sig_i**2)))
        mu = (k - 1) / (k + 1)
        coefficients = (1 - mu) * mu ** np.arange(16)
        assert report.schmidt_number == pytest.approx(k, rel=1e-12, abs=0)
        assert np.max(np.abs(np.array(report.schmidt_coefficients) - coefficients)) <= 5e-13
        for g2, sigma in ((report.g2_signal_pred, sig_s), (report.g2_idler_pred, sig_i)):
            # the worst of these 25 pairs is 9.7e-14 (1.44e-13 from the dense kernel)
            k_eff = 1.0 / (g2 - 1.0)
            assert k_eff == pytest.approx(math.sqrt(1 + sigma**2 / 2), rel=1.2e-13, abs=0)


class TestModeReport:
    def test_narrowband_herald_anchor(self, symmetric):
        # heralding band at 0.3 pump widths: g2 within 0.003 of 1.978
        report = mode_report(symmetric(2.0, 0.3, 0.01))
        assert report.g2_idler_pred == pytest.approx(1.978, abs=0.003)
        assert report.single_mode_heralding is True
        assert report.single_mode_heralded is False

    def test_json_round_trip(self, symmetric, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(symmetric(1.0, 0.3, 0.01))))
        path = tmp_path / "modes.json"
        assert run(["modes", "--config", str(config_path), "--out", str(path)]) == 0
        report = mode_report(load_config(config_path))
        text = path.read_text()
        assert text == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        doc = json.loads(text)
        assert doc["schmidt_number"] == report.schmidt_number
        assert doc["single_mode_heralding"] is True
        assert sum(doc["schmidt_coefficients"]) == pytest.approx(1.0, abs=1e-6)

    def test_one_cap_warning_per_capped_band_and_the_same_numbers(self, symmetric):
        config = symmetric(0.02, 1.0, 0.01)  # only the signal band is capped
        calls = {"report": lambda: mode_report(config),
                 "schmidt": lambda: schmidt(filtered_jsa(config)),
                 "signal": lambda: marginal_mode_number(config, "signal"),
                 "idler": lambda: marginal_mode_number(config, "idler")}
        results = {}
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results[name] = call()
            named = [str(w.message).split()[0] for w in caught]
            assert named == ([] if name == "idler" else ["signal"]), name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mode_report(symmetric(0.02, 0.02, 0.01))
        assert [str(w.message).split()[0] for w in caught] == ["signal", "idler"]
        report = results["report"]
        assert report.schmidt_number == results["schmidt"].schmidt_number
        assert report.schmidt_coefficients == tuple(results["schmidt"].coefficients[:16])
        assert report.g2_signal_pred == 1.0 + 1.0 / results["signal"]
        assert report.g2_idler_pred == 1.0 + 1.0 / results["idler"]


def _hsps_modules_after_import(module: str) -> set[str]:
    """The hsps modules a fresh interpreter holds after importing module."""
    code = f"import sys, {module}; print(' '.join(sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    ).stdout.split()
    return {name for name in loaded if name == "hsps" or name.startswith("hsps.")}


def test_import_leaves_out_pipeline_and_montecarlo():
    # the mode analysis stands on config, oracle and spectral alone
    loaded = _hsps_modules_after_import("hsps.modes")
    assert "hsps.modes" in loaded
    assert "hsps.pipeline" not in loaded
    assert "hsps.montecarlo" not in loaded


def test_config_import_loads_only_config():
    # the package __init__ re-exports nothing, so it pulls in no sibling
    assert _hsps_modules_after_import("hsps.config") == {"hsps", "hsps.config"}
