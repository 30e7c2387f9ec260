import json
import math

import numpy as np
import pytest

from hsps import modes
from hsps.modes import (
    NARROW_IDLER,
    NARROW_SIGNAL,
    filtered_jsa,
    indistinguishability_report,
    marginal_mode_number,
    mode_report,
    schmidt,
    write_strategy_csv,
)
from hsps.cli import run
from hsps.config import config_to_dict, load_config
from hsps.oracle import make_default_grids
from hsps.spectral import filter_amplitude
from hsps.stats import unconditional_g2


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

    def test_rejects_zero_matrix(self):
        with pytest.raises(ValueError):
            schmidt(np.zeros((8, 8)))


class TestMarginalModeNumber:
    def test_narrow_filter_single_mode(self, symmetric):
        k = marginal_mode_number(symmetric(0.05, 0.05, 0.01), "signal")
        assert k == pytest.approx(1.0, abs=2e-3)

    def test_matches_closed_form_at_unit_bandwidth(self, symmetric):
        k = marginal_mode_number(symmetric(1.0, 1.0, 0.01), "signal")
        assert 1.0 + 1.0 / k == pytest.approx(1.8164965809277263, abs=1e-3)

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
        assert 1.0 + 1.0 / k == pytest.approx(unconditional_g2(sigma), abs=1e-3)

    def test_rejects_unknown_band(self, symmetric):
        with pytest.raises(ValueError):
            marginal_mode_number(symmetric(), "pump")

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


class TestIndistinguishabilityStrategies:
    def test_fixture_curves(self):
        report = indistinguishability_report(p_pair=0.005)
        idler_curve, signal_curve = report.curves
        assert idler_curve.strategy == NARROW_IDLER
        assert signal_curve.strategy == NARROW_SIGNAL
        # pinning the herald band and opening the signal band both cuts the
        # conditional g2 and raises H, so that strategy wins on both counts
        assert report.better_g2_strategy == NARROW_IDLER
        assert report.better_h_strategy == NARROW_IDLER

    def test_equal_bandwidths_same_car_different_h(self):
        report = indistinguishability_report(p_pair=0.005)
        idler_curve, signal_curve = report.curves
        at = np.argmin(np.abs(idler_curve.sigma_free - 2.0))
        # the coincidence ratio is symmetric under band swap, so the g2
        # difference comes only from the band autocorrelation factor
        from hsps.stats import car

        assert car(0.005, 2.0, 0.3) == car(0.005, 0.3, 2.0)
        h_idler = idler_curve.h[at]
        h_signal = signal_curve.h[at]
        assert h_idler == pytest.approx(2.0 / math.sqrt(6.09), rel=1e-9)
        assert h_signal == pytest.approx(0.3 / math.sqrt(6.09), rel=1e-9)
        assert h_idler > h_signal

    def test_csv_emission(self, tmp_path):
        report = indistinguishability_report(p_pair=0.005)
        path = tmp_path / "fig.csv"
        write_strategy_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma_free,g_c2,h,strategy"
        # 59 free bandwidths 0.1, 0.15, ..., 3.0 per strategy
        assert len(lines) == 1 + 2 * 59
        assert lines[1].startswith("0.1,") and lines[1].endswith(NARROW_IDLER)
        assert lines[59].startswith("3,") and lines[60].endswith(NARROW_SIGNAL)
