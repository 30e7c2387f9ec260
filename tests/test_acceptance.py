"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 4's blanket
5 percent bound is asserted exactly as stated; it is known to be violated
at the broad-signal/narrow-idler corner of the grid (worst case 7.5
percent, see the repository notes on the shortcut formula), so that test
documents the failure precisely rather than hiding it.
"""

import json
import math
import time

import numpy as np
import pytest

from hsps.config import config_to_dict, make_symmetric_config
from hsps import modes, montecarlo as mc, oracle, pipeline as pl
from hsps.cli import run as cli_run
from hsps.stats import full_report, unconditional_g2

EFF = (0.5, 0.8, 0.8)


def _pass(number, message):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def _symmetric(sig_s, sig_i, g2, **kwargs):
    kwargs.setdefault("det_efficiencies", EFF)
    return make_symmetric_config(sig_s, sig_i, g2, **kwargs)


class TestCriterion1ClosedFormVsQuadrature:
    def test_oracle_equivalence_grid(self):
        started = time.monotonic()
        fields = ("p1", "p2", "p12_true", "p123_accidental", "p123_pair_single",
                  "p123_bunching")
        worst = 0.0
        for sig_s in (0.3, 1.0, 2.0):
            for sig_i in (0.3, 1.0, 2.0):
                for g2 in (1e-3, 1e-2):
                    config = _symmetric(sig_s, sig_i, g2,
                                        det_efficiencies=(1.0, 1.0, 1.0))
                    analytic, _ = full_report(config)
                    numeric = oracle.numeric_counts(config)
                    pairs = {
                        "p1": (analytic.p1, numeric.p1),
                        "p2": (analytic.p2, numeric.p2),
                        "p12_true": (analytic.p12 - analytic.p12_acc,
                                     numeric.p12 - numeric.p12_acc),
                        "p123_accidental": (analytic.p123_accidental,
                                            numeric.p123_accidental),
                        "p123_pair_single": (analytic.p123_pair_single,
                                             numeric.p123_pair_single),
                        "p123_bunching": (analytic.p123_bunching,
                                          numeric.p123_bunching),
                    }
                    for name in fields:
                        a, n = pairs[name]
                        rel = abs(n - a) / abs(a)
                        worst = max(worst, rel)
                        assert rel <= 1e-6, (name, sig_s, sig_i, g2, rel)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        _pass(1, f"closed form vs quadrature <= 1e-6 over 3x3x2 grid "
                 f"(worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2SingleModeAnchor:
    def test_band_g2_from_both_routes(self):
        closed = unconditional_g2(0.3)
        assert closed == pytest.approx(1.978, abs=0.003)
        config = _symmetric(2.0, 0.3, 0.01)
        k_eff = modes.marginal_mode_number(config, "idler")
        eigen_route = 1.0 + 1.0 / k_eff
        assert eigen_route == pytest.approx(1.978, abs=0.003)
        _pass(2, f"band g2 at 0.3 pump widths: closed {closed:.5f}, "
                 f"eigen-decomposition {eigen_route:.5f} (both 1.978 +- 0.003)")


class TestCriterion3FigureFixtures:
    def test_contour_anchor_cells(self):
        from hsps.stats import car, collection_efficiency, heralded_g2_approx

        car_value = car(0.01, 1.0, 1.0)
        assert car_value == 26.0
        g2_value = heralded_g2_approx(unconditional_g2(1.0), car(0.02, 1.0, 1.0))
        assert abs(g2_value - 0.2592) <= 0.0001
        h_value = collection_efficiency(1.0, 1.0)
        assert h_value == 0.5
        _pass(3, f"CAR(1,1;0.01) = {car_value}, g2(1,1;0.02) = {g2_value:.5f}, "
                 f"H(1,1) = {h_value}")


class TestCriterion4ApproximationAudit:
    def test_representative_point(self):
        _, figures = full_report(_symmetric(1.0, 1.0, 0.01,
                                            det_efficiencies=(1.0, 1.0, 1.0)))
        assert figures.g_c2_exact == pytest.approx(0.2928, abs=5e-5)
        assert figures.g_c2_approx == pytest.approx(0.2844, abs=5e-5)
        _pass(4, f"representative point exact {figures.g_c2_exact:.4f} / "
                 f"approx {figures.g_c2_approx:.4f}")

    def test_five_percent_bound_over_grid(self):
        # stated bound: |approx - exact| / exact <= 0.05 over [0.3, 2]^2 at
        # |G|^2 <= 0.02.  The bound fails near (2.0, 0.3), where the
        # two-pair collection factor exceeds the one-pair factor by 22
        # percent and the deviation reaches 7.5 percent; see
        # test_stats.TestFullReport.test_approximation_worst_corner_is_understood
        # for the closed-form limit of the discrepancy.
        worst = 0.0
        for sig_s in np.arange(0.3, 2.0001, 0.1):
            for sig_i in np.arange(0.3, 2.0001, 0.1):
                for g2 in (1e-3, 0.02):
                    _, figures = full_report(
                        _symmetric(float(sig_s), float(sig_i), g2,
                                   det_efficiencies=(1.0, 1.0, 1.0))
                    )
                    dev = abs(figures.g_c2_approx - figures.g_c2_exact) / figures.g_c2_exact
                    worst = max(worst, dev)
        assert worst <= 0.05, (
            f"worst deviation {worst:.4f} exceeds the stated 0.05 bound; "
            "the shortcut formula degrades toward broad-signal/narrow-idler "
            "corners (limit 1 - g_s2 / (1 + (g_s2 - 1) xi'/xi) ~ 7.5%)"
        )
        _pass(4, f"approximation within 5% over the grid (worst {worst:.4f})")


class TestCriterion5MonteCarloConvergence:
    def test_three_fixtures_twenty_seeds(self):
        started = time.monotonic()
        fixtures = [
            mc.build_pulse_model(_symmetric(1.0, 1.0, 0.01)),
            mc.build_pulse_model(_symmetric(0.3, 0.3, 0.02)),
            mc.build_pulse_model(
                _symmetric(1.0, 1.0, 0.01, dark=(2e-4, 2e-4, 5e-4)),
                raman=(0.05, 0.05, 1.0),
            ),
        ]
        configs = [
            _symmetric(1.0, 1.0, 0.01),
            _symmetric(0.3, 0.3, 0.02),
            _symmetric(1.0, 1.0, 0.01, dark=(2e-4, 2e-4, 5e-4)),
        ]
        n_pulses = 10_000_000
        checks = failures = 0
        for model, config in zip(fixtures, configs):
            predicted = mc.model_predictions(model, config)
            for seed in range(20):
                tallies = mc.simulate(model, n_pulses, seed=seed)
                estimates = mc.estimate(tallies, config)
                for name in ("car", "g_c2", "h"):
                    result = getattr(estimates, name)
                    checks += 1
                    if abs(result.value - predicted[name]) > 3.0 * result.std_error:
                        failures += 1
        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        assert failures <= 0.10 * checks, f"{failures}/{checks} checks outside 3 sigma"
        _pass(5, f"{checks - failures}/{checks} estimates within 3 sigma at 1e7 "
                 f"pulses ({elapsed:.0f}s)")


class TestCriterion6PipelineReproduction:
    def test_noiseless_fit_recovery(self):
        # powers at which the exact rates land on integer counts
        powers = (0.25, 0.5, 1.0, 2.0, 4.0)
        gates = 16_000_000
        for s1, s2 in ((0.061, 0.027), (0.030, 0.012)):
            records = []
            for p in powers:
                counts = round((s1 * p + s2 * p**2) * gates)
                assert abs(counts - (s1 * p + s2 * p**2) * gates) < 1e-6
                tallies = mc.TallyCounters(gates=gates, singles_1=counts, singles_2=1,
                                           singles_3=1, coinc_12=1, coinc_13=1,
                                           acc_12=1, acc_13=1)
                records.append(pl.PowerPointRecord(p_ave=p, tallies=tallies))
            fit = pl.fit_quadratic(records)
            assert abs(fit.s1 - s1) <= 1e-10
            assert abs(fit.s2 - s2) <= 1e-10

    def test_synthetic_chain_h_signature(self):
        config = _symmetric(1.0, 1.0, 0.01, dark=(2e-4, 2e-4, 5e-4))
        records = pl.synthesize_power_sweep(
            config, s1=0.06, s2=0.08, powers=[0.5, 0.7, 0.9, 1.1, 1.3],
            pulses_per_point=3_000_000, seed=101,
        )
        fit = pl.fit_quadratic(records)
        corrected = pl.raman_correct(records, fit, config)
        powers = [c.p_ave for c in corrected]
        raw_slope, raw_se = pl.power_slope(
            powers, [c.raw_h.value for c in corrected],
            [c.raw_h.std_error for c in corrected],
        )
        cor_slope, cor_se = pl.power_slope(
            powers, [c.h.value for c in corrected], [c.h.std_error for c in corrected]
        )
        assert raw_slope > 2.0 * raw_se, "raw H does not rise with pump power"
        assert abs(cor_slope) < 2.0 * cor_se, "corrected H still trends with power"
        _pass(6, f"fits exact to 1e-10; raw H slope {raw_slope:.3f} "
                 f"(+{raw_slope / raw_se:.0f} sigma), corrected slope "
                 f"{cor_slope:+.4f} +- {cor_se:.4f}")


class TestCriterion7FilterPairOrderings:
    def test_corrected_orderings(self):
        from hsps.stats import collection_efficiency, normalize

        target_p_pair = 0.04
        corrected_at_target = {}
        for label in pl.PAPER_FILTER_PAIRS:
            config, s1, s2 = pl.paper_filter_pair(label)
            bands = normalize(config)
            xi = collection_efficiency(bands.sigma_s_prime, bands.sigma_i_prime)
            # power at which the pair rate reaches the common target
            p_target = math.sqrt(target_p_pair / (s2 * xi))
            powers = [f * p_target for f in (0.65, 0.85, 1.0, 1.15)]
            records = pl.synthesize_power_sweep(
                config, s1, s2, powers, pulses_per_point=6_000_000, seed=77,
            )
            fit = pl.fit_quadratic(records)
            corrected = pl.raman_correct(records, fit, config)
            corrected_at_target[label] = corrected[2]
        g2_i = corrected_at_target["F_I"].g_c2
        g2_ii = corrected_at_target["F_II"].g_c2
        g2_iii = corrected_at_target["F_III"].g_c2
        assert g2_i.value > g2_ii.value > g2_iii.value, (
            "corrected heralded g2 not strictly decreasing in total bandwidth"
        )
        h_i = corrected_at_target["F_I"].h
        h_ii = corrected_at_target["F_II"].h
        h_iii = corrected_at_target["F_III"].h
        assert h_ii.value > h_iii.value > h_i.value, "H ordering broken"
        _pass(7, f"corrected g2 {g2_i.value:.3f} > {g2_ii.value:.3f} > "
                 f"{g2_iii.value:.3f}; H {h_ii.value:.3f} > {h_iii.value:.3f} "
                 f"> {h_i.value:.3f}")


class TestCriterion8Determinism:
    def test_mc_byte_identical_and_worker_independent(self, tmp_path):
        config = make_symmetric_config(1.0, 1.0, 0.02, det_efficiencies=EFF)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(config)))
        base = ["mc", "--config", str(config_path), "--pulses", "400000", "--seed", "11"]
        paths = [tmp_path / name for name in ("a.json", "b.json", "w4.json")]
        assert cli_run(base + ["--workers", "1", "--out", str(paths[0])]) == 0
        assert cli_run(base + ["--workers", "1", "--out", str(paths[1])]) == 0
        assert cli_run(base + ["--workers", "4", "--out", str(paths[2])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (json.loads(paths[0].read_text())["tallies"]
                == json.loads(paths[2].read_text())["tallies"])

        sweep = ["sweep", "--p-pair", "0.01", "--grid", "0.3:2.0:0.1"]
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_run(sweep + ["--out", str(s1)]) == 0
        assert cli_run(sweep + ["--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        _pass(8, "mc and sweep reruns byte-identical; tallies worker-independent")
