import ast
import csv
import inspect
import json
import math
import re

import numpy as np
import pytest

from hsps.cli import run
from hsps.config import ConfigWarning, config_to_dict
from hsps import pipeline as pl
from hsps.montecarlo import TallyCounters, estimate
from hsps.pipeline import (
    NARROW_IDLER,
    NARROW_SIGNAL,
    ContourGrid,
    CorrectionRegimeError,
    PipelineError,
    PowerPointRecord,
    better_strategies,
    fit_quadratic,
    power_slope,
    raman_correct,
    read_power_records,
    strategy_curves,
    sweep_contour,
    synthesize_power_sweep,
    write_power_records,
    write_strategy_csv,
)
from hsps.stats import car as car_closed_form

EFF = (0.5, 0.8, 0.8)

# powers for which s1 p + s2 p^2 times 16e6 gates is integral for the
# coefficient pairs used below, keeping the noiseless fit exact
EXACT_POWERS = (0.25, 0.5, 1.0, 2.0, 4.0)
EXACT_GATES = 16_000_000


def exact_record(p_ave, rate, gates=EXACT_GATES):
    counts = round(rate * gates)
    assert abs(counts - rate * gates) < 1e-6
    tallies = TallyCounters(
        gates=gates, singles_1=counts, singles_2=10, singles_3=10,
        coinc_12=5, coinc_13=5, coinc_23=1, acc_12=2, acc_13=2, triples_123=0,
    )
    return PowerPointRecord(p_ave=p_ave, tallies=tallies)


class TestRecordsCsv:
    def test_round_trip(self, symmetric, tmp_path):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        records = synthesize_power_sweep(
            config, 0.05, 0.05, [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25],
            pulses_per_point=20_000, seed=3,
        )
        assert len(records) == 8
        path = tmp_path / "records.csv"
        write_power_records(path, records)
        loaded = read_power_records(path)
        assert loaded == [PowerPointRecord(r.p_ave, r.tallies) for r in records]

    def test_columns_carry_their_named_tallies(self, tmp_path):
        # ten distinct values, so a column written under another tally's
        # label shows; the round trip above cannot see it, since the writer
        # and the reader would swap together
        tallies = TallyCounters(
            gates=1000, singles_1=900, singles_2=800, singles_3=700, coinc_12=60,
            coinc_13=50, coinc_23=40, acc_12=30, acc_13=20, triples_123=10,
        )
        path = tmp_path / "records.csv"
        write_power_records(path, [PowerPointRecord(0.5, tallies)])
        with open(path, encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        labels = {
            "gates": "gates", "s1_counts": "singles_1", "s2_counts": "singles_2",
            "s3_counts": "singles_3", "c12": "coinc_12", "c13": "coinc_13",
            "c23": "coinc_23", "acc12": "acc_12", "acc13": "acc_13", "t123": "triples_123",
        }
        expected = {col: str(getattr(tallies, name)) for col, name in labels.items()}
        assert row == {"p_ave_mw": "0.5", **expected}

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.warns(ConfigWarning, match="empty"):
            assert read_power_records(path) == []

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "p_ave_mw,gates,s1_counts,s2_counts,s3_counts,c12,c13,c23,acc12,acc13,t123\n"
            "0.5,1000,10,5,5,1,1,0,1,1,0\n"
            "0.7,1000,oops,5,5,1,1,0,1,1,0\n"
        )
        with pytest.raises(PipelineError, match=r"bad.csv:3: column s1_counts"):
            read_power_records(path)

    @pytest.mark.parametrize("gates", ["0", "-5"])
    def test_nonpositive_gates_rejected(self, tmp_path, gates):
        path = tmp_path / "gates.csv"
        path.write_text(
            "p_ave_mw,gates,s1_counts,s2_counts,s3_counts,c12,c13,c23,acc12,acc13,t123\n"
            "0.5,1000,10,5,5,1,1,0,1,1,0\n"
            f"0.7,{gates},0,0,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(PipelineError, match=r"gates.csv:3: column gates"):
            read_power_records(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.7,1000,3,5,5,4,1,0,1,1,0", "coinc_12 exceeds its constituent singles"),
            ("0.7,1000,10,5,5,1,1,0,-1,1,0", "acc_12 must be nonnegative"),
            ("0.7,1000,1001,5,5,1,1,0,1,1,0", "singles exceed the number of gates"),
            ("-0.7,1000,10,5,5,1,1,0,1,1,0", "p_ave must be positive"),
        ],
        ids=["coincidences-above-singles", "negative-accidentals", "singles-above-gates",
             "negative-power"],
    )
    def test_inconsistent_record_names_row(self, tmp_path, row, message):
        path = tmp_path / "incons.csv"
        path.write_text(
            "p_ave_mw,gates,s1_counts,s2_counts,s3_counts,c12,c13,c23,acc12,acc13,t123\n"
            "0.5,1000,10,5,5,1,1,0,1,1,0\n"
            f"{row}\n"
        )
        with pytest.raises(PipelineError, match=rf"incons.csv:3: {message}"):
            read_power_records(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("power,gates\n1.0,10\n")
        with pytest.raises(PipelineError, match="bad header"):
            read_power_records(path)

    def test_duplicate_powers_warn(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = "0.5,1000,10,5,5,1,1,0,1,1,0\n" * 2
        path.write_text(
            "p_ave_mw,gates,s1_counts,s2_counts,s3_counts,c12,c13,c23,acc12,acc13,t123\n" + rows
        )
        with pytest.warns(ConfigWarning, match="duplicate"):
            read_power_records(path)

    def test_sorted_by_power(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "p_ave_mw,gates,s1_counts,s2_counts,s3_counts,c12,c13,c23,acc12,acc13,t123\n"
            "2.0,1000,10,5,5,1,1,0,1,1,0\n"
            "0.5,1000,10,5,5,1,1,0,1,1,0\n"
        )
        records = read_power_records(path)
        assert [r.p_ave for r in records] == [0.5, 2.0]


class TestQuadraticFit:
    @pytest.mark.parametrize("s1,s2", [(0.061, 0.027), (0.030, 0.012)])
    def test_exact_recovery(self, s1, s2):
        records = [exact_record(p, s1 * p + s2 * p**2) for p in EXACT_POWERS]
        fit = fit_quadratic(records)
        assert abs(fit.s1 - s1) < 1e-10
        assert abs(fit.s2 - s2) < 1e-10
        assert fit.residual_rms < 1e-12

    def test_pure_quadratic_gives_zero_linear_term(self):
        records = [exact_record(p, 0.012 * p**2) for p in EXACT_POWERS]
        fit = fit_quadratic(records)
        assert abs(fit.s1) < 1e-10

    def test_requires_three_distinct_powers(self):
        records = [exact_record(p, 0.01 * p) for p in (0.25, 0.25, 0.5)]
        with pytest.raises(PipelineError, match="3 distinct"):
            fit_quadratic(records)

    def test_signal_band_uses_both_arms(self):
        tallies = TallyCounters(
            gates=1000, singles_1=10, singles_2=30, singles_3=20,
        )
        records = [PowerPointRecord(p_ave=p, tallies=tallies) for p in (0.5, 1.0, 2.0)]
        fit = fit_quadratic(records, band="signal")
        # constant data across powers: fitted curve passes near the mean
        p = 1.0
        assert fit.s1 * p + fit.s2 * p**2 == pytest.approx(0.05, rel=0.5)

    def test_unbiased_on_poisson_noise(self):
        s1, s2 = 0.061, 0.027
        gates = 200_000
        rng = np.random.default_rng(40)
        pulls_s1, pulls_s2 = [], []
        for _ in range(100):
            records = []
            for p in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8):
                lam = (s1 * p + s2 * p**2) * gates
                n = int(rng.poisson(lam))
                tallies = TallyCounters(gates=gates, singles_1=n, singles_2=1, singles_3=1,
                                        coinc_12=1, coinc_13=1, acc_12=1, acc_13=1)
                records.append(PowerPointRecord(p_ave=p, tallies=tallies))
            fit = fit_quadratic(records)
            pulls_s1.append(fit.s1 - s1)
            pulls_s2.append(fit.s2 - s2)
        se_s1 = np.std(pulls_s1) / math.sqrt(len(pulls_s1))
        se_s2 = np.std(pulls_s2) / math.sqrt(len(pulls_s2))
        assert abs(np.mean(pulls_s1)) < 2.0 * se_s1
        assert abs(np.mean(pulls_s2)) < 2.0 * se_s2


class TestRamanCorrection:
    def _chain(self, symmetric, s1, s2, seed=11, pulses=2_000_000):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF,
                           dark=(2e-4, 2e-4, 5e-4))
        powers = [0.5, 0.7, 0.9, 1.1, 1.3]
        records = synthesize_power_sweep(config, s1, s2, powers, pulses, seed=seed)
        fit = fit_quadratic(records)
        return config, records, fit

    def test_zero_raman_correction_is_identity(self, symmetric):
        # a fit with no linear term subtracts nothing at all
        config, records, _ = self._chain(symmetric, s1=0.0, s2=0.08, pulses=300_000)
        fit = pl.QuadraticFit(s1=0.0, s2=0.08, residual_rms=0.0,
                              covariance=((0.0, 0.0), (0.0, 0.0)))
        corrected = raman_correct(records, fit, config)
        for rec, cor in zip(records, corrected):
            assert cor.raman_fraction == 0.0
            t = rec.tallies
            assert cor.car.value == t.coinc_12 / t.acc_12
            # the corrected and raw figures are the raw-tally estimates
            est = estimate(t, config)
            for got, want in ((cor.car, est.car), (cor.g_c2, est.g_c2),
                              (cor.h, est.h), (cor.raw_h, est.h)):
                assert got.value == want.value
                assert got.std_error == want.std_error
                assert got.n_effective == want.n_effective

    def test_corrected_h_flat_raw_h_rising(self, symmetric):
        config, records, fit = self._chain(symmetric, s1=0.06, s2=0.08)
        corrected = raman_correct(records, fit, config)
        powers = [c.p_ave for c in corrected]
        raw_slope, raw_se = power_slope(
            powers, [c.raw_h.value for c in corrected], [c.raw_h.std_error for c in corrected]
        )
        cor_slope, cor_se = power_slope(
            powers, [c.h.value for c in corrected], [c.h.std_error for c in corrected]
        )
        assert raw_slope > 2.0 * raw_se
        assert abs(cor_slope) < 2.0 * cor_se

    def test_corrected_car_matches_closed_form(self, symmetric):
        config, records, fit = self._chain(symmetric, s1=0.04, s2=0.08, pulses=3_000_000)
        for cor in raman_correct(records, fit, config):
            predicted = car_closed_form(cor.p_pair, 1.0, 1.0)
            assert abs(cor.car.value - predicted) < 3.5 * cor.car.std_error

    def test_exhausted_singles_raise(self, symmetric):
        config, records, fit = self._chain(symmetric, s1=0.05, s2=0.08)
        inflated = pl.QuadraticFit(s1=10.0, s2=fit.s2, residual_rms=0.0,
                                   covariance=((0.0, 0.0), (0.0, 0.0)))
        with pytest.raises(CorrectionRegimeError):
            raman_correct(records, inflated, config)

    # exact fits of s1 = 0.25: with s2 < 0 the fitted Raman counts exceed the
    # herald singles at every power; with s2 > 0 the singles stay positive,
    # but from p = 1 on beta * singles_2 = 2.5 p exceeds acc_12 = 2
    @pytest.mark.parametrize("s2, p_ave, exhausted", [
        (-0.01, 0.25, "herald singles"), (0.01, 1.0, "coincidences"),
    ], ids=["singles", "coincidences"])
    def test_exhaustion_names_power_point(self, symmetric, tmp_path, capsys,
                                          s2, p_ave, exhausted):
        records = [exact_record(p, 0.25 * p + s2 * p**2) for p in EXACT_POWERS[:4]]
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        message = f"p_ave={p_ave}: Raman subtraction exhausts the {exhausted}"
        with pytest.raises(CorrectionRegimeError, match=re.escape(message)):
            raman_correct(records, fit_quadratic(records), config)
        records_path, config_path = tmp_path / "records.csv", tmp_path / "config.json"
        write_power_records(records_path, records)
        config_path.write_text(json.dumps(config_to_dict(config)))
        assert run(["correct", "--data", str(records_path), "--config", str(config_path),
                    "--out", str(tmp_path / "corrected.csv")]) == 1
        assert f"hsps: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "corrected.csv").exists()

    def test_corrected_csv_metadata_records_choice(self, symmetric, tmp_path):
        config, records, fit = self._chain(symmetric, s1=0.05, s2=0.08, pulses=500_000)
        records_path, config_path = tmp_path / "records.csv", tmp_path / "config.json"
        write_power_records(records_path, records)
        config_path.write_text(json.dumps(config_to_dict(config)))
        path = tmp_path / "corrected.csv"
        assert run(["correct", "--data", str(records_path), "--config", str(config_path),
                    "--out", str(path)]) == 0
        manifest = json.loads((tmp_path / "corrected.csv.manifest.json").read_text())
        assert manifest["corrects_pairwise_coincidences"] is True
        assert manifest["corrects_triples"] is True
        assert "two-fold coincidences, accidentals and triples" in manifest["correction"]
        assert manifest["fit_s1"] == pytest.approx(fit.s1, rel=1e-12)
        assert manifest["fit_s2"] == pytest.approx(fit.s2, rel=1e-12)
        assert manifest["parameters"]["data"] == str(records_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(records)


class TestContourSweep:
    def test_fixture_cells(self):
        grid = sweep_contour(0.01, (0.5, 1.5), 0.25)
        assert grid.value_at("car", 1.0, 1.0) == 26.0
        assert grid.value_at("h", 1.0, 1.0) == 0.5
        grid2 = sweep_contour(0.02, (0.5, 1.5), 0.25)
        assert grid2.value_at("g_c2", 1.0, 1.0) == pytest.approx(0.25914354515292665, rel=1e-12)

    def test_h_surface_independent_of_pair_rate(self):
        a = sweep_contour(0.005, (0.3, 2.0), 0.1)
        b = sweep_contour(0.02, (0.3, 2.0), 0.1)
        assert np.array_equal(a.surfaces["h"], b.surfaces["h"])
        assert not np.array_equal(a.surfaces["car"], b.surfaces["car"])

    def test_h_monotonicity_across_surface(self):
        grid = sweep_contour(0.01, (0.2, 2.8), 0.2)
        h = grid.surfaces["h"]
        assert np.all(np.diff(h, axis=0) > 0)   # rises with signal bandwidth
        assert np.all(np.diff(h, axis=1) < 0)   # falls with idler bandwidth

    def test_csv_and_sidecar(self, tmp_path):
        # the manifest of hsps sweep is the CSV's one sidecar
        path = tmp_path / "contour.csv"
        assert run(["sweep", "--p-pair", "0.01", "--grid", "0.5:1.0:0.5",
                    "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma_s_prime,sigma_i_prime,car,g_c2,h"
        assert len(lines) == 1 + 4
        manifest = json.loads((tmp_path / "contour.csv.manifest.json").read_text())
        assert manifest["parameters"]["p_pair"] == 0.01
        assert manifest["tool_version"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "contour.csv", "contour.csv.manifest.json"]

    def test_rejects_bad_ranges(self):
        with pytest.raises(PipelineError):
            sweep_contour(0.0)
        with pytest.raises(PipelineError):
            sweep_contour(0.01, (0.0, 1.0))
        with pytest.raises(PipelineError):
            sweep_contour(0.01, (2.0, 1.0), 0.1)

    def test_rejects_surface_off_the_axis(self):
        sig = np.array([0.5, 1.0, 1.5])
        with pytest.raises(PipelineError, match=r"surface h has shape \(3, 2\)"):
            ContourGrid(sigma_values=sig, surfaces={"h": np.ones((3, 2))}, p_pair=0.01)


class TestIndistinguishabilityStrategies:
    def test_fixture_curves(self):
        grid = sweep_contour(0.005)
        assert list(strategy_curves(grid)) == [NARROW_IDLER, NARROW_SIGNAL]
        # pinning the herald band and opening the signal band both cuts the
        # conditional g2 and raises H, so that strategy wins on both counts
        assert better_strategies(grid) == (NARROW_IDLER, NARROW_IDLER)

    def test_tie_goes_to_narrow_idler(self):
        # symmetric surfaces give mirror-equal curves
        sig = np.array([0.3, 1.0])
        flat = np.ones((2, 2))
        grid = ContourGrid(sigma_values=sig, surfaces={"g_c2": flat, "h": flat}, p_pair=0.01)
        assert better_strategies(grid) == (NARROW_IDLER, NARROW_IDLER)

    def test_equal_bandwidths_same_car_different_h(self):
        grid = sweep_contour(0.005)
        idler_curve, signal_curve = strategy_curves(grid).values()
        at = np.argmin(np.abs(grid.sigma_values - 2.0))
        # the coincidence ratio is symmetric under band swap, so the g2
        # difference comes only from the band autocorrelation factor
        assert car_closed_form(0.005, 2.0, 0.3) == car_closed_form(0.005, 0.3, 2.0)
        h_idler = idler_curve["h"][at]
        h_signal = signal_curve["h"][at]
        assert h_idler == pytest.approx(2.0 / math.sqrt(6.09), rel=1e-9)
        assert h_signal == pytest.approx(0.3 / math.sqrt(6.09), rel=1e-9)
        assert h_idler > h_signal

    def test_csv_emission(self, tmp_path):
        path = tmp_path / "fig.csv"
        write_strategy_csv(sweep_contour(0.005), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma_free,g_c2,h,strategy"
        # 59 free bandwidths 0.1, 0.15, ..., 3.0 per strategy
        assert len(lines) == 1 + 2 * 59
        assert lines[1].startswith("0.1,") and lines[1].endswith(NARROW_IDLER)
        assert lines[59].startswith("3,") and lines[60].endswith(NARROW_SIGNAL)

    def test_curves_are_slices_of_the_contour_csv(self, tmp_path):
        # narrow_idler is the sigma_i' = 0.3 column of hsps sweep's CSV and
        # narrow_signal its sigma_s' = 0.3 row, cell for cell
        contour, strategy = tmp_path / "contour.csv", tmp_path / "strategy.csv"
        assert run(["sweep", "--p-pair", "0.02", "--out", str(contour)]) == 0
        assert run(["modes", "--config", "configs/symmetric.json", "--p-pair", "0.02",
                    "--sweep-out", str(strategy), "--out", str(tmp_path / "modes.json")]) == 0
        with open(contour, newline="") as fh:
            cells = list(csv.DictReader(fh))
        idler_column = [(r["sigma_s_prime"], r["g_c2"], r["h"], NARROW_IDLER)
                        for r in cells if r["sigma_i_prime"] == "0.3"]
        signal_row = [(r["sigma_i_prime"], r["g_c2"], r["h"], NARROW_SIGNAL)
                      for r in cells if r["sigma_s_prime"] == "0.3"]
        with open(strategy, newline="") as fh:
            rows = [tuple(row) for row in csv.reader(fh)][1:]
        assert len(idler_column) == 59
        assert rows == idler_column + signal_row


class TestPowerSlope:
    def test_recovers_known_slope(self):
        p = [0.5, 1.0, 1.5, 2.0]
        y = [0.1 + 0.2 * x for x in p]
        slope, se = power_slope(p, y, [0.01] * 4)
        assert slope == pytest.approx(0.2, rel=1e-9)
        assert se > 0

    def test_needs_spread(self):
        with pytest.raises(PipelineError):
            power_slope([1.0, 1.0, 1.0], [1, 2, 3], [0.1] * 3)


def test_pipeline_imports_no_private_montecarlo_name():
    # the reduction of tallies to figures lives behind montecarlo.estimate
    tree = ast.parse(inspect.getsource(pl))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "montecarlo"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
