import json
import shlex

import numpy as np
import pytest

from hsps.cli import build_parser, run
from hsps.config import config_to_dict, make_symmetric_config
from hsps.montecarlo import RNG_SCHEME
from hsps.oracle import BOUNDARY_LEAK
from hsps import oracle, pipeline as pl


@pytest.fixture
def config_path(tmp_path):
    config = make_symmetric_config(
        1.0, 1.0, 0.02, det_efficiencies=(0.5, 0.8, 0.8)
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)))
    return str(path)


class TestReport:
    def test_happy_path_stdout(self, config_path, capsys):
        assert run(["report", "--config", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["heralding_eff"] == pytest.approx(0.5)
        assert doc["car"] == pytest.approx(1 + 1 / (doc["p_pair"] * 4), rel=1e-9)

    def test_writes_file_and_manifest(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        assert run(["report", "--config", config_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p1"] > 0
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["subcommand"] == "report"
        assert manifest["seed"] is None  # report draws no random numbers
        assert manifest["tool_version"]

    def test_seed_is_an_mc_option_only(self, config_path, tmp_path, capsys):
        assert run(["report", "--config", config_path, "--seed", "5"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert run(["report", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_model_validity_exits_2(self, tmp_path, capsys):
        config = make_symmetric_config(8.0, 8.0, 0.03)
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert run(["report", "--config", str(path)]) == 2
        assert "model validity" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self, config_path, capsys):
        assert run(["report", "--config", config_path, "--frobnicate"]) == 1

    @pytest.mark.parametrize(
        "kwargs, undefined",
        [
            # detector 2 never clicks: no 1-2 coincidences to normalize by
            ({"g_squared": 0.01, "det_efficiencies": (0.5, 0.0, 0.5)},
             {"car", "g_c2_exact", "g_c2_approx"}),
            # no gain: no clicks at all, yet a zero pair rate
            ({"g_squared": 0.0}, {"car", "g_c2_exact", "g_c2_approx"}),
        ],
    )
    def test_undefined_figures_are_null(self, tmp_path, capsys, kwargs, undefined):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(config_to_dict(make_symmetric_config(1, 1, **kwargs))))
        assert run(["report", "--config", str(path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert {key for key, value in doc.items() if value is None} == undefined


@pytest.fixture
def records_path(tmp_path):
    config = make_symmetric_config(1.0, 1.0, 0.02, det_efficiencies=(0.5, 0.8, 0.8))
    records = pl.synthesize_power_sweep(config, 0.05, 0.08, [0.5, 0.75, 1.0, 1.25], 100_000,
                                        seed=13)
    path = tmp_path / "records.csv"
    pl.write_power_records(path, records)
    return str(path)


class TestOneSidecar:
    """A run leaves its output and one manifest beside it, nothing else."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["report", "--config", "{config}", "--out", "report.json"], ["report.json"]),
            (["sweep", "--p-pair", "0.02", "--grid", "0.5:1.5:0.25", "--out", "fig.csv"],
             ["fig.csv"]),
            (["oracle", "--config", "{config}", "--out", "cmp.csv"], ["cmp.csv"]),
            (["modes", "--config", "{config}", "--out", "modes.json",
              "--sweep-out", "strategy.csv"], ["modes.json", "strategy.csv"]),
            (["mc", "--config", "{config}", "--pulses", "100000", "--out", "mc.json"],
             ["mc.json"]),
            (["fit", "--data", "{records}", "--out", "fit.json"], ["fit.json"]),
            (["correct", "--data", "{records}", "--config", "{config}", "--out", "corr.csv"],
             ["corr.csv"]),
        ],
        ids=["report", "sweep", "oracle", "modes", "mc", "fit", "correct"],
    )
    def test_output_and_manifest_only(self, config_path, records_path, tmp_path, argv, outputs):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [arg.format(config=config_path, records=records_path) for arg in argv]
        argv = [str(out_dir / arg) if arg in outputs else arg for arg in argv]
        assert run(argv) == 0
        expected = {name for out in outputs for name in (out, out + ".manifest.json")}
        assert {p.name for p in out_dir.iterdir()} == expected
        for out in outputs:
            text = (out_dir / (out + ".manifest.json")).read_text()
            manifest = json.loads(text)
            assert manifest["subcommand"] == argv[0]
            assert "subcommand" not in manifest["parameters"]
            assert text.count('"tool_version"') == 1
            assert manifest["numpy_version"] == np.__version__
            # only mc draws random numbers, so only its manifest names a scheme
            assert manifest.get("rng_scheme") == (RNG_SCHEME if argv[0] == "mc" else None)
            # oracle and modes size their quadrature grids from the config
            # (52 points per band at sigma' = 1) and record them
            grid_points = [52, 52] if argv[0] in ("oracle", "modes") else None
            assert manifest.get("quadrature_grid_points") == grid_points
            # oracle also records each kernel's boundary leak on those grids
            leaks = manifest.get("boundary_leak")
            if argv[0] == "oracle":
                assert sorted(leaks) == ["auto_idler", "auto_signal", "cross"]
            else:
                assert leaks is None


class TestOracleManifestBoundaryLeak:
    """The oracle's truncation diagnostics as numbers: demo.json's bands sit
    on filter centres 11.2 pump widths off energy conservation, so its cross
    kernel reaches the grid edge (the warning reads 7.40e-06); the matched
    symmetric.json stays below the warning threshold on every kernel."""

    def _leaks(self, name, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["oracle", "--config", f"configs/{name}", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
        return manifest["boundary_leak"]

    def test_demo_cross_kernel_leaks(self, tmp_path):
        leaks = self._leaks("demo.json", tmp_path)
        assert f"{leaks['cross']:.2e}" == "7.40e-06"
        assert leaks["auto_signal"] < BOUNDARY_LEAK and leaks["auto_idler"] < BOUNDARY_LEAK

    def test_symmetric_stays_below_threshold(self, tmp_path):
        leaks = self._leaks("symmetric.json", tmp_path)
        assert all(0.0 < leak < BOUNDARY_LEAK for leak in leaks.values()), leaks

    def test_leaks_come_from_the_runs_own_matrices(self, tmp_path, monkeypatch):
        build, built = oracle.build_correlations, []

        def counting_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(oracle, "build_correlations", counting_build)
        leaks = self._leaks("symmetric.json", tmp_path)
        assert len(built) == 1
        assert leaks == built[0].boundary_leaks()


class TestUsageErrors:
    """argparse's own usage-error code 2 would read as a model-validity
    failure; usage errors exit 1, --help and --version exit 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report"],
            ["correct", "--band", "idler", "--data", "records.csv", "--config", "c.json",
             "--out", "out.csv"],
        ],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert run(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        assert run([flag]) == 0
        assert capsys.readouterr().out


def _readme_cli_lines() -> list[str]:
    """Each command line of the README's ## CLI block, continuations joined."""
    with open("README.md", encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## CLI"):]
    block = section[section.index("```") + 3:]
    block = block[:block.index("```")].replace("\\\n", " ")
    return [" ".join(line.split()) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    # parse only: a renamed or dropped flag fails here, not in a reader's shell
    prog, *argv = shlex.split(line)
    assert prog == "hsps"
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command line no longer parses: {line}")


class TestSweep:
    def test_fixture_cell(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = run(["sweep", "--p-pair", "0.02", "--grid", "0.5:1.5:0.25",
                    "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cell = next(r for r in rows if r[0] == "1" and r[1] == "1")
        assert float(cell[3]) == pytest.approx(0.2591435, abs=1e-4)
        manifest = json.loads((tmp_path / "fig.csv.manifest.json").read_text())
        assert manifest["parameters"]["p_pair"] == 0.02

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--p-pair", "0.01", "--grid", "0.3:2.0:0.1", "--out", str(a)])
        run(["sweep", "--p-pair", "0.01", "--grid", "0.3:2.0:0.1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid_spec(self, tmp_path, capsys):
        assert run(["sweep", "--p-pair", "0.01", "--grid", "oops",
                    "--out", str(tmp_path / "x.csv")]) == 1

    def test_reversed_grid_writes_nothing(self, tmp_path, capsys):
        assert run(["sweep", "--p-pair", "0.01", "--grid", "2:1:0.1",
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert "hsps: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_oversized_grid_writes_nothing(self, tmp_path, capsys):
        # 2.9e6 points per axis: rejected before any surface is allocated
        assert run(["sweep", "--p-pair", "0.02", "--grid", "0.1:3.0:1e-6",
                    "--out", str(tmp_path / "x.csv")]) == 1
        assert "hsps: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOracle:
    def test_comparison_csv(self, config_path, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["oracle", "--config", config_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("sigma_s_prime,")
        assert sum("/gaussian_low_gain," in line for line in lines) == 6
        assert all(float(line.rsplit(",", 1)[1]) < 1e-6 for line in lines[1:])


class TestModes:
    def test_report_and_sweep(self, config_path, tmp_path, capsys):
        sweep_out = tmp_path / "strategy.csv"
        assert run(["modes", "--config", config_path, "--p-pair", "0.005",
                    "--sweep-out", str(sweep_out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schmidt_number"] > 1.0
        assert doc["strategy_sweep"]["better_h_strategy"] == "narrow_idler"
        assert sweep_out.exists()


class TestMc:
    def test_deterministic_output_bytes(self, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["mc", "--config", config_path, "--pulses", "200000", "--seed", "7"]
        assert run(base + ["--out", str(a)]) == 0
        assert run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_tallies(self, config_path, tmp_path):
        a, b = tmp_path / "w1.json", tmp_path / "w4.json"
        base = ["mc", "--config", config_path, "--pulses", "200000", "--seed", "3"]
        run(base + ["--workers", "1", "--out", str(a)])
        run(base + ["--workers", "4", "--out", str(b)])
        assert json.loads(a.read_text())["tallies"] == json.loads(b.read_text())["tallies"]

    def test_readme_example(self, tmp_path):
        # the plain `hsps mc` line of the README: enough gates for CAR to
        # rest on accidentals
        out = tmp_path / "run.json"
        assert run(["mc", "--config", "configs/demo.json", "--pulses", "4000000000",
                    "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rng_scheme"] == RNG_SCHEME
        assert doc["tallies"]["acc_12"] > 0

    def test_raman_flag(self, config_path, tmp_path):
        out = tmp_path / "mc.json"
        assert run(["mc", "--config", config_path, "--pulses", "200000", "--seed", "1",
                    "--raman", "0.05,0.08", "--p-ave", "1.1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["predictions"]["h"] < 0.5  # Raman dilutes the herald
        assert json.loads((tmp_path / "mc.json.manifest.json").read_text())["seed"] == 1

    def test_bad_raman_spec(self, config_path, tmp_path):
        assert run(["mc", "--config", config_path, "--pulses", "1000",
                    "--raman", "nope", "--out", str(tmp_path / "x.json")]) == 1

    def test_count_set_without_click_distribution_exits_2(self, tmp_path, capsys):
        # so efficient a herald path leaves the closed-form count set with no
        # joint click distribution: a model-validity failure, though the
        # closed forms themselves stay probabilities and report exits 0
        config = make_symmetric_config(1, 1, 0.04, det_efficiencies=(0.97, 0.9, 0.9))
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert run(["report", "--config", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "mc.json"
        assert run(["mc", "--config", str(path), "--pulses", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "hsps: model validity:" in err and "pattern 011" in err
        assert not out.exists()

    def test_shipped_config_frozen(self, tmp_path):
        # estimates and predictions to the last bit, recorded before the
        # figures moved to stats._figures: a change to the draw, the
        # estimator or the predictions shows up here
        out = tmp_path / "mc.json"
        assert run(["mc", "--config", "configs/symmetric.json", "--pulses", "20000000",
                    "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {key: doc[key] for key in ("estimates", "predictions")} == {
            "estimates": {
                "car": {"n_effective": 462, "std_error": 0.7441245600973779,
                        "value": 15.502164502164502},
                "eta_d": {"n_effective": 6700, "std_error": 0.0004941498010271139,
                          "value": 0.03731093934466398},
                "g_c2": {"n_effective": 83, "std_error": 0.022502130054591826,
                         "value": 0.20296980664529488},
                "h": {"n_effective": 6700, "std_error": 0.008235830017118567,
                      "value": 0.621848989077733},
            },
            "predictions": {"car": 15.234674751477277, "eta_d": 0.03763478160456619,
                            "g_c2": 0.20892195055663731, "h": 0.6272463600761031},
        }


CORRECTED_CSV = (
    b"p_ave_mw,p_pair,car,car_err,g_c2,g_c2_err,h,h_err,raw_h,raw_h_err,raman_fraction\r\n"
    b"0.5,0.0094136229,22.042774,5.583,0.13358071,0.02974,0.49794856,0.02472,0.20729685,"
    b"0.008609,0.583698\r\n"
    b"0.75,0.021279184,10.284865,1.003,0.26380019,0.02642,0.53485368,0.01755,0.27706774,"
    b"0.00791,0.481975\r\n"
    b"1,0.037552246,7.6555464,0.4843,0.50368412,0.02864,0.52593392,0.0134,0.30883503,"
    b"0.007032,0.412787\r\n"
    b"1.25,0.058915307,5.2065377,0.2056,0.66645933,0.02562,0.52458778,0.01122,0.33625731,"
    b"0.006551,0.359007\r\n"
)


class TestFitAndCorrect:
    @pytest.fixture
    def data_path(self, tmp_path, config_path):
        config = make_symmetric_config(1.0, 1.0, 0.02, det_efficiencies=(0.5, 0.8, 0.8))
        records = pl.synthesize_power_sweep(
            config, 0.05, 0.08, [0.5, 0.75, 1.0, 1.25], 400_000, seed=13
        )
        path = tmp_path / "records.csv"
        pl.write_power_records(path, records)
        return str(path)

    def test_fit(self, data_path, capsys):
        assert run(["fit", "--data", data_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_records"] == 4
        # detected coefficients are the photon-level ones times the herald
        # path efficiency 0.5
        assert doc["s1"] == pytest.approx(0.025, abs=0.01)

    def test_correct_end_to_end(self, data_path, config_path, tmp_path):
        out = tmp_path / "corrected.csv"
        assert run(["correct", "--data", data_path, "--config", config_path,
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("p_ave_mw,")
        assert len(lines) == 5
        assert (tmp_path / "corrected.csv.manifest.json").exists()

    def test_corrected_csv_frozen(self, data_path, config_path, tmp_path):
        # the whole CSV, byte for byte, as recorded before the figures moved
        # to stats._figures
        out = tmp_path / "corrected.csv"
        assert run(["correct", "--data", data_path, "--config", config_path,
                    "--out", str(out)]) == 0
        assert out.read_bytes() == CORRECTED_CSV

    @pytest.mark.parametrize("detector", [0, 1], ids=["herald", "arm2"])
    def test_zero_efficiency_exits_1(self, data_path, tmp_path, capsys, detector):
        # the herald path divides the pair rate, arm 2 divides H
        efficiencies = [0.5, 0.8, 0.8]
        efficiencies[detector] = 0.0
        config = make_symmetric_config(1.0, 1.0, 0.02, det_efficiencies=tuple(efficiencies))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert run(["correct", "--data", data_path, "--config", str(path),
                    "--out", str(tmp_path / "corrected.csv")]) == 1
        err = capsys.readouterr().err
        assert "hsps: error:" in err and "efficiency is zero" in err
        assert "Traceback" not in err

    def test_missing_data_file(self, config_path, tmp_path):
        assert run(["fit", "--data", str(tmp_path / "none.csv")]) == 1

    @pytest.mark.parametrize("subcommand", ["fit", "correct"])
    def test_zero_gate_record_exits_1(self, data_path, config_path, tmp_path, capsys, subcommand):
        with open(data_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines.append("3.0,0,0,0,0,0,0,0,0,0,0")
        path = tmp_path / "zero_gates.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = [subcommand, "--data", str(path)]
        if subcommand == "correct":
            argv += ["--config", config_path, "--out", str(tmp_path / "corrected.csv")]
        assert run(argv) == 1
        assert f"zero_gates.csv:{len(lines)}: column gates" in capsys.readouterr().err


class TestInputBoundary:
    """Non-finite and non-integral input is a validation error (exit 1), not
    a model-validity failure (exit 2) and not a silent success."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("gain", "g_squared", float("nan")),
            ("pump", "fwhm_nm", float("nan")),
            ("fiber", "length_m", float("inf")),
            ("pump", "rep_rate_hz", float("nan")),
            ("detectors", "dead_time_gates", 2.7),
            ("gain", "g_squared", "0.01"),  # text and booleans are not JSON numbers
            ("pump", "fwhm_nm", " 0.3 "),
            ("detectors", "efficiency", True),
        ],
    )
    def test_bad_config_value_exits_1(self, tmp_path, capsys, section, key, value):
        with open("configs/demo.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        (doc[section][0] if section == "detectors" else doc[section])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN / Infinity tokens, as json allows
        assert run(["report", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("detectors", "dark_count", 0.01), ("filters", "transmision", 0.5)],
    )
    def test_misspelt_optional_key_exits_1(self, tmp_path, capsys, section, key, value):
        # each used to load with its default (dark_count_prob 0, transmission 1)
        with open("configs/demo.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        (doc[section][0] if section == "detectors" else doc[section]["signal"])[key] = value
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert run(["report", "--config", str(path)]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [("filters", 1e-320), ("pump", 1e200)])
    def test_extreme_wavelength_exits_1(self, tmp_path, capsys, section, value):
        # 1e-320 nm squared underflows to zero; 1e200 nm squared overflows
        with open("configs/demo.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        (doc[section]["idler"] if section == "filters" else doc[section])["center_nm"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["report", "--config", str(path)]) == 1
        assert "hsps: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("p_ave", ["nan", "inf"])
    def test_non_finite_power_exits_1(self, tmp_path, capsys, p_ave):
        path = tmp_path / "records.csv"
        rows = [",".join(pl.RECORD_COLUMNS)]
        for power in ("0.5", p_ave, "1.5"):
            rows.append(f"{power},1000,40,20,20,4,4,1,1,1,0")
        path.write_text("\n".join(rows) + "\n")
        assert run(["fit", "--data", str(path)]) == 1
        assert "p_ave_mw" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--raman=-0.05,0.08"],
            ["--raman=-5,0.08"],
            ["--raman", "0.05,0.08", "--p-ave", "nan"],
            ["--raman", "0.05,0.08", "--p-ave", "inf"],
            ["--raman", "0.05,nan"],
            ["--raman", "inf,0.08"],
        ],
        ids=["negative-s1", "very-negative-s1", "nan-power", "inf-power", "nan-s2", "inf-s1"],
    )
    def test_bad_raman_triple_exits_1(self, tmp_path, capsys, flags):
        # a negative s1 gave a negative extra-click probability and exit 0;
        # a non-finite value reached the model-validity checks (exit 2)
        out = tmp_path / "mc.json"
        argv = ["mc", "--config", "configs/symmetric.json", "--pulses", "1000",
                "--out", str(out), *flags]
        assert run(argv) == 1
        assert "raman" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--p-pair", "nan", "--out"],
            ["sweep", "--p-pair", "-0.01", "--out"],
            ["modes", "--config", "configs/demo.json", "--p-pair", "0", "--sweep-out"],
            ["modes", "--config", "configs/demo.json", "--p-pair", "inf", "--sweep-out"],
        ],
        ids=["sweep-nan", "sweep-negative", "modes-zero", "modes-inf"],
    )
    def test_bad_pair_rate_exits_1_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(argv + [str(out)]) == 1
        assert "--p-pair" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
