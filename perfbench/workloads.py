"""The benchmark workloads.

Each workload builds its inputs from the seed at construction (set-up),
then offers ``ops(tracer)``: the named operations of one pass, each a
callable doing program work only, through the public API or
``hsps.cli.run``; ``tracer`` is the span recorder of a traced pass, or None.
``check(results)`` inspects the outputs of one pass and
returns a list of problems per operation; an operation fails when it
raised or has a problem.  ``counters(results)`` gives the per-pass work
counts the traced run reports, and ``corrupt(results)`` damages one output
on purpose, so the self-check can prove that the checks catch it.

Every call into hsps goes through a module attribute at call time
(``cli.run``, ``pipeline.synthesize_power_sweep``), so the tracer's wrappers
see it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from pathlib import Path

from hsps import cli, config as config_mod, modes, montecarlo as mc, oracle, pipeline, stats

# -- mc_lab -------------------------------------------------------------------


class McLab:
    """``hsps mc`` on configs/demo.json: lab-like, sparse clicks, dead time on."""

    name = "mc_lab"
    PULSES = 400_000_000
    Z_MAX = 5.0

    def __init__(self, root: Path, out: Path, seed: int, scale: float = 1.0):
        self.config_path = root / "configs" / "demo.json"
        self.config = config_mod.load_config(self.config_path)
        self.pulses = max(int(self.PULSES * scale), 40_000_000)
        self.out = out / "mc_lab.json"
        self.argv = [
            "mc", "--config", str(self.config_path), "--pulses", str(self.pulses),
            "--seed", str(seed), "--workers", "1", "--out", str(self.out),
        ]
        self.reference_tallies = None

    def ops(self, tracer):
        return [("hsps_mc", lambda: cli.run(self.argv))]

    def check(self, results):
        problems = []
        if results["hsps_mc"] != 0:
            return {"hsps_mc": [f"hsps mc exited {results['hsps_mc']}"]}
        doc = json.loads(self.out.read_text())
        tallies = mc.TallyCounters(**doc["tallies"])
        est = mc.estimate(tallies, self.config)
        for key in ("car", "h"):
            reported = doc["estimates"][key]["value"]
            ours = getattr(est, key)
            if not math.isclose(reported, ours.value, rel_tol=1e-12):
                problems.append(f"reported {key} {reported} != {ours.value} from the tallies")
            z = (ours.value - doc["predictions"][key]) / ours.std_error
            if abs(z) > self.Z_MAX:
                problems.append(f"{key} is {z:+.1f} sigma from the model prediction")
        if self.reference_tallies is None:
            self.reference_tallies = doc["tallies"]
        elif doc["tallies"] != self.reference_tallies:
            problems.append("same seed gave different tallies than the first pass")
        return {"hsps_mc": problems}

    def counters(self, results):
        tallies = json.loads(self.out.read_text())["tallies"]
        model = mc.build_pulse_model(self.config)
        return _mc_counters([(model, tallies)])

    def corrupt(self, results):
        doc = json.loads(self.out.read_text())
        doc["tallies"]["acc_12"] = doc["tallies"]["acc_12"] // 2 + 1
        self.out.write_text(json.dumps(doc))


def _mc_counters(runs):
    """Gates, click density and herald dead-time thinning over (model,
    tallies) pairs, gate-weighted."""
    gates = sum(t["gates"] for _, t in runs)
    useful = expected_s1 = 0.0
    for model, t in runs:
        p = mc.effective_pattern_probs(model)
        useful += t["gates"] * (1.0 - p[0])
        expected_s1 += t["gates"] * float(p[4:].sum())   # detector 1 is bit 4
    singles_1 = sum(t["singles_1"] for _, t in runs)
    return {
        "montecarlo.gates": gates,
        "montecarlo.click_density": useful / gates,
        "montecarlo.deadtime_thinning_1": 1.0 - singles_1 / expected_s1,
    }


# -- sweep_reduce -------------------------------------------------------------


class SweepReduce:
    """Criterion 7's power sweep: synthesize with Raman on, then ``hsps correct``."""

    name = "sweep_reduce"
    PUMP_NM, IDLER_NM = 1538.9, 1531.9
    # label, signal FWHM, idler FWHM (nm) behind a 0.3 nm pump
    PAIRS = (("F_I", 0.6, 0.6), ("F_II", 1.1, 0.6), ("F_III", 1.1, 1.1))
    RAMAN_BY_IDLER_FWHM = {0.6: (0.030, 0.012), 1.1: (0.061, 0.027)}
    POWER_FACTORS = (0.6, 0.8, 1.0, 1.2, 1.4)
    TARGET = 2                     # index of the power where p_pair hits TARGET_P_PAIR
    TARGET_P_PAIR = 0.04
    PULSES = 9_000_000
    WORKERS = 2

    def __init__(self, root: Path, out: Path, seed: int, scale: float = 1.0):
        self.seed = seed
        self.pulses = max(int(self.PULSES * scale), 100_000)
        self.out = out
        self.jobs = []
        omega_p = config_mod.omega_from_wavelength_nm(self.PUMP_NM)
        signal_nm = config_mod.TWO_PI_C_NM / (
            2.0 * omega_p - config_mod.omega_from_wavelength_nm(self.IDLER_NM))
        for label, sfw, ifw in self.PAIRS:
            doc = {
                "pump": {"center_nm": self.PUMP_NM, "fwhm_nm": 0.3},
                "fiber": {"length_m": 20.0, "gamma_per_w_km": 11.0, "transmission": 1.0},
                "gain": {"g_squared": 1e-3},     # replaced by the power model
                "filters": {
                    "signal": {"center_nm": signal_nm, "fwhm_nm": sfw},
                    "idler": {"center_nm": self.IDLER_NM, "fwhm_nm": ifw},
                },
                "detectors": [{"efficiency": e} for e in (0.5, 0.8, 0.8)],
            }
            config_path = out / f"config_{label}.json"
            config_path.write_text(json.dumps(doc))
            config = config_mod.load_config(config_path)
            s1, s2 = self.RAMAN_BY_IDLER_FWHM[ifw]
            bands = config_mod.normalize(config)
            xi = stats.collection_efficiency(bands.sigma_s_prime, bands.sigma_i_prime)
            p_target = math.sqrt(self.TARGET_P_PAIR / (s2 * xi))
            self.jobs.append({
                "label": label, "config": config, "config_path": config_path,
                "s1": s1, "s2": s2, "powers": [f * p_target for f in self.POWER_FACTORS],
                "records": out / f"records_{label}.csv",
                "corrected": out / f"corrected_{label}.csv",
            })

    def _synthesize(self, job):
        records = pipeline.synthesize_power_sweep(
            job["config"], job["s1"], job["s2"], job["powers"], self.pulses,
            seed=self.seed, config_id=job["label"], workers=self.WORKERS,
        )
        pipeline.write_power_records(job["records"], records)

    def ops(self, tracer):
        ops = []
        for job in self.jobs:
            argv = ["correct", "--data", str(job["records"]), "--config",
                    str(job["config_path"]), "--out", str(job["corrected"])]
            ops.append((f"synthesize_{job['label']}", lambda job=job: self._synthesize(job)))
            ops.append((f"correct_{job['label']}", lambda argv=argv: cli.run(argv)))
        return ops

    def check(self, results):
        problems = {name: [] for name in results}
        problems["orderings"] = []
        at_target = {}
        for job in self.jobs:
            rc = results[f"correct_{job['label']}"]
            if rc != 0:
                problems[f"correct_{job['label']}"].append(f"hsps correct exited {rc}")
                continue
            with open(job["corrected"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != len(self.POWER_FACTORS):
                problems[f"correct_{job['label']}"].append(f"{len(rows)} corrected rows")
                continue
            at_target[job["label"]] = rows[self.TARGET]
        if len(at_target) == len(self.jobs):
            g2 = [float(at_target[label]["g_c2"]) for label, _, _ in self.PAIRS]
            h = [float(at_target[label]["h"]) for label, _, _ in self.PAIRS]
            if not g2[0] > g2[1] > g2[2]:
                problems["orderings"].append(f"corrected g2 not F_I > F_II > F_III: {g2}")
            if not h[1] > h[2] > h[0]:
                problems["orderings"].append(f"corrected H not F_II > F_III > F_I: {h}")
        else:
            problems["orderings"].append("not every filter pair was corrected")
        return problems

    def counters(self, results):
        runs = []
        written = 0
        for job in self.jobs:
            for rec, p_ave in zip(pipeline.read_power_records(job["records"]), job["powers"]):
                model = mc.build_pulse_model(
                    job["config"], raman=(job["s1"], job["s2"], p_ave))
                runs.append((model, dataclasses.asdict(rec.tallies)))
            written += _file_bytes(job["records"], job["corrected"])
        return {**_mc_counters(runs), "pipeline.bytes_written": written}

    def corrupt(self, results):
        first, last = self.jobs[0]["corrected"], self.jobs[-1]["corrected"]
        a, b = first.read_bytes(), last.read_bytes()
        first.write_bytes(b)
        last.write_bytes(a)


def _file_bytes(*paths):
    total = 0
    for path in paths:
        for p in (Path(path), Path(str(path) + ".meta.json")):
            if p.exists():
                total += p.stat().st_size
    return total


# -- oracle_audit -------------------------------------------------------------


class OracleAudit:
    """Oracle and mode analysis on a 5x5 grid of energy-matched configs."""

    name = "oracle_audit"
    SIGMAS = (0.3, 0.6, 1.0, 1.5, 2.0)
    G_SQUARED = 0.005
    SCALING_POINTS = (64, 128, 256)
    QUADRATURE_TOL = 1e-9
    LOW_GAIN_TOL = 1e-6

    def __init__(self, root: Path, out: Path, seed: int, scale: float = 1.0):
        rng = random.Random(seed)
        # one small jitter per bandwidth keeps the grid a product grid, so the
        # diagonal configs stay symmetric
        sigmas = [s * rng.uniform(0.98, 1.02) for s in self.SIGMAS]
        if scale < 1.0:
            sigmas = sigmas[::2]
        self.configs = {
            (a, b): config_mod.make_symmetric_config(ss, si, self.G_SQUARED)
            for a, ss in enumerate(sigmas) for b, si in enumerate(sigmas)
        }
        # the scaling calls run on the narrowest and broadest diagonal configs
        ends = (0, len(sigmas) - 1) if scale >= 1.0 else (0,)
        self.diagonal = [self.configs[(a, a)] for a in ends]
        self.max_err = {"quadrature": 0.0, "low_gain": 0.0}

    @staticmethod
    def _audit(config):
        rows = oracle.comparison_rows(config, include_gaussian=True)
        all_order = oracle.gaussian_click_probs(config, order="all_order")
        report = modes.mode_report(config)
        return rows, all_order, report

    @staticmethod
    def _scaling(config, n, tracer):
        """Quadrature, low-gain and all-order counts on n-point grids; traced,
        the span names end in ``_n<n>``."""
        if tracer is not None:
            tracer.suffix = f"_n{n}"
        try:
            grid_s, grid_i = oracle.make_default_grids(config, n)
            quadrature = oracle.numeric_counts(config, grid_s, grid_i)
            click_s, click_i = oracle.make_click_grids(config, n)
            low = oracle.gaussian_click_probs(config, click_s, click_i, order="low_gain")
            full = oracle.gaussian_click_probs(config, click_s, click_i, order="all_order")
        finally:
            if tracer is not None:
                tracer.suffix = ""
        return quadrature, low, full

    def ops(self, tracer):
        ops = [(f"audit_{a}_{b}", lambda c=c: self._audit(c)) for (a, b), c in self.configs.items()]
        for n in self.SCALING_POINTS:
            ops += [(f"scale_n{n}_{a}", lambda c=c, n=n: self._scaling(c, n, tracer))
                    for a, c in enumerate(self.diagonal)]
        return ops

    @staticmethod
    def _valid_counts(counts):
        if not isinstance(counts, stats.CountProbabilities):
            return [f"all-order result is {type(counts).__name__}"]
        try:
            stats.CountProbabilities(**dataclasses.asdict(counts))
        except ValueError as exc:
            return [f"all-order counts invalid: {exc}"]
        return []

    def check(self, results):
        problems = {}
        self.max_err = {"quadrature": 0.0, "low_gain": 0.0}
        for name, result in results.items():
            found = problems[name] = []
            if name.startswith("scale_"):
                for counts in result:
                    found += self._valid_counts(counts)
                continue
            rows, all_order, report = result
            for row in rows:
                a, n = row["analytic"], row["numeric"]
                rel = abs(n - a) / abs(a)
                kind = "low_gain" if row["quantity"].endswith("/gaussian_low_gain") else "quadrature"
                self.max_err[kind] = max(self.max_err[kind], rel)
                tol = self.LOW_GAIN_TOL if kind == "low_gain" else self.QUADRATURE_TOL
                if not rel <= tol:
                    found.append(f"{row['quantity']}: relative error {rel:.3e} > {tol}")
            found += self._valid_counts(all_order)
            eps = 1e-9
            if not (report.schmidt_number >= 1.0 - eps and 0.0 < report.heralded_purity <= 1.0 + eps
                    and all(1.0 - eps <= g2 <= 2.0 + eps
                            for g2 in (report.g2_signal_pred, report.g2_idler_pred))):
                found.append(f"mode report out of range: {report.as_dict()}")
        return problems

    def counters(self, results):
        return {
            "oracle.max_rel_err_quadrature": self.max_err["quadrature"],
            "oracle.max_rel_err_low_gain": self.max_err["low_gain"],
        }

    def corrupt(self, results):
        rows = next(iter(results.values()))[0]
        rows[0]["numeric"] *= 1.0 + 1e-6


WORKLOADS = {cls.name: cls for cls in (McLab, SweepReduce, OracleAudit)}

