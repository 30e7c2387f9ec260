"""Command-line interface.

Subcommands: report, sweep, oracle, modes, mc, fit, correct.  A run writes
its result to --out (modes also to --sweep-out) and, once it succeeds, one
manifest beside each such file (<output>.manifest.json): the subcommand,
config path, tool and numpy versions, every option given, the seed (null
except for mc, the only command that draws random numbers) and what the
subcommand adds (for mc, the random-number scheme; for oracle and modes, the
points of the quadrature grids, which are sized from the config, and for
oracle also each correlation kernel's boundary leak on them; for
correct, the fitted s1 and s2 and the tallies the Raman correction
adjusted).  Runs are reproducible from their artifacts alone.

Exit codes: 0 success (--help and --version too), 1 validation, input or
usage error (a missing required option, an unknown flag), 2 model-validity
error (a probability left [0, 1], the low-gain closed forms do not apply,
a count set admits no joint click distribution).

Set HSPS_LOG=debug for verbose progress on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import ConfigError, ConfigWarning, ModelValidityError, load_config
from . import modes as modes_mod
from . import montecarlo as mc
from . import oracle as oracle_mod
from . import pipeline as pipeline_mod
from .stats import full_report, report_to_dict

log = logging.getLogger("hsps")


def _setup_logging():
    level = os.environ.get("HSPS_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_json(doc: dict, path: str | None):
    """Write doc as indented JSON with sorted keys to path, or to stdout
    without one.  Every JSON file of a run is written here."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifests(args, provenance: dict):
    """<path>.manifest.json beside each file the subcommand wrote."""
    for path in (args.out, getattr(args, "sweep_out", None)):
        if not path:
            continue
        _write_json({
            "subcommand": args.subcommand,
            "config_path": getattr(args, "config", None),
            "seed": getattr(args, "seed", None),
            "output_dir": os.path.dirname(os.path.abspath(path)),
            "tool_version": __version__,
            "numpy_version": np.__version__,
            "parameters": {
                k: v
                for k, v in vars(args).items()
                if k not in {"func", "subcommand", "config", "seed"} and v is not None
            },
            **provenance,
        }, path + ".manifest.json")
        log.debug("manifest written to %s.manifest.json", path)


def _parse_grid(spec: str):
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ConfigError(f"--grid expects min:max:step, got {spec!r}") from None
    return lo, hi, step


def _pair_rate(text: str) -> float:
    """--p-pair: a finite, positive pair rate per pulse (CAR divides by it)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _parse_raman(spec: str):
    try:
        s1, s2 = (float(tok) for tok in spec.split(","))
    except ValueError:
        raise ConfigError(f"--raman expects s1,s2 got {spec!r}") from None
    return s1, s2


def cmd_report(args):
    config = load_config(args.config)
    counts, figures = full_report(config)
    _write_json(report_to_dict(counts, figures), args.out)


def cmd_sweep(args):
    lo, hi, step = _parse_grid(args.grid)
    grid = pipeline_mod.sweep_contour(args.p_pair, (lo, hi), step)
    pipeline_mod.write_contour_csv(grid, args.out)
    n = grid.sigma_values.size
    log.info("contour grid %dx%d written to %s", n, n, args.out)


def _quadrature_grid_points(config, boundary_leak: bool = False) -> dict:
    """The manifest's record of the default grids the run used, [n_s, n_i],
    and with boundary_leak the kernels' boundary-leak ratios on them; the
    warnings of both were already given by the run itself."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        grids = oracle_mod.make_default_grids(config)
        record = {"quadrature_grid_points": [grid.n_points for grid in grids]}
        if boundary_leak:
            record["boundary_leak"] = oracle_mod.build_correlations(config, *grids).boundary_leaks()
    return record


def cmd_oracle(args) -> dict:
    """Returns the manifest's record of the quadrature grids and of the
    boundary leak of each kernel on them."""
    config = load_config(args.config)
    rows = oracle_mod.comparison_rows(config, include_gaussian=True)
    oracle_mod.write_comparison_csv(rows, args.out)
    worst = max(rows, key=lambda r: r["rel_err"])
    log.info("worst relative error %.3e on %s", worst["rel_err"], worst["quantity"])
    return _quadrature_grid_points(config, boundary_leak=True)


def cmd_modes(args) -> dict:
    """Returns the manifest's record of the quadrature grids."""
    config = load_config(args.config)
    report = modes_mod.mode_report(config)
    doc = report.as_dict()
    if args.sweep_out:
        grid = pipeline_mod.sweep_contour(args.p_pair)
        pipeline_mod.write_strategy_csv(grid, args.sweep_out)
        better_g2, better_h = pipeline_mod.better_strategies(grid)
        doc["strategy_sweep"] = {
            "path": args.sweep_out,
            "better_g2_strategy": better_g2,
            "better_h_strategy": better_h,
        }
    _write_json(doc, args.out)
    return _quadrature_grid_points(config)


def cmd_mc(args) -> dict:
    """Returns the manifest's record of the random-number scheme."""
    config = load_config(args.config)
    raman = None
    if args.raman:
        s1, s2 = _parse_raman(args.raman)
        raman = (s1, s2, args.p_ave)
    model = mc.build_pulse_model(config, source=args.source, raman=raman)
    progress = None
    if log.isEnabledFor(logging.INFO):
        progress = lambda done, total: log.info("simulated %d / %d pulses", done, total)
    tallies = mc.simulate(model, args.pulses, seed=args.seed, progress=progress)
    estimates = mc.estimate(tallies, config)
    doc = {
        "seed": args.seed,
        "pulses": args.pulses,
        "rng_scheme": mc.RNG_SCHEME,
        "tallies": asdict(tallies),
        "estimates": asdict(estimates),
        "predictions": {
            k: v for k, v in mc.model_predictions(model, config).items() if k != "joint"
        },
    }
    _write_json(doc, args.out)
    return {"rng_scheme": mc.RNG_SCHEME}


def cmd_fit(args):
    records = pipeline_mod.read_power_records(args.data)
    fit = pipeline_mod.fit_quadratic(records, band=args.band)
    doc = {
        "band": args.band,
        "s1": fit.s1,
        "s2": fit.s2,
        "residual_rms": fit.residual_rms,
        "covariance": [list(row) for row in fit.covariance],
        "n_records": len(records),
    }
    _write_json(doc, args.out)


def cmd_correct(args) -> dict:
    """Returns the manifest's record of the fit and of what was corrected."""
    config = load_config(args.config)
    records = pipeline_mod.read_power_records(args.data)
    fit = pipeline_mod.fit_quadratic(records)
    corrected = pipeline_mod.raman_correct(records, fit, config)
    pipeline_mod.write_corrected_csv(corrected, args.out)
    powers = [c.p_ave for c in corrected]
    if len(powers) >= 3:
        slope, se = pipeline_mod.power_slope(
            powers, [c.h.value for c in corrected], [c.h.std_error for c in corrected]
        )
        log.info("corrected H slope %.4g +- %.4g per mW", slope, se)
    return {
        "fit_s1": fit.s1,
        "fit_s2": fit.s2,
        "correction": "linear Raman term subtracted from herald singles, "
                      "two-fold coincidences, accidentals and triples",
        "corrects_pairwise_coincidences": True,
        "corrects_triples": True,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsps",
        description="Heralded single-photon source statistics, oracles and simulation",
    )
    parser.add_argument("--version", action="version", version=f"hsps {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text, needs_config=True, needs_out_file=False):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="source config JSON")
        if needs_out_file:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", default=None, help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    add("report", cmd_report, "closed-form count probabilities and figures of merit")

    p_sweep = add("sweep", cmd_sweep, "contour CSV of CAR, heralded g2 and H",
                  needs_config=False, needs_out_file=True)
    p_sweep.add_argument("--p-pair", type=_pair_rate, required=True, dest="p_pair",
                         help="pair rate per pulse")
    p_sweep.add_argument("--grid", default="0.1:3.0:0.05",
                         help="normalized bandwidth axis as min:max:step (both axes)")

    add("oracle", cmd_oracle, "closed form vs quadrature vs Gaussian-state CSV",
        needs_out_file=True)

    p_modes = add("modes", cmd_modes, "Schmidt spectrum and single-mode report")
    p_modes.add_argument("--p-pair", type=_pair_rate, default=0.005, dest="p_pair",
                         help="pair rate for the strategy sweep")
    p_modes.add_argument("--sweep-out", default=None,
                         help="also emit the narrowband-strategy sweep CSV here")

    p_mc = add("mc", cmd_mc, "Monte Carlo counting run with estimates")
    p_mc.add_argument("--seed", type=int, default=0, help="random seed recorded in outputs")
    p_mc.add_argument("--pulses", type=int, required=True, help="number of pump pulses")
    # kept for the existing command lines that pass it (Criterion 8, mc_lab)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="has no effect: the simulation runs on one thread; recorded "
                           "in the manifest")
    p_mc.add_argument("--source", choices=("analytic", "gaussian_oracle"), default="analytic")
    p_mc.add_argument("--raman", default=None, help="Raman/pair coefficients as s1,s2")
    p_mc.add_argument("--p-ave", type=float, default=1.0, dest="p_ave",
                      help="average pump power in mW for the --raman model")

    p_fit = add("fit", cmd_fit, "quadratic power fit of a record CSV", needs_config=False)
    p_fit.add_argument("--data", required=True, help="power-record CSV")
    p_fit.add_argument("--band", choices=("idler", "signal"), default="idler")

    p_corr = add("correct", cmd_correct, "Raman-corrected estimates from a record CSV",
                 needs_out_file=True)
    p_corr.add_argument("--data", required=True, help="power-record CSV")

    return parser


def run(argv) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse's usage-error code 2 is this tool's model-validity code
        return 1 if exc.code else 0
    try:
        # a subcommand returns None or the fields it adds to its manifests
        _write_manifests(args, args.func(args) or {})
    except ModelValidityError as exc:
        print(f"hsps: model validity: {exc}", file=sys.stderr)
        return 2
    except (mc.EstimationError, oracle_mod.OracleConditioningError, ValueError, OSError) as exc:
        print(f"hsps: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
