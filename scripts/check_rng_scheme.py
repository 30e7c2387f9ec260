#!/usr/bin/env python3
"""Check the Monte Carlo's random-number scheme against exact tally means.

Simulates one pulse model over the seeds F .. F+N-1 (F is --first-seed,
default 0; the header line names the block) with dead time switched off
and prints, for every tally, the z of its mean over the seeds against the
exact expectation from the effective pattern distribution: gates * p for
the same-slot tallies (singles, coincidences, triples) and
(n - 1) * p1 * p_partner for the adjacent-slot accidentals, n the gates.
It then checks the second moments that depend on how clicks on
neighbouring gates are drawn.  With q = p1 * p2,

    Var(acc_12) = (n - 1) q (1 - q) + 2 (n - 2) p1 p2 (p12 - q)
    Cov(acc_12, coinc_12) = (n - 1) [p2 p12 (1 - p1) + p1 p12 (1 - p2)]

and the same for detector 3 in place of 2.  A second moment is the seed
mean of the products of the centred tallies, scaled by N / (N - 1).  The
standard error is the sample standard deviation of the per-seed values
divided by sqrt(N).  Exits 1 if any |z| exceeds 4.

    PYTHONPATH=src python scripts/check_rng_scheme.py --config configs/demo.json \\
        --pulses 400000000 --seeds 200 --first-seed 1000
"""

import argparse
import dataclasses
import math
import sys

import numpy as np

from hsps import montecarlo as mc
from hsps.config import load_config

Z_MAX = 4.0

# tally -> joint probability whose gates-weighted value is its expectation;
# spelled out here, on public names only, so that the script runs unchanged
# on an older tree for a before/after table of two schemes
SAME_SLOT = {"singles_1": "p1", "singles_2": "p2", "singles_3": "p3", "coinc_12": "p12",
             "coinc_13": "p13", "coinc_23": "p23", "triples_123": "p123"}
ACCIDENTAL = {"acc_12": "p2", "acc_13": "p3"}


def moment_checks(samples: dict, joint: dict, n: int) -> list:
    """(name, per-seed values, expectation) over n gates: the seed mean of
    the values estimates the expectation."""
    checks = [(name, samples[name], n * joint[key]) for name, key in SAME_SLOT.items()]
    checks += [(name, samples[name], (n - 1) * joint["p1"] * joint[key])
               for name, key in ACCIDENTAL.items()]
    n_seeds = len(samples["acc_12"])
    scale = n_seeds / (n_seeds - 1)
    centred = {name: np.asarray(v, dtype=float) - np.mean(v) for name, v in samples.items()}
    for d in "23":
        acc, coinc = f"acc_1{d}", f"coinc_1{d}"
        p1, p2, p12 = joint["p1"], joint[f"p{d}"], joint[f"p1{d}"]
        q = p1 * p2
        var = (n - 1) * q * (1 - q) + 2 * (n - 2) * q * (p12 - q)
        cov = (n - 1) * (p2 * p12 * (1 - p1) + p1 * p12 * (1 - p2))
        checks.append((f"var({acc})", scale * centred[acc] ** 2, var))
        checks.append((f"cov({acc},{coinc})", scale * centred[acc] * centred[coinc], cov))
    return checks


def z_table(checks: list) -> list:
    """(name, expected, mean, standard error, z) per check."""
    rows = []
    for name, values, exp in checks:
        values = np.asarray(values, dtype=float)
        mean = float(values.mean())
        sem = float(values.std(ddof=1)) / math.sqrt(values.size)
        if sem > 0.0:
            z = (mean - exp) / sem
        else:
            z = 0.0 if mean == exp else math.copysign(math.inf, mean - exp)
        rows.append((name, exp, mean, sem, z))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, help="source config JSON")
    parser.add_argument("--pulses", type=int, required=True, help="pump pulses per seed")
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds (>= 2)")
    parser.add_argument("--first-seed", type=int, default=0, dest="first_seed",
                        help="first seed of the block (>= 0)")
    parser.add_argument("--raman", default=None,
                        help="Raman/pair coefficients as s1,s2 (as hsps mc --raman)")
    parser.add_argument("--p-ave", type=float, default=1.0, dest="p_ave",
                        help="average pump power in mW for the --raman model")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    if args.first_seed < 0:
        parser.error("--first-seed must be non-negative")

    config = load_config(args.config)
    raman = None
    if args.raman:
        s1, s2 = (float(tok) for tok in args.raman.split(","))
        raman = (s1, s2, args.p_ave)
    # the expectations hold without dead-time thinning
    model = dataclasses.replace(mc.build_pulse_model(config, raman=raman),
                                dead_time_gates=(0, 0, 0))

    samples = {name: [] for name in (*SAME_SLOT, *ACCIDENTAL)}
    gates = 0
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        tallies = dataclasses.asdict(mc.simulate(model, args.pulses, seed=seed))
        gates = tallies["gates"]
        for name in samples:
            samples[name].append(tallies[name])

    joint = mc.model_predictions(model, config)["joint"]
    rows = z_table(moment_checks(samples, joint, gates))
    print(f"rng_scheme {mc.RNG_SCHEME}; {args.seeds} seeds x {gates} gates, "
          f"P(any click) {1.0 - mc.effective_pattern_probs(model)[0]:.4g}, "
          f"seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'statistic':<21} {'expected':>14} {'mean':>14} {'std_err':>10} {'z':>7}")
    for name, exp, mean, sem, z in rows:
        print(f"{name:<21} {exp:14.3f} {mean:14.3f} {sem:10.3f} {z:+7.2f}")
    worst = max(abs(row[4]) for row in rows)
    print(f"max |z| {worst:.2f} (limit {Z_MAX})")
    return 1 if worst > Z_MAX else 0


if __name__ == "__main__":
    sys.exit(main())
