#!/usr/bin/env python3
"""Closed forms against the quadrature oracle (and the Gaussian-state route)
across a grid of normalized bandwidths and gains.  Prints the worst relative
error and writes the full comparison table."""

import argparse
import pathlib

from hsps import oracle
from hsps.config import make_symmetric_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/oracle_comparison.csv", type=pathlib.Path)
    parser.add_argument("--gaussian", action="store_true",
                        help="include the Gaussian-state rows")
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    for sig_s in (0.3, 1.0, 2.0):
        for sig_i in (0.3, 1.0, 2.0):
            for g2 in (1e-3, 1e-2):
                config = make_symmetric_config(
                    sig_s, sig_i, g2, det_efficiencies=(0.5, 0.8, 0.8)
                )
                rows.extend(oracle.comparison_rows(config, include_gaussian=args.gaussian))
    oracle.write_comparison_csv(rows, args.out)
    worst = max(rows, key=lambda r: r["rel_err"])
    print(f"wrote {args.out} ({len(rows)} rows)")
    print(f"worst relative error: {worst['rel_err']:.3e} on {worst['quantity']} "
          f"at sigma'=({worst['sigma_s_prime']:.2g},{worst['sigma_i_prime']:.2g})")


if __name__ == "__main__":
    main()
