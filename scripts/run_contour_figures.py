#!/usr/bin/env python3
"""Emit the contour datasets: CAR, heralded g2 and H over the normalized
bandwidth plane at several pair rates, plus the two narrowband-filter
strategy curves.  Output is plot-ready CSV; no rendering here."""

import argparse
import pathlib

from hsps import pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/contours", type=pathlib.Path)
    parser.add_argument("--step", default=0.05, type=float)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for p_pair in (0.01, 0.02, 0.005):
        grid = pipeline.sweep_contour(p_pair, step=args.step)
        path = args.out_dir / f"contour_ppair_{p_pair:g}.csv"
        pipeline.write_contour_csv(grid, path)
        print(f"wrote {path}  (CAR at (1,1): {grid.value_at('car', 1.0, 1.0):.3f})")

    grid = pipeline.sweep_contour(0.005)
    path = args.out_dir / "strategy_sweep_ppair_0.005.csv"
    pipeline.write_strategy_csv(grid, path)
    print(f"wrote {path}  (better H strategy: {pipeline.better_strategies(grid)[1]})")


if __name__ == "__main__":
    main()
