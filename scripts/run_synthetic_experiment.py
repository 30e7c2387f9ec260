#!/usr/bin/env python3
"""Full synthetic reproduction of the power-sweep experiment.

For each of the three dual-band filter pairs (signal/idler FWHM 0.6/0.6,
1.1/0.6 and 1.1/1.1 nm behind a 0.3 nm pump), simulate a pump-power sweep
with Raman background on, fit the linear+quadratic power law, subtract the
Raman part, and write raw and corrected estimates.  The setups are
hsps.pipeline.PAPER_FILTER_PAIRS (F_I, F_II, F_III).  The corrected H should
come out power-independent and ordered F_II > F_III > F_I."""

import argparse
import pathlib
from math import sqrt

from hsps import pipeline
from hsps.config import normalize
from hsps.stats import collection_efficiency


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/synthetic", type=pathlib.Path)
    parser.add_argument("--pulses", default=4_000_000, type=int)
    parser.add_argument("--seed", default=42, type=int)
    parser.add_argument("--p-pair", default=0.03, type=float,
                        help="pair rate the middle power point lands on")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for label in pipeline.PAPER_FILTER_PAIRS:
        config, s1, s2 = pipeline.paper_filter_pair(label)
        bands = normalize(config)
        xi = collection_efficiency(bands.sigma_s_prime, bands.sigma_i_prime)
        # pair rate grows as s2 xi p^2: aim the grid at the requested target
        p_target = sqrt(args.p_pair / (s2 * xi))
        powers = [round(f * p_target, 6) for f in (0.6, 0.8, 1.0, 1.2, 1.4)]
        records = pipeline.synthesize_power_sweep(
            config, s1, s2, powers, args.pulses, seed=args.seed
        )
        raw_path = args.out_dir / f"records_{label}.csv"
        pipeline.write_power_records(raw_path, records)
        fit = pipeline.fit_quadratic(records)
        corrected = pipeline.raman_correct(records, fit, config)
        corr_path = args.out_dir / f"corrected_{label}.csv"
        pipeline.write_corrected_csv(corrected, corr_path)
        slope, se = pipeline.power_slope(
            powers, [c.h.value for c in corrected], [c.h.std_error for c in corrected]
        )
        print(f"{label}: fit s1={fit.s1:.4f} s2={fit.s2:.4f}; "
              f"corrected H slope {slope:+.4f} +- {se:.4f} per mW -> {raw_path}, {corr_path}")


if __name__ == "__main__":
    main()
