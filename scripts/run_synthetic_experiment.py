#!/usr/bin/env python3
"""Full synthetic reproduction of the power-sweep experiment.

For each of the three dual-band filter pairs (signal/idler FWHM 0.6/0.6,
1.1/0.6 and 1.1/1.1 nm behind a 0.3 nm pump), simulate a pump-power sweep
with Raman background on, fit the linear+quadratic power law, subtract the
Raman part, and write raw and corrected estimates.  The corrected H should
come out power-independent and ordered 1.1/0.6 > 1.1/1.1 > 0.6/0.6."""

import argparse
import pathlib

from hsps import pipeline
from hsps.config import (
    ChannelExtras,
    DetectorSpec,
    FiberSpec,
    FilterSpec,
    GainParameter,
    PumpSpec,
    SourceConfig,
    fwhm_nm_to_sigma,
)

PUMP_NM, SIGNAL_NM, IDLER_NM = 1538.9, 1544.53, 1531.9

FILTER_PAIRS = {
    "F_narrow_narrow": (0.6, 0.6),
    "F_wide_narrow": (1.1, 0.6),
    "F_wide_wide": (1.1, 1.1),
}

# photon-level Raman/pair coefficients per idler FWHM (per mW, per mW^2)
RAMAN_COEFFS = {0.6: (0.030, 0.012), 1.1: (0.061, 0.027)}


def build_config(signal_fwhm: float, idler_fwhm: float) -> SourceConfig:
    return SourceConfig(
        pump=PumpSpec(PUMP_NM, fwhm_nm_to_sigma(0.3, PUMP_NM)),
        fiber=FiberSpec(transmission=1.0),
        gain=GainParameter(1e-3),  # placeholder, overridden by the power model
        signal_filter=FilterSpec(SIGNAL_NM, fwhm_nm_to_sigma(signal_fwhm, SIGNAL_NM)),
        idler_filter=FilterSpec(IDLER_NM, fwhm_nm_to_sigma(idler_fwhm, IDLER_NM)),
        detectors=(
            DetectorSpec(efficiency=0.5),
            DetectorSpec(efficiency=0.8),
            DetectorSpec(efficiency=0.8),
        ),
        channels=ChannelExtras(),
        center_tolerance=20.0,  # real centers miss symmetry by ~11 pump sigmas
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/synthetic", type=pathlib.Path)
    parser.add_argument("--pulses", default=4_000_000, type=int)
    parser.add_argument("--seed", default=42, type=int)
    parser.add_argument("--p-pair", default=0.03, type=float,
                        help="pair rate the middle power point lands on")
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    from math import sqrt

    from hsps.config import normalize
    from hsps.stats import collection_efficiency

    for label, (sfw, ifw) in FILTER_PAIRS.items():
        config = build_config(sfw, ifw)
        s1, s2 = RAMAN_COEFFS[ifw]
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
