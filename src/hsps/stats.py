"""Closed-form per-pulse counting statistics of the heralded source.

Everything here is leading order in the gain |G|^2 and expressed in
normalized units: sig_s / sig_i are the filter bandwidths over the pump
bandwidth, eta_i / eta_s are the full passive channel transmissions (fiber,
filter peak, splices; the 50/50 split of the signal band is part of the
formulas, not of eta), and eta_1..3 are detector efficiencies.  Detector 1
watches the idler (herald) band; detectors 2 and 3 sit behind the signal
coupler.

Key quantities:

    P1        = sqrt(2) pi |G|^2 eta_i eta_1 sig_i          herald singles
    P2, P3    = (pi/sqrt(2)) |G|^2 eta_s eta_{2,3} sig_s    arm singles
    xi        = sig_s / sqrt(2 + sig_s^2 + sig_i^2)         pair collection
    xi'       = sqrt(2) sig_s / sqrt(4 + 2 sig_i^2 + sig_s^2)   two-pair collection
    P12(0)    = P1 P2 + (1/2) eta_s eta_2 P1 xi             same-pulse pairs
    P23(0)    = g_s2 P2 P3                                  signal-arm pairs
    P123(0)   = P1 P2 P3 + xi X + (g_s2 - 1) (P1 P2 P3 + xi' X),
                X = eta_s P1 (eta_3 P2 + eta_2 P3) / 2      triples
    CAR       = P12(0) / (P1 P2)
    g_s2      = 1 + 1 / sqrt(1 + sig_s^2 / 2)               band bunching
    gc2       = P123(0) P1 / (P13(0) P12(0))                heralded g2
    H         = xi                                          heralding eff.

:func:`full_report` is the one place these formulas are evaluated for a
configuration: it takes xi and g_s2 from :func:`collection_efficiency` and
:func:`unconditional_g2` (which the sweeps call on numpy arrays of
bandwidths), computes the singles and xi' itself, and hands the true pair
terms, the band bunching and the two-pair term to :func:`_assemble_counts`,
which the leading-order oracles share.  Its :class:`CountProbabilities`
rejects any value outside [0, 1] with ModelValidityError.  :func:`_figures`
is the one definition of the figures as ratios of counts or tallies.  Dark counts are
deliberately absent from these formulas; they belong to the Monte Carlo
model and the experimental correction chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .config import ConfigWarning, ModelValidityError, SourceConfig, normalize

_SQRT2_PI = math.sqrt(2.0) * math.pi
_PI_OVER_SQRT2 = math.pi / math.sqrt(2.0)


@dataclass(frozen=True)
class CountProbabilities:
    """Per-gated-pulse count probabilities, the common currency of the
    analytic, oracle and Monte Carlo modules.

    p12/p13/p23 are same-pulse coincidences; the _acc variants are the
    adjacent-pulse (accidental) levels.  The three p123_* fields decompose
    the triple coincidence into uncorrelated, pair-plus-single and
    signal-bunching contributions; when present they sum to p123 (the
    threshold-click oracle reports no decomposition and leaves them None).
    """

    p1: float
    p2: float
    p3: float
    p12: float
    p13: float
    p23: float
    p12_acc: float
    p13_acc: float
    p123: float
    p123_accidental: "float | None" = None
    p123_pair_single: "float | None" = None
    p123_bunching: "float | None" = None

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p12", "p13", "p23", "p123"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ModelValidityError(f"{name} = {value} is not a probability")
        if self.p12 < self.p12_acc or self.p13 < self.p13_acc:
            raise ModelValidityError("same-pulse coincidence below the accidental level")


@dataclass(frozen=True)
class FiguresOfMerit:
    car: "float | None"
    g_s2: float
    g_c2_exact: "float | None"
    g_c2_approx: "float | None"
    eta_d: float
    heralding_eff: float
    p_pair: "float | None"


def _assemble_counts(p1, p2, p3, t12, t13, bunch23, w4) -> CountProbabilities:
    """Count probabilities from the singles, the true pair coincidences
    t12/t13, the signal-arm bunching bunch23 and the triple contraction w4."""
    accidental = p1 * p2 * p3
    pair_single = t12 * p3 + t13 * p2
    bunching = p1 * bunch23 + w4
    return CountProbabilities(
        p1=p1,
        p2=p2,
        p3=p3,
        p12=p1 * p2 + t12,
        p13=p1 * p3 + t13,
        p23=p2 * p3 + bunch23,
        p12_acc=p1 * p2,
        p13_acc=p1 * p3,
        p123=accidental + pair_single + bunching,
        p123_accidental=accidental,
        p123_pair_single=pair_single,
        p123_bunching=bunching,
    )


def _figures(n1, c12, c13, a12, t123, herald_norm):
    """(CAR, heralded g2, eta_D, H) from herald singles n1, coincidences c12
    and c13, 1-2 accidentals a12, triples t123 and H's norm eta_s eta_2 / 2,
    for expected counts and tallies alike; None where a denominator is 0."""
    eta_d = (c12 - a12) / n1 if n1 > 0 else None
    return (c12 / a12 if a12 > 0 else None,
            t123 * n1 / (c13 * c12) if c13 * c12 > 0 else None, eta_d,
            eta_d / herald_norm if n1 > 0 and herald_norm > 0 else None)


def _herald_norm(config: SourceConfig) -> float:
    """Detection efficiency of signal arm 2, coupler split included: H = eta_D / it."""
    return 0.5 * config.signal_channel_transmission * config.detectors[1].efficiency


def collection_efficiency(sig_s, sig_i):
    """xi, probability that the partner of a collected idler photon falls
    inside the signal filter: sig_s / sqrt(2 + sig_i^2 + sig_s^2)."""
    if np.any(sig_s <= 0) or np.any(sig_i <= 0):
        raise ValueError("normalized bandwidths must be positive")
    return sig_s / np.sqrt(2.0 + sig_i**2 + sig_s**2)


def car(p_pair, sig_s, sig_i):
    """Coincidence-to-accidental ratio at pair rate p_pair:
    1 + sig_s sig_i / (p_pair (2 + sig_s^2 + sig_i^2))."""
    if np.any(p_pair <= 0):
        raise ZeroDivisionError("CAR diverges as the pair rate goes to zero")
    if np.any(sig_s <= 0) or np.any(sig_i <= 0):
        raise ValueError("normalized bandwidths must be positive")
    return 1.0 + sig_s * sig_i / (p_pair * (2.0 + sig_s**2 + sig_i**2))


def unconditional_g2(sig_s):
    """Second-order autocorrelation of one band alone:
    1 + 1 / sqrt(1 + sig_s^2 / 2).  2 in the single-mode (narrow) limit."""
    if np.any(sig_s < 0):
        raise ValueError("normalized bandwidth must be nonnegative")
    return 1.0 + 1.0 / np.sqrt(1.0 + sig_s**2 / 2.0)


def heralded_g2_approx(g_s2, car_value):
    """Approximate heralded g2 from the band autocorrelation and the CAR:
    (g_s2 / CAR) (2 - 1 / CAR)."""
    if np.any(car_value < 1.0):
        raise ValueError("CAR below 1 is unphysical for this model")
    return g_s2 / car_value * (2.0 - 1.0 / car_value)


def pair_rate(p1: float, eta_i: float, eta_1: float, xi: float) -> float:
    """Normalized detected pair rate P_pair = P1 xi / (eta_i eta_1)."""
    if eta_i * eta_1 <= 0:
        raise ZeroDivisionError("pair rate needs nonzero idler-channel efficiency")
    return p1 * xi / (eta_i * eta_1)


def full_report(config: SourceConfig) -> tuple[CountProbabilities, FiguresOfMerit]:
    """Evaluate every closed form for one configuration.

    Consistency guaranteed by construction: car and g_c2_exact are
    :func:`_figures` of the count set, and the p123 term decomposition sums
    to p123.  A probability outside [0, 1] raises ModelValidityError.  CAR,
    the two heralded g2 values and p_pair are None (JSON null) where their
    denominator is zero, as at zero gain or detector efficiency 0; eta_d and
    heralding_eff stay closed forms, defined there too.
    """
    bands = normalize(config)
    sig_s, sig_i = bands.sigma_s_prime, bands.sigma_i_prime
    g2 = config.gain.g_squared
    eta_s = config.signal_channel_transmission
    eta_i = config.idler_channel_transmission
    eta_1, eta_2, eta_3 = (d.efficiency for d in config.detectors)
    herald_norm = _herald_norm(config)

    p1 = _SQRT2_PI * g2 * eta_i * eta_1 * sig_i
    p2 = _PI_OVER_SQRT2 * g2 * eta_s * eta_2 * sig_s
    p3 = _PI_OVER_SQRT2 * g2 * eta_s * eta_3 * sig_s
    xi = float(collection_efficiency(sig_s, sig_i))
    # xi' exceeds 1 for very broad signal filters, where the two-pair
    # factorization stops being a probability
    xi2 = math.sqrt(2.0) * sig_s / math.sqrt(4.0 + 2.0 * sig_i**2 + sig_s**2)
    if xi2 > 1.0:
        warnings.warn(
            f"two-pair collection factor {xi2:.4f} > 1: outside its validity regime",
            ConfigWarning,
            stacklevel=2,
        )
    g_s2 = float(unconditional_g2(sig_s))

    counts = _assemble_counts(
        p1, p2, p3,
        t12=0.5 * eta_s * eta_2 * p1 * xi,
        t13=0.5 * eta_s * eta_3 * p1 * xi,
        bunch23=(g_s2 - 1.0) * p2 * p3,
        w4=(g_s2 - 1.0) * xi2 * (eta_s * p1 * (eta_3 * p2 + eta_2 * p3) / 2.0),
    )

    car_value, g_c2 = _figures(p1, counts.p12, counts.p13, counts.p12_acc, counts.p123,
                               herald_norm)[:2]
    figures = FiguresOfMerit(
        car=car_value,
        g_s2=g_s2,
        g_c2_exact=g_c2,
        g_c2_approx=None if car_value is None else heralded_g2_approx(g_s2, car_value),
        eta_d=herald_norm * xi,
        heralding_eff=xi,
        p_pair=pair_rate(p1, eta_i, eta_1, xi) if eta_i * eta_1 > 0 else None,
    )
    return counts, figures


def report_to_dict(counts: CountProbabilities, figures: FiguresOfMerit) -> dict:
    """Flat key/value document for JSON emission (stable key names)."""
    return {**asdict(counts), **asdict(figures)}
