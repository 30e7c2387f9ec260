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
    P12(0)    = P1 P2 + (1/2) eta_s eta_2 P1 xi             same-pulse pairs
    CAR       = P12(0) / (P1 P2)
    g_s2      = 1 + 1 / sqrt(1 + sig_s^2 / 2)               band bunching
    gc2       = P123(0) P1 / (P13(0) P12(0))                heralded g2
    H         = xi                                          heralding eff.

Dark counts are deliberately absent from these formulas; they belong to the
Monte Carlo model and the experimental correction chain.  car, xi, g_s2 and
the approximate gc2 also take numpy arrays of bandwidths, elementwise.
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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FiguresOfMerit:
    car: float
    g_s2: float
    g_c2_exact: float
    g_c2_approx: float
    eta_d: float
    heralding_eff: float
    p_pair: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_prob(value: float, label: str) -> float:
    if value > 1.0 or value < 0.0:
        raise ModelValidityError(
            f"{label} = {value:.4g} is outside [0, 1]; the low-gain model does not apply"
        )
    return value


def herald_singles_prob(g2: float, eta_i: float, eta_1: float, sig_i: float) -> float:
    """P1, detection probability per gate on the idler (herald) detector."""
    if g2 < 0 or eta_i < 0 or eta_1 < 0:
        raise ValueError("gain and efficiencies must be nonnegative")
    if sig_i <= 0:
        raise ValueError("normalized idler bandwidth must be positive")
    return _check_prob(_SQRT2_PI * g2 * eta_i * eta_1 * sig_i, "P1")


def signal_singles_prob(g2: float, eta_s: float, eta_det: float, sig_s: float) -> float:
    """P2 or P3, singles probability of one signal arm behind the coupler."""
    if g2 < 0 or eta_s < 0 or eta_det < 0:
        raise ValueError("gain and efficiencies must be nonnegative")
    if sig_s <= 0:
        raise ValueError("normalized signal bandwidth must be positive")
    return _check_prob(_PI_OVER_SQRT2 * g2 * eta_s * eta_det * sig_s, "P2(3)")


def collection_efficiency(sig_s, sig_i):
    """xi, probability that the partner of a collected idler photon falls
    inside the signal filter: sig_s / sqrt(2 + sig_i^2 + sig_s^2)."""
    if np.any(sig_s <= 0) or np.any(sig_i <= 0):
        raise ValueError("normalized bandwidths must be positive")
    return sig_s / np.sqrt(2.0 + sig_i**2 + sig_s**2)


def two_pair_collection_efficiency(sig_s: float, sig_i: float) -> float:
    """xi', the analogous collection factor for two-pair events:
    sqrt(2) sig_s / sqrt(4 + 2 sig_i^2 + sig_s^2).

    The expression exceeds 1 for very broad signal filters, where the
    two-pair factorization stops being a probability; a warning flags that
    regime.
    """
    if sig_s <= 0 or sig_i <= 0:
        raise ValueError("normalized bandwidths must be positive")
    value = math.sqrt(2.0) * sig_s / math.sqrt(4.0 + 2.0 * sig_i**2 + sig_s**2)
    if value > 1.0:
        warnings.warn(
            f"two-pair collection factor {value:.4f} > 1: outside its validity regime",
            ConfigWarning,
            stacklevel=2,
        )
    return value


def coincidence_prob(p1: float, p2: float, eta_s: float, eta_det: float, xi: float) -> float:
    """Same-pulse coincidence P12(0) = P1 P2 + (1/2) eta_s eta_det P1 xi."""
    return _check_prob(p1 * p2 + 0.5 * eta_s * eta_det * p1 * xi, "P12(0)")


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


@dataclass(frozen=True)
class TripleTerms:
    accidental: float
    pair_single: float
    bunching: float

    @property
    def total(self) -> float:
        return self.accidental + self.pair_single + self.bunching


def triple_coincidence_prob(
    p1: float,
    p2: float,
    p3: float,
    eta_s: float,
    eta_2: float,
    eta_3: float,
    xi: float,
    xi_two_pair: float,
    g_s2: float,
) -> TripleTerms:
    """Same-pulse triple coincidence P123(0), split into its three terms.

    accidental:   P1 P2 P3
    pair_single:  eta_s xi P1 (eta_3 P2 + eta_2 P3) / 2
    bunching:     (g_s2 - 1) (P1 P2 P3 + eta_s xi' P1 (eta_3 P2 + eta_2 P3) / 2)
    """
    accidental = p1 * p2 * p3
    cross = eta_s * p1 * (eta_3 * p2 + eta_2 * p3) / 2.0
    pair_single = xi * cross
    bunching = (g_s2 - 1.0) * (accidental + xi_two_pair * cross)
    _check_prob(accidental + pair_single + bunching, "P123(0)")
    return TripleTerms(accidental, pair_single, bunching)


def heralded_g2_exact(counts: CountProbabilities) -> float:
    """Conditional g2 of the heralded signal field:
    P123(0) P1 / (P13(0) P12(0)).

    A pure ratio of count probabilities, so any rescaling of a detector
    efficiency cancels out.
    """
    if counts.p12 <= 0 or counts.p13 <= 0:
        raise ZeroDivisionError("heralded g2 undefined with zero coincidence probability")
    return counts.p123 * counts.p1 / (counts.p13 * counts.p12)


def heralded_g2_approx(g_s2, car_value):
    """Approximate heralded g2 from the band autocorrelation and the CAR:
    (g_s2 / CAR) (2 - 1 / CAR)."""
    if np.any(car_value < 1.0):
        raise ValueError("CAR below 1 is unphysical for this model")
    return g_s2 / car_value * (2.0 - 1.0 / car_value)


def heralding_efficiencies(eta_s: float, eta_det: float, xi: float) -> tuple[float, float]:
    """(eta_D, H): conditional detection efficiency (1/2) eta_s eta_det xi,
    and the loss-corrected heralding efficiency H = xi."""
    return 0.5 * eta_s * eta_det * xi, xi


def pair_rate(p1: float, eta_i: float, eta_1: float, xi: float) -> float:
    """Normalized detected pair rate P_pair = P1 xi / (eta_i eta_1)."""
    if eta_i * eta_1 <= 0:
        raise ZeroDivisionError("pair rate needs nonzero idler-channel efficiency")
    return p1 * xi / (eta_i * eta_1)


def full_report(config: SourceConfig) -> tuple[CountProbabilities, FiguresOfMerit]:
    """Evaluate every closed form for one configuration.

    Consistency guaranteed by construction: car equals p12 / (p1 p2), the
    g2 values come from the same count set, and the p123 term decomposition
    sums to p123.
    """
    bands = normalize(config)
    sig_s, sig_i = bands.sigma_s_prime, bands.sigma_i_prime
    g2 = config.gain.g_squared
    eta_s = config.signal_channel_transmission
    eta_i = config.idler_channel_transmission
    eta_1, eta_2, eta_3 = (d.efficiency for d in config.detectors)

    p1 = herald_singles_prob(g2, eta_i, eta_1, sig_i)
    p2 = signal_singles_prob(g2, eta_s, eta_2, sig_s)
    p3 = signal_singles_prob(g2, eta_s, eta_3, sig_s)
    xi = collection_efficiency(sig_s, sig_i)
    xi2 = two_pair_collection_efficiency(sig_s, sig_i)
    g_s2 = unconditional_g2(sig_s)

    p12 = coincidence_prob(p1, p2, eta_s, eta_2, xi)
    p13 = coincidence_prob(p1, p3, eta_s, eta_3, xi)
    p23 = _check_prob(g_s2 * p2 * p3, "P23(0)")
    terms = triple_coincidence_prob(p1, p2, p3, eta_s, eta_2, eta_3, xi, xi2, g_s2)

    counts = CountProbabilities(
        p1=p1,
        p2=p2,
        p3=p3,
        p12=p12,
        p13=p13,
        p23=p23,
        p12_acc=p1 * p2,
        p13_acc=p1 * p3,
        p123=terms.total,
        p123_accidental=terms.accidental,
        p123_pair_single=terms.pair_single,
        p123_bunching=terms.bunching,
    )

    p_pair = pair_rate(p1, eta_i, eta_1, xi) if p1 > 0 else 0.0
    car_value = p12 / (p1 * p2) if p1 > 0 and p2 > 0 else math.inf
    eta_d, h = heralding_efficiencies(eta_s, eta_2, xi)
    figures = FiguresOfMerit(
        car=car_value,
        g_s2=g_s2,
        g_c2_exact=heralded_g2_exact(counts) if p1 > 0 else 0.0,
        g_c2_approx=heralded_g2_approx(g_s2, car_value) if math.isfinite(car_value) else 0.0,
        eta_d=eta_d,
        heralding_eff=h,
        p_pair=p_pair,
    )
    return counts, figures


def report_to_dict(counts: CountProbabilities, figures: FiguresOfMerit) -> dict:
    """Flat key/value document for JSON emission (stable key names)."""
    doc = counts.as_dict()
    doc.update(figures.as_dict())
    return doc
