"""Pulse-by-pulse simulation of the three gated detectors.

The simulator draws joint click patterns from an exact 8-outcome
distribution built out of the count probabilities with dark counts and
Poissonian Raman-background clicks folded in per detector
(:func:`effective_pattern_probs`, the same distribution
:func:`model_predictions` evaluates).  Most gates are empty, so no gate is
drawn one by one.  A model with dead time needs the distance between
clicks for the veto: it draws every clicking gate from two plain uniforms
by inverting CDFs, a geometric gap in P(any click) and a pattern
conditioned on a click, then applies the veto (:func:`_draw_chunk`).  A
model without dead time needs a position only for the clicks that sit next
to another click or on a chunk end: it draws each chunk from its run
structure, the click count, the ends, the adjacent click pairs and their
patterns, and one multinomial for the other clicks' patterns
(:func:`_draw_runs`).  Both tally singles, same-slot coincidences,
adjacent-slot accidentals and triples exactly as a counting experiment
would.  Because the pattern distribution is exact, estimator behavior can
be tested against known ground truth.

Determinism contract: results depend only on (seed, chunking).  Each chunk
derives an independent random stream from a counter-based generator keyed
by (seed, chunk_index); chunks are consumed in index order and dead-time
state and the pattern on the last gate carry across the boundary.
:data:`RNG_SCHEME` names the way the streams are turned into clicks and
changes whenever the tallies for a given seed would.  Its v4 draws the
models without dead time from their run structure; the models with dead
time keep the v3 gap draw, so their tallies are those of v3.

Raman background is Poissonian and sits in the idler band, where it is
fitted and subtracted downstream.  When a
``raman=(s1, s2, p_ave)`` triple is given, the model is power-driven: the
linear part s1 * p_ave is the mean Raman photon number reaching the idler
band per pulse and the quadratic part s2 * p_ave^2 sets the pair gain so
that the mean pair-produced idler photon number equals it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ModelValidityError, SourceConfig, normalize, with_gain
from .stats import _SQRT2_PI, CountProbabilities, _figures, _herald_norm, full_report

DEFAULT_CHUNK = 1 << 20
RNG_SCHEME = "philox-chunk-runs-v4"


class ModelInconsistencyError(ModelValidityError):
    """The supplied count probabilities admit no joint click distribution."""


class EstimationError(RuntimeError):
    """A tally-based estimator is undefined on these counts."""


@dataclass(frozen=True)
class TallyCounters:
    """Click tallies.  Coincidences are same-slot; acc_* pair each gate
    with the adjacent earlier gate of the partner detector (a vetoed gate
    contributes no click), so the coincidence and accidental rates see the
    same dead-time thinning and their ratio stays unbiased.  The fields are
    counts; :func:`hsps.stats._figures` is the one definition of the figures."""

    gates: int
    singles_1: int = 0
    singles_2: int = 0
    singles_3: int = 0
    coinc_12: int = 0
    coinc_13: int = 0
    coinc_23: int = 0
    acc_12: int = 0
    acc_13: int = 0
    triples_123: int = 0

    def __post_init__(self):
        if self.gates < 0:
            raise ValueError("gates must be nonnegative")
        for name in ("coinc_12", "coinc_13", "coinc_23", "acc_12", "acc_13", "triples_123"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.coinc_12 > min(self.singles_1, self.singles_2):
            raise ValueError("coinc_12 exceeds its constituent singles")
        if self.coinc_13 > min(self.singles_1, self.singles_3):
            raise ValueError("coinc_13 exceeds its constituent singles")
        if self.coinc_23 > min(self.singles_2, self.singles_3):
            raise ValueError("coinc_23 exceeds its constituent singles")
        if max(self.singles_1, self.singles_2, self.singles_3) > self.gates:
            raise ValueError("singles exceed the number of gates")


@dataclass(frozen=True)
class EstimatorResult:
    value: float
    std_error: float
    n_effective: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


@dataclass(frozen=True)
class Estimates:
    car: EstimatorResult
    g_c2: EstimatorResult
    h: EstimatorResult
    eta_d: EstimatorResult


@dataclass(frozen=True)
class PulseModel:
    """Everything :func:`simulate` needs for one gated pulse.

    pattern_probs[i] is the probability of the click pattern with bits
    (detector1, detector2, detector3) packed as i = 4 d1 + 2 d2 + d3,
    before dark counts and Raman background.  extra_click_probs are the
    per-detector probabilities of an independent additional click (dark OR
    detected Raman).
    """

    pattern_probs: np.ndarray
    extra_click_probs: tuple[float, float, float]
    gate_divisor: int
    dead_time_gates: tuple[int, int, int]


def pattern_probabilities(counts: CountProbabilities) -> np.ndarray:
    """Joint 8-outcome click distribution by inclusion-exclusion over
    {P1, P2, P3, P12, P13, P23, P123}."""
    c = counts
    p = np.empty(8)
    p[0b111] = c.p123
    p[0b110] = c.p12 - c.p123
    p[0b101] = c.p13 - c.p123
    p[0b011] = c.p23 - c.p123
    p[0b100] = c.p1 - c.p12 - c.p13 + c.p123
    p[0b010] = c.p2 - c.p12 - c.p23 + c.p123
    p[0b001] = c.p3 - c.p13 - c.p23 + c.p123
    p[0b000] = 1.0 - p[0b001] - p[0b010] - p[0b011] - p[0b100] - p[0b101] - p[0b110] - p[0b111]
    if np.any(p < -1e-12):
        worst = int(np.argmin(p))
        raise ModelInconsistencyError(
            f"inclusion-exclusion gives negative probability {p[worst]:.3e} "
            f"for pattern {worst:03b}"
        )
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def gain_for_power(s2: float, p_ave: float, sigma_i_prime: float) -> float:
    """|G|^2 such that the mean pair-produced idler photon number per pulse
    reaching the band equals s2 * p_ave^2."""
    if s2 < 0 or p_ave <= 0:
        raise ValueError("s2 must be nonnegative and p_ave positive")
    return s2 * p_ave**2 / (_SQRT2_PI * sigma_i_prime)


def build_pulse_model(
    config: SourceConfig,
    source: str = "analytic",
    raman: tuple[float, float, float] | None = None,
) -> PulseModel:
    """Construct the per-pulse model from a configuration.

    source selects where the click-pattern probabilities come from:
    "analytic" uses the closed forms, "gaussian_oracle" the all-order
    threshold-click probabilities of the Gaussian-state engine.

    raman, when given, is (s1, s2, p_ave): mean Raman photons per pulse in
    the idler band s1 * p_ave, pair gain set from s2 * p_ave^2 (the
    configured |G|^2 is ignored).  s1 must be nonnegative and all three
    finite.
    """
    raman_idler = 0.0
    if raman is not None:
        s1, s2, p_ave = raman
        if not (all(math.isfinite(v) for v in raman) and s1 >= 0):
            raise ValueError(f"raman (s1, s2, p_ave) must be finite with s1 >= 0, got {raman}")
        bands = normalize(config)
        config = with_gain(config, gain_for_power(s2, p_ave, bands.sigma_i_prime))
        raman_idler = s1 * p_ave

    if source == "analytic":
        counts, _ = full_report(config)
    elif source == "gaussian_oracle":
        from .oracle import gaussian_click_probs

        counts = gaussian_click_probs(config, order="all_order")
    else:
        raise ValueError(f"source must be 'analytic' or 'gaussian_oracle', got {source!r}")

    patterns = pattern_probabilities(counts)

    e1 = config.detectors[0].efficiency
    # the signal arms see no Raman light; their extra click stays the OR
    # 1 - (1 - dark) * (1 - 0.0), which can differ from dark in its last bit
    q_raman = (1.0 - math.exp(-config.idler_channel_transmission * e1 * raman_idler), 0.0, 0.0)
    dark = tuple(d.dark_count_prob for d in config.detectors)
    extra = tuple(1.0 - (1.0 - dk) * (1.0 - qr) for dk, qr in zip(dark, q_raman))

    model = PulseModel(
        pattern_probs=patterns,
        extra_click_probs=extra,
        gate_divisor=config.gate_divisor,
        dead_time_gates=tuple(d.dead_time_gates for d in config.detectors),
    )
    # construction guarantees: distribution normalized, marginals match
    joint = _joint_probs(patterns)
    for name in ("p1", "p2", "p3"):
        off = joint[name] - getattr(counts, name)
        if abs(off) > 1e-12:
            raise ModelInconsistencyError(f"pattern marginal {name} off by {off:.2e}")
    return model


def effective_pattern_probs(model: PulseModel) -> np.ndarray:
    """Pattern distribution after OR-ing the independent extra clicks in."""
    p = model.pattern_probs.copy()
    for det, q in enumerate(model.extra_click_probs):
        if q == 0.0:
            continue
        bit = 4 >> det
        out = np.zeros_like(p)
        for idx in range(8):
            if idx & bit:
                out[idx] += p[idx]
            else:
                out[idx] += p[idx] * (1.0 - q)
                out[idx | bit] += p[idx] * q
        p = out
    return p


# the patterns in which every detector of the subsets 1, 2, 3, 12, 13, 23 and
# 123 clicks (plain lists: no numpy work at import)
_SUBSET_PATTERNS = {
    name: [i for i in range(8) if i & bits == bits]
    for name, bits in (("1", 4), ("2", 2), ("3", 1), ("12", 6), ("13", 5), ("23", 3),
                       ("123", 7))
}


def _joint_probs(p: np.ndarray) -> dict:
    """Sum of the pattern weights p over each detector subset: the joint
    click probabilities p1 ... p123 for pattern probabilities, the same-slot
    tallies (as ints) for pattern counts."""
    return {"p" + name: p[idx].sum().item() for name, idx in _SUBSET_PATTERNS.items()}


def model_predictions(model: PulseModel, config: SourceConfig) -> dict:
    """Exact expectation values of the tally-based estimators, dark counts
    and Raman included, assuming no dead-time thinning: :func:`_figures` of
    the joint click probabilities, accidentals p1 * p2; None for a zero denominator."""
    j = _joint_probs(effective_pattern_probs(model))
    figures = _figures(j["p1"], j["p12"], j["p13"], j["p1"] * j["p2"], j["p123"],
                       _herald_norm(config))
    return dict(zip(("car", "g_c2", "eta_d", "h"), figures)) | {"joint": j}


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _conditional_law(probs: np.ndarray):
    """P(any click) and the six thresholds t_k of the 7 non-empty outcomes'
    CDF conditioned on a click (None when no gate can click)."""
    # tail[i] = P(pattern > i), summed from the top: a pattern with no mass
    # at or above it gets a threshold of exactly 1 and is never drawn
    tail = np.cumsum(probs[:0:-1])[::-1]
    p_any = float(tail[0])
    return p_any, (1.0 - tail[1:] / p_any if p_any > 0.0 else None)


def _patterns(u: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Click patterns (uint8) 1 + sum_k [u >= t_k] from plain uniforms u."""
    patterns = np.ones(u.size, dtype=np.uint8)
    for t in thresholds:
        patterns += u >= t
    return patterns


def _every_gate_clicks(probs: np.ndarray, p_any: float) -> bool:
    """No empty gate: P(any click) is 1 after rounding, or P(empty) is 0."""
    return p_any >= 1.0 or probs[0] == 0.0


def _draw_chunk(probs: np.ndarray, seed: int, chunk_index: int, size: int):
    """Sorted local indices and 3-bit patterns (uint8) of the gates of one
    chunk that click at all; stateless.  The draw for models with dead time.

    Both draws invert a CDF on plain uniforms, one per clicking gate each.
    The gap to the next clicking gate is floor(log(1 - u) / log1p(-P(any)))
    + 1, geometric in P(any click), so the empty gates are skipped rather
    than drawn (1 - u is exact: the uniforms are multiples of 2^-53).  Each
    clicking gate then takes its pattern from :func:`_patterns`.
    """
    rng = _chunk_rng(seed, chunk_index)
    p_any, thresholds = _conditional_law(probs)
    if p_any == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    # with no empty gate every gap is 1 (and log1p(-1) would raise)
    log_empty = -math.inf if _every_gate_clicks(probs, p_any) else math.log1p(-p_any)
    batch = int(size * p_any + 4.0 * math.sqrt(size * p_any)) + 16
    parts = []
    last = -1
    while last < size:
        u = rng.random(batch)
        np.log(np.subtract(1.0, u, out=u), out=u)
        u /= log_empty
        np.floor(u, out=u)
        u += 1.0
        # a gap past the chunk end ends the chunk; capping it there keeps the
        # cast and the running sum within int64 when P(any click) is tiny
        np.minimum(u, size + 1, out=u)
        part = u.astype(np.int64)
        np.cumsum(part, out=part)
        part += last
        parts.append(part)
        last = int(part[-1])
    gates = np.concatenate(parts)
    gates = gates[: np.searchsorted(gates, size)]
    return gates, _patterns(rng.random(gates.size), thresholds)


def _draw_runs(probs: np.ndarray, seed: int, chunk_index: int, size: int):
    """One chunk drawn from its run structure; stateless.  The draw for
    models without dead time.

    Returns (pattern counts over all 8 outcomes, the earlier and the later
    patterns of the adjacent click pairs, the pattern on gate 0, the
    pattern on gate size - 1); an empty gate has pattern 0.

    With no dead time the patterns of the clicking gates are independent of
    where the clicks sit, so only the clicks next to another click or on a
    chunk end need a position and a pattern.  The chunk draws, in order:
    the click count K ~ Binomial(size, P(any)); whether gate 0 clicks (K /
    size) and then whether gate size - 1 does ((K - f) / (size - 1)); the
    number S of consecutive click pairs that are adjacent gates, which is
    Hypergeometric(K - 1, E - 1, K - f - l) with E = size - K, because a
    K-subset of the gates with a given set of s adjacent pairs has
    C(E - 1, K - s - f - l) arrangements; which pairs, as a uniform
    S-subset of the K - 1; the patterns of the clicks in an adjacent pair
    or on a chunk end, from :func:`_patterns`; and one multinomial over the
    7 click patterns for the rest.
    """
    rng = _chunk_rng(seed, chunk_index)
    p_any, thresholds = _conditional_law(probs)
    if p_any == 0.0:
        n_click = 0
    elif _every_gate_clicks(probs, p_any):
        n_click = size
    else:
        n_click = int(rng.binomial(size, p_any))
    n_empty = size - n_click
    counts = np.zeros(8, dtype=np.int64)
    counts[0] = n_empty
    if n_click == 0:
        none = np.empty(0, dtype=np.uint8)
        return counts, none, none, 0, 0
    first = int(rng.integers(size) < n_click)
    last = first if size == 1 else int(rng.integers(size - 1) < n_click - first)
    if n_empty == 0:
        n_adjacent = n_click - 1
    else:
        n_adjacent = int(rng.hypergeometric(n_click - 1, n_empty - 1, n_click - first - last))
    # adjacent[i]: clicks i and i + 1 sit on neighbouring gates
    adjacent = np.zeros(n_click, dtype=bool)
    adjacent[rng.choice(n_click - 1, n_adjacent, replace=False, shuffle=False)] = True
    explicit = adjacent.copy()
    explicit[1:] |= adjacent[:-1]
    explicit[0] |= bool(first)
    explicit[-1] |= bool(last)
    explicit = np.flatnonzero(explicit)
    patterns = _patterns(rng.random(explicit.size), thresholds)
    counts += np.bincount(patterns, minlength=8)
    # the heaviest pattern takes the multinomial's remainder, so a pattern
    # with no mass gets exactly none
    heaviest = 1 + int(np.argmax(probs[1:]))
    order = [i for i in range(1, 8) if i != heaviest] + [heaviest]
    counts[order] += rng.multinomial(n_click - explicit.size, probs[order] / p_any)
    pairs = np.flatnonzero(adjacent[explicit])
    return (counts, patterns[pairs], patterns[pairs + 1],
            int(patterns[0]) if first else 0, int(patterns[-1]) if last else 0)


def _accidentals(earlier, later) -> tuple[int, int]:
    """Adjacent-slot accidentals (a12, a13) over (earlier, later) pattern
    pairs: detector 1 clicks in the later gate, its partner in the earlier."""
    d1 = (later & 4) > 0
    return (int(np.count_nonzero(d1 & ((earlier & 2) > 0))),
            int(np.count_nonzero(d1 & ((earlier & 1) > 0))))


def _apply_dead_time(clicks: np.ndarray, dead: int, dead_until: int):
    """Greedy dead-time veto over one detector's sorted click gates.

    Returns (mask of the clicks that register, first live gate after the
    last registered click), both in the local coordinates of clicks.  A
    click in a vetoed gate is dropped and does not retrigger the veto.

    A click more than dead gates after the previous raw click is always
    kept, so the greedy loop runs only over the clicks inside clusters.
    """
    keep = np.zeros(clicks.size, dtype=bool)
    # the clicks inside the carried window are vetoed; the first after it registers
    first = int(np.searchsorted(clicks, dead_until))
    if first == clicks.size:
        return keep, dead_until
    keep[first] = True
    np.greater(np.diff(clicks[first:]), dead, out=keep[first + 1:])
    cluster = first + 1 + np.flatnonzero(~keep[first + 1:])
    # a cluster click right after an always-kept one starts from its window
    after_kept = keep[cluster - 1]
    for k, gate, prev, reset in zip(cluster.tolist(), clicks[cluster].tolist(),
                                    clicks[cluster - 1].tolist(), after_kept.tolist()):
        if reset:
            dead_until = prev + 1 + dead
        if gate >= dead_until:
            keep[k] = True
            dead_until = gate + 1 + dead
    return keep, int(clicks[np.flatnonzero(keep)[-1]]) + 1 + dead


def _vetoed_chunk(gates, patterns, dead_time_gates, dead_until: list, size: int):
    """Apply the dead-time veto to one chunk's clicking gates and patterns
    and summarise it as :func:`_draw_runs` does; dead_until carries each
    detector's first live gate into the next chunk and is updated in place."""
    for det, dead in enumerate(dead_time_gates):
        if dead == 0:
            continue
        bit = 4 >> det
        hit = np.flatnonzero(patterns & bit)
        keep, until = _apply_dead_time(gates[hit], dead, dead_until[det])
        patterns[hit[~keep]] &= 7 ^ bit
        dead_until[det] = max(until - size, 0)
    counts = np.bincount(patterns, minlength=8)
    counts[0] += size - gates.size
    adjacent = np.flatnonzero(np.diff(gates) == 1)
    first = int(patterns[0]) if gates.size and gates[0] == 0 else 0
    last = int(patterns[-1]) if gates.size and gates[-1] == size - 1 else 0
    return counts, patterns[adjacent], patterns[adjacent + 1], first, last


def simulate(
    model: PulseModel,
    n_pulses: int,
    seed: int,
    chunking: int = DEFAULT_CHUNK,
    progress=None,
) -> TallyCounters:
    """Simulate n_pulses pump pulses and return the tallies.

    Only every gate_divisor-th pulse is gated; tallies.gates counts the
    gated pulses.  Deterministic for fixed (seed, chunking) and run on one
    thread.  progress, when given, is called as progress(done, total) after
    each chunk with pulse counts.

    A model with dead time draws each chunk's clicking gates by geometric
    gaps and vetoes them (:func:`_draw_chunk`, the v3 draw); a model without
    draws each chunk from its run structure (:func:`_draw_runs`), in
    O(P(any)^2 size) random draws rather than O(P(any) size).  The two give
    the same tally distribution but different tallies for a seed.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if chunking < 1:
        raise ValueError("chunking must be >= 1")
    n_gates = n_pulses // model.gate_divisor
    if n_gates == 0:
        return TallyCounters(gates=0)

    probs = effective_pattern_probs(model)
    pattern_counts = np.zeros(8, dtype=np.int64)
    a12 = a13 = 0
    dead_until = [0, 0, 0]
    prev_last = 0   # pattern on the last gate of the previous chunk
    dead_time = any(model.dead_time_gates)

    for k, start in enumerate(range(0, n_gates, chunking)):
        size = min(chunking, n_gates - start)
        if dead_time:
            counts, earlier, later, first, last = _vetoed_chunk(
                *_draw_chunk(probs, seed, k, size), model.dead_time_gates, dead_until, size)
        else:
            counts, earlier, later, first, last = _draw_runs(probs, seed, k, size)
        pattern_counts += counts
        # accidentals pair each gate with the adjacent earlier gate of the
        # partner, across the chunk boundary too; a vetoed gate records no
        # click, as in hardware
        for d12, d13 in (_accidentals(earlier, later), _accidentals(prev_last, first)):
            a12 += d12
            a13 += d13
        prev_last = last
        if progress is not None:
            progress((start + size) * model.gate_divisor, n_pulses)

    j = _joint_probs(pattern_counts)
    return TallyCounters(n_gates, j["p1"], j["p2"], j["p3"], j["p12"], j["p13"], j["p23"],
                         a12, a13, j["p123"])


def estimate(tallies: TallyCounters, config: SourceConfig, *, beta: float = 0.0,
             var_beta: float = 0.0) -> Estimates:
    """CAR, heralded g2, heralding efficiency and conditional detection
    efficiency from tallies, with delta-method standard errors.

    The values are :func:`_figures` of the tallies, as in the experimental
    reduction: CAR is the same-slot to adjacent-slot coincidence ratio, the
    heralded g2 is triples * singles_1 / (coinc_13 * coinc_12), and H
    divides the true coincidence rate by the herald singles and by the
    signal-channel detection efficiency (coupler split included).

    beta, the fitted Raman counts per gate in the herald band (variance
    var_beta), is subtracted first: beta * gates from singles_1 and beta
    times the partner (singles_2, singles_3, singles_2, coinc_23) from
    coinc_12, coinc_13, acc_12 and triples_123.  A corrected tally
    x - beta * s has variance x + s^2 var_beta + beta^2 s, the singles
    singles_1 + gates^2 var_beta: the Poisson variances at beta = 0.  The
    tallies are treated as independent, and the triples' variance has a
    floor of one count: with no triples, g2 is 0 with error
    singles_1 / (coinc_13 * coinc_12).
    """
    t = tallies
    if t.acc_12 == 0:
        raise EstimationError(
            "no accidental 1-2 coincidences tallied; CAR is undefined "
            "(increase n_pulses or the pair rate)"
        )
    if t.singles_1 == 0 or t.coinc_12 == 0 or t.coinc_13 == 0:
        raise EstimationError("zero counts in an estimator denominator; increase n_pulses")
    herald_norm = _herald_norm(config)
    if herald_norm <= 0:
        raise EstimationError("signal-channel detection efficiency is zero")

    n1 = t.singles_1 - beta * t.gates
    if n1 <= 0:
        raise EstimationError("Raman subtraction exhausts the herald singles")
    v_n1 = t.singles_1 + var_beta * t.gates**2

    def subtract(count, partner):
        return count - beta * partner, count + partner**2 * var_beta + beta**2 * partner

    c12, v_c12 = subtract(t.coinc_12, t.singles_2)
    c13, v_c13 = subtract(t.coinc_13, t.singles_3)
    a12, v_a12 = subtract(t.acc_12, t.singles_2)
    t123, v_t123 = subtract(t.triples_123, t.coinc_23)
    if c12 <= 0 or c13 <= 0 or a12 <= 0:
        raise EstimationError("Raman subtraction exhausts the coincidences")
    v_t123 = max(v_t123, 1.0)

    car, g2, eta_d, h = _figures(n1, c12, c13, a12, t123, herald_norm)
    car_se = car * math.sqrt(v_c12 / c12**2 + v_a12 / a12**2)
    g2_se = math.sqrt(
        v_t123 * (n1 / (c13 * c12)) ** 2
        + g2**2 * (v_n1 / n1**2 + v_c12 / c12**2 + v_c13 / c13**2)
    )
    eta_d_se = math.sqrt(v_c12 + v_a12 + eta_d**2 * v_n1) / n1

    # a whole count for tallies and after Raman subtraction alike (the
    # Raman terms of c12 and a12 cancel), so round off the float error
    n_true = max(round(c12 - a12), 0)
    return Estimates(
        car=EstimatorResult(car, car_se, int(a12)),
        g_c2=EstimatorResult(g2, g2_se, max(int(t123), 0)),
        h=EstimatorResult(h, eta_d_se / herald_norm, n_true),
        eta_d=EstimatorResult(eta_d, eta_d_se, n_true),
    )
