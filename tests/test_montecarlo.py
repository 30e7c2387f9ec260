import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsps import montecarlo as mc
from hsps.config import load_config
from hsps.montecarlo import (
    DEFAULT_CHUNK,
    EstimationError,
    EstimatorResult,
    ModelInconsistencyError,
    RNG_SCHEME,
    PulseModel,
    TallyCounters,
    build_pulse_model,
    effective_pattern_probs,
    estimate,
    gain_for_power,
    model_predictions,
    pattern_probabilities,
    simulate,
)
from hsps.oracle import gaussian_click_probs
from hsps.stats import CountProbabilities, _figures, _herald_norm, full_report

EFF = (0.5, 0.8, 0.8)


def counts_from_patterns(p):
    bits = np.arange(8)
    d1, d2, d3 = (bits & 4) > 0, (bits & 2) > 0, (bits & 1) > 0
    return CountProbabilities(
        p1=float(p[d1].sum()),
        p2=float(p[d2].sum()),
        p3=float(p[d3].sum()),
        p12=float(p[d1 & d2].sum()),
        p13=float(p[d1 & d3].sum()),
        p23=float(p[d2 & d3].sum()),
        # accidental fields are not part of the pattern algebra; arbitrary
        # distributions may sit below the independent-coincidence floor
        p12_acc=0.0,
        p13_acc=0.0,
        p123=float(p[d1 & d2 & d3].sum()),
    )


class TestPatternConstruction:
    def test_no_gain_is_all_silent(self, symmetric):
        model = build_pulse_model(symmetric(1.0, 1.0, 0.0, det_efficiencies=EFF))
        assert model.pattern_probs[0] == 1.0
        assert model.pattern_probs[1:].sum() == 0.0

    def test_marginals_match_sources(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        model = build_pulse_model(config)
        counts, _ = full_report(config)
        joint = mc._joint_probs(model.pattern_probs)
        assert joint["p1"] == pytest.approx(counts.p1, abs=1e-12)
        assert joint["p2"] == pytest.approx(counts.p2, abs=1e-12)
        assert joint["p3"] == pytest.approx(counts.p3, abs=1e-12)
        assert model.pattern_probs.sum() == pytest.approx(1.0, abs=1e-12)

    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    @settings(max_examples=150)
    def test_round_trip_from_any_distribution(self, weights):
        p = np.asarray(weights) + 1e-9
        p = p / p.sum()
        recovered = pattern_probabilities(counts_from_patterns(p))
        assert np.allclose(recovered, p, atol=1e-12)

    def test_incompatible_counts_raise(self):
        # a triple rate above the 2-3 coincidence admits no distribution
        bad = CountProbabilities(
            p1=0.1, p2=0.1, p3=0.1, p12=0.05, p13=0.05, p23=0.02,
            p12_acc=0.01, p13_acc=0.01, p123=0.03,
        )
        with pytest.raises(ModelInconsistencyError):
            pattern_probabilities(bad)

    def test_lossless_herald_counts_are_inconsistent(self, symmetric):
        # with a lossless herald path, double pairs put two photons on the
        # herald and the count-currency triple exceeds the signal-signal
        # coincidence: no click distribution exists
        with pytest.raises(ModelInconsistencyError):
            build_pulse_model(symmetric(1.0, 1.0, 0.01))

    def test_cross_oracle_pattern_agreement(self, symmetric):
        # count-currency patterns from the closed forms against the
        # Gaussian-state leading-order route
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        analytic = build_pulse_model(config, source="analytic").pattern_probs
        state_counts = gaussian_click_probs(config, order="low_gain")
        state = pattern_probabilities(state_counts)
        assert np.max(np.abs(analytic - state)) < 1e-4

    def test_gaussian_oracle_source(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        model = build_pulse_model(config, source="gaussian_oracle")
        clicks = gaussian_click_probs(config, order="all_order")
        assert mc._joint_probs(model.pattern_probs)["p1"] == pytest.approx(clicks.p1, abs=1e-12)
        # threshold-click and count currencies differ at the permille level
        analytic = build_pulse_model(config, source="analytic").pattern_probs
        assert 1e-6 < np.max(np.abs(model.pattern_probs - analytic)) < 2e-3

    def test_power_driven_raman_model(self, symmetric):
        config = symmetric(1.0, 1.0, 0.0, det_efficiencies=EFF)
        model = build_pulse_model(config, raman=(0.08, 0.05, 0.9))
        assert model.extra_click_probs[1] == model.extra_click_probs[2] == 0.0
        # pair part: mean idler photons reaching the band = s2 p^2
        g2 = gain_for_power(0.05, 0.9, 1.0)
        assert math.sqrt(2) * math.pi * g2 == pytest.approx(0.05 * 0.81, rel=1e-12)
        q1 = model.extra_click_probs[0]
        assert q1 == pytest.approx(1.0 - math.exp(-0.5 * 0.072), rel=1e-12)

    def test_effective_patterns_fold_in_dark_counts(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF, dark=(0.1, 0.0, 0.0))
        model = build_pulse_model(config)
        eff = effective_pattern_probs(model)
        base = model.pattern_probs
        bits = np.arange(8)
        p1_eff = eff[(bits & 4) > 0].sum()
        p1_base = base[(bits & 4) > 0].sum()
        assert p1_eff == pytest.approx(1.0 - (1.0 - p1_base) * 0.9, abs=1e-12)


class TestDraw:
    """The inverse-CDF draw of one chunk: gaps and patterns from plain uniforms."""

    # chi-square with 7 degrees of freedom exceeds this with probability 1e-4
    CHI2_7DOF_1E4 = 29.8775

    def test_pattern_frequencies_match_distribution(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        model = dataclasses.replace(build_pulse_model(config),
                                    extra_click_probs=(0.1, 0.05, 0.05))
        probs = effective_pattern_probs(model)
        size = 1 << 20
        gates, patterns = mc._draw_chunk(probs, 9, 0, size)
        assert np.all(np.diff(gates) > 0) and 0 <= gates[0] and gates[-1] < size
        observed = np.bincount(patterns, minlength=8)
        observed[0] = size - gates.size
        expected = size * probs
        assert expected.min() > 1000
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < self.CHI2_7DOF_1E4, (observed, expected)

    # patterns 1 (first), 4 (middle) and 7 (last, p123 = 0) carry no mass;
    # thirds and sevenths round in every partial sum
    ZERO_MASS = np.array([0.55, 0.0, 0.1 / 3, 0.2 / 3, 0.0, 0.1 / 7, 0.6 / 7, 0.0])
    ZERO_MASS = ZERO_MASS / ZERO_MASS.sum()

    def test_zero_probability_patterns_never_drawn(self):
        drawn = set(np.unique(mc._draw_chunk(self.ZERO_MASS, 4, 0, 1 << 20)[1]).tolist())
        assert drawn == {2, 3, 5, 6}

    def test_zero_probability_patterns_unreachable_at_any_uniform(self, monkeypatch):
        # feed the pattern draw the extreme uniforms and every threshold with
        # its neighbours; zero gap uniforms make every gate click
        tail = np.cumsum(self.ZERO_MASS[:0:-1])[::-1]
        thresholds = 1.0 - tail[1:] / tail[0]
        edges = [0.0, np.nextafter(1.0, 0.0)]
        for t in np.clip(thresholds, 0.0, np.nextafter(1.0, 0.0)):
            edges += [np.nextafter(t, 0.0), t, min(np.nextafter(t, 1.0), edges[1])]
        edges = np.array(edges)

        class FixedUniforms:
            calls = 0

            def random(self, n):
                FixedUniforms.calls += 1
                return np.zeros(n) if FixedUniforms.calls == 1 else edges[:n].copy()

        monkeypatch.setattr(mc, "_chunk_rng", lambda seed, chunk: FixedUniforms())
        gates, patterns = mc._draw_chunk(self.ZERO_MASS, 0, 0, edges.size)
        assert gates.tolist() == list(range(edges.size))
        assert set(patterns.tolist()) <= {2, 3, 5, 6}

    @pytest.mark.parametrize("case", ["saturated_model", "tail_sum_above_one"])
    def test_certain_click_fills_every_gate(self, symmetric, case):
        if case == "saturated_model":
            model = build_pulse_model(symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF))
            probs = effective_pattern_probs(
                dataclasses.replace(model, extra_click_probs=(1.0, 1.0, 1.0)))
        else:
            # P(any click) sums to 1 + 2^-52 from the top: log1p(-P) would raise
            probs = np.array([0.0, 0.1, 0.1, 0.1, 0.05, 0.05, 0.2, 0.4])
            assert np.cumsum(probs[:0:-1])[-1] > 1.0
        gates, patterns = mc._draw_chunk(probs, 2, 0, 5000)
        assert gates.tolist() == list(range(5000))
        assert patterns.min() >= 1


def _chi2_threshold(dof: int, z: float = 3.719) -> float:
    """Upper 1e-4 point of a chi-square with dof degrees of freedom
    (Wilson-Hilferty; z is the standard normal's upper 1e-4 point)."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def _run_summary(draw, size):
    """(K, S, first gate clicks, last gate clicks) of one _draw_runs result."""
    counts, earlier, later, first, last = draw
    assert earlier.size == later.size
    return size - int(counts[0]), earlier.size, first > 0, last > 0


class TestRunsDraw:
    """The run-structure draw of one chunk for models without dead time."""

    @staticmethod
    def _exact_structure(size, p):
        """P(K, S, f, l) over all 2^size click sequences with per-gate click
        probability p: S counts the neighbouring gates that both click."""
        law = {}
        for seq in range(1 << size):
            k = seq.bit_count()
            key = (k, (seq & (seq >> 1)).bit_count(), bool(seq & 1), bool(seq >> (size - 1)))
            law[key] = law.get(key, 0.0) + p**k * (1.0 - p) ** (size - k)
        return law

    @pytest.mark.parametrize("size, p_any", [(1, 0.4), (2, 0.5), (5, 0.3), (8, 0.25),
                                             (8, 0.75)])
    def test_run_structure_matches_enumeration(self, size, p_any):
        probs = np.array([1.0 - p_any, 0.0, 0.2, 0.1, 0.3, 0.1, 0.2, 0.1])
        probs[2:] *= p_any
        law = self._exact_structure(size, p_any)
        n = 8000
        seen = {}
        for chunk in range(n):
            key = _run_summary(mc._draw_runs(probs, 3, chunk, size), size)
            assert key in law, key
            seen[key] = seen.get(key, 0) + 1
        # cells expected below 5 draws are pooled into one
        observed, expected = [], []
        rest_obs = rest_exp = 0.0
        for key, prob in law.items():
            if n * prob >= 5.0:
                observed.append(seen.get(key, 0))
                expected.append(n * prob)
            else:
                rest_obs += seen.get(key, 0)
                rest_exp += n * prob
        if rest_exp > 0.0:
            observed.append(rest_obs)
            expected.append(rest_exp)
        observed, expected = np.array(observed), np.array(expected)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < _chi2_threshold(observed.size - 1), (chi2, observed, expected)

    def test_pattern_frequencies_match_distribution(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        model = dataclasses.replace(build_pulse_model(config),
                                    extra_click_probs=(0.1, 0.05, 0.05))
        probs = effective_pattern_probs(model)
        size = 1 << 20
        counts = mc._draw_runs(probs, 9, 0, size)[0]
        expected = size * probs
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < TestDraw.CHI2_7DOF_1E4, (counts, expected)

    def test_zero_probability_patterns_never_drawn(self):
        # patterns 1, 4 and 7 carry no mass; at P(any) 0.45 seven clicks in
        # ten have a clicking neighbour and take explicit patterns, the rest
        # the multinomial
        counts, earlier, later, first, last = mc._draw_runs(TestDraw.ZERO_MASS, 4, 0, 1 << 20)
        assert set(np.flatnonzero(counts).tolist()) == {0, 2, 3, 5, 6}
        assert set(np.concatenate([earlier, later, [first, last]]).tolist()) <= {0, 2, 3, 5, 6}

    @staticmethod
    def _scaled(probs, p_any):
        """probs with its click patterns scaled to P(any click) = p_any."""
        out = probs * (p_any / probs[1:].sum())
        out[0] = 1.0 - p_any
        return out

    SHAPES = {
        "no_click": np.array([1.0, 0, 0, 0, 0, 0, 0, 0]),
        # P(any click) sums to 1 + 2^-52 from the top, P(empty) is 0
        "certain_after_rounding": np.array([0.0, 0.1, 0.1, 0.1, 0.05, 0.05, 0.2, 0.4]),
        "almost_certain": _scaled(TestDraw.ZERO_MASS, 0.97),
        "rare": _scaled(TestDraw.ZERO_MASS, 0.02),
        "zero_mass": TestDraw.ZERO_MASS,
    }

    @given(size=st.integers(1, 40), shape=st.sampled_from(sorted(SHAPES)),
           chunk=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_run_structure_is_consistent(self, size, shape, chunk):
        probs = self.SHAPES[shape]
        draw = mc._draw_runs(probs, 1, chunk, size)
        counts, earlier, later, first, last = draw
        k, s, f, l = _run_summary(draw, size)
        assert counts.sum() == size and counts.min() >= 0
        drawn = set(np.flatnonzero(counts[1:]) + 1) | set(earlier) | set(later) | {first, last}
        assert all(probs[i] > 0.0 for i in drawn - {0})
        if shape == "no_click":
            assert (k, s, f, l) == (0, 0, False, False)
        if shape == "certain_after_rounding" or k == size:
            # E = 0: every pair is adjacent and both ends click
            assert (k, s, f, l) == (size, size - 1, True, True)
        elif k == 0:
            assert (s, f, l) == (0, False, False)
        else:
            # the E empty gates fill the K + 1 - S - f - l gaps between and
            # around the runs, each gap at least one gate
            assert 1 <= k + 1 - s - f - l <= size - k
        if size == 1:
            assert first == last
        elif k == 1:
            assert s == 0 and not (f and l)

    @pytest.mark.parametrize("shape", ["no_click", "certain_after_rounding", "rare",
                                       "zero_mass"])
    def test_single_gate_chunks(self, shape):
        # chunking=1: every gate is its own chunk, so accidentals come only
        # from the pattern carried across the boundaries
        probs = self.SHAPES[shape]
        model = PulseModel(pattern_probs=probs, extra_click_probs=(0.0, 0.0, 0.0),
                           gate_divisor=1, dead_time_gates=(0, 0, 0))
        tallies = simulate(model, 3000, seed=8, chunking=1)
        patterns = np.array([mc._draw_runs(probs, 8, k, 1)[3] for k in range(3000)])
        clicks = np.array([(patterns & (4 >> det)) > 0 for det in range(3)])
        assert tallies == TestSimulate._tallies_from_clicks(clicks)


class TestSimulate:
    def test_deterministic_for_seed_and_chunking(self, symmetric):
        model = build_pulse_model(symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF))
        a = simulate(model, 300_000, seed=5, chunking=1 << 16)
        b = simulate(model, 300_000, seed=5, chunking=1 << 16)
        assert a == b
        c = simulate(model, 300_000, seed=6, chunking=1 << 16)
        assert a != c

    def test_gate_division_thins_gates(self, symmetric):
        model = build_pulse_model(
            symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF, gate_divisor=16)
        )
        tallies = simulate(model, 1_600_000, seed=3)
        assert tallies.gates == 100_000

    def _saturated_model(self, symmetric, dead=0):
        # a DetectorSpec caps dark_count_prob below 1, so saturation is
        # driven through the model's extra-click channel directly
        config = symmetric(1.0, 1.0, 0.0, det_efficiencies=EFF, dead_time_gates=dead)
        model = build_pulse_model(config)
        return dataclasses.replace(model, extra_click_probs=(1.0, 1.0, 1.0))

    # a chunking of 7 puts chunk boundaries inside dead-time windows and
    # between adjacent gates; the default puts none in these short runs
    @pytest.mark.parametrize("chunking", [7, DEFAULT_CHUNK], ids=["chunk7", "default_chunk"])
    def test_saturated_extra_clicks(self, symmetric, chunking):
        tallies = simulate(self._saturated_model(symmetric), 10_000, seed=1, chunking=chunking)
        assert tallies.singles_1 == tallies.gates
        assert tallies.coinc_12 == tallies.gates
        assert tallies.acc_12 == tallies.gates - 1

    @pytest.mark.parametrize("chunking", [7, DEFAULT_CHUNK], ids=["chunk7", "default_chunk"])
    def test_dead_time_vetoes_following_gates(self, symmetric, chunking):
        tallies = simulate(self._saturated_model(symmetric, dead=3), 12_000, seed=1,
                           chunking=chunking)
        # every click vetoes the next 3 gates: one click per 4 gates
        assert tallies.singles_1 == tallies.gates // 4
        assert tallies.acc_12 == 0  # partner always vetoed on the adjacent gate

    @pytest.mark.parametrize("g2", [0.0, 1e-22])
    def test_vanishing_click_probability_terminates(self, symmetric, g2):
        # at P(any click) ~ 1e-23 the geometric gaps saturate at the int64
        # maximum, so an unclipped running sum of them would overflow
        model = build_pulse_model(symmetric(1.0, 1.0, g2, det_efficiencies=EFF))
        assert effective_pattern_probs(model)[1:].sum() < 1e-20
        tallies = simulate(model, 3_000_000, seed=4, chunking=1 << 16)
        assert tallies == TallyCounters(gates=3_000_000)

    def test_dead_time_singles_follow_renewal_theory(self):
        # detector 1 clicks independently in each gate with probability p;
        # a registered click starts a dead window of d gates, so registered
        # clicks form a renewal process with cycle L = d + Geometric(p)
        config = load_config("configs/demo.json")
        model = build_pulse_model(config)
        tallies = simulate(model, 400_000_000, seed=12)
        p = float(effective_pattern_probs(model)[4:].sum())
        d = config.detectors[0].dead_time_gates
        n = tallies.gates
        mean_cycle = d + 1.0 / p
        var_cycle = (1.0 - p) / p**2
        expected = n * p / (1.0 + d * p)
        sigma = math.sqrt(n * var_cycle / mean_cycle**3)
        assert (d, n) == (26, 25_000_000)
        assert abs(tallies.singles_1 - expected) < 4.0 * sigma

    @staticmethod
    def _per_gate_reference(model, n_gates, seed, chunking):
        """Tallies rebuilt from the chunk draws over global gate indices:
        one dead-time veto per detector over the whole run and adjacent-gate
        accidentals on the per-gate click arrays, so no state is carried
        across chunk boundaries by hand."""
        probs = effective_pattern_probs(model)
        clicks = np.zeros((3, n_gates), dtype=bool)
        for k, start in enumerate(range(0, n_gates, chunking)):
            size = min(chunking, n_gates - start)
            gates, patterns = mc._draw_chunk(probs, seed, k, size)
            for det in range(3):
                clicks[det, start + gates[(patterns & (4 >> det)) > 0]] = True
        for det, dead in enumerate(model.dead_time_gates):
            dead_until = 0
            for gate in np.flatnonzero(clicks[det]).tolist():
                if gate < dead_until:
                    clicks[det, gate] = False
                else:
                    dead_until = gate + 1 + dead
        return TestSimulate._tallies_from_clicks(clicks)

    @staticmethod
    def _tallies_from_clicks(clicks):
        """Tallies of a (3, gates) boolean click array."""
        d1, d2, d3 = clicks
        n = np.count_nonzero
        return TallyCounters(
            gates=clicks.shape[1], singles_1=n(d1), singles_2=n(d2), singles_3=n(d3),
            coinc_12=n(d1 & d2), coinc_13=n(d1 & d3), coinc_23=n(d2 & d3),
            acc_12=n(d1[1:] & d2[:-1]), acc_13=n(d1[1:] & d3[:-1]),
            triples_123=n(d1 & d2 & d3),
        )

    def test_dead_time_state_crosses_chunks(self, symmetric):
        # dense clicks put a live dead window and a click on the last gate at
        # most chunk boundaries, so a dead_until or prev_click reset at a
        # boundary changes the tallies
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF, dead_time_gates=7)
        model = dataclasses.replace(build_pulse_model(config), extra_click_probs=(0.3, 0.3, 0.3))
        for chunking in (7, 1 << 12):
            tallies = simulate(model, 20_000, seed=11, chunking=chunking)
            assert tallies == self._per_gate_reference(model, 20_000, 11, chunking), chunking
            assert tallies.acc_12 > 0 and tallies.acc_13 > 0

    @pytest.mark.parametrize("dead", [1, 7, 26])
    def test_dead_time_fast_path_matches_greedy_reference(self, symmetric, dead):
        # at 5% extra clicks per detector, from ~94% (dead 1) to ~16% (dead 26)
        # of the clicks are isolated, so both the vectorised path and the
        # greedy loop over clusters run, on either side of chunk boundaries
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF, dead_time_gates=dead)
        model = dataclasses.replace(build_pulse_model(config),
                                    extra_click_probs=(0.05, 0.05, 0.05))
        for chunking in (7, 1 << 12):
            tallies = simulate(model, 20_000, seed=13, chunking=chunking)
            assert tallies == self._per_gate_reference(model, 20_000, 13, chunking), chunking

    @given(
        gaps=st.lists(st.integers(1, 40), min_size=0, max_size=60),
        dead=st.integers(1, 30),
        dead_until=st.integers(0, 80),
    )
    @settings(max_examples=200)
    def test_dead_time_veto_is_greedy(self, gaps, dead, dead_until):
        clicks = np.cumsum(np.asarray(gaps, dtype=np.int64)) - 1
        expected = []
        until = dead_until
        for gate in clicks.tolist():
            expected.append(gate >= until)
            if expected[-1]:
                until = gate + 1 + dead
        keep, got_until = mc._apply_dead_time(clicks, dead, dead_until)
        assert keep.tolist() == expected
        assert got_until == until

    def test_golden_tallies(self, symmetric):
        # one fixed model, seed and chunking; the tallies change only when the
        # way the streams become clicks changes, which must be declared
        config = symmetric(1.0, 1.0, 0.02, det_efficiencies=EFF, dead_time_gates=3,
                           dark=(1e-3, 5e-4, 5e-4))
        tallies = simulate(build_pulse_model(config), 300_000, seed=2011, chunking=1 << 15)
        golden = TallyCounters(
            gates=300_000, singles_1=12239, singles_2=9863, singles_3=9794, coinc_12=2621,
            coinc_13=2697, coinc_23=563, acc_12=320, acc_13=336, triples_123=301,
        )
        assert (RNG_SCHEME, tallies) == ("philox-chunk-runs-v4", golden), (
            "tallies for a fixed seed changed: bump `RNG_SCHEME`, declare the "
            "change and re-pin these tallies"
        )

    def test_golden_tallies_without_dead_time(self, symmetric):
        # the same pin for the run-structure draw; chunking 2^15 puts chunk
        # boundaries inside the run, so the carried last-gate pattern counts
        config = symmetric(1.0, 1.0, 0.02, det_efficiencies=EFF, dark=(1e-3, 5e-4, 5e-4))
        tallies = simulate(build_pulse_model(config), 300_000, seed=2011, chunking=1 << 15)
        golden = TallyCounters(
            gates=300_000, singles_1=13645, singles_2=10651, singles_3=10893, coinc_12=3134,
            coinc_13=3152, coinc_23=741, acc_12=465, acc_13=502, triples_123=429,
        )
        assert (RNG_SCHEME, tallies) == ("philox-chunk-runs-v4", golden), (
            "tallies for a fixed seed changed: bump `RNG_SCHEME`, declare the "
            "change and re-pin these tallies"
        )

    def test_progress_callback(self, symmetric):
        model = build_pulse_model(symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF))
        seen = []
        simulate(model, 100_000, seed=2, chunking=1 << 15,
                 progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (100_000, 100_000)
        assert len(seen) == 4

    def test_estimator_consistency_quick(self, symmetric):
        # 3-sigma agreement with exact predictions on a small run
        config = symmetric(0.3, 0.3, 0.02, det_efficiencies=EFF)
        model = build_pulse_model(config)
        pred = model_predictions(model, config)
        tallies = simulate(model, 4_000_000, seed=21)
        est = estimate(tallies, config)
        for name in ("car", "g_c2", "h"):
            result = getattr(est, name)
            assert abs(result.value - pred[name]) < 4.0 * result.std_error, name

    def test_estimator_consistency_with_backgrounds(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF,
                           dark=(2e-4, 2e-4, 5e-4))
        model = build_pulse_model(config, raman=(0.05, 0.05, 1.0))
        pred = model_predictions(model, config)
        tallies = simulate(model, 4_000_000, seed=33)
        est = estimate(tallies, config)
        for name in ("car", "g_c2", "h"):
            result = getattr(est, name)
            assert abs(result.value - pred[name]) < 4.0 * result.std_error, name

    def test_raw_h_rises_with_raman_power(self, symmetric):
        # an uncorrected heralding estimate climbs with pump power because
        # the Raman share of the herald singles falls quadratically behind
        config = symmetric(1.0, 1.0, 0.0, det_efficiencies=EFF)
        h_values = []
        for p_ave in (0.4, 0.8, 1.2):
            model = build_pulse_model(config, raman=(0.08, 0.05, p_ave))
            h_values.append(model_predictions(model, config)["h"])
        assert h_values[0] < h_values[1] < h_values[2]

    def test_dead_time_leaves_car_and_g2_unbiased_at_low_rates(self, symmetric):
        # herald-signal click correlation couples dead-time windows across
        # detectors; at lab-like herald efficiency the residual bias on CAR
        # sits far below the statistical resolution of this run
        base = dict(det_efficiencies=(0.1, 0.6, 0.6), g2=0.01)
        config = symmetric(1.0, 1.0, base["g2"], det_efficiencies=base["det_efficiencies"])
        pred = model_predictions(build_pulse_model(config), config)
        config_dead = symmetric(1.0, 1.0, base["g2"],
                                det_efficiencies=base["det_efficiencies"],
                                dead_time_gates=26)
        model_dead = build_pulse_model(config_dead)
        tallies = simulate(model_dead, 8_000_000, seed=17)
        est = estimate(tallies, config_dead)
        assert abs(est.car.value - pred["car"]) < 4.0 * est.car.std_error
        assert abs(est.g_c2.value - pred["g_c2"]) < 4.0 * est.g_c2.std_error
        # absolute rates do drop
        assert tallies.singles_2 / tallies.gates < 0.99 * pred["joint"]["p2"]


class TestTallies:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TallyCounters(gates=100, singles_1=5, singles_2=5, coinc_12=6)
        with pytest.raises(ValueError):
            TallyCounters(gates=10, singles_1=11)


class TestEstimate:
    def _tallies(self, **kwargs):
        base = dict(
            gates=1_000_000, singles_1=20_000, singles_2=12_000, singles_3=12_000,
            coinc_12=2_000, coinc_13=2_000, coinc_23=200, acc_12=240, acc_13=240,
            triples_123=60,
        )
        base.update(kwargs)
        return TallyCounters(**base)

    # the expected figures to the last bit, as they were before
    # model_predictions went through estimate
    @pytest.mark.parametrize("case, expected", [
        ("symmetric", dict(car=12.253953951963826, g_c2=0.29282829355690737, h=0.5,
                           eta_d=0.2)),
        ("dark_raman", dict(car=5.8995083521530995, g_c2=0.577661102615283,
                            h=0.2473761767002098, eta_d=0.09895047068008393)),
        ("demo", dict(car=14.42798063820345, g_c2=0.21833845909918997,
                      h=0.6233189563324011, eta_d=0.005654749571847543)),
    ])
    def test_model_predictions_pinned(self, symmetric, case, expected):
        raman = None
        if case == "demo":
            config = load_config("configs/demo.json")
        elif case == "symmetric":
            config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        else:
            config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF, dark=(2e-4, 2e-4, 5e-4))
            raman = (0.05, 0.05, 1.0)
        pred = model_predictions(build_pulse_model(config, raman=raman), config)
        assert {k: v for k, v in pred.items() if k != "joint"} == expected

    def test_values_are_figures(self, symmetric):
        # at beta = 0 the estimates are stats._figures of the tallies, to the bit
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        t = self._tallies(coinc_13=1_900)
        est = estimate(t, config)
        assert _figures(t.singles_1, t.coinc_12, t.coinc_13, t.acc_12, t.triples_123,
                        _herald_norm(config)) == (est.car.value, est.g_c2.value,
                                                  est.eta_d.value, est.h.value)

    def test_undefined_predictions_are_none(self, symmetric):
        # arm 2 never clicks: no 1-2 coincidences or accidentals, and no
        # norm for H; estimate refuses such tallies, the predictions are None
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=(0.5, 0.0, 0.8))
        pred = model_predictions(build_pulse_model(config), config)
        assert {k: v for k, v in pred.items() if k != "joint"} == {
            "car": None, "g_c2": None, "eta_d": 0.0, "h": None}

    def test_zero_accidentals_is_actionable(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        with pytest.raises(EstimationError, match="n_pulses"):
            estimate(self._tallies(acc_12=0), config)

    def test_error_scaling_with_counts(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        small = estimate(self._tallies(), config)
        big = estimate(
            self._tallies(
                gates=4_000_000, singles_1=80_000, singles_2=48_000, singles_3=48_000,
                coinc_12=8_000, coinc_13=8_000, coinc_23=800, acc_12=960, acc_13=960,
                triples_123=240,
            ),
            config,
        )
        assert big.car.value == pytest.approx(small.car.value, rel=1e-12)
        assert big.car.std_error == pytest.approx(small.car.std_error / 2.0, rel=1e-9)

    def test_zero_triples_reports_zero_with_scale(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        tallies = self._tallies(triples_123=0)
        est = estimate(tallies, config)
        assert est.g_c2.value == 0.0
        # one count of triple variance: error singles_1 / (coinc_13 * coinc_12)
        assert est.g_c2.std_error == pytest.approx(
            tallies.singles_1 / (tallies.coinc_13 * tallies.coinc_12), rel=1e-12, abs=0
        )

    def test_estimator_result_validation(self):
        with pytest.raises(ValueError):
            EstimatorResult(1.0, -0.1, 10)
