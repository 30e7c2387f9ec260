import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsps.config import ModelValidityError, ConfigWarning, load_config, make_symmetric_config
from hsps import stats
from hsps.stats import (
    car,
    collection_efficiency,
    full_report,
    heralded_g2_approx,
    pair_rate,
    unconditional_g2,
)

# frozen by direct evaluation, cross-checked against the quadrature oracle
P1_SYM = 0.044428829381583664
P2_SYM = 0.022214414690791832
P12_SYM = 0.012094167785504852
TRIPLE_ACC = 2.192474849998632e-05
TRIPLE_PS = 0.0004934802200544679
TRIPLE_BUN = 0.0004486463321618562
GC2_EXACT_SYM = 0.29282829355690737
GC2_APPROX_SYM = 0.28437805358335927
GS2_03 = 1.978231976089037
GS2_1 = 1.8164965809277263


def full_report_from_sigma(sig_s, sig_i, g2, **kwargs):
    return full_report(make_symmetric_config(sig_s, sig_i, g2, **kwargs))


def two_pair_factor(sig_s, sig_i):
    """xi' = sqrt(2) sig_s / sqrt(4 + 2 sig_i^2 + sig_s^2)."""
    return math.sqrt(2.0) * sig_s / math.sqrt(4.0 + 2.0 * sig_i**2 + sig_s**2)


def recovered_two_pair_factor(counts, figures):
    """xi' read back from the triple terms: bunching / (g_s2 - 1) is the
    accidental term plus xi' times pair_single / xi."""
    excess = counts.p123_bunching / (figures.g_s2 - 1.0) - counts.p123_accidental
    return excess * figures.heralding_eff / counts.p123_pair_single


class TestSingles:
    def test_no_gain_no_counts(self):
        counts, _ = full_report_from_sigma(1.0, 1.0, 0.0)
        assert counts.p1 == counts.p2 == counts.p3 == 0.0

    def test_symmetric_fixture(self):
        counts, _ = full_report_from_sigma(1.0, 1.0, 0.01)
        assert counts.p1 == pytest.approx(P1_SYM, rel=1e-12)
        assert counts.p2 == pytest.approx(P2_SYM, rel=1e-12)

    def test_signal_is_half_of_herald(self):
        # the 50/50 split halves the per-arm rate at equal efficiencies
        counts, _ = full_report_from_sigma(
            1.3, 1.3, 0.007, eta_signal=0.8, eta_idler=0.8, det_efficiencies=(0.3, 0.3, 0.3)
        )
        assert counts.p2 == pytest.approx(counts.p1 / 2.0, rel=1e-12)

    def test_linear_in_bandwidth(self):
        narrow, _ = full_report_from_sigma(1.0, 1.0, 0.01)
        broad, _ = full_report_from_sigma(1.0, 2.0, 0.01)
        assert broad.p1 == pytest.approx(2 * narrow.p1, rel=1e-12)

    def test_probability_guard(self):
        # sqrt(2) pi g2 sigma_i' > 1 on the herald alone
        with pytest.raises(ModelValidityError, match="p1"):
            full_report_from_sigma(1.0, 8.0, 0.03)


class TestCollectionFactors:
    def test_values(self):
        assert collection_efficiency(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert collection_efficiency(0.3, 0.3) == pytest.approx(0.2031856384435789, rel=1e-12)

    @pytest.mark.parametrize(
        "sigma, expected", [(1.0, 0.5345224838248488), (0.3, 0.20531577324874647)]
    )
    def test_two_pair_values(self, sigma, expected):
        assert two_pair_factor(sigma, sigma) == pytest.approx(expected, rel=1e-12)
        counts, figures = full_report_from_sigma(sigma, sigma, 0.01)
        assert recovered_two_pair_factor(counts, figures) == pytest.approx(expected, rel=1e-12)

    def test_broad_signal_limits(self):
        assert collection_efficiency(1e6, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert two_pair_factor(1e6, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-9)
        config = make_symmetric_config(40.0, 0.2, 1e-6)
        with pytest.warns(ConfigWarning, match="two-pair"):
            counts, figures = full_report(config)
        assert recovered_two_pair_factor(counts, figures) == pytest.approx(
            two_pair_factor(40.0, 0.2), rel=1e-9
        )


class TestCoincidence:
    def test_degenerate_collection_is_accidental(self):
        counts = stats._assemble_counts(0.01, 0.02, 0.02, 0.0, 0.0, 0.0, 0.0)
        assert counts.p12 == pytest.approx(0.0002, rel=1e-12)
        assert counts.p12 == counts.p12_acc

    def test_symmetric_fixture(self):
        counts, _ = full_report_from_sigma(1.0, 1.0, 0.01)
        assert counts.p12 == pytest.approx(P12_SYM, rel=1e-12)

    @given(
        g2=st.floats(1e-6, 0.02),
        sig_s=st.floats(0.2, 2.5),
        sig_i=st.floats(0.2, 2.5),
        eta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_below_accidental(self, g2, sig_s, sig_i, eta):
        counts, _ = full_report_from_sigma(sig_s, sig_i, g2, det_efficiencies=(eta, eta, eta))
        assert counts.p12 >= counts.p1 * counts.p2
        assert counts.p13 >= counts.p1 * counts.p3


class TestCar:
    def test_fixture_values(self):
        assert car(0.01, 1.0, 1.0) == 26.0
        assert car(0.005, 0.3, 0.3) == pytest.approx(9.256880733944952, rel=1e-12)

    def test_excess_halves_when_pair_rate_doubles(self):
        excess_1 = car(0.01, 0.7, 1.3) - 1.0
        excess_2 = car(0.02, 0.7, 1.3) - 1.0
        assert excess_1 == pytest.approx(2 * excess_2, rel=1e-12)

    def test_diverges_at_zero_pair_rate(self):
        with pytest.raises(ZeroDivisionError):
            car(0.0, 1.0, 1.0)

    def test_argmax_of_signal_bandwidth(self):
        # golden-section search against the closed-form optimum sqrt(2 + s_i^2)
        sig_i = 0.8
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.1, 10.0
        for _ in range(80):
            a = hi - inv_phi * (hi - lo)
            b = lo + inv_phi * (hi - lo)
            if car(0.01, a, sig_i) < car(0.01, b, sig_i):
                lo = a
            else:
                hi = b
        assert (lo + hi) / 2 == pytest.approx(math.sqrt(2.0 + sig_i**2), abs=1e-6)


class TestBandAutocorrelation:
    def test_single_mode_limit(self):
        assert unconditional_g2(0.0) == pytest.approx(2.0, rel=1e-12)

    def test_anchor_values(self):
        assert unconditional_g2(0.3) == pytest.approx(GS2_03, rel=1e-12)
        assert unconditional_g2(1.0) == pytest.approx(GS2_1, rel=1e-12)


class TestTripleCoincidence:
    # _assemble_counts is the one assembly of the closed form and the
    # leading-order oracles; these cases feed it directly
    def test_poissonian_signal_kills_bunching(self):
        counts = stats._assemble_counts(
            0.01, 0.005, 0.005, t12=0.0025, t13=0.0025, bunch23=0.0, w4=0.0
        )
        assert counts.p123_bunching == 0.0
        assert counts.p23 == counts.p2 * counts.p3

    def test_symmetric_fixture_term_by_term(self):
        counts, _ = full_report_from_sigma(1.0, 1.0, 0.01)
        assert counts.p123_accidental == pytest.approx(TRIPLE_ACC, rel=1e-12)
        assert counts.p123_pair_single == pytest.approx(TRIPLE_PS, rel=1e-12)
        assert counts.p123_bunching == pytest.approx(TRIPLE_BUN, rel=1e-12)

    def test_zero_collection_degenerates_to_bunched_accidentals(self):
        p1, p2, p3 = 0.01, 0.004, 0.005
        counts = stats._assemble_counts(
            p1, p2, p3, t12=0.0, t13=0.0, bunch23=0.7 * p2 * p3, w4=0.0
        )
        assert counts.p123 == pytest.approx(1.7 * p1 * p2 * p3, rel=1e-12)


class TestHeraldedG2:
    def test_symmetric_fixture(self):
        _, figures = full_report_from_sigma(1.0, 1.0, 0.01)
        assert figures.g_c2_exact == pytest.approx(GC2_EXACT_SYM, rel=1e-12)

    def test_invariant_under_herald_efficiency(self):
        # P1 appears once up and once down: any eta_1 rescaling cancels
        _, base = full_report_from_sigma(1.0, 1.0, 0.01)
        _, scaled = full_report_from_sigma(1.0, 1.0, 0.01, det_efficiencies=(0.37, 1.0, 1.0))
        assert scaled.g_c2_exact == pytest.approx(base.g_c2_exact, rel=1e-12)

    def test_ideal_source_limit(self):
        _, figures = full_report_from_sigma(1.0, 1.0, 1e-8)
        assert figures.g_c2_exact < 1e-3

    def test_approx_fixtures(self):
        assert heralded_g2_approx(GS2_1, 1e9) == pytest.approx(0.0, abs=1e-8)
        assert heralded_g2_approx(GS2_1, 1.0) == pytest.approx(GS2_1, rel=1e-12)
        assert heralded_g2_approx(GS2_1, 13.5) == pytest.approx(0.25914354515292665, rel=1e-12)


class TestHeraldingAndPairRate:
    def test_arithmetic(self):
        _, figures = full_report_from_sigma(1.0, 1.0, 0.01)
        assert (figures.eta_d, figures.heralding_eff) == (0.25, 0.5)

    def test_narrowband_value(self):
        _, figures = full_report_from_sigma(
            0.3, 0.3, 0.01, eta_signal=0.4, det_efficiencies=(1.0, 0.9, 0.9)
        )
        assert figures.heralding_eff == pytest.approx(0.2031856384435789, rel=1e-12)

    def test_h_ignores_efficiencies(self):
        _, lossy = full_report_from_sigma(
            1.0, 1.0, 0.01, eta_signal=0.1, det_efficiencies=(1.0, 0.2, 1.0)
        )
        _, lossless = full_report_from_sigma(1.0, 1.0, 0.01)
        assert lossy.heralding_eff == lossless.heralding_eff
        assert lossy.eta_d == pytest.approx(0.5 * 0.1 * 0.2 * 0.5, rel=1e-12)

    def test_pair_rate(self):
        assert pair_rate(P1_SYM, 1.0, 1.0, 0.5) == pytest.approx(P2_SYM, rel=1e-12)
        with pytest.raises(ZeroDivisionError):
            pair_rate(0.01, 0.0, 1.0, 0.5)

    def test_pair_rate_invariant_under_herald_rescaling(self):
        base = pair_rate(P1_SYM, 1.0, 1.0, 0.5)
        scaled = pair_rate(P1_SYM * 0.2, 0.2, 1.0, 0.5)
        assert scaled == pytest.approx(base, rel=1e-12)


# every full_report field of the shipped configs, frozen at 1e-14: a change
# to any closed form (a center-mismatch factor, say) shows up here
SHIPPED_REPORTS = {
    "configs/demo.json": {
        "car": 15.224152792587587,
        "eta_d": 0.0056914434325743045,
        "g_c2_approx": 0.2007684591941969,
        "g_c2_exact": 0.20901450069365823,
        "g_s2": 1.5801613785069453,
        "heralding_eff": 0.6273636940668325,
        "p1": 0.0029376410360451273,
        "p12": 1.789484228872904e-05,
        "p123": 3.2277591169930246e-08,
        "p123_accidental": 6.662825382887772e-10,
        "p123_bunching": 1.2656699376336155e-08,
        "p123_pair_single": 1.895460925530531e-08,
        "p12_acc": 1.1754245068692277e-06,
        "p13": 2.5351026575699478e-05,
        "p13_acc": 1.6651847180647396e-06,
        "p2": 0.00040012530205244966,
        "p23": 3.5839434473413563e-07,
        "p3": 0.0005668441779076371,
        "p_pair": 0.02812834756128797,
    },
    "configs/symmetric.json": {
        "car": 15.234674751477277,
        "eta_d": 0.03763478160456619,
        "g_c2_approx": 0.20067977922273167,
        "g_c2_exact": 0.20892195055663737,
        "g_s2": 1.5805179725692002,
        "heralding_eff": 0.6272463600761031,
        "p1": 0.008958895840817436,
        "p12": 0.0003608523400419856,
        "p123": 4.3018603878551634e-06,
        "p123_accidental": 8.871679953799194e-08,
        "p123_bunching": 1.6874340154865215e-06,
        "p123_pair_single": 2.52570957283065e-06,
        "p12_acc": 2.3686251654765026e-05,
        "p13": 0.0005112074817261463,
        "p13_acc": 3.355552317758379e-05,
        "p2": 0.0026438806830244186,
        "p23": 1.565131447334934e-05,
        "p3": 0.003745497634284593,
        "p_pair": 0.028097174032268378,
    },
}


class TestFullReport:
    @pytest.mark.parametrize("path", sorted(SHIPPED_REPORTS))
    def test_shipped_configs_frozen(self, path):
        doc = stats.report_to_dict(*full_report(load_config(path)))
        assert doc == pytest.approx(SHIPPED_REPORTS[path], rel=1e-14, abs=0)

    def test_symmetric_regression(self):
        counts, figures = full_report_from_sigma(1.0, 1.0, 0.01)
        assert counts.p1 == pytest.approx(P1_SYM, rel=1e-9)
        assert counts.p12 == pytest.approx(P12_SYM, rel=1e-9)
        assert counts.p123 == pytest.approx(9.640513007163104e-4, rel=1e-9)
        assert figures.car == pytest.approx(12.253953951963826, rel=1e-9)
        assert figures.g_c2_exact == pytest.approx(GC2_EXACT_SYM, rel=1e-9)
        assert figures.g_c2_approx == pytest.approx(GC2_APPROX_SYM, rel=1e-9)
        assert figures.heralding_eff == pytest.approx(0.5, rel=1e-12)

    def test_narrowband_regression(self):
        counts, figures = full_report_from_sigma(0.3, 0.3, 0.01)
        assert counts.p1 == pytest.approx(P1_SYM * 0.3, rel=1e-9)
        assert figures.heralding_eff == pytest.approx(0.2031856384435789, rel=1e-9)
        assert figures.g_s2 == pytest.approx(GS2_03, rel=1e-9)

    def test_asymmetric_regression(self):
        counts, figures = full_report_from_sigma(
            2.0, 0.5, 0.004, det_efficiencies=(0.2, 0.12, 0.17)
        )
        # independent composition of the closed forms
        p1 = math.sqrt(2) * math.pi * 0.004 * 0.2 * 0.5
        xi = 2.0 / math.sqrt(2 + 4 + 0.25)
        assert counts.p1 == pytest.approx(p1, rel=1e-9)
        assert figures.p_pair == pytest.approx(p1 * xi / 0.2, rel=1e-9)
        assert figures.heralding_eff == pytest.approx(xi, rel=1e-9)

    @given(
        g2=st.floats(1e-5, 0.02),
        sig_s=st.floats(0.2, 2.5),
        sig_i=st.floats(0.2, 2.5),
        eta_s=st.floats(0.05, 1.0),
        eta_1=st.floats(0.05, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_car_identity(self, g2, sig_s, sig_i, eta_s, eta_1):
        # CAR from the bandwidth formula equals p12 / (p1 p2) identically
        _, figures = full_report_from_sigma(
            sig_s, sig_i, g2, eta_signal=eta_s, eta_idler=eta_s,
            det_efficiencies=(eta_1, 0.8, 0.8),
        )
        assert car(figures.p_pair, sig_s, sig_i) == pytest.approx(figures.car, rel=1e-12)

    def test_heralding_monotonic_in_bandwidths(self):
        # H rises with the signal bandwidth and falls with the idler bandwidth
        grid = [0.2, 0.5, 1.0, 1.7, 2.6]
        for sig_i in grid:
            values = [collection_efficiency(s, sig_i) for s in grid]
            assert values == sorted(values)
        for sig_s in grid:
            values = [collection_efficiency(sig_s, i) for i in grid]
            assert values == sorted(values, reverse=True)

    def test_heralded_g2_monotone_decreasing_in_bandwidths(self):
        # in the idler direction the CAR peaks at sigma_i = sqrt(2+sigma_s^2)
        # and falls beyond, which turns g_c2 back up: monotone decrease holds
        # below that turnover only
        grid = [0.3, 0.7, 1.2, 2.0]
        for sig_i in grid:
            values = [
                heralded_g2_approx(unconditional_g2(s), car(0.02, s, sig_i)) for s in grid
            ]
            assert values == sorted(values, reverse=True)
        for sig_s in grid:
            turnover = math.sqrt(2.0 + sig_s**2)
            values = [
                heralded_g2_approx(unconditional_g2(sig_s), car(0.02, sig_s, i))
                for i in grid
                if i <= turnover
            ]
            assert len(values) >= 3
            assert values == sorted(values, reverse=True)
        # past the turnover the decrease genuinely stops
        low = heralded_g2_approx(unconditional_g2(0.3), car(0.02, 0.3, 1.2))
        high = heralded_g2_approx(unconditional_g2(0.3), car(0.02, 0.3, 2.0))
        assert high > low

    def test_approximation_quality_over_grid(self):
        # the shortcut formula tracks the exact ratio through xi'/xi ~ 1;
        # that degrades toward broad-signal/narrow-idler corners, where the
        # worst case over this grid is 1 - g_s2 / (1 + (g_s2-1) xi'/xi),
        # about 7.5 percent at (2.0, 0.3).  Within 5 percent holds on the
        # symmetric diagonal; the verified grid-wide bound is 7.5 percent.
        grid = [0.3, 0.6, 1.0, 1.5, 2.0]
        for sig_s in grid:
            for sig_i in grid:
                for g2 in (1e-3, 0.02):
                    _, figures = full_report_from_sigma(sig_s, sig_i, g2)
                    ratio = figures.g_c2_approx / figures.g_c2_exact
                    assert 0.925 <= ratio <= 1.05
                    if sig_s == sig_i:
                        assert 0.95 <= ratio <= 1.05

    def test_approximation_worst_corner_is_understood(self):
        # closed-form prediction of the large-CAR limit of approx/exact
        sig_s, sig_i = 2.0, 0.3
        g_s2 = unconditional_g2(sig_s)
        xi2 = two_pair_factor(sig_s, sig_i)
        ratio_limit = g_s2 / (1.0 + (g_s2 - 1.0) * xi2 / collection_efficiency(sig_s, sig_i))
        _, figures = full_report_from_sigma(sig_s, sig_i, 1e-5)
        assert figures.g_c2_approx / figures.g_c2_exact == pytest.approx(
            ratio_limit, abs=1e-3
        )

    def test_model_validity_error_propagates(self):
        # sqrt(2) pi g2 sigma_i' > 1 cannot be a probability
        with pytest.raises(ModelValidityError):
            full_report_from_sigma(8.0, 8.0, 0.03, det_efficiencies=(1.0, 1.0, 1.0))

    def test_report_dict_round_trip(self):
        counts, figures = full_report_from_sigma(1.0, 1.0, 0.01)
        doc = stats.report_to_dict(counts, figures)
        assert doc["p1"] == counts.p1
        assert doc["car"] == figures.car
        assert set(doc) >= {"p1", "p12", "p123", "car", "g_c2_exact", "heralding_eff", "p_pair"}


class TestFigures:
    """stats._figures, the one definition of CAR, g_c2, eta_D and H."""

    COUNTS = dict(n1=20_000, c12=2_000, c13=1_500, a12=240, t123=60, herald_norm=0.4)

    @pytest.mark.parametrize("zero, undefined", [
        ("a12", {"car"}),
        ("c12", {"g_c2"}),
        ("c13", {"g_c2"}),
        ("n1", {"eta_d", "h"}),
        ("herald_norm", {"h"}),
    ])
    def test_zero_denominator_is_none(self, zero, undefined):
        figures = stats._figures(**{**self.COUNTS, zero: 0})
        named = dict(zip(("car", "g_c2", "eta_d", "h"), figures))
        assert {name for name, value in named.items() if value is None} == undefined

    def test_ratios(self):
        car, g_c2, eta_d, h = stats._figures(**self.COUNTS)
        assert (car, g_c2, eta_d, h) == (2_000 / 240, 60 * 20_000 / (1_500 * 2_000),
                                         1_760 / 20_000, 1_760 / 20_000 / 0.4)
