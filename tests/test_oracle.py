import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hsps.config import ConfigWarning, make_symmetric_config
from hsps import oracle
from hsps.oracle import (
    FrequencyGrid,
    OracleConditioningError,
    build_correlations,
    click_probs_from_pair_kernel,
    comparison_rows,
    gaussian_click_probs,
    make_click_grids,
    make_default_grids,
    numeric_counts,
    write_comparison_csv,
)
from hsps.montecarlo import build_pulse_model
from hsps.stats import _figures, _herald_norm, full_report

EFF = (0.5, 0.8, 0.8)

ORACLE_FIELDS = (
    "p1", "p2", "p3", "p12", "p13", "p23",
    "p123_accidental", "p123_pair_single", "p123_bunching",
)


def rel_err(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a)


class TestFrequencyGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            FrequencyGrid(1e4, 10.0, 16)

    def test_coverage_warning(self):
        grid = FrequencyGrid(1e4, 2.0, 64)
        with pytest.warns(ConfigWarning, match="truncation"):
            grid.check_coverage(1.0)

    @pytest.mark.parametrize("center, half_width", [
        (1.0, float("nan")), (1.0, float("inf")), (float("inf"), 1.0), (float("nan"), 1.0),
    ])
    def test_rejects_non_finite_extent(self, center, half_width):
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(center, half_width, 64)

    @pytest.mark.parametrize("n_points", [40.7, 64.0, True])
    def test_rejects_non_integer_points(self, n_points):
        with pytest.raises(ValueError, match="integer"):
            FrequencyGrid(1.0, 2.0, n_points)

    def test_accepts_numpy_integer_points(self):
        assert FrequencyGrid(1.0, 2.0, np.int64(40)).points().size == 40

    def test_points_and_spacing(self):
        grid = FrequencyGrid(100.0, 6.0, 33)
        pts = grid.points()
        assert pts[0] == 94.0 and pts[-1] == 106.0
        assert grid.spacing == pytest.approx(12.0 / 32)


SIZED_SIGMAS = (0.1, 0.3, 1.0, 3.0, 5.0)


class TestDefaultGridSizing:
    """make_default_grids sizes each band from the narrowest Gaussian it
    resolves, min(sigma_p, sigma_f / sqrt(2)), at POINTS_PER_WIDTH points
    per width and at most MAX_DEFAULT_POINTS points."""

    @pytest.mark.parametrize("sig_i", SIZED_SIGMAS)
    @pytest.mark.parametrize("sig_s", SIZED_SIGMAS)
    def test_spacing_resolves_the_narrowest_width(self, symmetric, sig_s, sig_i):
        config = symmetric(sig_s, sig_i, 0.02)
        sp = config.pump.bandwidth_sigma
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigWarning)
            grids = make_default_grids(config)
        for grid, filt in zip(grids, (config.signal_filter, config.idler_filter)):
            finest = min(sp, filt.sigma / math.sqrt(2.0))
            assert grid.band_center == filt.center_omega
            assert grid.half_width == 6.0 * max(sp, filt.sigma)
            assert grid.n_points < oracle.MAX_DEFAULT_POINTS
            assert grid.spacing <= finest / oracle.POINTS_PER_WIDTH
            # and no finer: one point fewer would miss the resolution
            assert 2.0 * grid.half_width / (grid.n_points - 2) > finest / oracle.POINTS_PER_WIDTH

    def test_cap_binds_with_one_warning(self, symmetric):
        # the cap binds below sigma' ~0.0498 and above ~28.4 (grids only)
        for sigma in (0.01, 30.0):
            config = symmetric(sigma, sigma, 0.02)
            with pytest.warns(ConfigWarning) as record:
                grids = make_default_grids(config)
            assert [grid.n_points for grid in grids] == [1024, 1024]
            assert len(record) == 1
            assert "fewer than 3 points per width" in str(record[0].message)

    def test_explicit_points_are_honoured(self, symmetric):
        config = symmetric(0.01, 3.0, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigWarning)
            grids = make_default_grids(config, 64)
        assert [grid.n_points for grid in grids] == [64, 64]
        assert [grid.half_width for grid in grids] == [6.0, 18.0]


class TestCorrelationMatrices:
    def test_zero_gain_zero_matrices(self, symmetric):
        config = symmetric(1.0, 1.0, 0.0)
        mats = build_correlations(config, *make_default_grids(config, 64))
        assert np.all(mats.cross == 0.0)
        assert np.all(mats.auto_signal == 0.0)

    def test_hermitian_and_psd(self, symmetric):
        config = symmetric(1.3, 0.6, 0.01, det_efficiencies=EFF)
        mats = build_correlations(config, *make_default_grids(config, 96))
        for kernel in (mats.auto_signal, mats.auto_idler):
            assert np.allclose(kernel, kernel.T, atol=1e-12 * np.max(np.abs(kernel)))
            eigens = np.linalg.eigvalsh(kernel)
            assert eigens.min() >= -1e-10 * eigens.max()

    def test_idler_trace_reproduces_herald_singles(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        grid_s, grid_i = make_default_grids(config)
        mats = build_correlations(config, grid_s, grid_i)
        counts, _ = full_report(config)
        p1 = config.detectors[0].efficiency * np.trace(mats.auto_idler) * mats.spacing_i
        assert rel_err(p1, counts.p1) < 1e-8

    @pytest.mark.parametrize("sig_s, sig_i", [(1.0, 1.0), (0.3, 2.0), (2.0, 0.3)])
    def test_boundary_leaks_match_the_dense_kernels(self, symmetric, sig_s, sig_i):
        # the factor route reads the diagonal and two edge rows; the dense
        # reference takes the largest edge entry over all four edges.  The
        # grids are narrow and off-centre, so the two edges leak unequally
        config = symmetric(sig_s, sig_i, 0.01, det_efficiencies=EFF)
        sp = config.pump.bandwidth_sigma
        grids = [FrequencyGrid(g.band_center + shift * sp, 3.0 * sp, 64)
                 for g, shift in zip(make_default_grids(config), (0.5, -1.0))]
        mats = build_correlations(config, *grids)

        def dense_leak(matrix):
            edges = np.concatenate([matrix[0], matrix[-1], matrix[:, 0], matrix[:, -1]])
            return np.max(np.abs(edges)) / np.max(np.abs(matrix))

        leaks = mats.boundary_leaks()
        assert max(leaks.values()) > oracle.BOUNDARY_LEAK  # the grids truncate
        for name in ("auto_signal", "auto_idler", "cross"):
            expected = dense_leak(getattr(mats, name))
            assert leaks[name] == pytest.approx(expected, rel=1e-12), name

    def test_narrow_grid_warns(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01)
        sp = config.pump.bandwidth_sigma
        tight_s = FrequencyGrid(config.signal_filter.center_omega, 3.0 * sp, 64)
        tight_i = FrequencyGrid(config.idler_filter.center_omega, 3.0 * sp, 64)
        with pytest.warns(ConfigWarning):
            build_correlations(config, tight_s, tight_i)


class TestNumericCounts:
    @pytest.mark.parametrize("sig_s", [0.1, 0.3, 1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("sig_i", [0.1, 0.3, 1.0, 2.0, 3.0, 5.0])
    def test_matches_closed_forms(self, symmetric, sig_s, sig_i):
        # on the sized default grids; the worst of these 36 is ~2.7e-12
        config = symmetric(sig_s, sig_i, 0.01, det_efficiencies=EFF)
        analytic, _ = full_report(config)
        numeric = numeric_counts(config)
        for field in ORACLE_FIELDS:
            assert rel_err(getattr(numeric, field), getattr(analytic, field)) <= 1e-11, field

    def test_matches_at_mixed_efficiencies(self, symmetric):
        config = symmetric(
            1.7, 0.4, 0.004, det_efficiencies=(0.2, 0.12, 0.17),
            eta_signal=0.24, eta_idler=0.52,
        )
        analytic, _ = full_report(config)
        numeric = numeric_counts(config)
        for field in ORACLE_FIELDS:
            assert rel_err(getattr(numeric, field), getattr(analytic, field)) < 1e-6, field

    def test_convergence_under_refinement(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        fine = numeric_counts(config, *(
            FrequencyGrid(g.band_center, g.half_width, 2 * g.n_points)
            for g in make_default_grids(config)
        ))
        coarse = numeric_counts(config)
        for field in ORACLE_FIELDS:
            assert rel_err(getattr(coarse, field), getattr(fine, field)) <= 1e-6, field

    def test_resolves_filter_center_misalignment(self):
        # the closed forms assume filter centers symmetric about the pump;
        # the oracle integrates the actual centers.  The true-coincidence
        # kernel then carries exactly exp(-delta^2/(2 sp^2 + ss^2 + si^2))
        # relative suppression, which the lab wavelengths of the demo
        # config (delta ~ 11 pump widths) make dramatic.
        import math

        from hsps.config import load_config

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigWarning)
            config = load_config("configs/demo.json")
            analytic, _ = full_report(config)
            numeric = numeric_counts(config)
        ratio = (numeric.p12 - numeric.p12_acc) / (analytic.p12 - analytic.p12_acc)
        sp = config.pump.bandwidth_sigma
        delta = config.center_mismatch_sigmas * sp
        expected = math.exp(
            -(delta**2) / (2 * sp**2 + config.signal_filter.sigma**2
                           + config.idler_filter.sigma**2)
        )
        assert ratio == pytest.approx(expected, rel=1e-9)
        # singles integrate the conjugate band unfiltered: no suppression
        assert rel_err(numeric.p1, analytic.p1) < 1e-8

    def test_lone_grid_is_rejected(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        grid_s, _ = make_default_grids(config, 64)
        with pytest.raises(ValueError, match="both grid_s and grid_i"):
            numeric_counts(config, grid_s=grid_s)

    def test_scaling_orders_in_gain(self, symmetric):
        low = numeric_counts(symmetric(1.0, 1.0, 1e-3, det_efficiencies=EFF))
        high = numeric_counts(symmetric(1.0, 1.0, 1e-2, det_efficiencies=EFF))
        assert high.p1 / low.p1 == pytest.approx(10.0, rel=1e-9)
        true_low = low.p12 - low.p12_acc
        true_high = high.p12 - high.p12_acc
        assert true_high / true_low == pytest.approx(10.0, rel=1e-9)
        assert high.p12_acc / low.p12_acc == pytest.approx(100.0, rel=1e-9)


class TestGaussianClickEngine:
    def test_vacuum_input_never_clicks(self, symmetric):
        config = symmetric(1.0, 1.0, 0.0, det_efficiencies=EFF)
        counts = gaussian_click_probs(config, order="all_order")
        assert counts.p1 == 0.0 and counts.p123 == 0.0

    def test_overflowing_gain_raises_instead_of_vacuum(self):
        # the leading lambda is ~757, so sinh^2 is inf and a cutoff relative
        # to it would drop every Schmidt pair
        config = make_symmetric_config(1.0, 1.0, 5e4)
        with pytest.raises(OracleConditioningError, match="overflows"):
            gaussian_click_probs(config, order="all_order")

    @pytest.mark.parametrize("r", [0.05, 0.4, 1.1])
    @pytest.mark.parametrize("eta", [0.2, 1.0])
    def test_single_mode_squeezed_vacuum(self, r, eta):
        # one-point kernel: a lossy TMSV whose signal mode is split by the
        # coupler into arms of unequal transmission.  The expected values are
        # exact rational arithmetic on the float inputs, so the
        # inclusion-exclusion below loses nothing to cancellation
        a2, a3 = 0.15, 0.35
        counts = click_probs_from_pair_kernel(
            np.array([[r]]), np.array([eta]), np.array([1.0]), (a2, a3)
        )
        n_bar = Fraction(math.sinh(r) ** 2)

        def q(*labels):
            # no click anywhere in the set: each arm sees its share of the
            # signal mode, and the arms add on that one mode
            tau_s = sum(Fraction(a) for lbl, a in ((2, a2), (3, a3)) if lbl in labels)
            tau_i = Fraction(eta) if 1 in labels else Fraction(0)
            return 1 / (1 + n_bar * (tau_s + tau_i - tau_s * tau_i))

        expected = {
            "p1": 1 - q(1),
            "p2": 1 - q(2),
            "p3": 1 - q(3),
            "p12": 1 - q(1) - q(2) + q(1, 2),
            "p13": 1 - q(1) - q(3) + q(1, 3),
            "p23": 1 - q(2) - q(3) + q(2, 3),
            "p123": 1 - q(1) - q(2) - q(3) + q(1, 2) + q(1, 3) + q(2, 3) - q(1, 2, 3),
        }
        for field, value in expected.items():
            assert getattr(counts, field) == pytest.approx(float(value), rel=1e-13, abs=0.0), field

    def test_padding_with_empty_modes_changes_nothing(self):
        # zero-amplitude signal rows and idler columns hold vacuum, so no
        # transmission given to them can move a click probability
        rng = np.random.default_rng(3)
        R = 0.2 * rng.standard_normal((6, 5))
        t_idler, t_signal = rng.uniform(0.1, 0.9, 5), rng.uniform(0.1, 0.9, 6)
        arms = tuple(rng.uniform(0.1, 0.5, 2))
        padded = np.zeros((9, 6))
        padded[:6, :5] = R
        pad_idler, pad_signal = rng.uniform(0.1, 0.9, 1), rng.uniform(0.1, 0.9, 3)
        base = click_probs_from_pair_kernel(R, t_idler, t_signal, arms)
        wide = click_probs_from_pair_kernel(
            padded,
            np.concatenate([t_idler, pad_idler]),
            np.concatenate([t_signal, pad_signal]),
            arms,
        )
        for field in ("p1", "p2", "p3", "p12", "p13", "p23", "p123"):
            assert rel_err(getattr(wide, field), getattr(base, field)) < 1e-9, field

    @pytest.mark.parametrize("tilted", [False, True])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sig_s, sig_i", [(0.3, 0.3), (1.0, 1.0), (2.0, 0.3), (3.0, 3.0)])
    def test_symmetric_kernel_route_matches_svd_route(self, symmetric, sig_s, sig_i, n, tilted):
        # on click grids R is a symmetric Hankel matrix and takes the eigh
        # route; a zero idler column with zero transmission adds a vacuum
        # mode and makes R non-square, which sends the same physics through
        # the SVD route.  Half the Schmidt coefficients of R are negative
        # eigenvalues, and R = |R| J with J the mirror of the grid, so only
        # a loss that is not mirror-symmetric (tilted) sees their signs; the
        # tilt of the signal band reaches both coupler arms
        config = symmetric(sig_s, sig_i, 0.02, det_efficiencies=EFF)
        grid_s, grid_i = make_click_grids(config, n)
        R, t_idler, t_signal, arms = oracle._engine_inputs(config, grid_s, grid_i)
        if tilted:
            t_idler = t_idler * np.linspace(1.0, 0.5, n)
            t_signal = t_signal * np.linspace(0.5, 1.0, n)
        assert np.array_equal(R, R.T)
        by_eigh = click_probs_from_pair_kernel(R, t_idler, t_signal, arms)
        by_svd = click_probs_from_pair_kernel(
            np.hstack([R, np.zeros((n, 1))]), np.append(t_idler, 0.0), t_signal, arms
        )
        for field in ("p1", "p2", "p3", "p12", "p13", "p23", "p123"):
            assert rel_err(getattr(by_eigh, field), getattr(by_svd, field)) <= 1e-14, field

    def test_svd_only_for_kernels_that_are_not_symmetric(self, symmetric, monkeypatch):
        config = symmetric(1.0, 1.0, 0.02, det_efficiencies=EFF)
        expected = gaussian_click_probs(config)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert gaussian_click_probs(config) == expected
        assert calls == []
        R = np.array([[0.3, 0.1], [np.nextafter(0.1, 1.0), 0.2]])
        assert not np.array_equal(R, R.T)
        click_probs_from_pair_kernel(R, np.ones(2), np.ones(2), (0.5, 0.5))
        assert calls == [(2, 2)]

    def test_arms_share_one_signal_band_decomposition(self, symmetric, monkeypatch):
        # one thin QR and one eigh per band, idler and signal; the two
        # eigvalsh are the herald pairs' log-dets and the third is c123,
        # since rho_23 is diagonal in the signal band's eigenbasis
        config = symmetric(1.0, 1.0, 0.02, det_efficiencies=(0.5, 0.6, 0.9))
        calls = {"qr": 0, "eigvalsh": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        gaussian_click_probs(config, order="all_order")
        assert calls == {"qr": 2, "eigvalsh": 3}

    @pytest.mark.parametrize("g_squared", [1.75, 2.25, 5.0])
    def test_high_gain_gives_valid_counts(self, symmetric, g_squared):
        # a symplectic-eigenvalue check that only measured rounding used to
        # raise OracleConditioningError at these gains on the default grids
        config = symmetric(1.0, 1.0, g_squared, det_efficiencies=EFF)
        counts = gaussian_click_probs(config, order="all_order")
        assert 0.0 < counts.p123 < counts.p23 < counts.p2 < 1.0
        assert 0.0 < counts.p123 < counts.p12 < counts.p1 < 1.0

    def test_low_gain_agrees_with_quadrature(self, symmetric):
        for sig_s, sig_i in [(1.0, 1.0), (2.0, 0.3)]:
            config = symmetric(sig_s, sig_i, 1e-3, det_efficiencies=EFF)
            state = gaussian_click_probs(config, order="low_gain")
            quad = numeric_counts(config)
            for field in ORACLE_FIELDS:
                assert rel_err(getattr(state, field), getattr(quad, field)) < 1e-4, field

    def test_low_gain_error_is_its_partner_quadrature(self, symmetric):
        # the low-gain route integrates each band's number kernel over the
        # other click grid; numeric_counts on the same click grids builds
        # the same moments with build_correlations' dedicated trapezoid
        # partner grid instead.  Worst error against the closed forms over
        # these configs: 2.6e-7 (at sigma' = (1, 1)) against 4.3e-9
        low, dedicated = [], []
        for sig_s, sig_i in [(0.3, 0.3), (1.0, 0.3), (1.0, 1.0), (0.3, 2.0), (2.0, 2.0)]:
            config = symmetric(sig_s, sig_i, 0.01, det_efficiencies=EFF)
            analytic, _ = full_report(config)
            grids = make_click_grids(config)
            for counts, worst in (
                (gaussian_click_probs(config, *grids, order="low_gain"), low),
                (numeric_counts(config, *grids), dedicated),
            ):
                worst.append(max(
                    rel_err(getattr(counts, f), getattr(analytic, f)) for f in ORACLE_FIELDS
                ))
        assert max(low) >= 1e-7
        assert max(dedicated) <= 1e-8
        assert 10.0 * max(dedicated) <= max(low)

    def test_all_order_deviation_scales_as_gain_squared(self, symmetric):
        gains = np.array([1e-4, 1e-3, 1e-2])
        deltas_p1 = []
        deltas_p12 = []
        for g2 in gains:
            config = symmetric(1.0, 1.0, float(g2), det_efficiencies=EFF)
            grids = make_click_grids(config, 96)
            full = gaussian_click_probs(config, *grids, order="all_order")
            lead = gaussian_click_probs(config, *grids, order="low_gain")
            deltas_p1.append(abs(full.p1 - lead.p1))
            deltas_p12.append(abs(full.p12 - lead.p12))
        for deltas in (deltas_p1, deltas_p12):
            slope = np.polyfit(np.log(gains), np.log(deltas), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_state_is_physical(self, symmetric):
        # each Schmidt pair is a pure two-mode squeezer and every loss keeps
        # the state physical, so the clicks are probabilities
        config = symmetric(0.5, 1.5, 0.02, det_efficiencies=EFF)
        counts = gaussian_click_probs(config, order="all_order")
        assert 0.0 < counts.p1 < 1.0

    def test_click_triple_sits_below_count_triple(self, symmetric):
        # threshold detectors cannot double-count herald photons, so the
        # click triple stays below the count-currency triple at high
        # herald transmission
        config = symmetric(1.0, 1.0, 0.01)
        clicks = gaussian_click_probs(config, order="all_order")
        counts = gaussian_click_probs(config, order="low_gain")
        assert clicks.p123 < counts.p123
        assert clicks.p23 > clicks.p123

    def test_lone_grid_is_rejected(self, symmetric):
        config = symmetric(1.0, 1.0, 0.01, det_efficiencies=EFF)
        _, grid_i = make_click_grids(config, 64)
        with pytest.raises(ValueError, match="both grid_s and grid_i"):
            gaussian_click_probs(config, grid_i=grid_i)

    @pytest.mark.parametrize("sig_i", [0.3, 2.0, 3.0])
    def test_faint_triples_are_valid_counts(self, sig_i):
        # p123 is ~1e-35 here; subtracting vacuum probabilities near one
        # used to leave it at -2e-16 .. -3e-15, a false model-validity error
        config = make_symmetric_config(0.1, sig_i, 1e-5, det_efficiencies=(0.05, 0.05, 0.05))
        counts = gaussian_click_probs(config)
        assert 0.0 <= counts.p123 <= counts.p23 <= counts.p2
        if sig_i == 3.0:
            model = build_pulse_model(config, source="gaussian_oracle")
            assert np.all(model.pattern_probs >= 0.0)
            assert model.pattern_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_every_config_of_the_design_sweep_is_valid(self):
        # 375 energy-matched configs from narrow to broad filters, low to
        # high gain, and three efficiency sets; CountProbabilities rejects
        # any output outside [0, 1] or below the accidental level
        sigmas = (0.1, 0.3, 1.0, 2.0, 3.0)
        gains = (1e-5, 1e-4, 1e-3, 1e-2, 5e-2)
        efficiencies = ((0.5, 0.8, 0.8), (1.0, 1.0, 1.0), (0.05, 0.05, 0.05))
        for sig_s, sig_i, g2, eff in itertools.product(sigmas, sigmas, gains, efficiencies):
            config = make_symmetric_config(sig_s, sig_i, g2, det_efficiencies=eff)
            counts = gaussian_click_probs(config)
            assert counts.p123 <= min(counts.p12, counts.p13, counts.p23)


class TestContractionsMatchEinsumReference:
    """The BLAS contractions against the plain index sums they replace, on
    small non-square matrices; the low-gain state route runs end to end on
    a 40 x 32 click grid."""

    def test_quadrature_contraction(self, symmetric):
        # non-square factors with more partner nodes than points (signal)
        # and fewer (idler), so both Gram sides are exercised
        rng = np.random.default_rng(5)
        c = 0.1 * rng.standard_normal((7, 4))
        l_s = 0.1 * rng.standard_normal((7, 11))
        l_i = 0.1 * rng.standard_normal((4, 3))
        a_i = l_i @ l_i.T
        ds, di = 0.3, 0.2
        e1, e2, e3 = EFF
        for factor in (l_s, l_s[:, :5]):
            a_s = factor @ factor.T
            mats = oracle.CorrelationMatrices(factor, l_i, c, spacing_s=ds, spacing_i=di)
            counts = oracle._counts_from_matrices(symmetric(det_efficiencies=EFF), mats)
            p1 = e1 * np.trace(a_i) * di
            p2 = 0.5 * e2 * np.trace(a_s) * ds
            p3 = 0.5 * e3 * np.trace(a_s) * ds
            cross_sq = np.sum(c * c) * ds * di
            bunch23 = 0.25 * e2 * e3 * np.sum(a_s * a_s) * ds * ds
            w4 = 0.5 * e1 * e2 * e3 * np.einsum("kl,ml,km->", c, c, a_s) * ds * ds * di
            expected = dict(
                p1=p1, p2=p2, p3=p3,
                p12=p1 * p2 + 0.5 * e1 * e2 * cross_sq,
                p13=p1 * p3 + 0.5 * e1 * e3 * cross_sq,
                p23=p2 * p3 + bunch23,
                p123_bunching=p1 * bunch23 + w4,
            )
            for field, value in expected.items():
                assert getattr(counts, field) == pytest.approx(value, rel=1e-12, abs=0), field

    @pytest.mark.parametrize("sig_s, sig_i", [(1.0, 1.0), (0.3, 2.0)])
    def test_numeric_counts_match_dense_kernels(self, symmetric, sig_s, sig_i):
        # the factor norms against the dense contraction of the kernels
        # build_correlations itself assembles
        config = symmetric(sig_s, sig_i, 0.01, det_efficiencies=EFF)
        grid_s, grid_i = make_default_grids(config)
        mats = build_correlations(config, grid_s, grid_i)
        a_s, a_i, c = mats.auto_signal, mats.auto_idler, mats.cross
        ds, di = mats.spacing_s, mats.spacing_i
        e1, e2, e3 = EFF
        p1 = e1 * np.trace(a_i) * di
        p2 = 0.5 * e2 * np.trace(a_s) * ds
        p3 = 0.5 * e3 * np.trace(a_s) * ds
        cross_sq = np.sum(c * c) * ds * di
        bunch23 = 0.25 * e2 * e3 * np.sum(a_s * a_s) * ds * ds
        w4 = 0.5 * e1 * e2 * e3 * np.sum((c @ c.T) * a_s) * ds * ds * di
        expected = dict(
            p1=p1, p2=p2, p3=p3,
            p12=p1 * p2 + 0.5 * e1 * e2 * cross_sq,
            p13=p1 * p3 + 0.5 * e1 * e3 * cross_sq,
            p23=p2 * p3 + bunch23,
            p123_bunching=p1 * bunch23 + w4,
        )
        counts = numeric_counts(config, grid_s, grid_i)
        for field, value in expected.items():
            assert getattr(counts, field) == pytest.approx(value, rel=1e-13, abs=0), field

    def test_low_gain_contraction(self, symmetric):
        config = symmetric(
            0.7, 1.6, 0.01, eta_signal=0.7, eta_idler=0.4, det_efficiencies=(0.5, 0.8, 0.6)
        )
        grid_s, grid_i = make_click_grids(config, 32)
        # unequal point counts keep R non-square, so a transposed band shows
        grid_s = FrequencyGrid(grid_s.band_center, grid_s.half_width, 40)
        counts = gaussian_click_probs(config, grid_s, grid_i, order="low_gain")
        R, t1, t_signal, (a2, a3) = oracle._engine_inputs(config, grid_s, grid_i)
        t2, t3 = a2 * t_signal, a3 * t_signal
        n_s = R @ R.T
        expected = dict(
            p1=t1 @ np.diag(R.T @ R),
            p2=t2 @ np.diag(n_s),
            p3=t3 @ np.diag(n_s),
        )
        bunch23 = t2 @ (n_s * n_s) @ t3
        w4 = 2.0 * np.einsum("k,m,l,kl,ml,km->", t2, t3, t1, R, R, n_s)
        expected["p12"] = expected["p1"] * expected["p2"] + t2 @ (R * R) @ t1
        expected["p13"] = expected["p1"] * expected["p3"] + t3 @ (R * R) @ t1
        expected["p23"] = expected["p2"] * expected["p3"] + bunch23
        expected["p123_bunching"] = expected["p1"] * bunch23 + w4
        for field, value in expected.items():
            assert getattr(counts, field) == pytest.approx(value, rel=1e-12, abs=0), field


class TestComparisonReport:
    def test_rows_and_csv(self, symmetric, tmp_path):
        config = symmetric(1.0, 1.0, 1e-3, det_efficiencies=EFF)
        rows = comparison_rows(config, include_gaussian=True)
        quantities = {row["quantity"] for row in rows}
        assert "p1" in quantities and "p1/gaussian_low_gain" in quantities
        assert max(row["rel_err"] for row in rows) < 1e-4
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "sigma_s_prime,sigma_i_prime,g_squared,quantity,analytic,numeric,rel_err"


class TestClosedFormGapsToExactState:
    """Relative gaps of the closed-form figures to the same figures of the
    exact Gaussian state's threshold clicks, on energy-matched setups with
    sigma' = (1, 1) and arm efficiencies 0.8.  Each gap is checked at 128 and
    256 click points, so grid doubling is part of the check."""

    @staticmethod
    def gaps(eta_1, g_squared):
        """(CAR, g_c2, H) gaps, exact / closed form - 1, on 128 and 256 points."""
        config = make_symmetric_config(1.0, 1.0, g_squared, det_efficiencies=(eta_1, 0.8, 0.8))
        _, closed = full_report(config)
        for n in (128, 256):
            c = gaussian_click_probs(config, *make_click_grids(config, n), order="all_order")
            car, g_c2, _, h = _figures(c.p1, c.p12, c.p13, c.p12_acc, c.p123, _herald_norm(config))
            yield car / closed.car - 1, g_c2 / closed.g_c2_exact - 1, h / closed.heralding_eff - 1

    @pytest.mark.parametrize("eta_1, gap", [(0.2, -0.051909), (0.5, -0.12970), (0.9, -0.23341)])
    def test_heralded_g2_gap_grows_with_herald_efficiency(self, eta_1, gap):
        # E[N1 N2 N3] counts a two-photon herald twice, a threshold click
        # once: the gap stays at low gain and grows with the herald efficiency
        for _, g_c2_gap, _ in self.gaps(eta_1, 1e-5):
            assert g_c2_gap == pytest.approx(gap, rel=1e-4)

    def test_car_and_h_gaps_are_first_order_in_gain(self):
        (low_128, low_256), (high_128, high_256) = (list(self.gaps(0.5, g)) for g in (1e-3, 2e-3))
        for low, high in ((low_128, high_128), (low_256, high_256)):
            assert low[0] == pytest.approx(1.2264e-3, rel=1e-4)
            assert high[0] == pytest.approx(2.4104e-3, rel=1e-4)
            assert low[2] == pytest.approx(2.5834e-3, rel=1e-4)
            assert high[2] == pytest.approx(5.1425e-3, rel=1e-4)
            # doubling the gain doubles both gaps, to within a few percent
            assert high[0] / low[0] == pytest.approx(2.0, rel=0.03)
            assert high[2] / low[2] == pytest.approx(2.0, rel=0.03)
