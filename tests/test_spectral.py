import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsps.config import GainParameter, make_symmetric_config
from hsps.spectral import bogoliubov_kernels, filter_amplitude, pair_kernel_leading, pump_envelope

CFG = make_symmetric_config(1.0, 1.0, 0.01)
PUMP = CFG.pump
W0 = PUMP.center_omega
SP = PUMP.bandwidth_sigma


class TestPumpEnvelope:
    def test_unity_on_conservation_line(self):
        assert pump_envelope(W0 + 3.7, W0 - 3.7, PUMP) == pytest.approx(1.0, abs=1e-14)

    def test_two_sigma_detuning(self):
        # exponent -(2 sigma)^2 / (4 sigma^2) = -1
        value = pump_envelope(W0 + 2.0 * SP, W0, PUMP)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-12)

    @given(a=st.floats(-8, 8), b=st.floats(-8, 8))
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        va = pump_envelope(W0 + a * SP, W0 + b * SP, PUMP)
        vb = pump_envelope(W0 + b * SP, W0 + a * SP, PUMP)
        assert va == vb
        assert 0.0 < va <= 1.0


class TestFilterAmplitude:
    def test_peak_at_center(self):
        filt = CFG.signal_filter
        assert filter_amplitude(filt.center_omega, filt) == pytest.approx(1.0, abs=1e-14)

    def test_one_sigma_offset(self):
        filt = CFG.signal_filter
        value = filter_amplitude(filt.center_omega + filt.sigma, filt)
        assert value == pytest.approx(math.exp(-0.5), rel=1e-12)

    @given(delta=st.floats(0, 8))
    @settings(max_examples=100)
    def test_even_about_center(self, delta):
        filt = CFG.idler_filter
        up = filter_amplitude(filt.center_omega + delta * filt.sigma, filt)
        down = filter_amplitude(filt.center_omega - delta * filt.sigma, filt)
        assert up == pytest.approx(down, rel=1e-12)
        assert 0.0 < up <= 1.0


class TestBogoliubovKernels:
    def test_zero_gain_kills_pair_kernel(self):
        k = bogoliubov_kernels(W0 + SP, W0 - SP, GainParameter(0.0), PUMP)
        assert k.h2 == 0.0
        assert k.h1_smooth == 0.0
        assert k.identity_weight == 1.0

    def test_leading_pair_term_on_ridge(self):
        g2 = 0.01
        k = bogoliubov_kernels(W0 + 5 * SP, W0 - 5 * SP, GainParameter(g2), PUMP, n_terms=1)
        expected = math.sqrt(g2) / (2.0 * math.sqrt(math.pi) * SP)
        assert k.h2 == pytest.approx(expected, rel=1e-12)

    def test_low_gain_pair_amplitude_convention(self):
        # the closed-form statistics use the (G / sigma_p) phi normalization
        value = pair_kernel_leading(W0 + SP, W0 - SP, GainParameter(0.04), PUMP)
        assert value == pytest.approx(0.2 / SP, rel=1e-12)

    def test_rejects_bad_term_count(self):
        with pytest.raises(ValueError):
            bogoliubov_kernels(W0, W0, GainParameter(0.01), PUMP, n_terms=0)

    def test_successive_term_ratio_bound(self):
        # near the Gaussian ridges the factorial denominators dominate:
        # each extra order costs less than |G|^2 / 2
        from hsps.spectral import _h1_term, _h2_term

        g_abs = 0.9
        for delta in np.linspace(0.0, 2.0 * SP, 7):
            for n in range(0, 6):
                t_next = _h2_term(n + 1, delta, g_abs, SP)
                t_cur = _h2_term(n, delta, g_abs, SP)
                assert t_next / t_cur < g_abs**2 / 2
            for n in range(1, 6):
                t_next = _h1_term(n + 1, delta, g_abs, SP)
                t_cur = _h1_term(n, delta, g_abs, SP)
                assert t_next / t_cur < g_abs**2 / 2

    def test_residual_reporting_decreases(self):
        k4 = bogoliubov_kernels(W0 + SP, W0 - SP, GainParameter(0.04), PUMP, n_terms=4)
        k8 = bogoliubov_kernels(W0 + SP, W0 - SP, GainParameter(0.04), PUMP, n_terms=8)
        assert k8.h2_residual < k4.h2_residual
        assert k8.h2_residual < 1e-9

    def test_integrated_kernels_satisfy_unitarity(self):
        # frequency-integrated series sum to cosh|G| and sinh|G|, so
        # |int h1|^2 - |int h2|^2 = 1
        g_abs = 0.35
        grid = np.linspace(W0 - 40 * SP, W0 + 40 * SP, 4001)
        d = grid[1] - grid[0]
        # with the partner frequency at the carrier, both kernel arguments
        # reduce to grid - W0, so one call integrates both series
        k = bogoliubov_kernels(grid, W0, GainParameter(g_abs**2), PUMP, n_terms=10)
        h1_int = k.identity_weight + np.sum(k.h1_smooth) * d
        h2_int = np.sum(k.h2) * d
        assert h1_int == pytest.approx(math.cosh(g_abs), rel=1e-7)
        assert h2_int == pytest.approx(math.sinh(g_abs), rel=1e-7)
        assert h1_int**2 - h2_int**2 == pytest.approx(1.0, abs=1e-6)

    def test_unitarity_defect_scales_linearly_in_g2(self):
        # the leading correction to the commutator is the integrated square
        # of the pair kernel, O(|G|^2): slope 1.00 +- 0.02 on log-log
        grid = np.linspace(W0 - 12 * SP, W0 + 12 * SP, 2001)
        d = grid[1] - grid[0]
        g2_values = np.logspace(-4, -2, 7)
        defects = []
        for g2 in g2_values:
            k = bogoliubov_kernels(grid, 2 * W0 - W0, GainParameter(g2), PUMP)
            defects.append(np.sum(np.asarray(k.h2) ** 2) * d)
        slope = np.polyfit(np.log(g2_values), np.log(defects), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)


class TestSeriesMatchesEngineKernel:
    """The Gaussian click engine builds its state from the SVD of the
    discretized leading-order kernel R = U Lambda V^T; the exact output
    kernels are U sinh(Lambda) V^T and U (cosh(Lambda) - 1) U^T.  The series
    must reproduce them with |G|_series^2 = 4 pi |G|^2."""

    @pytest.mark.parametrize(
        "sigma_s, sigma_i, g2",
        # sigma' = (1, 1) is avoided: on its click grid the kernel leaks
        # ~5e-4 of its peak past the grid edge, swamping the comparison
        [(0.3, 2.0, 0.02), (2.0, 0.5, 0.05)],
    )
    def test_svd_kernels_match_series(self, sigma_s, sigma_i, g2):
        from hsps.oracle import _pair_kernel, make_click_grids

        config = make_symmetric_config(sigma_s, sigma_i, g2)
        grid_s, grid_i = make_click_grids(config, 128)
        ds, di = grid_s.spacing, grid_i.spacing
        U, lam, Vt = np.linalg.svd(_pair_kernel(config, grid_s, grid_i))
        h2_engine = (U * np.sinh(lam)) @ Vt / math.sqrt(ds * di)
        h1_engine = (U * (np.cosh(lam) - 1.0)) @ U.T / ds

        ws, wi = grid_s.points(), grid_i.points()
        gain = GainParameter(4.0 * math.pi * g2)
        cross = bogoliubov_kernels(ws[:, None], wi[None, :], gain, config.pump, n_terms=10)
        auto = bogoliubov_kernels(ws[:, None], ws[None, :], gain, config.pump, n_terms=10)

        # grid edges truncate the engine's compositions; compare the interior half
        inner = slice(grid_s.n_points // 4, 3 * grid_s.n_points // 4)
        for engine, series in ((h2_engine, cross.h2), (h1_engine, auto.h1_smooth)):
            err = np.max(np.abs(engine - series)[inner, inner])
            assert err <= 1e-6 * np.max(np.abs(series))
