"""Tests of the spectral model, and the Bogoliubov series they check it against.

The full input/output transformation of the field operators is a Bogoliubov
transformation whose kernels are power series in the gain amplitude |G|:
an even ("beam-splitter like") series h1 and an odd ("pair creation") series
h2.  The n = 0 term of h1 is a zero-width Gaussian, i.e. the identity; it is
kept apart from the smooth n >= 1 terms so the no-gain limit is exact.  The
series is the reference the Gaussian click engine is tested against; its |G|
is 2 sqrt(pi) times the closed-form |G| (see
:func:`hsps.spectral.pair_kernel_leading`).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsps.config import GainParameter, PumpSpec, make_symmetric_config
from hsps.spectral import envelope_at_detuning, filter_amplitude, pair_kernel_leading, pump_envelope


@dataclass(frozen=True)
class BogoliubovKernels:
    """Truncated kernel series, scalar or array-valued.

    identity_weight is the coefficient of the delta-like n = 0 term of h1
    (always 1).  h1_smooth collects the n >= 1 terms of the even series, h2
    the n >= 0 terms of the odd series; both are real under the convention
    that the gain phase sits in the pump.  The residuals are the magnitudes
    of the last term included, an estimate of the truncation error.
    """

    identity_weight: float
    h1_smooth: "float | np.ndarray"
    h2: "float | np.ndarray"
    h1_residual: float
    h2_residual: float
    n_terms: int


def _h1_term(n: int, delta, g_abs: float, sigma_p: float):
    """n-th smooth term of the even series (n >= 1), delta = w' - w."""
    width_sq = 4.0 * sigma_p**2 * 2 * n
    coeff = g_abs ** (2 * n) / (math.sqrt(2 * n) * math.factorial(2 * n) * 2.0 * math.sqrt(math.pi) * sigma_p)
    return coeff * np.exp(-(delta**2) / width_sq)


def _h2_term(n: int, delta, g_abs: float, sigma_p: float):
    """n-th term of the odd series (n >= 0), delta = w' + w - 2 w_p0."""
    width_sq = 4.0 * sigma_p**2 * (2 * n + 1)
    coeff = (
        g_abs ** (2 * n + 1)
        / (math.sqrt(2 * n + 1) * math.factorial(2 * n + 1) * 2.0 * math.sqrt(math.pi) * sigma_p)
    )
    return coeff * np.exp(-(delta**2) / width_sq)


def bogoliubov_kernels(
    omega_a,
    omega_b,
    gain: GainParameter,
    pump: PumpSpec,
    n_terms: int = 8,
) -> BogoliubovKernels:
    """Evaluate the truncated Bogoliubov kernel series at (omega_a, omega_b).

    For h1 the pair is (w', w) within one band; for h2 it is the
    cross-band pair whose sum is compared against 2 w_p0.  Both are returned
    together since they share the parameters.  The gain phase is absorbed
    into the pump, so the kernels are real here.

    Term magnitudes fall at least as fast as |G|^2 / 2 per order near the
    Gaussian ridges, so n_terms = 8 puts the truncation residual below 1e-9
    for any |G|^2 within the low-gain guard.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    g_abs = gain.amplitude
    sp = pump.bandwidth_sigma
    delta_1 = np.asarray(omega_a) - np.asarray(omega_b)
    delta_2 = np.asarray(omega_a) + np.asarray(omega_b) - 2.0 * pump.center_omega

    if g_abs == 0.0:
        zero_1 = np.zeros_like(delta_1, dtype=float)
        zero_2 = np.zeros_like(delta_2, dtype=float)
        return BogoliubovKernels(
            1.0, zero_1 if zero_1.ndim else 0.0, zero_2 if zero_2.ndim else 0.0, 0.0, 0.0, n_terms
        )

    h1 = np.zeros_like(delta_1, dtype=float)
    last_1 = np.zeros_like(h1)
    for n in range(1, n_terms + 1):
        last_1 = _h1_term(n, delta_1, g_abs, sp)
        h1 = h1 + last_1

    h2 = np.zeros_like(delta_2, dtype=float)
    last_2 = np.zeros_like(h2)
    for n in range(0, n_terms):
        last_2 = _h2_term(n, delta_2, g_abs, sp)
        h2 = h2 + last_2

    return BogoliubovKernels(
        identity_weight=1.0,
        h1_smooth=h1 if h1.ndim else float(h1),
        h2=h2 if h2.ndim else float(h2),
        h1_residual=float(np.max(np.abs(last_1))),
        h2_residual=float(np.max(np.abs(last_2))),
        n_terms=n_terms,
    )


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

    def test_array_built_in_one_buffer_with_the_plain_bits(self):
        detuning = np.linspace(-6.0, 6.0, 97) * SP
        kept = detuning.copy()
        phi = envelope_at_detuning(detuning, PUMP)
        assert np.array_equal(detuning, kept)
        assert np.array_equal(phi, np.exp(-(kept**2) / (4.0 * SP**2)))
        assert [envelope_at_detuning(float(d), PUMP) for d in kept] == phi.tolist()


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
        value = pair_kernel_leading(
            pump_envelope(W0 + SP, W0 - SP, PUMP), GainParameter(0.04), PUMP
        )
        assert value == pytest.approx(0.2 / SP, rel=1e-12)

    def test_pair_kernel_scales_the_envelope_it_is_given(self):
        w = W0 + np.linspace(-3.0, 3.0, 9) * SP
        phi = pump_envelope(w[:, None], w[None, :], PUMP)
        expected = (GainParameter(0.04).amplitude / SP) * phi
        kernel = pair_kernel_leading(phi, GainParameter(0.04), PUMP)
        assert kernel is phi
        assert np.array_equal(kernel, expected)

    def test_rejects_bad_term_count(self):
        with pytest.raises(ValueError):
            bogoliubov_kernels(W0, W0, GainParameter(0.01), PUMP, n_terms=0)

    def test_successive_term_ratio_bound(self):
        # near the Gaussian ridges the factorial denominators dominate:
        # each extra order costs less than |G|^2 / 2
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
        from hsps.oracle import _engine_inputs, make_click_grids

        config = make_symmetric_config(sigma_s, sigma_i, g2)
        grid_s, grid_i = make_click_grids(config, 128)
        ds, di = grid_s.spacing, grid_i.spacing
        U, lam, Vt = np.linalg.svd(_engine_inputs(config, grid_s, grid_i)[0])
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
