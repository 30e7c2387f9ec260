"""The spectral model of the pair source, in one place.

The pulsed pump with Gaussian spectrum (sigma_p around omega_p0) produces
signal/idler pairs whose joint amplitude carries the energy-conservation
envelope

    phi(w_s, w_i) = exp(-(w_s + w_i - 2 w_p0)^2 / (4 sigma_p^2)),

detected through Gaussian bandpass filters

    f(w) = exp(-(w - w_0)^2 / (2 sigma^2)).

The functions here are the only code that evaluates phi, f and the pair
kernel; the oracle and the mode analysis build their grids from them.

The full input/output transformation of the field operators is a Bogoliubov
transformation whose kernels are power series in the gain amplitude |G|:
an even ("beam-splitter like") series h1 and an odd ("pair creation") series
h2.  The n = 0 term of h1 is a zero-width Gaussian, i.e. the identity; it is
kept apart from the smooth n >= 1 terms so the no-gain limit is exact.  The
series is the reference the Gaussian click engine is tested against; its |G|
is 2 sqrt(pi) times the closed-form |G| (see :func:`pair_kernel_leading`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FilterSpec, GainParameter, PumpSpec


def pump_envelope(omega_s, omega_i, pump: PumpSpec):
    """Energy-conservation envelope phi, equal to 1 on w_s + w_i = 2 w_p0.

    Accepts scalars or broadcastable arrays of angular frequencies (rad/s).
    """
    # offsets from the pump carrier keep the square cancellation-free
    detuning = (omega_s - pump.center_omega) + (omega_i - pump.center_omega)
    return np.exp(-(detuning**2) / (4.0 * pump.bandwidth_sigma**2))


def filter_amplitude(omega, filt: FilterSpec):
    """Gaussian amplitude transmission profile, peak 1 at the filter center."""
    return np.exp(-((omega - filt.center_omega) ** 2) / (2.0 * filt.sigma**2))


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


def pair_kernel_leading(omega_s, omega_i, gain: GainParameter, pump: PumpSpec):
    """Leading-order pair-creation amplitude (G / sigma_p) * phi.

    This is the normalization under which the closed-form counting statistics
    hold; the series kernels above use the normalized-Gaussian convention in
    which the frequency-integrated kernels satisfy cosh^2 - sinh^2 = 1.
    """
    return (gain.amplitude / pump.bandwidth_sigma) * pump_envelope(omega_s, omega_i, pump)
