"""The spectral model of the pair source, in one place.

The pulsed pump with Gaussian spectrum (sigma_p around omega_p0) produces
signal/idler pairs whose joint amplitude carries the energy-conservation
envelope

    phi(w_s, w_i) = exp(-(w_s + w_i - 2 w_p0)^2 / (4 sigma_p^2)),

detected through Gaussian bandpass filters

    f(w) = exp(-(w - w_0)^2 / (2 sigma^2)).

The functions here are the only code that evaluates phi, f and the pair
kernel; the oracle and the mode analysis build their grids from them.  The
pair kernel is the leading term of the Bogoliubov series of the full
transformation; only the tests (tests/test_spectral.py) evaluate that
series, as an independent check of the click engine's kernels.
"""

from __future__ import annotations

import numpy as np

from .config import FilterSpec, GainParameter, PumpSpec


def pump_envelope(omega_s, omega_i, pump: PumpSpec):
    """Energy-conservation envelope phi, equal to 1 on w_s + w_i = 2 w_p0.

    Accepts scalars or broadcastable arrays of angular frequencies (rad/s).
    """
    # offsets from the pump carrier keep the square cancellation-free
    return envelope_at_detuning((omega_s - pump.center_omega) + (omega_i - pump.center_omega), pump)


def envelope_at_detuning(detuning, pump: PumpSpec):
    """phi of the total carrier detuning (w_s - w_p0) + (w_i - w_p0)."""
    return np.exp(-(detuning**2) / (4.0 * pump.bandwidth_sigma**2))


def filter_amplitude(omega, filt: FilterSpec):
    """Gaussian amplitude transmission profile, peak 1 at the filter center."""
    return np.exp(-((omega - filt.center_omega) ** 2) / (2.0 * filt.sigma**2))


def pair_kernel_leading(envelope, gain: GainParameter, pump: PumpSpec):
    """Leading-order pair-creation amplitude (G / sigma_p) * phi, given phi.

    This is the normalization under which the closed-form counting statistics
    hold.  The Gaussian click engine builds its state from the Schmidt
    decomposition of this kernel on frequency grids.
    """
    return (gain.amplitude / pump.bandwidth_sigma) * envelope
