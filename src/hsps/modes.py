"""Spectral mode structure of the filtered pair state.

The filtered joint spectral amplitude F = f_s f_i phi carries the full
two-photon correlation; the eigenvalues of its reduced density matrix (the
Gram matrix F F^T of the smaller side, so the squared singular values of F)
give the Schmidt spectrum and the effective mode number
K = 1 / sum(lambda_k^2).  K = 1 means the state is spectrally factorable
and heralded photons are pure.  The Gram route is taken with eigvalsh
instead of an SVD; it has an absolute floor of ~1e-16, below which tail
coefficients are rounding noise (clipped at 0).

Everything here runs on oracle.make_default_grids, whose point counts are
sized per band from the narrowest Gaussian width it holds, so the joint
amplitude is n_s x n_i and rectangular when the bands differ.  On those
grids K, the Schmidt coefficients and K_eff agree with Mehler's closed
forms (K = sqrt((2+s_s'^2)(2+s_i'^2) / (2 (2+s_s'^2+s_i'^2))),
lambda_k = (1-mu) mu^k with mu = (K-1)/(K+1)) to ~1e-13.

For indistinguishability what matters is the marginal mode content of each
band on its own, with the conjugate band unobserved and unfiltered.  That
is governed by the band's autocorrelation kernel f(w) f(w') exp(-(w-w')^2 /
(8 sigma_p^2)), whose eigenvalue participation K_eff fixes the measurable
autocorrelation through g2 = 1 + 1/K_eff; the closed form is
g2 = 1 + 1/sqrt(1 + sig'^2/2).  K_eff needs only the kernel's trace and
Frobenius norm, and on a uniform grid the norm is one convolution, so the
kernel is never built.  A band is treated as single-mode when its
K_eff stays at or below 1.05 (SINGLE_MODE_K_MAX), i.e. g2 above 1.95.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .config import ConfigWarning, SourceConfig
from .oracle import (FrequencyGrid, _both_grids_or_none, _default_grids, _model_on_grids,
                     make_default_grids)
from .spectral import filter_amplitude

SINGLE_MODE_K_MAX = 1.05


@dataclass(frozen=True)
class SchmidtResult:
    coefficients: np.ndarray        # descending, sum to 1
    schmidt_number: float           # 1 / sum(lambda^2)


@dataclass(frozen=True)
class ModeReport:
    schmidt_coefficients: tuple
    schmidt_number: float
    g2_signal_pred: float
    g2_idler_pred: float
    single_mode_heralding: bool
    single_mode_heralded: bool
    heralded_purity: float
    threshold: float

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["schmidt_coefficients"] = list(self.schmidt_coefficients)
        return doc


def filtered_jsa(
    config: SourceConfig,
    grid_s: FrequencyGrid | None = None,
    grid_i: FrequencyGrid | None = None,
) -> np.ndarray:
    """Joint spectral amplitude f_s(w_s) f_i(w_i) phi(w_s, w_i) on the grid,
    normalized to unit Frobenius norm."""
    grid_s, grid_i = _both_grids_or_none(grid_s, grid_i, lambda: make_default_grids(config))
    fs, fi, phi = _model_on_grids(config, grid_s, grid_i)
    jsa = fs[:, None] * fi[None, :]
    jsa *= phi
    del phi
    norm = np.linalg.norm(jsa)
    if norm == 0.0:
        raise ValueError("joint amplitude vanished on the grid")
    jsa /= norm
    return jsa


def schmidt(matrix: np.ndarray) -> SchmidtResult:
    """Schmidt spectrum of a (normalized) joint amplitude.

    The coefficients are the eigenvalues of the reduced density matrix, the
    Gram matrix of the smaller side (the squared singular values), clipped
    at 0 and renormalized to unit sum; a rank-1 matrix gives schmidt_number
    1 to rounding.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    gram = matrix @ matrix.T if rows <= cols else matrix.T @ matrix
    try:
        lam = np.linalg.eigvalsh(gram)[::-1]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Schmidt decomposition failed: {exc}") from exc
    # normalize by the unclipped sum (the trace): clipping the negative
    # rounding noise first would bias the leading coefficients low
    total = lam.sum()
    lam = np.maximum(lam, 0.0)
    if total == 0.0:
        raise ValueError("cannot decompose an all-zero amplitude")
    lam = lam / total
    return SchmidtResult(coefficients=lam, schmidt_number=1.0 / float(np.sum(lam**2)))


def marginal_mode_number(config: SourceConfig, band: str) -> float:
    """Effective mode number of one band's filtered autocorrelation kernel.

    band is "signal" or "idler".  K_eff = (sum mu)^2 / sum(mu^2) over the
    eigenvalues of the kernel k = f(w) f(w') g(w - w'), g(d) = exp(-d^2 /
    (8 sigma_p^2)); it depends only on this band's filter and the pump,
    not on the conjugate filter, and satisfies 1 + 1/K_eff = g2(band)
    to ~1e-13 on the band's grid from make_default_grids, which is sized
    from the narrower of the pump and this filter; only that grid is built.
    The kernel itself is not: sum mu is its trace, sum f^2, and sum mu^2
    its squared Frobenius norm, f^2 . (g^2 * f^2), one convolution of the
    squared filter with g^2 at the 2n - 1 lags of the uniform grid.
    """
    if band not in ("signal", "idler"):
        raise ValueError(f"band must be 'signal' or 'idler', got {band!r}")
    (grid,) = _default_grids(config, (band,))
    filt = config.signal_filter if band == "signal" else config.idler_filter
    f2 = filter_amplitude(grid.points(), filt) ** 2
    lags = np.arange(1 - grid.n_points, grid.n_points) * grid.spacing
    g_sq = np.exp(-(lags**2) / (4.0 * config.pump.bandwidth_sigma**2))
    return float(np.sum(f2) ** 2 / (f2 @ np.convolve(g_sq, f2, mode="valid")))


def mode_report(config: SourceConfig) -> ModeReport:
    """Full mode-structure report for one configuration, on the default grids.

    The heralded-state purity is 1/K of the filtered joint amplitude (the
    idler trace of F), a heuristic figure: it assumes the herald projects
    onto the filtered idler modes.
    """
    with warnings.catch_warnings():
        # the band calls below give each capped grid's warning once
        warnings.simplefilter("ignore", ConfigWarning)
        decomposition = schmidt(filtered_jsa(config))
    k_signal = marginal_mode_number(config, "signal")
    k_idler = marginal_mode_number(config, "idler")
    return ModeReport(
        schmidt_coefficients=tuple(float(v) for v in decomposition.coefficients[:16]),
        schmidt_number=decomposition.schmidt_number,
        g2_signal_pred=1.0 + 1.0 / k_signal,
        g2_idler_pred=1.0 + 1.0 / k_idler,
        single_mode_heralding=k_idler <= SINGLE_MODE_K_MAX,
        single_mode_heralded=k_signal <= SINGLE_MODE_K_MAX,
        heralded_purity=1.0 / decomposition.schmidt_number,
        threshold=SINGLE_MODE_K_MAX,
    )

