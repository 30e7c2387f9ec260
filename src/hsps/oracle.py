"""Brute-force numerical validation of the closed-form counting statistics.

Two independent machines live here:

* a quadrature oracle (:func:`build_correlations`, :func:`numeric_counts`)
  that discretizes the second-order correlation kernels of the two bands on
  frequency grids and evaluates every count probability as a Gaussian-moment
  contraction of them, with all integrals done numerically.  Each band's
  number kernel a = L L^T is kept as its factor L over the band's partner
  nodes, so the counts are squared norms of L, of the Gram matrix L^T L
  and of L^T times the cross kernel: no n x n number kernel is built;

* a Gaussian-state click engine (:func:`gaussian_click_probs`) that takes
  the Schmidt decomposition of the discretized pair kernel (one eigh on the
  click grids, where the kernel is a symmetric Hankel matrix; an SVD
  otherwise), keeps the Schmidt pairs that carry light, and projects each
  band's loss onto them.  The 50/50 coupler (vacuum in its second port)
  passes a fraction of the one signal band to each arm, so both arms share
  one decomposition of it.  Every no-click probability is a small
  log-determinant in the Schmidt basis, and the click probabilities are
  assembled from singles, pair and triple connected terms, so that no
  probability is a difference of numbers close to one.

In ``low_gain`` mode the click engine returns the leading-order count
probabilities of the same state from the quadrature oracle's moment
construction, so the two routes differ only in each band's partner
integral.  In ``all_order`` mode it returns genuine threshold
click probabilities, which differ from the count probabilities at
O(|G|^4) for singles and pairwise coincidences.  Note the triple
coincidence differs at O(1) relative whenever herald multi-photon events
are detected with high efficiency: a double pair puts two photons on the
herald, which counts twice in the moment E[N1 N2 N3] but clicks once.
"""

from __future__ import annotations

import csv
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ConfigWarning, SourceConfig, normalize
from .spectral import envelope_at_detuning, filter_amplitude, pair_kernel_leading, pump_envelope
from .stats import CountProbabilities, _assemble_counts, full_report

BOUNDARY_LEAK = 1e-8          # truncation warning threshold, relative to the kernel peak
COVERAGE_FACTOR_MIN = 5.0
POINTS_PER_WIDTH = 3.0        # trapezoid resolution: spacing at most a third of a Gaussian width
MAX_DEFAULT_POINTS = 1024     # cap on a sized quadrature band
DEFAULT_CLICK_POINTS = 128
SCHMIDT_CUTOFF = 1e-20        # drop Schmidt pairs with sinh^2 below this fraction of the peak


class OracleConditioningError(RuntimeError):
    """The assembled covariance is not a physical Gaussian state."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid over one detection band.

    half_width should cover at least COVERAGE_FACTOR_MIN of the wider of
    the band filter and the pump; anything narrower truncates Gaussian
    tails visibly and triggers a warning.  n_points sets the resolution:
    make_default_grids picks it from the narrowest width the band holds,
    make_click_grids and explicit callers pass it.
    """

    band_center: float
    half_width: float
    n_points: int

    def __post_init__(self):
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if not (math.isfinite(self.band_center) and math.isfinite(self.half_width)):
            raise ValueError("band_center and half_width must be finite")
        if self.n_points < 32:
            raise ValueError(f"n_points must be >= 32, got {self.n_points}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(
            self.band_center - self.half_width,
            self.band_center + self.half_width,
            self.n_points,
        )

    def check_coverage(self, feature_width: float):
        if self.half_width < COVERAGE_FACTOR_MIN * feature_width:
            warnings.warn(
                f"grid half-width {self.half_width:.3g} covers less than "
                f"{COVERAGE_FACTOR_MIN} feature widths ({feature_width:.3g}): "
                "expect truncation error",
                ConfigWarning,
                stacklevel=2,
            )


def make_default_grids(config: SourceConfig, n_points: int | None = None):
    """Band grids for the quadrature oracle and the mode analysis, centered
    on the filter centers, each 6 widths of the wider of its filter and the
    pump.

    Without n_points each band is sized from the narrowest Gaussian it must
    resolve, finest = min(sigma_p, sigma_f / sqrt(2)) (the widths of
    |phi|^2 along one axis and of |f|^2): POINTS_PER_WIDTH points per
    finest width, at most MAX_DEFAULT_POINTS.  The trapezoid rule on a
    Gaussian converges like exp(-2 pi^2 (sigma / h)^2), so that spacing
    already sits at rounding level.  That is ceil(36 sqrt(2) / sigma') + 1
    points up to sigma' = 1 and ceil(36 sigma') + 1 from sqrt(2) on, so the
    cap binds below sigma' ~0.0498 and above ~28.4: one ConfigWarning names
    the bands then resolved at fewer points per width.  An explicit
    n_points gives both bands that many points.
    """
    return _default_grids(config, ("signal", "idler"), n_points)


def _default_grids(config: SourceConfig, bands, n_points=None):
    """make_default_grids for the named bands only; the cap warning lands at
    the caller of the public function that called this one."""
    sp = config.pump.bandwidth_sigma
    grids, capped = [], []
    for name in bands:
        filt = config.signal_filter if name == "signal" else config.idler_filter
        half_width = 6.0 * max(sp, filt.sigma)
        n = n_points
        if n is None:
            finest = min(sp, filt.sigma / math.sqrt(2.0))
            n = math.ceil(2.0 * half_width / finest * POINTS_PER_WIDTH) + 1
            if n > MAX_DEFAULT_POINTS:
                capped.append(name)
                n = MAX_DEFAULT_POINTS
        grids.append(FrequencyGrid(filt.center_omega, half_width, n))
    if capped:
        warnings.warn(
            f"{'/'.join(capped)} quadrature grid capped at {MAX_DEFAULT_POINTS} points: "
            f"band resolved at fewer than {POINTS_PER_WIDTH:g} points per width",
            ConfigWarning,
            stacklevel=3,
        )
    return tuple(grids)


def _both_grids_or_none(grid_s, grid_i, defaults):
    """The caller's (grid_s, grid_i), or defaults() when neither is given.
    One grid without the other is an error, not a request for the defaults."""
    if grid_s is None and grid_i is None:
        return defaults()
    if grid_s is None or grid_i is None:
        raise ValueError("give both grid_s and grid_i, or neither")
    return grid_s, grid_i


def make_click_grids(config: SourceConfig, n_points: int = DEFAULT_CLICK_POINTS):
    """Grids for the Gaussian click engine: both bands get one half-width,
    6.5 widths of the broadest of pump and filters, and n_points points.
    That does not make each band cover the reflection of a much narrower
    other band (see gaussian_click_probs)."""
    sp = config.pump.bandwidth_sigma
    hw = 6.5 * max(sp, config.signal_filter.sigma, config.idler_filter.sigma)
    grid_s = FrequencyGrid(config.signal_filter.center_omega, hw, n_points)
    grid_i = FrequencyGrid(config.idler_filter.center_omega, hw, n_points)
    return grid_s, grid_i


@dataclass(frozen=True)
class CorrelationMatrices:
    """Discretized second-order moments of the filtered two-band state.

    Each band's number kernel a = L L^T (real symmetric, PSD, including
    channel transmission and filter amplitudes) is stored as its factor L:
    signal_factor is n_s x m_s and idler_factor n_i x m_i, one column per
    node of the band's partner quadrature, weighted by the square root of
    the node's weight.  The counts read only norms of the factors, so the
    dense kernels auto_signal / auto_idler are built only when asked for.
    cross is the pair-creation kernel between the bands.  The
    phase-insensitive cross-band correlation vanishes identically and is
    not stored.  Detector efficiencies and the coupler split are not folded
    in here.
    """

    signal_factor: np.ndarray
    idler_factor: np.ndarray
    cross: np.ndarray
    spacing_s: float
    spacing_i: float

    @property
    def auto_signal(self) -> np.ndarray:
        return self.signal_factor @ self.signal_factor.T

    @property
    def auto_idler(self) -> np.ndarray:
        return self.idler_factor @ self.idler_factor.T

    def boundary_leaks(self) -> dict[str, float]:
        """{auto_signal, auto_idler, cross}: each kernel's largest entry on
        its first or last row or column, relative to its largest entry.
        A number kernel L L^T is PSD, so it peaks on its diagonal (the row
        norms of L), and symmetric, so its edge columns are its edge rows:
        its ratio needs only those, not the kernel."""

        def factor_leak(factor):
            peak = float(np.max(np.einsum("ij,ij->i", factor, factor)))
            if peak == 0.0:
                return 0.0
            return float(np.max(np.abs(factor[[0, -1]] @ factor.T))) / peak

        c = np.abs(self.cross)
        peak = float(np.max(c))
        edges = max(np.max(c[[0, -1], :]), np.max(c[:, [0, -1]]))
        return {
            "auto_signal": factor_leak(self.signal_factor),
            "auto_idler": factor_leak(self.idler_factor),
            "cross": float(edges) / peak if peak != 0.0 else 0.0,
        }


def _model_on_grids(config: SourceConfig, grid_s: FrequencyGrid, grid_i: FrequencyGrid):
    """(f_s on grid_s, f_i on grid_i, phi on the grid product): the spectral
    model on a grid pair, each part evaluated once."""
    ws, wi = grid_s.points(), grid_i.points()
    fs = filter_amplitude(ws, config.signal_filter)
    fi = filter_amplitude(wi, config.idler_filter)
    return fs, fi, pump_envelope(ws[:, None], wi[None, :], config.pump)


def _trapezoid_partner(grid: FrequencyGrid, config: SourceConfig):
    """A band's partner quadrature: a trapezoid grid wide enough to hold the
    reflected band plus 8 pump widths, on offsets from the pump carrier."""
    sp = config.pump.bandwidth_sigma
    offsets = grid.points() - config.pump.center_omega
    lo = -float(np.max(offsets)) - 8.0 * sp
    hi = -float(np.min(offsets)) + 8.0 * sp
    n = max(64, int(np.ceil((hi - lo) / (sp / POINTS_PER_WIDTH))) + 1)
    nu = np.linspace(lo, hi, n)
    weights = np.r_[0.5, np.ones(n - 2), 0.5]
    return envelope_at_detuning(np.add.outer(offsets, nu), config.pump), weights, nu[1] - nu[0]


def _leading_moments(config, grid_s, grid_i, model, partner_s, partner_i):
    """CorrelationMatrices from one _model_on_grids evaluation.  A partner
    quadrature is (phi from band points to partner nodes, node weights, node
    spacing): each number kernel integrates phi(w, v) phi(w', v) over it,
    so its factor is sqrt(eta |G|^2 / sigma_p^2 step weight) f phi."""
    fs, fi, phi = model
    eta_s = config.signal_channel_transmission
    eta_i = config.idler_channel_transmission
    pair = pair_kernel_leading(phi, config.gain, config.pump)
    cross = np.sqrt(eta_s * eta_i) * fs[:, None] * fi[None, :] * pair
    # the factors run without phi unless a partner holds it (peak memory)
    del model, phi, pair
    scale = config.gain.g_squared / config.pump.bandwidth_sigma**2

    def number_factor(eta, f, partner):
        envelope, weights, step = partner
        factor = f[:, None] * envelope
        factor *= np.sqrt(eta * scale * step * weights)
        return factor

    return CorrelationMatrices(
        signal_factor=number_factor(eta_s, fs, partner_s),
        idler_factor=number_factor(eta_i, fi, partner_i),
        cross=cross,
        spacing_s=grid_s.spacing,
        spacing_i=grid_i.spacing,
    )


def build_correlations(
    config: SourceConfig, grid_s: FrequencyGrid, grid_i: FrequencyGrid
) -> CorrelationMatrices:
    """Assemble the leading-order correlation matrices on the given grids,
    each band's number kernel integrated over its own trapezoid partner grid."""
    sp = config.pump.bandwidth_sigma
    grid_s.check_coverage(max(sp, config.signal_filter.sigma))
    grid_i.check_coverage(max(sp, config.idler_filter.sigma))
    mats = _leading_moments(
        config, grid_s, grid_i, _model_on_grids(config, grid_s, grid_i),
        _trapezoid_partner(grid_s, config), _trapezoid_partner(grid_i, config),
    )
    for name, leak in mats.boundary_leaks().items():
        if leak > BOUNDARY_LEAK:
            warnings.warn(
                f"{name} kernel boundary holds {leak:.2e} of the peak: grid too narrow",
                ConfigWarning,
                stacklevel=2,
            )
    return mats


def _counts_from_matrices(config: SourceConfig, mats: CorrelationMatrices) -> CountProbabilities:
    e1, e2, e3 = (d.efficiency for d in config.detectors)
    ds, di = mats.spacing_s, mats.spacing_i
    l_s, c = mats.signal_factor, mats.cross

    def norm_sq(x):
        # squared Frobenius norm without a squared temporary
        flat = x.ravel(order="K")
        return float(np.vdot(flat, flat))

    # trace(L L^T) = |L|^2
    trace_s = norm_sq(l_s)
    p1 = e1 * norm_sq(mats.idler_factor) * di
    p2 = 0.5 * e2 * trace_s * ds
    p3 = 0.5 * e3 * trace_s * ds

    cross_sq = norm_sq(c) * ds * di
    t12 = 0.5 * e1 * e2 * cross_sq
    t13 = 0.5 * e1 * e3 * cross_sq

    # |L L^T|^2 = |L^T L|^2: the Gram matrix of the shorter side
    gram = l_s.T @ l_s if l_s.shape[1] <= l_s.shape[0] else l_s @ l_s.T
    bunch23 = 0.25 * e2 * e3 * norm_sq(gram) * ds * ds
    # triple contraction sum_klm c_kl c_ml a_s[k, m] of the cross kernel
    # with the signal number kernel, = |L^T c|^2
    w4 = 0.5 * e1 * e2 * e3 * norm_sq(l_s.T @ c) * ds * ds * di
    return _assemble_counts(p1, p2, p3, t12, t13, bunch23, w4)


def numeric_counts(
    config: SourceConfig,
    grid_s: FrequencyGrid | None = None,
    grid_i: FrequencyGrid | None = None,
) -> CountProbabilities:
    """Count probabilities by quadrature of the correlation kernels."""
    grid_s, grid_i = _both_grids_or_none(grid_s, grid_i, lambda: make_default_grids(config))
    return _counts_from_matrices(config, build_correlations(config, grid_s, grid_i))


# ---------------------------------------------------------------------------
# Gaussian click engine
# ---------------------------------------------------------------------------


def _engine_inputs(config: SourceConfig, grid_s: FrequencyGrid, grid_i: FrequencyGrid):
    """(R, t_idler, t_signal, arms) for click_probs_from_pair_kernel: the
    pair kernel times sqrt(h_s h_i); per mode the intensity transmission
    to detector 1 (idler) and to the coupler (signal); and the shares
    e2 / 2 and e3 / 2 of the signal band that the coupler arms detect."""
    fs, fi, phi = _model_on_grids(config, grid_s, grid_i)
    R = pair_kernel_leading(phi, config.gain, config.pump)
    R *= np.sqrt(grid_s.spacing * grid_i.spacing)
    e1, e2, e3 = (d.efficiency for d in config.detectors)
    t_idler = config.idler_channel_transmission * e1 * fi**2
    t_signal = config.signal_channel_transmission * fs**2
    return R, t_idler, t_signal, (0.5 * e2, 0.5 * e3)


def _log_det_sym(S: np.ndarray) -> float:
    """log det(I + S) for symmetric S with I + S positive definite, as
    sum log1p(eigenvalues), so a small S keeps its relative accuracy."""
    return float(np.sum(np.log1p(np.linalg.eigvalsh(S))))


def click_probs_from_pair_kernel(
    R: np.ndarray,
    t_idler: np.ndarray,
    t_signal: np.ndarray,
    arms: tuple[float, float],
) -> CountProbabilities:
    """Threshold click probabilities for the squeezed state exp(sum R a+ b+ - h.c.).

    t_idler and t_signal are each mode's intensity transmission to detector 1
    and to the 50/50 coupler; arms = (a2, a3) are the fractions of that one
    signal band that detectors 2 and 3 see.  A 1 x 1 R with scalar
    transmissions gives the two-mode squeezed vacuum, P = 1 - 1/(1 + t sinh^2 r).

    Everything runs on the r Schmidt pairs R = U diag(lam) V^T that carry
    light: sinh^2 lam above SCHMIDT_CUTOFF of the peak, 25 to 64 pairs on
    the shipped grids.  R depends on w_s + w_i only, so on grids of equal
    spacing and size (make_click_grids) it is a symmetric Hankel matrix; when
    R is square and exactly equal to R^T the pairs come from one eigh,
    R = Q diag(w) Q^T with lam = |w|, U = Q and V = Q sign(w).  Any other R
    takes the SVD; the two routes agree to ~1e-14 relative.  The herald
    pairs and the triple are first order in the cross amplitudes of the
    dropped pairs; at this cutoff all seven probabilities agree with the
    extended-precision reference of tests/test_click_reference.py to ~1e-14.
    With N = diag(sinh^2 lam), C = diag(sinh lam cosh lam) and a band loss
    projected onto the pairs, M = T^T T with T from a thin QR of
    diag(sqrt t) U (signal) or diag(sqrt t) V (idler), one eigh
    T N T^T = P diag(kappa) P^T serves every fraction a of the band: it
    stays dark with probability q = exp(-l), l = sum log1p(a kappa), and its
    saturation a M (I + a N M)^-1 is Z^T Z, Z = sqrt(a / (1 + a kappa)) P^T T.
    The idler is its band at a = 1.  Two sets stay dark with
    q_a q_b exp(rho_ab), rho_ab = -log det(I - D W_a D W_b), where D = C
    across the bands and D = N between the arms, which are diagonal in P:
    rho_23 = -sum log1p(-a2 a3 kappa^2 / ((1 + a2 kappa)(1 + a3 kappa))).
    The triple adds the third-order connected term c123, the change of
    rho_23 when the idler stays dark.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    t_idler, t_signal = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (t_idler, t_signal))
    a2, a3 = arms
    symmetric = R.shape[0] == R.shape[1] and np.array_equal(R, R.T)
    if symmetric:
        # the eigh route of the docstring, in descending lam
        w, Q = np.linalg.eigh(R)
        order = np.argsort(-np.abs(w), kind="stable")
        lam = np.abs(w[order])
    else:
        U, lam, Vt = np.linalg.svd(R, full_matrices=False)
        V = Vt.T
    with np.errstate(over="ignore"):
        n = np.sinh(lam) ** 2
    if not math.isfinite(n[0]):
        # an infinite peak would make the cutoff drop every pair: vacuum
        raise OracleConditioningError(
            f"leading Schmidt pair sinh^2 overflows (lambda = {lam[0]:.4g}): gain too high"
        )
    keep = n > SCHMIDT_CUTOFF * n[0]
    if symmetric:
        kept = order[keep]
        U = Q[:, kept]
        V = U * np.sign(w[kept])
    else:
        U, V = U[:, keep], V[:, keep]
    lam, n = lam[keep], n[keep]
    c = np.sinh(lam) * np.cosh(lam)

    def band(modes, t):
        """(kappa, share), share(a) = (l, Z, a M) at the fraction a of the band."""
        T = np.linalg.qr(np.sqrt(t)[:, None] * modes, mode="r")
        kappa, P = np.linalg.eigh((T * n) @ T.T)
        pt, m = P.T @ T, T.T @ T
        return kappa, lambda a: (
            float(np.sum(np.log1p(a * kappa))), np.sqrt(a / (1.0 + a * kappa))[:, None] * pt, a * m
        )

    def connected(za, d, zb):
        """rho = -log det(I - D W_a D W_b) from the PSD product B B^T."""
        b = za @ (d[:, None] * zb.T)
        return -_log_det_sym(-(b @ b.T))

    _, idler = band(V, t_idler)
    kappa, signal = band(U, t_signal)
    (l1, z1, _), (l2, z2, m2), (l3, z3, m3) = idler(1.0), signal(a2), signal(a3)
    rho12, rho13 = connected(z1, c, z2), connected(z1, c, z3)
    rho23 = -float(np.sum(np.log1p(-a2 * a3 * kappa**2 / ((1 + a2 * kappa) * (1 + a3 * kappa)))))

    # c123 = log det(I - G W_2) + log det(I - G W_3) - log det(I - G W_23) with
    # G = C W_1 C, the photon number a dark idler removes from the signal band.
    # The saturation difference W_2 + W_3 - W_23 written out as products turns
    # it into log det(I - Y) with Y = (I + N' M_23)^-1 G [W_2 N' M_3 + (I - W_2 G) W_3 N M_2]
    # and N' = N - G; Y is not symmetric, so log det(I - Y) is taken as half
    # the log-det of the Gram matrix (I - Y)^T (I - Y)
    y1 = z1 * c
    g = y1.T @ y1
    n_dark = np.diag(n) - g
    w2, w3 = z2.T @ z2, z3.T @ z3
    eye = np.eye(n.size)
    core = w2 @ n_dark @ m3 + (eye - w2 @ g) @ w3 @ (n[:, None] * m2)
    y = np.linalg.solve(eye + n_dark @ (m2 + m3), g @ core)
    c123 = 0.5 * _log_det_sym(y.T @ y - y - y.T)

    q1, q2, q3 = np.exp([-l1, -l2, -l3])
    p1, p2, p3 = -np.expm1([-l1, -l2, -l3])
    d12, d13, d23 = np.expm1([rho12, rho13, rho23])
    p23 = p2 * p3 + q2 * q3 * d23
    # p123 = p1 p23 + q1 (p23 - p23'), with p23' the value of p23 given a dark
    # idler.  f_k = q_k' - q_k is how much a dark idler raises the no-click
    # probability of arm k, and p23 - p23' is written as a sum of products
    f2, f3 = q2 * d12, q3 * d13
    herald = (
        f2 * p3 + f3 * p2 - f2 * f3
        - q2 * q3 * d23 * np.expm1(rho12 + rho13)
        - q2 * q3 * np.exp(rho12 + rho13 + rho23) * np.expm1(c123)
    )
    return CountProbabilities(
        p1=float(p1), p2=float(p2), p3=float(p3),
        p12=float(p1 * p2 + q1 * q2 * d12),
        p13=float(p1 * p3 + q1 * q3 * d13),
        p23=float(p23),
        p12_acc=float(p1 * p2), p13_acc=float(p1 * p3),
        p123=float(p1 * p23 + q1 * herald),
    )


def gaussian_click_probs(
    config: SourceConfig,
    grid_s: FrequencyGrid | None = None,
    grid_i: FrequencyGrid | None = None,
    order: str = "all_order",
) -> CountProbabilities:
    """Detection probabilities from the discretized Gaussian state.

    order="all_order": threshold-detector click probabilities, exact in the
    gain for the discretized state.  order="low_gain": leading-order count
    probabilities from the moments of :func:`build_correlations` with each
    band's partner integral over the other grid, matching :func:`numeric_counts`.

    Grids from :func:`make_click_grids` do not guarantee that each band
    covers the reflection of the other: a narrow filter against a broad one
    loses squeezing partners of detected modes without a warning (README,
    ROADMAP item 15).
    """
    grid_s, grid_i = _both_grids_or_none(grid_s, grid_i, lambda: make_click_grids(config))
    if order == "low_gain":
        # each band's partner nodes are the other band's grid, at full weight
        model = _model_on_grids(config, grid_s, grid_i)
        partners = (model[2], 1.0, grid_i.spacing), (model[2].T, 1.0, grid_s.spacing)
        mats = _leading_moments(config, grid_s, grid_i, model, *partners)
        return _counts_from_matrices(config, mats)
    if order == "all_order":
        return click_probs_from_pair_kernel(*_engine_inputs(config, grid_s, grid_i))
    raise ValueError(f"order must be 'low_gain' or 'all_order', got {order!r}")


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

COMPARISON_QUANTITIES = (
    ("p1", lambda c: c.p1),
    ("p2", lambda c: c.p2),
    ("p12_true", lambda c: c.p12 - c.p12_acc),
    ("p123_accidental", lambda c: c.p123_accidental),
    ("p123_pair_single", lambda c: c.p123_pair_single),
    ("p123_bunching", lambda c: c.p123_bunching),
)


def comparison_rows(config: SourceConfig, include_gaussian: bool = False) -> list[dict]:
    """Closed form vs quadrature (and optionally the low-gain state route)
    for one configuration; rows carry relative errors."""
    bands = normalize(config)
    analytic, _ = full_report(config)
    numeric = numeric_counts(config)
    rows = []

    def add(quantity: str, a: float, n: float):
        rel = abs(n - a) / abs(a) if a != 0 else abs(n)
        rows.append(
            {
                "sigma_s_prime": bands.sigma_s_prime,
                "sigma_i_prime": bands.sigma_i_prime,
                "g_squared": config.gain.g_squared,
                "quantity": quantity,
                "analytic": a,
                "numeric": n,
                "rel_err": rel,
            }
        )

    for name, getter in COMPARISON_QUANTITIES:
        add(name, getter(analytic), getter(numeric))
    if include_gaussian:
        state_counts = gaussian_click_probs(config, order="low_gain")
        for name, getter in COMPARISON_QUANTITIES:
            add(name + "/gaussian_low_gain", getter(analytic), getter(state_counts))
    return rows


COMPARISON_COLUMNS = (
    "sigma_s_prime", "sigma_i_prime", "g_squared", "quantity", "analytic", "numeric", "rel_err",
)


def write_comparison_csv(rows: list[dict], path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARISON_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
