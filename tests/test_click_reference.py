"""The all-order click engine against an extended-precision reference.

The reference evaluates the seven no-click probabilities of the discretized
state in mpmath, from the pure-state overlap rather than the engine's
covariance algebra.  With the Schmidt decomposition R = U diag(lam) V^T the
state is prod sech(lam) exp(a^+ T b^+)|0> with T = U tanh(lam) V^T.  A band
loss D = diag(t) leaves a threshold detector dark with the second
quantization of I - D, and the Gaussian overlap gives

    q = prod sech^2(lam) / det(I - tau V^T B V tau U^T A U),

with A = I - D on the signal band and B = I - D on the idler.  Each coupler
arm's D is its share of the signal band's transmission.  The Schmidt
basis comes from mpmath's eigsy of R^T R, with U lam = R V.  The inclusion-
exclusion over the seven determinants then runs at 60 digits, so nothing
cancels that matters at double precision.
"""

import functools

import mpmath
import numpy as np
import pytest

from hsps.config import make_symmetric_config
from hsps.oracle import _engine_inputs, click_probs_from_pair_kernel, make_click_grids

DPS = 60
POINTS = 32
FIELDS = ("p1", "p2", "p3", "p12", "p13", "p23", "p123")


def _det(a):
    """Determinant by elimination without pivoting on an object array of
    mpf; every matrix here is I plus a small or positive part."""
    a = a.copy()
    det = mpmath.mpf(1)
    for k in range(a.shape[0]):
        det *= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
    return det


def _mul(a, b):
    """Matrix product of object arrays through mpmath's fdot."""
    out = mpmath.matrix(a.tolist()) * mpmath.matrix(b.tolist())
    return np.array(out.tolist(), dtype=object)


@functools.lru_cache(maxsize=None)
def _schmidt(sig_s, sig_i, g2):
    """Float kernel and grids, and the extended-precision Schmidt data of R
    as object arrays of mpf: V, P = R V (column k is lam_k u_k) and lam."""
    config = make_symmetric_config(sig_s, sig_i, g2)
    grids = make_click_grids(config, POINTS)
    R = _engine_inputs(config, *grids)[0]
    with mpmath.workdps(DPS):
        r_mp = mpmath.matrix(R.tolist())
        eig, V = mpmath.eigsy(r_mp.T * r_mp)
        lam = np.array([mpmath.sqrt(max(e, 0)) for e in eig], dtype=object)
        P = np.array((r_mp * V).tolist(), dtype=object)
    return grids, R, np.array(V.tolist(), dtype=object), P, lam


def reference_click_probs(sig_s, sig_i, g2, efficiencies):
    """(engine inputs, reference probabilities as mpf) for one config."""
    grids, R, V, P, lam = _schmidt(sig_s, sig_i, g2)
    config = make_symmetric_config(sig_s, sig_i, g2, det_efficiencies=efficiencies)
    _, t1, t_signal, (a2, a3) = _engine_inputs(config, *grids)
    with mpmath.workdps(DPS):
        eye = np.diag(np.full(lam.size, mpmath.mpf(1), dtype=object))
        one = mpmath.mpf(1)
        sinh_over = np.array([mpmath.sinh(x) / x if x else one for x in lam], dtype=object)
        tanh_over = np.array([mpmath.tanh(x) / x if x else one for x in lam], dtype=object)
        tanh2 = np.array([mpmath.tanh(x) ** 2 for x in lam], dtype=object)
        sech2 = mpmath.fprod(1 / mpmath.cosh(x) ** 2 for x in lam)

        def project(basis, t):
            # basis^T diag(t) basis
            w = np.array([mpmath.mpf(x) for x in t], dtype=object)
            return _mul(basis.T, w[:, None] * basis)

        # both coupler arms see the one signal band, each at its share
        band = project(P, t_signal)
        idler_dark = eye - project(V, t1)
        # the signal band seen through tau (idler detected) or sinh (not detected)
        dark_tau_band = _mul(idler_dark, tanh_over[:, None] * band * tanh_over[None, :])
        sinh_band = sinh_over[:, None] * band * sinh_over[None, :]
        share = {2: mpmath.mpf(a2), 3: mpmath.mpf(a3)}
        share[23] = share[2] + share[3]
        base = eye - idler_dark * tanh2[None, :]
        q = {(1,): sech2 / _det(base)}
        for arms, key in (((2,), 2), ((3,), 3), ((2, 3), 23)):
            q[arms] = 1 / _det(eye + sinh_band * share[key])
            q[(1,) + arms] = sech2 / _det(base + dark_tau_band * share[key])
        p = {
            "p1": 1 - q[(1,)], "p2": 1 - q[(2,)], "p3": 1 - q[(3,)],
            "p12": 1 - q[(1,)] - q[(2,)] + q[(1, 2)],
            "p13": 1 - q[(1,)] - q[(3,)] + q[(1, 3)],
            "p23": 1 - q[(2,)] - q[(3,)] + q[(2, 3)],
            "p123": (1 - q[(1,)] - q[(2,)] - q[(3,)]
                     + q[(1, 2)] + q[(1, 3)] + q[(2, 3)] - q[(1, 2, 3)]),
        }
    return (R, t1, t_signal, (a2, a3)), p


def _relative_errors(case):
    inputs, ref = reference_click_probs(*case)
    counts = click_probs_from_pair_kernel(*inputs)
    return counts, {f: abs(getattr(counts, f) - float(ref[f])) / float(ref[f]) for f in FIELDS}


@pytest.mark.parametrize("case", [
    (1.0, 1.0, 1e-5, (0.05, 0.05, 0.05)),
    (1.0, 1.0, 1e-5, (0.5, 0.8, 0.8)),
    (0.3, 2.0, 5e-2, (0.5, 0.8, 0.8)),
    (2.0, 2.0, 1e-3, (1.0, 1.0, 1.0)),
    # unequal arms
    (1.0, 1.0, 1e-5, (0.5, 0.6, 0.9)),
    (0.3, 2.0, 5e-2, (0.5, 0.3, 0.8)),
])
def test_matches_extended_precision(case):
    _, err = _relative_errors(case)
    for field in FIELDS:
        assert err[field] <= 1e-13, (field, err[field])


@pytest.mark.parametrize("efficiencies", [(0.5, 0.8, 0.8), (0.5, 0.6, 0.9)])
def test_high_gain_matches_extended_precision(efficiencies):
    # gains at which a symplectic-eigenvalue check that measured only
    # rounding once raised OracleConditioningError
    _, err = _relative_errors((1.0, 1.0, 3.0, efficiencies))
    for field in FIELDS:
        assert err[field] <= 1e-13, (field, err[field])


def test_extreme_filter_mismatch():
    # a narrow signal filter against a broad idler one at low gain and low
    # efficiency: p23 and p123 sit 20-30 orders below the singles
    counts, err = _relative_errors((0.1, 3.0, 1e-5, (0.05, 0.05, 0.05)))
    assert 0.0 < counts.p123 < counts.p23 < counts.p2
    assert err["p23"] <= 1e-5 and err["p123"] <= 1e-5

