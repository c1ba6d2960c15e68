"""Independent slow-path oracles used by the test suite.

The closed-form statistics in the package collapse integrals into sums over
order statistics or pairs. The functions here evaluate the defining integrals
by quadrature instead, split at the integrand's jump points with analytic
tails: adaptive quadrature for MP1, fixed Gauss–Legendre rules on the smooth
pieces of MP2's double integral, and multi-precision quadrature of the
non-negative integrand for G. Agreement is evidence that the algebraic
reductions are right and not merely self-consistent.
"""
from __future__ import annotations

import numpy as np
from mpmath import mp
from scipy.integrate import quad


def empirical_survival(x: np.ndarray, u: float) -> float:
    return float(np.mean(x > u))


def mp1_by_quadrature(x: np.ndarray, beta: float) -> float:
    """Integral of (S_n(t^2) - t^(-2 beta))^2 beta t^(-beta-1) over t > 1.

    S_n(t^2) jumps where t crosses sqrt(X_(j)); beyond the largest root the
    empirical survival is zero and the tail integrates to T^(-5 beta)/5.
    """
    x = np.asarray(x, dtype=np.float64)
    b = float(beta)
    roots = np.sqrt(np.sort(x))

    def f(t):
        return (empirical_survival(x, t * t) - t ** (-2.0 * b)) ** 2 * b * t ** (-b - 1.0)

    hi = roots[-1]
    interior = [p for p in roots[:-1] if p > 1.0]
    if hi > 1.0:
        val, _ = quad(f, 1.0, hi, points=interior, limit=400,
                      epsabs=1e-13, epsrel=1e-12)
    else:
        val = 0.0
    return val + hi ** (-5.0 * b) / 5.0


# Gauss–Legendre rule of the MP2 oracle, applied to each smooth piece in log scale
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _log_gauss_legendre(edges: np.ndarray):
    """Nodes and weights of the Gauss–Legendre rule on each piece [e_k, e_k+1].

    The rule runs in v = log t, where the power-law integrands are smooth and
    nearly polynomial on each piece; the weights carry the Jacobian dt = t dv.
    ``edges`` is (..., p + 1) and ascending along its last axis; nodes and
    weights are (..., p, N). A zero-length piece gets zero weight.
    """
    lo, hi = np.log(edges[..., :-1, None]), np.log(edges[..., 1:, None])
    half = (hi - lo) / 2.0
    t = np.exp(lo + half * (1.0 + _GL_NODES))
    return t, half * _GL_WEIGHTS * t


def mp2_by_quadrature(x: np.ndarray, beta: float) -> float:
    """Double integral of (S_n(st) - (st)^(-beta))^2 (st)^(-beta-1) beta^2.

    Inner integral over t for fixed s, split at the jump points X_(j)/s with
    an analytic tail beyond X_(n)/s; outer integral over s, split at X_(j),
    with tail X_(n)^(-3 beta)/9. Both integrals apply a fixed Gauss–Legendre
    rule to every smooth piece, the inner one for all outer nodes at once:
    jump points outside (1, X_(n)/s) are clipped onto its ends, which leaves
    zero-length pieces. S_n is counted with ``np.searchsorted``.
    """
    x = np.asarray(x, dtype=np.float64)
    b = float(beta)
    xs = np.sort(x)
    n = xs.size
    xmax = xs[-1]
    if xmax <= 1.0:
        return xmax ** (-3.0 * b) / 9.0
    s, ws = _log_gauss_legendre(np.concatenate([[1.0], xs[(xs > 1.0) & (xs < xmax)], [xmax]]))
    s, ws = s.ravel(), ws.ravel()
    T = xmax / s
    jumps = np.clip(xs / s[:, None], 1.0, T[:, None])
    t, wt = _log_gauss_legendre(np.concatenate([np.ones((s.size, 1)), jumps], axis=1))
    st = s[:, None, None] * t
    surv = (n - np.searchsorted(xs, st, side="right")) / n
    g = (surv - st ** (-b)) ** 2 * b * t ** (-b - 1.0)
    inner = np.sum(g * wt, axis=(1, 2)) + s ** (-2.0 * b) * T ** (-3.0 * b) / 3.0
    return float(np.sum(inner * b * s ** (-b - 1.0) * ws)) + xmax ** (-3.0 * b) / 9.0


def mellin_g_by_integral(x: np.ndarray, beta: float, a: float = 1.0) -> float:
    """n ∫ ((β + t) M_n(t) - β)² exp(-(1 + a) t) dt over t > 0, with mpmath.

    M_n(t) = (1/n) Σ x_j^(-t) is the empirical Mellin transform. The
    integrand is non-negative and smooth, so tanh-sinh quadrature at 45
    digits gives the defining integral without expanding the square.
    """
    with mp.workdps(45):
        logs = [mp.log(mp.mpf(v)) for v in np.asarray(x, dtype=np.float64).tolist()]
        n = len(logs)
        b = mp.mpf(float(beta))
        c = 1 + mp.mpf(float(a))

        def f(t):
            m = mp.fsum(mp.exp(-t * lg) for lg in logs) / n
            return ((b + t) * m - b) ** 2 * mp.exp(-c * t)

        return float(n * mp.quad(f, [0, 1, 10, mp.inf]))
