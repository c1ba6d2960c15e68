"""Test-statistic kernels for Pareto type I goodness of fit.

Seven statistics target the Pareto model directly. MP1 and MP2 measure
departures from the multiplicative memoryless property, the identity
S(s t) = S(s) S(t) satisfied by the Pareto survival function alone; both are
weighted integrals of a squared deviation and reduce to closed-form sums over
order statistics. KS, CV and AD are the classical distribution-function
discrepancies, ZA is a likelihood-ratio variant, and G is a Mellin-transform
statistic with an exponential weight controlled by a tuning constant ``a``.

Four more statistics test exponentiality of the log-transformed data, since
log X is exponential exactly when X is Pareto. An exponential fitted to log x
by maximum likelihood has the CDF 1 - x^(-beta_MLE), so ExpKS, ExpCV, ExpAD
and ExpZA are KS, CV, AD and ZA at the MLE: each is evaluated as its EDF twin
at the shape its caller passes, which is the MLE on every route that asks
for them.

Everything here is a pure function of the sample and a shape value. Which
shape to plug in, and how critical values or p-values are produced, is the
business of :mod:`paretogof.inference`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import DomainError, _as_sample, _check_beta, _row_power
from .estimation import estimate_mle

__all__ = [
    "TestTag",
    "TestKind",
    "StatisticValue",
    "MP1",
    "MP2",
    "KS",
    "CV",
    "AD",
    "ZA",
    "MELLIN_G",
    "EXP_KS",
    "EXP_CV",
    "EXP_AD",
    "EXP_ZA",
    "PARETO_KINDS",
    "EXP_KINDS",
    "ALL_KINDS",
    "mp1",
    "mp2",
    "ks",
    "cv",
    "ad",
    "za",
    "mellin_g",
    "exp_edf_suite",
    "order_weights",
    "statistic_rows",
]

_CLAMP_EPS = 1e-15


class TestTag(str, Enum):
    __test__ = False  # not a pytest class, despite the name

    MP1 = "MP1"
    MP2 = "MP2"
    KS = "KS"
    CV = "CV"
    AD = "AD"
    ZA = "ZA"
    MELLIN_G = "MellinG"
    EXP_KS = "ExpKS"
    EXP_CV = "ExpCV"
    EXP_AD = "ExpAD"
    EXP_ZA = "ExpZA"


_LOG_TAGS = frozenset({TestTag.AD, TestTag.ZA})


@dataclass(frozen=True)
class TestKind:
    """A statistic identity: the family tag plus, for MellinG, its tuning constant.

    ``tuning_a`` exists only for the Mellin statistic and defaults to 1 there;
    supplying it for any other tag is an error.
    """

    __test__ = False  # not a pytest class, despite the name

    tag: TestTag
    tuning_a: float | None = None

    def __post_init__(self) -> None:
        tag = TestTag(self.tag)
        object.__setattr__(self, "tag", tag)
        if tag is TestTag.MELLIN_G:
            a = 1.0 if self.tuning_a is None else float(self.tuning_a)
            if not np.isfinite(a) or a <= 0:
                raise DomainError(f"tuning constant must be positive, got {self.tuning_a!r}")
            object.__setattr__(self, "tuning_a", a)
        elif self.tuning_a is not None:
            raise DomainError(f"tuning_a applies only to the Mellin statistic, not {tag.value}")

    @property
    def is_exponentiality(self) -> bool:
        """True for the statistics applied to log-transformed data."""
        return self in _EDF_TWIN

    @property
    def label(self) -> str:
        if self.tag is TestTag.MELLIN_G:
            return "G" if self.tuning_a == 1.0 else f"G(a={self.tuning_a:g})"
        return self.tag.value

    def __str__(self) -> str:
        return self.label


MP1 = TestKind(TestTag.MP1)
MP2 = TestKind(TestTag.MP2)
KS = TestKind(TestTag.KS)
CV = TestKind(TestTag.CV)
AD = TestKind(TestTag.AD)
ZA = TestKind(TestTag.ZA)
MELLIN_G = TestKind(TestTag.MELLIN_G)
EXP_KS = TestKind(TestTag.EXP_KS)
EXP_CV = TestKind(TestTag.EXP_CV)
EXP_AD = TestKind(TestTag.EXP_AD)
EXP_ZA = TestKind(TestTag.EXP_ZA)

# canonical reporting order for the two suites
PARETO_KINDS = (KS, CV, AD, ZA, MELLIN_G, MP1, MP2)
EXP_KINDS = (EXP_KS, EXP_CV, EXP_AD, EXP_ZA)
ALL_KINDS = PARETO_KINDS + EXP_KINDS

# each exponentiality kind is its EDF twin: the exponential fitted to log x
# has the model CDF at the MLE
_EDF_TWIN = dict(zip(EXP_KINDS, (KS, CV, AD, ZA)))


@dataclass(frozen=True)
class StatisticValue:
    """One evaluated statistic.

    ``beta_used`` records the shape the statistic was evaluated at (for the
    exponentiality suite, the fitted exponential rate of the log data).
    ``clamped`` is set when a distribution-function value had to be pulled
    away from 0 or 1 before taking logs; the value is then a saturated
    approximation rather than an exact evaluation.
    """

    kind: TestKind
    value: float
    n: int
    beta_used: float
    clamped: bool = False


# ---------------------------------------------------------------------------
# shared pieces


def order_weights(n: int) -> np.ndarray:
    """Rank weights (n-j+1)^2 - (n-j)^2 = 2(n-j) + 1 for j = 1..n.

    These collapse the double sum over min(X_j, X_k) into a single sum over
    order statistics; they add up to n^2 exactly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    n = int(n)
    return 2.0 * (n - np.arange(1, n + 1, dtype=np.float64)) + 1.0


def _edf_sorted(pw: np.ndarray):
    """Clamped model CDF 1 - pw at the sorted values, given ``pw = xs ** -beta``,
    plus a per-row clamp indicator; the clamp is taken in place."""
    f = 1.0 - pw
    hit = (f < _CLAMP_EPS) | (f > 1.0 - _CLAMP_EPS)
    return np.clip(f, _CLAMP_EPS, 1.0 - _CLAMP_EPS, out=f), hit.any(axis=1)


# ---------------------------------------------------------------------------
# row kernels: x is (m, n) and xs its sorted rows, b the (m, 1) shape column,
# f the clamped CDF at xs, j the ranks 1..n and w the weights of order_weights.
# numpy reuses an expression's temporaries only in arrays of 256 KiB or more,
# which a short chunk's (m, n) arrays fall below, so the kernels update their
# temporaries in place, in the operations and order of the plain expressions
# (the same bits).


def _ks_rows(f: np.ndarray, logs, j: np.ndarray, n: int) -> np.ndarray:
    # max is exact, so one row reduction of the larger gap has the bits of two
    d = j / n - f
    np.maximum(d, f - (j - 1.0) / n, out=d)
    return d.max(axis=1)


def _cv_rows(f: np.ndarray, logs, j: np.ndarray, n: int) -> np.ndarray:
    d = f - (2.0 * j - 1.0) / (2.0 * n)
    d *= d
    return 1.0 / (12.0 * n) + np.sum(d, axis=1)


def _ad_rows(f: np.ndarray, logs, j: np.ndarray, n: int) -> np.ndarray:
    log_f, log_1mf = logs
    inner = log_f + log_1mf[:, ::-1]
    inner *= 2.0 * j - 1.0
    return -n - np.sum(inner, axis=1) / n


def _za_rows(f: np.ndarray, logs, j: np.ndarray, n: int) -> np.ndarray:
    log_f, log_1mf = logs
    t = log_f / (n - j + 0.5)
    t += log_1mf / (j - 0.5)
    return -np.sum(t, axis=1)


# EDF kernels on the clamped CDF f and, for AD and ZA, its logs (log f,
# log(1 - f))
_EDF_KERNELS = {
    TestTag.KS: _ks_rows, TestTag.CV: _cv_rows, TestTag.AD: _ad_rows, TestTag.ZA: _za_rows,
}


def _mp1_rows(x: np.ndarray, xs: np.ndarray, b: np.ndarray, w: np.ndarray,
              n: int) -> np.ndarray:
    t1 = (2.0 / (3.0 * n)) * np.sum(_row_power(x, -1.5 * b), axis=1)
    t2 = np.sum(w * _row_power(xs, -0.5 * b), axis=1) / n**2
    return t1 - t2 + 8.0 / 15.0


def _mp2_rows(x: np.ndarray, xs: np.ndarray, b: np.ndarray, w: np.ndarray, n: int,
              pw: np.ndarray, lx: np.ndarray) -> np.ndarray:
    """MP2 row-wise; ``pw`` is ``xs ** -b``, the power the model CDF takes, and
    ``lx`` is log x, which G takes too."""
    wpw = w * pw
    t1 = np.sum(wpw, axis=1) / n**2
    wpw *= np.log(xs)
    t2 = b[:, 0] / n**2 * np.sum(wpw, axis=1)
    del wpw
    x2 = _row_power(x, -2.0 * b)
    t = 1.0 - x2
    t /= 2.0 * b
    x2 *= lx
    t -= x2
    t3 = b[:, 0] / n * np.sum(t, axis=1)
    return 10.0 / 9.0 - t1 - t2 - t3


# G (see mellin_g): the sample size up to which the closed form is used, and
# the trapezoid rule's node count and cutoffs _TRAP_LO / r_max, _TRAP_HI / r_min
_CLOSED_MAX_N = 40
_TRAP_NODES = 80
_TRAP_LO = 1e-4
_TRAP_HI = 40.0


def _mellin_rows(lx: np.ndarray, beta: np.ndarray, a: float) -> np.ndarray:
    """The G statistic row-wise, given log x, by one of the two methods of
    :func:`mellin_g`, chosen by n alone: the closed form up to n = 40, the
    80-node trapezoid rule above it. Each row's nodes read that row alone, so
    a row has the same bits in any block. The pair check runs first, for
    every row.
    """
    c = 1.0 + a
    if np.any(c + 2.0 * lx.min(axis=1) <= 0.0):
        raise DomainError("1 + a + log x_j + log x_k must be positive for every pair")
    if lx.shape[1] <= _CLOSED_MAX_N:
        return _mellin_closed(lx, beta, c)
    return _mellin_trapezoid(lx, beta, c)


def _mellin_trapezoid(lx: np.ndarray, beta: np.ndarray, c: float) -> np.ndarray:
    """G by the trapezoid rule of :func:`mellin_g`, given log x and c = 1 + a.

    Each row's nodes are placed from that row's own largest and smallest
    log x. One (rows, n) buffer is reused for exp(-t_k log x) at every node,
    so a row costs n·80 exponentials.
    """
    m, n = lx.shape
    r_max = c + 2.0 * np.maximum(0.0, lx.max(axis=1))
    r_min = c + 2.0 * np.minimum(0.0, lx.min(axis=1))
    v_lo = np.log(_TRAP_LO / r_max)
    h = (np.log(_TRAP_HI / r_min) - v_lo) / (_TRAP_NODES - 1)
    t = np.exp(v_lo + np.arange(_TRAP_NODES)[:, None] * h)  # (nodes, rows)
    w = t * np.exp(-c * t)
    buf = np.empty_like(lx)
    acc = np.zeros(m)
    for tk, wk in zip(t, w):
        np.multiply(lx, -tk[:, None], out=buf)
        d = (beta + tk) * (np.exp(buf, out=buf).sum(axis=1) / n) - beta
        acc += wk * (d * d)
    return n * h * acc


def _mellin_closed(lx: np.ndarray, beta: np.ndarray, c: float) -> np.ndarray:
    """G by the closed form of :func:`mellin_g`, given log x and c = 1 + a.

    The pairs are taken rows-last, on the (n, rows) transpose L of log x,
    which is a free view when log x is column-major. For each offset
    d = 0…n - 1 the slab of pairs (j, j + d), j < n - d, is the contiguous
    row range (c + L[:n-d]) + L[d:], so every operation runs over whole
    (n - d, rows) blocks. h is evaluated into two scratch buffers allocated
    once, in the operations and order of ``u * (b² + u * (2b + 2u))`` with
    u = 1/s, and added elementwise into one (n, rows) accumulator, whose
    entry (j, i) holds row i's terms of the pairs (j, k > j) and half its
    term of the pair (j, j): each off-diagonal pair counts twice, and the
    halving and the final doubling are exact. The accumulator's entries and
    the single terms are then summed over j in an explicit loop, so each
    row's sums run in the same order in a block of any size, and a row has
    the same bits in any block.
    """
    m, n = lx.shape
    L = np.ascontiguousarray(lx.T)
    b2 = beta * beta
    two_b = 2.0 * beta

    def h_into(u, t):
        """h(s) into t for s held in u; u is left holding 1/s."""
        np.divide(1.0, u, out=u)
        np.multiply(2.0, u, out=t)
        np.add(two_b, t, out=t)
        np.multiply(u, t, out=t)
        np.add(b2, t, out=t)
        return np.multiply(u, t, out=t)

    buf_u = np.empty(n * m)
    buf_h = np.empty((n - 1) * m)
    acc = np.empty((n, m))
    for d in range(n):
        u = buf_u[:(n - d) * m].reshape(n - d, m)
        np.add(c, L[:n - d], out=u)
        u += L[d:]
        if d:
            acc[:n - d] += h_into(u, buf_h[:(n - d) * m].reshape(n - d, m))
        else:
            h_into(u, acc)
            acc *= 0.5
    paired = np.zeros(m)
    single = np.zeros(m)
    for j in range(n):
        paired += acc[j]
        r = c + L[j]
        single += beta / r + 1.0 / (r * r)
    return 2.0 * paired / n - 2.0 * beta * single + n * beta * beta / c


# ---------------------------------------------------------------------------
# batch evaluation


def _unique_kinds(kinds) -> list:
    """Coerce each entry to :class:`TestKind` and drop repeats, keeping first-seen order."""
    out = []
    for k in kinds:
        k = k if isinstance(k, TestKind) else TestKind(k)
        if k not in out:
            out.append(k)
    return out


def _evaluate(kinds, x: np.ndarray, beta):
    """:func:`statistic_rows` plus, for each log-taking EDF kind (AD, ZA and
    their exponentiality twins), the per-row flag of a clamped CDF value."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a (reps, n) matrix")
    m, n = x.shape
    # each Exp kind is its EDF twin at beta, and each distinct kind runs once
    twin = {k: _EDF_TWIN.get(k, k) for k in _unique_kinds(kinds)}
    kinds = list(dict.fromkeys(twin.values()))

    if beta is None:
        raise ValueError("beta is required for every statistic")
    b = np.asarray(beta, dtype=np.float64)
    if b.ndim == 0:
        b = np.full(m, float(b))
    elif b.shape != (m,):
        raise ValueError(f"beta must be scalar or shape ({m},), got {b.shape}")
    _check_beta(b)

    xs = None
    if any(k.tag is not TestTag.MELLIN_G for k in kinds):
        xs = np.sort(x, axis=1)
    # the model CDF and MP2 raise the sorted rows to the same column, once
    pw = None
    if any(k.tag is TestTag.MP2 or k.tag in _EDF_KERNELS for k in kinds):
        pw = _row_power(xs, -b[:, None])

    out = {}
    clamped = {}
    # MP2 and G take the same log x; up to n = 40 it is written rows-last,
    # an (n, m) array, whose transpose G's closed form reads without a copy
    lx = None
    if any(k.tag in (TestTag.MP2, TestTag.MELLIN_G) for k in kinds):
        lx = np.log(x.T, order="C").T if n <= _CLOSED_MAX_N else np.log(x)
    j = np.arange(1, n + 1, dtype=np.float64)
    w = order_weights(n)
    for k in kinds:
        if k.tag is TestTag.MP1:
            out[k] = _mp1_rows(x, xs, b[:, None], w, n)
        elif k.tag is TestTag.MP2:
            out[k] = _mp2_rows(x, xs, b[:, None], w, n, pw, lx)
    # one CDF table, read by every EDF kind; MP1 and MP2 run first, so the
    # sorted rows and their power are freed once it is built, before its
    # logs are taken
    edf = [k for k in kinds if k.tag in _EDF_KERNELS]
    f, hit = _edf_sorted(pw) if edf else (None, None)
    del xs, pw
    # KS and CV run before the logs are taken, so that KS's two temporaries
    # do not stack on them
    logs = None
    for k in sorted(edf, key=lambda k: k.tag in _LOG_TAGS):
        if k.tag in _LOG_TAGS:
            if logs is None:
                logs = (np.log(f), np.log1p(-f))
            clamped[k] = hit
        out[k] = _EDF_KERNELS[k.tag](f, logs, j, n)
    del f, logs
    # G's pair sums hold three (m, n) buffers, so G runs last, once the
    # sorted rows and the CDF table are freed
    for k in kinds:
        if k.tag is TestTag.MELLIN_G:
            out[k] = _mellin_rows(lx, b, k.tuning_a)
    return ({k: out[t] for k, t in twin.items()},
            {k: clamped[t] for k, t in twin.items() if t in clamped})


def statistic_rows(kinds, x: np.ndarray, beta=None) -> dict:
    """Evaluate statistics on every row of a (reps, n) sample matrix.

    Parameters
    ----------
    kinds:
        Iterable of :class:`TestKind`. Duplicates collapse; insertion order
        is kept in the result.
    x:
        Matrix of samples, one replication per row, all values above 1.
    beta:
        Shape to plug into every statistic, scalar or one value per row.
        Each exponentiality kind is its EDF twin at this shape (ExpKS is KS,
        and so on), which is the exponential fit to log x when ``beta`` is
        the row's MLE.

    Returns
    -------
    dict mapping each kind to a length-``reps`` array of statistic values.

    Notes
    -----
    Each table is built once and read by every kind that needs it: the
    sorted rows; their power x_(j)^(-beta), for the model CDF and MP2; one
    clamped CDF table for KS, CV, AD and ZA, and its log F and log(1 - F)
    for AD and ZA; and log x, for MP2 and every G. An exponentiality kind
    and its EDF twin are evaluated once and share the twin's column.

    Degenerate CDF values are clamped to [1e-15, 1 - 1e-15] silently here;
    the single-sample wrappers report a flag instead.
    """
    return _evaluate(kinds, x, beta)[0]


# ---------------------------------------------------------------------------
# single-sample interface


def _single(kinds, sample, beta: float) -> list:
    """Evaluate ``kinds`` on one sample as a one-row batch at shape ``beta``."""
    values, clamped = _evaluate(kinds, sample.values[None, :], beta)
    return [StatisticValue(k, float(v[0]), sample.n, beta,
                           bool(clamped[k][0]) if k in clamped else False)
            for k, v in values.items()]


def _single_pareto(kind: TestKind, sample, beta: float) -> StatisticValue:
    return _single([kind], _as_sample(sample), float(beta))[0]


def ks(sample, beta: float) -> StatisticValue:
    """Kolmogorov-Smirnov sup-distance between the empirical and model CDFs."""
    return _single_pareto(KS, sample, beta)


def cv(sample, beta: float) -> StatisticValue:
    """Cramér-von Mises integrated squared CDF discrepancy."""
    return _single_pareto(CV, sample, beta)


def ad(sample, beta: float) -> StatisticValue:
    """Anderson-Darling tail-weighted CDF discrepancy."""
    return _single_pareto(AD, sample, beta)


def za(sample, beta: float) -> StatisticValue:
    """Likelihood-ratio EDF statistic with 1/(j - 1/2) spacings."""
    return _single_pareto(ZA, sample, beta)


def mp1(sample, beta: float) -> StatisticValue:
    """First memoryless-property statistic.

    Integrates the squared gap between the empirical survival function
    evaluated at t^2 and the fitted survival function squared, weighted by
    the fitted density. The closed form below needs one pass over the sample
    and one over the order statistics:

        MP1 = (2/3n) Σ X_j^(-3β/2) - (1/n²) Σ w_j X_(j)^(-β/2) + 8/15

    with the rank weights w_j of :func:`order_weights`.
    """
    return _single_pareto(MP1, sample, beta)


def mp2(sample, beta: float) -> StatisticValue:
    """Second memoryless-property statistic.

    Same idea as :func:`mp1` but integrating the squared gap over both
    factors of the product s·t, which weights departures differently.
    Evaluates the closed-form reduction, again O(n) after sorting.
    """
    return _single_pareto(MP2, sample, beta)


def mellin_g(sample, beta: float, a: float = 1.0) -> StatisticValue:
    """Mellin-transform statistic G with weight exp(-(1 + a) t).

    Measures n ∫ ((β + t) M_n(t) - β)² w(t) dt where M_n(t) is the empirical
    Mellin transform (1/n) Σ X_j^(-t); under the model the population version
    of (β + t) M(t) is the constant β. Every c + log X_j + log X_k, with
    c = 1 + a, must be positive. Each sample takes one of two methods.

    The closed form expands the square. With r_j = c + log X_j and
    h(s) = ∫ (β + t)² exp(-s t) dt = β²/s + 2β/s² + 2/s³,

        G = (1/n) Σ_jk h(r_j + log X_k) - 2β Σ_j (β/r_j + 1/r_j²) + nβ²/c.

    The pair sum is symmetric, so it is evaluated over j <= k only, the
    off-diagonal pairs counted twice: about n²/2 terms, O(n²) per sample.
    The pairs are taken by offset d = k - j, for every sample of a chunk at
    once: with log x held rows-last, the pairs at one offset form one
    contiguous slab, so each array operation covers n - d terms of every
    sample rather than one sample's n - 1 - j. Every slab is written into
    the same two scratch buffers, since fresh temporaries that large would
    be mapped and unmapped by the allocator on every offset, and each
    sample's terms are summed in one fixed order, so a sample has the same
    bits in a chunk of any size.

    Above n = 40 the defining integral is taken by the trapezoid rule in
    v = log t, which converges exponentially for integrands of this kind
    (Trefethen & Weideman, SIAM Review 56, 2014). With r_max = c +
    2 max(0, max log X) and r_min = c + 2 min(0, min log X), the fastest and
    slowest rates at which the integrand's terms decay, a sample gets K = 80
    nodes t_k = exp(v_k), equally spaced by h in v on
    [log(10⁻⁴/r_max), log(40/r_min)]:

        G ≈ n h Σ_k t_k exp(-c t_k) ((β + t_k) M_n(t_k) - β)²,

    n·K exponentials per sample. Below the lower cutoff the integrand is
    O(t²), so the part left out is of order (10⁻⁴)³ of G; above the upper
    one every term has decayed by e^(-40). The terms are squares, so nothing
    cancels, whereas the closed form loses digits where G is small next to
    β². Against an mpmath integral of the definition, on adversarial samples
    at n = 41, 200 and 1000 and a = 0.1, 1 and 5 (pivotal; raw Pareto(0.3)
    and Pareto(0.05) at their MLE, max log X up to 118; one value of 1e300;
    some X < 1), the rule stayed within 10⁻¹³ relative. On Pareto(50)
    samples, x within a few percent of 1, rounding in (β + t) M_n(t) - β
    sets the floor: the rule was off by up to 9·10⁻¹⁰ and the closed form
    by up to 5·10⁻². With 64 nodes the Pareto(0.05) sample at n = 1000 and
    a = 0.1 was off by 1.7·10⁻¹⁰.

    The method is chosen by n alone: the closed form up to n = 40 and the
    rule above it, whatever the sample. At the chunk sizes of a Monte Carlo
    run on 2 vCPUs, the closed form took 0.2–0.3 of the rule's time at
    n = 30 to 41, 0.4–0.6 at 50 to 60, 0.8 at 80, 0.9–1.0 at 100, 1.5 at
    150 and 9–13 times it at 1000. Between n = 41 and about 100 the rule is
    kept for its accuracy, not its speed.
    """
    kind = MELLIN_G if a == 1.0 else TestKind(TestTag.MELLIN_G, a)
    return _single_pareto(kind, sample, beta)


def exp_edf_suite(sample) -> list:
    """EDF tests of exponentiality applied to the log-transformed sample.

    log X is exponential exactly when X is Pareto, so KS, CV, AD and ZA with
    a fitted exponential rate test the same hypothesis from the log scale.
    The fitted rate appears as ``beta_used`` on each result.
    """
    sample = _as_sample(sample)
    return _single(EXP_KINDS, sample, estimate_mle(sample).value)
