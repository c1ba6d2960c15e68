"""Test-statistic kernels for Pareto type I goodness of fit.

Seven statistics target the Pareto model directly. MP1 and MP2 measure
departures from the multiplicative memoryless property, the identity
S(s t) = S(s) S(t) satisfied by the Pareto survival function alone; both are
weighted integrals of a squared deviation and reduce to closed-form sums over
order statistics. KS, CV and AD are the classical distribution-function
discrepancies, ZA is a likelihood-ratio variant, and G is a Mellin-transform
statistic with an exponential weight controlled by a tuning constant ``a``.

Four more statistics test exponentiality of the log-transformed data, since
log X is exponential exactly when X is Pareto. They fit the exponential rate
by maximum likelihood internally, so they take no shape argument.

Everything here is a pure function of the sample (plus a shape value for the
Pareto-model statistics). Which shape to plug in, and how critical values or
p-values are produced, is the business of :mod:`paretogof.inference`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from enum import Enum

import numpy as np

from .distributions import DomainError, _as_sample, _check_beta, _row_power
from .estimation import estimate_mle, mle_rows

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


_EXP_TAGS = frozenset(
    {TestTag.EXP_KS, TestTag.EXP_CV, TestTag.EXP_AD, TestTag.EXP_ZA}
)
_LOG_TAGS = frozenset(
    {TestTag.AD, TestTag.ZA, TestTag.EXP_AD, TestTag.EXP_ZA}
)


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
        return self.tag in _EXP_TAGS

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


@lru_cache(maxsize=64)
def _order_weights(n: int) -> np.ndarray:
    j = np.arange(1, n + 1, dtype=np.float64)
    w = (n - j + 1.0) ** 2 - (n - j) ** 2
    w.flags.writeable = False
    return w


def order_weights(n: int) -> np.ndarray:
    """Rank weights (n-j+1)^2 - (n-j)^2 for j = 1..n.

    These collapse the double sum over min(X_j, X_k) into a single sum over
    order statistics; they add up to n^2 exactly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _order_weights(int(n)).copy()


def _edf_sorted(pw: np.ndarray):
    """Clamped model CDF 1 - pw at the sorted values, given ``pw = xs ** -beta``,
    plus a per-row clamp indicator."""
    f = 1.0 - pw
    hit = (f < _CLAMP_EPS) | (f > 1.0 - _CLAMP_EPS)
    return np.clip(f, _CLAMP_EPS, 1.0 - _CLAMP_EPS), hit.any(axis=1)


# ---------------------------------------------------------------------------
# row kernels: x is (m, n), beta is (m,), f is the clamped CDF at sorted rows
# and j the ranks 1..n


def _ks_rows(f: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    return np.maximum((j / n - f).max(axis=1), (f - (j - 1.0) / n).max(axis=1))


def _cv_rows(f: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    return 1.0 / (12.0 * n) + np.sum((f - (2.0 * j - 1.0) / (2.0 * n)) ** 2, axis=1)


def _ad_rows(f: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    inner = (2.0 * j - 1.0) * (np.log(f) + np.log1p(-f[:, ::-1]))
    return -n - np.sum(inner, axis=1) / n


def _za_rows(f: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    return -np.sum(
        np.log(f) / (n - j + 0.5) + np.log1p(-f) / (j - 0.5), axis=1
    )


# EDF kernels on the clamped CDF; the Exp* tags reuse them on the fitted log scale
_EDF_KERNELS = {
    TestTag.KS: _ks_rows, TestTag.CV: _cv_rows, TestTag.AD: _ad_rows, TestTag.ZA: _za_rows,
    TestTag.EXP_KS: _ks_rows, TestTag.EXP_CV: _cv_rows,
    TestTag.EXP_AD: _ad_rows, TestTag.EXP_ZA: _za_rows,
}


def _mp1_rows(x: np.ndarray, xs: np.ndarray, beta: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    b = beta[:, None]
    w = _order_weights(n)
    t1 = (2.0 / (3.0 * n)) * np.sum(_row_power(x, -1.5 * b), axis=1)
    t2 = np.sum(w * _row_power(xs, -0.5 * b), axis=1) / n**2
    return t1 - t2 + 8.0 / 15.0


def _mp2_rows(x: np.ndarray, xs: np.ndarray, beta: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """MP2 row-wise; ``pw`` is ``xs ** -beta``, the power the model CDF takes."""
    n = x.shape[1]
    b = beta[:, None]
    w = _order_weights(n)
    t1 = np.sum(w * pw, axis=1) / n**2
    t2 = beta / n**2 * np.sum(w * pw * np.log(xs), axis=1)
    x2 = _row_power(x, -2.0 * b)
    t3 = beta / n * np.sum((1.0 - x2) / (2.0 * b) - x2 * np.log(x), axis=1)
    return 10.0 / 9.0 - t1 - t2 - t3


# G (see mellin_g): the sample size up to which the closed form is used, and
# the trapezoid rule's node count and cutoffs _TRAP_LO / r_max, _TRAP_HI / r_min
_CLOSED_MAX_N = 40
_TRAP_NODES = 80
_TRAP_LO = 1e-4
_TRAP_HI = 40.0


def _mellin_rows(x: np.ndarray, beta: np.ndarray, a: float) -> np.ndarray:
    """The G statistic row-wise, by one of the two methods of :func:`mellin_g`,
    chosen by n alone: the closed form up to n = 40, the 80-node trapezoid
    rule above it. Each row's nodes read that row alone, so a row has the
    same bits in any block. The pair check runs first, for every row.
    """
    lx = np.log(x)
    c = 1.0 + a
    if np.any(c + 2.0 * lx.min(axis=1) <= 0.0):
        raise DomainError("1 + a + log x_j + log x_k must be positive for every pair")
    if x.shape[1] <= _CLOSED_MAX_N:
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

    The pair sum runs over j < k one column j at a time. Column j's
    (rows, n - 1 - j) slab is a contiguous view into one of two scratch
    buffers allocated once, and h is evaluated into it with ``out=``, in the
    same operations and order as ``u * (b² + u * (2b + 2u))`` with u = 1/s, so
    every value is bit-identical to evaluating it into fresh temporaries.
    A chunk's fresh slabs, up to about 0.5 MB, would be mapped, zero-filled
    page by page and unmapped again on every column.
    """
    m, n = lx.shape
    b = beta[:, None]
    b2 = b * b
    two_b = 2.0 * b

    def h_into(u, t):
        """h(s) into t for s held in u; u is left holding 1/s."""
        np.divide(1.0, u, out=u)
        np.multiply(2.0, u, out=t)
        np.add(two_b, t, out=t)
        np.multiply(u, t, out=t)
        np.add(b2, t, out=t)
        return np.multiply(u, t, out=t)

    r = c + lx
    s = r + lx
    paired = h_into(s, np.empty_like(s)).sum(axis=1)
    single = 2.0 * beta * (b / r + 1.0 / (r * r)).sum(axis=1)
    del r, s  # freed before the scratch buffers, so the peak does not grow
    buf_u = np.empty(m * (n - 1))
    buf_h = np.empty(m * (n - 1))
    for j in range(n - 1):
        k = n - 1 - j
        u = buf_u[:m * k].reshape(m, k)
        np.add((c + lx[:, j])[:, None], lx[:, j + 1:], out=u)
        paired += 2.0 * h_into(u, buf_h[:m * k].reshape(m, k)).sum(axis=1)
    return paired / n - single + n * beta * beta / c


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
    their exponentiality versions), the per-row flag of a clamped CDF value."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a (reps, n) matrix")
    m, n = x.shape
    wanted = _unique_kinds(kinds)
    pareto_kinds = [k for k in wanted if not k.is_exponentiality]

    b = None
    if pareto_kinds:
        if beta is None:
            raise ValueError("beta is required for the Pareto-model statistics")
        b = np.asarray(beta, dtype=np.float64)
        if b.ndim == 0:
            b = np.full(m, float(b))
        elif b.shape != (m,):
            raise ValueError(f"beta must be scalar or shape ({m},), got {b.shape}")
        if np.any(~np.isfinite(b)) or np.any(b <= 0.0):
            raise DomainError("beta values must be positive and finite")

    xs = None
    if any(k.tag is not TestTag.MELLIN_G for k in wanted):
        xs = np.sort(x, axis=1)
    # the model CDF and MP2 raise the sorted rows to the same column, once
    pw = None
    if any(k.tag is TestTag.MP2 or (k.tag in _EDF_KERNELS and not k.is_exponentiality)
           for k in wanted):
        pw = _row_power(xs, -b[:, None])

    out = {}
    clamped = {}
    edf = {}  # False for the model CDF, True for the fitted log-scale one
    j = np.arange(1, n + 1, dtype=np.float64)
    for k in wanted:
        tag = k.tag
        if tag in _EDF_KERNELS:
            exp = k.is_exponentiality
            if exp not in edf:
                edf[exp] = _edf_sorted(_row_power(xs, -mle_rows(x)[:, None]) if exp else pw)
            f, hit = edf[exp]
            out[k] = _EDF_KERNELS[tag](f, j, n)
            if tag in _LOG_TAGS:
                clamped[k] = hit
        elif tag is TestTag.MP1:
            out[k] = _mp1_rows(x, xs, b)
        elif tag is TestTag.MP2:
            out[k] = _mp2_rows(x, xs, b, pw)
    # G's pair sums hold several (m, n) arrays and set a block's peak memory,
    # so G runs last, once the sorted rows and the CDF tables are freed
    del xs, pw, edf
    for k in wanted:
        if k.tag is TestTag.MELLIN_G:
            out[k] = _mellin_rows(x, b, k.tuning_a)
    return {k: out[k] for k in wanted}, clamped


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
        Shape to plug into the Pareto-model statistics, scalar or one value
        per row. The exponentiality statistics ignore it and fit their own
        rate from the log data.

    Returns
    -------
    dict mapping each kind to a length-``reps`` array of statistic values.

    Notes
    -----
    Sorting, distribution-function values and log tables are shared across
    kinds, which is what makes large critical-value simulations affordable.
    Degenerate CDF values are clamped to [1e-15, 1 - 1e-15] silently here;
    the single-sample wrappers report a flag instead.
    """
    return _evaluate(kinds, x, beta)[0]


# ---------------------------------------------------------------------------
# single-sample interface


def _single(kinds, sample, beta, beta_used) -> list:
    """Evaluate ``kinds`` on one sample as a one-row batch."""
    values, clamped = _evaluate(kinds, sample.values[None, :], beta)
    return [StatisticValue(k, float(v[0]), sample.n, beta_used,
                           bool(clamped[k][0]) if k in clamped else False)
            for k, v in values.items()]


def _single_pareto(kind: TestKind, sample, beta: float) -> StatisticValue:
    sample = _as_sample(sample)
    beta = _check_beta(beta)
    return _single([kind], sample, beta, beta)[0]


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
    The pairs are taken one column at a time, and every column's terms are
    written into the same two scratch buffers. The closed form runs at
    n <= 40, on chunks of 2**16 words whose first column slabs hold about
    0.5 MB, and fresh temporaries that large would be mapped and unmapped by
    the allocator on every column: on 2 vCPUs, best of 15, one such chunk
    took about 10 ms with the buffers at n = 20, 30 and 40, against 19, 14
    and 21 ms with fresh temporaries, and about 220 minor page faults
    against 2 600–5 700. The values are bit-identical.

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
    run on 2 vCPUs, the closed form took 0.4–0.6 of the rule's time at
    n = 30 to 41, 0.6–0.9 at 50 to 80, 1.4–1.5 at 100 and 9–15 times it at
    1000. Between n = 41 and about 90 the rule is
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
    return _single(EXP_KINDS, sample, None, estimate_mle(sample).value)
