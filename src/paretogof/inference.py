"""Decision machinery: critical values, bootstrap p-values, and power estimation.

Two estimation routes run through everything here and they are not
interchangeable.

MLE route
    Raising the data to the estimated shape gives a sample whose fitted shape
    is exactly one, and under the null the transformed sample's law is free of
    the true shape. Statistics computed on the transformed sample at beta = 1
    are therefore exact pivots, so critical values can be simulated once from
    P(1) and tabulated. For every statistic except MellinG this evaluation is
    algebraically the same as plugging the raw estimate in directly; for
    MellinG the two differ, the transformed-sample value is what decisions
    use, and the plug-in value is what gets reported as "the statistic".

MME route
    The moment estimate admits no such pivot, so critical values depend on
    the unknown shape and must be bootstrapped: test decisions come from
    resampling P(beta_mme). Asking for a tabulated critical value under MME
    raises :class:`UnsupportedPathError` pointing at the bootstrap routines.

Power estimation mirrors the two routes: a fixed-critical-value loop for MLE
and the warp-speed bootstrap (one bootstrap sample per Monte Carlo sample,
pooled quantile) for either estimator.

Replication ``r`` of any loop owns a fixed substream of the supplied
:class:`~paretogof.distributions.RandomStream`, so results are reproducible
bit for bit regardless of execution order or worker count.

Every route decides in one step, :func:`_decide`: pivotal statistics on the
MLE route, plug-in ones on the MME route, each bootstrap resample refitted
with the data's estimator. The null, fixed-critical-value and bootstrap
routes are each one pool of decided rows, :func:`_pool`; warp speed decides
twice per chunk. :func:`_row_blocks` alone sizes a chunk, ``max(1, 2**16 //
n)`` rows, which the Philox kernel draws in one pass, each row from its own
substream; every row-wise power is evaluated the same way in a block of any
size. Only the statistic columns, joined in row order, grow with the
replication count, and every number equals a whole-block run.

Every route runs its chunks one after another on the calling thread, which
writes their columns in row order, so a process runs its routes on one
thread. ``power --jobs`` builds its critical-value pool on the calling
process and then runs its cells there and on worker processes, each of
which runs its routes the same way, so every column is the same, bit for
bit, at any CPU count and any job count.

No row is ever redrawn because its shape estimate is degenerate. A
non-finite or non-positive estimate reaches the check of whatever consumes
it (the bootstrap sampler, the statistics' shape check, or
:class:`~paretogof.estimation.ShapeEstimate`), which raises
:class:`~paretogof.distributions.DomainError`; a power study records such a
cell as failed.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .distributions import (
    DomainError,
    RandomStream,
    _as_sample,
    _row_power,
    alternative_rows,
    bootstrap_rows,
    pareto_rows,
)
from .estimation import EstimatorMethod, estimate_shape, mle_rows, mme_rows
from .statistics import TestKind, _unique_kinds, statistic_rows

__all__ = [
    "UnsupportedPathError",
    "ConfigurationError",
    "CriticalValueTable",
    "TestResult",
    "PowerEstimate",
    "upper_quantile",
    "pivotal_statistic_rows",
    "null_critical_value",
    "null_critical_values",
    "power_fixed_critical",
    "power_fixed_critical_many",
    "warp_speed_power",
    "warp_speed_power_many",
    "bootstrap_pvalue",
    "bootstrap_pvalue_many",
]

_TABLE_FORMAT = "paretogof-critical-values v1"
_TABLE_COLUMNS = ["kind", "estimator", "n", "alpha", "reps", "seed", "value"]
DEFAULT_ALPHAS = (0.01, 0.05, 0.10)
# float64 words per chunk of rows, one pass of the Philox kernel
_PHILOX_BLOCK = 1 << 16
_CHUNK_ARRAYS = 8 * _PHILOX_BLOCK * 8  # bytes of 8 arrays of 2**16 float64 words: 4 MiB


class UnsupportedPathError(ValueError):
    """A tabulated-critical-value request on a route that has no pivot."""


class ConfigurationError(LookupError):
    """A required critical-value entry or table resource is missing."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def upper_quantile(values: np.ndarray, alpha: float) -> float:
    """Empirical upper quantile: the ceil((1 - alpha) * m)-th order statistic.

    The index is computed in floating point and clipped to [1, m], so
    ``alpha = 1`` returns the minimum. This convention is fixed so that a
    given seed reproduces identical critical values everywhere.
    """
    alpha = _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    m = values.size
    if m == 0:
        raise ValueError("need at least one value")
    k = min(max(math.ceil((1.0 - alpha) * m), 1), m)
    return float(np.partition(values, k - 1)[k - 1])


# ---------------------------------------------------------------------------
# evaluation conventions


@functools.cache
def _keep_chunk_heap() -> None:
    """Keep the heap a route's chunks free for the next chunk (glibc only).

    A chunk holds arrays of up to ``_PHILOX_BLOCK`` float64 words, 512 KiB
    each; the Philox kernel rounds each row up to a multiple of four words,
    so its arrays hold at most four times that, at n = 1. glibc's default
    policy returns the freed top of the heap to the system after each chunk,
    so the next chunk faults its pages in again.
    :func:`_row_blocks` calls this the first time a route runs more than one
    chunk, and the cache makes that once per process. The setting is
    process-wide, and bounded: arrays below 4 MiB, 8 such chunk arrays, come
    from the heap, so arrays of 4 MiB or more are still mapped, and at most
    8 MiB of free heap top is kept. Both thresholds are set, because setting
    either one turns off glibc's dynamic threshold. Forked workers inherit
    the policy. Elsewhere, or where libc has no ``mallopt``, this does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, _CHUNK_ARRAYS)  # M_MMAP_THRESHOLD
    mallopt(-1, 2 * _CHUNK_ARRAYS)  # M_TRIM_THRESHOLD


def _row_blocks(block, reps: int, n: int) -> tuple:
    """Run a route's ``reps`` rows of size ``n`` as ``block(lo, hi)`` chunks.

    ``block`` draws, estimates and evaluates rows ``lo`` to ``hi`` and returns
    a tuple of dicts, kind to per-row statistics; the result is that tuple
    with every column over all ``reps`` rows, in row order. Every sampler,
    estimator and kernel is row-independent, so the columns equal one
    whole-block evaluation however the rows are chunked.

    The chunks hold ``_PHILOX_BLOCK // n`` rows but at least one, the last
    chunk holding what is left. This is the one place that sizes a chunk,
    and the Philox kernel draws each chunk in one pass. The chunks run one
    after another on the calling thread, which writes each chunk's columns
    into their row range as it returns, so the first error in row order is
    raised and no later chunk starts.
    """
    rows = max(1, _PHILOX_BLOCK // max(n, 1))
    if reps > rows:
        _keep_chunk_heap()
    out = None
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        part = block(lo, hi)
        if out is None:
            out = tuple({k: np.empty(reps, v.dtype) for k, v in d.items()} for d in part)
        for cols, d in zip(out, part):
            for k, v in d.items():
                cols[k][lo:hi] = v
    return out


def pivotal_statistic_rows(kinds, x: np.ndarray):
    """Statistics under the MLE convention for each row of ``x``.

    Each row is transformed by its own maximum likelihood estimate and the
    statistics are evaluated at shape one. Returns ``(stats, betas)`` where
    ``stats`` maps each kind to a per-row array and ``betas`` holds the raw
    estimates used in the transform.

    Shape one is the MLE of a transformed row by construction, so the
    exponentiality kinds, which :func:`~paretogof.statistics.statistic_rows`
    reads as their EDF twins at the shape passed, are their exponential fits
    to the transformed rows' logs.
    """
    x = np.asarray(x, dtype=np.float64)
    b = mle_rows(x)
    return statistic_rows(kinds, _row_power(x, b[:, None]), 1.0), b


# Estimates are used as computed: on rows on the support (finite, > 1) the
# MLE is finite and positive, and a non-finite or non-positive MME raises
# DomainError in bootstrap_rows or in the statistics' shape check.
def _decide(kinds, x: np.ndarray, estimator: EstimatorMethod):
    """``(stats, betas)`` that decisions compare for rows ``x``: pivotal at
    shape one on the MLE route, plug-in on the MME route."""
    if estimator is EstimatorMethod.MLE:
        return pivotal_statistic_rows(kinds, x)
    b = mme_rows(x)
    return statistic_rows(kinds, x, b), b


def _pool(kinds, estimator: EstimatorMethod, draw, reps: int, n: int) -> dict:
    """Decision statistics, kind to column, of ``reps`` rows of size ``n``;
    ``draw(lo, hi)`` draws rows ``lo`` to ``hi``."""
    (stats,) = _row_blocks(lambda lo, hi: (_decide(kinds, draw(lo, hi), estimator)[0],),
                           reps, n)
    return stats


def _as_kinds(kinds, estimator: EstimatorMethod = EstimatorMethod.MLE) -> list:
    """The distinct kinds, at least one. The exponentiality kinds fit a rate
    to log-transformed data, so only the MLE route takes them."""
    kinds = _unique_kinds(kinds)
    if not kinds:
        raise ValueError("need at least one test kind")
    log_kinds = [k.label for k in kinds if k.is_exponentiality]
    if EstimatorMethod(estimator) is EstimatorMethod.MME and log_kinds:
        raise UnsupportedPathError(
            f"{log_kinds[0]} runs on log-transformed data with a fitted rate; "
            "only the MLE route applies"
        )
    return kinds


# ---------------------------------------------------------------------------
# critical values (MLE route)


@dataclass
class CriticalValueTable:
    """Simulated upper-tail critical values, keyed by (kind, estimator, n, alpha).

    Only MLE-route entries exist; the table records the replication count and
    the seed that produced it. Persisted as versioned CSV so the expensive
    high-replication tables are simulated once per seed.
    """

    reps: int
    seed: int
    entries: dict = field(default_factory=dict)

    def put(self, kind: TestKind, estimator: EstimatorMethod, n: int,
            alpha: float, value: float) -> None:
        """Store one entry; only the MLE route has tabulated critical values,
        so any other estimator raises :class:`UnsupportedPathError`."""
        estimator = EstimatorMethod(estimator)
        if estimator is not EstimatorMethod.MLE:
            raise UnsupportedPathError(
                f"only MLE-route entries are tabulated, not {estimator.value}"
            )
        self.entries[(kind, estimator, int(n), float(alpha))] = float(value)

    def value(self, kind: TestKind, estimator: EstimatorMethod, n: int,
              alpha: float) -> float:
        key = (kind, EstimatorMethod(estimator), int(n), float(alpha))
        try:
            return self.entries[key]
        except KeyError:
            raise ConfigurationError(
                f"no critical value tabulated for {kind.label}/"
                f"{EstimatorMethod(estimator).value} at n={n}, alpha={alpha}"
            ) from None

    def __contains__(self, key) -> bool:
        kind, estimator, n, alpha = key
        return (kind, EstimatorMethod(estimator), int(n), float(alpha)) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(_TABLE_FORMAT + "\n")
            writer = csv.writer(fh)
            writer.writerow(_TABLE_COLUMNS)
            for (kind, estimator, n, alpha), value in sorted(
                self.entries.items(),
                key=lambda kv: (kv[0][0].tag.value, kv[0][0].tuning_a or 0.0,
                                kv[0][1].value, kv[0][2], kv[0][3]),
            ):
                tag = kind.tag.value
                if kind.tuning_a is not None and kind.tuning_a != 1.0:
                    tag = f"{tag}:a={kind.tuning_a!r}"
                writer.writerow([tag, estimator.value, n, repr(alpha),
                                 self.reps, self.seed, repr(value)])

    @classmethod
    def load(cls, path) -> "CriticalValueTable":
        with open(path, newline="") as fh:
            head = fh.readline().rstrip("\n")
            if head != _TABLE_FORMAT:
                raise ConfigurationError(
                    f"unrecognized critical-value file format: {head!r}"
                )
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _TABLE_COLUMNS:
                raise ConfigurationError(f"unexpected column header: {header!r}")
            table = None
            for row in reader:
                if not row:
                    continue
                try:
                    tag, est, n, alpha, reps, seed, value = row
                    tag, tuned, a_txt = tag.partition(":a=")
                    kind = TestKind(tag, float(a_txt)) if tuned else TestKind(tag)
                    reps, seed = int(reps), int(seed)
                    if table is None:
                        table = cls(reps=reps, seed=seed)
                    elif (reps, seed) != (table.reps, table.seed):
                        raise ConfigurationError(
                            "critical-value file mixes entries from different runs"
                        )
                    table.put(kind, est, n, alpha, value)
                except ValueError as exc:  # UnsupportedPathError among them
                    raise ConfigurationError(
                        f"{path}, line {reader.line_num + 1}: malformed entry {row!r} ({exc})"
                    ) from None
            if table is None:
                raise ConfigurationError(f"critical-value file {path!r} holds no entries")
            return table


def null_critical_values(kinds, n: int, alphas, reps: int,
                         stream: RandomStream) -> CriticalValueTable:
    """Simulate one null pool at P(1) and read off critical values for every
    requested kind and level.

    All kinds share the same ``reps`` transformed null samples, which is much
    cheaper than separate runs and makes the joint rejection behaviour of the
    statistics internally consistent.
    """
    kinds = _as_kinds(kinds)
    if reps < 1000:
        raise ValueError("critical-value simulation needs reps >= 1000")
    alphas = [_check_alpha(a) for a in np.atleast_1d(alphas)]

    stats = _pool(kinds, EstimatorMethod.MLE,
                  lambda lo, hi: pareto_rows(1.0, n, hi - lo, stream, lo), reps, n)
    table = CriticalValueTable(reps=reps, seed=stream.seed)
    for kind in kinds:
        for alpha in alphas:
            table.put(kind, EstimatorMethod.MLE, n, alpha,
                      upper_quantile(stats[kind], alpha))
    return table


def null_critical_value(kind, n: int, alpha: float, reps: int, stream: RandomStream,
                        estimator: EstimatorMethod = EstimatorMethod.MLE) -> float:
    """Upper-tail critical value on the MLE route, simulated from P(1).

    The MME route has no shape-free null distribution, so requesting it here
    raises :class:`UnsupportedPathError`; use :func:`bootstrap_pvalue` or
    :func:`warp_speed_power` instead.
    """
    if EstimatorMethod(estimator) is not EstimatorMethod.MLE:
        raise UnsupportedPathError(
            "critical values can only be tabulated on the MLE route; "
            "the MME route needs the parametric bootstrap "
            "(bootstrap_pvalue / warp_speed_power)"
        )
    (value,) = null_critical_values([kind], n, [alpha], reps, stream).entries.values()
    return value


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test on one sample.

    ``statistic`` is the reported plug-in value. ``decision_statistic`` is
    the value actually compared against the null distribution; the two agree
    up to rounding except for MellinG on the MLE route, whose decisions are
    made on the pivotal-transformed sample. ``reject_at`` maps each
    significance level to the decision at that level.
    """

    __test__ = False  # not a pytest class, despite the name

    kind: TestKind
    estimator: EstimatorMethod
    statistic: float
    n: int
    p_value: float | None = None
    reject_at: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    decision_statistic: float | None = None


@dataclass(frozen=True)
class PowerEstimate:
    """Monte Carlo rejection proportion against one alternative.

    ``alternative`` is the :class:`~paretogof.distributions.AlternativeSpec`
    or :class:`~paretogof.distributions.MixtureSpec` drawn from. On a null
    row, ``AlternativeSpec(Family.PARETO, theta)``, the estimate is an
    empirical size.
    """

    alternative: object
    kind: TestKind
    estimator: EstimatorMethod
    n: int
    alpha: float
    power: float
    replications: int
    seed: int

    @property
    def std_error(self) -> float:
        p = self.power
        return math.sqrt(p * (1.0 - p) / self.replications)


# ---------------------------------------------------------------------------
# power estimation


def power_fixed_critical_many(kinds, alt, n: int, alpha: float, reps: int,
                              cv_table: CriticalValueTable,
                              stream: RandomStream) -> dict:
    """Share one batch of alternative draws across several statistics.

    MLE route: each replication is transformed by its own estimate and the
    statistic compared against the tabulated P(1) critical value. Missing
    table entries raise :class:`ConfigurationError` before any sampling; an
    ``alt`` that is no alternative spec raises ``TypeError`` at the first draw.
    """
    kinds = _as_kinds(kinds)
    alpha = _check_alpha(alpha)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    crit = {k: cv_table.value(k, EstimatorMethod.MLE, n, alpha) for k in kinds}

    stats = _pool(kinds, EstimatorMethod.MLE,
                  lambda lo, hi: alternative_rows(alt, n, hi - lo, stream, lo), reps, n)
    return {
        k: PowerEstimate(alt, k, EstimatorMethod.MLE, n, alpha,
                         float(np.mean(stats[k] > crit[k])), reps, stream.seed)
        for k in kinds
    }


def power_fixed_critical(kind, alt, n: int, alpha: float, reps: int,
                         cv_table: CriticalValueTable,
                         stream: RandomStream) -> PowerEstimate:
    """Rejection rate of one MLE-route test at a tabulated critical value."""
    (est,) = power_fixed_critical_many([kind], alt, n, alpha, reps, cv_table, stream).values()
    return est


def warp_speed_power_many(kinds, estimator, alt, n: int, alpha: float, reps: int,
                          stream: RandomStream) -> dict:
    """Warp-speed bootstrap power for several statistics on shared draws.

    Replication ``r`` draws one alternative sample (substream ``2r``),
    estimates the shape, then draws a single parametric bootstrap sample from
    the fitted null (substream ``2r + 1``). The bootstrap statistics from all
    replications pool into one null reference; power is the proportion of
    alternative statistics above that pool's upper quantile. One bootstrap
    sample per replication is what makes 50 000-replication studies feasible.
    """
    kinds = _as_kinds(kinds, estimator)
    estimator = EstimatorMethod(estimator)
    alpha = _check_alpha(alpha)
    if reps < 2:
        raise ValueError("warp-speed estimation needs at least 2 replications")

    def block(lo, hi):
        stats, b = _decide(kinds, alternative_rows(alt, n, hi - lo, stream, 2 * lo, 2),
                           estimator)
        return stats, _decide(kinds, bootstrap_rows(b, n, stream, 2 * lo + 1, 2),
                              estimator)[0]

    stats, boot = _row_blocks(block, reps, n)
    out = {}
    for k in kinds:
        crit = upper_quantile(boot[k], alpha)
        out[k] = PowerEstimate(alt, k, estimator, n, alpha,
                               float(np.mean(stats[k] > crit)), reps, stream.seed)
    return out


def warp_speed_power(kind, estimator, alt, n: int, alpha: float, reps: int,
                     stream: RandomStream) -> PowerEstimate:
    """Warp-speed bootstrap power of a single test; see the batch variant."""
    (est,) = warp_speed_power_many([kind], estimator, alt, n, alpha, reps, stream).values()
    return est


# ---------------------------------------------------------------------------
# single-sample inference


def bootstrap_pvalue_many(kinds, estimator, sample, B: int, stream: RandomStream,
                          alphas=DEFAULT_ALPHAS) -> list:
    """Parametric-bootstrap tests of one sample, sharing the bootstrap pool.

    Fits the shape with the chosen estimator, draws ``B`` samples from the
    fitted null, and evaluates every requested statistic on the same draws.
    The p-value convention is (1 + #{T*_b >= T_obs}) / (B + 1), which can
    never return an exact zero. ``B`` of at least 1000 is recommended; small
    values make the p-value resolution coarse.
    """
    kinds = _as_kinds(kinds, estimator)
    estimator = EstimatorMethod(estimator)
    if B < 1:
        raise ValueError("bootstrap needs B >= 1")
    alphas = [_check_alpha(a) for a in np.atleast_1d(alphas)]
    sample = _as_sample(sample)
    est = estimate_shape(sample, estimator)
    x = sample.values[None, :]
    obs_display = statistic_rows(kinds, x, np.full(1, est.value))
    obs_decision = (obs_display if estimator is EstimatorMethod.MME
                    else _decide(kinds, x, estimator)[0])
    boot = _pool(kinds, estimator,
                 lambda lo, hi: bootstrap_rows(np.full(hi - lo, est.value), sample.n,
                                               stream, lo), B, sample.n)

    results = []
    for k in kinds:
        t_obs = float(obs_decision[k][0])
        p = (1.0 + int(np.sum(boot[k] >= t_obs))) / (B + 1.0)
        results.append(
            TestResult(
                kind=k,
                estimator=estimator,
                statistic=float(obs_display[k][0]),
                n=sample.n,
                p_value=p,
                reject_at=MappingProxyType({a: p <= a for a in alphas}),
                decision_statistic=t_obs,
            )
        )
    return results


def bootstrap_pvalue(kind, estimator, sample, B: int, stream: RandomStream,
                     alphas=DEFAULT_ALPHAS) -> TestResult:
    """Parametric-bootstrap p-value for one test on one sample."""
    return bootstrap_pvalue_many([kind], estimator, sample, B, stream, alphas)[0]
