"""Sampling and distribution functions for the Pareto type I model and its alternatives.

The null model throughout is the Pareto type I distribution with scale fixed
at one: F(x) = 1 - x**(-beta) on x > 1. Every alternative law is stated once,
in a record of its label, its shift onto x > 1, its CDF and its sampler. The
Pareto, TiltedPareto and Dhillon families live natively on x > 1; the gamma,
Weibull, lognormal, half-normal, LFR and BetaExp families live on x > 0 and are
shifted right by one unit. Mixture models combine a mean-matched Pareto with a
shifted contaminant.

All sampling goes through :class:`RandomStream`, a counter-based substream
handle. Replication r of any simulation owns the substream ``stream.shifted(r)``,
which makes parallel runs order-independent and bit-reproducible.

Row blocks are drawn along one of two paths, and both give every row the
variates of its own substream's ``generator()``:

* the uniform-driven families (the Pareto null with a scalar or per-row shape,
  LFR, BetaExp, TiltedPareto and Dhillon) are inverse transforms of uniforms,
  so a single vectorised Philox4x64-10 kernel draws the uniforms of every row
  at once and the transform maps the whole matrix;
* the ziggurat families (gamma, Weibull, lognormal, half-normal) and the
  mixtures draw from one ``np.random.Generator`` per block, re-keyed per row.

One support check over the block finds the rare row that fell off the
support; it is re-keyed, replays its first draw and continues its substream.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "RandomStream",
    "Sample",
    "Family",
    "AlternativeSpec",
    "Contaminant",
    "MixtureSpec",
    "pareto_cdf",
    "pareto_ppf",
    "pareto_sample",
    "pareto_rows",
    "alt_cdf",
    "alt_sample",
    "alternative_rows",
    "mixture_cdf",
    "mixture_sample",
    "bootstrap_rows",
]

_MASK64 = (1 << 64) - 1
_MAX_REDRAWS = 10


class DomainError(ValueError):
    """Raised when data or parameters fall outside the supported domain."""


@dataclass(frozen=True)
class RandomStream:
    """Keyed substream of a counter-based generator.

    Equal ``(seed, stream_id)`` pairs always yield the identical variate
    sequence; distinct stream ids give statistically independent streams, so a
    simulation can hand substream ``stream.shifted(r)`` to replication ``r``
    without any cross-talk regardless of execution order.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        # Philox keys are two 64-bit words; masking would alias -1 with 2**64 - 1
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream_id <= _MASK64):
            raise ValueError("seed and stream_id must lie in [0, 2**64), got "
                             f"seed={self.seed!r}, stream_id={self.stream_id!r}")

    def generator(self) -> np.random.Generator:
        key = (self.seed << 64) | self.stream_id
        return np.random.Generator(np.random.Philox(key=key))

    def shifted(self, offset: int) -> "RandomStream":
        """Substream at ``stream_id + offset`` under the same seed."""
        return RandomStream(self.seed, self.stream_id + offset)


# Philox4x64-10 (Salmon et al., SC'11) with numpy's constants and layout
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# kernel budget, in 64-bit words per pass over a block of rows
_PHILOX_BLOCK = 1 << 16
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit product ``m * x``, from 32-bit halves.

    No partial sum below can pass 2**64 - 1 (Warren, Hacker's Delight, 8-2).
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _U32
    t = m_hi * x_lo
    t += (m_lo * x_lo) >> _U32
    w = m_lo * x_hi
    w += t & _LO32
    hi = m_hi * x_hi
    hi += t >> _U32
    hi += w >> _U32
    return hi, x * np.uint64(m)


def _philox_uniforms(seed: int, ids: np.ndarray, n: int) -> np.ndarray:
    """Row i is ``RandomStream(seed, ids[i]).generator().random(n)``, bit for bit.

    ``ids`` is a uint64 array. Each row is keyed by the words
    ``(ids[i], seed)``; its block counters run 1..ceil(n/4), and each
    64-bit output word becomes the double ``(word >> 11) * 2**-53``. Rows are
    drawn in passes of ``_PHILOX_BLOCK // n`` rows but at least one, the rule
    by which the inference routes chunk their rows, so a route's chunk is one
    pass. For n within the budget a pass holds at most ``1 + 3/n`` times the
    budget in words.
    """
    blocks = -(-n // 4)
    out = np.empty((ids.size, n), dtype=np.float64)
    ctr = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    zero = np.zeros((1, 1), dtype=np.uint64)
    per_pass = max(1, _PHILOX_BLOCK // n)
    for lo in range(0, ids.size, per_pass):
        k0, k1 = ids[lo:lo + per_pass, None], seed
        # broadcasting keeps the first two rounds at (rows + blocks) words
        c0, c1, c2, c3 = ctr, zero, zero, zero
        for i in range(_PHILOX_ROUNDS):
            if i:
                k0 = k0 + np.uint64(_PHILOX_W[0])
                k1 = (k1 + _PHILOX_W[1]) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        words = np.empty((k0.shape[0], blocks, 4), dtype=np.uint64)
        for j, c in enumerate((c0, c1, c2, c3)):
            words[:, :, j] = c
        words = words.reshape(k0.shape[0], 4 * blocks)[:, :n] >> np.uint64(11)
        np.multiply(words, 2.0 ** -53, out=out[lo:lo + per_pass])
    return out


class Sample:
    """Immutable one-dimensional sample on the support x > 1.

    Values are validated eagerly: every observation must be finite and
    strictly greater than one, the lower support endpoint of the null model.
    The sorted view is computed once on first use with a stable sort, so tied
    values keep their original relative order.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise DomainError("sample must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample contains non-finite values")
        if np.any(arr <= 1.0):
            bad = float(arr[arr <= 1.0][0])
            raise DomainError(
                f"all observations must exceed 1 (support of the model); got {bad!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "_values", arr)
        object.__setattr__(self, "_sorted", None)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def sorted_values(self) -> np.ndarray:
        if self._sorted is None:
            srt = np.sort(self._values, kind="stable")
            srt.flags.writeable = False
            object.__setattr__(self, "_sorted", srt)
        return self._sorted

    @property
    def n(self) -> int:
        return int(self._values.size)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self._values)

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, min={self._values.min():g}, max={self._values.max():g})"


def _as_sample(sample) -> Sample:
    return sample if isinstance(sample, Sample) else Sample(sample)


class Family(str, Enum):
    """Alternative families used in the power study."""

    PARETO = "pareto"
    GAMMA = "gamma"
    WEIBULL = "weibull"
    LOG_NORMAL = "lognormal"
    HALF_NORMAL = "halfnormal"
    LINEAR_FAILURE_RATE = "lfr"
    BETA_EXPONENTIAL = "betaexp"
    TILTED_PARETO = "tiltedpareto"
    DHILLON = "dhillon"


@dataclass(frozen=True)
class AlternativeSpec:
    """One alternative distribution: a family plus its shape parameter.

    The Pareto, TiltedPareto and Dhillon laws live natively on x > 1, so their
    ``shift`` is 0; the other six live on x > 0 and are shifted right by one
    unit onto x > 1, so theirs is 1. The shift and the label come from the
    family's record.
    """

    family: Family
    theta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.theta) or self.theta <= 0:
            raise DomainError(f"theta must be positive, got {self.theta!r}")

    @property
    def shift(self) -> float:
        return _FAMILIES[self.family].shift

    @property
    def label(self) -> str:
        return f"{_FAMILIES[self.family].label}({self.theta:g})"


class Contaminant(str, Enum):
    """Contaminating component of a Pareto mixture."""

    SHIFTED_EXPONENTIAL = "exponential"
    SHIFTED_HALF_NORMAL = "halfnormal"
    SHIFTED_LOG_NORMAL = "lognormal"


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture of a contaminant (probability ``p``) with a mean-matched Pareto.

    The Pareto component's shape is solved from the mean-matching condition
    beta/(beta - 1) = contaminant_mean, so both components share the same
    mean and the mixing proportion is the only knob that moves the mixture
    away from the null.
    """

    p: float
    contaminant: Contaminant
    contaminant_mean: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"mixing proportion must lie in [0, 1], got {self.p!r}")
        if not np.isfinite(self.contaminant_mean) or self.contaminant_mean <= 1.0:
            raise DomainError(
                "contaminant_mean must exceed 1 (shifted support), got "
                f"{self.contaminant_mean!r}"
            )

    @property
    def pareto_beta(self) -> float:
        m = self.contaminant_mean
        return m / (m - 1.0)

    @property
    def label(self) -> str:
        return f"{_CONTAMINANTS[self.contaminant].label}(p={self.p:g})"


# ---------------------------------------------------------------------------
# Null model


def _check_beta(beta):
    """``beta``, one shape or an array of them, once every shape is finite and
    positive. A caller of one shape passes ``float(beta)``, so an array raises
    ``TypeError`` there."""
    ok = np.isfinite(beta) & (beta > 0)
    if not np.all(ok):
        bad = np.ravel(beta)[~np.ravel(ok)][0]
        raise DomainError(f"shape parameter must be positive and finite, got {float(bad)!r}")
    return beta


def pareto_cdf(x, beta: float):
    """Distribution function 1 - x**(-beta), zero at and below the support
    endpoint; NaN at NaN."""
    beta = _check_beta(float(beta))
    out = 1.0 - np.power(np.maximum(np.asarray(x, dtype=np.float64), 1.0), -beta)
    return out if out.ndim else float(out)


def pareto_ppf(u, beta: float):
    """Quantile function (1 - u)**(-1/beta) for u in [0, 1)."""
    beta = _check_beta(float(beta))
    u = np.asarray(u, dtype=np.float64)
    out = np.power(1.0 - u, -1.0 / beta)
    return out if out.ndim else float(out)


class _Quantile(NamedTuple):
    """Inverse-transform sampler: a row is ``fn(u, param)`` of its uniforms ``u``.

    ``param`` is one shape for every row, or a 1-D array with one per row.
    """

    fn: Callable
    param: object

    def __call__(self, u: np.ndarray, r: int | None = None) -> np.ndarray:
        """Map the uniforms of every row, or of row ``r`` alone."""
        param = self.param
        if np.ndim(param):
            param = param[:, None] if r is None else param[r]
        return self.fn(u, param)


def _row_power(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``x ** e`` for a (rows, n) block ``x`` and a (rows, 1) exponent column ``e``.

    Every row-wise power goes through here, so a row's value does not depend
    on its block. numpy computes an exponent of exactly -1, 0.5 or 2 that is
    broadcast along a row as a reciprocal, square root or square, which can
    differ from its general power in the last bit, and only a one-row block
    with a (1, 1) exponent takes that path (numpy 2.4: about one element in
    20 of 1 + Exp(1) data moved). A one-row block is therefore raised to its
    exponent materialised to the block's shape, which gave the multi-row bits
    on all 309 120 elements tried: n from 1 to 1000, exponents -b, -1.5b,
    -0.5b, -2b and b, b random or exactly 0.25, 0.5, ..., 4. Larger blocks
    keep the broadcast exponent: materialising it would take the five powers
    of a (3 276, 20) chunk from 1.6 to 4.3 ms, next to 27 ms for its eleven
    statistics (2 vCPUs).
    """
    if x.shape[0] == 1:
        e = np.broadcast_to(e, x.shape).copy()
    return x ** e


def _pareto_quantile(u, beta):
    power = _row_power if np.ndim(beta) == 2 else np.power  # a column: one shape per row
    return power(1.0 - u, -1.0 / beta)


# ---------------------------------------------------------------------------
# Alternatives: one record per law


def _special():
    from scipy import special  # only the alternative CDFs need scipy

    return special


def _half_normal_cdf(y, sigma):
    return _special().erf(y / (sigma * np.sqrt(2.0)))


def _half_normal_draw(sigma):
    return lambda g, n: 1.0 + np.abs(g.normal(0.0, sigma, size=n))


def _log_normal_cdf(y, sigma, mu=0.0):
    with np.errstate(divide="ignore"):  # log 0 = -inf, and ndtr(-inf) = 0
        return _special().ndtr((np.log(y) - mu) / sigma)


def _log_normal_draw(sigma, mu=0.0):
    return lambda g, n: 1.0 + g.lognormal(mu, sigma, size=n)


def _lfr_cdf(y, th):
    # y * y overflows to inf for y above about 1e154, where the CDF is 1
    with np.errstate(over="ignore"):
        return -np.expm1(-(y + 0.5 * th * y * y))


def _lfr_quantile(u, th):
    load = -np.log1p(-u)
    # stable root of theta*y**2/2 + y = load
    return 1.0 + 2.0 * load / (1.0 + np.sqrt(1.0 + 2.0 * th * load))


class _Law(NamedTuple):
    """One alternative law, stated once.

    ``shift`` is 1 for a law on x > 0 moved onto x > 1 and 0 for a law native
    to x > 1. ``cdf(z, theta)`` is the law's CDF at ``z = max(x - 1, 0)`` for a
    shifted law and at ``z = max(x, 1)`` for a native one; :func:`_law_cdf`
    takes that clamp, and it alone makes every law's CDF zero at and below
    one. ``draw(theta)`` builds the law's sampler, a
    :class:`_Quantile` of uniforms or a ``(g, n)`` closure on a Generator.
    """

    label: str
    shift: float
    cdf: Callable
    draw: Callable


_FAMILIES = {
    Family.PARETO: _Law("Pareto", 0.0, pareto_cdf, partial(_Quantile, _pareto_quantile)),
    Family.GAMMA: _Law("Gamma", 1.0, lambda y, th: _special().gammainc(th, y),
                       lambda th: lambda g, n: 1.0 + g.gamma(th, size=n)),
    Family.WEIBULL: _Law("Weibull", 1.0, lambda y, th: -np.expm1(-np.power(y, th)),
                         lambda th: lambda g, n: 1.0 + g.weibull(th, size=n)),
    Family.LOG_NORMAL: _Law("LogNormal", 1.0, _log_normal_cdf, _log_normal_draw),
    Family.HALF_NORMAL: _Law("HalfNormal", 1.0, _half_normal_cdf, _half_normal_draw),
    Family.LINEAR_FAILURE_RATE: _Law(
        "LFR", 1.0, _lfr_cdf, partial(_Quantile, _lfr_quantile)),
    Family.BETA_EXPONENTIAL: _Law(
        "BetaExp", 1.0, lambda y, th: np.power(-np.expm1(-y), th),
        partial(_Quantile, lambda u, th: 1.0 - np.log1p(-np.power(u, 1.0 / th)))),
    Family.TILTED_PARETO: _Law(
        "TiltedPareto", 0.0, lambda x, th: 1.0 - (1.0 + th) / (x + th),
        partial(_Quantile, lambda u, th: (1.0 + th) / (1.0 - u) - th)),
    Family.DHILLON: _Law(
        "Dhillon", 0.0, lambda x, th: -np.expm1(-np.power(np.log(x), th + 1.0)),
        partial(_Quantile, lambda u, th: np.exp(np.power(-np.log1p(-u), 1.0 / (th + 1.0))))),
}

# a contaminant's parameter is its mean m on x > 0
_CONTAMINANTS = {
    Contaminant.SHIFTED_EXPONENTIAL: _Law(
        "ExpMix", 1.0, lambda y, m: -np.expm1(-y / m),
        lambda m: lambda g, n: 1.0 + g.exponential(m, size=n)),
    Contaminant.SHIFTED_HALF_NORMAL: _Law(
        "HalfNormMix", 1.0, lambda y, m: _half_normal_cdf(y, m * np.sqrt(np.pi / 2.0)),
        lambda m: _half_normal_draw(m * np.sqrt(np.pi / 2.0))),
    # sigma fixed at 1, mu solved from the mean
    Contaminant.SHIFTED_LOG_NORMAL: _Law(
        "LogNormMix", 1.0, lambda y, m: _log_normal_cdf(y, 1.0, np.log(m) - 0.5),
        lambda m: _log_normal_draw(1.0, np.log(m) - 0.5)),
}


def _law_cdf(law: _Law, x: np.ndarray, theta: float):
    return law.cdf(np.maximum(x - law.shift, 0.0) if law.shift else np.maximum(x, 1.0), theta)


def alt_cdf(spec: AlternativeSpec, x):
    """CDF of an alternative family at ``x``; zero at and below one, NaN at NaN."""
    x = np.asarray(x, dtype=np.float64)
    out = np.asarray(_law_cdf(_FAMILIES[spec.family], x, spec.theta))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Mixtures


def _mixture_draw(spec: MixtureSpec):
    beta, p = spec.pareto_beta, spec.p
    contaminant = _CONTAMINANTS[spec.contaminant].draw(spec.contaminant_mean - 1.0)

    def draw(g: np.random.Generator, n: int) -> np.ndarray:
        # Fixed consumption order keeps the stream layout deterministic:
        # mixture indicators, then Pareto uniforms, then contaminant draws.
        pick = g.random(n) < p
        pareto_vals = _pareto_quantile(g.random(n), beta)
        return np.where(pick, contaminant(g, n), pareto_vals)

    return draw


def mixture_cdf(spec: MixtureSpec, x):
    """CDF of the mixture: p * contaminant + (1 - p) * mean-matched Pareto;
    zero at and below one, NaN at NaN."""
    x = np.asarray(x, dtype=np.float64)
    gc = _law_cdf(_CONTAMINANTS[spec.contaminant], x, spec.contaminant_mean - 1.0)
    out = spec.p * gc + (1.0 - spec.p) * pareto_cdf(x, spec.pareto_beta)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Row-block sampling used by the simulation machinery


def _on_support(x: np.ndarray):
    """Per-row flag: every value of the row is finite and strictly above one."""
    return np.all(np.isfinite(x) & (x > 1.0), axis=-1)


def _fill_rows(n: int, reps: int, stream: RandomStream, offset: int, step: int,
               draw) -> np.ndarray:
    """Draw a (reps, n) matrix, row r from substream ``offset + step * r``.

    ``draw`` is a :class:`_Quantile`, whose per-row parameter lets rows differ
    in their law, or a sampler ``draw(g, n)``. A :class:`_Quantile` maps the
    uniforms :func:`_philox_uniforms` draws for every row at once. A sampler
    fills each row from one Generator, built on first use and re-keyed per row
    to the state its substream's ``generator()`` starts in: key ``(id, seed)``,
    counter zero, buffer empty.

    One support check (finite, strictly above one) then marks the rows that hit
    an endpoint. Each is re-keyed, replays its first draw and continues its own
    substream for up to ``_MAX_REDRAWS`` more draws, so no other row moves; a
    row still off the support raises :class:`DomainError`. Without such a row
    the batch path never loads ``numpy.random``. Every sampler of this module
    comes here, a single sample as a one-row block.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if reps < 1:
        raise ValueError("replication count must be at least 1")
    # the ids run from one end to the other, so checking both ends checks all
    stream.shifted(offset), stream.shifted(offset + step * (reps - 1))
    ids = (np.uint64(stream.stream_id + offset)
           + np.uint64(step & _MASK64) * np.arange(reps, dtype=np.uint64))
    gen = []  # the one Generator, built when a row first needs it
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4}, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def keyed(r: int) -> np.random.Generator:
        if not gen:
            gen.append(np.random.Generator(np.random.Philox(key=0)))
        state["state"]["key"] = [int(ids[r]), stream.seed]
        gen[0].bit_generator.state = state
        return gen[0]

    if isinstance(draw, _Quantile):
        out = draw(_philox_uniforms(stream.seed, ids, n))
        row = lambda g, r: draw(g.random(n), r)  # noqa: E731
    else:
        row = lambda g, r: draw(g, n)  # noqa: E731
        out = np.empty((reps, n), dtype=np.float64)
        for r in range(reps):
            out[r] = draw(keyed(r), n)
    for r in np.flatnonzero(~_on_support(out)).tolist():
        g = keyed(r)
        row(g, r)  # the first draw, already in out[r]
        for _ in range(_MAX_REDRAWS):
            out[r] = row(g, r)
            if _on_support(out[r]):
                break
        else:
            raise DomainError(f"substream {offset + step * r} produced no valid sample "
                              f"in {_MAX_REDRAWS} redraws")
    return out


def pareto_sample(beta: float, n: int, stream: RandomStream) -> Sample:
    """Draw ``n`` variates from the Pareto model: row 0 of :func:`pareto_rows`."""
    return Sample(pareto_rows(beta, n, 1, stream)[0])


def pareto_rows(beta: float, n: int, reps: int, stream: RandomStream,
                offset: int = 0, step: int = 1) -> np.ndarray:
    """(reps, n) matrix of null samples; row r uses substream offset + step*r."""
    beta = _check_beta(float(beta))
    return _fill_rows(n, reps, stream, offset, step, _Quantile(_pareto_quantile, beta))


def alt_sample(spec, n: int, stream: RandomStream) -> Sample:
    """Draw ``n`` variates from an :class:`AlternativeSpec` or a
    :class:`MixtureSpec`: row 0 of :func:`alternative_rows`."""
    return Sample(alternative_rows(spec, n, 1, stream)[0])


mixture_sample = alt_sample


def alternative_rows(spec, n: int, reps: int, stream: RandomStream,
                     offset: int = 0, step: int = 1) -> np.ndarray:
    """(reps, n) matrix from an :class:`AlternativeSpec` or :class:`MixtureSpec`."""
    if isinstance(spec, MixtureSpec):
        draw = _mixture_draw(spec)
    elif isinstance(spec, AlternativeSpec):
        draw = _FAMILIES[spec.family].draw(spec.theta)
    else:
        raise TypeError(f"expected AlternativeSpec or MixtureSpec, got {type(spec).__name__}")
    return _fill_rows(n, reps, stream, offset, step, draw)


def bootstrap_rows(betas: np.ndarray, n: int, stream: RandomStream,
                   offset: int = 0, step: int = 1) -> np.ndarray:
    """Null samples with a per-row shape: row r is drawn from P(betas[r]).

    This is the parametric-bootstrap building block; the warp-speed power
    routine interleaves these substreams with the alternative draws.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.ndim != 1:
        raise ValueError("betas must be one-dimensional")
    return _fill_rows(n, betas.size, stream, offset, step,
                      _Quantile(_pareto_quantile, _check_beta(betas)))
