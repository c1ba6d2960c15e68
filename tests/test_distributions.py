"""Sampling layer: stream keying, sample validation, and draw-vs-CDF agreement."""

import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import paretogof
from paretogof import (
    FIXED_ALTERNATIVES,
    AlternativeSpec,
    Contaminant,
    DomainError,
    Family,
    MixtureSpec,
    RandomStream,
    Sample,
    alt_cdf,
    alt_sample,
    mixture_cdf,
    mixture_sample,
    pareto_cdf,
    pareto_ppf,
    pareto_sample,
)
from paretogof.distributions import (
    _MASK64,
    _MAX_REDRAWS,
    _fill_rows,
    _philox_uniforms,
    alternative_rows,
    bootstrap_rows,
    pareto_rows,
)
from paretogof.statistics import KS, ks, statistic_rows


# ---------------------------------------------------------------------------
# RandomStream


def test_stream_generator_matches_explicit_philox_key():
    seed, sid = 123456789, 42
    ours = RandomStream(seed, sid).generator().random(8)
    key = ((seed & _MASK64) << 64) | (sid & _MASK64)
    manual = np.random.Generator(np.random.Philox(key=key)).random(8)
    np.testing.assert_array_equal(ours, manual)


def test_stream_is_reproducible_and_substreams_differ():
    s = RandomStream(7, 3)
    a = s.generator().random(16)
    b = s.generator().random(16)
    np.testing.assert_array_equal(a, b)
    c = s.shifted(1).generator().random(16)
    assert not np.array_equal(a, c)


def test_shifted_accumulates():
    s = RandomStream(11, 5)
    assert s.shifted(0) == s
    assert s.shifted(2).shifted(3) == RandomStream(11, 10)


def test_stream_rejects_seeds_and_ids_outside_64_bits():
    # masking would alias -1 with 2**64 - 1 and 2**64 with 0
    top = 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed={bad}"):
            RandomStream(bad)
        with pytest.raises(ValueError, match=f"stream_id={bad}"):
            RandomStream(0, bad)
    with pytest.raises(ValueError):
        RandomStream(5, top).shifted(1)
    with pytest.raises(ValueError):
        RandomStream(5, 0).shifted(-1)
    edge = RandomStream(top, top)
    key = (top << 64) | top
    manual = np.random.Generator(np.random.Philox(key=key)).random(4)
    np.testing.assert_array_equal(edge.generator().random(4), manual)


# ---------------------------------------------------------------------------
# Sample


def test_sample_rejects_values_at_or_below_support():
    with pytest.raises(DomainError):
        Sample([2.0, 1.0, 3.0])
    with pytest.raises(DomainError):
        Sample([0.5])
    with pytest.raises(DomainError):
        Sample([-2.0, 4.0])


def test_sample_rejects_empty_and_nonfinite():
    with pytest.raises(DomainError):
        Sample([])
    with pytest.raises(DomainError):
        Sample([2.0, np.nan])
    with pytest.raises(DomainError):
        Sample([2.0, np.inf])


def test_sample_copies_and_freezes_input():
    src = np.array([3.0, 2.0, 5.0])
    s = Sample(src)
    src[0] = 99.0
    assert s.values[0] == 3.0
    with pytest.raises(ValueError):
        s.values[0] = 7.0
    with pytest.raises(ValueError):
        s.sorted_values[0] = 7.0


def test_sample_sorted_view_and_basics():
    s = Sample([3.0, 2.0, 5.0, 2.5])
    np.testing.assert_array_equal(s.sorted_values, [2.0, 2.5, 3.0, 5.0])
    assert s.n == len(s) == 4
    assert list(s) == [3.0, 2.0, 5.0, 2.5]
    assert "n=4" in repr(s)


# ---------------------------------------------------------------------------
# Null model CDF / quantile


def test_pareto_cdf_ppf_round_trip():
    u = np.linspace(0.01, 0.99, 25)
    for beta in (0.5, 1.0, 2.0, 10.0):
        x = pareto_ppf(u, beta)
        np.testing.assert_allclose(pareto_cdf(x, beta), u, atol=1e-12)


def test_pareto_known_quantiles():
    assert pareto_ppf(0.5, 1.0) == pytest.approx(2.0)
    assert pareto_ppf(0.75, 2.0) == pytest.approx(2.0)
    assert pareto_cdf(1.0, 3.0) == 0.0
    assert pareto_cdf(0.2, 3.0) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.5, np.nan, np.inf])
def test_pareto_rejects_bad_shape(bad):
    with pytest.raises(DomainError):
        pareto_cdf(2.0, bad)
    with pytest.raises(DomainError):
        pareto_ppf(0.5, bad)
    # the same refusal for an array of shapes, whatever entry is bad
    with pytest.raises(DomainError):
        bootstrap_rows(np.array([1.0, bad]), 5, RandomStream(23, 0))
    for beta in (bad, np.array([bad, 1.0])):
        with pytest.raises(DomainError):
            statistic_rows([KS], np.full((2, 5), 2.0), beta)
    # a single sample's statistic is refused by the row evaluation's check
    with pytest.raises(DomainError, match=re.escape(
            f"shape parameter must be positive and finite, got {float(bad)!r}")):
        ks([2.0, 3.0, 4.0], bad)


def test_one_shape_functions_refuse_an_array_of_shapes():
    shapes = np.array([1.0, 2.0])
    with pytest.raises(TypeError):
        pareto_cdf(2.0, shapes)
    with pytest.raises(TypeError):
        pareto_ppf(0.5, shapes)
    with pytest.raises(TypeError):
        pareto_rows(shapes, 5, 2, RandomStream(23, 0))
    with pytest.raises(TypeError):
        ks([2.0, 3.0, 4.0], shapes)


# ---------------------------------------------------------------------------
# Alternatives: closed-form spot values and draw/CDF agreement


def test_alternative_spec_validation_and_shift():
    spec = AlternativeSpec(Family.GAMMA, 1.2)
    assert spec.shift == 1.0
    assert AlternativeSpec(Family.PARETO, 2.0).shift == 0.0
    # the Pareto, tilted Pareto and Dhillon laws live natively on x > 1
    shifts = {Family.PARETO: 0.0, Family.GAMMA: 1.0, Family.WEIBULL: 1.0,
              Family.LOG_NORMAL: 1.0, Family.HALF_NORMAL: 1.0,
              Family.LINEAR_FAILURE_RATE: 1.0, Family.BETA_EXPONENTIAL: 1.0,
              Family.TILTED_PARETO: 0.0, Family.DHILLON: 0.0}
    assert shifts.keys() == set(Family)
    for family, shift in shifts.items():
        assert AlternativeSpec(family, 1.0).shift == shift, family
    assert spec.label == "Gamma(1.2)"
    with pytest.raises(DomainError):
        AlternativeSpec(Family.WEIBULL, 0.0)
    with pytest.raises(DomainError):
        AlternativeSpec(Family.WEIBULL, np.nan)


def test_tilted_pareto_median():
    spec = AlternativeSpec(Family.TILTED_PARETO, 1.0)
    assert alt_cdf(spec, 3.0) == pytest.approx(0.5)


def test_unit_shape_families_collapse_to_shifted_exponential():
    # Gamma(1), Weibull(1) and the exponentiated-exponential family at
    # exponent 1 are all the standard exponential shifted by one unit.
    x = np.linspace(1.0, 8.0, 40)
    ref = -np.expm1(-(x - 1.0))
    for fam in (Family.GAMMA, Family.WEIBULL, Family.BETA_EXPONENTIAL):
        np.testing.assert_allclose(alt_cdf(AlternativeSpec(fam, 1.0), x), ref, atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [AlternativeSpec(f, 1.2) for f in Family]
                         + [MixtureSpec(0.3, c) for c in Contaminant] + [None],
                         ids=lambda spec: "pareto_cdf" if spec is None else spec.label)
def test_every_cdf_is_zero_at_and_below_one_and_nan_at_nan(spec):
    if spec is None:
        cdf = partial(pareto_cdf, beta=1.2)
    else:
        cdf = partial(mixture_cdf if isinstance(spec, MixtureSpec) else alt_cdf, spec)
    edges = [-np.inf, 0.0, 0.5, 1.0]
    assert [cdf(x) for x in edges] == [0.0] * 4
    assert cdf(np.array(edges)).tolist() == [0.0] * 4
    assert np.isnan(cdf(np.nan))
    assert np.isnan(cdf(np.array([np.nan, 2.0]))[0])


def test_alt_cdf_support_edges():
    for fam in Family:
        spec = AlternativeSpec(fam, 1.2)
        assert alt_cdf(spec, 1.0) == 0.0
        assert alt_cdf(spec, 0.5) == 0.0
        assert alt_cdf(spec, 1e9) == pytest.approx(1.0, abs=1e-3)


_ALL_SPECS = [
    AlternativeSpec(Family.PARETO, 2.0),
    AlternativeSpec(Family.GAMMA, 0.8),
    AlternativeSpec(Family.GAMMA, 1.2),
    AlternativeSpec(Family.WEIBULL, 0.8),
    AlternativeSpec(Family.WEIBULL, 1.5),
    AlternativeSpec(Family.LOG_NORMAL, 1.0),
    AlternativeSpec(Family.LOG_NORMAL, 2.5),
    AlternativeSpec(Family.HALF_NORMAL, 0.5),
    AlternativeSpec(Family.HALF_NORMAL, 1.2),
    AlternativeSpec(Family.LINEAR_FAILURE_RATE, 0.2),
    AlternativeSpec(Family.LINEAR_FAILURE_RATE, 1.0),
    AlternativeSpec(Family.BETA_EXPONENTIAL, 0.8),
    AlternativeSpec(Family.BETA_EXPONENTIAL, 1.5),
    AlternativeSpec(Family.TILTED_PARETO, 3.0),
    AlternativeSpec(Family.DHILLON, 0.4),
    AlternativeSpec(Family.DHILLON, 0.8),
]


def _ks_distance(draws: np.ndarray, cdf_vals: np.ndarray) -> float:
    m = draws.size
    grid = np.arange(1, m + 1) / m
    return max(float(np.max(grid - cdf_vals)), float(np.max(cdf_vals - (grid - 1.0 / m))))


@pytest.mark.parametrize("spec", _ALL_SPECS, ids=lambda s: s.label)
def test_alternative_draws_follow_their_cdf(spec):
    # One-sample KS check at m = 4000: the 0.1% critical distance is about
    # 0.031, so 0.035 keeps the false-alarm rate negligible while still
    # catching any wrong-by-a-constant sampler.
    m = 4000
    x = np.sort(alt_sample(spec, m, RandomStream(314, 1)).values)
    assert _ks_distance(x, np.asarray(alt_cdf(spec, x))) < 0.035


@pytest.mark.parametrize("contaminant", list(Contaminant))
def test_mixture_draws_follow_their_cdf(contaminant):
    spec = MixtureSpec(0.5, contaminant)
    m = 4000
    x = np.sort(mixture_sample(spec, m, RandomStream(315, 2)).values)
    assert _ks_distance(x, np.asarray(mixture_cdf(spec, x))) < 0.035


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [0.2, 1.0])
def test_lfr_cdf_far_in_the_tail_is_one_without_an_overflow_warning(theta):
    # theta * y * y / 2 overflows to inf above about 1e154, where the CDF is 1
    spec = AlternativeSpec(Family.LINEAR_FAILURE_RATE, theta)
    assert alt_cdf(spec, 1e300) == 1.0
    got = alt_cdf(spec, np.array([2.0, 1e200, 1e300]))
    assert got[1:].tolist() == [1.0, 1.0]
    assert got[0] == pytest.approx(1.0 - np.exp(-(1.0 + 0.5 * theta)), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [0.8, 1.0, 1.2, 1.5, 2.5])
def test_weibull_cdf_far_in_the_tail_is_one_without_an_overflow_warning(theta):
    # (x - 1) ** theta overflows to inf for theta > 1 far out, where the CDF is 1
    got = alt_cdf(AlternativeSpec(Family.WEIBULL, theta), [1e300, 1e200, 1e100])
    assert np.asarray(got).tolist() == [1.0, 1.0, 1.0]


def test_alternative_draws_live_on_support():
    for spec in _ALL_SPECS:
        vals = alt_sample(spec, 500, RandomStream(316, 0)).values
        assert np.all(vals > 1.0)


# ---------------------------------------------------------------------------
# Mixtures


def test_mixture_mean_matched_shape():
    assert MixtureSpec(0.3, Contaminant.SHIFTED_EXPONENTIAL).pareto_beta == pytest.approx(1.5)
    assert MixtureSpec(0.3, Contaminant.SHIFTED_EXPONENTIAL, contaminant_mean=2.0).pareto_beta == pytest.approx(2.0)


def test_mixture_validation():
    with pytest.raises(DomainError):
        MixtureSpec(-0.1, Contaminant.SHIFTED_EXPONENTIAL)
    with pytest.raises(DomainError):
        MixtureSpec(1.1, Contaminant.SHIFTED_EXPONENTIAL)
    with pytest.raises(DomainError):
        MixtureSpec(0.5, Contaminant.SHIFTED_EXPONENTIAL, contaminant_mean=1.0)


def test_mixture_degenerate_weights():
    x = np.linspace(1.0, 10.0, 50)
    pure_null = MixtureSpec(0.0, Contaminant.SHIFTED_HALF_NORMAL)
    np.testing.assert_allclose(mixture_cdf(pure_null, x), pareto_cdf(x, 1.5), atol=1e-12)
    pure_contam = MixtureSpec(1.0, Contaminant.SHIFTED_EXPONENTIAL)
    np.testing.assert_allclose(mixture_cdf(pure_contam, x), -np.expm1(-(x - 1.0) / 2.0), atol=1e-12)


def test_pure_exponential_contaminant_mean():
    vals = np.concatenate([
        mixture_sample(MixtureSpec(1.0, Contaminant.SHIFTED_EXPONENTIAL), 5000,
                       RandomStream(317, k)).values
        for k in range(4)
    ])
    assert vals.mean() == pytest.approx(3.0, abs=0.1)


def test_mixture_labels():
    assert MixtureSpec(0.1, Contaminant.SHIFTED_EXPONENTIAL).label == "ExpMix(p=0.1)"
    assert MixtureSpec(0.9, Contaminant.SHIFTED_LOG_NORMAL).label == "LogNormMix(p=0.9)"
    assert MixtureSpec(0.5, Contaminant.SHIFTED_HALF_NORMAL).label == "HalfNormMix(p=0.5)"


# ---------------------------------------------------------------------------
# Row-block sampling


def test_pareto_rows_match_per_substream_samples():
    stream = RandomStream(21, 100)
    rows = pareto_rows(2.0, 15, 4, stream, offset=5, step=3)
    for r in range(4):
        expect = pareto_sample(2.0, 15, stream.shifted(5 + 3 * r)).values
        np.testing.assert_array_equal(rows[r], expect)
    # a single sample is its substream's row, whichever sampler takes the spec:
    # a ziggurat family, a uniform-driven family and a mixture
    for spec in (AlternativeSpec(Family.GAMMA, 1.2),
                 AlternativeSpec(Family.LINEAR_FAILURE_RATE, 0.8),
                 MixtureSpec(0.5, Contaminant.SHIFTED_LOG_NORMAL)):
        rows = alternative_rows(spec, 15, 4, stream, offset=5, step=3)
        for r in range(4):
            sub = stream.shifted(5 + 3 * r)
            np.testing.assert_array_equal(rows[r], alt_sample(spec, 15, sub).values)
            np.testing.assert_array_equal(rows[r], mixture_sample(spec, 15, sub).values)
    for sample in (alt_sample, mixture_sample):
        with pytest.raises(TypeError, match="AlternativeSpec or MixtureSpec"):
            sample(Family.GAMMA, 15, stream)
    assert paretogof.mixture_sample is paretogof.alt_sample


def test_alternative_rows_accepts_both_spec_types():
    stream = RandomStream(22, 0)
    a = alternative_rows(AlternativeSpec(Family.GAMMA, 1.0), 10, 3, stream)
    assert a.shape == (3, 10) and np.all(a > 1.0)
    m = alternative_rows(MixtureSpec(0.5, Contaminant.SHIFTED_EXPONENTIAL), 10, 3, stream)
    assert m.shape == (3, 10) and np.all(m > 1.0)
    with pytest.raises(TypeError):
        alternative_rows(object(), 10, 3, stream)


def test_bootstrap_rows_use_per_row_shapes():
    stream = RandomStream(23, 7)
    betas = np.array([0.5, 1.0, 4.0])
    rows = bootstrap_rows(betas, 12, stream, offset=1, step=2)
    for r, b in enumerate(betas):
        expect = pareto_sample(b, 12, stream.shifted(1 + 2 * r)).values
        np.testing.assert_array_equal(rows[r], expect)


@pytest.mark.parametrize("n", [20, 1000])
def test_bootstrap_rows_at_shape_one_do_not_depend_on_the_block(n):
    # at a shape of exactly one the quantile raises to exactly -1, which numpy
    # computes differently on a one-row block unless the exponent is
    # materialised
    stream = RandomStream(23, 8)
    many = bootstrap_rows(np.ones(5), n, stream, offset=4)
    for r in (0, 2, 4):
        one = bootstrap_rows(np.ones(1), n, stream, offset=4 + r)
        np.testing.assert_array_equal(one[0], many[r])


def test_bootstrap_rows_validation():
    stream = RandomStream(23, 0)
    with pytest.raises(DomainError):
        bootstrap_rows(np.array([1.0, -2.0]), 5, stream)
    with pytest.raises(DomainError):
        bootstrap_rows(np.array([np.nan]), 5, stream)
    with pytest.raises(ValueError):
        bootstrap_rows(np.ones((2, 2)), 5, stream)


def test_row_sampling_rejects_degenerate_dimensions():
    stream = RandomStream(24, 0)
    with pytest.raises(ValueError):
        pareto_rows(1.0, 0, 3, stream)
    with pytest.raises(ValueError):
        pareto_rows(1.0, 5, 0, stream)


def test_fill_rows_retries_within_the_same_substream():
    calls = {"count": 0}

    def draw(g, n):
        calls["count"] += 1
        if calls["count"] <= 2:
            return np.full(n, 1.0)  # invalid: sits on the support endpoint
        return np.full(n, 2.0) + g.random(n)

    out = _fill_rows(4, 1, RandomStream(1, 0), 0, 1, draw)
    assert calls["count"] == 3
    assert np.all(out > 1.0)


def test_fill_rows_gives_up_after_bounded_retries():
    def always_bad(g, n):
        return np.full(n, np.inf)

    with pytest.raises(DomainError, match="redraws"):
        _fill_rows(4, 1, RandomStream(1, 0), 0, 1, always_bad)


# ---------------------------------------------------------------------------
# Batch Philox kernel against the per-row generator


def _generator_rows(seed, ids, n):
    return np.array([RandomStream(seed, int(i)).generator().random(n) for i in ids])


@pytest.mark.parametrize("n", [1, 3, 4, 5, 20, 30, 1000])
def test_philox_uniforms_match_the_generator_bit_for_bit(n):
    top = _MASK64
    id_sets = [
        np.arange(7, 7 + 2 * 40, 2, dtype=np.uint64),  # offset 7, step 2
        np.array([0, 1, top - 1, top, 1 << 63, 123456789], dtype=np.uint64),
    ]
    if n == 30:  # two whole route chunks and one row more, drawn in one call
        id_sets.append(np.arange(100, 100 + 2 * (2**16 // n) + 1, dtype=np.uint64))
    for seed in (0, 271828, top):
        for ids in id_sets:
            got = _philox_uniforms(seed, ids, n)
            assert got.shape == (ids.size, n) and got.flags.c_contiguous
            np.testing.assert_array_equal(got, _generator_rows(seed, ids, n))


def test_a_route_chunk_of_rows_is_one_kernel_pass(monkeypatch):
    # the inference routes chunk _PHILOX_BLOCK // n rows; at n = 30 the kernel
    # draws such a chunk in one pass of ten rounds, two products a round
    import paretogof.distributions as dist
    from paretogof.inference import _PHILOX_BLOCK

    calls, mulhilo = [], dist._mulhilo

    def counted(m, x):
        calls.append(m)
        return mulhilo(m, x)

    monkeypatch.setattr(dist, "_mulhilo", counted)
    n = 30
    pareto_rows(1.0, n, _PHILOX_BLOCK // n, RandomStream(52, 0))
    assert len(calls) == 2 * dist._PHILOX_ROUNDS == 20


# The per-row generator formulas the uniform-driven families used before the
# batch kernel; each family must reproduce them row for row.
def _lfr_per_row(u, th):
    load = -np.log1p(-u)
    return 1.0 + 2.0 * load / (1.0 + np.sqrt(1.0 + 2.0 * th * load))


_PER_ROW_DRAWS = {
    Family.PARETO: lambda u, th: np.power(1.0 - u, -1.0 / th),
    Family.LINEAR_FAILURE_RATE: _lfr_per_row,
    Family.BETA_EXPONENTIAL: lambda u, th: 1.0 - np.log1p(-np.power(u, 1.0 / th)),
    Family.TILTED_PARETO: lambda u, th: (1.0 + th) / (1.0 - u) - th,
    Family.DHILLON: lambda u, th: np.exp(np.power(-np.log1p(-u), 1.0 / (th + 1.0))),
}


@pytest.mark.parametrize("family", list(_PER_ROW_DRAWS), ids=lambda f: f.value)
@pytest.mark.parametrize("theta", [0.4, 1, 2.5])
def test_uniform_driven_families_match_the_per_row_generator(family, theta):
    stream, reps, n = RandomStream(51, 1000), 300, 28
    rows = alternative_rows(AlternativeSpec(family, theta), n, reps, stream, 5, 2)
    expect = np.array([
        _PER_ROW_DRAWS[family](stream.shifted(5 + 2 * r).generator().random(n), theta)
        for r in range(reps)
    ])
    np.testing.assert_array_equal(rows, expect)


def test_bootstrap_rows_match_the_per_row_generator():
    stream, n = RandomStream(52, 3), 20
    betas = np.exp(np.random.default_rng(3).normal(0.0, 1.5, 300))
    rows = bootstrap_rows(betas, n, stream, 1, 2)
    for r, b in enumerate(betas):
        u = stream.shifted(1 + 2 * r).generator().random(n)
        np.testing.assert_array_equal(rows[r], np.power(1.0 - u, -1.0 / b))


def _hand_driven_row(stream, beta, n):
    """The row a per-row generator gives, and how many redraws it took."""
    g = stream.generator()
    for redraws in range(_MAX_REDRAWS + 1):
        row = np.power(1.0 - g.random(n), -1.0 / beta)
        if np.all(row > 1.0):
            return row, redraws
    return None, redraws + 1


def test_row_off_the_support_continues_its_own_substream():
    # at beta = 1e15 any uniform below about 0.1 maps exactly onto x = 1, so
    # roughly a fifth of the n = 2 rows fail their first draw
    stream, n = RandomStream(53, 0), 2
    betas = np.where(np.arange(200) % 2 == 0, 1e15, 2.0)
    rows = bootstrap_rows(betas, n, stream, 3, 2)
    redrawn = 0
    for r, b in enumerate(betas):
        row, redraws = _hand_driven_row(stream.shifted(3 + 2 * r), b, n)
        np.testing.assert_array_equal(rows[r], row)
        redrawn += redraws > 0
    assert redrawn >= 10


def test_redraw_budget_starts_after_the_batch_uniforms():
    # at beta = 5e15 a uniform below about 0.43 maps onto x = 1. A row that
    # needs all ten redraws only succeeds if its first redraw skips the n
    # uniforms of the batch draw; replaying them would spend one redraw.
    stream, beta, n = RandomStream(54, 0), 5e15, 4
    ids = [r for r in range(400)
           if _hand_driven_row(stream.shifted(r), beta, n)[1] == _MAX_REDRAWS]
    assert ids
    for r in ids:
        row, _ = _hand_driven_row(stream.shifted(r), beta, n)
        np.testing.assert_array_equal(bootstrap_rows(np.array([beta]), n, stream, r)[0], row)


def test_row_blocks_refuse_ids_past_64_bits():
    top = _MASK64
    # the last row sits exactly on the top id and still draws
    edge = pareto_rows(1.0, 5, 4, RandomStream(1, top - 6), 0, 2)
    np.testing.assert_array_equal(
        edge[-1], np.power(1.0 - RandomStream(1, top).generator().random(5), -1.0))
    with pytest.raises(ValueError, match="stream_id"):
        pareto_rows(1.0, 5, 4, RandomStream(1, top - 5), 0, 2)
    with pytest.raises(ValueError, match="stream_id"):
        bootstrap_rows(np.ones(3), 5, RandomStream(1, top - 1))
    with pytest.raises(ValueError, match="stream_id"):
        alternative_rows(AlternativeSpec(Family.DHILLON, 0.4), 5, 2, RandomStream(1, 1), -2)



# ---------------------------------------------------------------------------
# Samplers against a Generator built per row

# The samplers written out from the families' definitions: each shifted by one
_ZIGGURAT_DRAWS = {
    Family.GAMMA: lambda g, n, th: 1.0 + g.gamma(th, size=n),
    Family.WEIBULL: lambda g, n, th: 1.0 + g.weibull(th, size=n),
    Family.LOG_NORMAL: lambda g, n, th: 1.0 + g.lognormal(0.0, th, size=n),
    Family.HALF_NORMAL: lambda g, n, th: 1.0 + np.abs(g.normal(0.0, th, size=n)),
}
_ZIGGURAT_SPECS = [a for a in FIXED_ALTERNATIVES if a.family in _ZIGGURAT_DRAWS]


def _mixture_per_row(spec):
    """Indicators, then Pareto uniforms, then the contaminant, from one Generator."""
    m = spec.contaminant_mean - 1.0
    contaminant = {
        Contaminant.SHIFTED_EXPONENTIAL: lambda g, n: g.exponential(m, size=n),
        Contaminant.SHIFTED_HALF_NORMAL:
            lambda g, n: np.abs(g.normal(0.0, m * np.sqrt(np.pi / 2.0), size=n)),
        Contaminant.SHIFTED_LOG_NORMAL: lambda g, n: g.lognormal(np.log(m) - 0.5, 1.0, size=n),
    }[spec.contaminant]

    def draw(g, n):
        pick = g.random(n) < spec.p
        pareto = (1.0 - g.random(n)) ** (-1.0 / spec.pareto_beta)
        return np.where(pick, 1.0 + contaminant(g, n), pareto)

    return draw


def _per_row_rows(stream, sampler, n, reps, offset=0, step=1):
    """Each row from its own fresh ``generator()``, redrawn from it while off the support.

    Returns the matrix and how many of its rows needed a redraw.
    """
    rows, redrawn = [], 0
    for r in range(reps):
        g = stream.shifted(offset + step * r).generator()
        row = sampler(g, n)
        redrawn += not np.all(row > 1.0)
        for _ in range(_MAX_REDRAWS):
            if np.all(np.isfinite(row) & (row > 1.0)):
                break
            row = sampler(g, n)
        rows.append(row)
    return np.array(rows), redrawn


@pytest.mark.parametrize("spec", _ZIGGURAT_SPECS, ids=lambda a: a.label)
def test_ziggurat_families_match_the_per_row_generator(spec):
    stream, reps, n = RandomStream(61, 40), 250, 20
    rows = alternative_rows(spec, n, reps, stream, 5, 2)
    sampler = lambda g, n: _ZIGGURAT_DRAWS[spec.family](g, n, spec.theta)  # noqa: E731
    expect, _ = _per_row_rows(stream, sampler, n, reps, 5, 2)
    assert np.array_equal(rows, expect)


@pytest.mark.parametrize("contaminant", list(Contaminant), ids=lambda c: c.value)
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_mixtures_match_the_per_row_generator(contaminant, p):
    spec, stream, reps, n = MixtureSpec(p, contaminant), RandomStream(62, 9), 250, 20
    expect, _ = _per_row_rows(stream, _mixture_per_row(spec), n, reps, 3, 4)
    assert np.array_equal(alternative_rows(spec, n, reps, stream, 3, 4), expect)


@pytest.mark.parametrize("seed, stream_id, offset, step", [
    (_MASK64, _MASK64 - 2 * 99, 0, 2),  # the last row is keyed by 2**64 - 1
    (7, _MASK64, 0, -3),  # ids run down from 2**64 - 1
    (0, 1000, 17, 5),
], ids=["top-ascending", "top-descending", "offset-step"])
def test_keyed_rows_match_the_per_row_generator_at_any_id(seed, stream_id, offset, step):
    stream, reps, n = RandomStream(seed, stream_id), 100, 7
    for spec in (AlternativeSpec(Family.HALF_NORMAL, 1.2),
                 MixtureSpec(0.5, Contaminant.SHIFTED_LOG_NORMAL)):
        draw = (_mixture_per_row(spec) if isinstance(spec, MixtureSpec) else
                lambda g, n: _ZIGGURAT_DRAWS[spec.family](g, n, spec.theta))
        expect, _ = _per_row_rows(stream, draw, n, reps, offset, step)
        assert np.array_equal(alternative_rows(spec, n, reps, stream, offset, step), expect)


def test_sampler_rows_off_the_support_continue_their_own_substream():
    # 1 + gamma(0.05) rounds to exactly 1 for about a sixth of the draws
    stream, reps, n, th = RandomStream(63, 0), 2000, 1, 0.05
    rows = alternative_rows(AlternativeSpec(Family.GAMMA, th), n, reps, stream)
    expect, redrawn = _per_row_rows(
        stream, lambda g, n: _ZIGGURAT_DRAWS[Family.GAMMA](g, n, th), n, reps)
    assert redrawn >= 200
    assert np.array_equal(rows, expect)


def test_row_sampling_without_redraws_leaves_numpy_random_unloaded():
    # the batch path builds a Generator only for a row that needs a redraw
    code = (
        "import sys, numpy as np\n"
        "import paretogof\n"
        "from paretogof import ALL_KINDS, RandomStream\n"
        "from paretogof.distributions import bootstrap_rows, pareto_rows\n"
        "from paretogof.statistics import statistic_rows\n"
        "x = pareto_rows(2.0, 20, 500, RandomStream(1, 0))\n"
        "y = bootstrap_rows(np.linspace(0.5, 4.0, 500), 20, RandomStream(1, 1), 3, 2)\n"
        "statistic_rows(ALL_KINDS, np.vstack([x, y]), 2.0)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = Path(paretogof.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
