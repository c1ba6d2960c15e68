"""Statistic kernels: closed-form limits, independent oracles, and invariances."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import paretogof
from paretogof import (
    AD,
    ALL_KINDS,
    CV,
    AlternativeSpec,
    DomainError,
    EXP_KINDS,
    Family,
    KS,
    MELLIN_G,
    MP1 as MP1_KIND,
    MP2 as MP2_KIND,
    PARETO_KINDS,
    RandomStream,
    Sample,
    TestKind,
    TestTag,
    Tour,
    ZA,
    ad,
    cv,
    estimate_mle,
    estimate_mme,
    golf_dataset,
    ks,
    mellin_g,
    mp1,
    mp2,
    pareto_cdf,
    pareto_sample,
    pivotal_transform,
    za,
)
from paretogof import statistics as statistics_module
from paretogof.distributions import alternative_rows, pareto_rows
from paretogof.estimation import mle_rows, mme_rows
from paretogof.statistics import (
    _CLOSED_MAX_N,
    _mellin_closed,
    _mellin_trapezoid,
    exp_edf_suite,
    order_weights,
    statistic_rows,
)
from oracles import mellin_g_by_integral, mp1_by_quadrature, mp2_by_quadrature


# ---------------------------------------------------------------------------
# rank weights


def test_order_weights_sum_to_n_squared():
    for n in (1, 2, 5, 17, 100):
        assert order_weights(n).sum() == pytest.approx(n * n, abs=1e-9)


def test_order_weights_count_min_pairs():
    # w_j is the number of index pairs (a, b) whose minimum is the j-th order
    # statistic; check by brute-force enumeration on a small sample.
    x = np.array([5.0, 2.0, 9.0, 3.0])
    xs = np.sort(x)
    counts = np.zeros(4)
    for a in x:
        for b_ in x:
            counts[np.searchsorted(xs, min(a, b_))] += 1
    np.testing.assert_array_equal(order_weights(4), counts)


def test_order_weights_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        order_weights(0)


# ---------------------------------------------------------------------------
# TestKind bookkeeping


def test_kind_labels():
    assert KS.label == "KS" and MP2_KIND.label == "MP2"
    assert MELLIN_G.label == "G"
    assert TestKind(TestTag.MELLIN_G, 2.0).label == "G(a=2)"
    assert str(AD) == "AD"


def test_kind_tuning_rules():
    assert MELLIN_G.tuning_a == 1.0
    with pytest.raises(DomainError):
        TestKind(TestTag.MELLIN_G, -1.0)
    with pytest.raises(DomainError):
        TestKind(TestTag.KS, 1.0)


def test_kind_suite_split():
    assert not KS.is_exponentiality
    assert all(k.is_exponentiality for k in EXP_KINDS)
    assert len(ALL_KINDS) == 11 and len(PARETO_KINDS) == 7


# ---------------------------------------------------------------------------
# one-observation closed forms


def test_single_observation_limits():
    # With n = 1 and x sitting just above the support endpoint the empirical
    # pieces collapse and every statistic has a hand-computable value.
    s = Sample([1.0 + 1e-12])
    assert mp1(s, 1.0).value == pytest.approx(0.2, abs=1e-9)
    assert mp2(s, 1.0).value == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_single_observation_edf_values():
    s = Sample([2.0])  # F(2) = 1/2 under shape 1
    assert ks(s, 1.0).value == pytest.approx(0.5, abs=1e-14)
    assert cv(s, 1.0).value == pytest.approx(1.0 / 12.0, abs=1e-14)
    assert ad(s, 1.0).value == pytest.approx(-1.0 + 4.0 * np.log(2.0) / 2.0, abs=1e-12)
    assert za(s, 1.0).value == pytest.approx(4.0 * np.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# EDF statistics against independent implementations


def _edf_cases():
    for r, beta in ((0, 1.0), (1, 2.5), (2, 0.7)):
        yield pareto_sample(beta, 25, RandomStream(501, r)), beta


def test_ks_matches_scipy():
    for s, beta in _edf_cases():
        ref = scipy.stats.kstest(s.values, lambda t: pareto_cdf(t, beta)).statistic
        assert ks(s, beta).value == pytest.approx(ref, abs=1e-12)


def test_cv_matches_scipy():
    for s, beta in _edf_cases():
        ref = scipy.stats.cramervonmises(s.values, lambda t: pareto_cdf(t, beta)).statistic
        assert cv(s, beta).value == pytest.approx(ref, abs=1e-12)


def test_ad_matches_direct_loop():
    for s, beta in _edf_cases():
        f = np.asarray(pareto_cdf(s.sorted_values, beta))
        n = s.n
        acc = 0.0
        for j in range(1, n + 1):
            acc += (2 * j - 1) * (np.log(f[j - 1]) + np.log(1.0 - f[n - j]))
        assert ad(s, beta).value == pytest.approx(-n - acc / n, abs=1e-10)


def test_za_matches_direct_loop():
    for s, beta in _edf_cases():
        f = np.asarray(pareto_cdf(s.sorted_values, beta))
        n = s.n
        acc = 0.0
        for j in range(1, n + 1):
            acc -= np.log(f[j - 1]) / (n - j + 0.5) + np.log(1.0 - f[j - 1]) / (j - 0.5)
        assert za(s, beta).value == pytest.approx(acc, abs=1e-10)


# ---------------------------------------------------------------------------
# memoryless-property statistics: double-sum forms and quadrature


positive_samples = st.lists(
    st.floats(min_value=1.01, max_value=1e4), min_size=2, max_size=20
)
betas = st.floats(min_value=0.1, max_value=8.0)


@given(vals=positive_samples, beta=betas)
def test_mp1_equals_double_sum_form(vals, beta):
    x = np.asarray(vals)
    n = x.size
    pair = sum(
        min(a, b_) ** (-beta / 2.0) for a in x for b_ in x
    )
    ref = (2.0 / (3.0 * n)) * np.sum(x ** (-1.5 * beta)) - pair / n**2 + 8.0 / 15.0
    assert mp1(Sample(x), beta).value == pytest.approx(ref, rel=1e-10, abs=1e-10)


@given(vals=positive_samples, beta=betas)
def test_mp2_equals_double_sum_form(vals, beta):
    x = np.asarray(vals)
    n = x.size
    pair = sum(min(a, b_) ** (-beta) for a in x for b_ in x)
    pair_log = sum(
        min(a, b_) ** (-beta) * np.log(min(a, b_)) for a in x for b_ in x
    )
    x2 = x ** (-2.0 * beta)
    tail = np.sum((1.0 - x2) / (2.0 * beta) - x2 * np.log(x))
    ref = 10.0 / 9.0 - pair / n**2 - beta * pair_log / n**2 - beta * tail / n
    assert mp2(Sample(x), beta).value == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_mp_statistics_match_quadrature_spot_checks():
    # the full 100-pair battery runs in the acceptance suite; one case per
    # statistic here keeps the oracle wiring honest during development
    x = pareto_sample(2.0, 12, RandomStream(502, 0)).values
    assert mp1(x, 2.3).value == pytest.approx(mp1_by_quadrature(x, 2.3), abs=1e-10)
    assert mp2(x, 2.3).value == pytest.approx(mp2_by_quadrature(x, 2.3), abs=1e-8)


# ---------------------------------------------------------------------------
# Mellin statistic


# Worst relative error against the oracle on these rows is about 6e-11, for
# this kernel and for the older moment-integral one alike.
_MELLIN_RTOL = 2e-10


def _mellin_rows_under_test(n):
    """A raw row at its MLE, its pivotal transform at shape one, and the raw
    row at shape three."""
    x = pareto_sample(1.5, n, RandomStream(503, n)).values
    return [
        (x, estimate_mle(Sample(x)).value),
        (pivotal_transform(Sample(x)).values, 1.0),
        (x, 3.0),
    ]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_mellin_g_matches_naive_resummation(a):
    # the reference integrates the defining non-negative integrand with
    # mpmath rather than summing any expansion of the square
    kind = TestKind(TestTag.MELLIN_G, a)
    for n in (1, 2, 5, 20, 30, 200):
        cases = _mellin_rows_under_test(n)
        refs = [mellin_g_by_integral(x, beta, a) for x, beta in cases]
        for (x, beta), ref in zip(cases, refs):
            assert mellin_g(Sample(x), beta, a).value == pytest.approx(ref, rel=_MELLIN_RTOL)
        rows = statistic_rows([kind], np.stack([x for x, _ in cases]),
                              np.array([beta for _, beta in cases]))[kind]
        assert rows == pytest.approx(refs, rel=_MELLIN_RTOL)


def test_mellin_g_rejects_rows_whose_pair_constant_is_not_positive():
    # 1 + a + 2 log(0.2) < 0 at a = 1: the pair integral of 0.2 with itself diverges
    x = np.array([[1.5, 2.0, 3.0], [1.5, 0.2, 3.0]])
    with pytest.raises(DomainError):
        statistic_rows([MELLIN_G], x, 1.0)
    assert np.all(np.isfinite(statistic_rows([MELLIN_G], x[:1], 1.0)[MELLIN_G]))


@pytest.mark.parametrize("shape", [(200, 200), (1, 1000), (5000, 20)])
def test_mellin_g_working_memory_is_bounded_by_the_input(shape):
    # the pair sum is taken one (rows, n - j) slab at a time, never as a
    # (rows, n, n) table; about 6 input-sized arrays are live at the peak
    x = 1.0 + np.random.default_rng(506).pareto(2.0, shape)
    tracemalloc.start()
    try:
        statistic_rows([MELLIN_G], x, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * x.nbytes


_FAULT_PROBE = """
import resource
import numpy as np
from paretogof.statistics import _mellin_closed
x = (1.0 - np.random.default_rng(507).random((150, 1000))) ** (-1.0 / {shape})
lx = np.log(x)
beta = np.ones(150)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_mellin_closed(lx, beta, 2.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _closed_form_faults(shape):
    """Minor page faults of one closed-form G evaluation of a (150, 1000)
    Pareto(shape) matrix, in a fresh process: earlier tests leave the
    allocator warm, which hides them."""
    src = str(Path(paretogof.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE.format(shape=shape)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_mellin_g_pair_loop_does_not_fault_per_column():
    # Per-column temporaries of (150, n - j) floats sit above glibc's mmap
    # threshold, so each one is mapped, zero-filled page by page on first
    # touch and unmapped again: about 440 000 minor faults for this call.
    # Reused scratch buffers fault a few thousand times. Above n = 40 G takes
    # the trapezoid rule, so the probe calls the closed form directly.
    assert _closed_form_faults(2.5) < 50_000


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_mellin_g_pair_loop_does_not_fault_per_column_on_heavy_tailed_rows():
    # Pareto(0.3) rows spread log x over several decades
    assert _closed_form_faults(0.3) < 50_000


# G by the trapezoid rule above the crossover. The gate on every row: no
# worse against the integral oracle than 1e-10 or the closed form's own error
# on that row, whichever is larger.

_G_KINDS = ("pivotal", "pareto0.3-mle", "pareto2.5-mme", "near1-mle", "near1-mme",
            "pareto0.05-mle", "one-1e300", "below1")


def _g_battery(n):
    """Adversarial rows at size n and the shape each is evaluated at: a
    pivotal row at shape one; raw Pareto(0.3) and Pareto(0.05) rows at their
    MLE, whose log x spreads over decades; a raw Pareto(2.5) row at its MME;
    two raw Pareto(50) rows, x within a few percent of 1, at their MLE and
    MME; a Pareto(2) row holding one value of 1e300, at its MLE; and a
    Pareto(3) row scaled by 0.62, so that most x < 1 and 1.1 + 2 min log x
    is about 0.15, at shape three."""
    p = pareto_rows(1.5, n, 1, RandomStream(511, 0))
    heavy = pareto_rows(0.3, n, 1, RandomStream(511, 1))
    mid = pareto_rows(2.5, n, 1, RandomStream(511, 2))
    near = pareto_rows(50.0, n, 2, RandomStream(511, 3))
    heavier = pareto_rows(0.05, n, 1, RandomStream(511, 4))
    huge = pareto_rows(2.0, n, 1, RandomStream(511, 5))
    huge[0, n // 2] = 1e300
    below = 0.62 * pareto_rows(3.0, n, 1, RandomStream(511, 6))
    x = np.vstack([p ** mle_rows(p)[:, None], heavy, mid, near, heavier, huge, below])
    beta = np.concatenate([[1.0], mle_rows(heavy), mme_rows(mid),
                           mle_rows(near[:1]), mme_rows(near[1:]),
                           mle_rows(heavier), mle_rows(huge), [3.0]])
    return x, beta


def _check_g_rows(n, cases):
    """Each (row kind, a) case against the oracle; the whole battery is one
    block per a."""
    x, beta = _g_battery(n)
    lx = np.log(x)
    for a in sorted({a for _, a in cases}):
        kind = TestKind(TestTag.MELLIN_G, a)
        got = statistic_rows([kind], x, beta)[kind]
        closed = _mellin_closed(lx, beta, 1.0 + a)
        for name, case_a in cases:
            if case_a != a:
                continue
            i = _G_KINDS.index(name)
            ref = mellin_g_by_integral(x[i], beta[i], a)
            closed_err = abs(closed[i] / ref - 1.0)
            assert abs(got[i] / ref - 1.0) <= max(1e-10, closed_err), (n, name, a)


_G_A = (0.1, 1.0, 5.0)
_G_ALL = [(name, a) for name in _G_KINDS for a in _G_A]


@pytest.mark.parametrize("n, cases", [
    (_CLOSED_MAX_N + 1, _G_ALL),
    (200, [("pivotal", 1.0), ("near1-mme", 5.0), ("pareto0.05-mle", 0.1)]),
], ids=["crossover", "200"])
def test_mellin_g_quadrature_rows_match_the_integral(n, cases):
    _check_g_rows(n, cases)


@pytest.mark.skipif(os.environ.get("PARETOGOF_FULL_SCALE") != "1",
                    reason="about 5 minutes of oracle integrals; "
                           "set PARETOGOF_FULL_SCALE=1 to run")
@pytest.mark.parametrize("n", [200, 1000])
def test_mellin_g_quadrature_rows_match_the_integral_full_battery(n):
    _check_g_rows(n, _G_ALL)


@pytest.mark.parametrize("n", [_CLOSED_MAX_N + 1, 1000])
def test_mellin_g_method_is_chosen_by_the_row_alone(n):
    # each row of the mixed block has the bits of its own 1-row evaluation
    x, beta = _g_battery(n)
    for a in _G_A:
        kind = TestKind(TestTag.MELLIN_G, a)
        got = statistic_rows([kind], x, beta)[kind]
        assert np.array_equal(got, _mellin_trapezoid(np.log(x), beta, 1.0 + a))
        for i, name in enumerate(_G_KINDS):
            one = statistic_rows([kind], x[i:i + 1], beta[i:i + 1])[kind]
            assert got[i] == one[0], (name, a)


def test_mellin_g_above_the_crossover_never_takes_the_closed_form(monkeypatch):
    closed = statistics_module._mellin_closed

    def closed_up_to_the_crossover(lx, beta, c):
        if lx.shape[1] > _CLOSED_MAX_N:
            raise AssertionError(f"closed form at n = {lx.shape[1]}")
        return closed(lx, beta, c)

    monkeypatch.setattr(statistics_module, "_mellin_closed", closed_up_to_the_crossover)
    for n in (_CLOSED_MAX_N + 1, 1000):
        x, beta = _g_battery(n)
        for a in _G_A:
            kind = TestKind(TestTag.MELLIN_G, a)
            assert np.all(np.isfinite(statistic_rows([kind], x, beta)[kind]))


def test_mellin_g_at_the_crossover_and_below_is_the_closed_form():
    # n <= _CLOSED_MAX_N keeps today's kernel bit for bit, so tabulated critical
    # values at n = 20 and 30 do not move
    for n in (20, 30, _CLOSED_MAX_N):
        x = pareto_rows(2.0, n, 50, RandomStream(512, n))
        b = mle_rows(x)
        got = statistic_rows([MELLIN_G], x, b)[MELLIN_G]
        assert np.array_equal(got, _mellin_closed(np.log(x), b, 2.0))


def test_mellin_g_quadrature_nodes_load_on_first_use():
    # numpy.polynomial is not loaded by importing numpy; neither the CLI's
    # start-up and a critical-value run at n = 20 nor G at n = 1000 loads it
    code = (
        "import sys\n"
        "import paretogof.cli\n"
        "from paretogof.cli import main\n"
        "main(['critical-values', '--n', '20', '--reps', '1000', '--seed', '1'])\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "import numpy as np\n"
        "from paretogof.statistics import MELLIN_G, statistic_rows\n"
        "statistic_rows([MELLIN_G], np.full((1, 1000), 2.0), 1.0)\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    src = Path(paretogof.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "False"]


def test_mellin_g_routes_differ():
    # plugging the estimate into G is not the same number as evaluating G at
    # shape one on the transformed sample; both routes must stay available
    s = pareto_sample(2.0, 20, RandomStream(504, 0))
    plug = mellin_g(s, estimate_mme(s).value).value
    piv = mellin_g(pivotal_transform(s), 1.0).value
    assert abs(plug - piv) > 1e-6


def test_mp1_routes_differ():
    s = pareto_sample(2.0, 20, RandomStream(504, 1))
    plug = mp1(s, estimate_mme(s).value).value
    piv = mp1(pivotal_transform(s), 1.0).value
    assert abs(plug - piv) > 1e-8


def test_mellin_g_tuning_changes_value():
    s = pareto_sample(2.0, 15, RandomStream(505, 0))
    assert mellin_g(s, 2.0, 1.0).value != mellin_g(s, 2.0, 2.0).value
    assert mellin_g(s, 2.0, 2.0).kind.label == "G(a=2)"


# ---------------------------------------------------------------------------
# pivotal invariance


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(3, 40),
    beta=st.floats(0.2, 6.0),
    power=st.floats(0.25, 4.0),
)
@settings(max_examples=60)
def test_transformed_statistics_do_not_depend_on_the_shape(seed, n, beta, power):
    # Evaluating any statistic at shape one on the own-MLE-transformed sample
    # gives the same number whether the data came from P(beta) or were powered
    # to look like P(beta/power): the transform absorbs the shape completely.
    x = pareto_sample(beta, n, RandomStream(seed, 0)).values
    y1 = pivotal_transform(Sample(x))
    y2 = pivotal_transform(Sample(np.power(x, power)))
    for fn in (ks, cv, ad, za, mp1, mp2, mellin_g):
        assert fn(y1, 1.0).value == pytest.approx(fn(y2, 1.0).value, rel=1e-10, abs=1e-10)


def test_statistics_are_permutation_invariant():
    x = pareto_sample(1.5, 30, RandomStream(506, 0)).values
    perm = np.random.default_rng(1).permutation(x)
    for fn in (ks, cv, ad, za, mp1, mp2, mellin_g):
        assert fn(Sample(perm), 2.0).value == pytest.approx(
            fn(Sample(x), 2.0).value, rel=1e-12
        )
    for a, b_ in zip(exp_edf_suite(Sample(perm)), exp_edf_suite(Sample(x))):
        assert a.value == pytest.approx(b_.value, rel=1e-12)


# ---------------------------------------------------------------------------
# exponentiality suite


def test_exp_suite_equals_log_domain_construction():
    # the definition, one term at a time: an exponential of rate 1/mean(y)
    # fitted to the sorted y = log x, with F = 1 - exp(-lam y) and
    # log(1 - F) = -lam y taken exactly rather than from F, where the
    # implementation reads every statistic off the model CDF at the MLE
    samples = [pareto_sample(2.0, 24, RandomStream(507, 0)).values] + [
        alternative_rows(law, n, 1, RandomStream(507, 4 + n))[0]
        for law in (AlternativeSpec(Family.PARETO, 0.3), AlternativeSpec(Family.GAMMA, 1.2),
                    AlternativeSpec(Family.LOG_NORMAL, 2.5))
        for n in (2, 20, 200)
    ]
    for x in samples:
        n = x.size
        y = sorted(math.log(v) for v in x)
        lam = n / math.fsum(y)
        f = [-math.expm1(-lam * v) for v in y]
        log_f = [math.log(v) for v in f]
        log_s = [-lam * v for v in y]
        js = range(1, n + 1)
        ks_ref = max(max(j / n - f[j - 1], f[j - 1] - (j - 1) / n) for j in js)
        cv_ref = 1.0 / (12 * n) + math.fsum((f[j - 1] - (2 * j - 1) / (2 * n)) ** 2 for j in js)
        ad_ref = -n - math.fsum((2 * j - 1) * (log_f[j - 1] + log_s[n - j]) for j in js) / n
        za_ref = -math.fsum(log_f[j - 1] / (n - j + 0.5) + log_s[j - 1] / (j - 0.5) for j in js)
        suite = {v.kind: v for v in exp_edf_suite(Sample(x))}
        assert not any(v.clamped for v in suite.values()), n
        for kind, ref in zip(EXP_KINDS, (ks_ref, cv_ref, ad_ref, za_ref)):
            assert suite[kind].value == pytest.approx(ref, abs=1e-12), (n, kind)
            assert suite[kind].beta_used == pytest.approx(lam, rel=1e-12), (n, kind)


def test_exp_suite_equals_pareto_edf_at_the_mle():
    s = pareto_sample(3.0, 24, RandomStream(507, 1))
    bhat = estimate_mle(s).value
    suite = {v.kind.tag.value: v for v in exp_edf_suite(s)}
    assert suite["ExpKS"].value == pytest.approx(ks(s, bhat).value, abs=1e-13)
    assert suite["ExpCV"].value == pytest.approx(cv(s, bhat).value, abs=1e-13)
    assert suite["ExpAD"].value == pytest.approx(ad(s, bhat).value, abs=1e-13)
    assert suite["ExpZA"].value == pytest.approx(za(s, bhat).value, abs=1e-13)


def test_exp_suite_is_power_invariant():
    s = pareto_sample(1.2, 24, RandomStream(507, 2))
    powered = Sample(np.power(s.values, 3.7))
    for a, b_ in zip(exp_edf_suite(s), exp_edf_suite(powered)):
        assert a.value == pytest.approx(b_.value, rel=1e-11)


def test_exp_kinds_are_their_edf_twins_at_the_supplied_beta():
    # each Exp kind reads its EDF twin at the shape passed, bit for bit and
    # with the same clamp flags, and needs a shape like every other kind
    x = pareto_rows(2.0, 15, 6, RandomStream(507, 3))
    x[0, 0] = 1.0  # the CDF is 0 there and clamps
    twins = dict(zip(EXP_KINDS, (KS, CV, AD, ZA)))
    for beta in (0.5, 9.0, np.linspace(0.5, 9.0, len(x))):
        exp, exp_hit = statistics_module._evaluate(EXP_KINDS, x, beta)
        edf, edf_hit = statistics_module._evaluate(list(twins.values()), x, beta)
        assert {twins[e] for e in exp_hit} == set(edf_hit) == {AD, ZA}
        for e, k in twins.items():
            assert np.array_equal(exp[e], edf[k]), (e, beta)
        for e, hit in exp_hit.items():
            assert hit[0] and np.array_equal(hit, edf_hit[twins[e]]), (e, beta)
    with pytest.raises(ValueError, match="beta is required"):
        statistic_rows(EXP_KINDS, x)


# ---------------------------------------------------------------------------
# batch evaluation


def test_batch_rows_match_single_sample_calls():
    # exact: a single-sample call is a one-row block, and a row's value does
    # not depend on its block. Shapes 0.5 and 1.0 make exponents of exactly
    # -1, which numpy computes differently on a one-row block unless the
    # exponent is materialised; ten rows of each, because a last-bit change
    # in one power does not always reach the statistic.
    beta = np.concatenate([[0.9, 1.4, 2.0, 3.3, 0.6], np.tile([0.5, 1.0], 10)])
    rows = np.vstack([
        pareto_sample(2.0, 18, RandomStream(508, r)).values for r in range(beta.size)
    ])
    got = statistic_rows(ALL_KINDS, rows, beta)
    singles = {
        "KS": ks, "CV": cv, "AD": ad, "ZA": za, "MP1": mp1, "MP2": mp2,
        "MellinG": mellin_g,
    }
    for k in PARETO_KINDS:
        fn = singles[k.tag.value]
        for r in range(len(rows)):
            assert got[k][r] == fn(Sample(rows[r]), beta[r]).value, (k, r)
    at_mle = statistic_rows(ALL_KINDS, rows, mle_rows(rows))
    for r in range(len(rows)):
        suite = {v.kind: v.value for v in exp_edf_suite(Sample(rows[r]))}
        for k in EXP_KINDS:
            assert at_mle[k][r] == suite[k], (k, r)


@pytest.mark.parametrize("n", [1, 2, 5, 30, 1000])
def test_statistic_rows_are_row_independent(n):
    # each row's value depends on its own row alone, bit for bit: a 1-row
    # block, a middle block and a ragged tail give the whole matrix's values,
    # also on the pivotal rows at shape one, where the EDF kernels raise to
    # exactly -1
    rows = 13
    x = pareto_rows(2.0, n, rows, RandomStream(510, n))
    b = mle_rows(x)
    for mat, beta in ((x, b), (x ** b[:, None], np.ones(rows))):
        whole = statistic_rows(ALL_KINDS, mat, beta)
        parts = [statistic_rows(ALL_KINDS, mat[lo:hi], beta[lo:hi])
                 for lo, hi in ((0, 1), (1, 5), (5, rows))]
        for k in ALL_KINDS:
            assert np.array_equal(whole[k], np.concatenate([p[k] for p in parts])), k


def test_statistic_rows_validation():
    x = pareto_sample(2.0, 10, RandomStream(509, 0)).values
    with pytest.raises(ValueError, match="matrix"):
        statistic_rows([KS], x, 1.0)
    with pytest.raises(ValueError, match="beta is required"):
        statistic_rows([KS], x[None, :])
    with pytest.raises(ValueError, match="beta must be scalar"):
        statistic_rows([KS], x[None, :], np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        statistic_rows([KS], x[None, :], -1.0)
    assert statistic_rows([], x[None, :], 1.0) == {}


def test_statistic_rows_collapses_duplicates_and_coerces_tags():
    x = pareto_sample(2.0, 10, RandomStream(509, 1)).values[None, :]
    got = statistic_rows([KS, KS, TestTag.KS], x, 1.0)
    assert list(got) == [KS]


@pytest.mark.parametrize("n", [1, 2, 20, 30, 41])
def test_each_kind_has_the_bits_it_has_alone(n):
    # the tables a block shares between kinds (the sorted rows, the CDF power,
    # each CDF table's logs, log x) give every kind the values and clamp flags
    # it gets evaluated alone; row 0 holds a value whose CDF rounds below the
    # clamp and row 1 one whose CDF rounds to 1
    rows = 12
    x = pareto_rows(2.0, n, rows, RandomStream(511, n))
    x[0, 0] = np.nextafter(1.0, 2.0)
    x[1, -1] = 1e300
    b = np.linspace(0.5, 4.0, rows)
    kinds = ALL_KINDS + (TestKind(TestTag.MELLIN_G, 0.5),)
    values, clamped = statistics_module._evaluate(kinds, x, b)
    assert clamped[AD][:2].all() and clamped[ZA][:2].all()
    assert sorted(k.label for k in clamped) == ["AD", "ExpAD", "ExpZA", "ZA"]
    for k in kinds:
        alone, alone_clamped = statistics_module._evaluate([k], x, b)
        assert np.array_equal(values[k], alone[k], equal_nan=True), k
        assert list(alone_clamped) == ([k] if k in clamped else [])
        if k in clamped:
            assert np.array_equal(clamped[k], alone_clamped[k]), k


# ---------------------------------------------------------------------------
# clamp reporting


def test_log_statistics_flag_saturated_cdf_values():
    s = Sample([1.5, 2.0, 1e300])  # F(1e300) rounds to 1 under shape 5
    assert ad(s, 5.0).clamped
    assert za(s, 5.0).clamped
    assert not ks(s, 5.0).clamped
    assert not cv(s, 5.0).clamped
    assert np.isfinite(ad(s, 5.0).value)


def test_moderate_samples_are_unflagged():
    s = pareto_sample(2.0, 20, RandomStream(510, 0))
    for fn in (ks, cv, ad, za):
        assert not fn(s, 2.0).clamped


# ---------------------------------------------------------------------------
# regression pins: full-precision values for the two embedded datasets,
# frozen from this implementation to catch accidental kernel changes


_PINS = {
    (Tour.PGA, "mme"): (2.346985424628084,
                        [0.2549347399526356, 0.3561234555607081, 1.655456235043495,
                         3.4844964752302703, 0.22528171043289547, 0.009425354642121797,
                         0.009561087631559329]),
    (Tour.PGA, "mle"): (2.033364794421054,
                        [0.20616920845251407, 0.1767631736667362, 0.8910103958348756,
                         3.4400874699002704, 0.045522395047484565, 0.004615813430415727,
                         0.0043587038753525875]),
    (Tour.LIV, "mme"): (1.7796305822315395,
                        [0.15119403050410088, 0.11021433604154528, 0.6028496710860551,
                         3.3371866230481584, 0.06961199475942692, 0.00322970390594568,
                         0.003577386074621519]),
    (Tour.LIV, "mle"): (1.5766351227914188,
                        [0.11989504586898106, 0.046767284880836923, 0.28366152438033865,
                         3.3085501175006122, 0.004643769537487685, 0.0012785055774017229,
                         0.0012553475011825854]),
}


@pytest.mark.parametrize("tour,method", list(_PINS), ids=lambda v: getattr(v, "value", v))
def test_embedded_dataset_statistics_are_pinned(tour, method):
    s = golf_dataset(tour).sample
    est = estimate_mme(s) if method == "mme" else estimate_mle(s)
    beta_pin, stat_pins = _PINS[(tour, method)]
    assert est.value == pytest.approx(beta_pin, rel=1e-12)
    fns = (ks, cv, ad, za, mellin_g, mp1, mp2)
    for fn, pin in zip(fns, stat_pins):
        assert fn(s, est.value).value == pytest.approx(pin, rel=1e-12)
