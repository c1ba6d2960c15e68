"""Inference machinery: quantile conventions, critical values, power, bootstrap."""

import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import paretogof
from paretogof import (
    AD,
    ALL_KINDS,
    CV,
    AlternativeSpec,
    ConfigurationError,
    CriticalValueTable,
    DomainError,
    EXP_KINDS,
    EstimatorMethod,
    Family,
    KS,
    MELLIN_G,
    MP2,
    PARETO_KINDS,
    RandomStream,
    Sample,
    StudyConfig,
    UnsupportedPathError,
    ZA,
    bootstrap_pvalue,
    bootstrap_pvalue_many,
    null_critical_value,
    null_critical_values,
    pareto_sample,
    power_fixed_critical,
    run_power_table,
    upper_quantile,
    warp_speed_power,
)
from paretogof import inference, statistics
from paretogof.distributions import alternative_rows, bootstrap_rows, pareto_rows
from paretogof.estimation import estimate_shape, mle_rows, mme_rows
from paretogof.inference import (
    DEFAULT_ALPHAS,
    pivotal_statistic_rows,
    power_fixed_critical_many,
    warp_speed_power_many,
)
from paretogof.statistics import statistic_rows

MME = EstimatorMethod.MME
MLE = EstimatorMethod.MLE
GAMMA12 = AlternativeSpec(Family.GAMMA, 1.2)
NULL2 = AlternativeSpec(Family.PARETO, 2.0)


# ---------------------------------------------------------------------------
# upper_quantile


def test_upper_quantile_order_statistic_convention():
    vals = np.arange(1.0, 101.0)
    np.random.default_rng(0).shuffle(vals)
    assert upper_quantile(vals, 0.05) == 95.0
    assert upper_quantile(vals, 0.10) == 90.0
    assert upper_quantile(vals, 1.0) == 1.0  # index clips to the minimum
    assert upper_quantile(vals, 0.001) == 100.0


def test_upper_quantile_index_is_computed_in_float():
    # the ceil runs on (1 - alpha) * m as floats; pin the resulting index so
    # every consumer of a saved table agrees on the convention
    m = 100_000
    k = min(max(math.ceil((1.0 - 0.05) * m), 1), m)
    vals = np.arange(1.0, m + 1.0)
    assert upper_quantile(vals, 0.05) == float(k)


def test_upper_quantile_validation():
    with pytest.raises(ValueError):
        upper_quantile(np.array([]), 0.05)
    with pytest.raises(ValueError):
        upper_quantile(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        upper_quantile(np.array([1.0]), 1.5)


# ---------------------------------------------------------------------------
# evaluation conventions


def test_pivotal_and_plugin_agree_except_for_the_mellin_statistic():
    # raising to the fitted power and evaluating at shape one is literally the
    # same number as plugging the fit into the power-law statistics; only the
    # Mellin weight breaks the identity, which is why its decision and display
    # values are tracked separately on the MLE route
    x = pareto_rows(2.0, 25, 4, RandomStream(600, 0))
    piv, b_piv = pivotal_statistic_rows(PARETO_KINDS, x)
    b_plug = mle_rows(x)
    plug = statistic_rows(PARETO_KINDS, x, b_plug)
    np.testing.assert_allclose(b_piv, b_plug, rtol=1e-15)
    for k in PARETO_KINDS:
        if k is MELLIN_G:
            assert np.all(np.abs(piv[k] - plug[k]) > 1e-12)
        else:
            np.testing.assert_allclose(piv[k], plug[k], rtol=1e-9)


@pytest.mark.parametrize("law", [AlternativeSpec(Family.PARETO, 0.3), GAMMA12,
                                 AlternativeSpec(Family.LOG_NORMAL, 2.5)],
                         ids=["pareto0.3", "gamma1.2", "lognormal2.5"])
def test_the_exponentiality_suite_is_the_edf_suite_at_the_mle(law):
    # a fitted exponential on log x has the CDF 1 - x**(-mle), the model CDF
    # at the MLE: on raw rows the same operations give the same bits, and on
    # pivotal rows, whose MLE is one, the Exp kinds are their twins' columns
    x = alternative_rows(law, 20, 1000, RandomStream(600, 2))
    edf = [KS, CV, AD, ZA]
    exp = statistic_rows(EXP_KINDS, x, mle_rows(x))
    at_mle = statistic_rows(edf, x, mle_rows(x))
    piv_exp, _ = pivotal_statistic_rows(EXP_KINDS, x)
    piv_edf, _ = pivotal_statistic_rows(edf, x)
    for e, k in zip(EXP_KINDS, edf):
        assert np.array_equal(exp[e], at_mle[k]), e
        assert np.array_equal(piv_exp[e], piv_edf[k]), e


def test_plugin_rows_use_the_requested_estimator():
    # the moment route's plug-in decisions take the moment estimate, the
    # likelihood route's pivotal ones the MLE
    x = pareto_rows(2.0, 3, 5, RandomStream(600, 1))
    stats_mme, b_mme = inference._decide([KS], x, MME)
    _, b_mle = inference._decide([KS], x, MLE)
    assert np.array_equal(b_mme, mme_rows(x)) and np.array_equal(b_mle, mle_rows(x))
    assert not np.allclose(b_mme, b_mle)
    assert np.array_equal(stats_mme[KS], statistic_rows([KS], x, b_mme)[KS])


# ---------------------------------------------------------------------------
# route restrictions


def test_exponentiality_kinds_refuse_the_moment_route():
    s = pareto_sample(2.0, 20, RandomStream(601, 0))
    with pytest.raises(UnsupportedPathError):
        bootstrap_pvalue(EXP_KINDS[0], MME, s, 100, RandomStream(601, 1))
    with pytest.raises(UnsupportedPathError):
        warp_speed_power_many(EXP_KINDS, MME, GAMMA12, 20, 0.05, 100,
                              RandomStream(601, 2))


def test_every_route_needs_at_least_one_kind():
    s = pareto_sample(2.0, 20, RandomStream(601, 4))
    with pytest.raises(ValueError, match="need at least one test kind"):
        null_critical_values([], 20, [0.05], 1000, RandomStream(601, 5))
    with pytest.raises(ValueError, match="need at least one test kind"):
        bootstrap_pvalue_many([], MME, s, 100, RandomStream(601, 6))


def test_critical_values_are_mle_only():
    with pytest.raises(UnsupportedPathError, match="bootstrap"):
        null_critical_value(KS, 20, 0.05, 1000, RandomStream(601, 3), estimator=MME)


# ---------------------------------------------------------------------------
# CriticalValueTable


def test_table_put_value_contains_len():
    t = CriticalValueTable(reps=1000, seed=1)
    t.put(KS, MLE, 20, 0.05, 0.3)
    assert t.value(KS, MLE, 20, 0.05) == 0.3
    assert (KS, MLE, 20, 0.05) in t
    assert (MP2, MLE, 20, 0.05) not in t
    assert (KS, "mle", np.int64(20), 0.05) in t  # coerced as put() coerces its key
    assert len(t) == 1
    with pytest.raises(ConfigurationError, match="MP2"):
        t.value(MP2, MLE, 20, 0.05)


def test_table_put_refuses_what_load_refuses(tmp_path):
    # the MLE-only rule is put's: an MME entry is never stored, so no table
    # can save a file that load then refuses, and load names the line
    t = CriticalValueTable(reps=1000, seed=1)
    t.put(KS, MLE, 20, 0.05, 0.3)
    with pytest.raises(UnsupportedPathError, match="only MLE-route entries"):
        t.put(KS, MME, 20, 0.05, 0.4)
    with pytest.raises(UnsupportedPathError, match="only MLE-route entries"):
        t.put(CV, "mme", 20, 0.05, 0.4)
    assert list(t.entries) == [(KS, MLE, 20, 0.05)]
    path = tmp_path / "cv.csv"
    t.save(path)
    path.write_text(path.read_text() + "KS,mme,20,0.05,1000,1,0.4\n")
    with pytest.raises(ConfigurationError,
                       match="line 4: .*only MLE-route entries are tabulated"):
        CriticalValueTable.load(path)


def test_table_save_load_round_trip(tmp_path):
    from paretogof import TestKind, TestTag

    t = CriticalValueTable(reps=5000, seed=77)
    t.put(KS, MLE, 20, 0.05, 0.2871234)
    t.put(MP2, MLE, 30, 0.01, 0.0912345678901)
    t.put(TestKind(TestTag.MELLIN_G, 2.5), MLE, 20, 0.10, 1.25)
    path = tmp_path / "cv.csv"
    t.save(path)
    back = CriticalValueTable.load(path)
    assert back.reps == 5000 and back.seed == 77
    assert back.entries == t.entries
    assert back.value(TestKind(TestTag.MELLIN_G, 2.5), MLE, 20, 0.10) == 1.25


def test_saved_exp_entries_are_their_edf_twins_values(tmp_path):
    # on the pivotal rows each Exp kind reads its EDF twin's column, so the
    # tabulated values are equal, and a v1 file holding all eleven kinds
    # saves and loads them as they are
    n, alphas = 20, [0.01, 0.05, 0.10]
    t = null_critical_values(ALL_KINDS, n, alphas, 2000, RandomStream(612, 0))
    for e, k in zip(EXP_KINDS, (KS, CV, AD, ZA)):
        for a in alphas:
            assert t.value(e, MLE, n, a) == t.value(k, MLE, n, a), (e, a)
    path = tmp_path / "cv.csv"
    t.save(path)
    assert path.read_text().startswith("paretogof-critical-values v1\n")
    back = CriticalValueTable.load(path)
    assert (back.reps, back.seed) == (t.reps, t.seed)
    assert back.entries == t.entries and len(back) == len(ALL_KINDS) * len(alphas)


def test_table_load_rejects_foreign_and_mixed_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("something else\n")
    with pytest.raises(ConfigurationError, match="format"):
        CriticalValueTable.load(bad)

    mixed = tmp_path / "mixed.csv"
    mixed.write_text(
        "paretogof-critical-values v1\n"
        "kind,estimator,n,alpha,reps,seed,value\n"
        "KS,mle,20,0.05,1000,1,0.3\n"
        "CV,mle,20,0.05,2000,1,0.1\n"
    )
    with pytest.raises(ConfigurationError, match="mixes"):
        CriticalValueTable.load(mixed)

    headless = tmp_path / "headless.csv"
    headless.write_text("paretogof-critical-values v1\nkind,estimator,n,alpha,value\n")
    with pytest.raises(ConfigurationError, match="unexpected column header"):
        CriticalValueTable.load(headless)

    empty = tmp_path / "empty.csv"
    empty.write_text(
        "paretogof-critical-values v1\nkind,estimator,n,alpha,reps,seed,value\n"
    )
    with pytest.raises(ConfigurationError, match="no entries"):
        CriticalValueTable.load(empty)


@pytest.mark.parametrize("row", [
    "KS,mle,20,0.05,1000,1",
    "XX,mle,20,0.05,1000,1,0.3",
    "KS,map,20,0.05,1000,1,0.3",
    "KS,mle,20,0.05,1000,1,abc",
    "MellinG:a=zz,mle,20,0.05,1000,1,0.3",
    "KS,mme,20,0.05,1000,1,0.3",
], ids=["six-fields", "kind", "estimator", "value", "tuning", "mme-route"])
def test_table_load_names_the_file_and_line_of_a_malformed_row(row, tmp_path):
    path = tmp_path / "cv.csv"
    path.write_text(
        "paretogof-critical-values v1\nkind,estimator,n,alpha,reps,seed,value\n"
        "KS,mle,20,0.01,1000,1,0.4\n\n" + row + "\n"  # the bad row is line 5
    )
    with pytest.raises(ConfigurationError) as exc:
        CriticalValueTable.load(path)
    assert str(exc.value).startswith(f"{path}, line 5: ")


# ---------------------------------------------------------------------------
# null critical values


def test_null_pool_requires_enough_replications():
    with pytest.raises(ValueError, match="1000"):
        null_critical_values([KS], 20, [0.05], 999, RandomStream(602, 0))


def test_routes_report_an_empty_sample_size_as_the_sampler_does():
    # the chunk size is worked out from n before the sampler checks it
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        null_critical_values([KS], 0, [0.05], 1000, RandomStream(602, 0))
    with pytest.raises(ValueError, match="sample size must be at least 1"):
        warp_speed_power_many([KS], MLE, GAMMA12, 0, 0.05, 10, RandomStream(602, 0))


def test_null_critical_values_are_deterministic():
    a = null_critical_values([KS, MP2], 10, [0.05, 0.10], 1000, RandomStream(602, 1))
    b = null_critical_values([KS, MP2], 10, [0.05, 0.10], 1000, RandomStream(602, 1))
    assert a.entries == b.entries


def test_single_kind_helper_matches_the_pool():
    stream = RandomStream(602, 2)
    table = null_critical_values([KS], 15, [0.05], 1000, stream)
    assert null_critical_value(KS, 15, 0.05, 1000, stream) == table.value(KS, MLE, 15, 0.05)


def test_critical_values_decrease_with_alpha(cv20):
    for k in ALL_KINDS:
        c01 = cv20.value(k, MLE, 20, 0.01)
        c05 = cv20.value(k, MLE, 20, 0.05)
        c10 = cv20.value(k, MLE, 20, 0.10)
        assert c01 >= c05 >= c10 > 0.0


def test_critical_values_are_seed_stable(cv20):
    # an independent pool must land within Monte Carlo error of the session
    # pool; the quantile's standard error is estimated from the spacing of
    # nearby order statistics, and the band is six of those
    reps = 20_000
    other = null_critical_values(ALL_KINDS, 20, [0.05], reps, RandomStream(987654321, 5))
    x = pareto_rows(1.0, 20, reps, RandomStream(987654321, 5), 0, 1)
    stats = statistic_rows(ALL_KINDS, x ** mle_rows(x)[:, None], 1.0)
    for k in ALL_KINDS:
        pool = np.sort(stats[k])
        kidx = math.ceil(0.95 * reps) - 1
        half = 200
        spacing = (pool[min(kidx + half, reps - 1)] - pool[max(kidx - half, 0)]) / (2 * half)
        dens_se = math.sqrt(0.05 * 0.95 / reps) * reps * spacing
        tol = 6.0 * dens_se * math.sqrt(1.0 + reps / 100_000)
        assert other.value(k, MLE, 20, 0.05) == pytest.approx(
            cv20.value(k, MLE, 20, 0.05), abs=tol
        ), k.label


def test_size_is_controlled_on_fresh_null_draws(cv20):
    # quick two-kind sanity at modest replication; the acceptance suite runs
    # the full grid at 10^4
    reps = 4000
    x = pareto_rows(3.0, 20, reps, RandomStream(603, 0), 0, 1)
    stats = statistic_rows([KS, MP2], x ** mle_rows(x)[:, None], 1.0)
    for k in (KS, MP2):
        rate = float(np.mean(stats[k] > cv20.value(k, MLE, 20, 0.05)))
        assert rate == pytest.approx(0.05, abs=0.015)


# ---------------------------------------------------------------------------
# fixed-critical-value power


def test_power_checks_the_table_before_sampling():
    empty = CriticalValueTable(reps=1000, seed=0)
    with pytest.raises(ConfigurationError):
        # reps is absurd on purpose: if sampling happened first this would hang
        power_fixed_critical(KS, GAMMA12, 20, 0.05, 10**9, empty, RandomStream(604, 0))


def test_power_fixed_critical_needs_one_replication():
    table = CriticalValueTable(reps=1000, seed=0)
    table.put(KS, MLE, 20, 0.05, 0.5)
    with pytest.raises(ValueError, match="reps must be at least 1"):
        power_fixed_critical_many([KS], GAMMA12, 20, 0.05, 0, table, RandomStream(604, 7))


def test_power_routes_refuse_a_non_spec_alternative_at_the_first_draw():
    table = CriticalValueTable(reps=1000, seed=0)
    table.put(KS, MLE, 20, 0.05, 0.5)
    with pytest.raises(TypeError, match="AlternativeSpec or MixtureSpec"):
        power_fixed_critical_many([KS], "gamma:1.2", 20, 0.05, 10, table,
                                  RandomStream(604, 5))
    for estimator in (MLE, MME):
        with pytest.raises(TypeError, match="AlternativeSpec or MixtureSpec"):
            warp_speed_power_many([KS], estimator, "gamma:1.2", 20, 0.05, 10,
                                  RandomStream(604, 6))
    # a missing table entry is still reported first
    with pytest.raises(ConfigurationError):
        power_fixed_critical_many([MP2], "gamma:1.2", 20, 0.05, 10, table,
                                  RandomStream(604, 5))


def test_power_fixed_critical_basics(cv20):
    est = power_fixed_critical(MP2, GAMMA12, 20, 0.05, 2000, cv20, RandomStream(604, 1))
    assert 0.0 <= est.power <= 1.0
    assert est.replications == 2000 and est.alpha == 0.05 and est.n == 20
    assert est.std_error == pytest.approx(
        math.sqrt(est.power * (1.0 - est.power) / 2000)
    )
    again = power_fixed_critical(MP2, GAMMA12, 20, 0.05, 2000, cv20, RandomStream(604, 1))
    assert again.power == est.power


def test_power_exceeds_size_for_a_separated_alternative(cv20):
    null_rate = power_fixed_critical(MP2, NULL2, 20, 0.05, 2000, cv20,
                                     RandomStream(604, 2)).power
    alt_rate = power_fixed_critical(MP2, GAMMA12, 20, 0.05, 2000, cv20,
                                    RandomStream(604, 3)).power
    assert null_rate == pytest.approx(0.05, abs=0.02)
    assert alt_rate > null_rate + 0.2


def test_power_many_shares_draws_across_kinds(cv20):
    many = power_fixed_critical_many(PARETO_KINDS, GAMMA12, 20, 0.05, 500, cv20,
                                     RandomStream(604, 4))
    single = power_fixed_critical(KS, GAMMA12, 20, 0.05, 500, cv20, RandomStream(604, 4))
    assert many[KS].power == single.power


# ---------------------------------------------------------------------------
# warp-speed power


def test_warp_speed_needs_two_replications():
    with pytest.raises(ValueError):
        warp_speed_power(KS, MME, GAMMA12, 20, 0.05, 1, RandomStream(605, 0))


def test_warp_speed_is_deterministic_and_bounded():
    a = warp_speed_power(MP2, MME, GAMMA12, 20, 0.05, 1500, RandomStream(605, 1))
    b = warp_speed_power(MP2, MME, GAMMA12, 20, 0.05, 1500, RandomStream(605, 1))
    assert a.power == b.power and 0.0 <= a.power <= 1.0
    assert a.estimator is MME


def test_warp_speed_size_is_near_alpha_under_the_null():
    for estimator in (MME, MLE):
        est = warp_speed_power(MP2, estimator, NULL2, 20, 0.05, 3000,
                               RandomStream(605, 2))
        assert est.power == pytest.approx(0.05, abs=0.02), estimator


def test_warp_speed_accepts_the_exponentiality_suite_on_mle():
    out = warp_speed_power_many(EXP_KINDS, MLE, GAMMA12, 20, 0.05, 500,
                                RandomStream(605, 3))
    assert set(out) == set(EXP_KINDS)


# ---------------------------------------------------------------------------
# bootstrap p-values


def test_bootstrap_pvalue_resolution_and_decisions():
    s = pareto_sample(2.0, 20, RandomStream(606, 0))
    B = 39
    for estimator in (MME, MLE):
        res = bootstrap_pvalue(MP2, estimator, s, B, RandomStream(606, 1))
        scaled = res.p_value * (B + 1)
        assert scaled == pytest.approx(round(scaled), abs=1e-9)
        assert 1.0 <= scaled <= B + 1
        for a in DEFAULT_ALPHAS:
            assert res.reject_at[a] == (res.p_value <= a)


def test_bootstrap_pvalue_is_deterministic():
    s = pareto_sample(2.0, 25, RandomStream(606, 2))
    r1 = bootstrap_pvalue(KS, MME, s, 500, RandomStream(606, 3))
    r2 = bootstrap_pvalue(KS, MME, s, 500, RandomStream(606, 3))
    assert r1.p_value == r2.p_value and r1.statistic == r2.statistic


def test_bootstrap_requires_at_least_one_replicate():
    s = pareto_sample(2.0, 10, RandomStream(606, 4))
    with pytest.raises(ValueError):
        bootstrap_pvalue(KS, MME, s, 0, RandomStream(606, 5))


def test_bootstrap_decision_statistic_conventions():
    s = pareto_sample(2.0, 30, RandomStream(606, 6))
    res = bootstrap_pvalue_many([KS, MELLIN_G], MLE, s, 200, RandomStream(606, 7))
    by_kind = {r.kind: r for r in res}
    # power-law statistics: decision value and display value coincide
    assert by_kind[KS].decision_statistic == pytest.approx(by_kind[KS].statistic, rel=1e-9)
    # Mellin statistic: the decision runs on the transformed sample
    assert abs(by_kind[MELLIN_G].decision_statistic - by_kind[MELLIN_G].statistic) > 1e-12
    mme_res = bootstrap_pvalue(MELLIN_G, MME, s, 200, RandomStream(606, 8))
    assert mme_res.decision_statistic == mme_res.statistic


def test_bootstrap_custom_alphas_and_frozen_mapping():
    s = pareto_sample(2.0, 20, RandomStream(606, 9))
    res = bootstrap_pvalue(KS, MME, s, 100, RandomStream(606, 10), alphas=(0.2,))
    assert list(res.reject_at) == [0.2]
    with pytest.raises(TypeError):
        res.reject_at[0.2] = False


def test_bootstrap_null_sample_rarely_rejects():
    # spec of the workflow: a comfortable null sample should produce
    # unremarkable p-values on every route (seeded, so deterministic here)
    s = pareto_sample(2.0, 1000, RandomStream(606, 11))
    for estimator in (MME, MLE):
        for res in bootstrap_pvalue_many(PARETO_KINDS, estimator, s, 2000,
                                         RandomStream(606, 12)):
            assert res.p_value > 0.01, (res.kind.label, estimator)


def test_bootstrap_shares_the_pool_across_kinds():
    s = pareto_sample(2.0, 20, RandomStream(606, 13))
    many = bootstrap_pvalue_many([KS, MP2], MME, s, 300, RandomStream(606, 14))
    solo = bootstrap_pvalue(KS, MME, s, 300, RandomStream(606, 14))
    assert many[0].p_value == solo.p_value


# ---------------------------------------------------------------------------
# degenerate estimates


def test_degenerate_moment_estimates_raise_and_fail_the_cell(monkeypatch):
    # no row is redrawn: a NaN estimate reaches the check of its consumer
    real = inference.mme_rows

    def nan_first(x):
        b = real(x)
        b[0] = np.nan
        return b

    monkeypatch.setattr(inference, "mme_rows", nan_first)
    with pytest.raises(DomainError):
        warp_speed_power_many([KS], MME, GAMMA12, 20, 0.05, 100, RandomStream(607, 0))
    s = pareto_sample(2.0, 20, RandomStream(607, 1))
    with pytest.raises(DomainError):
        bootstrap_pvalue_many([KS], MME, s, 100, RandomStream(607, 2))
    cfg = StudyConfig(
        sample_sizes=(20,), tests=(KS,), estimators=(MME,), alternatives=(GAMMA12,),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    table = run_power_table(cfg, n=20, jobs=1)
    assert not table.cells
    assert len(table.notes) == 1
    assert table.notes[0].startswith("Gamma(1.2) / mme: failed")


# ---------------------------------------------------------------------------
# row chunks


_ROW_BLOCKS = inference._row_blocks


def _usable_cpus(monkeypatch, cpus):
    """Make the process look as if it may use ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _chunks_of(monkeypatch, rows, n):
    """Chunk every route's rows ``rows`` at a time on one thread; record the
    chunk sizes and the statistic columns the chunk map returns."""
    monkeypatch.setattr(inference, "_PHILOX_BLOCK", rows * n)
    seen = {"sizes": [], "columns": []}

    def spy(block, reps, n):
        def counted(lo, hi):
            seen["sizes"].append(hi - lo)
            return block(lo, hi)

        out = _ROW_BLOCKS(counted, reps, n)
        seen["columns"].append(out)
        return out

    monkeypatch.setattr(inference, "_row_blocks", spy)
    return seen


def _sizes(rows, reps):
    # full chunks, then what is left, even a single row
    return [rows] * (reps // rows) + [reps % rows] * (reps % rows > 0)


_TWIN = dict(zip(EXP_KINDS, (KS, CV, AD, ZA)))


def _decision_oracle(kinds, x, b, estimator):
    # whole-block evaluation: the pivotal transform at shape one for MLE, where
    # shape one is the transformed rows' MLE, so each Exp kind is its EDF twin
    if estimator is MLE:
        stats = statistic_rows([_TWIN.get(k, k) for k in kinds], x ** b[:, None], 1.0)
        return {k: stats[_TWIN.get(k, k)] for k in kinds}
    return statistic_rows(kinds, x, b)


def _assert_columns(got, want):
    assert list(got) == list(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("reps", range(1, 12))
def test_row_blocks_cover_every_row_once_and_never_one_alone(reps, monkeypatch):
    # every row once, in order, in 3-row chunks and a shorter last one; the
    # name is historical: a 1-row tail is now a chunk of its own
    seen = []

    def block(lo, hi):
        seen.append((lo, hi))
        return ({"r": np.arange(lo, hi, dtype=float)},)

    out = inference._row_blocks(block, reps, inference._PHILOX_BLOCK // 3)  # 3-row chunks
    assert np.array_equal(out[0]["r"], np.arange(reps))
    assert [lo for lo, _ in seen] == [0] + [hi for _, hi in seen[:-1]]
    assert seen[-1][1] == reps
    assert [hi - lo for lo, hi in seen] == _sizes(3, reps)


def test_the_pivotal_route_builds_one_cdf_table_per_chunk(monkeypatch):
    # the Exp kinds read their EDF twins' columns, so a chunk of all eleven
    # kinds builds the model CDF table and no fitted log-scale one; so does a
    # raw-row evaluation of all eleven at the MLE
    n, reps = 20, 1000
    seen = _chunks_of(monkeypatch, 300, n)
    tables = []
    edf_sorted = statistics._edf_sorted

    def spy(pw):
        tables.append(pw.shape)
        return edf_sorted(pw)

    monkeypatch.setattr(statistics, "_edf_sorted", spy)
    null_critical_values(ALL_KINDS, n, [0.05], reps, RandomStream(611, 3))
    assert seen["sizes"] == _sizes(300, reps)
    assert tables == [(rows, n) for rows in seen["sizes"]]
    tables.clear()
    x = alternative_rows(GAMMA12, n, 7, RandomStream(611, 4))
    statistic_rows(ALL_KINDS, x, mle_rows(x))
    assert tables == [(7, n)]


@pytest.mark.parametrize("rows, reps", [(1, 1000), (2, 1001), (3, 1000)])
def test_null_critical_values_equal_one_whole_block(rows, reps, monkeypatch):
    # 1-row chunks, or reps that leave a 1-row tail
    n, stream, alphas = 20, RandomStream(611, 0), [0.01, 0.05, 0.10]
    seen = _chunks_of(monkeypatch, rows, n)
    table = null_critical_values(ALL_KINDS, n, alphas, reps, stream)
    assert seen["sizes"] == _sizes(rows, reps) and seen["sizes"][-1] == 1
    x = pareto_rows(1.0, n, reps, stream)
    want = _decision_oracle(ALL_KINDS, x, mle_rows(x), MLE)
    _assert_columns(seen["columns"][0][0], want)
    for k in ALL_KINDS:
        for a in alphas:
            assert table.value(k, MLE, n, a) == upper_quantile(want[k], a)


def test_power_fixed_critical_equals_one_whole_block(monkeypatch):
    n, reps, stream = 20, 301, RandomStream(611, 1)
    table = CriticalValueTable(reps=1000, seed=0)
    for k in ALL_KINDS:
        table.put(k, MLE, n, 0.05, 0.5)
    x = alternative_rows(GAMMA12, n, reps, stream)
    want = _decision_oracle(ALL_KINDS, x, mle_rows(x), MLE)
    for rows in (3, 1):
        seen = _chunks_of(monkeypatch, rows, n)
        got = power_fixed_critical_many(ALL_KINDS, GAMMA12, n, 0.05, reps, table, stream)
        assert seen["sizes"] == _sizes(rows, reps)
        _assert_columns(seen["columns"][0][0], want)
        for k in ALL_KINDS:
            assert got[k].power == float(np.mean(want[k] > 0.5))


@pytest.mark.parametrize("alt", [NULL2, GAMMA12], ids=["philox", "ziggurat"])
@pytest.mark.parametrize("estimator", [MME, MLE], ids=["mme", "mle"])
def test_warp_speed_power_equals_one_whole_block(alt, estimator, monkeypatch):
    # one chunk draws alternative rows at 2*lo, step 2, then bootstrap rows at
    # 2*lo + 1, step 2: the interleaving of one whole-block run
    n, reps, stream = 20, 301, RandomStream(611, 2)
    kinds = ALL_KINDS if estimator is MLE else PARETO_KINDS
    est = mle_rows if estimator is MLE else mme_rows
    x = alternative_rows(alt, n, reps, stream, 0, 2)
    b = est(x)
    xb = bootstrap_rows(b, n, stream, 1, 2)
    want = _decision_oracle(kinds, x, b, estimator)
    want_boot = _decision_oracle(kinds, xb, est(xb), estimator)
    for rows in (3, 1):
        seen = _chunks_of(monkeypatch, rows, n)
        got = warp_speed_power_many(kinds, estimator, alt, n, 0.05, reps, stream)
        assert seen["sizes"] == _sizes(rows, reps)
        stats, boot = seen["columns"][0]
        _assert_columns(stats, want)
        _assert_columns(boot, want_boot)
        for k in kinds:
            crit = upper_quantile(want_boot[k], 0.05)
            assert got[k].power == float(np.mean(want[k] > crit))


@pytest.mark.parametrize("estimator", [MME, MLE], ids=["mme", "mle"])
def test_bootstrap_pool_equals_one_whole_block(estimator, monkeypatch):
    s = pareto_sample(2.0, 20, RandomStream(611, 3))
    B, stream = 301, RandomStream(611, 4)
    kinds = ALL_KINDS if estimator is MLE else PARETO_KINDS
    est = mle_rows if estimator is MLE else mme_rows
    xb = bootstrap_rows(np.full(B, estimate_shape(s, estimator).value), s.n, stream)
    want = _decision_oracle(kinds, xb, est(xb), estimator)
    for rows in (3, 1):
        seen = _chunks_of(monkeypatch, rows, s.n)
        got = bootstrap_pvalue_many(kinds, estimator, s, B, stream)
        assert seen["sizes"] == _sizes(rows, B)
        _assert_columns(seen["columns"][0][0], want)
        for res in got:
            count = int(np.sum(want[res.kind] >= res.decision_statistic))
            assert res.p_value == (1.0 + count) / (B + 1.0)


# ---------------------------------------------------------------------------
# one thread: every chunk on the calling thread


def _on_one_thread(monkeypatch, words=None):
    """Chunk every route's rows by ``words`` words (the sampler's budget when
    ``words`` is None); record each chunk's rows and thread, and the columns."""
    if words is not None:
        monkeypatch.setattr(inference, "_PHILOX_BLOCK", words)
    seen = {"spans": [], "idents": set(), "columns": []}

    def spy(block, reps, n):
        def counted(lo, hi):
            seen["spans"].append((lo, hi))
            seen["idents"].add(threading.get_ident())
            return block(lo, hi)

        out = _ROW_BLOCKS(counted, reps, n)
        seen["columns"].append(out)
        return out

    monkeypatch.setattr(inference, "_row_blocks", spy)
    return seen


def _null_route():
    n, reps, stream = 20, 1000, RandomStream(613, 0)
    x = pareto_rows(1.0, n, reps, stream)
    want = (_decision_oracle(ALL_KINDS, x, mle_rows(x), MLE),)
    return lambda: null_critical_values(ALL_KINDS, n, [0.05], reps, stream), want, reps


def _fixed_critical_route():
    n, reps, stream = 20, 301, RandomStream(613, 1)
    table = CriticalValueTable(reps=1000, seed=0)
    for k in ALL_KINDS:
        table.put(k, MLE, n, 0.05, 0.5)
    x = alternative_rows(GAMMA12, n, reps, stream)
    want = (_decision_oracle(ALL_KINDS, x, mle_rows(x), MLE),)
    return (lambda: power_fixed_critical_many(ALL_KINDS, GAMMA12, n, 0.05, reps, table, stream),
            want, reps)


def _warp_route(estimator):
    n, reps, stream = 20, 301, RandomStream(613, 2)
    kinds = ALL_KINDS if estimator is MLE else PARETO_KINDS
    est = mle_rows if estimator is MLE else mme_rows
    x = alternative_rows(GAMMA12, n, reps, stream, 0, 2)
    b = est(x)
    xb = bootstrap_rows(b, n, stream, 1, 2)
    want = (_decision_oracle(kinds, x, b, estimator),
            _decision_oracle(kinds, xb, est(xb), estimator))
    return (lambda: warp_speed_power_many(kinds, estimator, GAMMA12, n, 0.05, reps, stream),
            want, reps)


def _bootstrap_route(estimator):
    s = pareto_sample(2.0, 20, RandomStream(613, 3))
    B, stream = 301, RandomStream(613, 4)
    kinds = ALL_KINDS if estimator is MLE else PARETO_KINDS
    est = mle_rows if estimator is MLE else mme_rows
    xb = bootstrap_rows(np.full(B, estimate_shape(s, estimator).value), s.n, stream)
    want = (_decision_oracle(kinds, xb, est(xb), estimator),)
    return lambda: bootstrap_pvalue_many(kinds, estimator, s, B, stream), want, B


_ROUTES = {
    "null": _null_route,
    "fixed-critical": _fixed_critical_route,
    "warp-mle": lambda: _warp_route(MLE),
    "warp-mme": lambda: _warp_route(MME),
    "bootstrap-mle": lambda: _bootstrap_route(MLE),
    "bootstrap-mme": lambda: _bootstrap_route(MME),
}


@pytest.mark.parametrize("words", [840, 420, 280])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_route_gives_the_columns_of_one_whole_block_at_any_chunk_size(
        route, words, monkeypatch):
    n = 20  # chunks of 42, 21 and 14 rows
    call, want, reps = _ROUTES[route]()
    seen = _on_one_thread(monkeypatch, words)
    before = threading.active_count()
    call()
    assert threading.active_count() == before  # no thread is started
    rows = words // n
    assert seen["spans"] == [(lo, min(lo + rows, reps)) for lo in range(0, reps, rows)]
    assert seen["idents"] == {threading.get_ident()}
    (got,) = seen["columns"]
    assert len(got) == len(want)
    for cols, oracle in zip(got, want):
        _assert_columns(cols, oracle)


def test_every_routes_chunks_are_the_same_on_one_cpu_and_on_three(monkeypatch):
    # the chunk size is the sampler's budget alone, whatever taskset allows
    for route in _ROUTES.values():
        spans = []
        for cpus in (1, 3):
            _usable_cpus(monkeypatch, cpus)
            call, _, _ = route()
            seen = _on_one_thread(monkeypatch, 840)
            call()
            spans.append(seen["spans"])
        assert spans[0] == spans[1] and len(spans[0]) > 1


@pytest.mark.parametrize("chunks", [1, 2])
def test_only_a_route_of_more_than_one_chunk_keeps_the_heap(chunks, monkeypatch):
    # a full chunk, or one row more; either runs on the calling thread
    n = 20
    reps = inference._PHILOX_BLOCK // n + chunks - 1
    kept = []
    monkeypatch.setattr(inference, "_keep_chunk_heap", lambda: kept.append(1))
    seen = []

    def block(lo, hi):
        seen.append(threading.get_ident())
        return ({"r": np.arange(lo, hi, dtype=float)},)

    out = inference._row_blocks(block, reps, n)
    assert np.array_equal(out[0]["r"], np.arange(reps))
    assert seen == [threading.get_ident()] * chunks
    assert kept == [1] * (chunks - 1)


def test_a_failing_chunk_raises_the_first_error_in_row_order():
    # chunks 1 and 2 would both fail: chunk 1's error is raised, and no chunk
    # after it is started
    started = []

    def block(lo, hi):
        started.append(lo)
        if lo in (1, 2):
            raise DomainError(f"chunk {lo}")
        return ({"r": np.arange(lo, hi, dtype=float)},)

    with pytest.raises(DomainError, match="chunk 1"):
        inference._row_blocks(block, 200, inference._PHILOX_BLOCK)  # 1-row chunks
    assert started == [0, 1]


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the patches reach the pool workers through fork only")
def test_no_route_makes_a_thread_pool_in_process_or_in_power_workers(monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    for route in _ROUTES.values():  # each in several chunks
        call, _, _ = route()
        seen = _on_one_thread(monkeypatch, 400)
        call()
        assert len(seen["spans"]) > 1
    # the warp-speed cells, and the MLE cells with their shared critical-value
    # pool, in process and in the parent and one worker
    cfg = StudyConfig(
        sample_sizes=(20,), tests=(KS,), estimators=(MLE, MME), alternatives=(GAMMA12, NULL2),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    for jobs in (1, 2):
        table = run_power_table(cfg, n=20, jobs=jobs)
        assert table.notes == [] and len(table.cells) == 4


def test_the_parent_builds_the_pool_before_the_workers_start(monkeypatch):
    # with jobs > 1 the parent builds the critical-value pool, and only then
    # does the first submit start the workers; a forked worker appends to its
    # own copy of the list, a spawned one has no spy
    calls = []

    def spy(block, reps, n):
        calls.append((reps, n))
        return _ROW_BLOCKS(block, reps, n)

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            calls.append("submit")
            return super().submit(fn, *args)

    monkeypatch.setattr(inference, "_row_blocks", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = StudyConfig(
        sample_sizes=(20,), tests=(KS, MP2), estimators=(MLE, MME),
        alternatives=(GAMMA12, NULL2), critical_reps=1000, power_reps=1000,
        warp_reps=1000, desk_scale=1.0,
    )
    par = run_power_table(cfg, n=20, jobs=2)
    assert calls[:2] == [(1000, 20), "submit"]  # the critical-value pool, in the parent
    routes = [call for call in calls if call != "submit"]
    assert calls.count("submit") == 4 and len(routes) <= 5
    calls.clear()
    seq = run_power_table(cfg, n=20, jobs=1)
    assert calls == [(1000, 20)] * 5  # the critical-value pool and four cells
    assert par.cells == seq.cells and par.notes == seq.notes == []


@pytest.mark.parametrize("estimator", [MME, MLE], ids=["mme", "mle"])
def test_the_large_sample_bootstrap_equals_one_whole_block(estimator, monkeypatch):
    # B = 150 rows of n = 1000 at the sampler's own word budget: chunks of 65,
    # 65 and 20 rows, the route a `test` of 1000 observations runs
    s = pareto_sample(2.5, 1000, RandomStream(614, 0))
    B, stream = 150, RandomStream(614, 1)
    kinds = ALL_KINDS if estimator is MLE else PARETO_KINDS
    est = mle_rows if estimator is MLE else mme_rows
    xb = bootstrap_rows(np.full(B, estimate_shape(s, estimator).value), s.n, stream)
    want = _decision_oracle(kinds, xb, est(xb), estimator)
    seen = _on_one_thread(monkeypatch)
    bootstrap_pvalue_many(kinds, estimator, s, B, stream)
    assert seen["spans"] == [(0, 65), (65, 130), (130, 150)]
    (got,) = seen["columns"]
    _assert_columns(got[0], want)


def test_cli_import_leaves_concurrent_futures_unloaded():
    # the power study's process pool is imported where it is made
    src = str(Path(paretogof.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import paretogof.cli, sys; "
         "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# ---------------------------------------------------------------------------
# the chunk heap


def _src_env():
    src = str(Path(paretogof.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def _child_minor_faults(argv) -> int:
    import resource

    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the heap policy is glibc's, and the fault count Linux's")
def test_minor_faults_do_not_grow_with_the_chunk_count():
    # a route's chunks reuse the heap the previous chunk freed: 20 times the
    # chunks cost about 1 400 more faults, where trimming the heap after each
    # chunk cost 7 000 to 27 000 more
    argv = [sys.executable, "-m", "paretogof.cli", "critical-values", "--n", "20",
            "--seed", "3", "--reps"]
    few, many = (_child_minor_faults(argv + [str(reps)]) for reps in (2_000, 40_000))
    assert many - few < 5_000, (few, many)


_FAULT_PROBE = """
import resource, sys
from paretogof import ALL_KINDS, RandomStream, null_critical_values
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
null_critical_values(ALL_KINDS, 20, [0.05], int(sys.argv[1]), RandomStream(3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the heap policy is glibc's, and the fault count Linux's")
def test_library_routes_keep_their_heap_without_the_cli():
    # the faults of the call alone, in a fresh process that never runs the
    # CLI: 40 000 rows are 13 chunks at n = 20, 2 000 rows one. The 12 more
    # chunks cost about 300 to 600 more faults, where trimming the heap after
    # each chunk cost 7 000 on one thread and 16 000 to 20 000 on two
    faults = []
    for reps in (2_000, 40_000):
        proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(reps)], env=_src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults.append(int(proc.stdout))
    assert faults[1] - faults[0] < 3_000, faults


def test_heap_policy_is_skipped_where_libc_has_no_mallopt(monkeypatch):
    import ctypes

    keep = inference._keep_chunk_heap.__wrapped__  # past the once-per-process cache
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt attribute
    assert keep() is None
    monkeypatch.setattr(inference.sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", None)  # not reached off Linux
    assert keep() is None


def _sample_with_mle(target, n, seed):
    """A sample whose MLE is exactly ``target``: n - 1 Pareto draws, and a
    last value stepped ulp by ulp until n / sum(log x) rounds to ``target``."""
    x = pareto_sample(target, n, RandomStream(612, seed)).values.copy()
    x[-1] = np.exp(n / target - np.sum(np.log(x[:-1])))
    for _ in range(64):
        b = mle_rows(x[None, :])[0]
        if b == target:
            return x
        x[-1] = np.nextafter(x[-1], np.inf if b > target else 1.0)
    return None


def test_a_sample_with_mle_one_half_is_evaluated_as_a_row_of_any_block():
    # at an MLE of exactly 0.5 the pivotal transform raises to 0.5, and at
    # shape one the EDF kernels raise to -1: exponents numpy computes
    # differently on a one-row block unless the exponent is materialised
    n, x = 20, _sample_with_mle(0.5, 20, 0)
    assert x is not None
    block = np.vstack([x, pareto_rows(0.5, n, 4, RandomStream(612, 99))])
    b = mle_rows(block)
    assert b[0] == 0.5
    y = block ** b[:, None]
    assert np.array_equal(paretogof.pivotal_transform(Sample(x)).values, y[0])
    want = statistic_rows(ALL_KINDS, y, 1.0)
    got = bootstrap_pvalue_many(ALL_KINDS, MLE, Sample(x), 50, RandomStream(612, 1))
    for res in got:
        assert res.decision_statistic == want[res.kind][0], res.kind


_PEAK_PROBE = """
from paretogof import ALL_KINDS, RandomStream, null_critical_values
null_critical_values(ALL_KINDS, 30, [0.05], 100_000, RandomStream(1))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident size from /proc")
def test_null_pool_memory_stays_flat_in_the_replication_count():
    # a whole 100 000 x 30 block, its transform, sorted copy, CDF and kernel
    # temporaries peaked at about 284 MB; chunks keep the peak near the
    # imports' 29 MB. A fresh process, so no earlier test's peak counts. It
    # reads VmHWM, the peak of its own address space: ru_maxrss also carries
    # the peak of the process that launched it, here the pytest process's.
    proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 100
