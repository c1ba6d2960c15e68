"""Shape estimators and the pivotal transform."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from paretogof import (
    DomainError,
    KS,
    EstimatorMethod,
    RandomStream,
    Sample,
    ShapeEstimate,
    Tour,
    bootstrap_pvalue_many,
    estimate_mle,
    estimate_mme,
    estimate_shape,
    golf_dataset,
    pareto_sample,
    pivotal_transform,
)
from paretogof.estimation import mle_rows, mme_rows
from paretogof.statistics import exp_edf_suite

E = math.e


def test_mle_closed_form_values():
    assert estimate_mle([E, E, E]).value == pytest.approx(1.0, abs=1e-14)
    assert estimate_mle([E, E**2, E**3]).value == pytest.approx(0.5, abs=1e-14)


def test_mme_closed_form_values():
    # sample mean 2 solves beta/(beta-1) = 2 at beta = 2
    assert estimate_mme([1.5, 2.5]).value == pytest.approx(2.0, abs=1e-14)
    assert estimate_mme([3.0]).value == pytest.approx(1.5, abs=1e-14)


def test_estimate_carries_method_and_size():
    est = estimate_mle([2.0, 3.0])
    assert est.method is EstimatorMethod.MLE and est.n == 2
    est = estimate_mme([2.0, 3.0])
    assert est.method is EstimatorMethod.MME and est.n == 2


def test_estimate_shape_dispatch():
    s = Sample([2.0, 4.0, 8.0])
    assert estimate_shape(s, EstimatorMethod.MLE).value == estimate_mle(s).value
    assert estimate_shape(s, "mme").value == estimate_mme(s).value


def test_shape_estimate_validation():
    with pytest.raises(DomainError):
        ShapeEstimate(0.0, EstimatorMethod.MLE, 5)
    with pytest.raises(DomainError):
        ShapeEstimate(float("nan"), EstimatorMethod.MME, 5)


def test_estimators_reject_invalid_samples():
    with pytest.raises(DomainError):
        estimate_mle([2.0, 0.5])
    with pytest.raises(DomainError):
        estimate_mme([])


@pytest.mark.parametrize("method", ["mle", "mme"])
def test_a_shape_that_rounding_dominates_is_refused_at_every_seed(method):
    # 28 values 1 + k * 2**-52: the mean exceeds one by about 15 ulps, so a
    # shape estimate (about 3e14) is rounding noise. Without the rule, whether
    # the bootstrap's support redraws gave up depended on the seed.
    s = Sample(1.0 + np.arange(1, 29) * 2.0**-52)
    messages = set()
    for seed in range(4):
        with pytest.raises(DomainError, match="rounding error") as exc:
            bootstrap_pvalue_many([KS], method, s, 200, RandomStream(seed))
        messages.add(str(exc.value))
    assert len(messages) == 1
    with pytest.raises(DomainError, match="rounding error"):
        estimate_shape(s, method)
    with pytest.raises(DomainError, match="rounding error"):
        exp_edf_suite(s)  # its rate is the MLE


def test_real_data_is_not_refused_as_rounding_noise():
    # the golf data, and the n = 1000 Pareto(2.5) inputs that the benchmark
    # writes for its large-n test (numpy's Lomax law plus one)
    samples = [golf_dataset(t).sample for t in Tour]
    for seed in range(11):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2, 1]))
        samples.append(Sample(1.0 + rng.pareto(2.5, 1000)))
    for s in samples:
        assert estimate_mle(s).value > 0 and estimate_mme(s).value > 0
        pivotal_transform(s)
    # a mean that overflows is far from one: the MLE still exists
    assert estimate_mle(Sample([1e308, 1e308])).value == 1.0 / math.log(1e308)


def test_both_estimators_are_consistent_on_large_null_samples():
    n = 20_000
    for beta in (0.7, 2.0, 5.0):
        s = pareto_sample(beta, n, RandomStream(404, int(10 * beta)))
        # MLE standard error is beta/sqrt(n); five sigma of headroom
        assert estimate_mle(s).value == pytest.approx(beta, abs=5 * beta / math.sqrt(n))
    # the moment estimator needs a finite variance, so check it above shape 2
    s = pareto_sample(5.0, n, RandomStream(405, 0))
    assert estimate_mme(s).value == pytest.approx(5.0, abs=0.4)


def test_pivotal_transform_fits_shape_one_exactly():
    s = pareto_sample(3.7, 40, RandomStream(406, 0))
    y = pivotal_transform(s)
    assert estimate_mle(y).value == pytest.approx(1.0, abs=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    beta=st.floats(0.05, 50.0),
    power=st.floats(0.1, 10.0),
)
def test_pivotal_transform_is_invariant_to_powering(seed, n, beta, power):
    # Raising a sample to any positive power rescales the MLE by its inverse,
    # so the transformed sample is unchanged. This is the exact mechanism that
    # frees the MLE route's null distribution from the unknown shape.
    x = pareto_sample(beta, n, RandomStream(seed, 0)).values
    # the property holds where the powered sample is finite; near beta = 0.05
    # the sample maximum reaches about 1e62, and x**5 overflows to inf
    with np.errstate(over="ignore"):
        powered = np.power(x, power)
    assume(np.all(np.isfinite(powered)))
    y1 = pivotal_transform(Sample(x)).values
    y2 = pivotal_transform(Sample(powered)).values
    np.testing.assert_allclose(y2, y1, rtol=1e-10)


def test_row_estimators_match_scalar_versions():
    x = np.vstack([
        pareto_sample(2.0, 25, RandomStream(407, r)).values for r in range(6)
    ])
    np.testing.assert_allclose(
        mle_rows(x), [estimate_mle(row).value for row in x], rtol=1e-14
    )
    np.testing.assert_allclose(
        mme_rows(x), [estimate_mme(row).value for row in x], rtol=1e-14
    )
