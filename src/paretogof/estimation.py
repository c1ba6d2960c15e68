"""Shape estimators for the unit-scale Pareto model, and the pivotal transform.

Two estimators are supported. The maximum likelihood estimator is
n / sum(log x_j); the moment estimator solves mean = beta/(beta - 1) for beta
and therefore requires the sample mean to exceed one, which always holds on
the support x > 1. Both refuse a sample whose mean exceeds one by no more
than its rounding error, where either estimate would be rounding noise.

Raising every observation to the estimated MLE power maps the sample to a
scale where the fitted shape is exactly one. Test statistics evaluated at
beta = 1 on the transformed sample are exact pivots under the null, which is
what makes table-based critical values possible for the MLE route.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import DomainError, Sample, _as_sample, _row_power

__all__ = [
    "EstimatorMethod",
    "ShapeEstimate",
    "estimate_mle",
    "estimate_mme",
    "estimate_shape",
    "pivotal_transform",
    "mle_rows",
    "mme_rows",
]


class EstimatorMethod(str, Enum):
    MLE = "mle"
    MME = "mme"


@dataclass(frozen=True)
class ShapeEstimate:
    value: float
    method: EstimatorMethod
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value <= 0:
            raise DomainError(f"estimated shape must be positive, got {self.value!r}")


def estimate_mle(sample) -> ShapeEstimate:
    """Maximum likelihood estimate n / sum(log x_j)."""
    return estimate_shape(sample, EstimatorMethod.MLE)


def estimate_mme(sample) -> ShapeEstimate:
    """Moment estimate mean/(mean - 1), from matching the model mean."""
    return estimate_shape(sample, EstimatorMethod.MME)


def estimate_shape(sample, method: EstimatorMethod) -> ShapeEstimate:
    """One sample's shape by the chosen estimator.

    Refuses a sample whose mean is within its rounding error (n·eps·mean)
    of one, where mean - 1 and the sum of log x_j are rounding noise. A mean
    that overflows is far from one.
    """
    method = EstimatorMethod(method)
    sample = _as_sample(sample)
    with np.errstate(over="ignore"):
        mean = float(np.mean(sample.values))
    if np.isfinite(mean) and mean - 1.0 <= sample.n * np.finfo(np.float64).eps * mean:
        raise DomainError(f"sample mean exceeds 1 by {mean - 1.0:.3g}, within its "
                          "rounding error; the shape cannot be estimated")
    rows = mle_rows if method is EstimatorMethod.MLE else mme_rows
    return ShapeEstimate(float(rows(sample.values[None, :])[0]), method, sample.n)


def pivotal_transform(sample) -> Sample:
    """Raise each observation to the sample's MLE power.

    The transformed sample has MLE exactly one, and under the null its joint
    law does not depend on the true shape.
    """
    sample = _as_sample(sample)
    est = estimate_mle(sample)
    return Sample(_row_power(sample.values[None, :], np.full((1, 1), est.value))[0])


def mle_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise MLE for a (reps, n) matrix of samples."""
    x = np.asarray(x, dtype=np.float64)
    return x.shape[1] / np.sum(np.log(x), axis=1)


def mme_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise moment estimate for a (reps, n) matrix of samples."""
    x = np.asarray(x, dtype=np.float64)
    mean = np.mean(x, axis=1)
    return mean / (mean - 1.0)
