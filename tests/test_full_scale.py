"""Full-scale power grid, gated behind PARETOGOF_FULL_SCALE=1.

Reproduces the complete n=20 fixed-alternative power table at full
replication counts (100k critical values, 10k likelihood-route power reps,
50k warp-speed moment-route reps) and checks cells against the reference
integer percentages to within two points. Run it deliberately:

    PARETOGOF_FULL_SCALE=1 pytest tests/test_full_scale.py -v -s

One column needs care. On the likelihood route this library evaluates
every statistic on the transformed sample at shape one, which is the
only convention that makes fixed critical values exact for G (the raw
plug-in G is not distribution free; its null 95th percentile moves by a
factor of about three between shapes 1 and 5). The reference G column
for that route does not track this convention: it tracks a warp-speed
bootstrap of the raw plug-in G, which handles the parameter dependence
per replication instead. The first test therefore gates all columns
except G on the likelihood route and reports that column's deviations;
the second test asserts that the same column reproduces, every cell
within two points, under the bootstrap-pooled raw-statistic procedure.
"""

import os
import time

import numpy as np
import pytest

from paretogof import (
    EstimatorMethod,
    FIXED_ALTERNATIVES,
    MELLIN_G,
    PARETO_KINDS,
    RandomStream,
    upper_quantile,
)
from paretogof.distributions import alternative_rows, bootstrap_rows
from paretogof.estimation import mle_rows
from paretogof.inference import power_fixed_critical_many, warp_speed_power_many
from paretogof.statistics import statistic_rows

pytestmark = pytest.mark.skipif(
    os.environ.get("PARETOGOF_FULL_SCALE") != "1",
    reason="full-scale grid is expensive; set PARETOGOF_FULL_SCALE=1 to run",
)

FULL_SEED = 737373
BLOCK = 1 << 20

# Reference percentages, one row per alternative, columns paired
# (moment, likelihood) in kind order KS, CV, AD, ZA, G, MP1, MP2.
REF_GRID = {
    "Pareto(2)":       (5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
    "Pareto(5)":       (5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5),
    "Pareto(10)":      (5, 5, 5, 5, 5, 5, 5, 5, 4, 4, 5, 5, 5, 5),
    "Gamma(0.8)":      (15, 9, 16, 10, 15, 10, 11, 11, 19, 10, 18, 12, 21, 14),
    "Gamma(1)":        (37, 24, 44, 29, 42, 24, 33, 28, 51, 32, 47, 31, 48, 32),
    "Gamma(1.2)":      (64, 45, 74, 56, 72, 51, 64, 55, 80, 60, 75, 57, 75, 57),
    "Weibull(0.8)":    (15, 9, 17, 9, 17, 9, 11, 10, 20, 8, 19, 10, 22, 12),
    "Weibull(1.2)":    (65, 50, 75, 62, 73, 57, 65, 60, 80, 65, 76, 63, 76, 62),
    "Weibull(1.5)":    (91, 82, 96, 92, 96, 90, 93, 91, 98, 94, 97, 93, 96, 92),
    "LogNormal(1)":    (72, 55, 82, 66, 83, 64, 90, 80, 85, 72, 80, 62, 72, 51),
    "LogNormal(1.5)":  (17, 6, 20, 7, 22, 6, 21, 10, 24, 8, 22, 7, 23, 7),
    "LogNormal(2.5)":  (11, 27, 9, 29, 26, 43, 22, 27, 5, 32, 14, 26, 17, 17),
    "HalfNormal(0.5)": (44, 37, 53, 47, 49, 41, 43, 43, 55, 47, 56, 50, 57, 51),
    "HalfNormal(1)":   (67, 54, 76, 65, 74, 59, 62, 60, 80, 66, 78, 68, 80, 70),
    "HalfNormal(1.2)": (74, 58, 82, 70, 80, 64, 69, 66, 86, 71, 84, 73, 86, 76),
    "LFR(0.2)":        (45, 31, 52, 38, 49, 33, 40, 35, 59, 41, 55, 41, 57, 43),
    "LFR(0.8)":        (54, 42, 64, 53, 60, 47, 51, 49, 69, 55, 66, 56, 68, 57),
    "LFR(1)":          (56, 45, 65, 55, 62, 50, 53, 52, 70, 57, 68, 58, 69, 60),
    "BetaExp(0.8)":    (17, 11, 19, 12, 18, 11, 13, 12, 23, 12, 22, 13, 25, 16),
    "BetaExp(1)":      (39, 25, 46, 31, 43, 25, 34, 28, 52, 33, 48, 32, 50, 34),
    "BetaExp(1.5)":    (84, 67, 91, 80, 91, 75, 86, 80, 94, 83, 91, 80, 90, 77),
    "TiltedPareto(1)": (46, 12, 53, 13, 58, 10, 51, 13, 54, 13, 57, 13, 58, 13),
    "TiltedPareto(2)": (76, 22, 82, 26, 86, 21, 82, 25, 82, 25, 85, 26, 86, 24),
    "TiltedPareto(3)": (90, 32, 94, 37, 96, 32, 94, 35, 94, 36, 96, 38, 96, 36),
    "Dhillon(0.4)":    (50, 29, 60, 34, 60, 30, 57, 39, 64, 38, 59, 33, 57, 30),
    "Dhillon(0.6)":    (73, 51, 82, 61, 83, 56, 80, 65, 86, 67, 82, 59, 79, 54),
    "Dhillon(0.8)":    (89, 70, 95, 81, 94, 79, 93, 84, 96, 87, 94, 81, 92, 76),
}


def _ref(label: str, kind, route: str) -> int:
    i = PARETO_KINDS.index(kind)
    row = REF_GRID[label]
    return row[2 * i] if route == "mme" else row[2 * i + 1]


def test_full_scale_fixed_alternative_grid(cv20):
    n, alpha = 20, 0.05
    t0 = time.perf_counter()
    out_of_band = []
    g_mle_notes = []
    assert sorted(REF_GRID) == sorted(a.label for a in FIXED_ALTERNATIVES)

    for idx, alt in enumerate(FIXED_ALTERNATIVES):
        warp = warp_speed_power_many(PARETO_KINDS, EstimatorMethod.MME, alt, n,
                                     alpha, 50_000,
                                     RandomStream(FULL_SEED, (2 * idx) * BLOCK))
        fixed = power_fixed_critical_many(PARETO_KINDS, alt, n, alpha, 10_000,
                                          cv20,
                                          RandomStream(FULL_SEED, (2 * idx + 1) * BLOCK))
        cells = []
        for k in PARETO_KINDS:
            for route, got in (("mme", warp[k].power), ("mle", fixed[k].power)):
                ref = _ref(alt.label, k, route)
                cells.append(f"{k.label}/{route} {100 * got:5.1f} ({ref})")
                if k == MELLIN_G and route == "mle":
                    g_mle_notes.append(
                        f"{alt.label}: {100 * got:.1f} vs {ref}"
                        f" ({100 * got - ref:+.1f})")
                elif abs(100.0 * got - ref) > 2.0:
                    out_of_band.append(
                        f"{alt.label} {k.label}/{route}: {100 * got:.1f} vs {ref}")
        print(f"  {alt.label:>15s}  " + "  ".join(cells))

    print(f"grid time {time.perf_counter() - t0:.0f}s; transformed-convention"
          " G/mle deviations (column gated in the companion test):")
    for line in g_mle_notes:
        print(f"    {line}")
    assert not out_of_band, "cells beyond 2 points:\n" + "\n".join(out_of_band)


def test_full_scale_mellin_likelihood_reference_procedure():
    """Every reference G cell on the likelihood route, warp-speed style.

    Replication r draws an alternative sample (substream 2r), fits the
    shape by maximum likelihood, draws one parametric bootstrap sample
    from the fit (substream 2r + 1), and evaluates the raw plug-in G on
    both. Bootstrap values pool into one critical value.
    """
    n, alpha, reps = 20, 0.05, 50_000
    t0 = time.perf_counter()
    out_of_band = []
    for idx, alt in enumerate(FIXED_ALTERNATIVES):
        st = RandomStream(FULL_SEED, (1000 + idx) * BLOCK)
        x = alternative_rows(alt, n, reps, st, 0, 2)
        b = mle_rows(x)
        xb = bootstrap_rows(b, n, st, 1, 2)
        bb = mle_rows(xb)
        g = statistic_rows([MELLIN_G], x, b)[MELLIN_G]
        gb = statistic_rows([MELLIN_G], xb, bb)[MELLIN_G]
        got = float(np.mean(g > upper_quantile(gb, alpha)))
        ref = _ref(alt.label, MELLIN_G, "mle")
        print(f"  {alt.label:>15s}  {100 * got:5.1f} ({ref})")
        if abs(100.0 * got - ref) > 2.0:
            out_of_band.append(f"{alt.label}: {100 * got:.1f} vs {ref}")
    print(f"raw-G bootstrap column time {time.perf_counter() - t0:.0f}s")
    assert not out_of_band, "cells beyond 2 points:\n" + "\n".join(out_of_band)
