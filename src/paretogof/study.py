"""Experiment orchestration: power tables, the golf-earnings case study, rendering.

This module wires the inference routines into full simulation studies. A
:class:`StudyConfig` fixes the grid (sample sizes, alternatives, statistics,
estimators, replication counts, master seed); :func:`run_power_table` produces
one table per sample size with a deterministic substream block per cell, so
re-running any subset of the grid reproduces identical numbers.

The golf application embeds the two 2022-season earnings datasets (all
players above the 3.5 million selection threshold, 28 per tour) and tests
them for Pareto-ness with bootstrap p-values.
"""
from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from itertools import product, repeat

import numpy as np

from .distributions import (
    AlternativeSpec,
    Contaminant,
    DomainError,
    Family,
    MixtureSpec,
    RandomStream,
    Sample,
)
from .estimation import EstimatorMethod
from .inference import (
    DEFAULT_ALPHAS,
    CriticalValueTable,
    PowerEstimate,
    TestResult,
    bootstrap_pvalue_many,
    null_critical_values,
    power_fixed_critical_many,
    warp_speed_power_many,
)
from .statistics import PARETO_KINDS, TestKind, _unique_kinds

__all__ = [
    "FIXED_ALTERNATIVES",
    "MIXTURE_PROPORTIONS",
    "mixture_grid",
    "StudyConfig",
    "PowerTable",
    "Tour",
    "GolfDataset",
    "golf_dataset",
    "GOLF_SCALE",
    "run_power_table",
    "run_power_study",
    "run_golf_application",
    "render_table",
    "study_manifest",
]

# one substream block per table cell; cells never overlap
_CELL_STRIDE = 1 << 32
_CV_BLOCK = 1 << 20  # block index where per-n critical-value pools start


def _alts(family: Family, *thetas) -> tuple:
    return tuple(AlternativeSpec(family, th) for th in thetas)


# The fixed-alternative grid of the power study, in reporting order. The
# first three rows are null cases and double as a size check.
FIXED_ALTERNATIVES = (
    _alts(Family.PARETO, 2, 5, 10)
    + _alts(Family.GAMMA, 0.8, 1, 1.2)
    + _alts(Family.WEIBULL, 0.8, 1.2, 1.5)
    + _alts(Family.LOG_NORMAL, 1, 1.5, 2.5)
    + _alts(Family.HALF_NORMAL, 0.5, 1, 1.2)
    + _alts(Family.LINEAR_FAILURE_RATE, 0.2, 0.8, 1)
    + _alts(Family.BETA_EXPONENTIAL, 0.8, 1, 1.5)
    + _alts(Family.TILTED_PARETO, 1, 2, 3)
    + _alts(Family.DHILLON, 0.4, 0.6, 0.8)
)

MIXTURE_PROPORTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def mixture_grid(contaminant: Contaminant, mean: float = 3.0) -> tuple:
    """Mixture alternatives over the standard proportion grid."""
    return tuple(
        MixtureSpec(p, Contaminant(contaminant), mean) for p in MIXTURE_PROPORTIONS
    )


@dataclass(frozen=True)
class StudyConfig:
    """Grid and budget of one simulation study.

    Replication counts are the full-study budgets; ``desk_scale`` shrinks
    them uniformly and defaults to the 0.1 smoke tier, which keeps a full
    grid in CI-friendly minutes. Scaled counts must stay at or above 1000 so
    that quantile estimates remain meaningful; set ``desk_scale=1`` for
    publication-scale runs.
    """

    sample_sizes: tuple = (20, 30)
    alpha: float = 0.05
    tests: tuple = PARETO_KINDS
    estimators: tuple = (EstimatorMethod.MME, EstimatorMethod.MLE)
    alternatives: tuple = FIXED_ALTERNATIVES
    critical_reps: int = 100_000
    power_reps: int = 10_000
    warp_reps: int = 50_000
    desk_scale: float = 0.1
    master_seed: int = 271828

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "tests", tuple(_unique_kinds(self.tests)))
        object.__setattr__(
            self, "estimators", tuple(EstimatorMethod(e) for e in self.estimators)
        )
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if not self.sample_sizes:
            raise ValueError("sample sizes must be non-empty")
        if any(n < 1 for n in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        # each size draws from its own streams, so a repeat would run its table again
        repeated = [n for i, n in enumerate(self.sample_sizes) if n in self.sample_sizes[:i]]
        if repeated:
            raise ValueError(f"sample size {repeated[0]} is given more than once")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.desk_scale <= 1.0:
            raise ValueError("desk_scale must lie in (0, 1]")
        if not self.tests or not self.estimators or not self.alternatives:
            raise ValueError("tests, estimators and alternatives must be non-empty")
        # substreams a route reaches per cell: one per replication, two for
        # the interleaved alternative and bootstrap rows of a warp-speed cell
        for name, per_rep in (("critical", 1), ("power", 1), ("warp", 2)):
            reps = self.scaled_reps(name)
            if reps < 1000:
                raise ValueError(f"{name} replications fall below 1000 after desk scaling")
            if per_rep * reps > _CELL_STRIDE:
                raise ValueError(
                    f"{name} replications overrun the 2**32 substreams of a cell"
                )
        RandomStream(self.master_seed)  # rejects a seed outside [0, 2**64)

    def scaled_reps(self, which: str) -> int:
        base = {
            "critical": self.critical_reps,
            "power": self.power_reps,
            "warp": self.warp_reps,
        }[which]
        return int(round(base * self.desk_scale))


@dataclass
class PowerTable:
    """One power table: alternatives down the rows, (test, estimator) across.

    ``cells`` maps (alternative, kind, estimator) to a
    :class:`~paretogof.inference.PowerEstimate`; combinations that cannot run
    (or failed) are absent, with the reason recorded in ``notes``.
    """

    n: int
    alpha: float
    rows: tuple
    columns: tuple
    cells: dict
    seed: int
    wall_clock: float = 0.0
    notes: list = field(default_factory=list)

    def get(self, alternative, kind: TestKind, estimator: EstimatorMethod):
        return self.cells.get((alternative, kind, EstimatorMethod(estimator)))


def _cell_stream(config: StudyConfig, n_idx: int, alt_idx: int, est_idx: int) -> RandomStream:
    cell = (n_idx * len(config.alternatives) + alt_idx) * len(config.estimators) + est_idx
    return RandomStream(config.master_seed, cell * _CELL_STRIDE)


def _cv_stream(config: StudyConfig, n_idx: int) -> RandomStream:
    return RandomStream(config.master_seed, (_CV_BLOCK + n_idx) * _CELL_STRIDE)


def _run_cell(config: StudyConfig, n_idx: int, alt_idx: int, est_idx: int,
              cv_table: CriticalValueTable | None):
    n = config.sample_sizes[n_idx]
    alt = config.alternatives[alt_idx]
    estimator = config.estimators[est_idx]
    kinds = [k for k in config.tests
             if not (k.is_exponentiality and estimator is EstimatorMethod.MME)]
    if not kinds:
        return {}
    stream = _cell_stream(config, n_idx, alt_idx, est_idx)
    if estimator is EstimatorMethod.MLE:
        return power_fixed_critical_many(
            kinds, alt, n, config.alpha, config.scaled_reps("power"), cv_table, stream
        )
    return warp_speed_power_many(
        kinds, estimator, alt, n, config.alpha, config.scaled_reps("warp"), stream
    )


def _cell_outcome(config: StudyConfig, n_idx: int, alt_idx: int, est_idx: int,
                  cv_table: CriticalValueTable | None):
    """``(cells, notes)`` of one grid cell.

    ``cells`` maps (alternative, kind, estimator) to the cell's estimates, and
    ``notes`` names each kind its route cannot run. A cell that fails has no
    estimates and one note, its failure. Every worker count applies this one
    failure policy. The exception is caught outside :func:`_run_cell` so that
    a failed cell still raises there.
    """
    alt = config.alternatives[alt_idx]
    estimator = config.estimators[est_idx]
    try:
        result = _run_cell(config, n_idx, alt_idx, est_idx, cv_table)
    except (DomainError, ValueError) as exc:
        return {}, [f"{alt.label} / {estimator.value}: failed ({exc})"]
    return ({(alt, kind, estimator): est for kind, est in result.items()},
            [f"{alt.label} / {kind.label} / {estimator.value}: not applicable on this route"
             for kind in config.tests if kind not in result])


def run_power_table(config: StudyConfig, n: int | None = None,
                    jobs: int = 1) -> PowerTable:
    """Power table for one sample size.

    The MLE columns tabulate critical values from one shared P(1) pool and
    reuse them across every alternative; the MME columns run the warp-speed
    bootstrap per alternative. Cells are deterministic functions of the
    master seed and the cell's grid position. Each (alternative, estimator)
    task returns its cells and notes (see :func:`_cell_outcome`), and the
    table merges them in task order, alternative-major.

    With ``jobs > 1`` the shared pool is the process pool's first task, so it
    runs in a worker on one thread and the workers start from a parent that
    has run no route; with ``jobs == 1`` it runs in-process, fanned out over
    the usable CPUs like any other route.
    """
    if n is None:
        if len(config.sample_sizes) != 1:
            raise ValueError(
                "config lists several sample sizes; pass n= or use run_power_study"
            )
        n = config.sample_sizes[0]
    if n not in config.sample_sizes:
        raise ValueError(f"n={n} is not one of the configured sample sizes")
    n_idx = config.sample_sizes.index(n)

    start = time.perf_counter()
    alt_ids, est_ids = zip(*product(range(len(config.alternatives)),
                                    range(len(config.estimators))))
    cells: dict = {}
    notes: list = []
    from concurrent.futures import ProcessPoolExecutor  # kept out of the CLI's start-up

    workers = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()
    with workers as pool:
        cv_table = None
        if EstimatorMethod.MLE in config.estimators:
            cv_args = (config.tests, n, [config.alpha], config.scaled_reps("critical"),
                       _cv_stream(config, n_idx))
            cv_table = (pool.submit(null_critical_values, *cv_args).result() if pool
                        else null_critical_values(*cv_args))
        for part, part_notes in (pool.map if pool else map)(
                _cell_outcome, repeat(config), repeat(n_idx), alt_ids, est_ids,
                repeat(cv_table)):
            cells.update(part)
            notes.extend(part_notes)

    return PowerTable(
        n=n,
        alpha=config.alpha,
        rows=config.alternatives,
        columns=tuple(product(config.tests, config.estimators)),
        cells=cells,
        seed=config.master_seed,
        wall_clock=time.perf_counter() - start,
        notes=notes,
    )


def run_power_study(config: StudyConfig, jobs: int = 1) -> list:
    """One :class:`PowerTable` per configured sample size."""
    return [run_power_table(config, n, jobs=jobs) for n in config.sample_sizes]


# ---------------------------------------------------------------------------
# golf earnings application


class Tour(str, Enum):
    PGA = "pga"
    LIV = "liv"


GOLF_SCALE = 3_500_000.0

# 2022-season earnings of every player above the 3.5 million threshold,
# 28 per tour, in reporting order (largest first).
_PGA_EARNINGS = (
    14046909, 10107897, 9405081, 9369605, 8654566, 7427299, 7073986,
    7012672, 6829575, 6520597, 6117886, 5776298, 5567974, 5289842,
    5248220, 5076060, 5018443, 4940600, 4868461, 4837271, 4722433,
    4310047, 3940513, 3876590, 3757425, 3718990, 3623137, 3616679,
)
_LIV_EARNINGS = (
    36071517, 16993416, 15124499, 13422785, 12765714, 9792500, 8755785,
    8297000, 8169167, 8033500, 7638000, 6755314, 5741000, 5718500,
    5109000, 4992618, 4843367, 4614500, 4596000, 4535000, 4459964,
    4434314, 4382417, 3877583, 3700000, 3693666, 3599100, 3584333,
)


@dataclass(frozen=True)
class GolfDataset:
    """Embedded season-earnings dataset for one tour.

    ``scale`` divides the raw currency amounts onto the model support; the
    default is the 3.5 million selection threshold, under which every scaled
    value exceeds one.
    """

    tour: Tour
    raw: tuple
    scale: float = GOLF_SCALE

    def __post_init__(self) -> None:
        if len(self.raw) != 28:
            raise DomainError("each tour dataset holds 28 observations")
        if not self.scale > 0:
            raise DomainError("scale divisor must be positive")
        if min(self.raw) <= self.scale:
            raise DomainError(
                "scale divisor must sit below the smallest earnings value"
            )

    @property
    def sample(self) -> Sample:
        return Sample(np.asarray(self.raw, dtype=np.float64) / self.scale)

    @property
    def mean_earnings(self) -> float:
        return float(np.mean(self.raw))


def golf_dataset(tour: Tour, scale: float = GOLF_SCALE) -> GolfDataset:
    tour = Tour(tour)
    raw = _PGA_EARNINGS if tour is Tour.PGA else _LIV_EARNINGS
    return GolfDataset(tour=tour, raw=raw, scale=scale)


def run_golf_application(tour: Tour, estimators=(EstimatorMethod.MME, EstimatorMethod.MLE),
                         tests=PARETO_KINDS, B: int = 10_000,
                         stream: RandomStream | None = None,
                         alphas=DEFAULT_ALPHAS, scale: float = GOLF_SCALE) -> list:
    """Bootstrap tests of one tour's earnings; returns a TestResult per
    (estimator, test) pair, estimator-major, in the given test order."""
    if stream is None:
        stream = RandomStream(271828)
    data = golf_dataset(tour, scale)
    results: list = []
    for est_idx, estimator in enumerate(estimators):
        results.extend(
            bootstrap_pvalue_many(
                tests, estimator, data.sample, B,
                stream.shifted(est_idx * _CELL_STRIDE), alphas,
            )
        )
    return results


# ---------------------------------------------------------------------------
# rendering


def _pct(p: float) -> str:
    return str(int(math.floor(p * 100.0 + 0.5)))


def _grid(corner: str, rows, columns, heads, cell) -> tuple:
    """Header and body of a text table.

    ``rows`` holds (key, label) pairs. ``heads(column)`` names the
    sub-columns a column spans, and ``cell(key, column)`` gives their texts,
    or None to leave them empty.
    """
    head = [corner] + [h for col in columns for h in heads(col)]
    body = []
    for key, label in rows:
        line = [label]
        for col in columns:
            texts = cell(key, col)
            line += [""] * len(heads(col)) if texts is None else texts
        body.append(line)
    return head, body


def _markdown(head, body) -> str:
    lines = ["| " + " | ".join(head) + " |",
             "| --- " + "| ---: " * (len(head) - 1) + "|"]
    lines += ["| " + " | ".join(line) + " |" for line in body]
    return "\n".join(lines) + "\n"


def _csv(head, body) -> str:
    return "\n".join(",".join(line) for line in [head, *body]) + "\n"


def render_table(table, fmt: str = "markdown") -> str:
    """Render a :class:`PowerTable` or a list of test results as text.

    Markdown shows powers as integer percentages (rounded half up) and
    statistics at three decimals; CSV keeps full precision and attaches the
    Monte Carlo standard error of every power cell.
    """
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"format must be 'markdown' or 'csv', got {fmt!r}")
    md = fmt == "markdown"
    if isinstance(table, PowerTable):
        def heads(col):
            kind, est = col
            if md:
                return [f"{kind.label} {est.value.upper()}"]
            return [f"{kind.label} {est.value}", f"{kind.label} {est.value} se"]

        def cell(alt, col):
            c = table.get(alt, *col)
            if c is None:
                return None
            return [_pct(c.power)] if md else [f"{c.power:.4f}", f"{c.std_error:.4f}"]

        rows = [(alt, alt.label) for alt in table.rows]
        head, body = _grid("alternative", rows, table.columns, heads, cell)
    else:
        results = list(table)
        if not all(isinstance(r, TestResult) for r in results):
            raise TypeError("render_table accepts a PowerTable or a list of TestResult")
        estimators = list(dict.fromkeys(r.estimator for r in results))
        kinds = _unique_kinds(r.kind for r in results)
        index = {(r.kind, r.estimator): r for r in results}

        def heads(est):
            name = est.value.upper() if md else est.value
            return [f"{name} statistic", f"{name} p-value"]

        def cell(kind, est):
            r = index.get((kind, est))
            if r is None:
                return None
            if r.p_value is None:
                p = ""
            else:
                p = f"{r.p_value:.4f}" if md else repr(r.p_value)
            return [f"{r.statistic:.3f}" if md else repr(r.statistic), p]

        head, body = _grid("test", [(k, k.label) for k in kinds], estimators, heads, cell)
    return _markdown(head, body) if md else _csv(head, body)


def study_manifest(config: StudyConfig, tables) -> dict:
    """JSON-ready record of a study run: grid, budgets, seed, timings."""
    try:
        from importlib.metadata import version

        pkg_version = version("paretogof")
    except Exception:  # pragma: no cover
        pkg_version = "unknown"
    return {
        "package": {"name": "paretogof", "version": pkg_version},
        "config": {
            "sample_sizes": list(config.sample_sizes),
            "alpha": config.alpha,
            "tests": [k.label for k in config.tests],
            "estimators": [e.value for e in config.estimators],
            "alternatives": [a.label for a in config.alternatives],
            "replications": {
                "critical": config.scaled_reps("critical"),
                "power": config.scaled_reps("power"),
                "warp_speed": config.scaled_reps("warp"),
            },
            "desk_scale": config.desk_scale,
            "master_seed": config.master_seed,
        },
        "tables": [
            {
                "n": t.n,
                "alpha": t.alpha,
                "cells": len(t.cells),
                "wall_clock_seconds": round(t.wall_clock, 3),
                "notes": list(t.notes),
            }
            for t in tables
        ],
    }
