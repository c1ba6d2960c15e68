"""Study harness: configuration, power tables, golf datasets, rendering."""

import csv
import io
import json
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretogof import (
    AD,
    KS,
    MP1,
    MP2,
    AlternativeSpec,
    Contaminant,
    DomainError,
    EstimatorMethod,
    FIXED_ALTERNATIVES,
    Family,
    GolfDataset,
    MixtureSpec,
    PARETO_KINDS,
    PowerTable,
    RandomStream,
    StudyConfig,
    Tour,
    golf_dataset,
    mixture_grid,
    render_table,
    run_golf_application,
    run_power_study,
    run_power_table,
)
from paretogof.statistics import EXP_KS
from paretogof.study import (
    GOLF_SCALE,
    MIXTURE_PROPORTIONS,
    _substream,
    study_manifest,
)

MME = EstimatorMethod.MME
MLE = EstimatorMethod.MLE


# ---------------------------------------------------------------------------
# alternative grids


def test_fixed_alternative_grid():
    assert len(FIXED_ALTERNATIVES) == 27
    labels = [a.label for a in FIXED_ALTERNATIVES]
    assert len(set(labels)) == 27
    assert labels[:3] == ["Pareto(2)", "Pareto(5)", "Pareto(10)"]
    assert "Gamma(0.8)" in labels and "Dhillon(0.8)" in labels
    assert "TiltedPareto(3)" in labels and "Weibull(1.5)" in labels


def test_mixture_grid_spans_the_proportions():
    grid = mixture_grid(Contaminant.SHIFTED_EXPONENTIAL)
    assert tuple(m.p for m in grid) == MIXTURE_PROPORTIONS == (0.1, 0.3, 0.5, 0.7, 0.9)
    assert all(m.contaminant_mean == 3.0 for m in grid)
    custom = mixture_grid(Contaminant.SHIFTED_LOG_NORMAL, mean=2.0)
    assert all(m.pareto_beta == pytest.approx(2.0) for m in custom)


# ---------------------------------------------------------------------------
# StudyConfig


def test_config_defaults_match_the_reference_design():
    cfg = StudyConfig()
    assert cfg.sample_sizes == (20, 30)
    assert cfg.alpha == 0.05
    assert cfg.tests == PARETO_KINDS
    assert cfg.estimators == (MME, MLE)
    assert len(cfg.alternatives) == 27
    assert (cfg.critical_reps, cfg.power_reps, cfg.warp_reps) == (100_000, 10_000, 50_000)
    assert cfg.desk_scale == 0.1
    assert cfg.master_seed == 271828


def test_config_scaling_floors_at_one_thousand():
    cfg = StudyConfig()
    assert cfg.scaled_reps("critical") == 10_000
    assert cfg.scaled_reps("power") == 1000
    assert cfg.scaled_reps("warp") == 5000
    full = StudyConfig(desk_scale=1.0)
    assert full.scaled_reps("critical") == 100_000
    with pytest.raises(KeyError):
        cfg.scaled_reps("bogus")


def test_config_alpha_lies_in_the_routes_range():
    # (0, 1], as for --alpha and every route: alpha = 1 rejects every sample
    assert StudyConfig(alpha=1.0).alpha == 1.0
    for alpha in (1.5, 0.0, -0.05):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            StudyConfig(alpha=alpha)


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(alpha=0.0)
    with pytest.raises(ValueError, match="sample sizes must be non-empty"):
        StudyConfig(sample_sizes=())
    with pytest.raises(ValueError, match="sample sizes must be positive"):
        StudyConfig(sample_sizes=(0,))
    with pytest.raises(ValueError, match="sample size 10 is given more than once"):
        StudyConfig(sample_sizes=(10, 20, 10))
    with pytest.raises(ValueError):
        StudyConfig(tests=())
    with pytest.raises(ValueError):
        StudyConfig(desk_scale=0.0)
    with pytest.raises(ValueError):
        StudyConfig(desk_scale=1.5)
    with pytest.raises(ValueError):
        StudyConfig(estimators=("nope",))
    with pytest.raises(ValueError, match="power replications fall below 1000"):
        StudyConfig(power_reps=9_000)


def test_config_coerces_sequences():
    cfg = StudyConfig(sample_sizes=[10], tests=[KS], estimators=["mme"])
    assert cfg.sample_sizes == (10,)
    assert cfg.tests == (KS,)
    assert cfg.estimators == (MME,)


def test_config_coerces_string_kinds_and_drops_repeats():
    common = dict(
        sample_sizes=(20,),
        alternatives=(AlternativeSpec(Family.GAMMA, 1.2),),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    typed = StudyConfig(tests=(KS, MP2), **common)
    loose = StudyConfig(tests=("KS", MP2, "MP2", KS), **common)
    assert loose.tests == typed.tests == (KS, MP2)
    a, b = run_power_table(typed, n=20), run_power_table(loose, n=20)
    assert not a.notes and not b.notes
    assert render_table(a, "csv") == render_table(b, "csv")


def test_config_refuses_replications_that_overrun_a_cell_block():
    # a warp-speed cell reaches 2 substreams per replication, the tabulated
    # routes 1, and a cell block holds 2**32
    StudyConfig(warp_reps=1 << 31, desk_scale=1.0)
    StudyConfig(critical_reps=1 << 32, power_reps=1 << 32, desk_scale=1.0)
    for name, reps in (("warp", (1 << 31) + 1),
                       ("critical", (1 << 32) + 1),
                       ("power", (1 << 32) + 1)):
        with pytest.raises(ValueError, match=f"{name} replications overrun"):
            StudyConfig(desk_scale=1.0, **{f"{name}_reps": reps})


# ---------------------------------------------------------------------------
# stream layout


def _grid(sizes, alternatives, estimators, **budgets):
    return dict(sample_sizes=range(1, sizes + 1),
                alternatives=(AlternativeSpec(Family.PARETO, 2.0),) * alternatives,
                estimators=(MME, MLE, MME)[:estimators], **budgets)


def _ids(role, index):
    return _substream(RandomStream(0), role, index).stream_id


@settings(max_examples=200)
@given(sizes=st.integers(1, 600), alternatives=st.integers(1, 1100),
       estimators=st.integers(1, 3), critical=st.integers(1000, 1 << 33),
       power=st.integers(1000, 1 << 33), warp=st.integers(1000, 1 << 33))
def test_a_grid_is_accepted_exactly_when_its_stream_ids_stay_apart(
        sizes, alternatives, estimators, critical, power, warp):
    cells = sizes * alternatives * estimators
    # the documented layout: cell c at c * 2**32, pool k at (2**20 + k) * 2**32
    assert _ids("cell", cells - 1) == (cells - 1) << 32
    assert _ids("pool", sizes - 1) == ((1 << 20) + sizes - 1) << 32
    # each role's indices are evenly spaced, so index i fills
    # [first + i * stride, first + i * stride + ids): the indices stay apart when
    # ids <= stride, and the roles when their hulls [first, last + ids) do
    roles = []
    for role, count, ids in (("cell", cells, max(power, 2 * warp)),
                             ("pool", sizes, critical)):
        first = _ids(role, 0)
        roles.append((first, _ids(role, count - 1) + ids, ids <= _ids(role, 1) - first))
    (low, low_end, low_apart), (high, high_end, high_apart) = sorted(roles)
    apart = (low_apart and high_apart and low_end <= high
             and 0 <= low and high_end <= 1 << 64)
    grid = _grid(sizes, alternatives, estimators, critical_reps=critical,
                 power_reps=power, warp_reps=warp, desk_scale=1.0)
    if apart:
        StudyConfig(**grid)
    else:
        with pytest.raises(ValueError, match="overrun"):
            StudyConfig(**grid)


def test_a_grid_whose_cells_reach_the_pools_is_refused():
    # cell 2**20 would draw from the first critical-value pool's streams
    assert _ids("cell", 1 << 20) == _ids("pool", 0)
    StudyConfig(**_grid(512, 1024, 2))
    with pytest.raises(ValueError, match="1050624 cells overrun the substream layout, "
                                         "which holds 1048576"):
        StudyConfig(**_grid(513, 1024, 2))


# ---------------------------------------------------------------------------
# power tables


@pytest.fixture(scope="module")
def small_table():
    cfg = StudyConfig(
        sample_sizes=(20,),
        tests=(KS, MP2),
        alternatives=(AlternativeSpec(Family.PARETO, 2.0),
                      AlternativeSpec(Family.GAMMA, 1.2)),
        critical_reps=2000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    return cfg, run_power_table(cfg, n=20)


def test_power_table_shape_and_content(small_table):
    cfg, tab = small_table
    assert tab.n == 20 and tab.alpha == 0.05
    assert len(tab.cells) == 8 and tab.notes == []
    assert tab.wall_clock > 0.0
    null_spec, gamma_spec = cfg.alternatives
    for est in (MME, MLE):
        assert tab.get(null_spec, MP2, est).power == pytest.approx(0.05, abs=0.03)
        assert tab.get(gamma_spec, MP2, est).power > 0.3


def test_power_table_is_deterministic(small_table):
    cfg, tab = small_table
    again = run_power_table(cfg, n=20)
    for key, cell in tab.cells.items():
        assert again.cells[key].power == cell.power


_GRIDS = {"mle-only": (MLE,), "mme-only": (MME,), "both": (MME, MLE)}


def _two_alternative_grid(estimators):
    # ExpKS is not applicable on the moment route, so MME columns carry notes
    return StudyConfig(
        sample_sizes=(20,),
        tests=(KS, MP2, EXP_KS),
        estimators=estimators,
        alternatives=(AlternativeSpec(Family.PARETO, 2.0),
                      AlternativeSpec(Family.GAMMA, 1.2)),
        critical_reps=2000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("estimators", _GRIDS.values(), ids=_GRIDS.keys())
def test_power_table_parallel_matches_sequential(estimators, jobs):
    cfg = _two_alternative_grid(estimators)
    serial = run_power_table(cfg, n=20, jobs=1)
    parallel = run_power_table(cfg, n=20, jobs=jobs)
    assert len(serial.cells) == 2 * (3 * (MLE in estimators) + 2 * (MME in estimators))
    assert list(parallel.cells.items()) == list(serial.cells.items())
    assert parallel.notes == serial.notes
    assert len(serial.notes) == 2 * (MME in estimators)


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_power_table_is_the_same_on_every_start_method(method, monkeypatch):
    # Python 3.14 starts pool workers by forkserver on Linux; spawn is the
    # default elsewhere. Neither copies the parent, so the cells and the
    # table reach the workers only as pickles
    import concurrent.futures
    import functools
    import multiprocessing

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context(method)))
    cfg = _two_alternative_grid((MME, MLE))
    serial = run_power_table(cfg, n=20, jobs=1)
    parallel = run_power_table(cfg, n=20, jobs=2)
    assert len(serial.cells) == 10 and len(serial.notes) == 2
    assert list(parallel.cells.items()) == list(serial.cells.items())
    assert parallel.notes == serial.notes


class _FakeFuture:
    """A future that runs its call only when its result is read.

    A future the fake worker has taken is ``started``: it cannot be
    cancelled, as a real one that a worker runs or the executor has queued.
    """

    def __init__(self, log, label, fn, args):
        self.log, self.label, self.fn, self.args = log, label, fn, args
        self.state = "pending"

    def result(self):
        self.log.append(("result", self.label))
        if self.state in ("pending", "started"):
            self.state = "done"
            try:
                self.value = self.fn(*self.args)
            except Exception as exc:  # raised again on every read, as a future does
                self.value, self.state = exc, "raised"
        if self.state == "raised":
            raise self.value
        return self.value

    def cancel(self):
        if self.state == "pending":
            self.state = "cancelled"
            self.log.append(("cancel", self.label))
        return self.state == "cancelled"


class _FakeExecutor:
    """Records what ``run_power_table`` submits, cancels and reads, and in
    what order. Its workers take the first ``max_workers`` submitted cells."""

    log: list = []
    run_cell = None  # what each logged cell run calls

    def __init__(self, max_workers):
        self.max_workers, self.futures = max_workers, []

    def __enter__(self):
        _FakeExecutor.last = self
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        assert fn.__name__ == "_cell_outcome"  # the parent builds the shared pool
        label = _cell_label(*args)
        self.log.append(("submit", label))
        self.futures.append(_FakeFuture(self.log, label, fn, args))
        if len(self.futures) <= self.max_workers:
            self.futures[-1].state = "started"
        return self.futures[-1]


def _cell_label(config, n_idx, alt_idx, est_idx, cv_table):
    return alt_idx, config.estimators[est_idx], cv_table


@pytest.fixture
def fake_executor(monkeypatch):
    # the log also records each cell run, and each shared pool built with its table
    import concurrent.futures

    import paretogof.study as study

    log, build_pool = [], study.null_critical_values

    def logged_cell(*args):
        log.append(("run", _cell_label(*args)))
        return _FakeExecutor.run_cell(*args)

    def logged_pool(*args):
        log.append(("pool", build_pool(*args)))
        return log[-1][1]

    monkeypatch.setattr(_FakeExecutor, "run_cell", study._run_cell)
    monkeypatch.setattr(study, "_run_cell", logged_cell)
    monkeypatch.setattr(study, "null_critical_values", logged_pool)
    monkeypatch.setattr(_FakeExecutor, "log", log)
    monkeypatch.setattr(_FakeExecutor, "last", None, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakeExecutor)
    return _FakeExecutor


def _two_by_grid(estimators):
    return StudyConfig(sample_sizes=(20,), tests=(KS,), estimators=estimators,
                       alternatives=(AlternativeSpec(Family.PARETO, 2.0),
                                     AlternativeSpec(Family.GAMMA, 1.2)),
                       critical_reps=1000, power_reps=1000, warp_reps=1000,
                       desk_scale=1.0)


@pytest.mark.parametrize("estimators", _GRIDS.values(), ids=_GRIDS.keys())
def test_power_table_builds_the_pool_before_it_queues_a_cell(fake_executor, estimators):
    cfg = _two_by_grid(estimators)
    serial = run_power_table(cfg, n=20, jobs=1)
    fake_executor.log.clear()
    table = run_power_table(cfg, n=20, jobs=2)
    assert list(table.cells.items()) == list(serial.cells.items())
    assert fake_executor.last.max_workers == 1
    log = fake_executor.log
    built = [cv_table for event, cv_table in log if event == "pool"]
    assert len(built) == (MLE in estimators)
    # the parent builds the pool before the first submit, and then queues
    # every cell in task order, each with the pool's table
    first_submit = [event for event, _ in log].index("submit")
    assert all(event != "pool" for event, _ in log[first_submit:])
    submits = [label for event, label in log if event == "submit"]
    assert submits == [(alt_idx, estimator, built[0] if built else None)
                       for alt_idx in range(2) for estimator in estimators]
    # the worker took the first cell; the parent cancelled every other, front
    # to back, and ran each as it cancelled it
    cancelled = [(i, label) for i, (event, label) in enumerate(log) if event == "cancel"]
    assert [label for _, label in cancelled] == submits[1:]
    assert all(log[i + 1] == ("run", label) for i, label in cancelled)
    runs = [label for event, label in log if event == "run"]
    assert sorted(map(str, runs)) == sorted(map(str, submits))  # each cell ran once
    assert [f.state for f in fake_executor.last.futures] == ["done"] + ["cancelled"] * (
        len(submits) - 1)


def _failing_cell(failing):
    def run_cell(config, n_idx, alt_idx, est_idx, cv_table):
        if (alt_idx, est_idx) in failing:
            raise RuntimeError(f"cell {alt_idx} {est_idx}")
        return {}
    return run_cell


# tasks in task order: (0, MME), (0, MLE), (1, MME), (1, MLE). They are
# queued in that order and the worker takes (0, MME). The parent runs
# (0, MLE), (1, MME) and (1, MLE), and stops at the first that fails
_CELL_ERRORS = {
    # the parent's (1, MLE) fails first, but the worker's (0, MME) comes
    # first in task order
    "first-in-a-worker": ({(0, 0), (1, 1)}, "cell 0 0",
                          {(0, MME): "raised", (0, MLE): "ran here",
                           (1, MME): "ran here", (1, MLE): "ran here"}),
    # the parent's (0, MLE) fails, and the worker's (0, MME), which comes
    # first in task order, does not; (1, MLE) would fail too, but it never
    # starts
    "first-in-the-parent": ({(0, 1), (1, 1)}, "cell 0 1",
                            {(0, MME): "done", (0, MLE): "ran here",
                             (1, MME): "cancelled", (1, MLE): "cancelled"}),
}


@pytest.mark.parametrize("failing, message, states", _CELL_ERRORS.values(),
                         ids=_CELL_ERRORS.keys())
def test_pooled_cell_errors_raise_in_task_order_and_cancel_the_rest(
        fake_executor, monkeypatch, failing, message, states):
    monkeypatch.setattr(fake_executor, "run_cell", _failing_cell(failing))
    with pytest.raises(RuntimeError, match=message):
        run_power_table(_two_by_grid((MME, MLE)), n=20, jobs=2)
    # a cell the parent ran is cancelled in the executor, and the cancel is
    # followed by its run; a cell cancelled without a run never started
    log = fake_executor.log
    ran_here = {log[i][1][:2] for i in range(len(log) - 1)
                if log[i][0] == "cancel" and log[i + 1][0] == "run"}
    assert {f.label[:2]: "ran here" if f.label[:2] in ran_here else f.state
            for f in fake_executor.last.futures} == states


def test_pooled_pool_error_raises_before_any_cell_is_queued(fake_executor, monkeypatch):
    import paretogof.study as study

    def broken_pool(*args):
        raise RuntimeError("pool")

    monkeypatch.setattr(study, "null_critical_values", broken_pool)
    monkeypatch.setattr(fake_executor, "run_cell", _failing_cell({(0, 0)}))
    with pytest.raises(RuntimeError, match="pool"):
        run_power_table(_two_by_grid((MME, MLE)), n=20, jobs=2)
    # no executor was made, so no cell was submitted, and the parent ran none
    assert fake_executor.last is None
    assert fake_executor.log == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers see the patched module only as a forked copy")
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_one_error_rule_at_every_job_count(jobs, monkeypatch, tmp_path):
    # real workers, forked after the patch: (0, MLE) and (1, MME) fail, and
    # whichever process runs which cell, the lower task index is raised
    import paretogof.study as study

    cfg = _two_by_grid((MME, MLE))
    monkeypatch.setattr(study, "_run_cell", _failing_cell({(0, 1), (1, 0)}))
    with pytest.raises(RuntimeError, match="^cell 0 1$"):
        run_power_table(cfg, n=20, jobs=jobs)

    # a failing pool raises before any cell starts, in any process
    started = tmp_path / "started"

    def marked_cell(*args):
        started.touch()
        return {}

    def broken_pool(*args):
        raise RuntimeError("pool")

    monkeypatch.setattr(study, "_run_cell", marked_cell)
    monkeypatch.setattr(study, "null_critical_values", broken_pool)
    with pytest.raises(RuntimeError, match="^pool$"):
        run_power_table(cfg, n=20, jobs=jobs)
    assert not started.exists()


def test_power_table_starts_no_more_workers_than_tasks(monkeypatch):
    # jobs counts the parent: two tasks at jobs=4 start one worker, and one
    # job or one task starts no pool
    import concurrent.futures

    started = []

    def record(max_workers):
        started.append(max_workers)
        return concurrent.futures.ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    two = StudyConfig(sample_sizes=(20,), tests=(KS,), estimators=(MME,),
                      alternatives=(AlternativeSpec(Family.PARETO, 2.0),
                                    AlternativeSpec(Family.GAMMA, 1.2)),
                      warp_reps=1000, desk_scale=1.0)
    assert len(run_power_table(two, n=20, jobs=1).cells) == 2
    assert started == []
    assert len(run_power_table(two, n=20, jobs=4).cells) == 2
    assert started == [1]
    one = StudyConfig(sample_sizes=(20,), tests=(KS,), estimators=(MME,),
                      alternatives=(AlternativeSpec(Family.PARETO, 2.0),),
                      warp_reps=1000, desk_scale=1.0)
    assert len(run_power_table(one, n=20, jobs=4).cells) == 1
    assert started == [1]


@pytest.mark.parametrize("jobs", [0, -2, 1.0, 2.5, "2", True, None], ids=repr)
def test_power_runs_refuse_a_job_count_that_is_not_a_positive_integer(jobs):
    cfg = _two_by_grid((MME,))
    for run in (lambda: run_power_table(cfg, n=20, jobs=jobs),
                lambda: run_power_study(cfg, jobs=jobs)):
        with pytest.raises(ValueError, match=f"jobs must be an integer of at least 1, "
                                             f"got {re.escape(repr(jobs))}"):
            run()


def test_failed_cells_become_notes_at_every_job_count():
    # a half-normal scale this small rounds every draw onto the support
    # endpoint x = 1, so both of its cells give up after the bounded redraws
    cfg = StudyConfig(
        sample_sizes=(20,),
        tests=(KS, MP2),
        alternatives=(AlternativeSpec(Family.PARETO, 2.0),
                      AlternativeSpec(Family.HALF_NORMAL, 1e-300)),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    serial = run_power_table(cfg, n=20, jobs=1)
    parallel = run_power_table(cfg, n=20, jobs=2)
    assert len(serial.cells) == 4
    assert serial.cells.keys() == parallel.cells.keys()
    for key, cell in serial.cells.items():
        assert parallel.cells[key].power == cell.power
    assert serial.notes == parallel.notes
    assert len(serial.notes) == 2
    assert all(note.startswith("HalfNormal(1e-300) / ") and "failed" in note
               for note in serial.notes)


def _mme_only_table(tests):
    cfg = StudyConfig(
        sample_sizes=(20,), tests=tests, estimators=(MME,),
        alternatives=(AlternativeSpec(Family.GAMMA, 1.2),),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    return run_power_table(cfg, n=20)


def test_exponentiality_kind_on_the_moment_route_is_a_note_and_an_empty_cell():
    tab = _mme_only_table((KS, EXP_KS))
    gamma = tab.rows[0]
    assert list(tab.cells) == [(gamma, KS, MME)]
    assert tab.notes == ["Gamma(1.2) / ExpKS / mme: not applicable on this route"]
    power = tab.get(gamma, KS, MME).power
    assert render_table(tab, "markdown").splitlines()[2] == (
        f"| Gamma(1.2) | {int(np.floor(power * 100 + 0.5))} |  |")
    head, row = list(csv.reader(io.StringIO(render_table(tab, "csv"))))
    assert head == ["alternative", "KS mme", "KS mme se", "ExpKS mme", "ExpKS mme se"]
    assert row[0] == "Gamma(1.2)" and float(row[1]) == pytest.approx(power, abs=5e-5)
    assert row[3:] == ["", ""]


def test_a_moment_route_cell_of_exponentiality_kinds_only_yields_no_cells():
    tab = _mme_only_table((EXP_KS,))
    assert tab.cells == {}
    assert tab.notes == ["Gamma(1.2) / ExpKS / mme: not applicable on this route"]
    assert render_table(tab, "csv").splitlines()[1] == "Gamma(1.2),,"


def test_mme_cells_use_warp_speed_and_mle_cells_use_the_table(small_table):
    cfg, tab = small_table
    # the two routes share nothing, so their null cells are independent
    # estimates; both still sit near the level
    null_spec = cfg.alternatives[0]
    assert tab.get(null_spec, KS, MME).power != tab.get(null_spec, KS, MLE).power


def test_run_power_study_covers_every_sample_size():
    cfg = StudyConfig(
        sample_sizes=(10, 15),
        tests=(KS,),
        alternatives=(AlternativeSpec(Family.PARETO, 2.0),),
        critical_reps=1000, power_reps=1000, warp_reps=1000, desk_scale=1.0,
    )
    tables = run_power_study(cfg)
    assert [t.n for t in tables] == [10, 15]


def test_run_power_table_requires_a_listed_sample_size(small_table):
    cfg, _ = small_table
    with pytest.raises(ValueError):
        run_power_table(cfg, n=99)
    one = StudyConfig(sample_sizes=(10,), tests=(KS,), estimators=(MLE,),
                      alternatives=(AlternativeSpec(Family.GAMMA, 1.2),),
                      critical_reps=1000, power_reps=1000, desk_scale=1.0)
    # without n= the one listed size is taken, and several are refused
    assert run_power_table(one).cells == run_power_table(one, n=10).cells
    with pytest.raises(ValueError, match="several sample sizes; pass n="):
        run_power_table(StudyConfig(sample_sizes=(10, 15)))


# ---------------------------------------------------------------------------
# golf data


def test_golf_datasets_match_their_reference_summaries():
    pga = golf_dataset(Tour.PGA)
    liv = golf_dataset(Tour.LIV)
    assert pga.sample.n == liv.sample.n == 28
    assert round(pga.mean_earnings) == 6_098_395
    assert round(liv.mean_earnings) == 7_989_306
    assert np.all(pga.sample.values > 1.0)
    assert np.all(liv.sample.values > 1.0)


def test_golf_dataset_holds_28_observations():
    with pytest.raises(DomainError, match="each tour dataset holds 28 observations"):
        GolfDataset(Tour.PGA, golf_dataset(Tour.PGA).raw[:27])


def test_golf_scaling_is_the_session_cutoff():
    assert GOLF_SCALE == 3_500_000.0
    ds = golf_dataset(Tour.PGA, scale=3_600_000.0)
    assert ds.sample.values.min() > 1.0
    with pytest.raises(DomainError):
        golf_dataset(Tour.PGA, scale=4_000_000.0)  # smallest earner falls below
    with pytest.raises(DomainError):
        golf_dataset(Tour.LIV, scale=-1.0)


def test_golf_application_runs_both_estimators():
    res = run_golf_application(Tour.PGA, B=200, stream=RandomStream(5, 0))
    assert len(res) == 14
    assert {r.estimator for r in res} == {MME, MLE}
    assert [r.kind for r in res[:7]] == list(PARETO_KINDS)
    again = run_golf_application(Tour.PGA, B=200, stream=RandomStream(5, 0))
    assert [r.p_value for r in again] == [r.p_value for r in res]


def test_golf_application_statistics_match_direct_evaluation():
    from paretogof import estimate_mme, ks

    res = run_golf_application(Tour.LIV, B=50, stream=RandomStream(6, 0))
    sample = golf_dataset(Tour.LIV).sample
    want = ks(sample, estimate_mme(sample).value).value
    got = next(r for r in res if r.kind is KS and r.estimator is MME)
    assert got.statistic == pytest.approx(want, rel=1e-12)


def test_golf_application_default_stream_is_fixed():
    a = run_golf_application(Tour.PGA, B=100)
    b = run_golf_application(Tour.PGA, B=100)
    assert [r.p_value for r in a] == [r.p_value for r in b]


# ---------------------------------------------------------------------------
# rendering


def test_power_markdown_rounds_to_whole_percents(small_table):
    cfg, tab = small_table
    text = render_table(tab)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| alternative |")
    assert "KS MME" in lines[0] and "MP2 MLE" in lines[0]
    assert len(lines) == 2 + len(cfg.alternatives)
    # a null cell renders as a small integer percentage
    assert "| Pareto(2) |" in lines[2]


def test_power_csv_has_rates_and_standard_errors(small_table):
    _, tab = small_table
    rows = list(csv.reader(io.StringIO(render_table(tab, "csv"))))
    header = rows[0]
    assert header[0] == "alternative"
    assert "KS mme" in header and "KS mme se" in header
    body = rows[1]
    rate = float(body[header.index("MP2 mme")])
    se = float(body[header.index("MP2 mme se")])
    assert 0.0 <= rate <= 1.0 and 0.0 < se < 0.05


def test_results_render_both_formats():
    res = run_golf_application(Tour.PGA, B=200, stream=RandomStream(7, 0))
    md = render_table(res)
    assert md.splitlines()[0] == "| test | MME statistic | MME p-value | MLE statistic | MLE p-value |"
    assert "| KS | 0.255 |" in md
    rows = list(csv.reader(io.StringIO(render_table(res, "csv"))))
    assert rows[0] == ["test", "mme statistic", "mme p-value",
                       "mle statistic", "mle p-value"]
    assert len(rows) == 1 + 7
    # csv keeps full precision
    ks_row = next(r for r in rows[1:] if r[0] == "KS")
    assert abs(float(ks_row[1]) - 0.2549347399526356) < 1e-12


def test_render_table_rejects_unknown_formats(small_table):
    _, tab = small_table
    with pytest.raises(ValueError):
        render_table(tab, "xml")
    with pytest.raises(TypeError):
        render_table(object())
    with pytest.raises(TypeError, match="a PowerTable or a list of TestResult"):
        render_table([tab])


def test_empty_power_table_renders_header_only():
    tab = PowerTable(n=20, alpha=0.05, rows=(), columns=((KS, MME),), cells={},
                     seed=0, wall_clock=0.0, notes=[])
    lines = render_table(tab).strip().splitlines()
    assert len(lines) == 2  # header and rule, no data rows


# ---------------------------------------------------------------------------
# manifest


def test_manifest_is_json_serializable(small_table):
    cfg, tab = small_table
    man = study_manifest(cfg, [tab])
    text = json.dumps(man)
    assert man["package"]["name"] == "paretogof"
    assert man["config"]["tests"] == ["KS", "MP2"]
    assert man["tables"][0]["n"] == 20
    assert "alternatives" in man["config"] and len(text) > 100
