"""Closed-loop benchmark of the paretogof command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client runs ``python -u -m
paretogof.cli ...`` from ``./src`` once at a time, starting the next
invocation only after the previous one has exited, and keeps going while
the next one is expected to finish within ``--seconds`` (at least once).
Every invocation's output is checked (see ``workloads.py``).

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the run's invocations. With ``--trace 1`` the run starts with
one traced in-process invocation (``tracer.py``) and reports the per-layer
metrics. The lines before it give every invocation, the layer shares, the
unbounded per-span breakdown and the provenance of the run; the same
record, with the spans, is kept under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import LAYERS, summarize
from workloads import (
    EXP_LABELS,
    PARETO_LABELS,
    WORKLOADS,
    check_structure,
    cli_args,
    collect_outputs,
    compare_outputs,
    load_reference,
    write_inputs,
)

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench"  # relative to the checkout root; ignored by git
# A run must end within 180 s: no invocation starts after RUN_LIMIT_S, and
# none may take longer than INVOCATION_TIMEOUT_S (about three times the
# slowest seen, the traced power_grid run).
INVOCATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 100.0
RSS_POLL_S = 0.05

# Layer shares of the traced total measured when the workloads were chosen,
# printed next to each traced run's own shares.
EXPECTED_SHARES = {
    "critical_values": {"distributions": 0.56, "statistics": 0.43},
    "power_grid": {"distributions": 0.67, "statistics": 0.33},
    "large_n_test": {"statistics": 0.995, "distributions": 0.004},
}


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class PeakRss(threading.Thread):
    """Peak resident memory of a process tree, polled from /proc.

    Each poll sums the current resident memory (VmRSS) of every process in
    the tree, and the peak is the largest of those sums. Pages that forked
    pool workers share with their parent count once per process, as in
    ``ps``. A peak of one process that falls between two polls is caught by
    its own high-water mark (VmHWM), which the tree's peak cannot be below.
    """

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.tree_kb = 0  # largest sum of VmRSS over the tree at one poll
        self.one_kb = 0  # largest VmHWM of a single process
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(RSS_POLL_S):
            self.sample()

    def sample(self) -> None:
        total = 0
        todo = [self.pid]
        while todo:
            pid = todo.pop()
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                    elif line.startswith("VmHWM:"):
                        self.one_kb = max(self.one_kb, int(line.split()[1]))
                for task in Path(f"/proc/{pid}/task").iterdir():
                    todo.extend(int(c) for c in (task / "children").read_text().split())
            except (OSError, ValueError):
                continue
        self.tree_kb = max(self.tree_kb, total)

    def stop(self) -> int:
        self.done.set()
        self.join()
        return max(self.tree_kb, self.one_kb)


def _kill_tree(pid: int) -> None:
    """Kill the process group a child leads, pool workers included."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _invoke(cmd: list, env: dict, root: Path, err_path: Path):
    """Run one child to completion: ``(wall, setup, cpu, peak_kb, code, stdout)``."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=err, start_new_session=True)
    poller = PeakRss(proc.pid)
    poller.start()
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill_tree, (proc.pid,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        stdout = first + proc.stdout.read()
    except BaseException:  # interrupted or terminated: take the child's tree down first
        _kill_tree(proc.pid)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
        proc.stdout.close()
        _kill_tree(proc.pid)  # stray pool workers, if the child died before reaping them
        peak_kb = max(poller.stop(), usage.ru_maxrss)
    return (wall, setup, usage.ru_utime + usage.ru_stime, peak_kb,
            proc.returncode, stdout.decode())


def run_once(workload, seed: int, root: Path, work: Path, data, env: dict,
             trace_path: Path | None = None) -> Invocation:
    """One invocation, untraced or traced, with its outputs checked."""
    out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=work))
    try:
        args = cli_args(workload, seed, data, out_dir, traced=trace_path is not None)
        if trace_path is None:
            cmd = [sys.executable, "-u", "-m", "paretogof.cli", *args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "tracer.py"), str(trace_path), "--", *args]
        err_path = work / "stderr.txt"
        wall, setup, cpu, peak_kb, code, stdout = _invoke(cmd, env, root, err_path)
        inv = Invocation(wall, setup, cpu, peak_kb / 1024.0, code)
        if code != 0:
            err = err_path.read_text(errors="replace").strip().splitlines()
            inv.problems.append(f"exit code {code}: {err[-1] if err else 'no message'}")
            return inv
        inv.outputs, inv.problems = collect_outputs(workload, stdout, out_dir)
        if not inv.problems:
            inv.problems += check_structure(workload, seed, inv.outputs)
            reference = load_reference(workload, seed)
            if reference is not None:
                inv.problems += compare_outputs(inv.outputs, reference)
        return inv
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def child_env(root: Path) -> dict:
    """The caller's environment, importing the library from ``root/src``."""
    env = {k: v for k, v in os.environ.items() if k != "PARETOGOF_JOBS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def provenance(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        body = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + body)
        lines += body.count(b"\n")
    sha = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "caches": caches,
    }


def end_to_end(workload, runs: list) -> dict:
    median = statistics.median
    return {
        "wall_s": (median(r.wall_s for r in runs), "s"),
        "setup_s": (median(r.setup_s for r in runs), "s"),
        "reps_per_s": (median(workload.rows / (r.wall_s - r.setup_s) for r in runs), "1/s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in runs), "MB"),
    }


def per_layer(runs: list, summary: dict, identical: float, unwrapped: int) -> dict:
    counts, span_s, calls = summary["counts"], summary["span_s"], summary["calls"]
    median = statistics.median
    compute_s = median(r.wall_s - r.setup_s for r in runs)
    # study has no span outside power_grid, so its self time is printed only
    metrics = {f"{layer}.self_s": (summary["self_s"][layer], "s")
               for layer in LAYERS if layer != "study"}
    metrics.update({
        "distributions.rows": (counts.get("distributions.rows", 0), "count"),
        "distributions.generators": (counts.get("distributions.generators", 0), "count"),
        "distributions.redraw_calls": (counts.get("distributions.redraw_calls", 0), "count"),
        "distributions.bytes_out": (counts.get("distributions.bytes_out", 0), "B"),
        "statistics.statistic_rows.s": (span_s.get("statistics.statistic_rows", 0.0), "s"),
        "statistics.evals": (counts.get("statistics.evals", 0), "count"),
        "statistics.mellin_pair_terms": (counts.get("statistics.mellin_pair_terms", 0), "count"),
    })
    for label in PARETO_LABELS + EXP_LABELS:
        seconds = sum(v for k, v in summary["kernels"].items() if k.split(".n")[0] == label)
        metrics[f"statistics.kernel.{label}.s"] = (seconds, "s")
    metrics.update({
        "estimation.mle_rows.s": (span_s.get("estimation.mle_rows", 0.0), "s"),
        "estimation.rows": (counts.get("estimation.rows", 0), "count"),
        "inference.upper_quantile.calls": (calls.get("inference.upper_quantile", 0), "count"),
        "study.cells": (calls.get("study.cell", 0), "count"),
        "study.failed_cells": (summary["raised"].get("study.cell", 0), "count"),
        "cli.process_cpu_s": (median(r.cpu_s for r in runs), "s"),
        "cli.cpu_per_wall": (median(r.cpu_s / r.wall_s for r in runs), "ratio"),
        "cli.output_identical": (identical, "ratio"),
        "trace.total_s": (summary["total_s"], "s"),
        "trace.overhead_ratio": (summary["total_s"] / compute_s, "ratio"),
        "trace.unwrapped": (unwrapped, "count"),
    })
    return metrics


def _report_traced(workload, summary: dict, trace: dict) -> None:
    """Lines for the breakdown that is not a gated or listed metric."""
    total = summary["total_s"]
    residual = total - sum(summary["self_s"].values())
    print(f"traced total {total:.4f} s (layer self times sum to it within {residual:.2e} s); "
          f"unwrapped: {trace['unwrapped'] or 'none'}")
    expected = EXPECTED_SHARES[workload.name]
    for layer in LAYERS:
        ref = expected.get(layer)
        print(f"  {layer:13s} self {summary['self_s'][layer]:9.4f} s  "
              f"share {100 * summary['share'][layer]:6.2f} %"
              + (f"  (measured when chosen: {100 * ref:.1f} %)" if ref is not None else ""))
    for name in sorted(summary["span_s"]):
        print(f"  span {name:38s} {summary['span_s'][name]:9.4f} s "
              f"in {summary['calls'][name]} calls")
    for name in sorted(summary["counts"]):
        print(f"  count {name:37s} {summary['counts'][name]}")
    for name, seconds in summary["kernels"].items():
        print(f"  kernel {name:36s} {seconds:.6f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "paretogof" / "cli.py").is_file():
        print(f"error: {root} holds no src/paretogof; run from the root of a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / WORK_DIR))
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        start = time.perf_counter()
        data = write_inputs(workload, args.seed, work)
        traced, summary, trace = None, None, None
        if args.trace:
            trace_path = root / WORK_DIR / f"{tag}-spans.json"
            traced = run_once(workload, args.seed, root, work, data, env, trace_path)
            if traced.exit_code == 0:
                trace = json.loads(trace_path.read_text())
                summary = summarize(trace)
        runs: list = []
        while not runs or (time.perf_counter() - start
                           + statistics.median(r.wall_s for r in runs) <= args.seconds
                           and time.perf_counter() - start < RUN_LIMIT_S):
            run = run_once(workload, args.seed, root, work, data, env)
            if runs and not run.problems and runs[0].outputs != run.outputs:
                run.problems.append("output differs from the run's first invocation")
            runs.append(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced is not None and not traced.problems and traced.outputs != runs[0].outputs:
        traced.problems.append("traced output differs from the untraced output")
    attempted = ([traced] if traced is not None else []) + runs
    failed = [r for r in attempted if r.problems]
    reference = load_reference(workload, args.seed)
    if reference is not None:
        baseline, against = reference, "the pinned reference"
    else:
        baseline, against = (traced or runs[0]).outputs, f"{'traced' if traced else 'first'} run"
    identical = sum(r.outputs == baseline for r in runs) / len(runs)
    ok = [r for r in runs if not r.problems] or runs  # timings of failed runs only if all failed

    for i, r in enumerate(attempted):
        kind = "traced" if r is traced else "run"
        print(f"{kind} {i}: wall {r.wall_s:.4f} s, setup {r.setup_s:.4f} s, "
              f"cpu {r.cpu_s:.3f} s, peak {r.peak_rss_mb:.1f} MB, exit {r.exit_code}"
              + "".join(f"\n  FAILED: {p}" for p in r.problems))
    print(f"failed_ratio {len(failed) / len(attempted):.4f} ({len(failed)} of "
          f"{len(attempted)}); outputs byte-identical to {against} in "
          f"{identical:.0%} of {len(runs)} untraced runs")
    e2e = end_to_end(workload, ok)
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "provenance": provenance(root),
              "invocations": [{k: v for k, v in vars(r).items() if k != "outputs"}
                              for r in attempted],
              "end_to_end": e2e}
    if args.trace:
        if summary is None:
            metrics = {}
        else:
            _report_traced(workload, summary, trace)
            metrics = per_layer(ok, summary, identical, len(trace["unwrapped"]))
            record["per_layer"] = metrics
    else:
        metrics = e2e
    print("provenance " + json.dumps(record["provenance"]))
    (root / WORK_DIR / f"{tag}-result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
