"""Traced in-process run of the paretogof command line.

    python3 -u perfbench/tracer.py OUT.json -- <paretogof arguments>

runs ``paretogof.cli.main`` from ``./src`` with a span recorded around every
call into a layer, then times each statistic kernel alone on a copy of the
first ``statistic_rows`` input seen at each sample size, and writes spans,
counts and kernel times to OUT.json. The wrappers replace the module
attributes through which callers reach each layer, so the library itself is
run unmodified; a wrapper whose attribute no longer exists is skipped,
listed under ``unwrapped`` and counted in the per-layer metric
``trace.unwrapped``.

:func:`summarize` turns that file into per-layer metrics. It is imported by
``run.py`` and needs nothing beyond the standard library.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("distributions", "estimation", "statistics", "inference", "study", "cli")

# (module, attribute, span name); the span name's first component is its layer
WRAPPED = (
    ("paretogof.cli", "null_critical_values", "inference.null_critical_values"),
    ("paretogof.cli", "bootstrap_pvalue_many", "inference.bootstrap_pvalue_many"),
    ("paretogof.cli", "run_power_table", "study.run_power_table"),
    ("paretogof.cli", "render_table", "study.render_table"),
    ("paretogof.cli", "study_manifest", "study.study_manifest"),
    ("paretogof.study", "_run_cell", "study.cell"),
    ("paretogof.study", "null_critical_values", "inference.null_critical_values"),
    ("paretogof.study", "power_fixed_critical_many", "inference.power_fixed_critical_many"),
    ("paretogof.study", "warp_speed_power_many", "inference.warp_speed_power_many"),
    ("paretogof.study", "bootstrap_pvalue_many", "inference.bootstrap_pvalue_many"),
    ("paretogof.inference", "upper_quantile", "inference.upper_quantile"),
    ("paretogof.inference", "_redraw_bad", "inference.redraw_bad"),
    ("paretogof.inference", "statistic_rows", "statistics.statistic_rows"),
    ("paretogof.inference", "estimate_shape", "estimation.estimate_shape"),
    ("paretogof.inference", "mle_rows", "estimation.mle_rows"),
    ("paretogof.inference", "mme_rows", "estimation.mme_rows"),
    ("paretogof.statistics", "mle_rows", "estimation.mle_rows"),
    ("paretogof.inference", "pareto_rows", "distributions.pareto_rows"),
    ("paretogof.inference", "alternative_rows", "distributions.alternative_rows"),
    ("paretogof.inference", "bootstrap_rows", "distributions.bootstrap_rows"),
)

# a kernel is timed until it has run for this long, or this often
_KERNEL_BUDGET_S = 0.2
_KERNEL_REPEATS = 50


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, raised]``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.first_inputs: dict = {}  # n -> (x, beta) of the first statistic_rows call
        self.originals: list = []  # (owner, attribute, original) for uninstall

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        return traced

    # counters recorded at the same boundaries as the spans

    def _rows_drawn(self, name):
        def after(parent, args, kwargs, x):
            rows = x.shape[0]
            self.counts[f"{name}.rows"] += rows
            self.counts["distributions.rows"] += rows
            self.counts["distributions.bytes_out"] += x.nbytes
            if parent >= 0 and self.spans[parent][0] == "inference.redraw_bad":
                self.counts["distributions.redraw_calls"] += 1
        return after

    def _rows_estimated(self, name):
        def after(parent, args, kwargs, b):
            rows = getattr(b, "size", 1)  # estimate_shape returns one ShapeEstimate
            self.counts[f"{name}.rows"] += rows
            self.counts["estimation.rows"] += rows
        return after

    def _statistics_evaluated(self, parent, args, kwargs, out):
        kinds, x = list(out), args[1]
        rows, n = x.shape
        self.counts["statistics.evals"] += rows * len(kinds)
        if any(k.label.startswith("G") for k in kinds):
            self.counts["statistics.mellin_pair_terms"] += rows * n * n
        if n not in self.first_inputs:
            beta = args[2] if len(args) > 2 else kwargs.get("beta")
            beta = 1.0 if beta is None else beta  # exponentiality kinds ignore it
            self.first_inputs[n] = (x.copy(), beta.copy() if hasattr(beta, "copy") else beta)

    def install(self, modules: dict) -> list:
        """Wrap every reachable attribute; return the ones that are missing."""
        hooks = {
            "statistics.statistic_rows": self._statistics_evaluated,
            "estimation.estimate_shape": self._rows_estimated("estimation.estimate_shape"),
        }
        for name in ("pareto_rows", "alternative_rows", "bootstrap_rows"):
            hooks[f"distributions.{name}"] = self._rows_drawn(f"distributions.{name}")
        for name in ("mle_rows", "mme_rows"):
            hooks[f"estimation.{name}"] = self._rows_estimated(f"estimation.{name}")
        missing = []
        for module, attr, name in WRAPPED:
            fn = getattr(modules[module], attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self.originals.append((modules[module], attr, fn))
            setattr(modules[module], attr, self.wrap(name, fn, hooks.get(name)))

        stream = getattr(modules["paretogof.distributions"], "RandomStream", None)
        if stream is None or not hasattr(stream, "generator"):
            missing.append("paretogof.distributions.RandomStream.generator")
        else:
            generator = stream.generator
            counts = self.counts

            def counted(self_):
                counts["distributions.generators"] += 1
                return generator(self_)

            self.originals.append((stream, "generator", generator))
            stream.generator = counted
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)


def time_kernels(first_inputs: dict) -> dict:
    """Seconds per call of each statistic kind alone, at each sample size seen."""
    from paretogof import ALL_KINDS
    from paretogof.statistics import statistic_rows

    out = {}
    for n, (x, beta) in sorted(first_inputs.items()):
        for kind in ALL_KINDS:
            times: list = []
            while len(times) < _KERNEL_REPEATS and sum(times) < _KERNEL_BUDGET_S:
                start = time.perf_counter()
                statistic_rows([kind], x, beta)
                times.append(time.perf_counter() - start)
            out[f"{kind.label}.n{n}"] = statistics.median(times)
    return out


def summarize(trace: dict) -> dict:
    """Per-layer self times and shares, per-span totals, counts and kernels.

    A span's self time is its duration minus that of its direct children, so
    the layer self times add up to the root span, the traced total.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    span_s: dict = defaultdict(float)
    calls: Counter = Counter()
    raised: Counter = Counter()
    for i, (name, start, end, parent, failed) in enumerate(spans):
        self_s[name.split(".")[0]] += end - start - covered[i]
        span_s[name] += end - start
        calls[name] += 1
        raised[name] += failed
    root = spans[0]
    total = root[2] - root[1]
    return {
        "total_s": total,
        "self_s": self_s,
        "share": {layer: s / total for layer, s in self_s.items()},
        "span_s": dict(span_s),
        "calls": dict(calls),
        "raised": dict(raised),
        "counts": trace["counts"],
        "kernels": trace["kernels"],
    }


def main(argv: list) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <paretogof arguments>")
    sys.path.insert(0, str(Path.cwd() / "src"))
    import paretogof.cli

    tracer = Tracer(run_id=Path(out_path).stem)
    missing = tracer.install(sys.modules)
    code = tracer.wrap("cli.main", paretogof.cli.main)(cli_argv)
    sys.stdout.flush()
    tracer.uninstall()
    kernels = time_kernels(tracer.first_inputs)
    origin = tracer.spans[0][1]
    Path(out_path).write_text(json.dumps({
        "run_id": tracer.run_id,
        "package": paretogof.cli.__file__,
        "exit_code": code,
        "unwrapped": missing,
        "spans": [[name, start - origin, end - origin, parent, failed]
                  for name, start, end, parent, failed in tracer.spans],
        "counts": dict(tracer.counts),
        "kernels": kernels,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
