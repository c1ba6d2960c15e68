"""Command-line front end.

Four subcommands: ``test`` runs the goodness-of-fit tests on a dataset file,
``critical-values`` simulates and stores a critical-value table,
``power`` runs a simulation study, and ``golf`` reproduces the built-in
golf-earnings case study.

A subcommand's default test suite is parsed like ``--tests``, so
``--tuning-a`` retunes G in it too.

Exit codes are distinct per failure class: 0 success, 2 usage errors
(including option values outside their domain and an invalid study grid),
3 input files that fail to parse and ``--config`` values that the matching
option's parser rejects, 4 domain errors in the data, such as observations
outside the model support, and 1, quietly, an output pipe that the reader
closed early. Every run prints its resolved seed; replaying
with that seed reproduces the output byte for byte.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from random import SystemRandom

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
    ConfigurationError,
    CriticalValueTable,
    UnsupportedPathError,
    _check_alpha,
    bootstrap_pvalue_many,
    null_critical_values,
)
from .statistics import ALL_KINDS, EXP_KINDS, PARETO_KINDS, TestKind, TestTag, _unique_kinds
from .study import (
    GOLF_SCALE,
    StudyConfig,
    Tour,
    golf_dataset,
    render_table,
    run_golf_application,
    run_power_table,
    study_manifest,
)

__all__ = ["main"]

_TOUR_STRIDE = 1 << 40

_TEST_TOKENS = {k.label.lower().replace("exp", "exp-"): k for k in ALL_KINDS}

_SUITES = {"all": ALL_KINDS, "pareto": PARETO_KINDS, "exp": EXP_KINDS}

_FAMILY_TOKENS = {f.value: f for f in Family}
_MIXTURE_TOKENS = {
    "expmix": Contaminant.SHIFTED_EXPONENTIAL,
    "halfnormmix": Contaminant.SHIFTED_HALF_NORMAL,
    "lognormmix": Contaminant.SHIFTED_LOG_NORMAL,
}


class CliParseError(Exception):
    """Input file content that cannot be interpreted as a dataset."""


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    return SystemRandom().randrange(1 << 32)


def _test_token(token) -> str:
    t = str(token).strip().lower()
    if t not in _TEST_TOKENS and t not in _SUITES:
        raise argparse.ArgumentTypeError(
            f"unknown test {token!r}; choose from "
            f"{', '.join(sorted(_TEST_TOKENS))}, pareto, exp, all"
        )
    return t


def _parse_tests(tokens, tuning_a: float):
    kinds = []
    for t in map(_test_token, tokens):
        for kind in _SUITES[t] if t in _SUITES else [_TEST_TOKENS[t]]:
            tuned = kind.tag is TestTag.MELLIN_G and tuning_a != 1.0
            kinds.append(TestKind(TestTag.MELLIN_G, tuning_a) if tuned else kind)
    return _unique_kinds(kinds)


def _tuning_constant(text: str) -> float:
    try:
        return TestKind(TestTag.MELLIN_G, float(text)).tuning_a
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _level(text: str) -> float:
    try:
        return _check_alpha(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_estimators(token: str):
    t = token.strip().lower()
    if t == "both":
        return [EstimatorMethod.MME, EstimatorMethod.MLE]
    try:
        return [EstimatorMethod(t)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown estimator {token!r}; choose mme, mle or both"
        ) from None


def _parse_alternative(token: str):
    name, sep, value = str(token).partition(":")
    name = name.strip().lower()
    if not sep:
        raise argparse.ArgumentTypeError(
            f"alternative {token!r} must look like family:theta, e.g. gamma:1.2"
        )
    try:
        theta = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"alternative {token!r} has a non-numeric parameter"
        ) from None
    try:
        if name in _FAMILY_TOKENS:
            return AlternativeSpec(_FAMILY_TOKENS[name], theta)
        if name in _MIXTURE_TOKENS:
            return MixtureSpec(theta, _MIXTURE_TOKENS[name])
    except DomainError as exc:
        raise argparse.ArgumentTypeError(f"alternative {token!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"unknown family {name!r}; families: {', '.join(sorted(_FAMILY_TOKENS))}; "
        f"mixtures: {', '.join(sorted(_MIXTURE_TOKENS))}"
    )


def read_numeric_file(path) -> np.ndarray:
    """Read one observation per line, or a single-column CSV with a header.

    A non-numeric first line is taken as the header; any other unparseable
    line is an error that names the line number.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip().rstrip(",")
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            if lineno == 1 and "," not in line:
                continue  # single-column CSV header
            raise CliParseError(
                f"{path}, line {lineno}: could not parse {raw.strip()!r} as a number"
            ) from None
    if not values:
        raise CliParseError(f"{path}: no numeric observations found")
    return np.asarray(values, dtype=np.float64)


def _fmt_thousands(x: float) -> str:
    return f"{int(round(x)):,}".replace(",", " ")


# ---------------------------------------------------------------------------
# subcommands


def cmd_test(args) -> int:
    raw = read_numeric_file(args.input)
    if args.scale <= 0:
        raise DomainError(f"scale divisor must be positive, got {args.scale!r}")
    sample = Sample(raw / args.scale)
    results = []
    for i, estimator in enumerate(args.estimator):
        results.extend(
            bootstrap_pvalue_many(
                args.tests, estimator, sample, args.b,
                RandomStream(args.seed, i * _TOUR_STRIDE), (args.alpha,),
            )
        )
    print(f"n = {sample.n}, scale divisor = {args.scale:g}, "
          f"B = {args.b}, alpha = {args.alpha:g}")
    for r in results:
        verdict = "reject" if r.reject_at[args.alpha] else "fail to reject"
        mark = " *" if (r.estimator is EstimatorMethod.MME
                        and r.kind.tag in (TestTag.MP2, TestTag.MELLIN_G)) else ""
        print(f"  {r.kind.label:>6s} / {r.estimator.value}: statistic "
              f"{r.statistic: .6f}, p = {r.p_value:.4f} -> {verdict}{mark}")
    if any(e is EstimatorMethod.MME for e in args.estimator):
        print("  (* recommended combination: MP2 or G with the MME fit)")
    if args.output:
        Path(args.output).write_text(render_table(results, args.format), encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


def cmd_critical_values(args) -> int:
    # each size draws from its own stream, so a repeated one would be simulated
    # again and overwrite the first with other digits
    repeated = next((n for i, n in enumerate(args.n) if n in args.n[:i]), None)
    if repeated is not None:
        raise ValueError(f"--n: size {repeated} is given more than once")
    table = CriticalValueTable(reps=args.reps, seed=args.seed)
    for i, n in enumerate(args.n):
        table.entries.update(null_critical_values(
            args.tests, n, args.alpha, args.reps, RandomStream(args.seed, i * _TOUR_STRIDE)
        ).entries)
    print(f"reps = {args.reps}")
    for (kind, estimator, n, alpha), value in sorted(
        table.entries.items(),
        key=lambda kv: (kv[0][2], kv[0][0].tag.value, kv[0][3]),
    ):
        print(f"  n={n} {kind.label:>6s}/{estimator.value} alpha={alpha:g}: {value:.6f}")
    if args.output:
        table.save(args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_power(args) -> int:
    file_conf = {}
    if args.config:
        try:
            file_conf = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise CliParseError(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliParseError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(file_conf, dict):
            raise CliParseError(f"{args.config}: expected a JSON object of study "
                                f"fields, got {type(file_conf).__name__}")

    def pick(flag_value, key, convert, default=None, one=False):
        """The flag's value, else the file's or ``default`` through the flag's converter.

        None when none of them is set, so that the field keeps its StudyConfig default.
        """
        if flag_value is not None or (key not in file_conf and default is None):
            return flag_value
        value = file_conf.get(key, default)
        tokens = [value] if one or not isinstance(value, list) else value
        try:
            values = [convert(str(t)) for t in tokens]
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise CliParseError(f"{args.config}: {key}: {exc}") from None
        return values[0] if one else values

    # the default suite goes through the parser too, so --tuning-a retunes its G
    tests = args.tests or _parse_tests(pick(None, "tests", _test_token, ["pareto"]),
                                       args.tuning_a)
    file_estimators = pick(None, "estimators", _parse_estimators)  # a list per token
    fields = {
        "sample_sizes": pick(args.n, "sample_sizes", int),
        "alpha": pick(args.alpha, "alpha", _level, one=True),
        "estimators": args.estimator or (file_estimators and sum(file_estimators, [])),
        "alternatives": pick(args.alternatives, "alternatives", _parse_alternative),
        "desk_scale": 1.0 if args.full else pick(args.scale_factor, "desk_scale", float,
                                                 one=True),
    }
    unread = next((key for key in file_conf if key != "tests" and key not in fields), None)
    if unread is not None:
        raise CliParseError(f"{args.config}: {unread}: no such key (see power --help)")
    config = StudyConfig(tests=tuple(tests), master_seed=args.seed,
                         **{k: v for k, v in fields.items() if v is not None})
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    tables = []
    for n in config.sample_sizes:
        table = run_power_table(config, n, jobs=args.jobs)
        tables.append(table)
        print(f"n={n}: {len(table.cells)} cells in {table.wall_clock:.1f}s")
        if out_dir:
            (out_dir / f"power_n{n}.md").write_text(render_table(table, "markdown"))
            (out_dir / f"power_n{n}.csv").write_text(render_table(table, "csv"))
        else:
            print(render_table(table, args.format), end="")
    if out_dir:
        (out_dir / "manifest.json").write_text(
            json.dumps(study_manifest(config, tables), indent=2) + "\n"
        )
        print(f"wrote {out_dir}/power_n*.{{md,csv}} and manifest.json")
    print(f"total wall clock: {sum(t.wall_clock for t in tables):.1f}s")
    return 0


def cmd_golf(args) -> int:
    tours = [Tour.PGA, Tour.LIV] if args.tour == "both" else [Tour(args.tour)]
    for tour_idx, tour in enumerate(tours):
        data = golf_dataset(tour)
        name = tour.value.upper()
        print(f"\n{name} season earnings, {len(data.raw)} players above "
              f"{_fmt_thousands(GOLF_SCALE)}:")
        for lo in range(0, len(data.raw), 7):
            chunk = data.raw[lo : lo + 7]
            print("  " + "  ".join(f"{_fmt_thousands(v):>10s}" for v in chunk))
        print(f"average earnings {_fmt_thousands(data.mean_earnings)} per player")
        results = run_golf_application(
            tour, args.estimator, args.tests, args.b,
            RandomStream(args.seed, tour_idx * _TOUR_STRIDE),
        )
        print(render_table(results, args.format), end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, default_tests, *, fmt=True):
    p.add_argument("--tests", nargs="+", type=_test_token, default=default_tests,
                   metavar="TEST",
                   help="tests to run (ks cv ad za g mp1 mp2 exp-* pareto exp all)")
    p.add_argument("--tuning-a", type=_tuning_constant, default=1.0,
                   help="tuning constant of the G statistic")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; generated and printed when omitted")
    if fmt:
        p.add_argument("--format", choices=("markdown", "csv"), default="markdown",
                       help="table output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretogof",
        description="Goodness-of-fit tests for the Pareto type I distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a dataset file for Pareto-ness")
    p_test.add_argument("input", help="one observation per line, or single-column CSV")
    p_test.add_argument("--estimator", type=_parse_estimators, default=[EstimatorMethod.MME],
                        help="mme (default), mle or both")
    p_test.add_argument("--alpha", type=_level, default=0.05)
    p_test.add_argument("--b", type=int, default=10_000, help="bootstrap replications")
    p_test.add_argument("--scale", type=float, default=1.0,
                        help="divide observations by this before testing")
    p_test.add_argument("--output", default=None, help="also write the report to this file")
    _add_common(p_test, ["pareto"])
    p_test.set_defaults(func=cmd_test)

    p_cv = sub.add_parser("critical-values", help="simulate a critical-value table")
    p_cv.add_argument("--n", type=int, nargs="+", default=[20, 30])
    p_cv.add_argument("--alpha", type=_level, nargs="+", default=[0.01, 0.05, 0.10])
    p_cv.add_argument("--reps", type=int, default=100_000)
    p_cv.add_argument("--output", default=None, help="write the table file here")
    _add_common(p_cv, ["all"], fmt=False)
    p_cv.set_defaults(func=cmd_critical_values)

    p_pow = sub.add_parser("power", help="run a power study")
    p_pow.add_argument("--n", type=int, nargs="+", default=None)
    p_pow.add_argument("--alpha", type=_level, default=None)
    p_pow.add_argument("--estimator", type=_parse_estimators, default=None)
    p_pow.add_argument("--alternatives", nargs="+", type=_parse_alternative, default=None,
                       metavar="FAMILY:THETA",
                       help="e.g. gamma:1.2 tiltedpareto:3 expmix:0.5 (default: full grid)")
    scale = p_pow.add_mutually_exclusive_group()
    scale.add_argument("--scale-factor", type=float, default=None,
                       help="replication desk-scale factor (default 0.1)")
    scale.add_argument("--full", action="store_true",
                       help="publication-scale replication counts (scale factor 1)")
    p_pow.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes that run cells, this one included (default 1)")
    p_pow.add_argument("--config", default=None,
                       help="JSON file with any of the keys tests, alternatives, "
                       "estimators, sample_sizes, alpha and desk_scale; flags override")
    p_pow.add_argument("--output-dir", default=None)
    _add_common(p_pow, None)  # tests from --config, else the pareto suite
    p_pow.set_defaults(func=cmd_power)

    p_golf = sub.add_parser("golf", help="golf-earnings case study on embedded data")
    p_golf.add_argument("--tour", choices=("pga", "liv", "both"), default="both")
    p_golf.add_argument("--estimator", type=_parse_estimators,
                        default=[EstimatorMethod.MME, EstimatorMethod.MLE])
    p_golf.add_argument("--b", type=int, default=10_000)
    _add_common(p_golf, ["pareto"])
    p_golf.set_defaults(func=cmd_golf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tests is not None:  # after parsing, so --tuning-a may follow --tests
        args.tests = _parse_tests(args.tests, args.tuning_a)
    args.seed = _resolve_seed(args.seed)
    try:
        print(f"seed: {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): exit quietly, with
        # stdout on the null device so that the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, UnsupportedPathError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
