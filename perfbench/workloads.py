"""The benchmark's workloads: command lines, inputs and output checks.

Every input derives from the benchmark seed: the CLI ``--seed`` of each
workload and the n = 1000 data file of ``large_n_test``. Outputs are
normalised (wall-clock figures and temporary paths masked) and then checked
in two ways. Structure is checked on every seed: every expected row is
present, values are finite and in range, p-values lie on the (k+1)/(B+1)
grid. Where the seed has a pinned reference, every number is also compared
with it within the tolerance stated below.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A number matches its reference when |got - ref| <= RTOL * max(|got|, |ref|)
# plus one unit in the last decimal place printed in the reference. That
# admits a reformulated kernel whose values move in the ninth significant
# digit, and rejects any change visible at the printed precision. Integers
# (counts, sample sizes, percentages) must match exactly.
RTOL = 1e-6

PARETO_LABELS = ("KS", "CV", "AD", "ZA", "G", "MP1", "MP2")
EXP_LABELS = ("ExpKS", "ExpCV", "ExpAD", "ExpZA")
ALPHAS = ("0.01", "0.05", "0.1")
ALTERNATIVES = tuple(
    f"{family}({theta})"
    for family, thetas in (
        ("Pareto", "2 5 10"), ("Gamma", "0.8 1 1.2"), ("Weibull", "0.8 1.2 1.5"),
        ("LogNormal", "1 1.5 2.5"), ("HalfNormal", "0.5 1 1.2"), ("LFR", "0.2 0.8 1"),
        ("BetaExp", "0.8 1 1.5"), ("TiltedPareto", "1 2 3"), ("Dhillon", "0.4 0.6 0.8"),
    )
    for theta in thetas.split()
)

CRITICAL_REPS = 50_000
CRITICAL_NS = (20, 30)
POWER_N = 20
POWER_REPS = {"critical": 10_000, "mle": 1_000, "mme": 5_000}  # default desk scale 0.1
POWER_JOBS = 2
LARGE_N = 1000
LARGE_N_SHAPE = 2.5
BOOTSTRAP_B = 150


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # mixed into the seed derivation so workloads draw independent inputs
    rows: int  # simulated sample rows per invocation, from the budgets in its command
    files: tuple  # files the command writes into its output directory


WORKLOADS = {w.name: w for w in (
    Workload("critical_values", 0, CRITICAL_REPS * len(CRITICAL_NS), ()),
    Workload("power_grid", 1,
             POWER_REPS["critical"]
             + len(ALTERNATIVES) * (POWER_REPS["mle"] + 2 * POWER_REPS["mme"]),
             ("power_n20.md", "power_n20.csv", "manifest.json")),
    Workload("large_n_test", 2, 2 * BOOTSTRAP_B, ()),
)}


def cli_seed(seed: int, workload: Workload) -> int:
    """The CLI ``--seed`` of one workload, derived from the benchmark seed."""
    seq = np.random.SeedSequence([seed % 2**64, workload.index])
    return int(seq.generate_state(1)[0])


def write_inputs(workload: Workload, seed: int, work: Path) -> Path | None:
    """Write the workload's input file, if it has one, and return its path."""
    if workload.name != "large_n_test":
        return None
    seq = np.random.SeedSequence([seed % 2**64, workload.index, 1])
    # numpy's pareto() is the Lomax law; adding one gives Pareto type I on x > 1
    x = 1.0 + np.random.default_rng(seq).pareto(LARGE_N_SHAPE, LARGE_N)
    path = work / f"large_n_seed{seed}.txt"
    path.write_text("".join(f"{v:.17g}\n" for v in x))
    return path


def cli_args(workload: Workload, seed: int, data: Path | None, out_dir: Path,
             traced: bool) -> list:
    """Arguments after ``python -m paretogof.cli``.

    The traced run executes power_grid in-process with one job, because the
    layer wrappers do not reach pool workers.
    """
    s = str(cli_seed(seed, workload))
    if workload.name == "critical_values":
        return ["critical-values", "--n", *map(str, CRITICAL_NS),
                "--reps", str(CRITICAL_REPS), "--seed", s]
    if workload.name == "power_grid":
        return ["power", "--n", str(POWER_N), "--estimator", "both",
                "--jobs", "1" if traced else str(POWER_JOBS), "--seed", s,
                "--output-dir", str(out_dir)]
    return ["test", str(data), "--estimator", "both", "--b", str(BOOTSTRAP_B), "--seed", s]


# ---------------------------------------------------------------------------
# normalisation


def collect_outputs(workload: Workload, stdout: str, out_dir: Path):
    """Everything the command printed or wrote, with run-specific parts masked.

    Returns ``(outputs, problems)``: a name -> text mapping and a list of
    files that were expected but missing.
    """
    text = stdout.replace(str(out_dir), "<out>")
    text = re.sub(r"(?m)^(n=\d+: \d+ cells in )\S+s$", r"\1<wall>s", text)
    text = re.sub(r"(?m)^(total wall clock: )\S+s$", r"\1<wall>s", text)
    outputs = {"stdout": text}
    problems = []
    for name in workload.files:
        try:
            body = (out_dir / name).read_text()
        except OSError as exc:
            problems.append(f"{name}: not written ({exc.strerror})")
            continue
        if name == "manifest.json":
            manifest = json.loads(body)
            for table in manifest.get("tables", []):
                table["wall_clock_seconds"] = None
            body = json.dumps(manifest, indent=2) + "\n"
        outputs[name] = body
    return outputs, problems


# ---------------------------------------------------------------------------
# comparison with a pinned reference

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _close(got: str, ref: str) -> bool:
    a, b = float(got), float(ref)
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == ref
    mantissa = ref.lower().split("e")[0]
    unit = 10.0 ** -len(mantissa.split(".")[1]) if "." in mantissa else 0.0
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + unit


def compare_outputs(outputs: dict, reference: dict) -> list:
    """Problems found comparing outputs with a reference, number by number."""
    problems = []
    for name, ref_text in reference.items():
        text = outputs.get(name)
        if text is None:
            problems.append(f"{name}: missing")
            continue
        got, ref = _NUMBER.split(text), _NUMBER.split(ref_text)
        if got[0::2] != ref[0::2]:
            problems.append(f"{name}: text differs from the reference outside its numbers")
            continue
        bad = [(g, r) for g, r in zip(got[1::2], ref[1::2]) if not _close(g, r)]
        if bad:
            problems.append(f"{name}: {len(bad)} numbers outside tolerance, first {bad[0][0]} "
                            f"against reference {bad[0][1]}")
    return problems


def load_reference(workload: Workload, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


# ---------------------------------------------------------------------------
# structure checks, valid for any seed


def check_structure(workload: Workload, seed: int, outputs: dict) -> list:
    check = {"critical_values": _check_critical_values, "power_grid": _check_power_grid,
             "large_n_test": _check_large_n_test}[workload.name]
    lines = outputs["stdout"].splitlines()
    expected_seed = f"seed: {cli_seed(seed, workload)}"
    if not lines or lines[0] != expected_seed:
        return [f"stdout: first line is not {expected_seed!r}"]
    try:
        return check(lines, outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"]


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token}")
    return value


def _check_critical_values(lines, outputs):
    problems = []
    if lines[1] != f"reps = {CRITICAL_REPS}":
        problems.append(f"stdout: second line {lines[1]!r}")
    values = {}
    for line in lines[2:]:
        m = re.fullmatch(r"  n=(\d+) +(\S+)/mle alpha=(\S+): (\S+)", line)
        if not m:
            problems.append(f"stdout: unexpected line {line!r}")
            continue
        values[int(m[1]), m[2], m[3]] = _finite(m[4])
    expected = {(n, label, a) for n in CRITICAL_NS
                for label in PARETO_LABELS + EXP_LABELS for a in ALPHAS}
    if set(values) != expected:
        problems.append(f"stdout: {len(values)} critical values, expected {len(expected)}")
        return problems
    for n in CRITICAL_NS:
        for label in PARETO_LABELS + EXP_LABELS:
            col = [values[n, label, a] for a in ALPHAS]
            if not (col[0] >= col[1] >= col[2] > 0.0):
                problems.append(f"n={n} {label}: critical values {col} not positive "
                                "and non-increasing in alpha")
    return problems


def _check_power_grid(lines, outputs):
    problems = []
    cells = len(ALTERNATIVES) * len(PARETO_LABELS) * 2
    expected_tail = [f"n={POWER_N}: {cells} cells in <wall>s",
                     "wrote <out>/power_n*.{md,csv} and manifest.json",
                     "total wall clock: <wall>s"]
    if lines[1:] != expected_tail:
        problems.append(f"stdout: lines after the seed are {lines[1:]!r}")
    columns = [(label, est) for label in PARETO_LABELS for est in ("mme", "mle")]

    csv_rows = outputs["power_n20.csv"].splitlines()
    head = ["alternative"] + [h for label, est in columns
                              for h in (f"{label} {est}", f"{label} {est} se")]
    if csv_rows[0].split(",") != head:
        problems.append("power_n20.csv: unexpected header")
    powers = {}
    for row in csv_rows[1:]:
        alt, *cols = row.split(",")
        for (label, est), p_tok, se_tok in zip(columns, cols[0::2], cols[1::2]):
            p, se, reps = _finite(p_tok), _finite(se_tok), POWER_REPS[est]
            powers[alt, label, est] = p
            if not 0.0 <= p <= 1.0 or abs(p * reps - round(p * reps)) > 1e-6:
                problems.append(f"power_n20.csv: {alt} {label} {est} power {p_tok} "
                                f"is not a count over {reps}")
            elif abs(se - math.sqrt(p * (1.0 - p) / reps)) > 5.1e-5:
                problems.append(f"power_n20.csv: {alt} {label} {est} se {se_tok} "
                                "disagrees with its power")
    if [r.split(",")[0] for r in csv_rows[1:]] != list(ALTERNATIVES) or \
            len(powers) != cells:
        problems.append("power_n20.csv: rows are not the 27 fixed alternatives")
        return problems

    md_rows = outputs["power_n20.md"].splitlines()
    if md_rows[0] != "| " + " | ".join(
            ["alternative"] + [f"{label} {est.upper()}" for label, est in columns]) + " |":
        problems.append("power_n20.md: unexpected header")
    for alt, row in zip(ALTERNATIVES, md_rows[2:]):
        cols = [c.strip() for c in row.strip("|").split("|")]
        if cols[0] != alt:
            problems.append(f"power_n20.md: row {cols[0]!r} where {alt!r} was expected")
            continue
        for (label, est), pct in zip(columns, cols[1:]):
            if int(pct) != math.floor(powers[alt, label, est] * 100.0 + 0.5):
                problems.append(f"power_n20.md: {alt} {label} {est} shows {pct}% "
                                "against the CSV power")
    if len(md_rows) != 2 + len(ALTERNATIVES):
        problems.append(f"power_n20.md: {len(md_rows)} lines")

    manifest = json.loads(outputs["manifest.json"])
    config, tables = manifest["config"], manifest["tables"]
    expected = {
        "sample_sizes": [POWER_N], "alpha": 0.05, "tests": list(PARETO_LABELS),
        "estimators": ["mme", "mle"], "alternatives": list(ALTERNATIVES),
        "replications": {"critical": POWER_REPS["critical"], "power": POWER_REPS["mle"],
                         "warp_speed": POWER_REPS["mme"]},
        "desk_scale": 0.1, "master_seed": int(lines[0].split()[1]),
    }
    for key, value in expected.items():
        if config.get(key) != value:
            problems.append(f"manifest.json: config.{key} is {config.get(key)!r}")
    if [(t["n"], t["cells"], t["notes"]) for t in tables] != [(POWER_N, cells, [])]:
        problems.append(f"manifest.json: tables {tables!r}")
    return problems


def _check_large_n_test(lines, outputs):
    problems = []
    if lines[1] != f"n = {LARGE_N}, scale divisor = 1, B = {BOOTSTRAP_B}, alpha = 0.05":
        problems.append(f"stdout: second line {lines[1]!r}")
    expected = [(label, est) for est in ("mme", "mle") for label in PARETO_LABELS]
    body = lines[2:2 + len(expected)]
    for (label, est), line in zip(expected, body):
        m = re.fullmatch(r" +(\S+) / (mme|mle): statistic +(\S+), p = (\S+) -> "
                         r"(reject|fail to reject)( \*)?", line)
        if not m or (m[1], m[2]) != (label, est):
            problems.append(f"stdout: {line!r} where {label} / {est} was expected")
            continue
        if _finite(m[3]) < -1e-6:
            problems.append(f"{label} / {est}: negative statistic {m[3]}")
        p = _finite(m[4])
        k = round(p * (BOOTSTRAP_B + 1) - 1)
        grid = (k + 1) / (BOOTSTRAP_B + 1)
        if not 0 <= k <= BOOTSTRAP_B or abs(p - grid) > 5.1e-5:
            problems.append(f"{label} / {est}: p = {m[4]} is off the (k+1)/(B+1) grid")
        elif (m[5] == "reject") != (grid <= 0.05):
            problems.append(f"{label} / {est}: verdict {m[5]!r} disagrees with p = {m[4]}")
        if bool(m[6]) != (est == "mme" and label in ("G", "MP2")):
            problems.append(f"{label} / {est}: recommendation mark misplaced")
    if len(body) != len(expected) or lines[2 + len(expected):] != [
            "  (* recommended combination: MP2 or G with the MME fit)"]:
        problems.append(f"stdout: {len(lines)} lines, expected {3 + len(expected)}")
    return problems
