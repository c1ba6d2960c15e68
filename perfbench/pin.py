"""Pin reference outputs for the benchmark's checks.

    python3 perfbench/pin.py

Run from the root of a checkout. Each workload runs once per seed in
``SEEDS``, untraced; its normalised outputs must pass the structure check
and are written to ``perfbench/reference/<workload>.json``. The committed references were made
at the commit that introduced the benchmark, so later commits are checked
against the library's original numbers; regenerating them discards that.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK_DIR, child_env, run_once
from workloads import REFERENCE_DIR, WORKLOADS, write_inputs

SEEDS = range(0, 11)


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        pinned = {}
        work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=root / WORK_DIR))
        try:
            for seed in SEEDS:
                data = write_inputs(workload, seed, work)
                run = run_once(workload, seed, root, work, data, env)
                if run.problems:
                    print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                    return 1
                pinned[str(seed)] = run.outputs
                print(f"{name} seed {seed}: {run.wall_s:.2f} s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seeds": pinned}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
