"""Benchmark of the wakimoto package: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is byte-compiled first, so
set-up time does not include compilation.  Every phase runs in a fresh
single-threaded Python process:

* ``--trace 0``: twenty set-up-only processes, then one timed process
  that sets up, runs whole rounds of operations for ``--seconds`` and
  checks every output against ``oracle.py``.  Prints the end-to-end
  metrics; ``setup_s`` is the median of the 21 set-up times.
* ``--trace 1``: one process that runs a fixed number of round pairs,
  each shape untraced and then traced, and one round under the profiler.
  Prints the per-layer metrics and writes the spans next to the result.

The metric names and units come from ``BENCHMARK.json`` at the root.  The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
a copy with more detail goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "wakimoto"
OUT = HERE / "out"
WORKLOADS = ("certify", "crosscheck", "relations")
SETUP_SAMPLES = 20
DEADLINE_S = 170  # every process started here ends within this


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=max(1.0, deadline - monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not (PACKAGE / "__init__.py").is_file():
        return _fail(f"no package at {PACKAGE.relative_to(ROOT)}; run from a checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        return _fail("the package does not compile", 2)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        if args.trace:
            spans = OUT / f"{stem}-spans.jsonl"
            doc = _child([*common, "--phase", "traced", "--spans", str(spans)], deadline)
            values = doc["metrics"]
            listed = spec["per_layer"]
        else:
            setups = [_child([*common, "--phase", "setup"], deadline) for _ in range(SETUP_SAMPLES)]
            doc = _child(
                [*common, "--phase", "timed", "--seconds", str(args.seconds)], deadline
            )
            doc["setup_samples_s"] = [s["setup_s"] for s in setups] + [doc["setup_s"]]
            doc["raw"]["setup_samples_s"] = [s["setup_raw_s"] for s in setups] + [
                doc["raw"]["setup_s"]
            ]
            values = dict(doc, setup_s=statistics.median(doc["setup_samples_s"]))
            listed = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(str(exc), 1)

    for problem in doc["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "detail": doc}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
