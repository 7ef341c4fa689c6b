"""One phase of one workload, in a fresh process; prints one JSON line.

Phases:

* ``setup``  — import the package, make the first round of inputs, prepare
  the workload, and report how long that took.
* ``timed``  — the same set-up, then whole rounds of operations until
  ``--seconds`` have passed; reports the end-to-end metrics.
* ``traced`` — a fixed number of round pairs, in which each shape runs
  once untraced and then once traced, and one round under the stdlib
  profiler (to count ``Fraction`` constructions); reports the per-layer
  metrics and writes the spans to ``--spans``.  A fixed amount of work
  makes the counts repeat.  The tracing overhead compares the scaled times
  of the traced operations with those of the untraced ones next to them;
  the probe's own time is taken out of the spans.

Every output is checked against the oracle as it arrives, outside the
timed and profiled span, and then dropped, so memory does not grow with
the number of operations a run completes.

Run by ``run.py``; nothing here is meant to be invoked by hand.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# Round pairs of a traced run; each takes some 5-15 s untraced.
TRACED_ROUNDS = {"certify": 2, "crosscheck": 2, "relations": 2}
# The reference kernel's typical time on the host the README figures come
# from; a time metric reads as seconds at that machine speed.
REFERENCE_S = 0.00125
PROBE_INTERVAL_S = 0.05
# An operation is scaled by the median of the samples taken during it and
# of this many before it, so a short one is not scaled by a single sample.
SAMPLES_BEFORE = 4


def reference() -> dict:
    """A fixed stdlib kernel with the workloads' mix: small Fractions in dicts."""
    acc: dict = {}
    for i in range(1, 300):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 5 + 1, i % 3 + 1)
    return acc


def _reference_s() -> float:
    """Time ``reference()`` with the collector off.

    A collection started by the kernel's allocations could scan the whole
    heap of the package, so a change that grows that heap would slow the
    kernel and hide part of its own cost.  The program pays for its own
    collections after the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        reference()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times ``reference()`` every 50 ms from SIGALRM while operations run.

    The host's speed drifts by up to 20 % within seconds, because other
    tenants share its cores.  An operation's time is scaled by
    REFERENCE_S over the median kernel time sampled during it and just
    before it, and the time spent in the handler is taken out.
    """

    def __init__(self, on_sample=None):
        self.samples = [_reference_s()]
        self.spent = 0.0
        self.on_sample = on_sample

    def _sample(self, signum, frame) -> None:
        d = _reference_s()
        self.samples.append(d)
        self.spent += d
        if self.on_sample is not None:
            self.on_sample(d)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _setup(workload: str, seed: int):
    """Set up; return (raw s, scaled s, inputs, first round, runner).

    The speed comes from five kernel timings just before and five just after.
    """
    kernel = [_reference_s() for _ in range(5)]
    t0 = perf_counter()
    inputs = workloads.Inputs(workload, seed)
    first = inputs.next_round()
    runner = workloads.Runner(workload)  # imports wakimoto
    raw = perf_counter() - t0
    kernel += [_reference_s() for _ in range(5)]
    return raw, raw * REFERENCE_S / statistics.median(kernel), inputs, first, runner


class Record(NamedTuple):
    """What is kept of one operation once its output has been checked."""

    item: tuple
    failed: bool
    problems: list
    raw_s: float
    scaled_s: float


def _run_op(workload: str, runner, item, probe: SpeedProbe | None = None,
            profile: cProfile.Profile | None = None) -> Record:
    """One operation, timed (and profiled) and then checked; unscaled without a probe."""
    n0, spent0 = (len(probe.samples), probe.spent) if probe else (0, 0.0)
    if profile is not None:
        profile.enable()
    t = perf_counter()
    try:
        result = runner.run(item)
    except Exception:  # a fault in the program: count the operation as failed
        result = {"failed": True, "error": traceback.format_exc()}
    raw = perf_counter() - t
    if profile is not None:
        profile.disable()
    scaled = raw
    if probe is not None:
        raw -= probe.spent - spent0
        window = probe.samples[max(0, n0 - SAMPLES_BEFORE):]
        scaled = raw * REFERENCE_S / statistics.median(window)
    if "error" in result:
        problems = [f"{item[0].name}: raised\n{result['error']}"]
    else:
        # also flags any failure other than the known one
        problems = workloads.check(workload, item, result)
    return Record(item, result["failed"], problems, raw, scaled)


def _outcome(records: list[Record]) -> dict:
    """Attempted and failed counts, and whether every output checked out."""
    problems = [p for r in records for p in r.problems]
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "problems": problems[:5],
    }


def _medians(records: list[Record], by, field: str) -> dict:
    """Median time (``raw_s`` or ``scaled_s``) of completed operations per group."""
    groups: dict = {}
    for r in records:
        if not r.failed:
            groups.setdefault(by(r.item), []).append(getattr(r, field))
    return {key: statistics.median(times) for key, times in groups.items()}


def timed(workload: str, seed: int, seconds: float) -> dict:
    setup_raw, setup_s, inputs, items, runner = _setup(workload, seed)
    records = []
    with SpeedProbe() as probe:
        start = perf_counter()
        while True:
            for item in items:
                records.append(_run_op(workload, runner, item, probe))
            if perf_counter() - start >= seconds:
                break
            items = inputs.next_round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = _outcome(records)
    completed = outcome["attempted"] - outcome["failed"]

    def status(item):
        return oracle.expected_verdict(item[1])[0]

    def shape(item):
        return item[0].name

    scaled = _medians(records, status, "scaled_s")
    return {
        **outcome,
        "rounds": inputs.rounds,
        "setup_s": setup_s,
        "ops_per_s": completed / sum(r.scaled_s for r in records),
        "irreducible_p50_s": scaled["irreducible"],
        "reducible_p50_s": scaled["reducible"],
        "peak_rss_mb": peak_rss_mb,
        "raw": {
            "setup_s": setup_raw,
            "ops_per_s": completed / sum(r.raw_s for r in records),
            "p50_s": _medians(records, status, "raw_s"),
            "p50_s_by_shape": _medians(records, shape, "raw_s"),
        },
        "scaled_p50_s_by_shape": _medians(records, shape, "scaled_s"),
        "reference_s": {
            "samples": len(probe.samples),
            "median": statistics.median(probe.samples),
            "quartiles": statistics.quantiles(probe.samples, n=4),
        },
    }


def _fraction_new_calls(profile: cProfile.Profile) -> int:
    stats = pstats.Stats(profile).stats
    return sum(
        calls
        for (filename, _, func), (_, calls, _, _, _) in stats.items()
        if func == "__new__" and filename.endswith("fractions.py")
    )


def traced(workload: str, seed: int, spans_path: str) -> dict:
    from tracer import Tracer

    *_, inputs, first, runner = _setup(workload, seed)
    trace = Tracer()
    records = []
    untraced_s = traced_s = 0.0
    # Each shape runs untraced and then traced, on twists of two rounds, so
    # that both sides of the overhead see the same mix at the same moment.
    with SpeedProbe(on_sample=trace.exclude) as probe:
        for k in range(TRACED_ROUNDS[workload]):
            plain = first if k == 0 else inputs.next_round()
            for a, b in zip(plain, inputs.next_round()):
                records.append(_run_op(workload, runner, a, probe))
                untraced_s += records[-1].scaled_s
                trace.op += 1
                trace.install()
                records.append(_run_op(workload, runner, b, probe))
                trace.remove()
                traced_s += records[-1].scaled_s
    profile = cProfile.Profile()
    records.extend(_run_op(workload, runner, item, profile=profile) for item in inputs.next_round())
    trace.write_spans(spans_path)

    metrics = trace.metrics()
    metrics["arith.fraction_new_calls"] = _fraction_new_calls(profile)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return {**_outcome(records), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True, choices=["setup", "timed", "traced"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.phase == "setup":
        raw, setup_s, *_ = _setup(args.workload, args.seed)
        doc = {"setup_s": setup_s, "setup_raw_s": raw}
    elif args.phase == "timed":
        oracle.self_test()
        doc = timed(args.workload, args.seed, args.seconds)
    else:
        oracle.self_test()
        doc = traced(args.workload, args.seed, args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
