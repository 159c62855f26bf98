"""mmaprobe benchmark: one workload, one seed, every metric with its unit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-sample --seed 1 --seconds 20 \
        --trace 0

Workloads: ``grid-sample`` (in-process reports), ``wire-sessions``
(reports over a fresh ``mmaprobe serve`` child each) and ``random-mma``
(seeded random MMA batches through ``SimBackend.run_vector``).  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
a traced run.  Every session's output is checked; ``attempted`` and
``failed`` count sessions.  The program is imported from ``src/`` of the
checkout and never modified.  Result, trace and config files go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CFG_DIR = OUT / f"cfg-{os.getpid()}"

WORKLOADS = ("grid-sample", "wire-sessions", "random-mma")
SETUP_RUNS = 7        # fresh processes per run for setup_s
TRACE_EVERY = 16      # a traced run traces one session in sixteen
KNOWN_FAULT_KINDS = ("sound",)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sessions_per_s": "sessions/s",
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "requests_per_session": "requests",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Median set-up time over ``SETUP_RUNS`` fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py")],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Tally:
    """Durations, request counts and check outcomes of a run's sessions."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.untraced_by_label: dict[str, list[float]] = defaultdict(list)
        self.traced: list[tuple[str, float]] = []

    def add(self, s, seconds: float, requests: int, problems: list[str],
            traced: bool) -> None:
        self.attempted += 1
        self.requests += requests
        self.durations.append(seconds)
        if traced:
            self.traced.append((s.label, seconds))
        else:
            self.untraced_by_label[s.label].append(seconds)
        if problems:
            self.failed += 1
            if s.kind not in KNOWN_FAULT_KINDS or problems[0].startswith(
                    "exception"):
                self.unexpected.append(f"{s.label}: {'; '.join(problems)}")

    def overhead_pct(self) -> float:
        """Traced sessions against untraced runs of the same sessions."""
        traced = untraced = 0.0
        for label, seconds in self.traced:
            base = self.untraced_by_label.get(label)
            if base:
                traced += seconds
                untraced += statistics.mean(base)
        return (traced / untraced - 1.0) * 100.0 if untraced else 0.0


def run_session(workload, s, tally: Tally, tracer=None,
                base: str = "timed") -> None:
    """Time one session, then check its output outside the timed part."""
    if tracer is not None:
        tracer.begin(s.label, base)
    t0 = time.perf_counter()
    try:
        result = workload.run(s)
        error = None
    except Exception:  # a failing session is counted, the run goes on
        result, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
        if s.command and result is not None:
            tracer.record_wire(result.log)
    problems = (["exception: " + error] if error
                else workload.check(s, result))
    tally.add(s, seconds, result.requests if result else 0, problems,
              tracer is not None)


def measure(workload, seconds: float, tracer=None) -> Tally:
    """Whole rounds until ``seconds`` have passed (two at least if traced)."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while True:
        for i, s in enumerate(workload.sessions(r)):
            traced = tracer is not None and (i + r) % TRACE_EVERY == 0
            run_session(workload, s, tally, tracer if traced else None)
        r += 1
        if time.perf_counter() - start >= seconds and (
                tracer is None or r >= 2):
            return tally


def make_workload(name: str, seed: int):
    # The benchmark's modules import mmaprobe, so they load only after
    # main() has put src/ on the path.
    import workloads
    if name == "grid-sample":
        return workloads.GridSample(seed)
    if name == "wire-sessions":
        return workloads.WireSessions(seed, sys.executable, CFG_DIR)
    return workloads.RandomMma(seed)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    from spans import tail
    d = tally.durations
    values = {
        "setup_s": setup_s,
        "sessions_per_s": len(d) / sum(d),
        "session_ms_p50": statistics.median(d) * 1e3,
        "session_ms_tail": tail(d) * 1e3,
        "requests_per_session": tally.requests / len(d),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def traced_run(workload, seconds: float, stem: str) -> tuple[Tally, dict]:
    """Interleaved traced run, calibration pass, per-layer metrics."""
    import spans
    import workloads
    tracer = spans.Tracer()
    tally = measure(workload, seconds, tracer)
    calibration = workloads.Calibration(sys.executable)
    cal_tally = Tally()
    for s in calibration.sessions(0):
        run_session(calibration, s, cal_tally, tracer, base="calibration")
    tally.unexpected += cal_tally.unexpected
    layers = spans.layer_metrics(tracer)
    layers["backend.child_peak_rss_mb"] = {
        "value": tracer.child_peak_kb / 1024.0, "unit": "MB",
        "base": "timed" if isinstance(workload, workloads.WireSessions)
        else "calibration", "samples": 1}
    layers["trace.overhead_pct"] = {
        "value": tally.overhead_pct(), "unit": "%", "base": "timed",
        "samples": len(tally.traced)}
    tracer.write(OUT / f"trace-{stem}.jsonl.gz")
    (OUT / f"layers-{stem}.json").write_text(
        json.dumps(layers, indent=2, sort_keys=True) + "\n")
    for name, m in layers.items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']:6s} "
              f"base={m['base']} n={m['samples']}", file=sys.stderr)
    metrics = {name: {"value": layers[name]["value"],
                      "unit": layers[name]["unit"]}
               for name in spans.LAYER_UNITS}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmaprobe" / "__init__.py").is_file():
        print(f"error: no mmaprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and every child it starts: the parent and
    # a serve child hand each request over on that CPU instead of waking
    # each other across CPUs, and nothing migrates between CPUs mid-run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # serve children and set-up probes import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"

    try:
        workload = make_workload(args.workload, args.seed)
        if args.trace:
            tally, metrics = traced_run(workload, args.seconds, stem)
        else:
            setup_s = measure_setup()
            tally = measure(workload, args.seconds)
            metrics = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(CFG_DIR, ignore_errors=True)
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:24s} {m['value']:14.4f} {m['unit']}",
                  file=sys.stderr)
    for line in tally.unexpected[:20]:
        print(f"UNEXPECTED FAILURE {line}", file=sys.stderr)
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
