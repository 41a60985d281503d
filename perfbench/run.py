"""Repository benchmark: fleet simulation, measure->model loop, wire serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload storm_fleet --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads: ``storm_fleet``, ``calibration_pipeline``, ``placement_wire``
(see ``perfbench/README.md``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the same work untraced and
then traced, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Iterations every run makes at least, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

END_TO_END = (("setup_s", "s"), ("rate_per_s", "1/s"), ("latency_ms", "ms"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("sweeps.overhead_s", "s"), ("fleet.self_s", "s"),
    ("engine.events", "count"), ("engine.schedule_calls", "count"),
    ("engine.self_s", "s"),
    ("session.replay_calls", "count"), ("session.span_chunks_mean", "chunks"),
    ("session.self_s", "s"),
    ("trace.rows", "count"), ("trace.self_s", "s"),
    ("pool.ops", "count"), ("pool.replacement_requests", "count"),
    ("pool.denial_ratio", "ratio"), ("pool.self_s", "s"),
    ("controller.replacement_requests", "count"), ("controller.self_s", "s"),
    ("revocation.draws", "count"), ("revocation.self_s", "s"),
    ("shard.draw_requests", "count"), ("shard.parent_wait_s", "s"),
    ("shard.parent_self_s", "s"), ("shard.restarts", "count"),
    ("telemetry.sink_self_s", "s"), ("telemetry.write_npz_s", "s"),
    ("telemetry.npz_bytes", "bytes"),
    ("reader.chunks", "count"), ("reader.self_s", "s"),
    ("report.self_s", "s"),
    ("streaming.values", "count"), ("streaming.self_s", "s"),
    ("recalibrate.self_s", "s"),
    ("transport.requests", "count"), ("transport.overhead_us", "us"),
    ("service.queries", "count"), ("service.cache_hit_ratio", "ratio"),
    ("service.self_s", "s"), ("service.recalibrate_s", "s"),
    ("advisor.answer_calls", "count"), ("advisor.self_s", "s"),
    ("scoretable.options_built", "count"), ("scoretable.build_s", "s"),
    ("codec.self_s", "s"),
    ("tracing.overhead_ratio", "ratio"), ("traced.wall_s", "s"),
    ("traced.self_share", "ratio"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> None:
    """Refuse to run off the default paths or outside a source checkout."""
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        fail(f"refusing to run with {', '.join(knobs)} set: the benchmark "
             f"measures the default paths only")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no repro sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def host_block() -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Set-up time.
# ---------------------------------------------------------------------------
def setup_probe(name: str, seed: int, size: str) -> None:
    """Child-interpreter body of one ``setup_s`` sample."""
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        WORKLOADS[name](seed, size, workdir).setup()


def measure_setup(workload, args) -> List[float]:
    """Host-normalized ``setup_s`` samples: imports and input build in
    fresh interpreters; for the wire workload, server start-to-ready plus
    the calibration document, with the last server kept for the run."""
    from hostclock import timed

    samples = []
    for index in range(SETUP_SAMPLES):
        if workload.name == "placement_wire":
            _, wall = timed(workload.start)
            if index + 1 < SETUP_SAMPLES:
                workload.server.stop()
                workload.server = None
        else:
            _, wall = timed(lambda: subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 workload.name, "--seed", str(args.seed), "--size",
                 args.size], check=True, cwd=ROOT))
        samples.append(wall)
    return samples


# ---------------------------------------------------------------------------
# Timed loop.
# ---------------------------------------------------------------------------
def measure(workload, seconds: float, minimum: int = MIN_ITERATIONS
            ) -> List[float]:
    """Repeat ``iterate()`` for about ``seconds``; returns the walls."""
    walls: List[float] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        walls.append(workload.iterate())
        elapsed = time.perf_counter() - started
        if (len(walls) >= minimum
                and elapsed + statistics.median(walls) > seconds):
            return walls


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run.
# ---------------------------------------------------------------------------
def layer_metrics(summary: Dict[str, Any], iterations: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    self_s, calls, counters = (summary["self_s"], summary["calls"],
                               summary["counters"])

    def layer(prefix: str) -> float:
        return sum(value for key, value in self_s.items()
                   if key.startswith(prefix + "."))

    def per(value: float) -> float:
        return value / iterations

    replay = calls.get("session.TrainingSession._fast_forward", 0)
    requests = counters.get("pool.replacement_requests", 0)
    wait = self_s.get("shard.wait", 0.0)
    npz = self_s.get("telemetry.write_npz", 0.0)
    export = self_s.get("telemetry.export_fleet_telemetry", 0.0)
    recal = self_s.get("service.PlacementService.recalibrate", 0.0)
    metrics = {
        "sweeps.overhead_s": per(layer("sweeps")),
        "fleet.self_s": per(layer("fleet")),
        "engine.events": per(counters.get("engine.events", 0)),
        "engine.schedule_calls": per(counters.get("engine.schedule_calls", 0)),
        "engine.self_s": per(layer("engine")),
        "session.replay_calls": per(replay),
        "session.span_chunks_mean": (counters.get("session.chunks", 0) / replay
                                     if replay else 0.0),
        "session.self_s": per(layer("session")),
        "trace.rows": per(counters.get("trace.rows", 0)),
        "trace.self_s": per(layer("trace")),
        "pool.ops": per(sum(value for key, value in calls.items()
                            if key.startswith("pool."))),
        "pool.replacement_requests": per(requests),
        "pool.denial_ratio": (counters.get("pool.denials", 0) / requests
                              if requests else 0.0),
        "pool.self_s": per(layer("pool")),
        "controller.replacement_requests": per(
            counters.get("controller.replacement_requests", 0)),
        "controller.self_s": per(layer("controller")),
        "revocation.draws": per(counters.get("revocation.draws", 0)),
        "revocation.self_s": per(layer("revocation")),
        "shard.draw_requests": per(counters.get("shard.draw_requests", 0)),
        "shard.parent_wait_s": per(wait),
        "shard.parent_self_s": per(layer("shard") - wait),
        "shard.restarts": per(counters.get("shard.restarts", 0)),
        "telemetry.sink_self_s": per(layer("telemetry") - npz - export),
        "telemetry.write_npz_s": per(npz),
        "telemetry.npz_bytes": per(counters.get("telemetry.npz_bytes", 0)),
        "reader.chunks": per(counters.get("reader.chunks", 0)),
        "reader.self_s": per(layer("reader")),
        "report.self_s": per(layer("report")),
        "streaming.values": per(counters.get("streaming.values", 0)),
        "streaming.self_s": per(layer("streaming")),
        "recalibrate.self_s": per(layer("recalibrate")),
        "transport.requests": per(calls.get("transport.handle_request", 0)),
        "service.self_s": per(layer("service") - recal),
        "service.recalibrate_s": per(recal),
        "advisor.answer_calls": per(counters.get("advisor.answer_calls", 0)),
        "advisor.self_s": per(layer("advisor")),
        "scoretable.options_built": per(
            counters.get("scoretable.options_built", 0)),
        "codec.self_s": per(layer("codec")),
        "transport.overhead_us": 0.0, "service.queries": 0.0,
        "service.cache_hit_ratio": 0.0, "scoretable.build_s": 0.0,
    }
    metrics.update(extra)
    return metrics


def traced_fleet(workload, args, trace_path: str, workdir: str
                 ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Untraced iterations, then one traced iteration of the same work."""
    from tracing import Tracer, install_fleet, load_summary, merge_summaries

    untraced = measure(workload, args.seconds / 2.0, minimum=1)
    child_dir = os.path.join(workdir, "children")
    os.makedirs(child_dir)
    tracer = Tracer()
    install_fleet(tracer, child_dir)
    gc.collect()
    started = time.perf_counter()
    traced_wall = workload.iterate()
    raw_wall = time.perf_counter() - started
    children = [load_summary(os.path.join(child_dir, name))
                for name in sorted(os.listdir(child_dir))]
    summary = merge_summaries([tracer.summary()] + children)
    process_wall = raw_wall + sum(child["process_wall_s"]
                                  for child in children)
    tracer.dump(trace_path, {"children": children,
                             "process_wall_s": raw_wall})
    self_total = sum(summary["self_s"].values())
    extra = {"tracing.overhead_ratio": traced_wall / statistics.median(untraced),
             "traced.wall_s": raw_wall,
             "traced.self_share": self_total / process_wall}
    return layer_metrics(summary, 1, extra), summary


def traced_wire(workload_cls, args, trace_path: str, workdir: str
                ) -> Tuple[Dict[str, float], Dict[str, Any], List[Any]]:
    """An untraced server session, then a traced one (serve launcher)."""
    import numpy as np
    from tracing import load_spans, load_summary

    sessions = []
    for traced in (False, True):
        workload = workload_cls(args.seed, args.size, workdir)
        try:
            workload.start(trace_path if traced else None)
            workload.setup()
            walls = measure(workload, args.seconds / 2.0, minimum=2)
        finally:
            workload.close()
        workload.check()
        sessions.append((workload, walls))
    (_, untraced), (workload, traced) = sessions

    summary = load_summary(trace_path)
    spans = load_spans(trace_path)
    handle = summary["names"].index("transport.handle_request")
    build = summary["names"].index("scoretable.ScoreTable.probabilities")
    durations = spans["end"] - spans["start"]
    by_connection: Dict[int, List[float]] = {}
    build_s = 0.0
    for index in np.flatnonzero(spans["name"] == handle):
        by_connection.setdefault(summary["tags"][str(index)], []).append(
            float(durations[index]))
    for index in np.flatnonzero(spans["name"] == build):
        if summary["tags"].get(str(index)) == "build":
            build_s += float(durations[index])
    overheads = []
    for number, connection in enumerate(workload.connections):
        server = by_connection.get(number, [])
        for (kind, rtt), handled in zip(connection.log, server):
            if kind == "answer":
                overheads.append(rtt - handled)
    rounds = len(workload.rounds)
    last = workload.rounds[-1]
    self_total = sum(summary["self_s"].values())
    extra = {
        "transport.overhead_us": (statistics.median(overheads) * 1e6
                                  if overheads else 0.0),
        "service.queries": last["queries_answered"] / rounds,
        "service.cache_hit_ratio": (last["cache_hits"]
                                    / last["queries_answered"]),
        "scoretable.build_s": build_s / rounds,
        "tracing.overhead_ratio": (statistics.median(traced)
                                   / statistics.median(untraced)),
        "traced.wall_s": statistics.median(traced),
        "traced.self_share": self_total / summary["process_wall_s"],
    }
    checks = sessions[0][0].checks.failures + workload.checks.failures
    attempted = sessions[0][0].attempted + workload.attempted
    metrics = layer_metrics(summary, rounds, extra)
    summary["attempted"] = attempted
    return metrics, summary, checks


# ---------------------------------------------------------------------------
# One workload, in this process.
# ---------------------------------------------------------------------------
def run_workload(args) -> int:
    from workloads import WORKLOADS

    print("host " + json.dumps(host_block(), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.size, workdir)
    failures: List[str] = []
    attempted = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    try:
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}.npz")
            if cls.name == "placement_wire":
                values, summary, failures = traced_wire(cls, args, trace_path,
                                                        workdir)
                attempted = summary["attempted"]
            else:
                workload.setup()
                values, summary = traced_fleet(workload, args, trace_path,
                                               workdir)
                workload.check()
                failures = workload.checks.failures
                attempted = workload.attempted
            units = dict(PER_LAYER)
            metrics = {name: (values[name], units[name])
                       for name, _ in PER_LAYER}
            print(f"spans: {summary['spans']} written to {trace_path}")
        else:
            try:
                setup = measure_setup(workload, args)
                workload.setup()
                measure(workload, args.seconds)
            finally:
                if hasattr(workload, "close"):
                    workload.close()
            workload.check()
            failures = workload.checks.failures
            attempted = workload.attempted
            values, named = workload.summarize()
            values.update(setup_s=statistics.median(setup),
                          peak_rss_mb=peak_rss_mb())
            units = dict(END_TO_END)
            metrics = {name: (values[name], units[name])
                       for name, _ in END_TO_END}
            named["setup_s"] = (values["setup_s"], "s")
            named["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
            named["error_rate"] = (len(failures) / attempted, "failed/attempted")
            for name, (value, unit) in named.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
            if cls.name == "placement_wire":
                print("options_built after each recalibrate: "
                      + str([r["options_built"] for r in workload.rounds]))
    except Exception:
        traceback.print_exc()
        failures.append("exception")
        attempted += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not failures
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct and metrics else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        process = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        lines = process.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or process.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "storm_fleet", "calibration_pipeline",
                                 "placement_wire"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny is for the smoke test)")
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    preflight()
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed, args.size)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
