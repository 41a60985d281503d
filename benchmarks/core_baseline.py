"""Record the simulation-core performance baseline (``BENCH_core.json``).

Runs a reference training session — ResNet-32 on 8 K80 workers, 100k
steps, checkpoints every 4k steps — through the discrete-event core twice:
once on the chunked event-by-event path and once on the vectorized
fast-forward path, verifies the two traces are bit-identical, and records
steps/second, chunk events/second, wall time and peak traced memory for
each.  A smaller 20k-step *quick* configuration is measured too; CI replays
it as a throughput regression gate.  The quick chunked-path steps/second
(:func:`chunked_steps_per_sec`) is also the host-speed denominator the
fleet and serve baselines normalize their throughput by.

Run with::

    python benchmarks/core_baseline.py              # full baseline, writes JSON
    python benchmarks/core_baseline.py --quick      # quick config only, no write
    python benchmarks/core_baseline.py --quick --check
        # measure the quick config and fail (exit 1) if fast-path steps/sec
        # regressed more than 30% against the committed BENCH_core.json
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

from _common import environment_block, make_parser, ratio_gate, write_json
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.training.cluster import ClusterSpec
from repro.training.job import TrainingJob
from repro.training.session import TrainingSession
from repro.workloads.catalog import default_catalog

#: The reference session of the baseline (and of the ISSUE-2 acceptance
#: criterion): 100k steps across 8 homogeneous workers.
REFERENCE = {"model": "resnet_32", "workers": 8, "gpu": "k80",
             "total_steps": 100_000, "checkpoint_interval_steps": 4_000,
             "steps_per_event": 10, "seed": 0}

#: Quick variant used by the CI smoke gate.
QUICK_STEPS = 20_000

#: Allowed fractional steps/sec regression before ``--check`` fails.
REGRESSION_TOLERANCE = 0.30

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "BENCH_core.json")


def _run_once(total_steps: int, fast_forward: bool, trace_memory: bool = False):
    catalog = default_catalog()
    profile = catalog.profile(REFERENCE["model"])
    job = TrainingJob(profile=profile, total_steps=total_steps,
                      checkpoint_interval_steps=REFERENCE["checkpoint_interval_steps"])
    cluster = ClusterSpec.from_counts(**{REFERENCE["gpu"]: REFERENCE["workers"]})
    session = TrainingSession(
        Simulator(), cluster, job, streams=RandomStreams(REFERENCE["seed"]),
        steps_per_event=REFERENCE["steps_per_event"], fast_forward=fast_forward)
    peak_bytes = 0
    if trace_memory:
        tracemalloc.start()
    started = time.perf_counter()
    trace = session.run_to_completion()
    wall = time.perf_counter() - started
    if trace_memory:
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return session, trace, wall, peak_bytes


def chunked_steps_per_sec() -> float:
    """Best-of-five chunked-path steps/sec of the quick reference session:
    a pure-Python event-loop rate that tracks the host's speed."""
    rates = []
    for _ in range(5):
        _, trace, wall, _ = _run_once(QUICK_STEPS, fast_forward=False)
        rates.append(trace.total_steps / wall)
    return max(rates)


def _measure(total_steps: int, fast_forward: bool) -> dict:
    # Timing and memory are measured on separate runs: tracemalloc hooks
    # every allocation and would slow both paths (unevenly) by several x.
    session, trace, wall, _ = _run_once(total_steps, fast_forward)
    _, _, _, peak_bytes = _run_once(total_steps, fast_forward, trace_memory=True)
    return {
        "wall_seconds": round(wall, 4),
        "steps_per_sec": round(trace.total_steps / wall, 1),
        "chunk_events_per_sec": round(len(trace.step_records) / wall, 1),
        "fast_forwarded_chunks": session.fast_forward_chunks,
        "peak_traced_mb": round(peak_bytes / (1024.0 * 1024.0), 3),
        "trace_step_columns_kb": round(trace.step_records.nbytes / 1024.0, 1),
    }, trace


def _bit_identical(a, b) -> bool:
    return (a.step_records == b.step_records
            and a.checkpoint_records == b.checkpoint_records
            and a.end_time == b.end_time)


def _measure_pair(total_steps: int) -> dict:
    chunked, chunked_trace = _measure(total_steps, fast_forward=False)
    fast, fast_trace = _measure(total_steps, fast_forward=True)
    identical = _bit_identical(chunked_trace, fast_trace)
    assert identical, "fast-forward trace diverged from the chunked trace"
    return {
        "total_steps": total_steps,
        "chunked": chunked,
        "fast_forward": fast,
        "speedup_steps_per_sec": round(
            fast["steps_per_sec"] / chunked["steps_per_sec"], 2),
        "bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, output=OUTPUT,
        check_help="compare the quick fast-vs-chunked speedup ratio "
                   "against a committed baseline (default benchmarks/"
                   "BENCH_core.json) and exit non-zero on a >30%% "
                   "regression; the ratio is measured on one host in "
                   "one process, so the check is host-independent")
    args = parser.parse_args(argv)

    quick = _measure_pair(QUICK_STEPS)
    print(json.dumps({"quick": quick}, indent=2))
    if args.json_out:
        write_json(args.json_out, {"quick": quick})
    if args.check is not None:
        return ratio_gate(
            args.check, quick,
            ratio_path=("speedup_steps_per_sec",),
            label="fast-path speedup over chunked",
            tolerance=REGRESSION_TOLERANCE, precision=1,
            informative_path=("fast_forward", "steps_per_sec"),
            informative_label="fast-path steps/sec")
    if args.quick:
        return 0

    full = _measure_pair(REFERENCE["total_steps"])
    baseline = {
        "reference_session": REFERENCE,
        "full": full,
        "quick": quick,
        "environment": environment_block(),
        "note": ("steps_per_sec is simulated training steps per wall-clock "
                 "second for one session (single process).  The tracked "
                 "contracts: the fast-forward path stays bit-identical to "
                 "the chunked path, and its steps/sec stays >= 10x the "
                 "chunked loop on the 100k-step reference session.  "
                 "Regenerate with `python benchmarks/core_baseline.py` on "
                 "the same host class when the core changes."),
    }
    print(json.dumps({"full": full}, indent=2))
    print()
    write_json(OUTPUT, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
