"""Asynchronous parameter-server training session simulation.

This is the reproduction's stand-in for running transient-TensorFlow on a
real cluster.  Workers complete training steps at GPU-dependent speeds,
slowed when the parameter servers saturate; the chief worker periodically
checkpoints the model (sequentially with its own training); transient
workers can be revoked mid-training and replaced later; and everything is
recorded into a :class:`~repro.training.trace.TrainingTrace` for the
CM-DARE performance tracker to analyze.

Simulation core performance
---------------------------
The session has two execution paths that are **bit-identical** by
contract (the golden-trace tests in ``tests/test_core_fastpath.py`` pin
this down):

* the *chunked* path — the original discrete-event loop: one heap event
  per ``steps_per_event`` steps per worker, one scalar RNG draw per step;
* the *fast-forward* path (:meth:`TrainingSession._fast_forward`, on by
  default) — whenever the next events due are this session's own chunk
  completions, the session pulls them out of the simulator heap and
  replays the exact same completion/schedule logic in a tight loop, up to
  its *disturbance horizon*: the first foreign event (a scheduled
  revocation, a replacement joining, a fault-injector poll, a controller
  wake-up, ...), or the end of the workload.  Checkpoints do not break the
  span — they draw from their own named RNG stream, so they are replayed
  in-line.  Step durations are drawn with vectorized
  :meth:`~repro.perf.step_time.StepTimeModel.sample_steps` calls (one
  ``Generator.normal`` per chunk instead of one per step), and when every
  active worker is past warm-up with the same step-time distribution and
  no foreign event is pending at all, the whole remaining workload's
  durations come from a *single* block draw.  Chunk rows are bulk-appended
  to the trace's columnar buffers.

Bit-identity holds because (a) the vector draws consume the shared
``step_time`` stream exactly like the scalar draws they replace, (b) every
time/duration expression is replicated operation-for-operation, and
(c) event sequence numbers are claimed from the simulator as the replay
goes, so any chunk re-materialized into the heap at a span boundary keeps
the exact (time, sequence) ordering the chunked path would have produced.
The per-worker RNG *order* is preserved too: draws happen at chunk
scheduling time, in completion order, on both paths.

Fleet-scale hooks
-----------------
Chunk-completion events are tagged with their owning session
(``Event.owner``), so a driver multiplexing many sessions on one simulator
(:mod:`repro.scenarios`) can map the heap top to the single session whose
fast-forward can progress in O(1).  A session additionally caches its
*disturbance horizon*: when :meth:`fast_forward` finds a foreign event at
the top of the heap it remembers that blocking event and, until the
blocker leaves the heap or the session schedules new chunks of its own
(tracked through the simulator's per-owner insertion epochs), later offers
return immediately without touching the heap at all.  Block-mode spans
draw their step durations in bounded segments and flush staged rows to the
columnar trace incrementally, and the trace buffers are shrunk to fit when
the workload finishes, so the fast path's peak memory stays close to the
chunked path's.  ``trace_level="summary"`` swaps the columnar trace for an
aggregates-only :class:`~repro.training.trace.StepRecordSummary` sink —
fleet runs that only consume end-of-run payloads keep O(1) trace memory
per job, with byte-identical payloads.

``REPRO_CORE_FASTFORWARD=0`` (or ``fast_forward=False``) forces the
chunked path.  The core-throughput baseline lives in
``benchmarks/BENCH_core.json``; regenerate it with
``python benchmarks/core_baseline.py`` after touching this module (CI runs
``python benchmarks/core_baseline.py --quick --check`` as a regression
gate).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro import config
from repro.cloud.storage import CloudStorage
from repro.errors import ConfigurationError, TrainingError
from repro.perf.calibration import SESSION_RESTART_SECONDS
from repro.perf.checkpoint_time import CheckpointTimeModel
from repro.perf.ps_capacity import PSCapacityModel
from repro.perf.step_time import WARMUP_STEPS, StepTimeModel
from repro.simulation.engine import Simulator
from repro.simulation.events import Event
from repro.simulation.rng import RandomStreams
from repro.training.cluster import ClusterSpec, WorkerSpec
from repro.training.job import TrainingJob
from repro.training.parameter_server import ParameterServerGroup
from repro.training.trace import (
    CheckpointRecord,
    ReplacementRecord,
    RevocationRecord,
    TraceSink,
    TrainingTrace,
    make_step_sink,
)
from repro.training.worker import WorkerState

#: Default number of training steps simulated per discrete event.  Larger
#: chunks make long simulations cheaper at a negligible fidelity cost; the
#: paper's own speed metric is already a 100-step average.
DEFAULT_STEPS_PER_EVENT = 10

#: Chunks whose durations are drawn per RNG call in block mode, and rows
#: staged before they are flushed to the trace: bounds the fast path's
#: transient memory (arrays of SEGMENT * steps_per_event floats) without
#: changing the draws — segmented ``Generator.normal`` fills consume the
#: bit stream exactly like one big fill.
FASTFORWARD_SEGMENT_CHUNKS = 1024


#: One scheduled-but-not-completed chunk of a worker, stored as a plain
#: ``(event, steps, start_time)`` tuple — it mirrors what the chunk event's
#: callback closure captures, so the fast-forward path can simulate the
#: completion without the heap, and a tuple keeps the per-chunk bookkeeping
#: of the replay loops allocation-cheap.
_InflightChunk = Tuple[Event, int, float]


class TrainingSession:
    """One simulated distributed training session.

    Args:
        simulator: Discrete-event simulator to schedule on.
        cluster: Cluster specification (workers and parameter servers).
        job: Training workload.
        streams: Named random streams; defaults to a fresh seed-0 family.
        step_time_model: Ground-truth step-time model (shared across
            sessions in a campaign so calibration stays consistent).
        ps_capacity_model: Ground-truth parameter-server capacity model.
        checkpoint_time_model: Ground-truth checkpoint-duration model.
        storage: Optional cloud storage bucket to upload checkpoints to.
        steps_per_event: Steps simulated per worker event.
        chief_worker_index: Index of the worker that starts as chief.
        fast_forward: Whether :meth:`run_to_completion` may use the
            vectorized fast-forward path (bit-identical to the chunked
            path; see the module docstring).  ``None`` reads the
            ``REPRO_CORE_FASTFORWARD`` environment variable (default on).
        trace_level: ``"full"`` records every chunk row in the columnar
            trace (the default); ``"summary"`` folds rows into an
            aggregates-only sink so long fleet runs keep O(1) trace
            memory per job.  Payload-visible behavior is identical.
        step_sink: Custom :class:`~repro.training.trace.TraceSink` used as
            the trace's ``step_records`` instead of the ``trace_level``
            built-in — e.g. a :class:`~repro.training.trace.TeeSink`
            feeding the fleet telemetry spool alongside the normal sink.
            The caller owns the sink's semantics; ``trace_level`` is still
            validated and recorded but builds no sink of its own.
    """

    def __init__(self, simulator: Simulator, cluster: ClusterSpec, job: TrainingJob,
                 streams: Optional[RandomStreams] = None,
                 step_time_model: Optional[StepTimeModel] = None,
                 ps_capacity_model: Optional[PSCapacityModel] = None,
                 checkpoint_time_model: Optional[CheckpointTimeModel] = None,
                 storage: Optional[CloudStorage] = None,
                 steps_per_event: int = DEFAULT_STEPS_PER_EVENT,
                 chief_worker_index: int = 0,
                 fast_forward: Optional[bool] = None,
                 trace_level: str = "full",
                 step_sink: Optional[TraceSink] = None):
        if steps_per_event < 1:
            raise ConfigurationError("steps_per_event must be >= 1")
        if not 0 <= chief_worker_index < cluster.num_workers:
            raise ConfigurationError("chief_worker_index out of range")
        trace_level = config.FLEET_TRACE_LEVEL.check(trace_level,
                                                     "trace_level")
        self.simulator = simulator
        self.cluster = cluster
        self.job = job
        self.streams = streams if streams is not None else RandomStreams(seed=0)
        self.step_time_model = (step_time_model if step_time_model is not None
                                else StepTimeModel(rng=self.streams.get("step_time")))
        self.checkpoint_time_model = (
            checkpoint_time_model if checkpoint_time_model is not None
            else CheckpointTimeModel(rng=self.streams.get("checkpoint")))
        self.ps_group = ParameterServerGroup(
            count=cluster.num_parameter_servers,
            region_name=cluster.ps_region_name,
            capacity_model=ps_capacity_model or PSCapacityModel())
        self.storage = storage
        self.steps_per_event = steps_per_event
        self.fast_forward_enabled = config.CORE_FASTFORWARD.resolve(
            fast_forward, "fast_forward")
        #: Chunks completed through the fast-forward path (stats/benchmarks).
        self.fast_forward_chunks = 0
        #: Fast-forward spans executed (stats/benchmarks).
        self.fast_forward_spans = 0
        #: Disturbance-horizon cache: the foreign event the last offer was
        #: blocked behind, and this session's insertion epoch at that time.
        #: The epoch is read through the simulator's live counter cell so a
        #: declined offer costs a few attribute reads, not a method call.
        self._ff_blocker: Optional[Event] = None
        self._ff_own_epoch = -1
        self._insertion_cell = simulator.owner_insertion_cell(self)
        #: Membership epoch and the (slowdown, utilization) memo keyed on
        #: it: both are pure functions of the active-worker set and the PS
        #: count, so they only change when a worker joins/is revoked or a
        #: parameter server is added.
        self._membership_epoch = 0
        self._speed_epoch = -1
        self._speed_cache = (1.0, 0.0, 0.0)
        #: Per-GPU (mean, sigma, floor) post-warm-up draw parameters,
        #: memoized alongside the speed state (same invalidation).
        self._draw_params: Dict[str, Tuple[float, float, float]] = {}

        self.trace_level = trace_level
        self.trace = TrainingTrace(model_name=job.model_name,
                                   cluster_description=cluster.describe(),
                                   start_time=simulator.now,
                                   step_records=(step_sink
                                                 if step_sink is not None
                                                 else make_step_sink(trace_level)))
        self.workers: Dict[str, WorkerState] = {}
        self._inflight: Dict[str, _InflightChunk] = {}
        self._worker_counter = itertools.count()
        self._cluster_steps = 0
        self._last_checkpoint_step = 0
        self._next_checkpoint_step = job.checkpoint_interval_steps
        self._restart_until = 0.0
        self._finished = False
        self.on_finished: List[Callable[["TrainingSession"], None]] = []
        self.on_revocation: List[Callable[["TrainingSession", WorkerState], None]] = []

        for index, spec in enumerate(cluster.workers):
            self._register_worker(spec, is_chief=(index == chief_worker_index),
                                  joined_at=simulator.now)

    # ------------------------------------------------------------------
    # Worker management.
    # ------------------------------------------------------------------
    def _register_worker(self, spec: WorkerSpec, is_chief: bool,
                         joined_at: float) -> WorkerState:
        worker_id = f"worker-{next(self._worker_counter)}"
        worker = WorkerState(worker_id=worker_id, spec=spec, is_chief=is_chief,
                             joined_at=joined_at)
        self.workers[worker_id] = worker
        self._membership_epoch += 1
        return worker

    def active_workers(self) -> List[WorkerState]:
        """Workers currently training."""
        return [worker for worker in self.workers.values() if worker.active]

    def chief(self) -> Optional[WorkerState]:
        """The worker currently holding the chief role, if any is active."""
        for worker in self.workers.values():
            if worker.is_chief and worker.active:
                return worker
        return None

    @property
    def cluster_steps(self) -> int:
        """Cluster-wide training steps counted toward the workload."""
        return self._cluster_steps

    @property
    def finished(self) -> bool:
        """Whether the workload has completed."""
        return self._finished

    @property
    def steps_since_checkpoint(self) -> int:
        """Cluster steps completed since the last checkpoint."""
        return self._cluster_steps - self._last_checkpoint_step

    # ------------------------------------------------------------------
    # Effective speed computation.
    # ------------------------------------------------------------------
    def _worker_speeds(self) -> Dict[str, float]:
        gflops = self.job.profile.gflops
        return {worker.worker_id: self.step_time_model.mean_speed(gflops, worker.gpu_name)
                for worker in self.active_workers()}

    def _scaling_efficiencies(self) -> Dict[str, float]:
        gflops = self.job.profile.gflops
        return {worker.worker_id:
                self.step_time_model.scaling_efficiency(gflops, worker.gpu_name)
                for worker in self.active_workers()}

    def current_slowdown(self) -> float:
        """Current PS-induced per-worker step-time inflation factor."""
        speeds = self._worker_speeds()
        if not speeds:
            return 1.0
        efficiencies = self._scaling_efficiencies()
        ordered = list(speeds)
        return self.ps_group.worker_slowdown(
            [speeds[w] for w in ordered],
            self.job.profile.parameter_bytes,
            [efficiencies[w] for w in ordered])

    def current_utilization(self) -> float:
        """Current parameter-server utilization (demand / capacity)."""
        speeds = list(self._worker_speeds().values())
        if not speeds:
            return 0.0
        return self.ps_group.utilization(speeds, self.job.profile.parameter_bytes)

    def _span_speed_state(self) -> Tuple[float, float, float]:
        """Memoized ``(slowdown, utilization, ps_arg)`` for the membership.

        Values are identical to calling :meth:`current_slowdown` /
        :meth:`current_utilization` directly (both are pure functions of
        the active workers and the PS count); ``ps_arg`` is the derived
        ``max(0, utilization - 0.5)`` contention argument the step-time
        draws take.  The memo just avoids recomputing them for every
        chunk/span while membership is stable.
        """
        if self._speed_epoch != self._membership_epoch:
            utilization = self.current_utilization()
            self._speed_cache = (self.current_slowdown(), utilization,
                                 max(0.0, utilization - 0.5))
            self._speed_epoch = self._membership_epoch
            self._draw_params.clear()
        return self._speed_cache

    def current_cluster_speed(self) -> float:
        """Analytic cluster speed (steps/second) for the current membership."""
        speeds = self._worker_speeds()
        if not speeds:
            return 0.0
        efficiencies = self._scaling_efficiencies()
        ordered = list(speeds)
        return self.ps_group.cluster_speed(
            [speeds[w] for w in ordered],
            self.job.profile.parameter_bytes,
            [efficiencies[w] for w in ordered])

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first chunk of every worker."""
        if self._finished:
            raise TrainingError("session already finished")
        for worker in self.active_workers():
            self._schedule_chunk(worker)

    def _chunk_duration(self, worker: WorkerState, steps: int) -> float:
        slowdown, _utilization, ps_arg = self._span_speed_state()
        gflops = self.job.profile.gflops
        duration = 0.0
        for offset in range(steps):
            duration += self.step_time_model.sample_step_time(
                gflops, worker.gpu_name, step_index=worker.steps_done + offset,
                ps_utilization=ps_arg, slowdown=slowdown)
        return duration

    def _schedule_chunk(self, worker: WorkerState, extra_delay: float = 0.0) -> None:
        if self._finished or not worker.active:
            return
        steps = self.steps_per_event
        duration = self._chunk_duration(worker, steps)
        delay = extra_delay + duration
        if self.simulator.now + extra_delay < self._restart_until:
            delay += self._restart_until - (self.simulator.now + extra_delay)
        start_time = self.simulator.now + delay - duration

        def complete(_sim: Simulator, worker=worker, steps=steps,
                     start_time=start_time) -> None:
            self._complete_chunk(worker, steps, start_time)

        event = self.simulator.schedule(delay, complete,
                                        label=f"{worker.worker_id}:chunk",
                                        owner=self)
        self._inflight[worker.worker_id] = (event, steps, start_time)

    def _complete_chunk(self, worker: WorkerState, steps: int, start_time: float) -> None:
        if self._finished or not worker.active:
            return
        worker.steps_done += steps
        self._cluster_steps += steps
        self.ps_group.record_updates(steps)
        self.trace.step_records.append_row(
            worker.worker_id, start_time, self.simulator.now, steps,
            self._cluster_steps, worker.steps_done)

        if self._cluster_steps >= self.job.total_steps:
            self._finish()
            return

        checkpoint_delay = 0.0
        if worker.is_chief and self._cluster_steps >= self._next_checkpoint_step:
            checkpoint_delay = self._perform_checkpoint(worker)
        self._schedule_chunk(worker, extra_delay=checkpoint_delay)

    def _perform_checkpoint(self, worker: WorkerState,
                            now: Optional[float] = None) -> float:
        """Run a checkpoint on the (acting) chief; returns its duration.

        Args:
            worker: The worker performing the checkpoint.
            now: Simulation time of the checkpoint; defaults to the
                simulator clock (the fast-forward replay passes it
                explicitly, since it advances the clock only at span ends).
        """
        at = self.simulator.now if now is None else now
        duration = self.checkpoint_time_model.sample_time(self.job.profile.checkpoint)
        size = self.job.profile.checkpoint.total_bytes
        self.trace.checkpoint_records.append(CheckpointRecord(
            worker_id=worker.worker_id, start_time=at,
            duration=duration, cluster_step=self._cluster_steps, size_bytes=size))
        if self.storage is not None:
            key = f"checkpoints/{self.job.model_name}/model.ckpt-{self._cluster_steps}"
            self.storage.put(key, size, at_time=at + duration,
                             metadata={"model": self.job.model_name,
                                       "step": str(self._cluster_steps)})
        self._last_checkpoint_step = self._cluster_steps
        self._next_checkpoint_step += self.job.checkpoint_interval_steps
        return duration

    def _finish(self) -> None:
        self._finished = True
        self.trace.end_time = self.simulator.now
        for inflight in self._inflight.values():
            inflight[0].cancel()
        self._inflight.clear()
        self._ff_blocker = None
        # A finished trace is read, never appended to: return the growth
        # slack of the columnar buffers (no-op for summary sinks).
        self.trace.step_records.shrink_to_fit()
        for callback in self.on_finished:
            callback(self)

    # ------------------------------------------------------------------
    # Vectorized fast-forward path.
    # ------------------------------------------------------------------
    def _fast_forward(self, max_pops: Optional[int] = None,
                      top: Optional[Event] = None) -> int:
        """Replay chunk completions up to the disturbance horizon.

        Pops this session's due chunk events off the simulator heap and
        processes them fused — in exact (time, sequence) order, consuming
        the same RNG draws at the same points — until the workload
        finishes, the next event due is *foreign* (not one of this
        session's in-flight chunks), or ``max_pops`` completions were
        replayed (each counts like one processed heap event, so
        :meth:`run_to_completion`'s ``max_events`` truncates identically on
        both paths).  Each completion schedules its successor chunk
        straight back into the heap; because nothing else can insert events
        during the replay, the successor receives exactly the sequence
        number plain event-by-event execution would have assigned, so the
        two paths can hand execution back and forth at any span boundary
        without drifting.

        Returns:
            The number of chunk completions replayed.
        """
        budget = math.inf if max_pops is None else max_pops
        if budget <= 0:
            return 0
        if self._finished or not self.fast_forward_enabled or not self._inflight:
            return 0
        sim = self.simulator
        # The disturbance-horizon cache only pays off for callers that
        # re-offer blindly (run_to_completion after every heap event, or
        # any external driver without its own peek).  A caller passing a
        # fresh ``top`` already knows what fires next, so the cache
        # bookkeeping is skipped entirely on that path.
        use_horizon = top is None
        if use_horizon:
            # A previous offer was blocked behind a foreign event.  While
            # that blocker is still in the heap and this session inserted
            # no new chunk events (its own-insertion epoch is unchanged, so
            # no own chunk can have sorted ahead of the blocker), every
            # chunk of this session still sorts after a foreign event — the
            # offer is declined without even peeking at the heap.
            blocker = self._ff_blocker
            if blocker is not None:
                if (blocker._in_queue and not blocker.cancelled
                        and self._insertion_cell[0] == self._ff_own_epoch):
                    return 0
                self._ff_blocker = None
            top = sim.peek_next()
            if top is None:
                return 0
        inflight = self._inflight
        if (top.owner is not self
                or (info := inflight.get(top.label[:-6])) is None
                or info[0] is not top):
            # A foreign event (disturbance) fires first; nothing to replay.
            # Chunk completions are the only events a session owns (their
            # labels are "<worker>:chunk"), so the ownership tag plus the
            # in-flight identity check replace the old O(workers) id-set
            # probe.  An owned event that is *not* the worker's current
            # in-flight chunk (a stale chunk of a re-started session)
            # counts as foreign too: it fires through the heap, exactly
            # like the old probe treated it.
            if use_horizon:
                self._ff_blocker = top
                self._ff_own_epoch = self._insertion_cell[0]
            return 0

        # pending_events() inlined (len(queue) - cancelled): this runs once
        # per span and fleets execute hundreds of thousands of short spans.
        if len(sim._queue) - sim._cancelled_in_queue == len(inflight):
            # Every pending event is one of this session's chunks: the
            # whole remaining workload can drain through the bulk span
            # (local heap, block draws, bulk trace appends).
            return self._drain_span(budget)

        # Fused span: foreign events are pending, so the span is bounded by
        # the first one.  Each due chunk is popped off the heap (a true
        # removal, no cancelled corpses), completed, and its successor
        # scheduled straight back; because nothing else can insert events
        # during the replay, the successor receives exactly the sequence
        # number plain event-by-event execution would have assigned, so the
        # two paths can hand execution back and forth at any span boundary
        # without drifting.  Span-constant quantities (membership cannot
        # change inside a span — membership changes arrive via foreign
        # events) come from the memoized _span_speed_state.
        model = self.step_time_model
        gflops = self.job.profile.gflops
        if self._speed_epoch == self._membership_epoch:
            slowdown, _utilization, ps_arg = self._speed_cache
        else:
            slowdown, _utilization, ps_arg = self._span_speed_state()
        steps_per = self.steps_per_event
        total = self.job.total_steps
        restart_until = self._restart_until
        workers = self.workers
        append_row = self.trace.step_records.append_row
        schedule_at = sim.schedule_at
        pop_next = sim.pop_next
        peek_next = sim.peek_next
        complete_chunk = self._complete_chunk

        draw_params = self._draw_params
        sample_chunk_raw = model.sample_chunk_raw
        pops = 0
        updates = 0
        finished = False
        now = sim.now
        while True:
            worker_id = top.label[:-6]
            worker = workers[worker_id]
            pop_next()
            steps = info[1]
            now = top.time
            # --- completion (mirrors _complete_chunk) ---
            worker.steps_done += steps
            self._cluster_steps += steps
            cluster = self._cluster_steps
            updates += steps
            pops += 1
            append_row(worker_id, info[2], now, steps, cluster,
                       worker.steps_done)
            if cluster >= total:
                del inflight[worker_id]
                finished = True
                break
            checkpoint_delay = 0.0
            if worker.is_chief and cluster >= self._next_checkpoint_step:
                checkpoint_delay = self._perform_checkpoint(worker, now=now)
            # --- next chunk (mirrors _schedule_chunk/_chunk_duration) ---
            if worker.steps_done >= WARMUP_STEPS:
                gpu = worker.gpu_name
                params = draw_params.get(gpu)
                if params is None:
                    params = draw_params[gpu] = model.chunk_draw_params(
                        gflops, gpu, ps_utilization=ps_arg, slowdown=slowdown)
                floor = params[2]
                duration = 0.0
                for value in sample_chunk_raw(params, steps_per).tolist():
                    # Inline max(floor, value): same float as np.maximum.
                    duration += value if value > floor else floor
            else:
                samples = model.sample_steps(
                    gflops, worker.gpu_name, steps_per,
                    start_step_index=worker.steps_done,
                    ps_utilization=ps_arg, slowdown=slowdown)
                duration = 0.0
                for value in samples.tolist():
                    duration += value
            delay = checkpoint_delay + duration
            if now + checkpoint_delay < restart_until:
                delay += restart_until - (now + checkpoint_delay)
            start_time = now + delay - duration

            def complete(_sim: Simulator, worker=worker, steps=steps_per,
                         start_time=start_time) -> None:
                complete_chunk(worker, steps, start_time)

            event = schedule_at(now + delay, complete,
                                label=f"{worker_id}:chunk", owner=self)
            inflight[worker_id] = (event, steps_per, start_time)
            if pops >= budget:
                break
            top = peek_next()
            # The span ends at the first event that is not a live in-flight
            # chunk of this session: foreign, or a stale own chunk of a
            # re-started session.  Cache it as the new disturbance horizon
            # — the epoch snapshot happens after this span's insertions, so
            # the cached verdict is consistent.
            if (top is None or top.owner is not self
                    or (info := inflight.get(top.label[:-6])) is None
                    or info[0] is not top):
                if use_horizon and top is not None:
                    self._ff_blocker = top
                    self._ff_own_epoch = self._insertion_cell[0]
                break

        if pops:
            self.ps_group.record_updates(updates)
            self.fast_forward_chunks += pops
            self.fast_forward_spans += 1
        if finished:
            # Remaining in-flight chunks stay scheduled and are cancelled
            # by _finish, exactly like on the chunked path; their RNG draws
            # were already consumed at scheduling time on both paths.
            sim.advance_to(now)
            self._finish()
        return pops

    def _drain_span(self, budget) -> int:
        """Bulk replay when every pending event is one of this session's
        own chunks (no foreign event anywhere — the single-session hot
        path of ``BENCH_core``).

        The chunk events are lifted into a local tuple heap (sequence
        numbers for successors are pre-claimed so any chunk re-materialized
        at a span boundary keeps the exact (time, sequence) ordering plain
        execution would have produced), rows are staged and bulk-appended
        in segments, and — when every worker is past warm-up with one
        shared step-time distribution — whole segments of durations come
        from single RNG calls (block mode).
        """
        sim = self.simulator
        heap: List[Tuple[float, int, str]] = []
        meta: Dict[str, Tuple[int, float]] = {}
        while True:
            event = sim.pop_next()
            if event is None:
                break
            worker_id = event.label[:-6]  # strip ":chunk"
            heap.append((event.time, event.sequence, worker_id))
            info = self._inflight[worker_id]
            meta[worker_id] = (info[1], info[2])
        self._inflight.clear()
        # Popped in heap order, so the list is already a valid min-heap.

        # Span-constant quantities (membership cannot change mid-span).
        model = self.step_time_model
        gflops = self.job.profile.gflops
        slowdown, _utilization, ps_arg = self._span_speed_state()
        steps_per = self.steps_per_event
        total = self.job.total_steps
        restart_until = self._restart_until

        # Block mode: the number of chunk completions left is fixed (each
        # adds exactly steps_per steps), so when every worker is past
        # warm-up and draws from the same step-time distribution, all
        # remaining durations can come from the same RNG stream run.
        # Which worker consumes each draw is decided by the replay, but
        # with identical per-draw distributions the values are identical
        # either way.
        def all_past_warmup() -> bool:
            return all(self.workers[w].steps_done + meta[w][0] >= WARMUP_STEPS
                       for w in meta)

        block_mode = False
        block_remaining = 0
        block_gpu = ""
        block_sums: List[float] = []
        block_index = 0
        upgrade_when_warm = False
        distributions = {(model.mean_step_time(gflops, self.workers[w].gpu_name),
                          model.noise_cov(self.workers[w].gpu_name))
                         for w in meta}
        if len(distributions) == 1:
            if not all_past_warmup():
                # Replay chunk-by-chunk until warm-up ends, then return so
                # the next span can take the block draw.
                upgrade_when_warm = True
            else:
                pops_left = -(-(total - self._cluster_steps) // steps_per)
                # The block draws commit to the whole remaining workload's
                # RNG consumption, so they are only taken when the pop
                # budget cannot cut the span short.  The draws happen
                # lazily in FASTFORWARD_SEGMENT_CHUNKS pieces to bound peak
                # memory; segmented normal fills consume the bit stream
                # exactly like one big fill, so the durations are
                # unchanged.
                if pops_left >= 2 and pops_left <= budget:
                    block_mode = True
                    block_remaining = pops_left - 1
                    block_gpu = self.workers[next(iter(meta))].gpu_name

        rec_workers: List[str] = []
        rec_starts: List[float] = []
        rec_ends: List[float] = []
        rec_steps: List[int] = []
        rec_clusters: List[int] = []
        rec_worker_steps: List[int] = []

        def flush_rows() -> None:
            # Staged rows land in the trace in segments so a long block
            # span never holds the whole workload's rows in Python lists.
            self.trace.step_records.extend_rows(
                rec_workers, rec_starts, rec_ends, rec_steps, rec_clusters,
                rec_worker_steps)
            del rec_workers[:], rec_starts[:], rec_ends[:]
            del rec_steps[:], rec_clusters[:], rec_worker_steps[:]

        pops = 0
        updates = 0
        finished = False
        now = sim.now
        while heap:
            if pops >= budget:
                break
            time, sequence, worker_id = heapq.heappop(heap)
            worker = self.workers[worker_id]
            steps, start_time = meta.pop(worker_id)
            now = time
            # --- completion (mirrors _complete_chunk) ---
            worker.steps_done += steps
            self._cluster_steps += steps
            cluster = self._cluster_steps
            updates += steps
            pops += 1
            rec_workers.append(worker_id)
            rec_starts.append(start_time)
            rec_ends.append(time)
            rec_steps.append(steps)
            rec_clusters.append(cluster)
            rec_worker_steps.append(worker.steps_done)
            if len(rec_workers) >= FASTFORWARD_SEGMENT_CHUNKS:
                flush_rows()
            if cluster >= total:
                finished = True
                break
            checkpoint_delay = 0.0
            if worker.is_chief and cluster >= self._next_checkpoint_step:
                checkpoint_delay = self._perform_checkpoint(worker, now=now)
            # --- next chunk (mirrors _schedule_chunk/_chunk_duration) ---
            if block_mode:
                if block_index == len(block_sums):
                    segment = min(FASTFORWARD_SEGMENT_CHUNKS, block_remaining)
                    samples = model.sample_steps(
                        gflops, block_gpu, segment * steps_per,
                        start_step_index=WARMUP_STEPS,
                        ps_utilization=ps_arg, slowdown=slowdown)
                    chunk_matrix = samples.reshape(segment, steps_per)
                    # Left-to-right accumulation per chunk (column by
                    # column) matches the scalar `duration += sample` loop
                    # bit-for-bit; numpy's pairwise `sum` would not.
                    acc = chunk_matrix[:, 0]
                    for column in range(1, steps_per):
                        acc = acc + chunk_matrix[:, column]
                    block_sums = acc.tolist()
                    block_index = 0
                    block_remaining -= segment
                duration = block_sums[block_index]
                block_index += 1
            else:
                samples = model.sample_steps(
                    gflops, worker.gpu_name, steps_per,
                    start_step_index=worker.steps_done,
                    ps_utilization=ps_arg, slowdown=slowdown)
                duration = 0.0
                for value in samples.tolist():
                    duration += value
            delay = checkpoint_delay + duration
            if now + checkpoint_delay < restart_until:
                delay += restart_until - (now + checkpoint_delay)
            heapq.heappush(heap, (now + delay, sim.claim_sequence(), worker_id))
            meta[worker_id] = (steps_per, now + delay - duration)
            if upgrade_when_warm and all_past_warmup():
                break

        if pops:
            if rec_workers:
                flush_rows()
            self.ps_group.record_updates(updates)
            self.fast_forward_chunks += pops
            self.fast_forward_spans += 1
        if finished:
            # Remaining in-flight chunks are dropped exactly as _finish
            # cancels them on the chunked path; their RNG draws were
            # already consumed at scheduling time on both paths.
            sim.advance_to(now)
            self._finish()
            return pops
        # Re-materialize surviving in-flight chunks as real heap events,
        # keeping their claimed sequence numbers.
        for time, sequence, worker_id in heap:
            worker = self.workers[worker_id]
            steps, start_time = meta[worker_id]

            def complete(_sim: Simulator, worker=worker, steps=steps,
                         start_time=start_time) -> None:
                self._complete_chunk(worker, steps, start_time)

            event = sim.schedule_at(time, complete,
                                    label=f"{worker_id}:chunk",
                                    sequence=sequence, owner=self)
            self._inflight[worker_id] = (event, steps, start_time)
        return pops

    # ------------------------------------------------------------------
    # Membership changes (revocations, replacements, PS scaling).
    # ------------------------------------------------------------------
    def handle_revocation(self, worker_id: str) -> WorkerState:
        """Revoke a worker: it stops training immediately.

        With CM-DARE's transient-TensorFlow, a revoked chief hands the
        checkpointing responsibility to another active worker, so training
        progress is preserved (Section V-E).
        """
        if worker_id not in self.workers:
            raise TrainingError(f"unknown worker {worker_id!r}")
        worker = self.workers[worker_id]
        if not worker.active:
            return worker
        worker.revoke(self.simulator.now)
        self._membership_epoch += 1
        pending = self._inflight.pop(worker_id, None)
        if pending is not None:
            pending[0].cancel()
        self.trace.revocation_records.append(RevocationRecord(
            worker_id=worker_id, time=self.simulator.now,
            cluster_step=self._cluster_steps, was_chief=worker.is_chief))
        if worker.is_chief:
            self._handoff_chief(worker)
        for callback in self.on_revocation:
            callback(self, worker)
        return worker

    def _handoff_chief(self, revoked_chief: WorkerState) -> None:
        revoked_chief.is_chief = False
        replacement = next(iter(self.active_workers()), None)
        if replacement is not None:
            replacement.is_chief = True

    def add_worker(self, spec: WorkerSpec, overhead_seconds: float = 0.0,
                   cold_start: bool = True, as_chief: bool = False,
                   reuse_chief_ip: bool = False) -> WorkerState:
        """Add a (replacement) worker that starts training after an overhead.

        Args:
            spec: Specification of the new worker.
            overhead_seconds: Replacement overhead before the first step
                (cold/warm start cost, Fig. 10).
            cold_start: Whether the overhead corresponds to a cold start.
            as_chief: Whether the new worker takes the chief role.
            reuse_chief_ip: Reproduces the unmodified-TensorFlow behaviour of
                Section V-E: the replacement binds to the revoked chief's IP
                address, becomes chief, and forces the cluster to restart
                from the last checkpoint, discarding progress made since.
        """
        if overhead_seconds < 0:
            raise ConfigurationError("overhead_seconds must be non-negative")
        worker = self._register_worker(spec, is_chief=False,
                                       joined_at=self.simulator.now + overhead_seconds)
        self.trace.replacement_records.append(ReplacementRecord(
            worker_id=worker.worker_id, time=self.simulator.now,
            cluster_step=self._cluster_steps, cold_start=cold_start,
            overhead_seconds=overhead_seconds))

        def join(_sim: Simulator) -> None:
            if self._finished:
                return
            if as_chief or reuse_chief_ip:
                for other in self.workers.values():
                    other.is_chief = False
                worker.is_chief = True
            if reuse_chief_ip:
                self._recompute_from_checkpoint()
            self._schedule_chunk(worker)

        self.simulator.schedule(overhead_seconds, join,
                                label=f"{worker.worker_id}:join")
        return worker

    def _recompute_from_checkpoint(self) -> None:
        """Discard progress since the last checkpoint (legacy TF behaviour)."""
        discarded = self._cluster_steps - self._last_checkpoint_step
        self._cluster_steps = self._last_checkpoint_step
        self._next_checkpoint_step = (self._last_checkpoint_step
                                      + self.job.checkpoint_interval_steps)
        self._restart_until = self.simulator.now + SESSION_RESTART_SECONDS
        self.trace.step_records.append_row(
            "session-restart", self.simulator.now, self.simulator.now,
            -discarded, self._cluster_steps)

    def add_parameter_server(self, count: int = 1) -> None:
        """Add parameter servers, paying the session-restart overhead.

        TensorFlow cannot add parameter servers to a live session; the paper
        measures the restart at roughly ten seconds (Section VI-B).
        """
        self.ps_group.add_servers(count)
        self._membership_epoch += 1
        self._restart_until = max(self._restart_until,
                                  self.simulator.now + SESSION_RESTART_SECONDS)

    def fast_forward(self, max_pops: Optional[int] = None,
                     top: Optional[Event] = None) -> int:
        """Public fast-forward hook for multi-session drivers.

        ``top``, when given, must be the caller's fresh ``peek_next()``
        result, so the heap is not peeked a second time.

        :mod:`repro.scenarios` runs many sessions on one simulator; each
        session can only replay spans while the next event due is one of its
        *own* chunk completions, so a driver either maps the heap top to its
        owning session via the event ownership tags (the fleet's wake-set
        loop) or simply offers sessions a turn.  Returns the number of chunk
        completions replayed (0 when the next event is foreign, the session
        is finished, or fast-forward is disabled).  Declined offers are
        cached against the blocking foreign event, so repeated offers to an
        undisturbed session cost no heap peeks.
        """
        return self._fast_forward(max_pops, top=top)

    # ------------------------------------------------------------------
    # Convenience runners.
    # ------------------------------------------------------------------
    def run_to_completion(self, max_events: int = 5_000_000) -> TrainingTrace:
        """Start the session and run the simulator until the workload ends.

        The simulator is stepped only until the workload finishes, so events
        scheduled far in the future (e.g. the 24-hour reclamation of
        transient servers) do not advance the clock past the training run.
        When the fast-forward path is enabled (the default), chunk events
        are replayed in vectorized spans between heap events; the result is
        bit-identical either way.
        """
        self.start()
        processed = 0
        while not self._finished and processed < max_events:
            processed += self._fast_forward(max_events - processed)
            if self._finished or processed >= max_events:
                break
            if self.simulator.step() is None:
                break
            processed += 1
        if not self._finished:
            raise TrainingError(
                "training did not finish; the cluster may have lost all workers")
        return self.trace
