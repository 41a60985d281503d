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
  default) — whenever the next event due is one of this session's own
  chunk completions, the session lifts its due chunks off the simulator
  heap and replays the exact same completion/schedule logic on a local
  heap, in one loop (:meth:`TrainingSession._window_span`), up to a
  bound.

The replay window has one of two bounds:

* a **control horizon** from the caller.  Only a session's *control
  events* read or write it — controller polls, worker revocations,
  replacement joins and fault-injector polls, all scheduled through
  :meth:`schedule_control`, the one place that registers them.  Chunk
  events are tagged with their owning session (``Event.owner``), so a
  driver multiplexing many sessions on one simulator
  (:mod:`repro.scenarios`) maps the heap top to its session and passes
  :meth:`control_horizon`, the ``(time, sequence)`` key of that session's
  next control event.  The window replays every chunk due before it,
  regardless of what other sessions have due in between (the per-process
  lookahead of conservative parallel simulation).
* **the first other event** on the heap, when the caller passes no
  horizon: :meth:`run_to_completion`, and a fleet job whose queued pool
  request any pool event may grant.  The window lifts the session's chunks
  off the heap top and stops where event-by-event execution would hand
  over; with nothing else pending the bound is ``(inf, inf)`` and a lone
  session replays its whole workload in one window.

Checkpoints do not end a window — they draw from their own named RNG
stream, so they are replayed in-line.  The chunk that finishes the
workload is replayed only when it is the heap top: finishing releases pool
slots, cancels queued requests and can hand a slot to another job, so it
must happen in global order.

Bit-identity holds because (a) the draws consume the shared ``step_time``
stream exactly like the scalar draws they replace, (b) every
time/duration expression is replicated operation-for-operation, and
(c) successors claim sequence numbers from the simulator as they are
scheduled, so a chunk tied in time with the bound orders by sequence just
as it would on the heap, and chunks returned to the heap keep the numbers
they claimed.  The per-worker RNG *order* is preserved too: draws happen
at chunk scheduling time, in completion order, on both paths.  Nothing
that reads or writes the session fires inside a window, so its state at
each control event is exactly the chunked path's; a control horizon
changes only the order between this session's chunks and events that
cannot touch them.  (One theoretical exception: a finishing chunk claims
its number inside a window, so a bit-exact time tie with another job's
event could order differently than on the chunked path.  Chunk times are
sums of continuous draws; no fixture or benchmark run has such a tie.)

Every step duration is ``max(floor, mean + scale * z)`` on a standard
normal ``z`` (:class:`~repro.perf.step_time.StepTimeModel`).  A replayed
chunk takes its ``z`` from one ``Generator.standard_normal`` call and its
per-step ``(mean, scale, floor)`` from a memo keyed by GPU and first step
(warm-up phases included), cleared with the speed state on a membership
change.  When enough draws are due before the bound, every replaying
worker is past warm-up on one step-time distribution, and the checkpoint
model draws from another generator, they come from vectorized segments
drawn ahead instead.  A window that ends before using up its last
segment restores the generator's saved ``bit_generator.state`` and
redraws exactly the values it used, so the stream advances exactly as
per-chunk draws would (normal fills consume the bit stream
sequentially).  Segments and staged trace rows are bounded, and the
trace buffers are shrunk to fit when the workload finishes, so the fast
path's peak memory stays close to the chunked path's.
``trace_level="summary"`` swaps the columnar trace for an aggregates-only
:class:`~repro.training.trace.StepRecordSummary` sink — fleet runs that
only consume end-of-run payloads keep O(1) trace memory per job, with
byte-identical payloads.

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

#: Most chunks whose durations one vectorized segment draws, and rows
#: staged before they are flushed to the trace: bounds the fast path's
#: transient memory (arrays of SEGMENT * steps_per_event floats) without
#: changing the draws — segmented ``Generator.standard_normal`` fills
#: consume the bit stream exactly like one big fill.
FASTFORWARD_SEGMENT_CHUNKS = 1024

#: Fewest chunks worth a vectorized segment or a bulk row write.  Below
#: it, per-chunk draws beat a segment plus its rewind, and per-row
#: ``append_row`` calls beat the six column slice assignments of
#: ``extend_rows``.
_SHORT_WINDOW_CHUNKS = 16


#: One scheduled-but-not-completed chunk of a worker, stored as a plain
#: ``(event, steps, start_time)`` tuple — it mirrors what the chunk event's
#: callback closure captures, so the fast-forward path can simulate the
#: completion without the heap, and a tuple keeps the per-chunk bookkeeping
#: of the replay loop allocation-cheap.
_InflightChunk = Tuple[Event, int, float]

#: Replay horizon when no control event (or no other event) is pending.
_UNBOUNDED = (math.inf, math.inf)


def _chunk_sums(model: StepTimeModel, gflops: float, gpu: str, chunks: int,
                steps_per: int, ps_arg: float, slowdown: float) -> List[float]:
    """Durations of ``chunks`` post-warm-up chunks from one block draw.

    Left-to-right accumulation per chunk (column by column) matches the
    scalar ``duration += sample`` loop bit-for-bit; numpy's pairwise
    ``sum`` would not.
    """
    samples = model.sample_steps(gflops, gpu, chunks * steps_per,
                                 start_step_index=WARMUP_STEPS,
                                 ps_utilization=ps_arg, slowdown=slowdown)
    chunk_matrix = samples.reshape(chunks, steps_per)
    acc = chunk_matrix[:, 0].copy()
    for column in range(1, steps_per):
        acc += chunk_matrix[:, column]
    return acc.tolist()


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
        #: Membership epoch and the (slowdown, utilization) memo keyed on
        #: it: both are pure functions of the active-worker set and the PS
        #: count, so they only change when a worker joins/is revoked or a
        #: parameter server is added.
        self._membership_epoch = 0
        self._speed_epoch = -1
        self._speed_cache = (1.0, 0.0, 0.0)
        #: Per-step (mean, scale, floor) draw parameters of one chunk, keyed
        #: by (GPU, first step, capped at WARMUP_STEPS) and memoized
        #: alongside the speed state (same invalidation).
        self._draw_params: Dict[Tuple[str, int],
                                Tuple[Tuple[float, float, float], ...]] = {}

        self.trace_level = trace_level
        self.trace = TrainingTrace(model_name=job.model_name,
                                   cluster_description=cluster.describe(),
                                   start_time=simulator.now,
                                   step_records=(step_sink
                                                 if step_sink is not None
                                                 else make_step_sink(trace_level)))
        self.workers: Dict[str, WorkerState] = {}
        self._inflight: Dict[str, _InflightChunk] = {}
        #: Pending control events (see :meth:`schedule_control`).
        self._controls: List[Event] = []
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
    def schedule_control(self, delay: float,
                         callback: Callable[[Simulator], None],
                         label: str = "") -> Event:
        """Schedule a *control event* of this session.

        Control events are the non-chunk events that read or write the
        session — controller polls, worker revocations, replacement joins,
        fault-injector polls.  They fire through the simulator heap like
        any event; registering them here is what lets a multi-session
        loop replay this session's chunks up to its own next control
        event (:meth:`control_horizon`) instead of the heap top.
        """
        event = self.simulator.schedule(delay, callback, label=label)
        controls = [pending for pending in self._controls
                    if pending._in_queue and not pending.cancelled]
        controls.append(event)
        self._controls = controls
        return event

    def control_horizon(self) -> Tuple[float, float]:
        """``(time, sequence)`` of the next pending control event.

        ``(inf, inf)`` when none is pending.  This is the replay horizon a
        fleet passes to :meth:`fast_forward`.
        """
        horizon = _UNBOUNDED
        for event in self._controls:
            if event._in_queue and not event.cancelled:
                key = (event.time, event.sequence)
                if key < horizon:
                    horizon = key
        return horizon

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
        # A finished trace is read, never appended to: return the growth
        # slack of the columnar buffers (no-op for summary sinks).
        self.trace.step_records.shrink_to_fit()
        for callback in self.on_finished:
            callback(self)

    # ------------------------------------------------------------------
    # Vectorized fast-forward path.
    # ------------------------------------------------------------------
    def _fast_forward(self, max_pops: Optional[int] = None,
                      top: Optional[Event] = None,
                      horizon: Optional[Tuple[float, float]] = None) -> int:
        """Replay chunk completions in one replay window.

        Runs when the next event due — ``top``, the caller's fresh
        ``peek_next()``, or the heap top when ``top`` is ``None`` — is one
        of this session's in-flight chunks, and replays them with
        :meth:`_window_span` in exact (time, sequence) order, consuming the
        same RNG draws at the same points, until the workload finishes,
        the window reaches its bound, or ``max_pops`` completions were
        replayed (each counts like one processed heap event, so
        :meth:`run_to_completion`'s ``max_events`` truncates identically on
        both paths).

        ``horizon``, when given, is the ``(time, sequence)`` key of this
        session's next control event (:meth:`control_horizon`), and the
        caller vouches that no event other than this session's registered
        control events reads or writes the session before it.  Without
        one, the window is bounded by the first other event on the heap.

        Returns:
            The number of chunk completions replayed.
        """
        budget = math.inf if max_pops is None else max_pops
        if (budget <= 0 or self._finished or not self.fast_forward_enabled
                or not self._inflight):
            return 0
        if top is None:
            top = self.simulator.peek_next()
        if not self._is_live_chunk(top):
            return 0
        return self._window_span(budget, horizon, top)

    def _is_live_chunk(self, event: Optional[Event]) -> bool:
        """Whether ``event`` completes one of this session's in-flight
        chunks.

        Chunk completions are the only events a session owns (their labels
        are ``"<worker>:chunk"``), so the ownership tag plus an identity
        check against the worker's in-flight entry decide it in O(1).  An
        owned event that is *not* the worker's current in-flight chunk (a
        stale chunk of a re-started session) counts as foreign: it fires
        through the heap.
        """
        if event is None or event.owner is not self:
            return False
        info = self._inflight.get(event.label[:-6])
        return info is not None and info[0] is event

    def _requeue(self, time: float, sequence: int, worker: WorkerState,
                 steps: int, start_time: float) -> None:
        """Re-materialize one in-flight chunk as a real heap event, keeping
        the sequence number it claimed during a replay."""

        def complete(_sim: Simulator, worker=worker, steps=steps,
                     start_time=start_time) -> None:
            self._complete_chunk(worker, steps, start_time)

        event = self.simulator.schedule_at(time, complete,
                                           label=f"{worker.worker_id}:chunk",
                                           sequence=sequence, owner=self)
        self._inflight[worker.worker_id] = (event, steps, start_time)

    def _window_span(self, budget, horizon: Optional[Tuple[float, float]],
                     top: Event) -> int:
        """Replay this session's chunks due before ``horizon``.

        This is the session's one replay loop.  Other sessions' chunks
        cannot touch this one: only its control events can
        (:meth:`schedule_control`).  The window therefore lifts every
        in-flight chunk due before ``horizon`` off the shared heap and
        replays them, and the successors they schedule, in exact
        ``(time, sequence)`` order on a local heap — the per-process
        lookahead of conservative parallel simulation.  With no
        ``horizon`` it pops this session's chunks off the heap top,
        starting with ``top``, and takes the first other event's
        ``(time, sequence)`` as the horizon — ``(inf, inf)`` when nothing
        else is pending — so the window ends exactly where event-by-event
        execution would hand over.  Successors claim their sequence
        numbers as they are scheduled, so a chunk tied with the horizon on
        time still orders by sequence exactly as on the heap; a successor
        due after the horizon goes straight to the shared heap with the
        number it claimed, as do the chunks left when the pop budget runs
        out.

        The chunk that finishes the workload is replayed only when it is
        the heap top, since finishing releases pool slots to other jobs;
        otherwise the window ends in front of it.

        When at least ``_SHORT_WINDOW_CHUNKS`` draws are due before the
        horizon at the mean pace, every replaying worker is past warm-up on
        one step-time distribution and the checkpoint model draws from
        another generator, successor durations come from vectorized
        segments drawn ahead, sized a little short of those draws so they
        are normally used up (the last few chunks draw one by one).  A
        window that stops inside a segment rewinds the generator to its
        state before that segment and advances it by exactly the draws
        used: normal fills consume the bit stream sequentially, so the
        stream ends where per-chunk draws would have left it.
        """
        sim = self.simulator
        inflight = self._inflight
        workers = self.workers
        # Entries are (time, sequence, worker, steps, start time); unique
        # sequence numbers keep comparisons off the worker objects.
        heap = []
        if horizon is None:
            pop_next, peek_next = sim.pop_next, sim.peek_next
            while True:
                pop_next()
                worker_id = top.label[:-6]
                _event, steps, start_time = inflight.pop(worker_id)
                heap.append((top.time, top.sequence, workers[worker_id],
                             steps, start_time))
                top = peek_next()
                if not self._is_live_chunk(top):
                    break
            # Lifted in heap order, so the list is already a min-heap.
            horizon = _UNBOUNDED if top is None else (top.time, top.sequence)
        else:
            for worker_id, (event, steps, start_time) in inflight.items():
                if (event.time, event.sequence) < horizon:
                    heap.append((event.time, event.sequence,
                                 workers[worker_id], steps, start_time))
                    event.cancel()
            for entry in heap:
                del inflight[entry[2].worker_id]
            heapq.heapify(heap)

        model = self.step_time_model
        gflops = self.job.profile.gflops
        slowdown, _utilization, ps_arg = self._span_speed_state()
        steps_per = self.steps_per_event
        total = self.job.total_steps
        # Every chunk, lifted or scheduled, carries ``steps_per`` steps, so
        # only a chunk popped at ``cluster >= finish_from`` can finish.
        finish_from = total - steps_per
        next_checkpoint = self._next_checkpoint_step
        restart_until = self._restart_until
        draw_params = self._draw_params
        standard_normal = model.generator.standard_normal
        claim_sequence = sim.claim_sequence
        extend_rows = self.trace.step_records.extend_rows
        heappop, heappush = heapq.heappop, heapq.heappush

        # Segments are sized each time one is used up by a worker past
        # warm-up (every such chunk while another replaying worker is still
        # in warm-up), until a size comes out short: the draws left before
        # the horizon shrink with every replayed chunk, so it would stay
        # short.
        sizing = True
        segment_state = None
        sums: List[float] = []
        used = count = 0

        rows: List[Tuple[str, float, float, int, int, int]] = []
        flush_at = FASTFORWARD_SEGMENT_CHUNKS
        pops = 0
        finished = False
        cluster_start = cluster = self._cluster_steps
        time = sim.now
        while heap and pops < budget:
            if cluster >= finish_from:
                top = sim.peek_next()
                if top is not None and (top.time, top.sequence) < heap[0][:2]:
                    break
            time, _sequence, worker, steps, start_time = heappop(heap)
            # --- completion (mirrors _complete_chunk) ---
            worker.steps_done += steps
            cluster += steps
            pops += 1
            rows.append((worker.worker_id, start_time, time, steps, cluster,
                         worker.steps_done))
            if pops == flush_at:
                extend_rows(*zip(*rows))
                rows.clear()
                flush_at += FASTFORWARD_SEGMENT_CHUNKS
            if cluster >= total:
                finished = True
                break
            checkpoint_delay = 0.0
            if worker.is_chief and cluster >= next_checkpoint:
                self._cluster_steps = cluster
                checkpoint_delay = self._perform_checkpoint(worker, now=time)
                next_checkpoint = self._next_checkpoint_step
            # --- next chunk (mirrors _schedule_chunk/_chunk_duration) ---
            steps_done = worker.steps_done
            if used == count and sizing and steps_done >= WARMUP_STEPS:
                # A segment one chunk per worker short of the draws due
                # before the horizon at the mean pace.  No worker's next
                # chunk is due before ``time``, so ``span * lead`` bounds
                # those draws without the sum.
                used = count = 0
                lead = len(heap) + 1
                span = horizon[0] - time
                chunk_mean = (steps_per * max(1.0, slowdown)
                              * model.mean_step_time(gflops, worker.gpu_name))
                if span * lead < (_SHORT_WINDOW_CHUNKS + lead) * chunk_mean:
                    sizing = False
                elif all(entry[2].steps_done + entry[3] >= WARMUP_STEPS
                         for entry in heap):
                    size = min(FASTFORWARD_SEGMENT_CHUNKS,
                               -(-(total - cluster) // steps_per))
                    ahead = (span + sum(horizon[0] - entry[0]
                                        for entry in heap)) / chunk_mean
                    if ahead - lead < size:
                        size = int(ahead) - lead
                    # A checkpoint model on the step-time generator
                    # interleaves its draws with the chunks', so that
                    # session never draws ahead.
                    if (size < _SHORT_WINDOW_CHUNKS
                            or self.checkpoint_time_model.generator
                            is model.generator
                            or len({(model.mean_step_time(gflops, gpu),
                                     model.noise_cov(gpu))
                                    for gpu in {entry[2].gpu_name
                                                for entry in heap}
                                    | {worker.gpu_name}}) > 1):
                        sizing = False
                    else:
                        count = size
                        segment_state = model.generator.bit_generator.state
                        sums = _chunk_sums(model, gflops, worker.gpu_name,
                                           count, steps_per, ps_arg, slowdown)
            if used < count:
                duration = sums[used]
                used += 1
            else:
                # Past warm-up every chunk of a GPU draws the same phase.
                first = steps_done if steps_done < WARMUP_STEPS else WARMUP_STEPS
                phase = (worker.gpu_name, first)
                params = draw_params.get(phase)
                if params is None:
                    params = draw_params[phase] = model.step_draw_params(
                        gflops, worker.gpu_name, first, steps_per,
                        ps_utilization=ps_arg, slowdown=slowdown).rows
                duration = 0.0
                for (loc, scale, floor), z in zip(
                        params, standard_normal(steps_per).tolist()):
                    # Inline max(floor, loc + scale * z): the same floats
                    # as sample_steps' array transform and np.maximum.
                    value = loc + scale * z
                    duration += value if value > floor else floor
            delay = checkpoint_delay + duration
            if time + checkpoint_delay < restart_until:
                delay += restart_until - (time + checkpoint_delay)
            successor = (time + delay, claim_sequence(), worker, steps_per,
                         time + delay - duration)
            if successor < horizon:
                heappush(heap, successor)
            else:
                self._requeue(*successor)

        self._cluster_steps = cluster
        if used < count:
            # Rewind: advance the stream by exactly the draws used.
            model.generator.bit_generator.state = segment_state
            standard_normal(used * steps_per)
        if pops:
            if len(rows) < _SHORT_WINDOW_CHUNKS:
                append_row = self.trace.step_records.append_row
                for row in rows:
                    append_row(*row)
            else:
                extend_rows(*zip(*rows))
            self.ps_group.record_updates(cluster - cluster_start)
            self.fast_forward_chunks += pops
            self.fast_forward_spans += 1
        if finished:
            # Chunks still in flight are dropped here (the local heap) or
            # cancelled by _finish (the shared heap), as the chunked path
            # cancels them; their RNG draws were already consumed at
            # scheduling time on both paths.
            sim.advance_to(time)
            self._finish()
            return pops
        for entry in heap:
            self._requeue(*entry)
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

        self.schedule_control(overhead_seconds, join,
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
                     top: Optional[Event] = None,
                     horizon: Optional[Tuple[float, float]] = None) -> int:
        """Public fast-forward hook for multi-session drivers.

        ``top``, when given, must be the caller's fresh ``peek_next()``
        result, so the heap is not peeked a second time.  ``horizon``
        bounds the replay window by the session's next control event
        (:meth:`control_horizon`) instead of the first other event on the
        heap; see :meth:`_fast_forward`.

        :mod:`repro.scenarios` runs many sessions on one simulator; each
        session can only replay while the next event due is one of its
        *own* chunk completions, so a driver either maps the heap top to its
        owning session via the event ownership tags (the fleet's wake-set
        loop) or simply offers sessions a turn.  Returns the number of chunk
        completions replayed (0 when the next event is foreign, the session
        is finished, or fast-forward is disabled).
        """
        return self._fast_forward(max_pops, top=top, horizon=horizon)

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
