"""Sharded multi-process fleet execution with deterministic cross-shard messaging.

One :class:`~repro.scenarios.fleet.FleetRun` multiplexes every job of a
scenario on a single simulator in a single process.  This module partitions
a fleet across N worker processes — *shards* — while keeping the payload
**bit-identical** to the single-process run, so sharding is purely an
execution knob (``REPRO_FLEET_SHARDS`` / ``shards=``), never a modeling
decision.

Ownership
---------
The fleet's wake-set loop already tags every chunk event with its owning
session (``Event.owner``) so the heap top names the one session able to
progress.  Sharding generalizes that ownership one level up:

* **jobs and pool cells are partitioned by connected component.**  Two jobs
  that share a ``(gpu, region)`` :class:`~repro.scenarios.pool.TransientPool`
  cell interact through grants, queues, and warm reuse at event granularity,
  so they must stay on one simulator; jobs in different components never
  touch each other's cells.  :func:`partition_scenario` computes the
  components of the job/cell graph and bin-packs them across shards by
  simulated weight.  Every cell is therefore *owned* by exactly one shard —
  pool FIFO invariants, acquisition order, and per-cell counters are all
  shard-local and merge exactly (``TransientPool.merge_stats``).  Adaptive
  placement couples every same-GPU cell by design, so it always forms one
  component (and runs single-process).
* **each shard runs its own simulator + wake-set loop** over its local
  jobs, riding the existing fast-forward path unchanged.  Within a shard
  the event-ownership invariant holds exactly as in a single-process fleet.

The one cross-shard coupling: the shared revocation stream
----------------------------------------------------------
Worker lifetimes are drawn from one :class:`~repro.cloud.revocation.RevocationModel`
whose generator is consumed in **global event order**, and each draw
consumes a variable amount of the stream (a survivor check, plus candidate
draws only when revoked) — so draw *values* depend on draw *order*, and the
stream cannot be split or pre-advanced per shard.  Sharded fleets therefore
route every draw through a **draw service** in the parent process, which
owns the one true model and replays the exact single-process call sequence:

* a shard needing draws sends a *draw request* ``(time, rank, calls)`` over
  its pipe and blocks; ``rank`` is the job's global fleet index, which is
  exactly the single-process tie-break for simultaneous draws (launch draws
  at equal start delays happen in job wiring order).
* requests are queued in a :class:`DeterministicMessageQueue` and granted
  in ``(time, rank)`` order — never in OS arrival order.  A request is
  granted only once every other shard provably cannot need an earlier draw:
  it is done, is itself blocked on a later request, or has reported a
  progress lower bound past the request's time.  Shards report that bound
  (their simulator's :meth:`~repro.simulation.engine.Simulator.next_event_time`)
  every ``_progress_interval`` processed events — the *epoch barriers* of
  the conductor: between two reports a shard can only fire events, and
  hence request draws, at or after its last reported bound, so the barrier
  makes the conservative grant order safe regardless of OS scheduling.
  Replay windows run a job's chunks past the heap top, but a chunk draws
  nothing from the shared stream unless it finishes the job, and windows
  complete a finishing chunk only at the heap top — so the bound holds.
* the parent runs the calls through the same
  :func:`~repro.scenarios.fleet.draw_fates` the single-process fleet runs
  in place (same arguments, hence the same stream consumption) and replies
  with the outcomes plus the first draw's global sequence number.

Supervision: restart-replay
---------------------------
Shard death must not abort the fleet.  The parent supervises its children
through the channels it already owns: an EOF or error on a shard's pipe,
a nonzero exit, or a missed heartbeat deadline (no message for
``heartbeat_seconds`` while *not* blocked on a pending grant — progress
reports double as heartbeats) marks the shard dead.  Recovery leans on
determinism instead of checkpoints:

* the draw service appends every grant it sends to a per-shard **grant
  log** ``(calls, outcomes, base rank)`` — the only nondeterministic
  input a shard ever consumes;
* a dead shard is reaped (terminate + join) and respawned with the same
  sub-scenario, streams seed, and spool config, plus a bumped
  *incarnation* counter;
* the respawn re-executes from simulated time zero and re-issues the
  exact same draw-request sequence; the parent answers those requests
  **from the log** (verifying the replayed calls match, without touching
  the revocation model) until the log is exhausted, then routes the
  shard back onto the live draw service.

Because grants are logged at send time and the model is consumed at
grant time, a crash between grant and receipt loses nothing — the replay
re-delivers the logged outcome.  Stale queue entries from a dead
incarnation are skipped at grant time (each queued request carries its
sender's incarnation).  The restart budget (``max_restarts`` /
``REPRO_SHARD_RESTARTS``, per fleet) bounds the loop: once
exhausted, the run raises :class:`~repro.errors.SimulationError` and the
driver's ``finally`` reaps every child.  Deterministic child *errors*
(the ``error`` message, e.g. a bad model name) still fail fast without a
restart — replaying a deterministic failure would only repeat it.

The :mod:`repro.chaos` harness drives this machinery: ``shard_crash``
faults ``os._exit`` a worker at its nth draw request and ``drop_grant``
faults swallow a grant reply (wedging the shard until the heartbeat
fires), both verified bit-identical to the crash-free golden fixture in
``tests/test_chaos.py`` and the CI chaos-smoke job.

Merging
-------
Each shard returns its ordinary fleet payload plus its revocation records
``(revoke time, global draw rank, local hour)``.  The parent reassembles
the single-process payload exactly, through the same
:func:`~repro.scenarios.fleet.fleet_payload`: per-job entries in global
job order, pool stats merged cell-by-cell (cells are disjoint by
ownership), and the records ordered by ``(revoke time, draw rank)`` — the
draw rank reproduces the single-process heap tie-break because revocation
events are scheduled immediately after their draws, in draw order.

Contracts (pinned by ``tests/test_shard.py`` and the golden matrix):

* payloads bit-identical to single-process across ``REPRO_FLEET_SHARDS``
  x ``REPRO_CORE_FASTFORWARD`` x ``REPRO_FLEET_TRACE_LEVEL``;
* ``shards=1`` (the default) byte-identically reuses the single-process
  code path — same streams, same seeds, same sweep cache entries;
* fleets that form one component (every named single-region scenario, and
  any adaptive fleet) also run the single-process path verbatim, whatever
  the shard count.

``benchmarks/fleet_sharded_baseline.py`` records the throughput baseline
(``BENCH_fleet_sharded.json``); CI runs it with ``--quick --check`` under
``REPRO_FLEET_SHARDS=2`` as a regression gate.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import chaos, config
from repro.cloud.revocation import RevocationModel
from repro.errors import ConfigurationError, SimulationError
from repro.scenarios.fleet import (DrawCall, FleetRun, draw_fates, fleet_epoch,
                                   fleet_payload)
from repro.scenarios.pool import TransientPool
from repro.scenarios.spec import PoolKey, ScenarioSpec
from repro.simulation.rng import RandomStreams
from repro.workloads.catalog import ModelCatalog

__all__ = [
    "DeterministicMessageQueue",
    "ShardFleetRun",
    "ShardGroup",
    "ShardMessage",
    "ShardedFleetRun",
    "partition_scenario",
    "run_fleet_sharded",
]

# ---------------------------------------------------------------------------
# Deterministic cross-shard messaging.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard message, ordered by ``(time, rank, shard, seq)``.

    ``time`` and ``rank`` carry the simulation-level ordering (event time,
    then the global job index as the tie-break); ``shard`` and ``seq`` are
    the sender's identity and its per-sender send counter.  Because a shard
    sends at most one in-flight draw request and numbers its messages
    itself, the full key is a total order fixed by the *senders* — two
    messages compare the same however the OS interleaves their arrival.
    """

    time: float
    rank: int
    shard: int
    seq: int
    payload: Any = None

    @property
    def key(self) -> Tuple[float, int, int, int]:
        return (self.time, self.rank, self.shard, self.seq)


class DeterministicMessageQueue:
    """A drain queue whose pop order is independent of push order.

    Messages drain in :attr:`ShardMessage.key` order — simulation time,
    then job rank, then sender shard, then the sender's own sequence
    number.  Pushing the same set of messages in any arrival order yields
    the same pop sequence (property-tested in
    ``tests/test_property_based.py``), which is what makes the parent's
    draw service — and hence every cross-shard random draw — deterministic
    under arbitrary OS scheduling.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[Tuple[float, int, int, int], ShardMessage]] = []

    def push(self, message: ShardMessage) -> None:
        heapq.heappush(self._heap, (message.key, message))

    def peek(self) -> ShardMessage:
        if not self._heap:
            raise IndexError("peek from an empty DeterministicMessageQueue")
        return self._heap[0][1]

    def pop(self) -> ShardMessage:
        if not self._heap:
            raise IndexError("pop from an empty DeterministicMessageQueue")
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# ---------------------------------------------------------------------------
# Partitioning.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardGroup:
    """One shard's slice of a fleet: jobs, owned pool cells, and weight."""

    index: int
    job_indices: Tuple[int, ...]
    cells: Tuple[PoolKey, ...]
    weight: int


def _job_weight(scenario: ScenarioSpec, job_index: int) -> int:
    """Simulated-load proxy for balancing: steps x workers."""
    job = scenario.jobs[job_index]
    return job.total_steps * len(job.workers)


def partition_scenario(scenario: ScenarioSpec,
                       shards: int) -> List[ShardGroup]:
    """Partition a fleet's jobs and pool cells across up to ``shards`` groups.

    Jobs sharing a pool cell interact at event granularity and must stay
    together, so the unit of distribution is a *connected component* of
    the job/cell graph.  Components are balanced across shards greedily by
    descending weight (steps x workers, a proxy for event count) onto the
    least-loaded shard — fully deterministic, no RNG involved.  Pool cells
    no job uses are owned by shard 0, so the merged payload reports the
    same idle cells as the single-process run.

    Adaptive placement lets any job reach any same-GPU cell, coupling the
    whole fleet into one component by design, so it always yields a single
    group (which the driver then runs on the ordinary single-process path).
    """
    shards = config.FLEET_SHARDS.check(shards, "shards")
    total = len(scenario.jobs)
    all_cells = tuple(sorted(scenario.pool_capacity))
    whole = [ShardGroup(index=0, job_indices=tuple(range(total)),
                        cells=all_cells,
                        weight=sum(_job_weight(scenario, i)
                                   for i in range(total)))]
    if shards == 1 or total == 1 or scenario.placement == "adaptive":
        return whole

    # Union-find over jobs: two jobs sharing any (gpu, region) cell merge.
    parent = list(range(total))

    def find(index: int) -> int:
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    cell_user: Dict[PoolKey, int] = {}
    for job_index, job in enumerate(scenario.jobs):
        for cell in job.workers:
            if cell in cell_user:
                parent[find(job_index)] = find(cell_user[cell])
            else:
                cell_user[cell] = job_index
    components: Dict[int, List[int]] = {}
    for job_index in range(total):
        components.setdefault(find(job_index), []).append(job_index)
    if len(components) == 1:
        return whole

    # Greedy balance: heaviest component first onto the least-loaded bin
    # (ties: lowest bin index), all deterministic.
    ordered = sorted(components.values(),
                     key=lambda ids: (-sum(_job_weight(scenario, i)
                                           for i in ids), ids[0]))
    bins: List[List[int]] = [[] for _ in range(min(shards, len(ordered)))]
    loads = [0] * len(bins)
    for ids in ordered:
        target = loads.index(min(loads))
        bins[target].extend(ids)
        loads[target] += sum(_job_weight(scenario, i) for i in ids)

    spare = sorted(set(scenario.pool_capacity) - set(cell_user))
    groups: List[ShardGroup] = []
    for raw in bins:
        if not raw:
            continue
        job_indices = tuple(sorted(raw))
        cells = {cell for index in job_indices
                 for cell in scenario.jobs[index].workers}
        if not groups:
            cells.update(spare)
        groups.append(ShardGroup(
            index=len(groups), job_indices=job_indices,
            cells=tuple(sorted(cells)),
            weight=sum(_job_weight(scenario, i) for i in job_indices)))
    return groups


# ---------------------------------------------------------------------------
# Worker (shard) side.
# ---------------------------------------------------------------------------
class ShardFleetRun(FleetRun):
    """One shard's slice of a fleet, revocation draws routed to the parent.

    Args:
        scenario: The shard's sub-scenario
            (:meth:`~repro.scenarios.spec.ScenarioSpec.shard_subset`).
        streams: Root fleet streams rebuilt from the fleet seed — job
            streams are name-keyed, so each shard derives exactly the
            streams of its own jobs and touches no other.
        conn: Pipe to the parent draw service.
        job_ranks: Global fleet index of each sub-scenario job, in order.

    Everything else — pool, controllers, wake-set loop, fast-forward,
    draw sites, revocation records — is the stock
    :class:`~repro.scenarios.fleet.FleetRun`; only where the draws run
    (:meth:`_request_draws`) and the progress reports differ.
    """

    def __init__(self, scenario: ScenarioSpec, streams: RandomStreams, *,
                 conn: Any, job_ranks: Sequence[int],
                 catalog: Optional[ModelCatalog] = None,
                 fast_forward: Optional[bool] = None,
                 trace_level: Optional[str] = None,
                 telemetry: Optional[Any] = None,
                 chaos_monitor: Optional[chaos.ChaosMonitor] = None):
        super().__init__(scenario, streams, catalog=catalog,
                         fast_forward=fast_forward, trace_level=trace_level,
                         telemetry=telemetry, job_ranks=job_ranks)
        if self.advisor is not None:
            raise ConfigurationError(
                "adaptive placement couples every cell; it cannot run on a "
                "shard (partition_scenario never produces one)")
        self._conn = conn
        #: Counts draw requests and dies (``os._exit``) when a
        #: ``shard_crash`` fault's trigger comes up; ``None`` outside
        #: chaos runs.
        self._chaos = chaos_monitor

    # -- draw service client -------------------------------------------
    def _report_progress(self) -> None:
        bound = self.simulator.next_event_time()
        self._conn.send(("progress",
                         math.inf if bound is None else bound))

    def _request_draws(self, rank: int, calls: List[DrawCall]) -> Tuple[List, int]:
        """Block until the parent grants this shard's draws, in order."""
        if self._chaos is not None:
            fault = self._chaos.tick()
            if fault is not None:
                chaos.chaos_exit(fault, site="shard_draw",
                                 draw_request=self._chaos.count,
                                 time=self.simulator.now, rank=rank)
        self._conn.send(("draw", self.simulator.now, rank, calls))
        reply = self._conn.recv()
        if reply[0] != "grant":
            raise SimulationError(
                f"draw service protocol violation: expected grant, got "
                f"{reply[0]!r}")
        outcomes, base_rank = reply[1]
        return outcomes, base_rank


def _spooling(telemetry, part: int):
    """The telemetry spool for ``part`` as a context manager; a no-op
    context yielding ``None`` when no telemetry is attached."""
    if telemetry is None:
        return contextlib.nullcontext()
    from repro.telemetry.writer import TelemetrySpool
    return TelemetrySpool(telemetry, part=part)


def _shard_worker(conn, scenario: ScenarioSpec, group: ShardGroup,
                  epoch: float, seed: int, catalog, fast_forward,
                  trace_level, telemetry=None, incarnation: int = 0) -> None:
    """Process entry point: run one shard and report back over ``conn``.

    ``incarnation`` is this process's spawn generation (0 on the first
    launch, bumped by the supervisor on every restart); chaos faults match
    it so an injected crash does not re-fire after restart-replay.
    """
    try:
        plan = chaos.active_plan()
        monitor = None
        if plan is not None:
            monitor = plan.monitor("shard_crash", shard=group.index,
                                   incarnation=incarnation)
        # Each shard appends to its own part file (numbered by shard
        # index) in the shared directory; members are keyed by global job
        # rank, so the parts together hold exactly the single-process
        # members.  A restarted shard reopens and truncates its part,
        # dropping the unsealed bytes of the incarnation that crashed, and
        # deterministically rewrites it on replay.
        with _spooling(telemetry, group.index) as spool:
            sub = scenario.shard_subset(group.job_indices, group.cells,
                                        epoch_hour_utc=epoch)
            run = ShardFleetRun(sub, RandomStreams(seed=seed), conn=conn,
                                job_ranks=group.job_indices, catalog=catalog,
                                fast_forward=fast_forward,
                                trace_level=trace_level, telemetry=spool,
                                chaos_monitor=monitor)
            payload = run.run()
        conn.send(("done", (payload, run.revocation_records,
                            run.events_processed)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent (conductor) side.
# ---------------------------------------------------------------------------
class _ShardHandle:
    """Parent-side bookkeeping for one shard process (all incarnations)."""

    __slots__ = ("group", "process", "conn", "bound", "pending", "done",
                 "result", "incarnation", "grants", "replay_index",
                 "last_seen")

    def __init__(self, group: ShardGroup):
        self.group = group
        self.process = None
        self.conn = None
        #: Progress lower bound: no future draw request from this shard
        #: can carry a time below it.  Monotone within one incarnation;
        #: reset to zero on restart (the respawn re-executes from t=0).
        self.bound = 0.0
        self.pending: Optional[ShardMessage] = None
        self.done = False
        self.result = None
        #: Spawn generation; bumped on every supervised restart.
        self.incarnation = 0
        #: Grant log: ``(calls, outcomes, base_rank)`` per granted draw
        #: request, in grant order — the shard's only nondeterministic
        #: input, hence the entire restart-replay state.
        self.grants: List[Tuple[Any, List[Any], int]] = []
        #: Next grant-log entry a restarted incarnation replays.
        self.replay_index = 0
        #: ``time.monotonic()`` of the last message received (or grant
        #: sent); the heartbeat supervisor's clock.
        self.last_seen = 0.0


class ShardedFleetRun:
    """Partition, conduct, and merge one sharded fleet run.

    Mirrors :class:`~repro.scenarios.fleet.FleetRun`'s construction surface
    plus ``shards``; :meth:`run` returns the fleet payload and leaves
    ``events_processed`` (summed across shards) for the benchmark harness.
    Fleets whose partition yields a single group — ``shards=1``, one
    connected component, or adaptive placement — run the stock
    single-process :class:`~repro.scenarios.fleet.FleetRun` verbatim, which
    is the ``shards=1`` byte-identity contract.

    Supervision knobs (see the module docstring's restart-replay design;
    ``None`` reads the :mod:`repro.config` knob): ``max_restarts``
    (``REPRO_SHARD_RESTARTS``) bounds supervised respawns per fleet and
    ``heartbeat_seconds`` (``REPRO_SHARD_HEARTBEAT_SECONDS``) is the
    silence deadline after which a shard is declared dead.
    :attr:`restarts` records every supervised restart for observability.
    """

    def __init__(self, scenario: ScenarioSpec, streams: RandomStreams,
                 catalog: Optional[ModelCatalog] = None,
                 fast_forward: Optional[bool] = None,
                 trace_level: Optional[str] = None,
                 shards: Optional[int] = None,
                 telemetry: Optional[Any] = None,
                 max_restarts: Optional[int] = None,
                 heartbeat_seconds: Optional[float] = None):
        self.scenario = scenario
        self.streams = streams
        self.catalog = catalog
        self.fast_forward = fast_forward
        self.trace_level = trace_level
        #: Optional :class:`repro.telemetry.writer.TelemetryConfig` — a
        #: picklable spool description each shard (or the single-process
        #: fallback) opens for itself.
        self.telemetry = telemetry
        self.shards = config.FLEET_SHARDS.resolve(shards, "shards")
        self.max_restarts = config.SHARD_RESTARTS.resolve(max_restarts,
                                                          "max_restarts")
        self.heartbeat_seconds = config.SHARD_HEARTBEAT_SECONDS.resolve(
            heartbeat_seconds, "heartbeat_seconds")
        self.groups = partition_scenario(scenario, self.shards)
        self.events_processed = 0
        #: One record per supervised restart: shard index, incarnation,
        #: reason, exit code, and how many grants were replayed.
        self.restarts: List[Dict[str, Any]] = []
        self._restarts_used = 0
        self._context = None
        self._epoch: Optional[float] = None
        self._drop_monitors: Dict[int, chaos.ChaosMonitor] = {}

    def run(self) -> Dict[str, Any]:
        """Run the fleet and return the (merged) JSON payload."""
        if len(self.groups) == 1:
            with _spooling(self.telemetry, 0) as spool:
                run = FleetRun(self.scenario, self.streams,
                               catalog=self.catalog,
                               fast_forward=self.fast_forward,
                               trace_level=self.trace_level,
                               telemetry=spool)
                payload = run.run()
            self.events_processed = run.events_processed
            return payload
        # The one epoch draw the single-process run would make happens
        # here, once, and every shard inherits its value explicitly.
        epoch = fleet_epoch(self.scenario, self.streams)
        model = RevocationModel(rng=self.streams.get("revocation"))
        results = self._conduct(epoch, model)
        return self._merge(results)

    # -- process management --------------------------------------------
    def _spawn(self, handle: _ShardHandle, epoch: float) -> None:
        """(Re)launch one shard process over a fresh pipe."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker,
            args=(child_conn, self.scenario, handle.group, epoch,
                  self.streams.seed, self.catalog, self.fast_forward,
                  self.trace_level, self.telemetry, handle.incarnation),
            name=(f"repro-fleet-shard-{handle.group.index}"
                  f".{handle.incarnation}"))
        handle.process = process
        handle.conn = parent_conn
        process.start()
        child_conn.close()
        handle.last_seen = time.monotonic()

    def _reap(self, handle: _ShardHandle) -> Optional[int]:
        """Close, terminate, and join one shard; returns its exit code."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        process = handle.process
        if process is None:
            return None
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
        process.join()
        exitcode = process.exitcode
        # Release the sentinel descriptor now: a raised SimulationError's
        # traceback would otherwise keep the process object alive.
        process.close()
        handle.process = None
        return exitcode

    def _restart(self, handle: _ShardHandle, reason: str) -> None:
        """Reap a dead shard and respawn it for restart-replay.

        Raises :class:`~repro.errors.SimulationError` once the fleet's
        restart budget is exhausted; the driver's ``finally`` then reaps
        every remaining child.
        """
        exitcode = self._reap(handle)
        if self._restarts_used >= self.max_restarts:
            raise SimulationError(
                f"fleet shard {handle.group.index} died ({reason}, exit "
                f"code {exitcode}) and the restart budget "
                f"({self.max_restarts}) is exhausted")
        self._restarts_used += 1
        handle.incarnation += 1
        handle.pending = None
        handle.bound = 0.0
        handle.replay_index = 0
        record = {"shard": handle.group.index,
                  "incarnation": handle.incarnation, "reason": reason,
                  "exitcode": exitcode, "grants_logged": len(handle.grants)}
        self.restarts.append(record)
        chaos.log_event("shard_restart", **record)
        self._spawn(handle, self._epoch)

    def _conduct(self, epoch: float, model: RevocationModel) -> List[Tuple]:
        self._context = multiprocessing.get_context()
        self._epoch = epoch
        plan = chaos.active_plan()
        handles = [_ShardHandle(group) for group in self.groups]
        if plan is not None:
            for handle in handles:
                monitor = plan.monitor("drop_grant",
                                       shard=handle.group.index)
                if monitor:
                    self._drop_monitors[handle.group.index] = monitor
        try:
            for handle in handles:
                self._spawn(handle, epoch)
            return self._service_loop(handles, model)
        finally:
            for handle in handles:
                self._reap(handle)

    def _service_loop(self, handles: List[_ShardHandle],
                      model: RevocationModel) -> List[Tuple]:
        """Drain shard messages, supervise children, grant draws in order."""
        from multiprocessing.connection import wait as connection_wait

        queue = DeterministicMessageQueue()
        sequences = [0] * len(handles)
        draw_count = 0
        poll_seconds = min(1.0, self.heartbeat_seconds / 4.0)
        while any(not handle.done for handle in handles):
            # conn -> handle is rebuilt per iteration: restarts swap pipes.
            by_conn = {handle.conn: handle for handle in handles
                       if not handle.done}
            ready = connection_wait(list(by_conn), timeout=poll_seconds)
            for conn in ready:
                handle = by_conn[conn]
                if handle.conn is not conn:  # restarted by an earlier peer
                    continue  # pragma: no cover - needs a same-tick race
                try:
                    while True:
                        message = conn.recv()
                        handle.last_seen = time.monotonic()
                        self._handle_message(handle, message, queue,
                                             sequences)
                        if handle.done or not conn.poll():
                            break
                except (EOFError, OSError):
                    if not handle.done:
                        self._restart(handle, "pipe closed")
            if not ready:
                self._check_heartbeats(handles)
            draw_count = self._grant_ready(handles, queue, model, draw_count)
        return [handle.result for handle in handles]

    def _check_heartbeats(self, handles: List[_ShardHandle]) -> None:
        """Restart shards silent past the deadline (and not awaiting us).

        A shard with a pending request is blocked on *our* grant, so its
        silence is expected; anything else should be computing and
        reporting progress every ``_progress_interval`` events.  A dead
        process is restarted immediately; a live-but-wedged one (e.g. a
        chaos-dropped grant reply left it blocked on a pipe nobody will
        write) is terminated first by the reap inside the restart.
        """
        now = time.monotonic()
        for handle in handles:
            if handle.done or handle.pending is not None:
                continue
            alive = handle.process is not None and handle.process.is_alive()
            if not alive or now - handle.last_seen > self.heartbeat_seconds:
                self._restart(
                    handle, "process died" if not alive
                    else f"heartbeat deadline "
                         f"({self.heartbeat_seconds:g}s) missed")

    def _handle_message(self, handle: _ShardHandle, message: Tuple,
                        queue: DeterministicMessageQueue,
                        sequences: List[int]) -> None:
        kind = message[0]
        if kind == "progress":
            handle.bound = max(handle.bound, message[1])
        elif kind == "draw":
            _, event_time, rank, calls = message
            if handle.replay_index < len(handle.grants):
                self._replay_grant(handle, calls)
                return
            index = handle.group.index
            request = ShardMessage(time=event_time, rank=rank, shard=index,
                                   seq=sequences[index],
                                   payload=(handle, calls,
                                            handle.incarnation))
            sequences[index] += 1
            handle.pending = request
            handle.bound = max(handle.bound, event_time)
            queue.push(request)
        elif kind == "done":
            handle.done = True
            handle.bound = math.inf
            handle.result = message[1]
        elif kind == "error":
            raise SimulationError(
                f"fleet shard {handle.group.index} failed:\n{message[1]}")
        else:  # pragma: no cover - future-proofing
            raise SimulationError(f"unknown shard message kind {kind!r}")

    def _replay_grant(self, handle: _ShardHandle, calls: Any) -> None:
        """Answer a restarted shard's draw request from its grant log.

        The revocation model is *not* consumed — these draws were already
        executed for a previous incarnation; the log re-delivers their
        outcomes.  The replayed request must match the logged one call
        for call, or the shard diverged from its own history and exact
        recovery is impossible.
        """
        logged_calls, outcomes, base_rank = handle.grants[handle.replay_index]
        if calls != logged_calls:
            raise SimulationError(
                f"fleet shard {handle.group.index} diverged during "
                f"restart-replay: grant #{handle.replay_index} was logged "
                f"for {logged_calls!r} but the respawn requested {calls!r}")
        handle.replay_index += 1
        try:
            handle.conn.send(("grant", (outcomes, base_rank)))
        except OSError:  # pragma: no cover - died again mid-replay
            pass  # the supervisor will see the EOF and restart again

    def _grant_ready(self, handles: List[_ShardHandle],
                     queue: DeterministicMessageQueue,
                     model: RevocationModel, draw_count: int) -> int:
        """Grant every pending draw whose global order is already decided.

        The queue top is the earliest ``(time, rank)`` pending request; it
        is safe to grant once every *other* shard either is done, is itself
        blocked on a later request, or has a progress bound strictly past
        the request's time (its future draws all happen later).  Granting
        may unblock a shard whose next request is again the minimum, so
        this loops until the top is no longer provably next.
        """
        while queue:
            request = queue.peek()
            requester, calls, incarnation = request.payload
            if incarnation != requester.incarnation:
                # A request from a dead incarnation; the respawn re-issues
                # it (and is answered from the grant log or granted live).
                queue.pop()
                continue
            safe = True
            for other in handles:
                if other is requester or other.done:
                    continue
                if other.pending is not None:
                    # The queue top is the global minimum, so any other
                    # pending request is provably later.
                    continue
                if other.bound > request.time:
                    continue
                safe = False
                break
            if not safe:
                return draw_count
            queue.pop()
            requester.pending = None
            outcomes = draw_fates(model, calls)
            # Log before sending: a grant is part of the shard's history
            # the moment the model is consumed, delivered or not.
            base_rank = draw_count
            requester.grants.append((calls, outcomes, base_rank))
            requester.replay_index = len(requester.grants)
            draw_count += len(outcomes)
            monitor = self._drop_monitors.get(requester.group.index)
            fault = monitor.tick() if monitor is not None else None
            if fault is not None:
                # Injected reply drop: the shard stays blocked on recv
                # until the heartbeat supervisor restarts it, and the
                # replay re-delivers this very grant from the log.
                chaos.log_event("injected_drop_grant",
                                shard=requester.group.index,
                                grant=len(requester.grants),
                                fault=fault.to_entry())
                continue
            try:
                requester.conn.send(("grant", (outcomes, base_rank)))
            except OSError:
                # The shard died between request and grant; the EOF path
                # restarts it and the log replays this grant.
                continue
            requester.last_seen = time.monotonic()
        return draw_count

    # -- payload merge -------------------------------------------------
    def _merge(self, results: List[Tuple]) -> Dict[str, Any]:
        """Reassemble the single-process payload from per-shard results."""
        payloads = [result[0] for result in results]
        self.events_processed = sum(result[2] for result in results)
        jobs: List[Optional[Dict[str, Any]]] = [None] * len(self.scenario.jobs)
        for group, payload in zip(self.groups, payloads):
            for rank, entry in zip(group.job_indices, payload["jobs"]):
                jobs[rank] = entry
        pool_stats = TransientPool.merge_stats(
            [payload["pool"] for payload in payloads])
        # (time, draw rank) reproduces the single-process append order:
        # revoke events are scheduled right after their draws, so their
        # heap sequence numbers — the same-time tie-break — are ordered
        # exactly like the global draw ranks.
        records = sorted((record for result in results for record in result[1]),
                         key=lambda record: (record[0], record[1]))
        # Adaptive placement couples every cell, so it never shards.
        return fleet_payload(
            self.scenario, payloads[0]["epoch_hour_utc"], jobs, pool_stats,
            [hour for _time, _rank, hour in records],
            warm=(self.scenario.warm_capacity > 0
                  and self.scenario.warm_seconds > 0),
            placement=False)


def run_fleet_sharded(scenario: ScenarioSpec, streams: RandomStreams,
                      catalog: Optional[ModelCatalog] = None,
                      fast_forward: Optional[bool] = None,
                      trace_level: Optional[str] = None,
                      shards: Optional[int] = None,
                      telemetry: Optional[Any] = None,
                      max_restarts: Optional[int] = None,
                      heartbeat_seconds: Optional[float] = None
                      ) -> Dict[str, Any]:
    """Simulate one fleet across ``shards`` supervised worker processes.

    Drop-in for :func:`repro.scenarios.fleet.run_fleet` with extra knobs:
    ``shards`` (``None`` reads ``REPRO_FLEET_SHARDS``),
    ``telemetry`` (an optional
    :class:`repro.telemetry.writer.TelemetryConfig` every shard spools
    into), and the supervision bounds ``max_restarts`` /
    ``heartbeat_seconds`` (``None`` reads ``REPRO_SHARD_RESTARTS`` /
    ``REPRO_SHARD_HEARTBEAT_SECONDS``).  Payloads are bit-identical to
    the single-process run at every shard count — including runs where
    shards crash and are restart-replayed within the budget; ``shards=1``
    *is* the single-process run.
    """
    return ShardedFleetRun(scenario, streams, catalog=catalog,
                           fast_forward=fast_forward,
                           trace_level=trace_level, shards=shards,
                           telemetry=telemetry, max_restarts=max_restarts,
                           heartbeat_seconds=heartbeat_seconds).run()
