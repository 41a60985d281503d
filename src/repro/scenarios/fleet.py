"""Fleet execution: many concurrent jobs, one simulator, one shared pool.

One *fleet run* places every job of a :class:`~repro.scenarios.spec.ScenarioSpec`
on a single discrete-event simulator.  Each job is a
:class:`~repro.training.session.TrainingSession` driven by a
:class:`FleetJobController` — a :class:`~repro.cmdare.controller.CMDareController`
whose replacement requests go through the shared
:class:`~repro.scenarios.pool.TransientPool` and can therefore be denied or
queued.  Worker lifetimes are drawn from the calibrated
:class:`~repro.cloud.revocation.RevocationModel` at launch time, using each
region's *local* hour-of-day, so fleet revocations reproduce the paper's
Table V / Fig. 8 / Fig. 9 characterization at pool level.

Fleet execution performance
---------------------------
The fleet loop (:meth:`FleetRun.run`) is a *wake-set* scheduler: chunk
events carry an ownership tag (``Event.owner``, see
:mod:`repro.simulation.events`), so when the heap top is a chunk, its
owner is the one session that can make progress, found in O(1); live
finished/stalled counters (updated by session/stall callbacks) replace an
O(N) ``all(...)`` scan.  The woken session then replays a *window*: every
chunk it has due before its own next control event — its controller's
poll, its workers' revocations, its replacement joins, all registered by
:meth:`~repro.training.session.TrainingSession.schedule_control` — however
many other jobs' events fall in between.  Those events cannot read or
write the job, so replaying past them is safe (per-process lookahead, as
in conservative parallel discrete-event simulation).  On the 100-job
``revocation_storm`` reference a replay used to cover about one chunk,
because another job's chunk nearly always sat at the heap top; windows
cover about 150 (``benchmarks/BENCH_fleet.json`` records the count).

Two cases keep the global order.  A job with a queued pool request
(``replacements_pending > 0``) can be granted a slot by any pool event —
another job's finish, a reclaim return, a warm cooldown — so its window
ends at the first other event on the heap.  And a window completes a job's
finishing chunk only when that chunk is the heap top, because finishing
releases pool slots that other jobs' queued requests (and their
revocation draws from the shared stream) consume.  Every event that
touches shared state therefore still fires in global ``(time, sequence)``
order, and payloads stay identical to the chunked path and to the
round-robin oracle; the golden fixtures under ``tests/data/`` pin this.

Pool-aware placement and warm replacements
------------------------------------------
Two opt-in scenario knobs extend the fleet beyond the paper's statically
pinned single-job experiments (both default *off*, and the defaults are
payload-bit-identical to the pre-placement fleets — the golden fixture in
``tests/test_fleet_golden_identity.py`` pins this):

* ``placement="adaptive"`` routes placement decisions through pool-aware
  live-mode :meth:`repro.modeling.launch_advisor.LaunchAdvisor.answer`
  queries: at launch every worker goes to the feasible ``(gpu, region)`` cell
  with the best combined revocation-calibration + queue-pressure score,
  and when a replacement request would find its preferred cell exhausted
  the controller falls back to the next-best feasible cell instead of
  queueing (or being denied) blindly.  Advisor scoring draws from its own
  stable per-option generators — never from the fleet streams — so runs
  stay deterministic.
* ``warm_capacity > 0`` + ``warm_seconds > 0`` enables the pool's warm
  path: reclaimed capacity returns as still-running warm servers and a
  replacement granted from one pays the Fig. 10 warm overhead (plus a
  short re-acquire handshake) instead of a cold boot.

``fleet_cell`` is the module-level sweep cell function: one cell simulates
one whole fleet from its own derived random streams, which is what makes
scenario sweeps serial/parallel bit-identical and resumable through the
:class:`repro.sweeps.SweepRunner` cache.  Beyond ``replicate``,
:func:`build_fleet_spec` can fan a scenario out along ``pool_size``,
``queue_policy``, ``warm_seconds``, ``launch_hour``, and ``placement``
axes (applied per cell by :func:`apply_fleet_axes`); the cost/makespan
frontier across those axes renders via
:func:`repro.scenarios.report.fleet_frontier_table`.  Two more runtime
knobs, both payload-neutral: ``REPRO_FLEET_TRACE_LEVEL=summary``
switches every session to the aggregates-only trace sink so 500-job
fleets keep O(1) trace memory per job, and ``REPRO_FLEET_SHARDS`` > 1 partitions the fleet across worker
processes via :mod:`repro.scenarios.shard` (bit-identical payloads; shard
1, the default, is this module's loop byte-identically unchanged).
Regenerate ``benchmarks/BENCH_fleet.json`` with
``python benchmarks/fleet_baseline.py`` after touching this module (CI
runs ``python benchmarks/fleet_baseline.py --quick --check`` as a
regression gate).
"""

from __future__ import annotations

import math
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import config
from repro.cloud.machines import PARAMETER_SERVER_MACHINE, gpu_worker_machine
from repro.cloud.pricing import default_price_catalog
from repro.cloud.regions import get_region
from repro.cloud.revocation import RevocationModel, RevocationOutcome
from repro.cmdare.controller import CMDareController, ControllerConfig
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.scenarios.pool import DENIED, QUEUED, PoolKey, ReplacementTicket, TransientPool
from repro.scenarios.spec import PLACEMENTS, JobSpec, ScenarioSpec
from repro.schema import choice, real
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.sweeps import SweepCell, SweepRunner, SweepSpec, SweepResult
from repro.training.cluster import WorkerSpec
from repro.training.job import TrainingJob
from repro.training.session import TrainingSession
from repro.training.trace import TeeSink, make_step_sink
from repro.training.worker import WorkerState
from repro.units import wrap_hour
from repro.workloads.catalog import ModelCatalog, default_catalog

#: Heap-event/fast-forward budget per fleet job (matches the single-session
#: default of TrainingSession.run_to_completion).
MAX_EVENTS_PER_JOB = 5_000_000

#: Horizon (hours) the adaptive-placement advisor scores each candidate
#: cell over.  A fixed horizon keeps the per-(gpu, region, hour) scores
#: memoizable, which bounds the Monte-Carlo cost of placement to
#: O(cells x 24) samplings per fleet regardless of how many replacements
#: are redirected.
PLACEMENT_HORIZON_HOURS = 2.0

#: Monte-Carlo samples per placement option (smaller than the standalone
#: advisor default: placement ranks a handful of cells, not a 6x24 grid).
PLACEMENT_SAMPLES = 200

#: The fleet sweep axes :func:`apply_fleet_axes` applies beyond ``replicate``, with their kinds.
FLEET_AXES = {"pool_size": real(gt=0.0, convert=float),
              "queue_policy": choice("deny", "queue"),
              "warm_seconds": real(ge=0.0, convert=float),
              "launch_hour": real(convert=float),
              "placement": choice(*PLACEMENTS)}

#: One revocation draw: ``(gpu, region, local launch hour)``.
DrawCall = Tuple[str, str, float]


def fleet_epoch(scenario: ScenarioSpec, streams: RandomStreams) -> float:
    """The fleet's UTC hour at simulation time zero: the scenario's, or one
    draw from the fleet's ``epoch`` stream."""
    if scenario.epoch_hour_utc is not None:
        return scenario.epoch_hour_utc
    return float(streams.get("epoch").uniform(0, 24))


def draw_fates(model: RevocationModel,
               calls: Sequence[DrawCall]) -> List[RevocationOutcome]:
    """Draw one launched server's fate per call, in call order.

    Every fleet draw goes through here, in one process or in a shard's
    parent, so both consume the shared revocation stream identically.
    """
    return [model.sample(gpu, region, launch_hour_local=hour, stressed=True)
            for gpu, region, hour in calls]


class FleetJobController(CMDareController):
    """A CM-DARE controller whose replacements contend on a shared pool.

    Args:
        session: The job's training session.
        pool: Shared transient-server pool.
        queue_replacements: Queue exhausted-pool requests instead of
            denying them.
        on_replacement_admitted: Invoked as ``callback(session, worker)``
            when a replacement worker is actually admitted (the fleet uses
            this to schedule the new server's own revocation draw).
        placer: Pool-aware placement fallback (adaptive placement): called
            as ``placer(gpu_name, preferred_key)`` when the preferred cell
            has nothing acquirable, returning the next-best feasible
            ``(gpu, region)`` cell or ``None`` to fall through to the
            normal queue/deny path on the preferred cell.
        config: Controller behaviour switches.
    """

    def __init__(self, session: TrainingSession, pool: TransientPool,
                 queue_replacements: bool = False,
                 on_replacement_admitted: Optional[
                     Callable[[TrainingSession, WorkerState], None]] = None,
                 placer: Optional[
                     Callable[[str, PoolKey], Optional[PoolKey]]] = None,
                 config: Optional[ControllerConfig] = None):
        super().__init__(session, config=config)
        self.pool = pool
        self.queue_replacements = queue_replacements
        self.on_replacement_admitted = on_replacement_admitted
        self.placer = placer
        self.replacements_admitted = 0
        self.replacements_denied = 0
        self.replacements_pending = 0
        self.replacements_warm = 0
        self.replacements_cancelled = 0
        self.placements_redirected = 0
        self._queued_tickets: List[ReplacementTicket] = []
        # A request still queued when the job completes can never be used:
        # withdraw it so the pool's waiter queue holds no dead entries (and
        # a later slot goes straight to a live waiter instead of bouncing
        # through a grant-then-release round trip).
        session.on_finished.append(self._cancel_queued)

    def request_replacement(self, revoked: WorkerState) -> None:
        """Route the replacement request through the shared pool.

        With adaptive placement, a request whose preferred cell (the
        revoked worker's own ``(gpu, region)``) has nothing acquirable is
        redirected to the best feasible alternative cell *before* it
        reaches the pool, so it counts as one granted request instead of a
        denial — the paper's Section V-C placement idea applied at fleet
        scale.
        """
        gpu, region = revoked.spec.gpu_name, revoked.spec.region_name
        spec = revoked.spec
        if (self.placer is not None
                and self.pool.snapshot().acquirable(gpu, region) == 0):
            alternative = self.placer(gpu, (gpu, region))
            if alternative is not None and alternative != (gpu, region):
                spec = WorkerSpec(gpu_name=gpu, region_name=alternative[1],
                                  transient=True)
                self.placements_redirected += 1
                self._log("replacement-redirected",
                          f"pool exhausted in {region}: redirecting {gpu} "
                          f"replacement for {revoked.worker_id} to "
                          f"{alternative[1]}")
        # The grant callback may run synchronously (slot free now) or later
        # (served from the waiter queue); only queued requests count as
        # pending, and only their grants decrement the pending count.
        state: Dict[str, Any] = {"queued": False, "ticket": None}

        def grant(warm: bool) -> None:
            ticket = state["ticket"]
            if ticket is not None and ticket in self._queued_tickets:
                self._queued_tickets.remove(ticket)
            if state["queued"]:
                self.replacements_pending -= 1
            self._admit_replacement(revoked, spec, warm)

        ticket = self.pool.request_replacement(
            spec.gpu_name, spec.region_name, grant,
            queue=self.queue_replacements,
            label=f"{self.session.job.model_name}:{revoked.worker_id}")
        state["ticket"] = ticket
        if ticket.outcome == DENIED:
            self.replacements_denied += 1
            self._log("replacement-denied",
                      f"pool exhausted: no {spec.gpu_name} capacity in "
                      f"{spec.region_name} for {revoked.worker_id}")
        elif ticket.outcome == QUEUED:
            state["queued"] = True
            self.replacements_pending += 1
            self._queued_tickets.append(ticket)
            self._log("replacement-queued",
                      f"pool exhausted: queued {spec.gpu_name} replacement "
                      f"for {revoked.worker_id} in {spec.region_name}")

    def _admit_replacement(self, revoked: WorkerState, spec: WorkerSpec,
                           warm: bool) -> None:
        """A pool slot was assigned; actually add the replacement worker."""
        if self.session.finished:
            # Granted from the queue after the job already completed (e.g.
            # served within the finish cascade before the cancel hook ran):
            # the slot was taken by the pool before the callback, hand it
            # back.
            self.pool.release(spec.gpu_name, spec.region_name)
            return
        worker = super().request_replacement(revoked, cold=not warm, spec=spec)
        self.replacements_admitted += 1
        if warm:
            self.replacements_warm += 1
        if self.on_replacement_admitted is not None:
            self.on_replacement_admitted(self.session, worker)

    def _cancel_queued(self, _session: TrainingSession) -> None:
        """Withdraw still-queued replacement requests at session finish."""
        for ticket in self._queued_tickets:
            if ticket.cancel():
                self.replacements_pending -= 1
                self.replacements_cancelled += 1
        self._queued_tickets.clear()


class _FleetJob:
    """Runtime bundle for one job of the fleet."""

    def __init__(self, spec: JobSpec, session: TrainingSession,
                 controller: FleetJobController, rank: int,
                 telemetry: Optional[Any] = None):
        self.spec = spec
        self.session = session
        self.controller = controller
        #: Global fleet index: the tie-break of the job's draw requests and
        #: the key of its telemetry members, the same in a shard.
        self.rank = rank
        self.telemetry = telemetry
        self.stalled = False
        self.stalled_at = 0.0
        self.started = False

    def end_time(self, now: float) -> float:
        """When the job stopped mattering: finish, stall, or the present."""
        if self.session.finished:
            return self.session.trace.end_time
        return self.stalled_at if self.stalled else now


class FleetRun:
    """One fleet simulation, wired and ready to :meth:`run`.

    Args:
        scenario: The scenario to simulate.
        streams: Root random streams of this fleet (one sweep cell).
        catalog: Model catalog resolving job model names.
        fast_forward: Core-path override forwarded to every session.
        trace_level: Per-session trace level (``"full"`` or ``"summary"``);
            ``None`` reads ``REPRO_FLEET_TRACE_LEVEL`` (default full).
            Payloads are bit-identical either way.
        telemetry: Optional telemetry spool (duck-typed against
            :class:`repro.telemetry.writer.TelemetrySpool`).  When set,
            every session's step rows are teed into the spool and every
            revocation-model draw is recorded; payloads are bit-identical
            with or without it.
        job_ranks: Global fleet index per ``scenario.jobs`` entry, which
            orders the jobs' draw requests and keys their spool members.
            Defaults to ``0..len(jobs)-1``; a shard passes its jobs'
            global indices, so draws and spool contents are
            shard-invariant.
    """

    def __init__(self, scenario: ScenarioSpec, streams: RandomStreams,
                 catalog: Optional[ModelCatalog] = None,
                 fast_forward: Optional[bool] = None,
                 trace_level: Optional[str] = None,
                 telemetry: Optional[Any] = None,
                 job_ranks: Optional[Sequence[int]] = None):
        self.scenario = scenario
        self.streams = streams
        self.catalog = catalog if catalog is not None else default_catalog()
        self.prices = default_price_catalog()
        self.fast_forward = fast_forward
        self.trace_level = config.FLEET_TRACE_LEVEL.resolve(trace_level,
                                                            "trace_level")
        self.simulator = Simulator(epoch_hour_utc=fleet_epoch(scenario, streams))
        self.pool = TransientPool(self.simulator, scenario.pool_capacity,
                                  reclaim_seconds=scenario.reclaim_seconds,
                                  warm_seconds=scenario.warm_seconds,
                                  warm_capacity=scenario.warm_capacity)
        self.revocation_model = RevocationModel(rng=streams.get("revocation"))
        # Adaptive placement scores cells through the pool-aware launch
        # advisor; its Monte-Carlo draws come from stable per-option
        # generators (seeded off the fleet's derived placement stream, not
        # consumed from it), so static fleets touch no extra streams and
        # adaptive fleets stay deterministic.
        self.advisor: Optional[LaunchAdvisor] = None
        if scenario.placement == "adaptive":
            self.advisor = LaunchAdvisor(
                revocation_model=self.revocation_model,
                samples_per_option=PLACEMENT_SAMPLES,
                seed=streams.spawn("placement").seed)
        #: ``(revoke time, global draw rank, local hour)`` per fired
        #: revocation, in firing order.  A sharded run merges the shards'
        #: records by ``(time, rank)``, which is this order.
        self.revocation_records: List[Tuple[float, int, float]] = []
        self._draws = 0
        #: Live completion counters: bumped by the session-finished and
        #: stall hooks so the run loop never scans all N jobs per event.
        self._jobs_finished = 0
        self._jobs_stalled = 0
        #: The run loop calls :meth:`_report_progress` every this many
        #: processed events.
        self._progress_interval = 2048
        self._telemetry = telemetry
        ranks = job_ranks if job_ranks is not None else range(len(scenario.jobs))
        self.jobs: List[_FleetJob] = [self._wire_job(spec, int(rank))
                                      for spec, rank in zip(scenario.jobs, ranks)]
        self._job_of: Dict[TrainingSession, _FleetJob] = {
            job.session: job for job in self.jobs}

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------
    def _wire_job(self, spec: JobSpec, rank: int) -> _FleetJob:
        # Initial workers reserve their pool slots at fleet launch, before
        # any job starts training (the spec validated the demand fits).
        # With adaptive placement the advisor picks each worker's region
        # from live availability first; the job then trains on the placed
        # spec.
        placed = self._place_job(spec)
        profile = self.catalog.profile(placed.model_name)
        job = TrainingJob(profile=profile, total_steps=placed.total_steps,
                          checkpoint_interval_steps=placed.checkpoint_interval_steps)
        step_sink = None
        handle = None
        if self._telemetry is not None:
            # Tee the job's normal sink with a telemetry sink: the primary
            # answers every read the payload makes, so attaching telemetry
            # is payload-bit-identical.
            handle = self._telemetry.job(rank, placed.name, placed.model_name,
                                         profile.gflops)
            step_sink = TeeSink(make_step_sink(self.trace_level),
                                handle.step_sink())
        session = TrainingSession(
            self.simulator, placed.cluster(), job,
            streams=self.streams.spawn(f"job:{placed.name}"),
            steps_per_event=placed.steps_per_event,
            fast_forward=self.fast_forward,
            trace_level=self.trace_level,
            step_sink=step_sink)
        if handle is not None:
            for worker in session.workers.values():
                handle.register_worker(worker.worker_id, worker.spec.gpu_name,
                                       worker.spec.region_name)
        controller = FleetJobController(
            session, self.pool, queue_replacements=placed.queue_replacements,
            on_replacement_admitted=self._schedule_revocations,
            placer=self._place_replacement if self.advisor is not None else None,
            config=ControllerConfig(
                auto_mitigate_bottleneck=placed.auto_mitigate_bottleneck,
                poll_interval_seconds=self.scenario.poll_interval_seconds))
        session.on_finished.append(self._note_finished)
        fleet_job = _FleetJob(placed, session, controller, rank, handle)
        self.simulator.schedule(placed.start_delay_seconds,
                                lambda _sim, fj=fleet_job: self._start_job(fj),
                                label=f"fleet:start:{placed.name}")
        return fleet_job

    def _place_job(self, spec: JobSpec) -> JobSpec:
        """Reserve launch slots; adaptively re-place workers when asked.

        Static placement acquires the declared cells as-is.  Adaptive
        placement asks the pool-aware advisor for the best feasible cell
        per worker (same GPU type, any pool region), acquiring greedily so
        each decision sees the availability left by the previous one.
        """
        if self.advisor is None:
            for gpu, region in spec.workers:
                self.pool.acquire(gpu, region)
            return spec
        hour_utc = self.simulator.hour_of_day_utc()
        placed: List[PoolKey] = []
        for gpu, _declared_region in spec.workers:
            # Each worker queries against a fresh snapshot: acquiring the
            # previous worker's slot bumped the pool version, so every
            # decision sees the availability the last one left behind.
            decision = self.advisor.answer(
                PlacementQuery(gpu_name=gpu,
                               duration_hours=PLACEMENT_HORIZON_HOURS,
                               hour_of_day_utc=hour_utc),
                pool=self.pool.snapshot())
            option = decision.best
            if option is None:
                raise CapacityError(
                    f"no feasible {gpu} placement for job {spec.name!r} at "
                    f"fleet launch")
            self.pool.acquire(gpu, option.region_name)
            placed.append((gpu, option.region_name))
        if tuple(placed) == spec.workers:
            return spec
        return dataclass_replace(spec, workers=tuple(placed))

    def _place_replacement(self, gpu_name: str,
                           preferred: PoolKey) -> Optional[PoolKey]:
        """Next-best feasible cell for a replacement denied at ``preferred``."""
        decision = self.advisor.answer(
            PlacementQuery(gpu_name=gpu_name,
                           duration_hours=PLACEMENT_HORIZON_HOURS,
                           hour_of_day_utc=self.simulator.hour_of_day_utc()),
            pool=self.pool.snapshot())
        option = decision.best
        if option is None:
            return None
        return (option.gpu_name, option.region_name)

    def _start_job(self, fleet_job: _FleetJob) -> None:
        fleet_job.started = True
        fleet_job.session.start()
        fleet_job.controller.start_monitoring()
        self._schedule_revocations(fleet_job.session,
                                   *fleet_job.session.workers.values())

    def _note_finished(self, session: TrainingSession) -> None:
        """A job completed: count it and return surviving servers."""
        self._jobs_finished += 1
        for worker in session.active_workers():
            if worker.is_transient:
                self.pool.release(worker.spec.gpu_name, worker.spec.region_name)

    def _schedule_revocations(self, session: TrainingSession,
                              *workers: WorkerState) -> None:
        """Draw the fates of newly launched servers and schedule them.

        The fleet's only draw site: a job's workers when it starts, and
        each replacement the controller admits.  Each draw uses the
        region's *local* hour of day at launch, exactly like the simulated
        provider does, so fleet-level revocations carry the paper's
        hour-of-day clustering (Fig. 9); the telemetry row records the
        same hour.
        """
        fleet_job = self._job_of[session]
        hour_utc = self.simulator.hour_of_day_utc()
        calls = [(worker.spec.gpu_name, worker.spec.region_name,
                  get_region(worker.spec.region_name).local_hour(hour_utc))
                 for worker in workers]
        outcomes, base_rank = self._request_draws(fleet_job.rank, calls)
        handle = fleet_job.telemetry
        for offset, (worker, (gpu, region, hour), outcome) in enumerate(
                zip(workers, calls, outcomes)):
            if handle is not None:
                # Replacements register on first sight (idempotent).
                handle.register_worker(worker.worker_id, gpu, region)
                handle.record_draw(worker.worker_id, hour, outcome)
            self._schedule_revocation_outcome(session, worker, outcome,
                                              base_rank + offset)

    def _request_draws(self, rank: int, calls: List[DrawCall]
                       ) -> Tuple[List[RevocationOutcome], int]:
        """Draw ``calls`` from this fleet's revocation model.

        Returns the outcomes and the global rank of the first draw.  A
        shard sends the calls to its parent instead, where the job's
        ``rank`` orders the request; in one process draws run in event
        order already.
        """
        base_rank = self._draws
        self._draws += len(calls)
        return draw_fates(self.revocation_model, calls), base_rank

    def _schedule_revocation_outcome(self, session: TrainingSession,
                                     worker: WorkerState,
                                     outcome: RevocationOutcome,
                                     rank: int) -> None:
        """Turn a sampled fate into a scheduled revocation event (if any).

        The revoke event is one of the job's control events, so it bounds
        the job's replay windows.  ``rank`` is the draw's global rank, kept
        in :attr:`revocation_records` when the revocation fires.
        """
        if not outcome.revoked:
            # The server survives to the 24-hour reclamation; fleet jobs
            # complete well before, so no termination event is scheduled.
            return
        gpu, region_name = worker.spec.gpu_name, worker.spec.region_name
        hour_local = float(outcome.revocation_hour_local)

        def revoke(_sim: Simulator) -> None:
            if session.finished or not worker.active:
                return
            self.revocation_records.append(
                (self.simulator.now, rank, hour_local))
            self.pool.revoke(gpu, region_name)
            session.handle_revocation(worker.worker_id)
            self._check_stalled(session)

        session.schedule_control(outcome.lifetime_seconds, revoke,
                                 label=f"fleet:revoke:{worker.worker_id}")

    def _check_stalled(self, session: TrainingSession) -> None:
        """Detect a job that lost every worker with no replacement coming.

        Such a job can never finish: stop its monitoring loop so the heap
        drains instead of polling forever, and mark it stalled.
        """
        fleet_job = self._job_of.get(session)
        if fleet_job is None:
            return
        if (not session.finished and not session.active_workers()
                and fleet_job.controller.replacements_pending == 0
                and not fleet_job.stalled):
            fleet_job.stalled = True
            fleet_job.stalled_at = self.simulator.now
            fleet_job.controller.stop_monitoring()
            self._jobs_stalled += 1

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Run the fleet to completion and return the JSON payload.

        The loop stops the moment every job finished or stalled — a stalled
        job has no queued replacement left by definition, so nothing in the
        heap (pool reclaim returns, stale revocation draws) can revive it,
        and draining events up to a day in the future would inflate the
        fleet clock past the last meaningful moment.
        """
        max_events = MAX_EVENTS_PER_JOB * len(self.jobs)
        processed = self._advance(max_events)
        #: Events processed (chunk completions + fired heap events) —
        #: the throughput numerator of ``benchmarks/fleet_baseline.py``.
        self.events_processed = processed
        if processed >= max_events:
            raise SimulationError(
                f"fleet {self.scenario.name!r} exceeded {max_events} events")
        return self._payload()

    def _advance(self, max_events: int) -> int:
        """O(1)-per-event loop driven by heap-top event ownership.

        The session owning the next-due chunk event replays a window up to
        its own next control event (see the module docstring); everything
        else — job starts, pool grants, revocations, controller polls —
        reaches the disturbed session through ordinary heap events, after
        which its next chunk surfaces at the top and wakes it again.  A job
        with a queued pool request can be granted a slot by any pool event,
        so it passes no horizon and its window ends at the first other
        event on the heap.  Returns the number of events processed.
        """
        sim = self.simulator
        peek_next = sim.peek_next
        step = sim.step
        jobs_total = len(self.jobs)
        job_of = self._job_of
        report = self._report_progress
        interval = self._progress_interval
        next_report = interval
        processed = 0
        while processed < max_events:
            if processed >= next_report:
                report()
                next_report = processed + interval
            if self._jobs_finished + self._jobs_stalled >= jobs_total:
                break
            top = peek_next()
            if top is None:
                break
            owner = top.owner
            if owner is not None:
                horizon = (None
                           if job_of[owner].controller.replacements_pending
                           else owner.control_horizon())
                replayed = owner._fast_forward(max_events - processed,
                                               top=top, horizon=horizon)
                if replayed:
                    processed += replayed
                    continue
            if step() is None:
                break
            processed += 1
        return processed

    def _report_progress(self) -> None:
        """Called by the run loop every ``_progress_interval`` events.

        A shard reports its progress bound to the parent's draw service
        here; one process has nobody to report to.
        """

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def _job_cost(self, fleet_job: _FleetJob, end_time: float) -> float:
        """Cloud cost of one job: per-second billing of workers and PSs."""
        cost = 0.0
        for worker in fleet_job.session.workers.values():
            stop = worker.revoked_at if worker.revoked_at is not None else end_time
            span = max(0.0, stop - worker.joined_at)
            machine = gpu_worker_machine(worker.spec.gpu_name)
            cost += self.prices.cost(machine, worker.is_transient, span)
        cost += fleet_job.spec.num_parameter_servers * self.prices.cost(
            PARAMETER_SERVER_MACHINE, False, end_time)
        # Parameter servers added mid-run by bottleneck mitigation bill
        # from the moment they were provisioned.
        for action in fleet_job.controller.actions:
            if action.kind == "mitigation":
                cost += self.prices.cost(PARAMETER_SERVER_MACHINE, False,
                                         max(0.0, end_time - action.time))
        return cost

    def _payload(self) -> Dict[str, Any]:
        jobs: List[Dict[str, Any]] = []
        for fleet_job in self.jobs:
            session = fleet_job.session
            end = fleet_job.end_time(self.simulator.now)
            controller = fleet_job.controller
            summary = controller.summary()
            entry = {
                "name": fleet_job.spec.name,
                "model": fleet_job.spec.model_name,
                "workers": len(fleet_job.spec.workers),
                "completed": session.finished,
                "stalled": fleet_job.stalled,
                "steps_done": session.cluster_steps,
                "total_steps": fleet_job.spec.total_steps,
                "duration_seconds": end - fleet_job.spec.start_delay_seconds,
                "end_time_seconds": end,
                "cost_usd": self._job_cost(fleet_job, end),
                "revocations": summary["num_revocations_seen"],
                "replacements_admitted": controller.replacements_admitted,
                "replacements_denied": controller.replacements_denied,
                "replacements_pending": controller.replacements_pending,
                "ps_mitigations": summary["extra_parameter_servers"],
                "final_active_workers": len(session.active_workers()),
            }
            # Opt-in features report their counters only when enabled, so
            # cold-only statically placed payloads stay byte-identical to
            # the pre-placement fleets (golden-fixture contract).
            if self.pool.warm_enabled:
                entry["replacements_warm"] = controller.replacements_warm
            if self.advisor is not None:
                entry["placements_redirected"] = controller.placements_redirected
            jobs.append(entry)
        return fleet_payload(
            self.scenario, self.simulator.epoch_hour_utc, jobs,
            self.pool.stats(),
            [hour for _time, _rank, hour in self.revocation_records],
            warm=self.pool.warm_enabled, placement=self.advisor is not None)


def fleet_payload(scenario: ScenarioSpec, epoch: float,
                  jobs: List[Dict[str, Any]], pool_stats: Dict[str, Any],
                  revocation_hours: List[float], *, warm: bool,
                  placement: bool) -> Dict[str, Any]:
    """The fleet's JSON payload from its job entries, in global job order.

    The single-process run and the sharded merge both build it here.
    Costs are summed in job order (float addition order is part of the
    bit-identity contract).  ``warm`` and ``placement`` add the warm-pool
    and adaptive-placement totals; without them the payload stays
    byte-identical to a cold, statically placed fleet's.
    """
    makespan = 0.0
    total_cost = 0.0
    for job in jobs:
        makespan = max(makespan, job["end_time_seconds"])
        total_cost += job["cost_usd"]
    payload = {
        "scenario": scenario.name,
        "epoch_hour_utc": epoch,
        "jobs_total": len(jobs),
        "jobs_completed": sum(1 for job in jobs if job["completed"]),
        "jobs_stalled": sum(1 for job in jobs if job["stalled"]),
        "makespan_seconds": makespan,
        "total_cost_usd": total_cost,
        "revocations": pool_stats["revocations"],
        "replacements_admitted": sum(j["replacements_admitted"] for j in jobs),
        "replacements_denied": pool_stats["replacements_denied"],
        "replacement_denial_rate": pool_stats["replacement_denial_rate"],
        "ps_mitigations": sum(j["ps_mitigations"] for j in jobs),
        "revocation_hours_local": revocation_hours,
        "pool": pool_stats,
        "jobs": jobs,
    }
    if warm:
        payload["replacements_warm"] = pool_stats["replacements_warm"]
        payload["warm_reuse_rate"] = pool_stats["warm_reuse_rate"]
    if placement:
        payload["placement"] = scenario.placement
        payload["placements_redirected"] = sum(
            j["placements_redirected"] for j in jobs)
    return payload


def run_fleet(scenario: ScenarioSpec, streams: RandomStreams,
              catalog: Optional[ModelCatalog] = None,
              fast_forward: Optional[bool] = None,
              trace_level: Optional[str] = None) -> Dict[str, Any]:
    """Simulate one fleet and return its JSON-encodable summary payload."""
    return FleetRun(scenario, streams, catalog=catalog,
                    fast_forward=fast_forward, trace_level=trace_level).run()


# ---------------------------------------------------------------------------
# Sweep integration.
# ---------------------------------------------------------------------------
def apply_fleet_axes(scenario: ScenarioSpec,
                     params: Mapping[str, Any]) -> ScenarioSpec:
    """Derive the scenario one sweep cell actually runs from its params.

    Recognized axis parameters (all optional; absent keys leave the
    scenario untouched, so a plain ``replicate`` sweep runs the scenario
    verbatim and stays bit-compatible with pre-multi-axis fleet sweeps):

    * ``pool_size`` — positive scale factor applied to every pool cell's
      capacity (rounded up, never below the cell's initial demand so the
      derived scenario stays launchable);
    * ``queue_policy`` — ``"queue"`` / ``"deny"``: overrides every job's
      ``queue_replacements`` flag;
    * ``warm_seconds`` — warm-pool linger duration; enabling it on a
      scenario without a ``warm_capacity`` defaults the per-cell warm cap
      to the largest cell capacity (effectively uncapped);
    * ``launch_hour`` — fleet epoch (UTC hour at simulation time zero);
    * ``placement`` — ``"static"`` / ``"adaptive"`` placement mode.
    """
    axes = {name: kind(params[name], name) for name, kind in FLEET_AXES.items() if name in params}
    derived = scenario
    if "pool_size" in axes:
        factor = axes["pool_size"]
        demand = scenario.initial_demand()
        capacity = {}
        for key, count in scenario.pool_capacity.items():
            scaled = count * factor
            if not math.isfinite(scaled):
                raise ConfigurationError(
                    f"pool_size must scale every pool cell to a finite capacity, got "
                    f"{factor!r} for {key[0]}/{key[1]} (capacity {count})")
            capacity[key] = max(demand.get(key, 0), int(math.ceil(scaled)), 1)
        derived = dataclass_replace(derived, pool_capacity=capacity)
    if "queue_policy" in axes:
        queue = axes["queue_policy"] == "queue"
        derived = dataclass_replace(derived, jobs=tuple(
            dataclass_replace(job, queue_replacements=queue)
            for job in derived.jobs))
    if "warm_seconds" in axes:
        warm_seconds = axes["warm_seconds"]
        warm_capacity = derived.warm_capacity
        if warm_seconds > 0 and warm_capacity == 0:
            warm_capacity = max(derived.pool_capacity.values())
        derived = dataclass_replace(
            derived, warm_seconds=warm_seconds,
            warm_capacity=warm_capacity if warm_seconds > 0
            else derived.warm_capacity)
    if "launch_hour" in axes:
        derived = dataclass_replace(derived, epoch_hour_utc=wrap_hour(axes["launch_hour"]))
    if "placement" in axes:
        derived = dataclass_replace(derived, placement=axes["placement"])
    return derived


def fleet_cell(cell: SweepCell, streams: RandomStreams,
               context: Any) -> Dict[str, Any]:
    """Sweep cell: simulate one whole fleet (one scenario replicate).

    Axis parameters beyond ``replicate`` (see :func:`apply_fleet_axes`)
    derive the per-cell scenario before it runs.  ``context`` is the shared
    :class:`~repro.workloads.catalog.ModelCatalog` (its fingerprint keys
    the result cache).  With ``REPRO_FLEET_SHARDS`` > 1 the fleet executes
    through the sharded multi-process driver
    (:func:`repro.scenarios.shard.run_fleet_sharded`), whose payloads are
    bit-identical to this single-process path; the default of 1 runs the
    code below byte-identically unchanged.
    """
    scenario = ScenarioSpec.from_params(cell.params["scenario"])
    scenario = apply_fleet_axes(scenario, cell.params)
    shards = config.FLEET_SHARDS.get()
    if shards > 1:
        from repro.scenarios.shard import run_fleet_sharded

        return run_fleet_sharded(scenario, streams, catalog=context,
                                 shards=shards)
    return run_fleet(scenario, streams, catalog=context)


def build_fleet_spec(scenario: ScenarioSpec, replicates: int = 2, *,
                     pool_sizes: Optional[Sequence[float]] = None,
                     queue_policies: Optional[Sequence[str]] = None,
                     warm_seconds: Optional[Sequence[float]] = None,
                     launch_hours: Optional[Sequence[float]] = None,
                     placements: Optional[Sequence[str]] = None) -> SweepSpec:
    """A fleet sweep over ``scenario``: optional axes x replicates.

    With no axis arguments this is the classic one-cell-per-replicate
    sweep (cell parameters unchanged from the single-axis era, so derived
    seeds, caches, and payloads stay bit-compatible).  Each provided axis
    fans the scenario out along one :func:`apply_fleet_axes` dimension;
    every combination runs ``replicates`` independent fleets.  Axis values
    are validated eagerly by deriving a scenario from each, so a bad value
    fails at spec build time, not mid-sweep.
    """
    if replicates < 1:
        raise SimulationError("replicates must be >= 1")
    axes: Dict[str, List[Any]] = {}
    for name, values in (("pool_size", pool_sizes),
                         ("queue_policy", queue_policies),
                         ("warm_seconds", warm_seconds),
                         ("launch_hour", launch_hours),
                         ("placement", placements)):
        if values is None:
            continue
        for value in values:
            apply_fleet_axes(scenario, {name: value})
        axes[name] = [FLEET_AXES[name](value, name) for value in values]
    axes["replicate"] = list(range(int(replicates)))
    return SweepSpec(f"fleet_{scenario.name}", axes=axes,
                     fixed={"scenario": scenario.to_params()})


def run_scenario(scenario: ScenarioSpec, replicates: int = 2, seed: int = 0,
                 workers: Optional[int] = None, cache_dir: Optional[str] = None,
                 catalog: Optional[ModelCatalog] = None,
                 pool_sizes: Optional[Sequence[float]] = None,
                 queue_policies: Optional[Sequence[str]] = None,
                 warm_seconds: Optional[Sequence[float]] = None,
                 launch_hours: Optional[Sequence[float]] = None,
                 placements: Optional[Sequence[str]] = None) -> SweepResult:
    """Run a scenario's (optionally multi-axis) sweep through the engine.

    Serial and parallel executions are bit-identical, and with a
    ``cache_dir`` interrupted scenario sweeps resume from completed cells,
    both inherited from :class:`~repro.sweeps.SweepRunner` — multi-axis
    fleet grids get the same contracts for free because every cell is one
    self-contained fleet with its own derived streams.
    """
    spec = build_fleet_spec(scenario, replicates, pool_sizes=pool_sizes,
                            queue_policies=queue_policies,
                            warm_seconds=warm_seconds,
                            launch_hours=launch_hours, placements=placements)
    runner = SweepRunner(workers=workers, cache_dir=cache_dir, seed=seed)
    return runner.run(spec, fleet_cell,
                      context=catalog if catalog is not None else default_catalog())
