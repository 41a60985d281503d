"""Span tracing of the repro layers, installed from outside the package.

Every traced function is replaced by a wrapper that opens a span on entry
and closes it on exit.  Spans live in four flat arrays (name id, start,
end, parent span index) and are written out once, when the run ends.  A
span's *self time* is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans of its functions (a span
is named ``<layer>.<function>``).  Nothing
under ``src/`` is edited: the wrappers are set as attributes on the
package's classes and modules, so they are inherited by forked shard
children (see :func:`install_fleet`) and by the serve launcher.

The tracer assumes spans nest, i.e. one thread and no suspension inside
an async span.  That holds for the serve stack: ``handle_request`` awaits
service coroutines that never await real work.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

import numpy as np

class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and total; wrapped names stay registered."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = []
        self._child: List[float] = []
        self.self_s: List[float] = [0.0] * len(self.names)
        self.calls: List[int] = [0] * len(self.names)
        self.counters: Dict[str, float] = {}
        #: Extra per-span tags (e.g. the connection a transport span ran
        #: on), keyed by span index.
        self.tags: Dict[int, Any] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, nid: int) -> int:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return index

    def exit(self) -> None:
        now = time.perf_counter()
        index = self._stack.pop()
        self.span_end[index] = now
        duration = now - self.span_start[index]
        nid = self.span_name[index]
        self.self_s[nid] += duration - self._child.pop()
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += duration

    # -- wrappers ----------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """A synchronous wrapper; ``observe(result, args, kwargs)`` runs
        inside the span after the call returns."""
        nid = self.name_id(name)
        enter, leave = self.enter, self.exit

        if observe is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(nid)
                try:
                    result = fn(*args, **kwargs)
                    observe(result, args, kwargs)
                    return result
                finally:
                    leave()
        traced.__perfbench_wrapped__ = fn
        return traced

    def wrap_async(self, fn: Callable, name: str, tag: Optional[Callable] = None
                   ) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index = self.enter(nid)
            if tag is not None:
                self.tags[index] = tag()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.exit()
        traced.__perfbench_wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str, counter: str) -> Callable:
        """Each ``next()`` of the returned iterator is one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                self.enter(nid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.count(counter)
                yield item
        traced.__perfbench_wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-name self time and call counts plus counters (JSON-safe)."""
        return {"self_s": dict(zip(self.names, self.self_s)),
                "calls": dict(zip(self.names, self.calls)),
                "counters": dict(self.counters),
                "spans": len(self.span_name)}

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every span and the summary to ``path`` (an ``.npz``)."""
        document = dict(self.summary(), names=self.names,
                        tags={str(k): v for k, v in self.tags.items()},
                        **(extra or {}))
        tmp = path + ".tmp.npz"
        np.savez(tmp,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 summary=np.frombuffer(json.dumps(document).encode("utf-8"),
                                       dtype=np.uint8))
        os.replace(tmp, path)


def load_summary(path: str) -> Dict[str, Any]:
    with np.load(path) as archive:
        return json.loads(archive["summary"].tobytes().decode("utf-8"))


def load_spans(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {key: archive[key] for key in ("name", "start", "end", "parent")}


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"self_s": {}, "calls": {}, "counters": {},
                              "spans": 0}
    for summary in summaries:
        for section in ("self_s", "calls", "counters"):
            for key, value in summary[section].items():
                merged[section][key] = merged[section].get(key, 0) + value
        merged["spans"] += summary["spans"]
    return merged


def _patch(tracer: Tracer, owner: Any, attribute: str, name: str,
           observe: Any = None, kind: str = "sync") -> None:
    """Replace ``owner.attribute`` by a traced wrapper named ``name``.

    ``observe`` is the result observer of a ``sync`` wrapper, the span-tag
    function of an ``async`` one, or the counter name of a ``generator``
    one.  Patching twice is a no-op.
    """
    fn = owner.__dict__[attribute] if isinstance(owner, type) \
        else getattr(owner, attribute)
    binder = None
    if isinstance(fn, classmethod):
        binder, fn = classmethod, fn.__func__
    if hasattr(fn, "__perfbench_wrapped__"):
        return
    if kind == "generator":
        wrapped = tracer.wrap_generator(fn, name, observe)
    elif kind == "async":
        wrapped = tracer.wrap_async(fn, name, observe)
    else:
        wrapped = tracer.wrap(fn, name, observe)
    setattr(owner, attribute, binder(wrapped) if binder else wrapped)


def _rows_observer(tracer: Tracer, counter: str) -> Callable:
    def observe(_result, args, _kwargs) -> None:
        # extend_rows(self, worker_ids, ...) vs append_row(self, ...).
        tracer.count(counter, len(args[1]) if len(args) > 1
                     and hasattr(args[1], "__len__")
                     and not isinstance(args[1], str) else 1)
    return observe


# ---------------------------------------------------------------------------
# Fleet / telemetry layers (storm_fleet and calibration_pipeline).
# ---------------------------------------------------------------------------
def install_fleet(tracer: Tracer, child_dir: str) -> None:
    """Wrap the fleet-side layers; forked shard children inherit them.

    Each shard child resets its copy of the tracer right after the fork
    and writes its spans to ``child_dir`` when ``ShardFleetRun.run``
    returns.
    """
    import multiprocessing.connection

    import repro.analysis.streaming as streaming
    import repro.cloud.revocation as revocation
    import repro.cmdare.controller as controller
    import repro.scenarios.fleet as fleet
    import repro.scenarios.pool as pool
    import repro.scenarios.shard as shard
    import repro.simulation.engine as engine
    import repro.sweeps.runner as runner
    import repro.telemetry as telemetry
    import repro.telemetry.export as export
    import repro.telemetry.reader as reader
    import repro.telemetry.report as report
    import repro.telemetry.writer as writer
    import repro.training.session as session
    import repro.training.trace as trace

    recal_module = sys.modules["repro.telemetry.recalibrate"]
    count = tracer.count

    # Sweeps: the scenario entry point and the sweep runner around it.
    _patch(tracer, fleet, "run_scenario", "sweeps.run_scenario")
    _patch(tracer, runner.SweepRunner, "run", "sweeps.SweepRunner.run")

    # Fleet wiring and the wake-set loop.
    def fleet_done(_result, args, _kwargs) -> None:
        count("engine.events", args[0].events_processed)
    _patch(tracer, fleet.FleetRun, "__init__", "fleet.FleetRun.__init__")
    _patch(tracer, fleet.FleetRun, "run", "fleet.FleetRun.run", fleet_done)

    # ``peek_next`` (one heap read per loop turn) and ``schedule`` (a thin
    # front of ``schedule_at``) are left unwrapped: a span would cost more
    # than the call and only inflate the overhead.
    for method in ("schedule_at", "pop_next", "step"):
        observe = None
        if method == "schedule_at":
            observe = (lambda _r, _a, _k: count("engine.schedule_calls"))
        _patch(tracer, engine.Simulator, method, f"engine.Simulator.{method}",
               observe)

    def replayed(result, _args, _kwargs) -> None:
        count("session.chunks", result or 0)
    _patch(tracer, session.TrainingSession, "_fast_forward",
           "session.TrainingSession._fast_forward", replayed)
    for method in ("start", "handle_revocation", "add_worker"):
        _patch(tracer, session.TrainingSession, method,
               f"session.TrainingSession.{method}")

    for cls in (trace.StepRecordArray, trace.StepRecordSummary):
        for method in ("append_row", "extend_rows"):
            _patch(tracer, cls, method, f"trace.{cls.__name__}.{method}",
                   _rows_observer(tracer, "trace.rows"))
    for method in ("append_row", "extend_rows"):
        _patch(tracer, trace.TeeSink, method, f"trace.TeeSink.{method}")

    def replacement(result, _args, _kwargs) -> None:
        count("pool.replacement_requests")
        if getattr(result, "outcome", None) == "denied":
            count("pool.denials")
    for method in ("acquire", "release", "revoke", "request_replacement",
                   "snapshot"):
        _patch(tracer, pool.TransientPool, method,
               f"pool.TransientPool.{method}",
               replacement if method == "request_replacement" else None)
    _patch(tracer, fleet.FleetJobController, "request_replacement",
           "controller.FleetJobController.request_replacement",
           lambda _r, _a, _k: count("controller.replacement_requests"))
    _patch(tracer, controller.CMDareController, "_poll",
           "controller.CMDareController._poll")

    _patch(tracer, revocation.RevocationModel, "sample",
           "revocation.RevocationModel.sample",
           lambda _r, _a, _k: count("revocation.draws"))
    _patch(tracer, revocation.RevocationModel, "sample_batch",
           "revocation.RevocationModel.sample_batch",
           lambda result, _a, _k: count("revocation.draws", len(result)))

    # Shard parent: the conductor, its blocking waits and queued draws.
    def sharded_done(_result, args, _kwargs) -> None:
        count("shard.restarts", len(args[0].restarts))
    _patch(tracer, shard.ShardedFleetRun, "run", "shard.ShardedFleetRun.run",
           sharded_done)
    _patch(tracer, shard.DeterministicMessageQueue, "push",
           "shard.DeterministicMessageQueue.push",
           lambda _r, _a, _k: count("shard.draw_requests"))
    _patch(tracer, multiprocessing.connection, "wait", "shard.wait")

    forked = {"pid": None, "at": 0.0}

    def in_child() -> None:
        tracer.reset()
        forked.update(pid=os.getpid(), at=time.perf_counter())

    os.register_at_fork(after_in_child=in_child)
    base_run = fleet.FleetRun.run

    def shard_run(self):
        try:
            return base_run(self)
        finally:
            if forked["pid"] == os.getpid():
                tracer.dump(os.path.join(child_dir, f"child-{os.getpid()}.npz"),
                            {"process_wall_s": time.perf_counter()
                             - forked["at"]})
    shard.ShardFleetRun.run = shard_run

    # Telemetry write path.
    for method in ("append_row", "extend_rows"):
        _patch(tracer, writer.JobStepSink, method,
               f"telemetry.JobStepSink.{method}")
    _patch(tracer, writer.JobTelemetry, "record_draw",
           "telemetry.JobTelemetry.record_draw")
    _patch(tracer, writer.TelemetrySpool, "close",
           "telemetry.TelemetrySpool.close")

    def npz_written(_result, args, _kwargs) -> None:
        count("telemetry.npz_bytes", os.path.getsize(args[1]))
    _patch(tracer, writer, "write_npz", "telemetry.write_npz", npz_written)
    export.write_npz = writer.write_npz
    _patch(tracer, export, "export_fleet_telemetry",
           "telemetry.export_fleet_telemetry")
    telemetry.export_fleet_telemetry = export.export_fleet_telemetry

    # Read path, streaming accumulators and the refit.
    for method in ("__init__", "workers", "job_meta", "step_rows",
                   "draw_rows"):
        _patch(tracer, reader.TelemetryReader, method,
               f"reader.TelemetryReader.{method}")
    for method in ("step_chunks", "draw_chunks"):
        _patch(tracer, reader.TelemetryReader, method,
               f"reader.TelemetryReader.{method}", "reader.chunks",
               kind="generator")

    for cls, methods in ((streaming.StreamingDescribe, ("update", "result")),
                         (streaming.StreamingMoments, ("update",)),
                         (streaming.StreamingHistogram, ("update",)),
                         (streaming.ExactPercentiles, ("update",
                                                       "percentile"))):
        for method in methods:
            observe = None
            if method == "update":
                observe = _outer_values_observer(tracer)
            _patch(tracer, cls, method, f"streaming.{cls.__name__}.{method}",
                   observe)
    _patch(tracer, report, "fleet_report", "report.fleet_report")
    telemetry.fleet_report = report.fleet_report
    _patch(tracer, recal_module, "recalibrate", "recalibrate.recalibrate")
    telemetry.recalibrate = recal_module.recalibrate


def _outer_values_observer(tracer: Tracer) -> Callable:
    """Count values only at the outermost streaming call (no double count)."""
    def observe(_result, args, _kwargs) -> None:
        stack = tracer._stack
        if len(stack) >= 2:
            caller = tracer.names[tracer.span_name[stack[-2]]]
            if caller.startswith("streaming."):
                return
        tracer.count("streaming.values", len(args[1]))
    return observe


# ---------------------------------------------------------------------------
# Serve layers (placement_wire; installed by the serve launcher).
# ---------------------------------------------------------------------------
def install_serve(tracer: Tracer) -> None:
    import repro.modeling.launch_advisor as launch_advisor
    import repro.modeling.placement as placement
    import repro.serve.service as service
    import repro.serve.transport as transport
    import repro.telemetry.recalibrate  # noqa: F401 - module for from_params

    # ``repro.telemetry.recalibrate`` the attribute is the function; the
    # module is only reachable through ``sys.modules``.
    recal_module = sys.modules["repro.telemetry.recalibrate"]

    # Requests run in per-request tasks (the dispatch deadline wraps each
    # one), which copy the connection handler's context: a context
    # variable set per connection tags every request span with the
    # connection's number, in accept order.
    connection = contextvars.ContextVar("perfbench_connection", default=-1)
    accepted = [0]
    handle_connection = transport._handle_connection

    async def numbered_connection(*args, **kwargs):
        connection.set(accepted[0])
        accepted[0] += 1
        return await handle_connection(*args, **kwargs)
    transport._handle_connection = numbered_connection

    _patch(tracer, transport, "handle_request",
           "transport.handle_request", connection.get, kind="async")
    for method in ("answer", "answer_many"):
        _patch(tracer, service.PlacementService, method,
               f"service.PlacementService.{method}", kind="async")
    for method in ("answer_now", "recalibrate", "stats", "warm"):
        _patch(tracer, service.PlacementService, method,
               f"service.PlacementService.{method}")
    _patch(tracer, launch_advisor.LaunchAdvisor, "answer",
           "advisor.LaunchAdvisor.answer",
           lambda _r, _a, _k: tracer.count("advisor.answer_calls"))

    # Options built so far per table; the tables are kept alive so that a
    # table made by a later recalibrate never reuses a dead one's id.
    seen: Dict[int, Any] = {}

    def built(counter: str) -> Callable:
        def observe(_result, args, _kwargs) -> None:
            table = args[0]
            before = seen.get(id(table), (table, 0))[1]
            now = table.options_built
            if now != before:
                seen[id(table)] = (table, now)
                tracer.count(counter, now - before)
                tracer.tags[tracer._stack[-1]] = "build"
        return observe
    _patch(tracer, placement.ScoreTable, "probabilities",
           "scoretable.ScoreTable.probabilities",
           built("scoretable.options_built"))
    _patch(tracer, placement.ScoreTable, "warm", "scoretable.ScoreTable.warm",
           built("scoretable.options_warmed"))
    _patch(tracer, placement.PlacementQuery, "from_params",
           "codec.PlacementQuery.from_params")
    _patch(tracer, placement.PlacementDecision, "to_params",
           "codec.PlacementDecision.to_params")
    _patch(tracer, recal_module.RecalibrationResult, "from_params",
           "codec.RecalibrationResult.from_params")
