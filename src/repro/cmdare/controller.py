"""The CM-DARE controller.

The controller (Fig. 1, steps (6)-(10)) reacts to revocation notifications
and to online performance measurements:

* when a transient worker is revoked, it immediately requests a replacement
  (the paper shows immediate requests are not penalized) and adds it to the
  training session after the cold-start replacement overhead;
* when the chief is revoked, the transient-TensorFlow policy decides
  whether checkpoint responsibility is handed off (CM-DARE) or the legacy
  recompute-from-checkpoint behaviour applies;
* it periodically compares measured speed against the predicted speed and,
  when a parameter-server bottleneck is flagged, optionally provisions an
  additional parameter server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cmdare.bottleneck import BottleneckDetector, BottleneckReport
from repro.cmdare.tracker import PerformanceTracker
from repro.cmdare.transient_tf import TransientTensorFlowPolicy
from repro.errors import ConfigurationError, DataError
from repro.perf.replacement import ReplacementOverheadModel
from repro.simulation.events import Event
from repro.training.cluster import WorkerSpec
from repro.training.session import TrainingSession
from repro.training.worker import WorkerState


@dataclass
class ControllerAction:
    """One action taken (or decision made) by the controller."""

    time: float
    kind: str
    detail: str


@dataclass
class ControllerConfig:
    """Controller behaviour switches.

    Attributes:
        auto_replace: Request a replacement worker after each revocation.
        auto_mitigate_bottleneck: Add a parameter server when a bottleneck
            is detected (at most ``max_extra_parameter_servers`` times).
        max_extra_parameter_servers: Upper bound on mitigation actions.
        poll_interval_seconds: Cadence of the monitoring loop.
        policy: Transient-TensorFlow recovery policy.
    """

    auto_replace: bool = True
    auto_mitigate_bottleneck: bool = False
    max_extra_parameter_servers: int = 1
    poll_interval_seconds: float = 15.0
    policy: TransientTensorFlowPolicy = field(default_factory=TransientTensorFlowPolicy)


class CMDareController:
    """Reactive controller attached to one training session.

    Args:
        session: The training session to control.
        config: Behaviour switches.
        replacement_model: Ground-truth replacement-overhead model used to
            time replacement joins.
        detector: Bottleneck detector.
        tracker: Performance tracker; created automatically when omitted.
    """

    def __init__(self, session: TrainingSession,
                 config: Optional[ControllerConfig] = None,
                 replacement_model: Optional[ReplacementOverheadModel] = None,
                 detector: Optional[BottleneckDetector] = None,
                 tracker: Optional[PerformanceTracker] = None):
        self.session = session
        self.config = config if config is not None else ControllerConfig()
        if self.config.poll_interval_seconds <= 0:
            raise ConfigurationError("poll_interval_seconds must be positive")
        self.replacement_model = (replacement_model if replacement_model is not None
                                  else ReplacementOverheadModel(
                                      rng=session.streams.get("replacement")))
        self.detector = detector if detector is not None else BottleneckDetector()
        self.tracker = tracker if tracker is not None else PerformanceTracker(session)
        self.actions: List[ControllerAction] = []
        self.bottleneck_reports: List[BottleneckReport] = []
        self._extra_parameter_servers = 0
        self._monitoring = False
        self._poll_event: Optional[Event] = None
        self._last_reconfiguration = session.trace.start_time
        session.on_revocation.append(self._on_revocation)
        # A poll scheduled just before the workload completes must not
        # outlive the session: cancel it the moment the session finishes so
        # the simulator heap drains and a later start_monitoring restarts
        # from a clean slate.
        session.on_finished.append(lambda _session: self.stop_monitoring())

    # ------------------------------------------------------------------
    # Logging helpers.
    # ------------------------------------------------------------------
    def _log(self, kind: str, detail: str) -> None:
        self.actions.append(ControllerAction(time=self.session.simulator.now,
                                             kind=kind, detail=detail))

    # ------------------------------------------------------------------
    # Revocation handling.
    # ------------------------------------------------------------------
    def _on_revocation(self, session: TrainingSession, worker: WorkerState) -> None:
        self._log("revocation", self.config.policy.describe_recovery(worker))
        self._mark_reconfiguration()
        if not self.config.auto_replace:
            return
        self.request_replacement(worker)

    def _mark_reconfiguration(self, settle_seconds: float = 0.0) -> None:
        """Restart the warm-up clock after a cluster membership change."""
        self._last_reconfiguration = self.session.simulator.now + settle_seconds
        self.tracker.reset_window()

    def request_replacement(self, revoked: WorkerState,
                            cold: bool = True,
                            spec: Optional[WorkerSpec] = None) -> WorkerState:
        """Request and (after the start overhead) add a replacement worker.

        Args:
            revoked: The worker being replaced.
            cold: True for a cold start (new server: Fig. 10 cold path, the
                paper's default); False when an already-running warm server
                is reused, paying only the warm overhead plus the short
                re-acquisition handshake.
            spec: Placement of the replacement; defaults to the revoked
                worker's own ``(gpu, region)``.  A pool-aware fleet may
                redirect the replacement to a different region (adaptive
                placement).
        """
        spec = spec if spec is not None else revoked.spec
        if cold:
            overhead = self.replacement_model.sample(
                self.session.job.profile, cold=True, gpu_name=spec.gpu_name)
        else:
            overhead = self.replacement_model.sample_warm_reuse(
                self.session.job.profile, gpu_name=spec.gpu_name)
        records = self.session.trace.revocation_records
        was_chief = any(r.worker_id == revoked.worker_id and r.was_chief for r in records)
        reuse_ip = self.config.policy.reuse_chief_ip and was_chief
        replacement = self.session.add_worker(
            spec, overhead_seconds=overhead.total, cold_start=cold,
            reuse_chief_ip=reuse_ip)
        # The cluster shape changes again when the replacement joins; push the
        # warm-up window past that point so the detector does not misread the
        # transition as a parameter-server bottleneck.
        self._mark_reconfiguration(settle_seconds=overhead.total)
        start = "cold-start" if cold else "warm-reuse"
        self._log("replacement",
                  f"requested {spec.gpu_name} replacement for {revoked.worker_id}"
                  f" in {spec.region_name}; {start} overhead {overhead.total:.1f}s")
        return replacement

    # ------------------------------------------------------------------
    # Monitoring loop.
    # ------------------------------------------------------------------
    def predicted_speed(self) -> float:
        """Predicted cluster speed: the sum of individual worker speeds.

        This mirrors Section VI-A: the composition of per-worker predictions
        with no parameter-server term, which is exactly what makes the
        comparison against the measured speed reveal PS bottlenecks.  Workers
        that have been requested but have not yet joined the session (e.g. a
        cold-start replacement still booting) are excluded.
        """
        gflops = self.session.job.profile.gflops
        now = self.session.simulator.now
        return sum(self.session.step_time_model.mean_speed(gflops, worker.gpu_name)
                   for worker in self.session.active_workers()
                   if worker.joined_at <= now)

    def start_monitoring(self) -> None:
        """Begin the periodic poll/detect/mitigate loop."""
        if self._monitoring or self.session.finished:
            return
        self._monitoring = True
        self._poll_event = self.session.schedule_control(
            self.config.poll_interval_seconds, self._poll, label="cmdare:poll")

    def stop_monitoring(self) -> None:
        """Stop the poll loop, cancelling any pending poll event."""
        self._monitoring = False
        if self._poll_event is not None:
            self._poll_event.cancel()
            self._poll_event = None

    def _poll(self, _sim) -> None:
        self._poll_event = None
        if not self._monitoring:
            return
        if self.session.finished:
            self._monitoring = False
            return
        sample = self.tracker.poll()
        if sample is not None:
            try:
                # Average the last few windows observed since the most recent
                # reconfiguration: a single window of an asynchronous cluster
                # is quantized by whole steps and can swing by several percent
                # without any real slowdown.
                elapsed = self.session.simulator.now - self._last_reconfiguration
                recent = [s.speed for s in self.tracker.samples
                          if s.time > self._last_reconfiguration][-3:]
                if not recent:
                    raise DataError("no speed windows since the last reconfiguration")
                measured = sum(recent) / len(recent)
                report = self.detector.check(self.predicted_speed(), measured, elapsed)
            except DataError:
                report = None
            if report is not None:
                self.bottleneck_reports.append(report)
                if report.bottleneck_detected:
                    self._log("bottleneck", report.suggestion)
                    self._maybe_mitigate()
        self._poll_event = self.session.schedule_control(
            self.config.poll_interval_seconds, self._poll, label="cmdare:poll")

    def _maybe_mitigate(self) -> None:
        if not self.config.auto_mitigate_bottleneck:
            return
        if self._extra_parameter_servers >= self.config.max_extra_parameter_servers:
            return
        self.session.add_parameter_server(1)
        self._extra_parameter_servers += 1
        self._mark_reconfiguration(settle_seconds=10.0)
        self._log("mitigation", "added one parameter server (session restart ~10s)")

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact summary of everything the controller did."""
        return {
            "num_actions": len(self.actions),
            "num_revocations_seen": sum(1 for a in self.actions if a.kind == "revocation"),
            "num_replacements": sum(1 for a in self.actions if a.kind == "replacement"),
            "num_bottleneck_flags": sum(1 for a in self.actions if a.kind == "bottleneck"),
            "extra_parameter_servers": self._extra_parameter_servers,
        }
