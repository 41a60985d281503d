"""Fault injection for training sessions.

The paper's recomputation experiment (Section V-E, Fig. 11) *manually*
revokes the chief worker at a chosen step and adds a replacement at a
chosen later point.  :class:`FaultInjector` provides that control for any
session, and is also handy for users who want to test the resilience of
their own configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.training.cluster import WorkerSpec
from repro.training.session import TrainingSession


@dataclass
class _PlannedRevocation:
    worker_id: str
    at_step: int
    done: bool = False


@dataclass
class _PlannedReplacement:
    spec: WorkerSpec
    at_step: int
    overhead_seconds: float
    reuse_chief_ip: bool
    cold_start: bool
    done: bool = False


class FaultInjector:
    """Schedules manual revocations and replacements at given cluster steps.

    The injector polls the session at a fixed simulated-time cadence and
    fires each planned fault once the session's cluster step count crosses
    the planned step.

    Args:
        session: The training session to inject into.
        poll_interval_seconds: How often to check the session's progress.
    """

    def __init__(self, session: TrainingSession, poll_interval_seconds: float = 1.0):
        if poll_interval_seconds <= 0:
            raise ConfigurationError("poll_interval_seconds must be positive")
        self.session = session
        self.poll_interval_seconds = poll_interval_seconds
        self._revocations: List[_PlannedRevocation] = []
        self._replacements: List[_PlannedReplacement] = []
        self._armed = False

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------
    def revoke_at_step(self, worker_id: str, step: int) -> None:
        """Plan a manual revocation of ``worker_id`` at cluster step ``step``."""
        if step < 0:
            raise ConfigurationError("step must be non-negative")
        self._revocations.append(_PlannedRevocation(worker_id=worker_id, at_step=step))
        self._arm()

    def replace_at_step(self, spec: WorkerSpec, step: int,
                        overhead_seconds: float = 0.0,
                        reuse_chief_ip: bool = False,
                        cold_start: bool = True) -> None:
        """Plan the addition of a replacement worker at cluster step ``step``."""
        if step < 0:
            raise ConfigurationError("step must be non-negative")
        self._replacements.append(_PlannedReplacement(
            spec=spec, at_step=step, overhead_seconds=overhead_seconds,
            reuse_chief_ip=reuse_chief_ip, cold_start=cold_start))
        self._arm()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def _arm(self) -> None:
        if self._armed:
            return
        self._armed = True
        self.session.schedule_control(self.poll_interval_seconds, self._poll,
                                      label="fault-injector:poll")

    def _pending(self) -> bool:
        return (any(not plan.done for plan in self._revocations)
                or any(not plan.done for plan in self._replacements))

    def _poll(self, _sim) -> None:
        if self.session.finished or not self._pending():
            self._armed = False
            return
        step = self.session.cluster_steps
        for plan in self._revocations:
            if not plan.done and step >= plan.at_step:
                self.session.handle_revocation(plan.worker_id)
                plan.done = True
        for plan in self._replacements:
            if not plan.done and step >= plan.at_step:
                self.session.add_worker(plan.spec,
                                        overhead_seconds=plan.overhead_seconds,
                                        cold_start=plan.cold_start,
                                        reuse_chief_ip=plan.reuse_chief_ip)
                plan.done = True
        self.session.schedule_control(self.poll_interval_seconds, self._poll,
                                      label="fault-injector:poll")
