"""Deterministic fault injection for the distributed runtime.

The chaos harness turns "does the system survive a crash?" from folklore
into a pinned contract: a :class:`FaultPlan` names exactly which process
dies (or which reply is dropped, which connection is reset, which export
is truncated) at exactly which point, so every chaos run is reproducible
and the bit-identity oracles the repo already pins — golden fleet
fixtures, payload-identity CI gates — verify that recovery is *exact*,
not merely eventually consistent.

Activation: set ``REPRO_CHAOS`` to a fault spec (or pass ``--chaos`` to
``repro-scenarios run``) and the injection sites across
:mod:`repro.scenarios.shard`, :mod:`repro.serve.transport`,
:mod:`repro.sweeps.runner`, and :mod:`repro.telemetry.writer` consult the
plan; without the variable every site is a no-op costing one ``None``
check.  Injected faults (and the recoveries they trigger) are appended as
JSON lines to ``REPRO_CHAOS_LOG`` when that is set, which is the artifact
the CI chaos-smoke job uploads.

See :mod:`repro.chaos.plan` for the spec grammar and the fault kinds.
"""

from repro.chaos.plan import (
    FAULT_KINDS,
    ChaosMonitor,
    Fault,
    FaultPlan,
    active_plan,
    chaos_exit,
    log_event,
    worker_incarnation,
)

__all__ = [
    "FAULT_KINDS",
    "ChaosMonitor",
    "Fault",
    "FaultPlan",
    "active_plan",
    "chaos_exit",
    "log_event",
    "worker_incarnation",
]
