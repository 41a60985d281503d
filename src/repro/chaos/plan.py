"""Fault plans: what to break, where, and exactly when.

A :class:`FaultPlan` is a tuple of :class:`Fault` entries plus a seed.
Each fault names an injection *site* (its ``kind``), an optional target
(``shard`` / ``cell``), a 1-based trigger count ``at`` (the nth event at
that site), and an ``incarnation`` — the spawn generation of the target
process, so a fault scheduled for incarnation 0 does **not** re-fire
after the supervisor restarts its victim (and a test *can* crash the
restarted process again by scheduling incarnation 1).

Fault kinds and their sites:

``shard_crash``
    The shard worker process calls ``os._exit`` immediately before
    sending its ``at``-th draw request (:mod:`repro.scenarios.shard`).
``drop_grant``
    The parent draw service executes the model calls for the shard's
    ``at``-th granted request — consuming the revocation stream and
    recording the grant in the replay log — but never sends the reply,
    wedging the shard until the heartbeat supervisor restarts it.
``serve_reset``
    The placement server closes a client connection without replying to
    the ``at``-th request line it receives
    (:mod:`repro.serve.transport`); retrying clients must converge.
``serve_hang``
    The server sleeps ``seconds`` (default far past any timeout) before
    dispatching the ``at``-th request.  The sleep is the one await in
    dispatch that can suspend, so it carries the ``request_timeout``
    deadline and drives the ``timeout`` error line.
``sweep_kill``
    A sweep worker process calls ``os._exit`` before executing the cell
    with index ``cell`` (:mod:`repro.sweeps.runner`), surfacing as a
    ``BrokenProcessPool`` the runner must retry.
``npz_truncate``
    The telemetry packer raises after writing the ``at``-th archive
    member (:mod:`repro.telemetry.writer.write_npz`), simulating a crash
    mid-export; the atomic-write contract keeps the artifact path clean.

The spec grammar (``REPRO_CHAOS`` / ``--chaos``) is ``;``-separated
entries, each ``kind`` or ``kind:key=value,key=value``, plus an optional
bare ``seed=N`` entry::

    REPRO_CHAOS="shard_crash:shard=0,at=2;shard_crash:shard=1,at=1"
    REPRO_CHAOS="serve_reset:at=1;serve_reset:at=3;seed=7"

Every injection appends a JSON line to the file named by
``REPRO_CHAOS_LOG`` (when set), so a chaos run leaves an auditable trace
of what was broken and what the supervisor did about it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro import config
from repro.errors import ConfigurationError

#: Exit code chaos-killed processes die with (distinctive in logs).
CHAOS_EXIT_CODE = 37

#: Every fault kind the injection sites understand.
FAULT_KINDS = ("shard_crash", "drop_grant", "serve_reset", "serve_hang",
               "sweep_kill", "npz_truncate")

#: Default sleep for ``serve_hang`` — far past any sane request timeout.
DEFAULT_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class Fault:
    """One scheduled fault (see the module docstring for the kinds)."""

    kind: str
    at: int = 1
    shard: Optional[int] = None
    cell: Optional[int] = None
    incarnation: int = 0
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.at < 1:
            raise ConfigurationError(
                f"fault 'at' is 1-based and must be >= 1, got {self.at}")
        if self.incarnation < 0:
            raise ConfigurationError(
                f"fault incarnation must be >= 0, got {self.incarnation}")
        for name in ("shard", "cell"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(
                    f"fault {name} must be >= 0, got {value}")

    def matches(self, *, shard: Optional[int] = None,
                cell: Optional[int] = None, incarnation: int = 0) -> bool:
        """True when this fault targets the given site instance.

        An unset target field matches anything, so ``shard_crash:at=1``
        crashes *every* shard at its first draw; ``incarnation`` always
        compares exactly.
        """
        if self.shard is not None and self.shard != shard:
            return False
        if self.cell is not None and self.cell != cell:
            return False
        return self.incarnation == incarnation

    def to_entry(self) -> str:
        """This fault as one spec entry (``kind:key=value,...``)."""
        parts = []
        for field in fields(self):
            if field.name == "kind":
                continue
            value = getattr(self, field.name)
            default = field.default
            if value is None or value == default:
                continue
            parts.append(f"{field.name}={value:g}" if isinstance(value, float)
                         else f"{field.name}={value}")
        return self.kind if not parts else f"{self.kind}:{','.join(parts)}"


def _parse_entry(entry: str) -> Fault:
    kind, _, body = entry.partition(":")
    kind = kind.strip()
    params: Dict[str, Any] = {}
    if body.strip():
        for token in body.split(","):
            key, sep, raw = token.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or not key or not raw:
                raise ConfigurationError(
                    f"malformed fault parameter {token!r} in {entry!r}; "
                    f"expected key=value")
            if key not in ("at", "shard", "cell", "incarnation", "seconds"):
                raise ConfigurationError(
                    f"unknown fault parameter {key!r} in {entry!r}")
            try:
                params[key] = float(raw) if key == "seconds" else int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"fault parameter {key!r} expects a number, got {raw!r}")
    return Fault(kind=kind, **params)


class FaultPlan:
    """An immutable, seeded schedule of faults.

    The seed is the determinism anchor for every randomized knob a chaos
    run touches — most visibly the retry jitter of
    :func:`repro.serve.transport.request_with_retry`, which derives its
    jitter stream from it — so two runs of the same plan make the same
    choices everywhere.
    """

    def __init__(self, faults: Tuple[Fault, ...] = (), seed: int = 0):
        self.faults = tuple(faults)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # Spec round trip.
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-separated fault spec (see the module docstring)."""
        faults: List[Fault] = []
        seed = 0
        for raw in str(text).split(";"):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                try:
                    seed = int(entry[len("seed="):])
                except ValueError:
                    raise ConfigurationError(
                        f"chaos seed expects an integer, got {entry!r}")
                continue
            faults.append(_parse_entry(entry))
        if not faults:
            raise ConfigurationError(
                f"chaos spec {text!r} names no faults; expected entries "
                f"like 'shard_crash:shard=0,at=2'")
        return cls(tuple(faults), seed=seed)

    def to_spec(self) -> str:
        """The spec string :meth:`from_spec` parses back to this plan."""
        entries = [fault.to_entry() for fault in self.faults]
        if self.seed:
            entries.append(f"seed={self.seed}")
        return ";".join(entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.to_spec()!r})"

    # ------------------------------------------------------------------
    # Site queries.
    # ------------------------------------------------------------------
    def select(self, kind: str, *, shard: Optional[int] = None,
               cell: Optional[int] = None,
               incarnation: int = 0) -> Tuple[Fault, ...]:
        """Every fault of ``kind`` targeting the given site instance."""
        return tuple(fault for fault in self.faults
                     if fault.kind == kind
                     and fault.matches(shard=shard, cell=cell,
                                       incarnation=incarnation))

    def monitor(self, kind: str, *, shard: Optional[int] = None,
                cell: Optional[int] = None,
                incarnation: int = 0) -> "ChaosMonitor":
        """A counting monitor over the matching faults (fires each once)."""
        return ChaosMonitor(self.select(kind, shard=shard, cell=cell,
                                        incarnation=incarnation))


class ChaosMonitor:
    """Counts events at one injection site; fires each fault exactly once.

    ``tick()`` is called once per site event (a draw request, a grant, a
    request line, an archive member); it returns the fault whose ``at``
    equals the running count, or ``None``.  A monitor lives for one
    incarnation of one site instance, so restart-replayed processes get
    fresh counters — which is exactly why ``Fault.incarnation`` exists.
    """

    def __init__(self, faults: Tuple[Fault, ...] = ()):
        self._pending: List[Fault] = list(faults)
        self.count = 0

    def __bool__(self) -> bool:
        return bool(self._pending)

    def tick(self) -> Optional[Fault]:
        self.count += 1
        for fault in self._pending:
            if fault.at == self.count:
                self._pending.remove(fault)
                return fault
        return None


# ---------------------------------------------------------------------------
# Activation and logging.
# ---------------------------------------------------------------------------
def active_plan() -> Optional[FaultPlan]:
    """The plan named by ``REPRO_CHAOS``, or ``None`` (the fast path).

    The knob keeps the last parsed plan, so injection sites can call this
    per event without re-parsing; an unset variable costs one dict lookup
    and returns ``None``.
    """
    return config.CHAOS.get()


def worker_incarnation() -> int:
    """The pooled-worker spawn generation (``REPRO_CHAOS_INCARNATION``).

    The sweep runner exports the pool generation before every
    (re)creation; workers fold it into fault matching so a retried cell
    does not re-trigger the fault that killed its first attempt.
    """
    return config.CHAOS_INCARNATION.get()


def log_event(event: str, **details: Any) -> None:
    """Append one JSON line to the ``REPRO_CHAOS_LOG`` file (if set).

    Both injections and the recoveries they provoke are logged, so the
    chaos artifact reads as a timeline: fault fired -> supervisor
    reacted.  Logging failures are swallowed — observability must never
    take down the run it observes.
    """
    path = config.CHAOS_LOG.get()
    if not path:
        return
    record = {"event": event, "pid": os.getpid(),
              "wall_time": time.time()}
    record.update(details)
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - unwritable log path
        pass


def chaos_exit(fault: Fault, **details: Any) -> None:
    """Log an injected process kill, then die hard (``os._exit``).

    ``os._exit`` skips ``finally`` blocks and ``atexit`` hooks on
    purpose: an injected crash must look like SIGKILL-grade death to the
    supervisor (no error message, no clean pipe shutdown), or the test
    would exercise the polite failure path instead of the crash path.
    """
    log_event("injected_" + fault.kind, fault=fault.to_entry(), **details)
    sys.stderr.flush()
    os._exit(CHAOS_EXIT_CODE)
