"""Runtime knobs: every ``REPRO_*`` environment variable, declared once.

Each :class:`Knob` carries its variable's :mod:`repro.schema` kind, default
and description, whether the sweep cache keys on it and, if a command line
can override it, its flag.  Derived from these declarations:
:func:`fingerprint`, folded into every sweep cache key
(:mod:`repro.sweeps.runner`); the knob flags, their help and their
validation (:mod:`repro.cli`); and the README's knob table (``python -m
repro.config``).  A malformed value raises a
:class:`~repro.errors.ConfigurationError` naming the variable, or the
argument standing in for it, and the expected form.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator, Mapping, Optional

from repro import schema
from repro.errors import ConfigurationError


class Knob:
    """One ``REPRO_*`` environment variable.

    ``kind``, a :mod:`repro.schema` kind, reads the variable's text
    (:func:`repro.schema.from_text`) or checks an explicit argument
    standing in for it, and raises a
    :class:`~repro.errors.ConfigurationError` naming the variable or
    argument when it cannot.  ``fingerprint`` knobs select
    a compute path whose payloads are only contractually identical, so the
    sweep cache keys on their effective value.  ``flag`` overrides the
    variable for one invocation of a console script.
    """

    def __init__(self, name: str, kind: Callable[[Any, str], Any],
                 default: Any, doc: str, *, fingerprint: bool = False,
                 flag: Optional[str] = None, metavar: Optional[str] = None):
        self.name = name
        self.kind = kind
        self.default = default
        self.doc = doc
        self.fingerprint = fingerprint
        self.flag = flag
        self.metavar = metavar
        # The last (text, value) read: injection sites poll REPRO_CHAOS per
        # event, so a set variable is parsed once, not once per read.
        self._memo: Any = (None, None)

    def get(self) -> Any:
        """The variable's value, or the default when it is unset or blank."""
        raw = os.environ.get(self.name, "")
        memo_raw, value = self._memo
        if raw != memo_raw:
            value = self.check(raw, self.name) if raw.strip() else self.default
            self._memo = (raw, value)
        return value

    def check(self, value: Any, label: str) -> Any:
        """``value`` read like the variable; errors name ``label``."""
        return schema.from_text(self.kind, value, label)

    def resolve(self, value: Any, label: str) -> Any:
        """An explicit argument checked like the variable, or, when it is
        ``None``, the variable itself."""
        return self.get() if value is None else self.check(value, label)


def render(value: Any) -> str:
    """A knob value as its environment spelling (``True`` -> ``1``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return "none" if value is None else str(value)


# ---------------------------------------------------------------------------
# Kinds the schema does not declare.
# ---------------------------------------------------------------------------
_count = schema.integer(0, convert=int)


def _workers(value: Any, where: str) -> Any:
    try:
        return value if value == "auto" else _count(value, where)
    except schema.Invalid:
        schema.fail(value, where, "an integer >= 0 or 'auto'")


_workers.read = lambda spelling: ("auto" if spelling.strip().lower() == "auto"
                                  else int(spelling))


def _generation(value: Any, where: str) -> int:
    # Written by the sweep runner itself; an unreadable value is generation 0.
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


def _fault_plan(value: Any, where: str):
    # The spec grammar lives with the injection sites.  Its errors stay plain
    # ConfigurationErrors, not Invalid, so a bad --chaos exits 1 through
    # repro.cli.run_cli, as a bad REPRO_CHAOS does.
    from repro.chaos.plan import FaultPlan

    try:
        return FaultPlan.from_spec(value)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------
#: Per-session trace levels: every chunk row, or aggregates only.
TRACE_LEVELS = ("full", "summary")

CORE_FASTFORWARD = Knob(
    "REPRO_CORE_FASTFORWARD", schema.flag, True, fingerprint=True,
    doc="vectorized fast-forward session core; off runs the chunked event "
        "loop, with identical payloads")
FLEET_TRACE_LEVEL = Knob(
    "REPRO_FLEET_TRACE_LEVEL", schema.choice(*TRACE_LEVELS), "full",
    fingerprint=True, flag="--trace-level",
    metavar="{" + ",".join(TRACE_LEVELS) + "}",
    doc="per-session trace detail: 'summary' keeps aggregates only, so very "
        "large fleets fit in memory; payloads are identical")
FLEET_SHARDS = Knob(
    "REPRO_FLEET_SHARDS", schema.integer(1, convert=int), 1, fingerprint=True,
    flag="--shards", metavar="N",
    doc="worker processes each fleet runs across (repro.scenarios.shard); "
        "payloads are identical at any count")
SHARD_RESTARTS = Knob(
    "REPRO_SHARD_RESTARTS", _count, 3,
    doc="supervised shard restarts per fleet before the run fails (0 "
        "disables restarts)")
SHARD_HEARTBEAT_SECONDS = Knob(
    "REPRO_SHARD_HEARTBEAT_SECONDS", schema.real(gt=0.0, convert=float),
    60.0,
    doc="silence after which a shard that is neither done nor awaiting a "
        "grant is declared dead and restarted")
SWEEP_WORKERS = Knob(
    "REPRO_SWEEP_WORKERS", _workers, 1, flag="--workers", metavar="N",
    doc="sweep worker processes, or 'auto' to size from the CPU count; "
        "payloads are identical at any count")
SWEEP_RETRIES = Knob(
    "REPRO_SWEEP_RETRIES", _count, 2,
    doc="extra process-pool attempts after a sweep worker process dies")
SWEEP_CACHE = Knob(
    "REPRO_SWEEP_CACHE", schema.text, None,
    doc="per-cell result cache directory of the paper-figure benches "
        "(benchmarks/)")
CHAOS = Knob(
    "REPRO_CHAOS", _fault_plan, None, flag="--chaos", metavar="SPEC",
    doc="deterministic fault plan (repro.chaos): ';'-separated entries like "
        "'shard_crash:shard=0,at=2', plus optional 'seed=N'; recovery must "
        "reproduce the fault-free payloads")
CHAOS_LOG = Knob(
    "REPRO_CHAOS_LOG", schema.text, None,
    doc="file the chaos harness appends its JSON-lines injection and "
        "recovery log to")
CHAOS_INCARNATION = Knob(
    "REPRO_CHAOS_INCARNATION", _generation, 0,
    doc="process-pool generation, exported by the sweep runner so a retried "
        "cell does not re-fire the fault that killed it (internal)")

#: Every knob, in README order.
KNOBS = (CORE_FASTFORWARD, FLEET_TRACE_LEVEL, FLEET_SHARDS, SHARD_RESTARTS,
         SHARD_HEARTBEAT_SECONDS, SWEEP_WORKERS, SWEEP_RETRIES, SWEEP_CACHE,
         CHAOS, CHAOS_LOG, CHAOS_INCARNATION)


def fingerprint() -> str:
    """The effective value of every fingerprinted knob, as ``NAME=value``.

    Every spelling of one setting keys alike (``0`` / ``false`` / ``off``;
    an explicit default and unset).  Worker processes inherit the parent's
    environment, so the parent-side value covers pooled execution too.
    """
    return ",".join(f"{knob.name}={render(knob.get())}"
                    for knob in KNOBS if knob.fingerprint)


@contextlib.contextmanager
def scoped(values: Mapping[Knob, Any]) -> Iterator[None]:
    """Set knobs in the environment for a ``with`` block, then restore them.

    ``None`` values are skipped.  Child processes (sweep pool workers,
    shard processes) inherit the settings and :func:`fingerprint` sees
    them, which is how a command-line flag reaches every layer.
    """
    exported = {knob.name: str(value) for knob, value in values.items()
                if value is not None}
    saved = {name: os.environ.get(name) for name in exported}
    os.environ.update(exported)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def table() -> str:
    """The knob reference as a Markdown table (the README's copy)."""
    rows = ["| Variable | Default | Flag | Cache key | Controls |",
            "| --- | --- | --- | --- | --- |"]
    for knob in KNOBS:
        flag = f"`{knob.flag}`" if knob.flag else ""
        keyed = "yes" if knob.fingerprint else ""
        rows.append(f"| `{knob.name}` | `{render(knob.default)}` | {flag} | "
                    f"{keyed} | {knob.doc} |")
    return "\n".join(rows)


if __name__ == "__main__":  # pragma: no cover - exercised via the README test
    print(table())
