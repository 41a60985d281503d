"""Runtime knobs: every ``REPRO_*`` environment variable, declared once.

Each :class:`Knob` carries its variable's parser, default and description,
whether the sweep cache keys on it and, if a command line can override it,
its flag.  Derived from these declarations: :func:`fingerprint`, folded
into every sweep cache key (:mod:`repro.sweeps.runner`); the knob flags,
their help and their validation (:mod:`repro.cli`); and the README's knob
table (``python -m repro.config``).  A malformed value raises a
:class:`~repro.errors.ConfigurationError` naming the variable, or the
argument standing in for it, and the expected form.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.errors import ConfigurationError


class Knob:
    """One ``REPRO_*`` environment variable.

    ``parse`` turns the variable's text, or an explicit argument standing in
    for it, into the value, raising :class:`ValueError` ("must be ...")
    when it cannot.  ``fingerprint`` knobs select a compute path whose
    payloads are only contractually identical, so the sweep cache keys on
    their effective value.  ``flag`` overrides the variable for one
    invocation of a console script.
    """

    def __init__(self, name: str, parse: Callable[[Any], Any], default: Any,
                 doc: str, *, fingerprint: bool = False,
                 flag: Optional[str] = None, metavar: Optional[str] = None):
        self.name = name
        self.parse = parse
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
        """``value`` parsed like the variable; errors name ``label``."""
        try:
            return self.parse(value)
        except ValueError as exc:
            raise ConfigurationError(f"{label} {exc}, got {value!r}") from None
        except ConfigurationError as exc:
            raise ConfigurationError(f"{label}: {exc}") from None

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
# Parsers.
# ---------------------------------------------------------------------------
def _integer(minimum: int) -> Callable[[Any], int]:
    def parse(value: Any) -> int:
        try:
            number = int(value)
            if number >= minimum:
                return number
        except (TypeError, ValueError):
            pass
        raise ValueError(f"must be an integer >= {minimum}")
    return parse


def _positive_seconds(value: Any) -> float:
    try:
        seconds = float(value)
        if seconds > 0:  # also rejects NaN
            return seconds
    except (TypeError, ValueError):
        pass
    raise ValueError("must be a number of seconds > 0")


_SWITCH = {"1": True, "true": True, "on": True, "yes": True,
           "0": False, "false": False, "off": False, "no": False}


def _switch(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    try:
        return _SWITCH[str(value).strip().lower()]
    except KeyError:
        raise ValueError("must be one of 1/0, true/false, on/off, "
                         "yes/no") from None


def _choice(*choices: str) -> Callable[[Any], str]:
    def parse(value: Any) -> str:
        text = str(value).strip().lower()
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return text
    return parse


def _workers(value: Any):
    text = str(value).strip().lower()
    if text == "auto":
        return "auto"
    try:
        workers = int(text)
        if workers >= 0:
            return workers
    except ValueError:
        pass
    raise ValueError("must be an integer >= 0 or 'auto'")


def _generation(value: Any) -> int:
    # Written by the sweep runner itself; an unreadable value is generation 0.
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


def _fault_plan(value: Any):
    # The spec grammar lives with the injection sites.
    from repro.chaos.plan import FaultPlan

    return FaultPlan.from_spec(value)


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------
#: Per-session trace levels: every chunk row, or aggregates only.
TRACE_LEVELS = ("full", "summary")

CORE_FASTFORWARD = Knob(
    "REPRO_CORE_FASTFORWARD", _switch, True, fingerprint=True,
    doc="vectorized fast-forward session core; off runs the chunked event "
        "loop, with identical payloads")
FLEET_TRACE_LEVEL = Knob(
    "REPRO_FLEET_TRACE_LEVEL", _choice(*TRACE_LEVELS), "full",
    fingerprint=True, flag="--trace-level",
    metavar="{" + ",".join(TRACE_LEVELS) + "}",
    doc="per-session trace detail: 'summary' keeps aggregates only, so very "
        "large fleets fit in memory; payloads are identical")
FLEET_SHARDS = Knob(
    "REPRO_FLEET_SHARDS", _integer(1), 1, fingerprint=True, flag="--shards",
    metavar="N",
    doc="worker processes each fleet runs across (repro.scenarios.shard); "
        "payloads are identical at any count")
SHARD_RESTARTS = Knob(
    "REPRO_SHARD_RESTARTS", _integer(0), 3,
    doc="supervised shard restarts per fleet before the run fails (0 "
        "disables restarts)")
SHARD_HEARTBEAT_SECONDS = Knob(
    "REPRO_SHARD_HEARTBEAT_SECONDS", _positive_seconds, 60.0,
    doc="silence after which a shard that is neither done nor awaiting a "
        "grant is declared dead and restarted")
SWEEP_WORKERS = Knob(
    "REPRO_SWEEP_WORKERS", _workers, 1, flag="--workers", metavar="N",
    doc="sweep worker processes, or 'auto' to size from the CPU count; "
        "payloads are identical at any count")
SWEEP_RETRIES = Knob(
    "REPRO_SWEEP_RETRIES", _integer(0), 2,
    doc="extra process-pool attempts after a sweep worker process dies")
SWEEP_CACHE = Knob(
    "REPRO_SWEEP_CACHE", str, None,
    doc="per-cell result cache directory of the paper-figure benches "
        "(benchmarks/)")
CHAOS = Knob(
    "REPRO_CHAOS", _fault_plan, None, flag="--chaos", metavar="SPEC",
    doc="deterministic fault plan (repro.chaos): ';'-separated entries like "
        "'shard_crash:shard=0,at=2', plus optional 'seed=N'; recovery must "
        "reproduce the fault-free payloads")
CHAOS_LOG = Knob(
    "REPRO_CHAOS_LOG", str, None,
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
