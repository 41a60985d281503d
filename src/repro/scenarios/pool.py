"""Finite shared pool of transient GPU servers, with warm reuse.

The paper's experiments run one training job at a time, so a replacement
request after a revocation always succeeds.  At fleet scale the picture
changes: concurrent jobs draw from the same per-``(gpu, region)`` transient
capacity, and a revocation means the provider *reclaimed* that capacity —
the slot does not return to the pool until ``reclaim_seconds`` later.  A
replacement request that finds the pool exhausted is therefore **denied**
(the job continues degraded) or **queued** (served FIFO when reclaimed
capacity returns or another job releases its servers), a regime the
single-job experiments never reach.

Warm pool
---------
With ``warm_capacity > 0`` and ``warm_seconds > 0`` the pool additionally
models the Fig. 10 warm-start path: when reclaimed capacity returns it
does so as a *warm* server — an already-running instance that lingers for
``warm_seconds`` before cooling down into plain (cold) capacity.  Grants
taken from a warm server are flagged ``warm=True`` so the grantee can pay
the warm replacement overhead (framework restart + session join + graph
setup plus a short re-acquire handshake, see
:meth:`repro.cloud.startup.StartupTimeModel.sample_warm_reacquire`)
instead of a cold boot.  ``warm_capacity=0`` (the default) disables the
warm path entirely and reproduces the cold-only pool bit for bit — the
payload-identity contract pinned by ``tests/test_fleet_golden_identity.py``.

Bookkeeping invariants (property-tested in ``tests/test_property_based.py``
under random acquire/revoke/release/warm-reuse interleavings):

* conservation: ``in_use + available + warm + reclaimed == capacity`` per
  cell at all times (so ``in_use + available + warm <= capacity``);
* FIFO: queued replacement requests are granted in enqueue order;
* single return: a reclaim timer returns each revoked slot exactly once
  (a warm server taken before its cooldown fires is never resurrected a
  second time by that cooldown).

All pool state changes happen inside simulator event callbacks or
synchronous calls from them, so fleet runs stay deterministic: the FIFO
waiter order and the reclaim-return events are fully determined by the
event order of the simulation.

Versioned snapshots
-------------------
Every observable state transition (slot take, release, revoke, reclaim
return, warm park/cooldown, waiter enqueue/cancel) bumps a monotonic
:attr:`TransientPool.version` counter, and :meth:`TransientPool.snapshot`
returns a frozen, read-only :class:`PoolSnapshot` of the per-cell counters
at that version.  The snapshot exposes the same read methods as the live
pool (``cells`` / ``capacity`` / ``available`` / ``warm_count`` /
``acquirable`` / ``in_use`` / ``pending_waiters``), so the placement
advisor and :mod:`repro.serve` score against an immutable view instead of
reaching into live pool attributes — and anything cached against a
decision can compare its recorded ``pool_version`` with the live counter
to detect staleness.  Snapshots are cached per version: taking one twice
without an intervening transition returns the same object.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.simulation.engine import Simulator

#: A pool key: ``(gpu name, region name)``.
PoolKey = Tuple[str, str]

#: Replacement-request outcomes.
GRANTED = "granted"
QUEUED = "queued"
DENIED = "denied"

#: Grant callback: invoked with ``warm=True`` when the assigned slot is a
#: still-running warm server (Fig. 10 warm start), ``False`` for a cold boot.
GrantFn = Callable[[bool], None]


@dataclass
class _PoolState:
    """Mutable per-``(gpu, region)`` accounting, with the FIFO of queued
    replacement requests."""

    capacity: int
    in_use: int = 0
    reclaimed: int = 0
    warm: int = 0
    peak_in_use: int = 0
    peak_warm: int = 0
    waiters: Deque["_Waiter"] = field(default_factory=deque)

    @property
    def available(self) -> int:
        """Cold slots free right now (warm servers counted separately)."""
        return self.capacity - self.in_use - self.reclaimed - self.warm

    @property
    def waiting(self) -> int:
        return len(self.waiters)

    def take(self) -> None:
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)


@dataclass(frozen=True)
class CellSnapshot:
    """Frozen per-``(gpu, region)`` counters at one pool version.

    Attributes:
        capacity: Configured slot count of the cell.
        in_use: Slots occupied by running servers.
        reclaimed: Slots the provider is still holding after revocations.
        warm: Warm (still running, re-acquirable) servers parked in the cell.
        available: Free *cold* slots.
        waiting: Queued replacement requests.
    """

    capacity: int
    in_use: int
    reclaimed: int
    warm: int
    available: int
    waiting: int


class _PoolReads:
    """The read API a live :class:`TransientPool` and its
    :class:`PoolSnapshot` share, so the placement advisor (and anything
    else duck-typed against the pool) can score against either.

    Each reader answers from ``_states``, the class's per-``(gpu, region)``
    views: live :class:`_PoolState` counters or frozen
    :class:`CellSnapshot` ones.  A cell the pool lacks raises
    :class:`~repro.errors.CapacityError`.
    """

    def _cell(self, gpu_name: str, region_name: str):
        try:
            return self._states[gpu_name, region_name]
        except KeyError:
            raise CapacityError(f"the pool has no {gpu_name!r} capacity in "
                                f"{region_name!r}") from None

    def cells(self) -> Tuple[PoolKey, ...]:
        """All ``(gpu, region)`` cells of the pool, sorted."""
        return tuple(sorted(self._states))

    def capacity(self, gpu_name: str, region_name: str) -> int:
        """Configured capacity of a ``(gpu, region)`` cell."""
        return self._cell(gpu_name, region_name).capacity

    def available(self, gpu_name: str, region_name: str) -> int:
        """Free *cold* slots for a ``(gpu, region)`` cell."""
        return self._cell(gpu_name, region_name).available

    def warm_count(self, gpu_name: str, region_name: str) -> int:
        """Warm (still running, re-acquirable) servers in a cell."""
        return self._cell(gpu_name, region_name).warm

    def acquirable(self, gpu_name: str, region_name: str) -> int:
        """Slots a request could take: cold free plus warm."""
        cell = self._cell(gpu_name, region_name)
        return cell.available + cell.warm

    def in_use(self, gpu_name: str, region_name: str) -> int:
        """Slots occupied by running servers."""
        return self._cell(gpu_name, region_name).in_use

    def pending_waiters(self, gpu_name: str, region_name: str) -> int:
        """Queued replacement requests for a ``(gpu, region)`` cell."""
        return self._cell(gpu_name, region_name).waiting


@dataclass(frozen=True)
class PoolSnapshot(_PoolReads):
    """Read-only view of a :class:`TransientPool` at one state version.

    It answers the live pool's reads, but never changes: pool transitions
    after it was taken are visible only through a higher
    :attr:`TransientPool.version`, never through the snapshot itself.
    """

    version: int
    _states: Dict[PoolKey, CellSnapshot] = field(repr=False)


class _WarmServer:
    """One still-running warm server; ``taken`` guards its cooldown timer."""

    __slots__ = ("taken",)

    def __init__(self) -> None:
        self.taken = False


class _Waiter:
    """One queued replacement request."""

    __slots__ = ("label", "grant")

    def __init__(self, label: str, grant: GrantFn) -> None:
        self.label = label
        self.grant = grant


class ReplacementTicket:
    """Handle for one :meth:`TransientPool.request_replacement` call.

    Attributes:
        outcome: ``"granted"``, ``"queued"``, or ``"denied"``.
        key: The ``(gpu, region)`` cell the request targeted.
        warm: For synchronous grants, whether the slot was a warm server.
        cancelled: Whether :meth:`cancel` removed the queued request.
    """

    __slots__ = ("outcome", "key", "warm", "cancelled", "_pool", "_waiter")

    def __init__(self, outcome: str, key: PoolKey, warm: bool = False,
                 pool: Optional["TransientPool"] = None,
                 waiter: Optional[_Waiter] = None) -> None:
        self.outcome = outcome
        self.key = key
        self.warm = warm
        self.cancelled = False
        self._pool = pool
        self._waiter = waiter

    def cancel(self) -> bool:
        """Withdraw a still-queued request (e.g. the session finished).

        Returns:
            True when a queued request was removed from the waiter queue;
            False when there was nothing to cancel (the request was never
            queued, was already granted, or was already cancelled).
        """
        if self._pool is None or self._waiter is None:
            return False
        removed = self._pool._cancel_waiter(self.key, self._waiter)
        self._waiter = None
        if removed:
            self.cancelled = True
        return removed


class TransientPool(_PoolReads):
    """Shared finite transient-server capacity for a fleet of jobs.

    Args:
        simulator: Simulator that times reclaimed-capacity returns.
        capacity: Maximum concurrently alive servers per ``(gpu, region)``.
        reclaim_seconds: Delay before revoked capacity returns to the pool.
        warm_seconds: How long a returning reclaimed slot lingers as a warm
            (still running, re-acquirable) server before cooling down into
            plain cold capacity.  0 disables warm reuse.
        warm_capacity: Maximum warm servers kept per ``(gpu, region)`` cell;
            0 (the default) disables warm reuse and reproduces the cold-only
            pool bit for bit.
    """

    def __init__(self, simulator: Simulator, capacity: Mapping[PoolKey, int],
                 reclaim_seconds: float = 3600.0, warm_seconds: float = 0.0,
                 warm_capacity: int = 0):
        if not capacity:
            raise ConfigurationError("a pool needs at least one (gpu, region) cell")
        if reclaim_seconds < 0:
            raise ConfigurationError("reclaim_seconds must be non-negative")
        if warm_seconds < 0:
            raise ConfigurationError("warm_seconds must be non-negative")
        if warm_capacity < 0:
            raise ConfigurationError("warm_capacity must be non-negative")
        self.simulator = simulator
        self.reclaim_seconds = float(reclaim_seconds)
        self.warm_seconds = float(warm_seconds)
        self.warm_capacity = int(warm_capacity)
        self._states: Dict[PoolKey, _PoolState] = {}
        for key, count in capacity.items():
            if count <= 0:
                raise ConfigurationError(f"pool capacity for {key} must be positive")
            self._states[key] = _PoolState(capacity=int(count))
        self._warm: Dict[PoolKey, Deque[_WarmServer]] = {
            key: deque() for key in self._states}
        self.launches = 0
        self.releases = 0
        self.revocations = 0
        self.replacement_requests = 0
        self.replacements_granted = 0
        self.replacements_queued = 0
        self.replacements_denied = 0
        self.replacements_cancelled = 0
        self.replacements_warm = 0
        self._version = 0
        self._snapshot: Optional[PoolSnapshot] = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic state version; bumped on every observable transition."""
        return self._version

    def _bump(self) -> None:
        self._version += 1

    def snapshot(self) -> PoolSnapshot:
        """A frozen read-only view of the pool at its current version.

        Cached per version: repeated calls between transitions return the
        same object, so fleet controllers and the serve layer can snapshot
        eagerly without copying cost on an idle pool.
        """
        snapshot = self._snapshot
        if snapshot is not None and snapshot.version == self._version:
            return snapshot
        cells = {
            key: CellSnapshot(capacity=state.capacity, in_use=state.in_use,
                              reclaimed=state.reclaimed, warm=state.warm,
                              available=state.available,
                              waiting=state.waiting)
            for key, state in self._states.items()}
        snapshot = PoolSnapshot(version=self._version, _states=cells)
        self._snapshot = snapshot
        return snapshot
    @property
    def warm_enabled(self) -> bool:
        """Whether the warm-reuse path is active."""
        return self.warm_capacity > 0 and self.warm_seconds > 0

    # ------------------------------------------------------------------
    # Slot lifecycle.
    # ------------------------------------------------------------------
    def _try_take(self, key: PoolKey) -> Optional[bool]:
        """Take one slot if any is free; returns the warm flag, or None.

        Warm servers are preferred: re-acquiring one pays the Fig. 10 warm
        path instead of a cold boot, so it is always at least as good for
        the grantee.  With ``warm_capacity=0`` no warm server ever exists
        and this is exactly the cold-only take.
        """
        state = self._states[key]
        warm_servers = self._warm[key]
        if warm_servers:
            server = warm_servers.popleft()
            server.taken = True
            state.warm -= 1
            state.take()
            self._bump()
            return True
        if state.available > 0:
            state.take()
            self._bump()
            return False
        return None

    def acquire(self, gpu_name: str, region_name: str) -> bool:
        """Take one slot for an initial (fleet-launch) worker.

        Returns:
            Whether the slot was a warm server (never at fleet launch, but
            the pool API stays uniform for direct users).

        Raises:
            CapacityError: If the cell has no free slot; scenario specs
                validate initial demand up front, so this only fires on
                direct misuse of the pool.
        """
        self._cell(gpu_name, region_name)
        warm = self._try_take((gpu_name, region_name))
        if warm is None:
            raise CapacityError(
                f"no free {gpu_name} capacity in {region_name} at fleet launch")
        self.launches += 1
        return warm

    def release(self, gpu_name: str, region_name: str) -> None:
        """Return a slot whose server terminated normally (job completed)."""
        state = self._cell(gpu_name, region_name)
        if state.in_use <= 0:
            raise CapacityError(f"release without a matching acquire for "
                                f"({gpu_name}, {region_name})")
        state.in_use -= 1
        self.releases += 1
        self._bump()
        self._serve((gpu_name, region_name))

    def revoke(self, gpu_name: str, region_name: str) -> None:
        """Record a revocation: the provider reclaims the slot's capacity.

        The slot moves from *in use* to *reclaimed* and returns to the pool
        ``reclaim_seconds`` later — as a warm server when the warm pool is
        enabled and has room, else as cold capacity — at which point queued
        replacement requests are served FIFO.
        """
        state = self._cell(gpu_name, region_name)
        if state.in_use <= 0:
            raise CapacityError(f"revocation without a live server for "
                                f"({gpu_name}, {region_name})")
        state.in_use -= 1
        state.reclaimed += 1
        self.revocations += 1
        self._bump()
        key = (gpu_name, region_name)

        def restore(_sim: Simulator) -> None:
            state.reclaimed -= 1
            self._bump()
            if self.warm_enabled and state.warm < self.warm_capacity:
                self._add_warm(key)
            self._serve(key)

        self.simulator.schedule(self.reclaim_seconds, restore,
                                label=f"pool:reclaim:{gpu_name}:{region_name}")

    def _add_warm(self, key: PoolKey) -> None:
        """Park one returning slot as a warm server for ``warm_seconds``."""
        state = self._states[key]
        server = _WarmServer()
        self._warm[key].append(server)
        state.warm += 1
        state.peak_warm = max(state.peak_warm, state.warm)
        self._bump()

        def cooldown(_sim: Simulator) -> None:
            # The `taken` guard is what makes reclaim/cooldown timers
            # single-shot: a warm server re-acquired before its cooldown
            # fired is already in use and must not return a second time.
            if server.taken:
                return
            server.taken = True
            self._warm[key].remove(server)
            state.warm -= 1
            self._bump()
            self._serve(key)

        self.simulator.schedule(self.warm_seconds, cooldown,
                                label=f"pool:cooldown:{key[0]}:{key[1]}")

    def request_replacement(self, gpu_name: str, region_name: str,
                            grant: GrantFn, queue: bool = False,
                            label: str = "") -> ReplacementTicket:
        """Ask for a replacement slot after a revocation.

        Args:
            gpu_name: GPU type of the replacement.
            region_name: Region of the replacement.
            grant: Invoked as ``grant(warm)`` (synchronously now, or later
                from a reclaim / cooldown / release event) once a slot is
                assigned; ``warm`` says whether it is a warm server.  The
                slot is already taken when the callback runs; a grantee
                that no longer needs it must :meth:`release` it.
            queue: Queue the request FIFO when no slot is free, instead of
                denying it.
            label: Debugging label recorded with queued requests.

        Returns:
            A :class:`ReplacementTicket` whose ``outcome`` is ``"granted"``,
            ``"queued"``, or ``"denied"``; queued tickets can be withdrawn
            with :meth:`ReplacementTicket.cancel` (e.g. when the requesting
            session finishes while still waiting).
        """
        state = self._cell(gpu_name, region_name)
        key = (gpu_name, region_name)
        self.replacement_requests += 1
        warm = self._try_take(key)
        if warm is not None:
            self.replacements_granted += 1
            if warm:
                self.replacements_warm += 1
            grant(warm)
            return ReplacementTicket(GRANTED, key, warm=warm)
        if queue:
            self.replacements_queued += 1
            waiter = _Waiter(label, grant)
            state.waiters.append(waiter)
            self._bump()
            return ReplacementTicket(QUEUED, key, pool=self, waiter=waiter)
        self.replacements_denied += 1
        return ReplacementTicket(DENIED, key)

    def _cancel_waiter(self, key: PoolKey, waiter: _Waiter) -> bool:
        """Remove a queued waiter; True when it was still queued."""
        waiters = self._states[key].waiters
        if waiter not in waiters:
            return False
        waiters.remove(waiter)
        self.replacements_cancelled += 1
        self._bump()
        return True

    def _serve(self, key: PoolKey) -> None:
        """Hand freed slots to queued replacement requests, FIFO."""
        waiters = self._states[key].waiters
        while waiters:
            warm = self._try_take(key)
            if warm is None:
                return
            waiter = waiters.popleft()
            self.replacements_granted += 1
            if warm:
                self.replacements_warm += 1
            waiter.grant(warm)

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    @property
    def replacement_denial_rate(self) -> float:
        """Denied replacement requests as a fraction of all requests.

        0.0 for a fleet that never requested a replacement — never a
        ZeroDivisionError or NaN (regression-tested in
        ``tests/test_scenarios.py``).
        """
        if self.replacement_requests == 0:
            return 0.0
        return self.replacements_denied / self.replacement_requests

    @property
    def warm_reuse_rate(self) -> float:
        """Warm grants as a fraction of all granted replacements (0.0 when
        nothing was granted)."""
        if self.replacements_granted == 0:
            return 0.0
        return self.replacements_warm / self.replacements_granted

    def stats(self) -> Dict[str, object]:
        """JSON-encodable pool summary for fleet payloads.

        The warm-reuse and cancellation keys appear only when those paths
        are in play (``warm_enabled`` / at least one cancellation): a
        cold-only pool's stats stay byte-identical to the pre-warm-pool
        payloads, which is the golden-fixture contract of
        ``tests/test_fleet_golden_identity.py``.
        """
        stats: Dict[str, object] = {
            "launches": self.launches,
            "releases": self.releases,
            "revocations": self.revocations,
            "replacement_requests": self.replacement_requests,
            "replacements_granted": self.replacements_granted,
            "replacements_queued": self.replacements_queued,
            "replacements_denied": self.replacements_denied,
            "replacement_denial_rate": self.replacement_denial_rate,
        }
        if self.replacements_cancelled:
            stats["replacements_cancelled"] = self.replacements_cancelled
        if self.warm_enabled:
            stats["replacements_warm"] = self.replacements_warm
            stats["warm_reuse_rate"] = self.warm_reuse_rate
        cells: Dict[str, Dict[str, object]] = {}
        for (gpu, region), state in sorted(self._states.items()):
            cell: Dict[str, object] = {
                "capacity": state.capacity,
                "in_use": state.in_use,
                "reclaimed": state.reclaimed,
                "peak_in_use": state.peak_in_use,
                "waiting": state.waiting,
            }
            if self.warm_enabled:
                cell["warm"] = state.warm
                cell["peak_warm"] = state.peak_warm
            cells[f"{gpu}/{region}"] = cell
        stats["cells"] = cells
        return stats

    @staticmethod
    def merge_stats(stats_list: Sequence[Mapping[str, object]]
                    ) -> Dict[str, object]:
        """Merge per-shard :meth:`stats` payloads into one fleet summary.

        The sharded fleet driver (:mod:`repro.scenarios.shard`) partitions
        a fleet's pool cells across shards — every cell is *owned* by
        exactly one shard, so the per-shard stats count disjoint cells and
        disjoint request streams.  Counters therefore sum exactly, the
        derived rates recompute from the summed integers with the same
        guarded divisions as the live properties, and the conditional keys
        (``replacements_cancelled`` appears only when nonzero, the warm
        keys only when the warm path is enabled) follow the same
        presence rules as :meth:`stats`, so a merged summary is
        byte-identical to the one pool of the single-process run.
        """
        merged: Dict[str, object] = {
            key: sum(int(stats[key]) for stats in stats_list)
            for key in ("launches", "releases", "revocations",
                        "replacement_requests", "replacements_granted",
                        "replacements_queued", "replacements_denied")}
        requests = merged["replacement_requests"]
        merged["replacement_denial_rate"] = (
            merged["replacements_denied"] / requests if requests else 0.0)
        cancelled = sum(int(stats.get("replacements_cancelled", 0))
                        for stats in stats_list)
        if cancelled:
            merged["replacements_cancelled"] = cancelled
        if any("replacements_warm" in stats for stats in stats_list):
            warm = sum(int(stats.get("replacements_warm", 0))
                       for stats in stats_list)
            granted = merged["replacements_granted"]
            merged["replacements_warm"] = warm
            merged["warm_reuse_rate"] = warm / granted if granted else 0.0
        cells: Dict[str, Dict[str, object]] = {}
        for stats in stats_list:
            cells.update(stats["cells"])
        merged["cells"] = {key: cells[key] for key in
                           sorted(cells, key=lambda name: tuple(
                               name.partition("/")[::2]))}
        return merged
