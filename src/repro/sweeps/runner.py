"""Parallel, cached execution of sweep specs.

The :class:`SweepRunner` expands a :class:`~repro.sweeps.spec.SweepSpec`,
serves completed cells from the on-disk cache, and fans the remaining
cells out over a :class:`concurrent.futures.ProcessPoolExecutor` (or runs
them in-process when ``workers`` is 1/None).

Determinism contract: a cell's random streams are derived from
``(root seed, sweep name, cell parameters)`` only — never from execution
order or worker identity — and results are re-assembled in canonical cell
order, so a parallel run aggregates bit-identical values to a serial run
of the same spec and seed.

Transient-failure contract: a worker process that *dies* (surfacing as
:class:`concurrent.futures.process.BrokenProcessPool`) is not a cell
failure — the pool is recreated and the not-yet-completed cells are
resubmitted, up to ``max_retries`` times (``REPRO_SWEEP_RETRIES``),
before a :class:`SweepExecutionError` surfaces.  Because
cells are deterministic in ``(root seed, sweep name, cell parameters)``,
a resubmitted cell produces the identical payload, so retries preserve
the resume/cache contract exactly.  A cell function that *raises* is
deterministic and still fails fast — replaying a deterministic failure
would just repeat it.

Cell functions must be importable module-level callables (the process
pool pickles them by reference) with the signature::

    def cell_fn(cell: SweepCell, streams: RandomStreams, context: Any) -> payload

and must return a JSON-encodable payload (scalars, lists, dicts).  The
optional ``context`` carries shared deterministic configuration such as a
model catalog.  Because the context affects results, a stable fingerprint
of it is folded into every cell's cache key — taken from
``context.fingerprint()`` when available, or passed explicitly as
``context_key``; contexts with neither must use distinct cache
directories.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import os
import time
from pathlib import Path
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import chaos, config
from repro.errors import ReproError
from repro.simulation.rng import RandomStreams
from repro.sweeps.cache import MISS, SweepCache, canonicalize
from repro.sweeps.result import CellResult, SweepResult
from repro.sweeps.spec import SweepCell, SweepSpec

#: A cell function: ``(cell, streams, context) -> JSON-encodable payload``.
CellFunction = Callable[[SweepCell, RandomStreams, Any], Any]

class SweepExecutionError(ReproError):
    """Raised when a sweep cell fails; names the offending cell."""

    def __init__(self, cell: SweepCell, cause: BaseException):
        self.cell = cell
        self.cause = cause
        super().__init__(
            f"sweep {cell.spec_name!r} cell #{cell.index} ({cell.label()}) "
            f"failed: {cause!r}")


def _execute_cell(cell_fn: CellFunction, cell: SweepCell, root_seed: int,
                  context: Any) -> Tuple[int, Any, float]:
    """Run one cell (possibly in a worker process) and time it.

    The cell function receives a deep copy of the cell, so an in-place
    mutation of ``cell.params`` can never corrupt the streams derivation
    or the cache key the caller computes from the original cell.
    """
    started = time.perf_counter()
    streams = cell.streams(root_seed)
    payload = cell_fn(copy.deepcopy(cell), streams, context)
    return cell.index, canonicalize(payload), time.perf_counter() - started


#: Per-worker shared context, installed once by the pool initializer so the
#: (potentially large) context object is not re-pickled for every cell.
_WORKER_CONTEXT: Any = None


def _init_worker(context: Any) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _execute_cell_pooled(cell_fn: CellFunction, cell: SweepCell,
                         root_seed: int) -> Tuple[int, Any, float]:
    plan = chaos.active_plan()
    if plan is not None:
        # ``sweep_kill`` matches by cell index and the pool generation
        # (exported as REPRO_CHAOS_INCARNATION before each pool spawn),
        # so a retried cell does not re-trigger the fault that killed
        # its first attempt.
        faults = plan.select("sweep_kill", cell=cell.index,
                             incarnation=chaos.worker_incarnation())
        if faults:
            chaos.chaos_exit(faults[0], site="sweep_cell", cell=cell.index,
                             incarnation=chaos.worker_incarnation())
    return _execute_cell(cell_fn, cell, root_seed, _WORKER_CONTEXT)


def default_worker_count() -> int:
    """A sensible process count for ``workers="auto"``."""
    return max(1, min(8, (os.cpu_count() or 2) - 1))


@functools.lru_cache(maxsize=1)
def _library_source_digest() -> str:
    """A digest of every ``repro`` source file, computed once per process.

    Folded into cache keys so that editing *any* library code — the cell
    function's callees included, e.g. a calibration constant — invalidates
    persistent caches.  Falls back to the package version when sources are
    unreadable (e.g. zipped installs).
    """
    import repro

    try:
        package_root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]
    except OSError:  # pragma: no cover - exotic install layouts
        return f"v{repro.__version__}"


def _code_key(cell_fn: CellFunction) -> str:
    """A fingerprint of the cell function's identity and source.

    Folded into cache keys so editing a cell function (or two functions
    sharing one spec name) never serves stale cached results.  Source may
    be unavailable (e.g. interactively defined callables); identity alone
    still separates functions.
    """
    identity = f"{getattr(cell_fn, '__module__', '?')}." \
               f"{getattr(cell_fn, '__qualname__', repr(cell_fn))}"
    try:
        source = inspect.getsource(cell_fn)
    except (OSError, TypeError):
        source = ""
    digest = hashlib.sha256(f"{identity}\n{source}".encode("utf-8"))
    return f"{identity}:{digest.hexdigest()[:12]}"


class SweepRunner:
    """Execute sweep specs with optional parallelism and result caching.

    Args:
        workers: Worker processes.  ``None``, 0, or 1 run cells serially
            in-process; ``"auto"`` picks from the CPU count (the
            ``REPRO_SWEEP_WORKERS`` grammar, :mod:`repro.config`).
        cache_dir: Directory for the JSON result cache; caching is
            disabled when omitted.
        seed: Default root seed for runs that don't pass one.
        max_retries: Extra pooled attempts after a worker-process death
            (``BrokenProcessPool``) before the run fails; ``None`` reads
            ``REPRO_SWEEP_RETRIES``.  Each retry recreates the pool and
            resubmits only the cells without results yet.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None, seed: int = 0,
                 max_retries: Optional[int] = None):
        if workers is not None:
            workers = config.SWEEP_WORKERS.check(workers, "workers")
        if workers == "auto":
            workers = default_worker_count()
        self.workers = max(1, workers) if workers else 1
        self.cache = SweepCache(cache_dir) if cache_dir is not None else None
        self.seed = int(seed)
        self.max_retries = config.SWEEP_RETRIES.resolve(max_retries,
                                                        "max_retries")

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec, cell_fn: CellFunction,
            seed: Optional[int] = None, context: Any = None,
            context_key: Optional[str] = None) -> SweepResult:
        """Run every cell of ``spec`` and return the assembled result.

        Cached cells are skipped; the rest run serially or on the process
        pool.  Cell failures abort the run with
        :class:`SweepExecutionError`, but results computed before the
        failure remain in the cache, so a fixed re-run resumes where the
        failed one stopped.

        ``context_key`` is a stable fingerprint of ``context`` folded into
        every cell's cache key, so results computed against different
        contexts (say, two model catalogs) never collide.  When omitted,
        it is taken from ``context.fingerprint()`` if the context provides
        one.
        """
        root_seed = self.seed if seed is None else int(seed)
        if context_key is None and hasattr(context, "fingerprint"):
            context_key = context.fingerprint()
        # Cache entries are additionally keyed by the cell function's
        # identity + source digest, by a digest of the whole library
        # source, and by the fingerprinted runtime knobs (e.g. the core
        # fast-forward path), so edits to cell code or its callees and
        # compute-path knobs all invalidate.
        if self.cache:
            context_key = (f"{_library_source_digest()}|{_code_key(cell_fn)}"
                           f"|{config.fingerprint()}|{context_key or ''}")
        started = time.perf_counter()
        cells = spec.cells()

        outcomes: Dict[int, CellResult] = {}
        pending = []
        for cell in cells:
            cached = (self.cache.get(cell, root_seed, context_key)
                      if self.cache else MISS)
            if cached is not MISS:
                outcomes[cell.index] = CellResult(
                    cell=cell, payload=cached, seed=cell.seed(root_seed),
                    cached=True, duration_seconds=0.0)
            else:
                pending.append(cell)

        if pending:
            if self.workers > 1 and len(pending) > 1:
                self._run_parallel(pending, cell_fn, root_seed, context,
                                   context_key, outcomes)
            else:
                self._run_serial(pending, cell_fn, root_seed, context,
                                 context_key, outcomes)

        results = [outcomes[index] for index in range(len(cells))]
        return SweepResult(spec=spec, results=results, workers=self.workers,
                           wall_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _record(self, cell: SweepCell, payload: Any, root_seed: int,
                context_key: Optional[str], duration: float,
                outcomes: Dict[int, CellResult]) -> None:
        if self.cache:
            self.cache.put(cell, root_seed, payload, context_key)
        outcomes[cell.index] = CellResult(
            cell=cell, payload=payload, seed=cell.seed(root_seed),
            cached=False, duration_seconds=duration)

    def _run_serial(self, cells, cell_fn, root_seed, context, context_key,
                    outcomes) -> None:
        for cell in cells:
            try:
                _index, payload, duration = _execute_cell(
                    cell_fn, cell, root_seed, context)
            except Exception as exc:
                # Same failure contract as the pooled path: every cell
                # failure surfaces as a SweepExecutionError naming the cell.
                raise SweepExecutionError(cell, exc) from exc
            self._record(cell, payload, root_seed, context_key, duration,
                         outcomes)

    def _run_parallel(self, cells, cell_fn, root_seed, context, context_key,
                      outcomes) -> None:
        """Pooled execution with bounded retry of worker-process deaths.

        Each attempt submits only the cells still missing from
        ``outcomes``; a :class:`BrokenExecutor` (a worker died — SIGKILL,
        ``os._exit``, OOM) recreates the pool and resubmits, up to
        ``max_retries`` extra attempts.  Deterministic cell *exceptions*
        never retry — they fail fast exactly as before.
        """
        remaining_cells = list(cells)
        attempt = 0
        while True:
            try:
                self._run_pool_once(remaining_cells, cell_fn, root_seed,
                                    context, context_key, outcomes,
                                    generation=attempt)
                return
            except BrokenExecutor as exc:
                remaining_cells = [cell for cell in remaining_cells
                                   if cell.index not in outcomes]
                attempt += 1
                if attempt > self.max_retries or not remaining_cells:
                    victim = remaining_cells[0] if remaining_cells else cells[0]
                    raise SweepExecutionError(victim, exc) from exc
                chaos.log_event(
                    "sweep_pool_retry", attempt=attempt,
                    max_retries=self.max_retries,
                    resubmitted=[cell.index for cell in remaining_cells],
                    error=str(exc) or exc.__class__.__name__)

    def _run_pool_once(self, cells: List[SweepCell], cell_fn, root_seed,
                       context, context_key, outcomes, generation: int
                       ) -> None:
        """One process-pool attempt over ``cells``.

        Raises :class:`BrokenExecutor` through to the retry loop after
        recording every result that did complete, so a retry resubmits
        the true remainder.  The pool generation is exported as
        ``REPRO_CHAOS_INCARNATION`` before workers spawn, which is how
        chaos ``sweep_kill`` faults scoped to incarnation 0 stay dead on
        the retry.
        """
        incarnation = generation if chaos.active_plan() is not None else None
        max_workers = min(self.workers, len(cells))
        failure = None
        broken = None
        with config.scoped({config.CHAOS_INCARNATION: incarnation}):
            with ProcessPoolExecutor(max_workers=max_workers,
                                     initializer=_init_worker,
                                     initargs=(context,)) as pool:
                futures = {pool.submit(_execute_cell_pooled, cell_fn, cell,
                                       root_seed): cell
                           for cell in cells}
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining,
                                           return_when=FIRST_COMPLETED)
                    for future in done:
                        cell = futures[future]
                        try:
                            _index, payload, duration = future.result()
                        except CancelledError:
                            continue
                        except BrokenExecutor as exc:
                            # A worker died.  Keep draining the done set —
                            # completed results are still recorded — then
                            # surface to the retry loop.
                            broken = exc
                            continue
                        except Exception as exc:
                            # Remember the first failure but keep draining:
                            # cells that completed (or are in flight) are
                            # still recorded and cached, honoring the
                            # resume contract.
                            if failure is None:
                                failure = (cell, exc)
                                for other in remaining:
                                    other.cancel()
                            continue
                        self._record(cell, payload, root_seed, context_key,
                                     duration, outcomes)
                    if broken is not None:
                        break
        if broken is not None:
            raise broken
        if failure is not None:
            cell, exc = failure
            raise SweepExecutionError(cell, exc) from exc
