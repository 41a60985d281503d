"""On-disk JSON result cache for sweep cells.

Each completed cell is stored as one JSON file under
``<root>/<sweep name>/<cache key>.json``.  The cache key is a stable hash
covering the library version, the sweep name, the root seed, the cell
parameters, and a runner-supplied composite of the library source digest,
the cell-function source digest, the fingerprinted runtime knobs (e.g. the
``REPRO_CORE_FASTFORWARD`` core path; :func:`repro.config.fingerprint`),
and the context fingerprint (see
:meth:`repro.sweeps.spec.SweepCell.cache_key` and the ``_code_key`` /
``_library_source_digest`` helpers in :mod:`repro.sweeps.runner`), so
editing any library or cell code, flipping a compute-path knob, changing
the catalog, or upgrading the package all invalidate correctly.  Re-running the same sweep with the same
code, spec, and seed skips every completed cell, which is also how
interrupted sweeps resume.

Payloads are *canonicalized* (round-tripped through JSON) before they are
returned to the caller, whether they came from disk or from a fresh
computation, so warm-cache and cold-cache runs aggregate bit-identical
values.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional

from repro.errors import DataError
from repro.sweeps.spec import SweepCell

#: Bump when the on-disk layout changes; old entries are ignored.
CACHE_FORMAT_VERSION = 1

#: Sentinel distinguishing "no entry" from a cached ``None`` payload.
MISS = object()


def canonicalize(payload: Any) -> Any:
    """Round-trip ``payload`` through JSON.

    This normalizes tuples to lists and validates encodability, so a
    freshly computed payload is exactly what a later cache hit would
    return.
    """
    try:
        return json.loads(json.dumps(payload))
    except (TypeError, ValueError) as exc:
        raise DataError(f"sweep cell payloads must be JSON-encodable: {exc}") from exc


class SweepCache:
    """A directory of per-cell JSON result files.

    Args:
        root: Cache directory; created on first write.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)

    def path_for(self, cell: SweepCell, seed: int,
                 context_key: Optional[str] = None) -> Path:
        """The file that would hold this cell's result."""
        return (self.root / cell.spec_name
                / f"{cell.cache_key(seed, context_key)}.json")

    # ------------------------------------------------------------------
    # Read/write.
    # ------------------------------------------------------------------
    def get(self, cell: SweepCell, seed: int,
            context_key: Optional[str] = None) -> Any:
        """Return the cached payload, or :data:`MISS` if absent/corrupt.

        A file that exists but cannot be parsed (e.g. a worker was killed
        mid-write before atomic writes existed, or the disk filled) is
        treated as a miss with a warning — the cell simply recomputes and
        overwrites it — instead of poisoning ``resume`` with an exception.
        """
        path = self.path_for(cell, seed, context_key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return MISS
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"ignoring unreadable sweep-cache cell {path} ({exc}); "
                f"the cell will be recomputed", RuntimeWarning,
                stacklevel=2)
            return MISS
        if (not isinstance(entry, dict)
                or entry.get("version") != CACHE_FORMAT_VERSION
                or "payload" not in entry):
            if not isinstance(entry, dict) or "payload" not in entry:
                warnings.warn(
                    f"ignoring malformed sweep-cache cell {path}; "
                    f"the cell will be recomputed", RuntimeWarning,
                    stacklevel=2)
            return MISS
        return entry["payload"]

    def put(self, cell: SweepCell, seed: int, payload: Any,
            context_key: Optional[str] = None) -> None:
        """Atomically persist one cell result (write to temp, then rename)."""
        path = self.path_for(cell, seed, context_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "sweep": cell.spec_name,
            "seed": seed,
            "context_key": context_key,
            "params": cell.params,
            "payload": payload,
        }
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=str(path.parent),
            prefix=path.stem, suffix=".tmp", delete=False)
        try:
            with handle:
                json.dump(entry, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------
    def entry_count(self, sweep_name: Optional[str] = None) -> int:
        """Number of cached cells (for one sweep, or overall)."""
        pattern = f"{sweep_name}/*.json" if sweep_name else "*/*.json"
        return sum(1 for _ in self.root.glob(pattern))

    def clear(self, sweep_name: Optional[str] = None) -> int:
        """Delete cached cells; returns how many files were removed."""
        pattern = f"{sweep_name}/*.json" if sweep_name else "*/*.json"
        removed = 0
        for path in self.root.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
