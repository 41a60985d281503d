"""Declarative sweep specifications.

A :class:`SweepSpec` names a set of *axes* (parameter name → list of
values) plus *fixed* parameters shared by every cell.  Expanding the spec
yields one :class:`SweepCell` per point of the cartesian product, in a
deterministic row-major order (the last axis varies fastest), so cell
indices are stable across processes and runs.

Axis and fixed values must be JSON-encodable (scalars, lists/tuples, and
dicts thereof): the canonical JSON encoding of a cell's parameters is what
keys both its derived RNG seed and its on-disk cache entry.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.simulation.rng import RandomStreams


def canonical_json(value: Any) -> str:
    """Encode ``value`` as canonical (sorted-key, compact) JSON.

    Raises:
        ConfigurationError: If the value is not JSON-encodable.
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep parameters must be JSON-encodable: {exc}") from exc


def _json_type(value: Any) -> str:
    """The JSON type a parameter value encodes as (a bool is not a number)."""
    for types, name in ((bool, "boolean"), (int, "integer"), (float, "number"),
                        (str, "string"), ((list, tuple), "array"),
                        (dict, "object")):
        if isinstance(value, types):
            return name
    return "null" if value is None else type(value).__name__


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep's parameter grid.

    Attributes:
        spec_name: Name of the owning :class:`SweepSpec`.
        index: Position in the spec's row-major cell order.
        coords: Per-axis value indices, in axis order.
        params: Axis values plus fixed parameters for this cell.
    """

    spec_name: str
    index: int
    coords: Tuple[int, ...]
    params: Dict[str, Any] = field(compare=False)

    def key(self) -> str:
        """Canonical JSON of the cell parameters (stable across runs)."""
        return canonical_json(self.params)

    def cache_key(self, seed: int, context_key: Optional[str] = None) -> str:
        """Stable hex digest identifying this cell's result.

        Covers the library version (so calibration/model changes shipped in
        a release invalidate persistent caches), the sweep name, the root
        seed, the cell parameters, and — when given — a fingerprint of the
        shared context (e.g. the model catalog), so results computed
        against different code or contexts never collide in the cache.
        """
        digest = hashlib.sha256(
            f"{__version__}:{self.spec_name}:{seed}:{context_key or ''}:"
            f"{self.key()}".encode("utf-8"))
        return digest.hexdigest()

    def seed(self, root_seed: int) -> int:
        """The cell's derived RNG seed (independent of execution order)."""
        return RandomStreams(seed=root_seed).spawn(
            f"sweep:{self.spec_name}:{self.key()}").seed

    def streams(self, root_seed: int) -> RandomStreams:
        """Named random streams for this cell, derived from ``root_seed``.

        The derivation depends only on ``(root_seed, spec name, params)``,
        never on the cell's position in the grid or on which process runs
        it, so serial and parallel executions draw identical samples.
        """
        return RandomStreams(seed=self.seed(root_seed))

    def label(self) -> str:
        """Short human-readable label, e.g. ``model=resnet_15/gpu=k80``."""
        return "/".join(f"{k}={v}" for k, v in sorted(self.params.items()))


class SweepSpec:
    """A named parameter grid: ordered axes plus fixed parameters.

    Args:
        name: Sweep name (used for seeding, caching, and the CLI).
        axes: Mapping of axis name → sequence of values.  Axis order is
            preserved; the cartesian product is expanded row-major with the
            last axis varying fastest.
        fixed: Parameters shared by every cell.  A fixed key may not also
            be an axis name.

    Example:
        >>> spec = SweepSpec("speed", axes={"model": ["resnet_15", "resnet_32"],
        ...                                 "gpu": ["k80", "p100"]},
        ...                  fixed={"steps": 2000})
        >>> len(spec)
        4
        >>> spec.cells()[1].params
        {'model': 'resnet_15', 'gpu': 'p100', 'steps': 2000}
    """

    def __init__(self, name: str, axes: Mapping[str, Sequence[Any]],
                 fixed: Optional[Mapping[str, Any]] = None):
        if not name:
            raise ConfigurationError("a sweep needs a non-empty name")
        if not axes:
            raise ConfigurationError("a sweep needs at least one axis")
        self.name = str(name)
        self.axes: Dict[str, List[Any]] = {}
        for axis_name, values in axes.items():
            values = list(values)
            if not values:
                raise ConfigurationError(f"axis {axis_name!r} has no values")
            # Duplicate values would expand to cells with identical params,
            # hence identical derived RNG streams and cache keys — silently
            # correlated "replicates".  Reject them up front.
            encoded = [canonical_json(value) for value in values]
            if len(set(encoded)) != len(encoded):
                raise ConfigurationError(
                    f"axis {axis_name!r} has duplicate values; replicate "
                    "measurements need a distinguishing axis (e.g. a "
                    "repetition index)")
            self.axes[axis_name] = values
        self.fixed: Dict[str, Any] = dict(fixed or {})
        overlap = set(self.axes) & set(self.fixed)
        if overlap:
            raise ConfigurationError(
                f"parameters {sorted(overlap)} are both axes and fixed")
        # Validate encodability eagerly so misuse fails at spec build time.
        canonical_json({"axes": self.axes, "fixed": self.fixed})

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> Tuple[str, ...]:
        """Axis names in declaration order."""
        return tuple(self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Number of values per axis, in axis order."""
        return tuple(len(values) for values in self.axes.values())

    def __len__(self) -> int:
        cells = 1
        for extent in self.shape:
            cells *= extent
        return cells

    def __repr__(self) -> str:
        axes = ", ".join(f"{name}[{len(values)}]"
                         for name, values in self.axes.items())
        return f"SweepSpec({self.name!r}, {axes}, {len(self)} cells)"

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------
    def cells(self) -> List[SweepCell]:
        """Expand the grid into cells, row-major (last axis fastest).

        Mutable values (dicts, lists) are deep-copied into each cell, so a
        cell function that mutates its params cannot corrupt the spec,
        sibling cells, or cache keying.
        """
        names = self.axis_names
        expanded: List[SweepCell] = []
        for index, combo in enumerate(itertools.product(
                *(range(len(self.axes[name])) for name in names))):
            params = {name: copy.deepcopy(self.axes[name][coord])
                      for name, coord in zip(names, combo)}
            params.update(copy.deepcopy(self.fixed))
            expanded.append(SweepCell(spec_name=self.name, index=index,
                                      coords=tuple(combo), params=params))
        return expanded

    def with_axes(self, **overrides: Sequence[Any]) -> "SweepSpec":
        """A copy of this spec with some axes replaced (CLI ``--set``).

        Each new value must have a JSON type among those of the values it
        replaces (an integer may stand in for a number), so a misspelled
        value fails here, before any cell runs.
        """
        unknown = set(overrides) - set(self.axes)
        if unknown:
            raise ConfigurationError(
                f"unknown axes {sorted(unknown)}; spec has {list(self.axes)}")
        for name, values in overrides.items():
            accepted = {_json_type(value) for value in self.axes[name]}
            if "number" in accepted:
                accepted.add("integer")
            for value in values:
                if _json_type(value) not in accepted:
                    raise ConfigurationError(
                        f"axis {name!r} takes {' or '.join(sorted(accepted))} "
                        f"values, got {value!r}")
        axes = dict(self.axes)
        axes.update({name: list(values) for name, values in overrides.items()})
        return SweepSpec(self.name, axes, self.fixed)
