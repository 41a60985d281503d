"""Document schemas: a JSON document's dataclass declares each field's *kind* (:func:`declare`),
checked alike by ``__post_init__`` (:func:`check`) and :func:`parse`, which raise :class:`Invalid`.

A kind converts a value only where its class always did (a query's ``float`` and ``int`` fields,
pool counts, wrapped and binned hours, tuples): a scenario's ``to_params()`` keys each sweep
cell's cache entry and RNG seed, so ``"reclaim_seconds": 1800`` must still encode as ``1800``.
A calibration cell's Weibull shape and scale must lie in the refit's own clamp range: every refit
output does, and outside it the score table silently reports probability 0 (a NaN shape, an
infinite scale) or overflows (a shape of 1e308).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from collections.abc import Iterable, Mapping
from typing import Any, Callable

from repro.errors import ConfigurationError


class Invalid(ConfigurationError):
    """``Invalid(where, path, problem, prefix)``: a rejected value at ``path`` of the document
    ``where``.  Each enclosing list, mapping and object prepends its step on the way out."""

    def __str__(self) -> str:  # prefix + where + path + problem
        return self.args[3] + "".join(self.args[:3])

    def at(self, step: str, where: str) -> "Invalid":
        _, path, problem, prefix = self.args
        step = step if step[0] == "[" else f".{step}" if path else f" field {step!r}"
        return Invalid(where, step + path, problem, prefix)


def fail(value: Any, where: str, expected: str) -> None:
    raise Invalid(where, "", f" must be {expected}, got {value!r}", "")


def real(ge=-math.inf, le=math.inf, *, gt=None, convert=None, integral=False) -> Callable:
    """A finite number (numpy's too, never a bool): ``>= ge`` and ``<= le``, or ``> gt``; an
    integer if ``integral``.  Exact types go first: an ABC ``isinstance`` is slow."""
    exact, abc, noun = (((int,), numbers.Integral, "an integer") if integral
                        else ((float, int), numbers.Real, "a finite real"))
    expected = noun + (f" > {gt:g}" if gt is not None else f" in [{ge:g}, {le:g}]"
                       if le < math.inf else f" >= {ge:g}" if ge > -math.inf else "")
    top = math.nextafter(math.inf, 0.0)  # finite bounds also reject NaN, infinities, huge ints
    low, high, open_low = max(-top, ge if gt is None else gt), min(le, top), gt is not None
    def kind(value, where):
        if (type(value) not in exact and (isinstance(value, bool) or not isinstance(value, abc))
                or not low <= (value if type(value) in exact else float(value)) <= high
                or open_low and value == low):
            fail(value, where, expected)
        return value if convert is None else convert(value)
    return kind


integer = functools.partial(real, integral=True)


def _kind(expected: str, accept: Callable[[Any], Any]):
    def kind(value, where):
        if not accept(value):
            fail(value, where, expected)
        return value
    return kind


text = _kind("a string", lambda value: isinstance(value, str))
nonempty_text = _kind("a non-empty string", lambda value: isinstance(value, str) and value != "")
flag = _kind("true or false", lambda value: type(value) is bool)


def choice(*names: str):
    return _kind("one of " + ", ".join(names), lambda value: value in names)


def optional(kind: Callable):
    return lambda value, where: None if value is None else kind(value, where)


def sequence(item: Callable, *, low: int = 0, high: float = math.inf, convert=tuple):
    """A list (any iterable but a string) of ``low`` to ``high`` ``item`` values, as ``convert``."""
    expected = f"a list of {low} items" if low == high else "a non-empty list" if low else "a list"
    def kind(value, where):
        if type(value) not in (list, tuple) and (isinstance(value, (str, bytes, Mapping))
                                                 or not isinstance(value, Iterable)):
            fail(value, where, expected)
        items = []
        for index, entry in enumerate(value):
            try:
                items.append(item(entry, where))
            except Invalid as exc:
                raise exc.at(f"[{index}]", where) from None
        if not low <= len(items) <= high:
            fail(value, where, expected)
        return convert(items)
    return kind


def mapping(key: Callable, value: Callable):
    def kind(document, where):
        if not isinstance(document, Mapping):
            fail(document, where, "an object")
        entries = {}
        for name, entry in document.items():
            try:
                entries[key(name, where)] = value(entry, where)
            except Invalid as exc:
                raise exc.at(f"[{name!r}]", where) from None
        return entries
    return kind


def nested(cls: type):
    return lambda value, where: value if isinstance(value, cls) else parse(cls, value, where)


def declare(kind: Callable, **options: Any) -> Any:
    return dataclasses.field(metadata={"kind": kind}, **options)


_SCHEMAS: dict = {}  # dataclass -> ({field: (kind, default)}, {required field: None})


def _schema(cls: type):
    fields = dataclasses.fields(cls)
    _SCHEMAS[cls] = ({f.name: (f.metadata["kind"], f.default) for f in fields},
                     dict.fromkeys(f.name for f in fields
                                   if dataclasses.MISSING is f.default is f.default_factory))
    return _SCHEMAS[cls]


def check(obj: Any, what: str) -> None:
    """Check ``obj``, a ``what``, against its declared kinds (defaults pass); keep conversions."""
    fields = (_SCHEMAS.get(type(obj)) or _schema(type(obj)))[0]
    for name, value in obj.__dict__.items():
        kind, default = fields[name]
        try:
            accepted = value if value is default else kind(value, what)
        except Invalid as exc:
            raise exc.at(name, what) from None
        if accepted is not value:
            object.__setattr__(obj, name, accepted)


def parse(cls: type, document: Any, what: str) -> Any:
    """A ``cls`` from the JSON object ``document``, a ``what``: reports an unknown field, then a
    wrong value, then a missing one; runs each kind once on a valid document."""
    if type(document) is not dict and not isinstance(document, Mapping):
        fail(document, what, "an object")
    fields, required = _SCHEMAS.get(cls) or _schema(cls)
    if not fields.keys() >= document.keys():
        raise Invalid(what, "", f" field {min(set(document) - set(fields), key=str)!r}", "unknown ")
    if not document.keys() >= required.keys():  # check the present fields first, on an
        present = cls.__new__(cls)  # instance holding only them
        present.__dict__.update(document)
        check(present, what)
        raise Invalid(what, "", f" is missing field {min(set(required) - set(document))!r}", "")
    return cls(**document)
