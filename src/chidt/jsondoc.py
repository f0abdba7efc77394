"""Checked reading of the JSON documents chidt takes from outside.

Configs, models, registries, ontology files and CLI inputs are all read
through these helpers, so a malformed document fails as one
``ValidationError`` naming the field by its path (``model
stage1.trees[3].root.counts``): never a ``KeyError`` or ``TypeError``, and
never a wrong type coerced into a right one. Integers are JSON integers (not
booleans), flags are ``true``/``false``, numbers are finite.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from .errors import ValidationError

MAX = sys.float_info.max


def loads(text: str, what: str):
    """The JSON document ``text``; a key repeated within one object is refused, not resolved to its last value."""

    def unique(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            raise ValidationError(f"{what} repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def read(path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``, a leading byte-order mark dropped; its
    ValidationError names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def fail(where: str, expected: str, value):
    shown = "an object" if type(value) is dict else "a list" if type(value) is list else json.dumps(value)
    raise ValidationError(f"{where} is not {expected}: got {shown if len(shown) <= 40 else shown[:37] + '...'}")


def field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


def fields(doc, where: str, keys=None, required=()) -> dict:
    """``doc`` as an object whose keys lie in ``keys`` (any when None) and include ``required``."""
    if type(doc) is not dict:
        fail(where, "an object", doc)
    unknown = () if keys is None else doc.keys() - keys
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")
    for name in required:
        if name not in doc:
            raise ValidationError(f"{where} has no {name!r} key")
    return doc


def integer(value, where: str, below: int | None = None) -> int:
    """A JSON integer, in [0, ``below``) when ``below`` is given."""
    if type(value) is not int or (below is not None and not 0 <= value < below):
        fail(where, "an integer" + ("" if below is None else f" in [0, {below})"), value)
    return value


def number(value, where: str, low: float = -MAX, high: float = MAX, open_low: bool = False) -> float:
    if type(value) not in (int, float) or not (low < value if open_low else low <= value) or not value <= high:
        span = "" if high == MAX else f" in {'(' if open_low else '['}{low:g}, {high:g}]"
        fail(where, "a finite number" + span, value)
    return float(value)


def flag(value, where: str) -> bool:
    return value if type(value) is bool else fail(where, "true or false", value)


def text(value, where: str, empty: bool = False) -> str:
    ok = type(value) is str and (value or empty)
    return value if ok else fail(where, "a string" if empty else "a non-empty string", value)


def one_of(value, where: str, choices) -> str:
    ok = type(value) is str and value in choices
    return value if ok else fail(where, "one of " + ", ".join(map(json.dumps, choices)), value)


def array(value, where: str) -> list:
    return value if type(value) is list else fail(where, "a list", value)


def strings(value, where: str) -> tuple:
    ok = type(value) is list and all(type(s) is str for s in value)
    return tuple(value) if ok else fail(where, "a list of strings", value)


def items(value, where: str, entry, **limits) -> list:
    """A list whose entries are each read by ``entry(value[i], f"{where}[{i}]", **limits)``."""
    return [entry(v, f"{where}[{i}]", **limits) for i, v in enumerate(array(value, where))]


def distinct(values, where: str, what: str, shown=repr):
    """``values``, refused when an entry equals an earlier one: ``{where}[i] repeats the {what} ...``."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            raise ValidationError(f"{where}[{i}] repeats the {what} {shown(value)}")
        seen.add(value)
    return values


def code_set(value, where: str) -> frozenset:
    """A list of distinct strings, as a frozenset: a code combination or an exclusion group."""
    return frozenset(distinct(strings(value, where), where, "code"))


def code_sets(value, where: str) -> list:
    """A list of code lists, each as a frozenset: code combinations or exclusion groups."""
    return items(value, where, code_set)


class Fields:
    """A checked object whose fields are read through the getters above."""

    def __init__(self, doc, where: str, keys=None, required=()):
        self.doc = fields(doc, where, keys, required)
        self.where = where

    def path(self, name: str) -> str:
        """``config seed``, ``config training.threshold``: a space after the bare document kind."""
        return f"{self.where}{' ' if self.where.isidentifier() else '.'}{name}"

    def get(self, name: str, getter, default=None, **limits):
        """``getter(value, path, **limits)`` of field ``name``, or ``default`` when it is absent."""
        return getter(self.doc[name], self.path(name), **limits) if name in self.doc else default

    def optional(self, name: str, getter, **limits):
        """``get``, but a ``null`` field also reads as None."""
        return None if self.doc.get(name) is None else self.get(name, getter, **limits)
