"""Boogie value domain.

Trust: **trusted** — the value domain of the target semantics.

Boogie values are integers, reals, booleans, and elements of uninterpreted
type carriers.  Carrier elements are :class:`UValue` — a tagged, hashable
payload.  The tailored polymorphic-map model of Sec. 4.4 instantiates the
heap/mask carriers with *partial maps* (:class:`FrozenMap` payloads); the
empty map is a legal carrier element, which is exactly how the paper breaks
the impredicativity circularity ("to construct an initial heap, we already
need a heap of the same type").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Tuple, Union


@dataclass(frozen=True)
class BVInt:
    value: int

    def __repr__(self) -> str:
        return f"BVInt({self.value})"


@dataclass(frozen=True)
class BVReal:
    value: Fraction

    def __repr__(self) -> str:
        return f"BVReal({self.value})"


@dataclass(frozen=True)
class BVBool:
    value: bool

    def __repr__(self) -> str:
        return f"BVBool({self.value})"


class FrozenMap:
    """An immutable, hashable finite partial map (carrier payload): a dict
    with map equality; ``items()`` is sorted by key ``repr``, on first use."""

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, mapping: Mapping = ()):
        self._map = dict(mapping)
        self._items = None
        self._hash = None

    def get(self, key, default=None):
        return self._map.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._map

    def set(self, key, value) -> "FrozenMap":
        updated = FrozenMap(self._map)
        updated._map[key] = value
        return updated

    def items(self) -> Tuple:
        if self._items is None:
            self._items = tuple(sorted(self._map.items(), key=lambda kv: repr(kv[0])))
        return self._items

    def keys(self) -> Iterator:
        return (k for k, _ in self.items())

    def __iter__(self):
        return self.keys()

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrozenMap) and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"FrozenMap({{{inner}}})"


EMPTY_MAP = FrozenMap()


@dataclass(frozen=True)
class UValue:
    """An element of an uninterpreted type carrier.

    ``type_name`` names the carrier (e.g. ``"Ref"``, ``"Field"``,
    ``"HeapType"``); ``payload`` is any hashable identity (an address, a
    field name, a :class:`FrozenMap`, ...).
    """

    type_name: str
    payload: object

    def __repr__(self) -> str:
        return f"UValue({self.type_name}, {self.payload!r})"


BValue = Union[BVInt, BVReal, BVBool, UValue]


def as_b_bool(value: BValue) -> bool:
    if not isinstance(value, BVBool):
        raise TypeError(f"expected a Boogie boolean, got {value!r}")
    return value.value


def as_b_int(value: BValue) -> int:
    if not isinstance(value, BVInt):
        raise TypeError(f"expected a Boogie integer, got {value!r}")
    return value.value


def as_b_real(value: BValue) -> Fraction:
    if isinstance(value, BVReal):
        return value.value
    if isinstance(value, BVInt):
        return Fraction(value.value)
    raise TypeError(f"expected a Boogie real, got {value!r}")
