"""The Boogie state: a mapping from variables to values (Sec. 2.2).

Trust: **trusted** — the state model the target semantics and the
simulation relations are stated over.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, Mapping

from .values import BValue


class BoogieState:
    """An immutable Boogie variable store."""

    __slots__ = ("_store",)

    def __init__(self, store: Mapping[str, BValue] = ()):
        self._store: Dict[str, BValue] = dict(store)

    def lookup(self, name: str) -> BValue:
        try:
            return self._store[name]
        except KeyError:
            raise KeyError(f"Boogie variable {name!r} not in state") from None

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def set(self, name: str, value: BValue) -> "BoogieState":
        store = dict(self._store)
        store[name] = value
        return BoogieState(store)

    def set_many(self, updates: Mapping[str, BValue]) -> "BoogieState":
        store = dict(self._store)
        store.update(updates)
        return BoogieState(store)

    def as_dict(self) -> Dict[str, BValue]:
        return dict(self._store)

    @property
    def store(self) -> Mapping[str, BValue]:
        return MappingProxyType(self._store)  # read-only, not a copy

    def names(self) -> Iterator[str]:
        return iter(self._store)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoogieState) and self._store == other._store

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._store.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._store.items()))
        return f"BoogieState({inner})"
