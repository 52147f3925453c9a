"""Base partial preorder over alternatives.

Alternatives are plain identifier strings.  Declared preference facts are
closed reflexively and transitively at construction time; a built
:class:`BaseRelation` is immutable and classifies any pair of alternatives
into one of the four judgment symbols.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedId, StrictViolation, UnknownAlternative

__all__ = [
    "RelKind",
    "FactKind",
    "PrefFact",
    "BaseRelation",
    "check_id",
    "classify_pair",
    "render_symbols",
    "build_base_relation",
]

_ID_RE = re.compile(r"[\w-]+")


def check_id(ident: str) -> str:
    """Validate an alternative identifier, returning it unchanged."""
    if not isinstance(ident, str) or not _ID_RE.fullmatch(ident):
        raise MalformedId(ident)
    return ident


class RelKind(Enum):
    """The four judgment symbols: equivalent, less, greater, incomparable."""

    EQUIV = "~"
    LESS = "<"
    GREATER = ">"
    INCOMP = "#"

    @property
    def symbol(self) -> str:
        return self.value

    def mirror(self) -> "RelKind":
        """Swap the roles of the two arguments (Less <-> Greater)."""
        if self is RelKind.LESS:
            return RelKind.GREATER
        if self is RelKind.GREATER:
            return RelKind.LESS
        return self


# canonical display/sort order of the four symbols
KIND_ORDER = (RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP)
KIND_INDEX = {k: i for i, k in enumerate(KIND_ORDER)}


def render_symbols(kinds, sep: str = " ") -> str:
    """The symbols of ``kinds`` in canonical order, joined by ``sep``."""
    return sep.join(k.symbol for k in sorted(kinds, key=KIND_INDEX.__getitem__))


def classify_pair(weak, a, b) -> RelKind:
    """Four-way classification of (a, b) under a set of weak pairs."""
    ab = (a, b) in weak
    ba = (b, a) in weak
    if ab and ba:
        return RelKind.EQUIV
    if ab:
        return RelKind.LESS
    if ba:
        return RelKind.GREATER
    return RelKind.INCOMP


class FactKind(Enum):
    WEAK = "<="
    STRICT = "<"
    EQUIV = "~"


@dataclass(frozen=True)
class PrefFact:
    """A declared preference between two alternatives.

    ``WEAK(a, b)`` asserts a <= b; ``EQUIV`` asserts both directions;
    ``STRICT(a, b)`` asserts a <= b plus the constraint that the closure
    must not contain b <= a.
    """

    kind: FactKind
    left: str
    right: str

    def __post_init__(self):
        check_id(self.left)
        check_id(self.right)


@dataclass(frozen=True)
class BaseRelation:
    """Reflexive-transitive closure of declared facts over a universe.

    ``weak`` stores the closed relation <= as ordered pairs.
    """

    universe: frozenset[str]
    weak: frozenset[tuple[str, str]]

    def _require(self, ident: str) -> None:
        if ident not in self.universe:
            raise UnknownAlternative(ident)

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b is in the closed relation."""
        self._require(a)
        self._require(b)
        return (a, b) in self.weak

    def classify(self, a: str, b: str) -> RelKind:
        """Four-way classification of the ordered pair (a, b)."""
        self._require(a)
        self._require(b)
        return classify_pair(self.weak, a, b)


def _close(universe: set[str], pairs: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    # Warshall-style closure over successor sets; inputs are small.
    succ: dict[str, set[str]] = {a: {a} for a in universe}
    for a, b in pairs:
        succ[a].add(b)
    for k in universe:
        reach_k = succ[k]
        for a in universe:
            if k in succ[a]:
                succ[a] |= reach_k
    return frozenset((a, b) for a, bs in succ.items() for b in bs)


def build_base_relation(facts, extra_universe=None) -> BaseRelation:
    """Close the declared facts and validate every strict declaration.

    The universe is the union of alternatives mentioned in ``facts`` and
    the optional ``extra_universe`` (for isolated, fully incomparable
    alternatives).  Raises :class:`StrictViolation` if the closure ends up
    containing the reverse of a declared strict fact.
    """
    universe: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    stricts: list[tuple[str, str]] = []
    for fact in facts:
        universe.add(fact.left)
        universe.add(fact.right)
        pairs.add((fact.left, fact.right))
        if fact.kind is FactKind.EQUIV:
            pairs.add((fact.right, fact.left))
        elif fact.kind is FactKind.STRICT:
            stricts.append((fact.left, fact.right))
    if extra_universe:
        for ident in extra_universe:
            universe.add(check_id(ident))
    closed = _close(universe, pairs)
    for a, b in stricts:
        if (b, a) in closed:
            raise StrictViolation(a, b)
    return BaseRelation(universe=frozenset(universe), weak=closed)
