"""Base partial preorder over alternatives.

Alternatives are plain identifier strings.  Declared preference facts are
closed reflexively and transitively at construction time; a built
:class:`BaseRelation` is immutable and classifies any pair of alternatives
into one of the four judgment symbols.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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


# the kind of (a, b), indexed by [a <= b][b <= a]
_KIND = ((RelKind.INCOMP, RelKind.GREATER), (RelKind.LESS, RelKind.EQUIV))


def classify_pair(weak, a, b) -> RelKind:
    """Four-way classification of (a, b) under a set of weak pairs."""
    return _KIND[(a, b) in weak][(b, a) in weak]


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

    ``up[a]`` is the set of alternatives b with a <= b, a itself included;
    the members of one equivalence class share one frozenset.
    """

    universe: frozenset[str]
    up: dict[str, frozenset[str]] = field(hash=False)

    @cached_property
    def weak(self) -> frozenset[tuple[str, str]]:
        """The closed relation <= as ordered pairs, built on first use."""
        return frozenset((a, b) for a, bs in self.up.items() for b in bs)

    def _require(self, *alternatives: str) -> None:
        """Raise for the first of ``alternatives`` outside the universe."""
        for a in alternatives:
            if a not in self.up:
                raise UnknownAlternative(a)

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b is in the closed relation."""
        self._require(a, b)
        return b in self.up[a]

    def classify(self, a: str, b: str) -> RelKind:
        """Four-way classification of the ordered pair (a, b)."""
        self._require(a, b)
        return _KIND[b in self.up[a]][a in self.up[b]]


def _close(succ: dict[str, set[str]]) -> dict[str, frozenset[str]]:
    """Up-sets of the reflexive-transitive closure of the edges ``succ``.

    An iterative Tarjan pass: strongly connected components complete in
    reverse topological order, so a component's up-set is its members plus
    the up-sets of the components its edges reach, all completed before it.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    up: dict[str, frozenset[str]] = {}
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in up:  # w is on the stack, in v's component
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    reach = set(members)
                    for w in members:
                        for x in succ[w]:
                            # an alternative already in reach brings nothing:
                            # it is a member or lies in an up-set taken whole
                            if x not in reach:
                                reach |= up[x]
                    closed = frozenset(reach)
                    for w in members:
                        up[w] = closed
    return up


def build_base_relation(facts, extra_universe=None) -> BaseRelation:
    """Close the declared facts and validate every strict declaration.

    The universe is the union of alternatives mentioned in ``facts`` and
    the optional ``extra_universe`` (for isolated, fully incomparable
    alternatives).  Raises :class:`StrictViolation` if the closure ends up
    containing the reverse of a declared strict fact.
    """
    succ: dict[str, set[str]] = {}
    stricts: list[tuple[str, str]] = []
    for fact in facts:
        succ.setdefault(fact.left, set()).add(fact.right)
        succ.setdefault(fact.right, set())
        if fact.kind is FactKind.EQUIV:
            succ[fact.right].add(fact.left)
        elif fact.kind is FactKind.STRICT:
            stricts.append((fact.left, fact.right))
    if extra_universe:
        for ident in extra_universe:
            succ.setdefault(check_id(ident), set())
    up = _close(succ)
    for a, b in stricts:
        if a in up[b]:
            raise StrictViolation(a, b)
    return BaseRelation(universe=frozenset(up), up=up)
