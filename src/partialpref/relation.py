"""Base partial preorder over alternatives.

Alternatives are plain identifier strings.  Declared preference facts, or
given up-sets, are closed reflexively and transitively at construction
time, as one bitmask per alternative; a built :class:`BaseRelation` is
immutable and classifies any pair of alternatives into one of the four
judgment symbols.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from itertools import compress

from .errors import MalformedId, StrictViolation, UnknownAlternative

__all__ = [
    "RelKind",
    "FactKind",
    "PrefFact",
    "BaseRelation",
    "check_id",
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


class FactKind(Enum):
    WEAK = "<="
    STRICT = "<"
    EQUIV = "~"


def _read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a value class that keeps a
    ``__dict__`` for its cached properties."""
    raise AttributeError(f"cannot assign to or delete {name!r}: {type(self).__name__} is immutable")


class _kept:
    """A property computed on first access and kept in the instance's
    ``__dict__``, which shadows it from then on: ``functools.cached_property``
    without the lock that Python 3.11 takes on every first access."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


# the bits of bin(mask), reversed, as the bytes 0 and 1
_BIT_BYTES = {ord("0"): 0, ord("1"): 1}


def _members(order, mask: int):
    """The alternatives ``order[i]`` for the set bits i of ``mask``, in order."""
    return compress(order, bin(mask)[:1:-1].translate(_BIT_BYTES).encode())


class _LastFieldAside:
    """Base of a named tuple whose last field takes no part in equality or
    hashing (an annotation of the value, such as its source positions)."""

    __slots__ = ()

    def __eq__(self, other):
        # never equal to a plain tuple of the fields, which hashes differently
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's comparison

    def __hash__(self):
        return hash(self[:-1])


class PrefFact(namedtuple("PrefFact", "kind left right")):
    """A declared preference between two alternatives.

    ``WEAK(a, b)`` asserts a <= b; ``EQUIV`` asserts both directions;
    ``STRICT(a, b)`` asserts a <= b plus the constraint that the closure
    must not contain b <= a.
    """

    __slots__ = ()

    def __new__(cls, kind: FactKind, left: str, right: str):
        return super().__new__(cls, kind, check_id(left), check_id(right))


class _UpSets(dict):
    """``BaseRelation.up``: reading an alternative with no up-set raises
    :class:`UnknownAlternative` naming it."""

    __slots__ = ()

    def __missing__(self, a):
        raise UnknownAlternative(a)


class _Profiles(dict):
    """``BaseRelation.profiles``: each lottery's bit profile over the
    relation's ``_index``, built on its first lookup from the up-sets of
    the lottery's alternatives, in entries order (an unknown one raises as
    ``up`` does).

    A profile is ``(support, above, up_all, alternatives)``: the bits of
    the support, the OR of its alternatives' strictly-above masks, the AND
    of their up masks, and for each alternative in entries order its bit
    ORed with its strictly-above mask.  b is strictly above a when b is in
    ``up[a]`` and a is not in ``up[b]``.
    """

    __slots__ = ("_index", "_masks", "_up")

    def __init__(self, index: dict[str, int], masks: dict[str, int], up: dict):
        self._index, self._masks, self._up = index, masks, up

    def __missing__(self, lot):
        index, masks, up = self._index, self._masks, self._up
        support = above = 0
        up_all = -1
        alternatives = []
        for a, _ in lot.entries:
            members = up[a]  # before index[a]: an unknown a may have no bit
            i = index[a]
            above_a = 0
            for b in members:
                if not masks[b] >> i & 1:
                    above_a |= 1 << index[b]
            support |= 1 << i
            above |= above_a
            up_all &= masks[a]
            alternatives.append(1 << i | above_a)
        profile = self[lot] = (support, above, up_all, tuple(alternatives))
        return profile


class BaseRelation:
    """Reflexive-transitive closure of declared facts over a universe.

    The closure is kept as one bitmask per alternative: alternative a is
    bit ``_index[a]``, and ``_masks[a]`` has the bits of every b with
    a <= b.  ``up[a]``, the set of those b, is built from the masks on
    first access; the members of one equivalence class share one
    frozenset, and an unknown a raises :class:`UnknownAlternative`.
    ``profiles`` keeps the bit profile of each lottery looked up in it,
    for as long as the relation lives.  Every relation is a preorder: both
    constructors close their input with :func:`_close`, and
    :meth:`restrict` cuts closed masks down.
    Equality compares the universe and ``up``; the hash reads the
    universe alone, as ``up`` is a dict.
    """

    def __init__(self, universe: frozenset[str], up: dict[str, frozenset[str]]):
        """The closure of ``up`` over ``universe``: a <= b for each b in
        ``up[a]``, and a <= a for each a in the universe.  Each key and
        member of ``up`` must be in ``universe``."""
        succ = dict.fromkeys(universe, ())
        for a, above in up.items():
            for b in (a, *above):
                if b not in succ:
                    raise UnknownAlternative(b)
            succ[a] = above
        index, masks = _close(succ)
        self.__dict__.update(universe=frozenset(masks), _index=index, _masks=masks)

    @classmethod
    def _from_masks(cls, index: dict[str, int], masks: dict[str, int]) -> "BaseRelation":
        """The relation on the keys of ``masks`` whose ``up[a]`` has the bits
        of ``masks[a]``."""
        rel = cls.__new__(cls)
        rel.__dict__.update(universe=frozenset(masks), _index=index, _masks=masks)
        return rel

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not BaseRelation:
            return NotImplemented
        return (self.universe, self.up) == (other.universe, other.up)

    def __hash__(self):
        return hash((self.universe,))

    def __repr__(self):
        return f"BaseRelation(universe={self.universe!r}, up={self.up!r})"

    @_kept
    def up(self) -> dict[str, frozenset[str]]:
        """Each alternative's up-set, built from the masks on first use."""
        shared: dict[int, frozenset[str]] = {}  # equal masks: one class
        up = _UpSets()
        for a, mask in self._masks.items():
            if mask not in shared:
                shared[mask] = frozenset(_members(self._index, mask))
            up[a] = shared[mask]
        return up

    @_kept
    def profiles(self) -> dict:
        """Each queried lottery's bit profile (see :class:`_Profiles`),
        built on its first lookup."""
        return _Profiles(self._index, self._masks, self.up)

    @_kept
    def weak(self) -> frozenset[tuple[str, str]]:
        """The closed relation <= as ordered pairs, built on first use."""
        return frozenset((a, b) for a, bs in self.up.items() for b in bs)

    def count_pairs(self) -> int:
        """``len(self.weak)``, counted on the masks."""
        return sum(mask.bit_count() for mask in self._masks.values())

    def restrict(self, alternatives) -> "BaseRelation":
        """The preorder induced on those of ``alternatives`` that are in the
        universe, so have a mask: each one's mask cut down.

        Every pair of those alternatives classifies as in ``self``, and
        every other alternative is unknown to the result.
        """
        keep = [a for a in dict.fromkeys(alternatives) if a in self._masks]
        chosen = 0
        for a in keep:
            chosen |= 1 << self._index[a]
        masks = {a: self._masks[a] & chosen for a in keep}
        return BaseRelation._from_masks(self._index, masks)

    def _require(self, *alternatives: str) -> None:
        """Raise for the first of ``alternatives`` with no mask, so no up-set."""
        for a in alternatives:
            if a not in self._masks:
                raise UnknownAlternative(a)

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b is in the closed relation."""
        self._require(a, b)
        return b in self.up[a]

    def classify(self, a: str, b: str) -> RelKind:
        """Four-way classification of the ordered pair (a, b)."""
        return _KIND[b in self.up[a]][a in self.up[b]]


def _close(succ: dict[str, set[str]]) -> tuple[dict[str, int], dict[str, int]]:
    """The reflexive-transitive closure of the edges ``succ``, as bitmasks.

    Returns ``(index, masks)``: alternative a is bit ``index[a]``, and
    ``masks[a]`` has the bits of every b with a <= b.  An iterative Tarjan
    pass: strongly connected components complete in reverse topological
    order, so a component's mask is its members' bits ORed with the masks
    of the components its edges reach, all completed before it.  Bits are
    numbered in the order the pass meets the alternatives.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    masks: dict[str, int] = {}
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
                # w is on the stack, in v's component (an if, not min(), is faster)
                if w not in masks and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    reach = 0
                    for w in members:
                        reach |= 1 << index[w]
                    for w in members:
                        for x in succ[w]:
                            reach |= masks.get(x, 0)  # a member has no mask yet
                    for w in members:
                        masks[w] = reach
    return index, masks


def build_base_relation(facts, extra_universe=None) -> BaseRelation:
    """Close the declared facts and validate every strict declaration.

    The universe is the union of alternatives mentioned in ``facts`` and
    the optional ``extra_universe`` (for isolated, fully incomparable
    alternatives).  Raises :class:`StrictViolation` if the closure ends up
    containing the reverse of a declared strict fact.
    """
    succ: dict[str, set[str]] = {}
    stricts: list[tuple[str, str]] = []
    for kind, left, right in facts:
        succ.setdefault(left, set()).add(right)
        succ.setdefault(right, set())
        if kind is FactKind.EQUIV:
            succ[right].add(left)
        elif kind is FactKind.STRICT:
            stricts.append((left, right))
    if extra_universe:
        for ident in extra_universe:
            succ.setdefault(check_id(ident), set())
    index, masks = _close(succ)
    for a, b in stricts:
        if masks[b] >> index[a] & 1:
            raise StrictViolation(a, b)
    return BaseRelation._from_masks(index, masks)
