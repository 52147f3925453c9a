"""Finite-support lotteries with exact rational weights.

All arithmetic uses :class:`fractions.Fraction`; no floating point enters
the engine anywhere.  Lotteries are immutable, interned values: there is
one live object per distribution, so they compare and hash by identity
and are safe to share.
"""

from __future__ import annotations

from _thread import allocate_lock
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, sub
from weakref import WeakValueDictionary

from .errors import (
    AlphaOutOfRange,
    DegeneratePair,
    EmptySupport,
    NegativeWeight,
    NotNormalized,
)
from .relation import _read_only, check_id

__all__ = [
    "Lottery",
    "make_lottery",
    "convex_combine",
    "decompose",
    "mixture_table",
    "scale",
]

ZERO = Fraction(0)


# the one live lottery of each integer form, keyed by the denominator and
# the (alternative, numerator) pairs; an entry goes when its lottery does.
# The lock keeps two threads from each making a lottery for one key.
_INTERNED: WeakValueDictionary = WeakValueDictionary()
_INTERNING = allocate_lock()


def _interned(denom: int, nums: dict[str, int]) -> "Lottery":
    """The live lottery whose integer form is ``(denom, nums)``; when there
    is none, one is made with entries built from the form."""
    key = denom, *nums.items()
    with _INTERNING:
        lot = _INTERNED.get(key)
        if lot is None:
            entries = tuple((a, Fraction(x, denom)) for a, x in nums.items())
            lot = object.__new__(Lottery)
            lot.__dict__.update(entries=entries, integer_form=(denom, nums))
            _INTERNED[key] = lot
    return lot


class Lottery:
    """A probability distribution with finite, nonempty support.

    ``entries`` is sorted by alternative id; every weight is a strictly
    positive Fraction and the weights sum to exactly 1.  ``Lottery(entries)``
    is ``make_lottery(entries)``: it takes (alternative, weight) pairs in
    any order and applies the same checks.  ``integer_form`` is
    ``(denom, numerators)``: the least common denominator of the weights,
    and each alternative's weight times ``denom``, in alternative order;
    every caller shares the mapping and none may change it.

    Lotteries are interned (hash-consing): every constructor, unpickling
    and copying included, returns the one live object for its integer
    form.  So equal lotteries are the same object, and equality and the
    hash are those of ``object``, by identity.
    """

    __hash__ = object.__hash__  # one object per distribution: hash by identity, in C

    def __new__(cls, entries):
        return make_lottery(entries)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"Lottery(entries={self.entries!r})"

    def __reduce__(self):
        # pickles and copies are rebuilt through the constructor, so interned
        return Lottery, (self.entries,)

    @classmethod
    def degenerate(cls, alternative: str) -> "Lottery":
        """The lottery assigning probability 1 to a single alternative."""
        return _interned(1, {check_id(alternative): 1})

    def weight(self, alternative: str) -> Fraction:
        for a, w in self.entries:
            if a == alternative:
                return w
        return ZERO

    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.entries)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{a}@{w}" for a, w in self.entries) + "}"


def make_lottery(pairs, normalize: bool = False) -> Lottery:
    """Build a lottery from (alternative, weight) pairs.

    Duplicate alternatives are summed and zero entries dropped.  Without
    ``normalize`` the weights must sum to exactly 1; with it they are
    divided by their sum.  The weights are summed as integer numerators
    over the lcm of their denominators, which also gives the lottery's
    ``integer_form``.
    """
    parts = []
    for alternative, weight in pairs:
        check_id(alternative)
        w = weight if isinstance(weight, Fraction) else Fraction(weight)
        if w.numerator < 0:
            raise NegativeWeight(alternative, w)
        parts.append((alternative, w.numerator, w.denominator))
    denom = lcm(*(d for _, _, d in parts))
    acc: dict[str, int] = {}
    for alternative, num, d in parts:
        acc[alternative] = acc.get(alternative, 0) + num * (denom // d)
    total = sum(acc.values())
    if total == 0:
        raise EmptySupport()
    if not normalize and total != denom:
        raise NotNormalized(Fraction(total, denom))
    # each weight is acc[a] / total; over the gcd of the numerators, the
    # total is the least common denominator of the reduced weights
    common = gcd(*acc.values())
    nums = {a: acc[a] // common for a in sorted(acc) if acc[a]}
    denom = total // common
    return _interned(denom, nums)


def convex_combine(alpha, f: Lottery, g: Lottery) -> Lottery:
    """Pointwise mixture alpha*f + (1-alpha)*g, built by :func:`make_lottery`."""
    a = Fraction(alpha)
    if not (0 <= a <= 1):
        raise AlphaOutOfRange(a)
    return make_lottery([(x, a * w) for x, w in f.entries] + [(x, (1 - a) * w) for x, w in g.entries])


def scale(lotteries) -> list[list[int]]:
    """The lotteries as integer weight vectors over one common denominator.

    Entry c of each vector is the lottery's weight on the c-th alternative
    of the sorted union of the supports, times the least common
    denominator of every weight.
    """
    forms = [lot.integer_form for lot in lotteries]
    column = {a: c for c, a in enumerate(sorted({a for _, nums in forms for a in nums}))}
    denom = lcm(*(d for d, _ in forms))
    vectors = []
    for d, nums in forms:
        vec = [0] * len(column)
        for a, x in nums.items():
            vec[column[a]] = x * (denom // d)
        vectors.append(vec)
    return vectors


def decompose(h: Lottery, f: Lottery, g: Lottery):
    """Recover alpha in the open interval (0, 1) with h = alpha*f + (1-alpha)*g.

    Returns None when no such proper mixture coefficient exists (boundary
    decompositions h == f or h == g are deliberately excluded).  Raises
    :class:`DegeneratePair` when f == g.  Otherwise alpha is h's entry in
    row (0, 1) of :func:`mixture_table` over [f, g, h].
    """
    if f == g:
        raise DegeneratePair()
    if h == f or h == g:
        return None
    return next((alpha for k, alpha, _ in mixture_table([f, g, h])[0][0, 1] if k == 2), None)


class _Fractions(dict):
    """``Fraction(n, d)`` by ``(n, d)``, each made on its first lookup."""

    __slots__ = ()

    def __missing__(self, key):
        value = self[key] = Fraction(*key)
        return value


def mixture_table(lotteries) -> tuple[dict, dict[Fraction, list[list[tuple[int, int]]]]]:
    """Every mixture relation among a list of distinct lotteries, by index,
    as rows and as splits by coefficient.

    ``table`` maps each ordered index pair (i, j), i != j, to the list of
    (k, alpha, n), k ascending, with ``lotteries[k] = alpha*lotteries[i] +
    (1-alpha)*lotteries[j]``; the boundaries (i, 1, _) and (j, 0, 0) are
    included.  Raises :class:`DegeneratePair` when two members are equal.
    Weights are scaled to integers over their common denominator.  From
    each base i, every other vector is ``steps`` times a primitive
    ``direction`` (entries with gcd 1) away, so two vectors lie on one ray
    from i iff their directions are equal, and one lies between i and the
    other iff it takes fewer steps.  So k lies between i and j iff it is on
    j's ray from i in at most as many steps as j, and alpha is n of j's
    steps.  Keys are inserted in ``combinations`` order, (i, j) before
    (j, i).

    ``splits[alpha][h]`` is the trivial split (h, h), then each (x, y)
    with ``h = alpha*x + (1-alpha)*y``, h neither x nor y, in table order.
    An alpha of 0 or 1 only mixes a pair back into one of its members, so
    every key is in (0, 1) and splits some member properly.
    """
    vectors = scale(lotteries)
    fraction = _Fractions()  # one Fraction per coefficient
    table = {}
    splits: dict[Fraction, list[list[tuple[int, int]]]] = {}
    for i, origin in enumerate(vectors[:-1]):
        rays = {}
        on_ray: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for k, v in enumerate(vectors):
            if k != i:
                diff = tuple(map(sub, v, origin))
                steps = gcd(*diff)
                if not steps:
                    raise DegeneratePair()
                direction = tuple(map(floordiv, diff, repeat(steps)))
                rays[k] = steps, direction
                on_ray.setdefault(direction, []).append((k, steps))
        for j in range(i + 1, len(vectors)):
            steps, direction = rays[j]
            row = [(k, s) for k, s in on_ray[direction] if s <= steps]
            row.append((i, 0))
            row.sort()
            table[i, j] = [(k, fraction[steps - s, steps], steps - s) for k, s in row]
            table[j, i] = [(k, fraction[s, steps], s) for k, s in row]
            if len(row) > 2:  # not only the two boundaries
                for pair in (i, j), (j, i):
                    for h, alpha, n in table[pair]:
                        if 0 < n < steps:
                            if alpha not in splits:
                                splits[alpha] = [[(m, m)] for m in range(len(vectors))]
                            splits[alpha][h].append(pair)
    return table, splits
