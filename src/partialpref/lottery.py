"""Finite-support lotteries with exact rational weights.

All arithmetic uses :class:`fractions.Fraction`; no floating point enters
the engine anywhere.  Lotteries are immutable values: hashable, comparable
by their weight mapping, safe to share.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm
from operator import floordiv, sub

from .errors import (
    AlphaOutOfRange,
    DegeneratePair,
    EmptySupport,
    NegativeWeight,
    NotNormalized,
)
from .relation import _kept, _read_only, check_id

__all__ = [
    "Lottery",
    "make_lottery",
    "convex_combine",
    "decompose",
    "mixture_table",
    "scale",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class Lottery:
    """A probability distribution with finite, nonempty support.

    ``entries`` is sorted by alternative id; every weight is a strictly
    positive Fraction and the weights sum to exactly 1.  Construct through
    :func:`make_lottery` or :meth:`degenerate`.  The hash and the integer
    form are computed on first use and kept on the instance.
    """

    def __init__(self, entries: tuple[tuple[str, Fraction], ...]):
        self.__dict__["entries"] = entries

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"Lottery(entries={self.entries!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # the cached hashes tell most unequal lotteries apart without
        # comparing their Fraction weights
        if self is other:
            return True
        if not isinstance(other, Lottery):
            return NotImplemented
        return self._hash == other._hash and self.entries == other.entries

    @_kept
    def _hash(self) -> int:
        # the integer form is a function of the entries, and hashing its
        # ints skips Fraction.__hash__'s modular inverse on every weight
        denom, nums = self.integer_form
        return hash((denom, tuple(nums.items())))

    def __getstate__(self):
        # a string's hash differs between processes, so the cache stays behind
        return {"entries": self.entries}

    @_kept
    def integer_form(self) -> tuple[int, Mapping[str, int]]:
        """``(denom, numerators)``: the least common denominator of the
        weights, and each alternative's weight times ``denom``, in
        alternative order.  Every caller shares the mapping; none may
        change it."""
        denom = lcm(*(w.denominator for _, w in self.entries))
        return denom, {a: w.numerator * (denom // w.denominator) for a, w in self.entries}

    @classmethod
    def degenerate(cls, alternative: str) -> "Lottery":
        """The lottery assigning probability 1 to a single alternative."""
        lot = cls(entries=((check_id(alternative), ONE),))
        vars(lot)["integer_form"] = 1, {alternative: 1}
        return lot

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
    lot = Lottery(entries=tuple((a, Fraction(x, denom)) for a, x in nums.items()))
    vars(lot)["integer_form"] = denom, nums  # the value the property computes
    return lot


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
    fraction = cache(Fraction)  # one Fraction per coefficient
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
            table[i, j] = [(k, fraction(steps - s, steps), steps - s) for k, s in row]
            table[j, i] = [(k, fraction(s, steps), s) for k, s in row]
            if len(row) > 2:  # not only the two boundaries
                for pair in (i, j), (j, i):
                    for h, alpha, n in table[pair]:
                        if 0 < n < steps:
                            if alpha not in splits:
                                splits[alpha] = [[(m, m)] for m in range(len(vectors))]
                            splits[alpha][h].append(pair)
    return table, splits
