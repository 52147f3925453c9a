"""Finite-support lotteries with exact rational weights.

All arithmetic uses :class:`fractions.Fraction`; no floating point enters
the engine anywhere.  Lotteries are immutable values: hashable, comparable
by their weight mapping, safe to share.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd, lcm

from .errors import (
    AlphaOutOfRange,
    DegeneratePair,
    EmptySupport,
    NegativeWeight,
    NotNormalized,
)
from .relation import check_id

__all__ = [
    "Lottery",
    "make_lottery",
    "convex_combine",
    "decompose",
    "mixture_table",
    "mixture_instances",
    "scale",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Lottery:
    """A probability distribution with finite, nonempty support.

    ``entries`` is sorted by alternative id; every weight is a strictly
    positive Fraction and the weights sum to exactly 1.  Construct through
    :func:`make_lottery` or :meth:`degenerate`.  The hash and the integer
    form are computed on first use and kept on the instance.
    """

    entries: tuple[tuple[str, Fraction], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.entries,))

    def __getstate__(self):
        # a string's hash differs between processes, so the cache stays behind
        return {"entries": self.entries}

    @cached_property
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
        check_id(alternative)
        return cls(entries=((alternative, ONE),))

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
    divided by their sum.
    """
    acc: dict[str, Fraction] = {}
    for alternative, weight in pairs:
        check_id(alternative)
        w = Fraction(weight)
        if w < 0:
            raise NegativeWeight(alternative, w)
        acc[alternative] = acc.get(alternative, ZERO) + w
    total = sum(acc.values(), ZERO)
    if total == 0:
        raise EmptySupport()
    if normalize:
        acc = {a: w / total for a, w in acc.items()}
    elif total != 1:
        raise NotNormalized(total)
    entries = tuple(sorted((a, w) for a, w in acc.items() if w > 0))
    return Lottery(entries=entries)


def convex_combine(alpha, f: Lottery, g: Lottery) -> Lottery:
    """Pointwise mixture alpha*f + (1-alpha)*g."""
    a = Fraction(alpha)
    if not (0 <= a <= 1):
        raise AlphaOutOfRange(a)
    weights: dict[str, Fraction] = {}
    for alt, w in f.entries:
        weights[alt] = a * w
    for alt, w in g.entries:
        weights[alt] = weights.get(alt, ZERO) + (1 - a) * w
    entries = tuple(sorted((alt, w) for alt, w in weights.items() if w > 0))
    return Lottery(entries=entries)


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


def _segment(vectors, x, y) -> list[tuple[int, int, int]]:
    """(k, num, den) for each vectors[k] = alpha*x + (1-alpha)*y, alpha in [0, 1].

    ``alpha = num/den`` in lowest terms with ``den > 0``; each candidate is
    decided by integer cross-multiplication.  Raises
    :class:`DegeneratePair` when x == y.
    """
    diff = [a - b for a, b in zip(x, y)]
    pivot = next((c for c, d in enumerate(diff) if d), None)
    if pivot is None:
        raise DegeneratePair()
    den, y_pivot = diff[pivot], y[pivot]
    out = []
    for k, h in enumerate(vectors):
        num = h[pivot] - y_pivot
        if not (0 <= num <= den or den <= num <= 0):
            continue
        if all((hc - yc) * den == num * dc for hc, yc, dc in zip(h, y, diff)):
            g = gcd(num, den) * (1 if den > 0 else -1)
            out.append((k, num // g, den // g))
    return out


def decompose(h: Lottery, f: Lottery, g: Lottery):
    """Recover alpha in the open interval (0, 1) with h = alpha*f + (1-alpha)*g.

    Returns None when no such proper mixture coefficient exists (boundary
    decompositions h == f or h == g are deliberately excluded).  Raises
    :class:`DegeneratePair` when f == g.
    """
    vh, vf, vg = scale((h, f, g))
    for _, num, den in _segment([vh], vf, vg):
        if 0 < num < den:
            return Fraction(num, den)
    return None


def mixture_table(lotteries) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """Every mixture relation among a list of distinct lotteries, by index.

    Maps each ordered index pair (i, j), i != j, to the list of (k, alpha),
    k ascending, with ``lotteries[k] = alpha*lotteries[i] +
    (1-alpha)*lotteries[j]``; the boundaries (i, 1) and (j, 0) are
    included.  Weights are scaled to integers over their common
    denominator, so every entry is decided exactly; alpha is a Fraction.
    """
    vectors = scale(lotteries)
    fraction = cache(Fraction)  # one Fraction per coefficient value
    table = {}
    for i, j in combinations(range(len(vectors)), 2):
        row = _segment(vectors, vectors[i], vectors[j])
        table[i, j] = [(k, fraction(num, den)) for k, num, den in row]
        table[j, i] = [(k, fraction(den - num, den)) for k, num, den in row]
    return table


def mixture_instances(table, size: int):
    """Every way two index pairs mix into two members at one proper alpha.

    Yields ``(hf, hg, alpha, (f1, f2), (g1, g2))`` with 0 < alpha < 1,
    ``hf = alpha*f1 + (1-alpha)*f2`` and ``hg = alpha*g1 + (1-alpha)*g2``
    over a :func:`mixture_table` of ``size`` lotteries.  Either side may be
    the trivial split (h, h), which mixes to h at every alpha, but not
    both.  An alpha of 0 or 1 only mixes a pair back into one of its two
    members, so it is left out.
    """
    splits: dict[Fraction, list[list[tuple[int, int]]]] = {}
    for (x, y), row in table.items():
        for h, alpha in row:
            if h != x and h != y:
                if alpha not in splits:
                    splits[alpha] = [[(m, m)] for m in range(size)]
                splits[alpha][h].append((x, y))
    for alpha, options in splits.items():
        for hf in range(size):
            for hg in range(size):
                for f in options[hf]:
                    for g in options[hg]:
                        if f != (hf, hf) or g != (hg, hg):
                            yield hf, hg, alpha, f, g
