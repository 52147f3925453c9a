"""Finite relation structures checked against the six axioms, plus the
exhaustive case analysis of mixture pairs.

Two independent routes compute the case table:

* :func:`consistent_tuples` enumerates every reflexive transitive relation
  on the four abstract elements f1, f2, g1, g2 and projects it onto the
  four cross draws (f1,g1), (f1,g2), (f2,g1), (f2,g2);
* :func:`admissible_outcomes` applies the mixing and persistence rules to
  a tuple of draws for a generic coefficient in (0, 1).

:func:`regenerate_table` combines both and must match the reviewed
transcription shipped in ``data/case_table.txt`` byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .engine import AdmissibleSet
from .errors import (
    DslSyntaxError,
    ForeignLottery,
    InconsistentTuple,
    TableMismatch,
)
from .lottery import Lottery, mixture_instances, mixture_table
from .lottery import decompose  # noqa: F401  bench/test_bench.py traces it here
from .relation import KIND_INDEX, KIND_ORDER, RelKind, classify_pair, render_symbols

__all__ = [
    "CaseTuple",
    "FiniteModel",
    "AxiomViolation",
    "check_axioms",
    "consistent_tuples",
    "admissible_outcomes",
    "regenerate_table",
    "render_table",
    "parse_table",
    "bundled_table_text",
    "verify_table",
]


class CaseTuple(NamedTuple):
    """Judgments of the four draws (f1,g1), (f1,g2), (f2,g1), (f2,g2)."""

    d11: RelKind
    d12: RelKind
    d21: RelKind
    d22: RelKind

    def mirror(self) -> "CaseTuple":
        """Relabel f <-> g: swap Less/Greater and transpose the off draws."""
        return CaseTuple(
            self.d11.mirror(), self.d21.mirror(), self.d12.mirror(), self.d22.mirror()
        )

    def symbols(self) -> str:
        return "".join(k.symbol for k in self)


def _sort_key(t: CaseTuple):
    return tuple(KIND_INDEX[k] for k in t)


@lru_cache(maxsize=None)
def consistent_tuples() -> tuple[CaseTuple, ...]:
    """All draw tuples realizable by some preorder on {f1, f2, g1, g2}.

    Enumerates the 4096 reflexive relations over the 12 free ordered
    pairs, keeps the transitive ones, and projects each onto the four
    cross draws.  Output is sorted lexicographically under the canonical
    symbol order, which coincides with row-major reading of the table.
    """
    f1, f2, g1, g2 = range(4)
    elems = (f1, f2, g1, g2)
    free = [(a, b) for a in elems for b in elems if a != b]
    found: set[CaseTuple] = set()
    for bits in range(1 << len(free)):
        weak = {(a, a) for a in elems}
        for i, pair in enumerate(free):
            if bits >> i & 1:
                weak.add(pair)
        if any(
            (a, c) not in weak
            for (a, b) in weak
            for (b2, c) in weak
            if b == b2
        ):
            continue
        found.add(
            CaseTuple(
                classify_pair(weak, f1, g1),
                classify_pair(weak, f1, g2),
                classify_pair(weak, f2, g1),
                classify_pair(weak, f2, g2),
            )
        )
    return tuple(sorted(found, key=_sort_key))


def admissible_outcomes(t: CaseTuple) -> AdmissibleSet:
    """Judgments between the two mixtures not refuted by the rules.

    Uses a generic shared coefficient in (0, 1) and positional pairing
    (f1 with g1, f2 with g2); the cross draws enter only through the
    no-strict-draw persistence rule.
    """
    t = CaseTuple(*t)
    if t not in set(consistent_tuples()):
        raise InconsistentTuple(t.symbols())
    E, L, G, I = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP
    members = {E, L, G, I}
    provenance = []
    d11, d22 = t.d11, t.d22
    # one positional draw strict, the other weak in the same direction
    if (d11 is L and d22 in (E, L)) or (d22 is L and d11 in (E, L)):
        members &= {L}
        provenance.append("A5: a strict < draw mixed with a weak <= draw forces f < g")
    if (d11 is G and d22 in (E, G)) or (d22 is G and d11 in (E, G)):
        members &= {G}
        provenance.append("A5': a strict > draw mixed with a weak >= draw forces f > g")
    # both positional draws weakly aligned
    if d11 in (E, L) and d22 in (E, L):
        members -= {G, I}
        provenance.append("A4: both positional draws are <=, so f <= g")
    if d11 in (E, G) and d22 in (E, G):
        members -= {L, I}
        provenance.append("A4': both positional draws are >=, so g <= f")
    # persistence of incomparability: no strict draw in either direction
    if L not in t:
        members -= {L}
        provenance.append("A6: no draw is <, so f < g is impossible")
    if G not in t:
        members -= {G}
        provenance.append("A6': no draw is >, so f > g is impossible")
    return AdmissibleSet(frozenset(members), tuple(provenance))


def regenerate_table() -> list[tuple[CaseTuple, AdmissibleSet]]:
    """The full case table in canonical order, computed from first principles."""
    return [(t, admissible_outcomes(t)) for t in consistent_tuples()]


def render_table(rows) -> str:
    """Serialize table rows as ``<t1><t2><t3><t4> -> <set>`` lines."""
    lines = []
    for t, outcome in rows:
        lines.append(f"{CaseTuple(*t).symbols()} -> {render_symbols(outcome.members)}")
    return "\n".join(lines) + "\n"


_SYMBOL_KIND = {k.symbol: k for k in KIND_ORDER}


def parse_table(text: str) -> list[tuple[CaseTuple, frozenset[RelKind]]]:
    """Parse the table transcription format; blank and ``#!``-prefixed
    comment lines are ignored (``#`` alone is the incomparability symbol)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#!"):
            continue
        head, sep, tail = line.partition("->")
        if not sep:
            raise DslSyntaxError(lineno, 1, "'<tuple> -> <set>'")
        lhs = head.strip()
        if len(lhs) != 4 or any(c not in _SYMBOL_KIND for c in lhs):
            raise DslSyntaxError(lineno, 1, "four symbols from {~,<,>,#}")
        outcome = []
        for token in tail.split():
            if token not in _SYMBOL_KIND:
                raise DslSyntaxError(lineno, line.index(token) + 1, "symbol from {~,<,>,#}")
            outcome.append(_SYMBOL_KIND[token])
        if not outcome:
            raise DslSyntaxError(lineno, len(line), "nonempty outcome set")
        rows.append((CaseTuple(*(_SYMBOL_KIND[c] for c in lhs)), frozenset(outcome)))
    return rows


def bundled_table_text() -> str:
    """The reviewed transcription shipped with the package."""
    return resources.files("partialpref").joinpath("data/case_table.txt").read_text("utf-8")


def verify_table(transcription_text: str | None = None) -> list[tuple[CaseTuple, AdmissibleSet]]:
    """Regenerate the table and compare against a transcription.

    Raises :class:`TableMismatch` with every differing tuple; defaults to
    the bundled transcription.
    """
    expected = parse_table(
        bundled_table_text() if transcription_text is None else transcription_text
    )
    computed = regenerate_table()
    expected_map = {t: s for t, s in expected}
    computed_map = {t: o.members for t, o in computed}
    diffs = []
    for t in sorted(set(expected_map) | set(computed_map), key=_sort_key):
        e = expected_map.get(t)
        c = computed_map.get(t)
        if e != c:
            diffs.append((t, e, c))
    if diffs:
        raise TableMismatch(diffs)
    return computed


@dataclass(frozen=True)
class FiniteModel:
    """An explicit candidate relation <= over a finite lottery family."""

    family: tuple[Lottery, ...]
    weak: frozenset[tuple[Lottery, Lottery]]


@dataclass(frozen=True)
class AxiomViolation:
    """A failed axiom instance; witnesses allow replaying the check."""

    axiom: str
    witnesses: tuple

    def __str__(self):
        parts = ", ".join(str(w) for w in self.witnesses)
        return f"{self.axiom} violated by: {parts}"


def check_axioms(model: FiniteModel, rel=None) -> list[AxiomViolation]:
    """Every violated axiom instance whose mixture witnesses lie in the family.

    Quantification over all distributions is restricted to the closed
    family: an instance is checked only when the mixtures it mentions are
    themselves family members.  Violations come grouped by axiom (A1',
    A2, ..., A6) and, within an axiom, ordered by the family positions of
    their witness lotteries, read left to right.  ``rel`` is accepted for
    context only and never consulted.
    """
    del rel
    fam = list(dict.fromkeys(model.family))
    index = {h: i for i, h in enumerate(fam)}
    weak = set()
    for x, y in model.weak:
        i, j = index.get(x), index.get(y)
        if i is None:
            raise ForeignLottery(x)
        if j is None:
            raise ForeignLottery(y)
        weak.add((i, j))
    pairs = sorted(weak)
    strict = {(x, y) for x, y in weak if (y, x) not in weak}
    table = mixture_table(fam)
    violations: list[AxiomViolation] = []

    # reflexivity
    for h in range(len(fam)):
        if (h, h) not in weak:
            violations.append(AxiomViolation("A1'", (fam[h],)))

    # transitivity
    above = [[] for _ in fam]
    for x, y in pairs:
        above[x].append(y)
    for x, y in pairs:
        for z in above[y]:
            if (x, z) not in weak:
                violations.append(AxiomViolation("A2", (fam[x], fam[y], fam[z])))

    # mixing a strict pair with itself: more weight on the worse side is worse
    for f, g in sorted(strict):
        row = table[f, g]
        for h_beta, beta in row:
            for h_alpha, alpha in row:
                if beta > alpha and (h_beta, h_alpha) not in strict:
                    violations.append(AxiomViolation(
                        "A3", (fam[f], fam[g], alpha, beta, fam[h_beta], fam[h_alpha])
                    ))

    # A4 mixes two weak facts at a shared coefficient, A5 a strict with a
    # weak one; A6 (persistence) asks a strict mixture pair for a strict draw
    a4, a5, a6 = [], [], []
    for hf, hg, a, (f1, f2), (g1, g2) in mixture_instances(table, len(fam)):
        if (f1, g1) in weak and (f2, g2) in weak:
            if (hf, hg) not in weak:
                a4.append((f1, g1, f2, g2, hf, hg, a))
            if (f1, g1) in strict and (hf, hg) not in strict:
                a5.append((f1, g1, f2, g2, hf, hg, a))
        if (hf, hg) in strict and not any(
            (fj, gk) in strict for fj in (f1, f2) for gk in (g1, g2)
        ):
            a6.append((f1, f2, g1, g2, hf, hg, a))
    for axiom, found in (("A4", a4), ("A5", a5), ("A6", a6)):
        for w1, w2, w3, w4, hf, hg, a in sorted(found):
            violations.append(AxiomViolation(
                axiom, (fam[w1], fam[w2], fam[w3], fam[w4], a, fam[hf], fam[hg])
            ))
    return violations
