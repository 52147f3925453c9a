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

from .dsl import token_column
from .engine import REFUTES, AdmissibleSet, consequences, lift
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


@lru_cache(maxsize=None)
def _realizable() -> frozenset[CaseTuple]:
    return frozenset(consistent_tuples())


def admissible_outcomes(t: CaseTuple) -> AdmissibleSet:
    """Judgments between the two mixtures not refuted by the rules.

    Uses a generic shared coefficient in (0, 1) and positional pairing
    (f1 with g1, f2 with g2); the cross draws enter only through the
    no-strict-draw persistence rule.
    """
    t = CaseTuple(*t)
    if t not in _realizable():
        raise InconsistentTuple(t.symbols())
    E, L, G = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER
    d11, d22 = t.d11, t.d22
    # both positional draws weakly aligned (A4), one of them strictly (A5)
    le = d11 in (E, L) and d22 in (E, L)
    ge = d11 in (E, G) and d22 in (E, G)
    return AdmissibleSet.refute((
        (le and L in (d11, d22)
         and "A5: a strict < draw mixed with a weak <= draw forces f < g", REFUTES["<"]),
        (ge and G in (d11, d22)
         and "A5': a strict > draw mixed with a weak >= draw forces f > g", REFUTES[">"]),
        (le and "A4: both positional draws are <=, so f <= g", REFUTES["<="]),
        (ge and "A4': both positional draws are >=, so g <= f", REFUTES[">="]),
        # persistence of incomparability: no strict draw in either direction
        (L not in t and "A6: no draw is <, so f < g is impossible", REFUTES["!<"]),
        (G not in t and "A6': no draw is >, so f > g is impossible", REFUTES["!>"]),
    ))


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
        head, sep, tail = raw.partition("->")
        if not sep:
            raise DslSyntaxError("'<tuple> -> <set>'").at(lineno, 1)
        lhs = head.strip()
        if len(lhs) != 4 or any(c not in _SYMBOL_KIND for c in lhs):
            raise DslSyntaxError("four symbols from {~,<,>,#}").at(lineno, token_column(head, 0))
        outcome = []
        for i, token in enumerate(tail.split()):
            if token not in _SYMBOL_KIND:  # ``tail`` begins at index len(head) + 2
                raise DslSyntaxError("symbol from {~,<,>,#}").at(lineno, len(head) + 2 + token_column(tail, i))
            outcome.append(_SYMBOL_KIND[token])
        if not outcome:  # placed at the arrow's '>'
            raise DslSyntaxError("nonempty outcome set").at(lineno, len(head) + 2)
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
    weak = {(index.get(x), index.get(y)) for x, y in model.weak}  # one hash per lottery
    if any(None in pair for pair in weak):
        raise ForeignLottery(next(h for pair in model.weak for h in pair if h not in index))
    strict = {(x, y) for x, y in weak if (y, x) not in weak}
    table = mixture_table(fam)
    mixes = list(mixture_instances(table, len(fam)))

    found = [
        (axiom, witnesses)
        for axiom, pair, witnesses in consequences(table, mixes, len(fam), weak, strict)
        if pair not in (strict if axiom in ("A3", "A5") else weak)
    ]
    # persistence: a strict mixture pair asks for a strict draw
    found += [
        ("A6", (f1, f2, g1, g2, a, hf, hg))
        for hf, hg, a, (f1, f2), (g1, g2) in mixes
        if (hf, hg) in strict
        and not any((fj, gk) in strict for fj in (f1, f2) for gk in (g1, g2))
    ]
    # "A1'" < "A2" < ... < "A6" as strings; alphas are not positions
    found.sort(key=lambda v: (v[0], [w for w in v[1] if type(w) is int]))
    return [AxiomViolation(axiom, lift(fam, witnesses)) for axiom, witnesses in found]
