"""Finite relation structures checked against the six axioms, plus the
exhaustive case analysis of mixture pairs.

Two independent routes compute the case table:

* :func:`consistent_tuples` keeps the tuples of judgments on the four cross
  draws (f1,g1), (f1,g2), (f2,g1), (f2,g2) that some preorder on the four
  abstract elements f1, f2, g1, g2 realizes, decided by
  :func:`relation._close`, the closure that builds every ``BaseRelation``;
* :func:`admissible_outcomes` applies the mixing and persistence rules to
  a tuple of draws for a generic coefficient in (0, 1).

:func:`regenerate_table` combines both and must match the reviewed
transcription shipped in ``data/case_table.txt`` byte-for-byte.
:func:`admissible_outcomes` stays the outcome route: deriving the outcomes
from ``saturate`` and ``compare`` takes about 1 s against about 2 ms here,
so that derivation is a test, which checks this route on every row.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .dsl import split_lines, token_column
from .engine import REFUTES, AdmissibleSet, consequences, lift
from .errors import (
    DslSyntaxError,
    ForeignLottery,
    InconsistentTuple,
    TableMismatch,
)
from .lottery import mixture_table
from .lottery import decompose  # noqa: F401  bench/test_bench.py traces it here
from .relation import _KIND, KIND_INDEX, KIND_ORDER, RelKind, _close, render_symbols

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


class CaseTuple(namedtuple("CaseTuple", "d11 d12 d21 d22")):
    """Judgments (:class:`RelKind`) of the four draws (f1,g1), (f1,g2),
    (f2,g1), (f2,g2)."""

    __slots__ = ()

    def mirror(self) -> "CaseTuple":
        """Relabel f <-> g: swap Less/Greater and transpose the off draws."""
        return CaseTuple(
            self.d11.mirror(), self.d21.mirror(), self.d12.mirror(), self.d22.mirror()
        )

    def symbols(self) -> str:
        return "".join(k.symbol for k in self)


def _sort_key(t: CaseTuple):
    return tuple(KIND_INDEX[k] for k in t)


# the cross draws (f1,g1), (f1,g2), (f2,g1), (f2,g2) as element pairs
_DRAWS = ((0, 2), (0, 3), (1, 2), (1, 3))


@lru_cache(maxsize=None)
def consistent_tuples() -> tuple[CaseTuple, ...]:
    """All draw tuples realizable by some preorder on {f1, f2, g1, g2}.

    Each of the 256 tuples asserts a <= b for the draws (a, b) it judges
    ~ or <, and b <= a for those it judges ~ or >.  :func:`relation._close`
    closes those pairs on the elements 0..3 (f1, f2, g1, g2), and the tuple
    is kept iff the closure judges every draw as the tuple does: the least
    preorder containing the asserted pairs realizes the tuple iff any
    preorder does.  ``product`` yields the tuples in the canonical symbol
    order, the row-major reading of the table.
    """
    E, L, G = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER
    found = []
    for kinds in product(KIND_ORDER, repeat=4):
        succ = {0: [], 1: [], 2: [], 3: []}
        for (f, g), kind in zip(_DRAWS, kinds):
            if kind in (E, L):
                succ[f].append(g)
            if kind in (E, G):
                succ[g].append(f)
        index, masks = _close(succ)
        if kinds == tuple([_KIND[masks[f] >> index[g] & 1][masks[g] >> index[f] & 1] for f, g in _DRAWS]):
            found.append(CaseTuple(*kinds))
    return tuple(found)


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
    comment lines are ignored (``#`` alone is the incomparability symbol).
    A well-formed row whose left side has an earlier row is an error."""
    rows = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
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
        first = first_line.setdefault(lhs, lineno)
        if first != lineno:  # placed at the second copy's left side
            raise DslSyntaxError(f"one row per left side: {lhs!r} is also on line {first}").at(
                lineno, token_column(head, 0))
        rows.append((CaseTuple(*(_SYMBOL_KIND[c] for c in lhs)), frozenset(outcome)))
    return rows


def bundled_table_text() -> str:
    """The reviewed transcription shipped with the package."""
    from importlib import resources  # here, not at the top: it slows every cold start

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


class FiniteModel(namedtuple("FiniteModel", "family weak")):
    """An explicit candidate relation <= (``weak``, pairs of lotteries) over
    a finite lottery family."""

    __slots__ = ()


class AxiomViolation(namedtuple("AxiomViolation", "axiom witnesses")):
    """A failed axiom instance; witnesses allow replaying the check."""

    __slots__ = ()

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
    table, splits = mixture_table(fam)

    found = [
        (axiom, witnesses)
        for axiom, pair, witnesses in consequences(table, splits, len(fam), weak, strict)
        if pair not in (strict if axiom in ("A3", "A5") else weak)
    ]
    # persistence: a strict mixture pair asks for a strict draw (two trivial
    # splits draw the pair itself); the sort below fixes the order
    found += [
        ("A6", (f1, f2, g1, g2, a, hf, hg))
        for a, options in splits.items()
        for hf, hg in strict
        if len(options[hf]) > 1 or len(options[hg]) > 1
        for f1, f2 in options[hf]
        for g1, g2 in options[hg]
        if not any((fj, gk) in strict for fj in (f1, f2) for gk in (g1, g2))
    ]
    # "A1'" < "A2" < ... < "A6" as strings; alphas are not positions
    found.sort(key=lambda v: (v[0], [w for w in v[1] if type(w) is int]))
    return [AxiomViolation(axiom, lift(fam, witnesses)) for axiom, witnesses in found]
