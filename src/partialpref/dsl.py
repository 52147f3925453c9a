"""Line-oriented input grammars and canonical text rendering.

Preference files declare one fact or universe entry per line; lottery
files declare one named distribution per line.  Rationals are exact
(``p/q`` or integers); floats are rejected outright.  ``#`` starts a
comment anywhere in a line.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import AdmissibleSet
from .errors import (
    DslSyntaxError,
    DuplicateName,
    MalformedId,
    PrefError,
    StrictViolation,
    UnknownLotteryName,
)
from .lottery import Lottery, make_lottery
from .relation import BaseRelation, FactKind, PrefFact, build_base_relation, check_id, render_symbols

__all__ = [
    "PrefDocument",
    "LotteryDocument",
    "parse_prefs",
    "parse_lotteries",
    "render_prefs",
    "render_lotteries",
    "render_verdict",
    "locate_alternative",
    "relation_from_document",
    "lotteries_from_document",
]

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")

# canonical ASCII operators, with unicode equivalents accepted on input
_OPS = {
    "<": FactKind.STRICT,
    "<=": FactKind.WEAK,
    "~": FactKind.EQUIV,
    "≺": FactKind.STRICT,   # ≺
    "⪯": FactKind.WEAK,     # ⪯
    "∼": FactKind.EQUIV,    # ∼
}


@dataclass(frozen=True)
class PrefDocument:
    facts: tuple[PrefFact, ...]
    universe_decls: tuple[str, ...]
    # (line, column) of each fact
    positions: tuple[tuple[int, int], ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class LotteryDocument:
    entries: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...]
    # (line, column) of each distribution
    positions: tuple[tuple[int, int], ...] = field(default=(), compare=False)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _column(line: str, token: str, start: int = 0) -> int:
    idx = line.find(token, start)
    return idx + 1 if idx >= 0 else len(line) + 1


def _check_id_at(ident: str, lineno: int, line: str, start: int | None = 0) -> str:
    """``check_id``; a malformed identifier is placed at its first occurrence
    in ``line`` from index ``start``, or at its last if ``start`` is None."""
    try:
        return check_id(ident)
    except MalformedId as exc:
        col = line.rfind(ident) + 1 if start is None else _column(line, ident, start)
        raise exc.at(lineno, col) from None


def parse_prefs(text: str) -> PrefDocument:
    """Parse a preference document.

    Statements: ``alt <id>`` (universe declaration), ``a < b`` (strict),
    ``a <= b`` (weak), ``a ~ b`` (equivalence).
    """
    facts: list[PrefFact] = []
    positions: list[tuple[int, int]] = []
    universe: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "alt":
            if len(tokens) != 2:
                raise DslSyntaxError(lineno, _column(line, "alt") + 3, "a single identifier after 'alt'")
            universe.append(_check_id_at(tokens[1], lineno, line, None))
            continue
        if len(tokens) != 3:
            raise DslSyntaxError(lineno, 1, "'<id> (<|<=|~) <id>' or 'alt <id>'")
        left, op, right = tokens
        if op not in _OPS:
            col = _column(line, op)
            if op[0] in _OPS and len(op) > 1:
                col += 1  # the first character parses; point at the stray one
            raise DslSyntaxError(lineno, col, "operator <, <= or ~")
        try:
            facts.append(PrefFact(_OPS[op], left, right))
        except MalformedId as exc:  # left is checked first
            col = _column(line, left) if exc.ident == left else line.rfind(right) + 1
            raise exc.at(lineno, col) from None
        positions.append((lineno, len(line) - len(line.lstrip()) + 1))
    return PrefDocument(tuple(facts), tuple(universe), tuple(positions))


def _parse_rational(token: str, lineno: int, col: int) -> Fraction:
    if not _RATIONAL_RE.fullmatch(token):
        raise DslSyntaxError(lineno, col, "exact rational p/q or integer (floats are rejected)")
    try:
        num, den = map(int, token.split("/")) if "/" in token else (int(token), 1)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise DslSyntaxError(lineno, col, f"at most {limit} digits per integer") from None
    if den == 0:
        raise DslSyntaxError(lineno, col, "nonzero denominator")
    return Fraction(num, den)


def parse_lotteries(text: str) -> LotteryDocument:
    """Parse a lottery document: ``<name> : <id>@<rational>(, ...)*`` per line."""
    entries = []
    positions = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise DslSyntaxError(lineno, len(line) + 1, "':' after the lottery name")
        name = head.strip()
        _check_id_at(name, lineno, line)
        if name in names:
            raise DuplicateName(name).at(lineno, _column(line, name))
        names.add(name)
        pairs = []
        start = len(head) + 1  # index of the next part in the line
        for part in tail.split(","):
            item = part.strip()
            if not item:
                raise DslSyntaxError(lineno, _column(line, part) if part else len(line) + 1, "'<id>@<rational>'")
            alt, at, weight = item.partition("@")
            if not at:
                raise DslSyntaxError(lineno, _column(line, item), "'@' between alternative and weight")
            alt = alt.strip()
            weight = weight.strip()
            _check_id_at(alt, lineno, line, start)
            pairs.append((alt, _parse_rational(weight, lineno, _column(line, weight))))
            start += len(part) + 1
        entries.append((name, tuple(pairs)))
        positions.append((lineno, len(head) + len(tail) - len(tail.lstrip()) + 2))
    return LotteryDocument(tuple(entries), tuple(positions))


def locate_alternative(text: str, ident: str) -> tuple[int, int] | None:
    """(line, column) of the first mention of alternative ``ident`` in a
    lottery document that parses, or None if it is not mentioned."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        head, _, tail = line.partition(":")
        start = len(head) + 1
        for part in tail.split(","):
            if part.partition("@")[0].strip() == ident:
                return lineno, _column(line, ident, start)
            start += len(part) + 1
    return None


def render_prefs(doc: PrefDocument) -> str:
    lines = [f"alt {a}" for a in doc.universe_decls]
    lines += [f"{f.left} {f.kind.value} {f.right}" for f in doc.facts]
    return "\n".join(lines) + ("\n" if lines else "")


def render_lotteries(doc: LotteryDocument) -> str:
    lines = [
        name + " : " + ", ".join(f"{a}@{w}" for a, w in pairs)
        for name, pairs in doc.entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_verdict(verdict: AdmissibleSet, verbose: bool = False, sep: str = " ") -> str:
    """Canonical-order symbols joined by ``sep``; provenance indented when verbose."""
    out = render_symbols(verdict.members, sep)
    if verbose:
        for note in verdict.provenance:
            out += f"\n  {note}"
    return out


def parse_model(text: str) -> tuple[LotteryDocument, tuple[tuple[str, str], ...]]:
    """Parse an explicit finite model file.

    Lottery lines follow the lottery grammar; relation lines are
    ``<name> <= <name>`` between declared lottery names, and any other
    name is an error placed at its line and column.
    """
    lottery_lines = []
    relations = []  # (left, right, line number, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            lottery_lines.append("")
            continue
        if ":" in line:
            lottery_lines.append(raw)
            continue
        lottery_lines.append("")
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in ("<=", "⪯"):
            raise DslSyntaxError(lineno, 1, "'<name> : ...' or '<name> <= <name>'")
        left, _, right = tokens
        _check_id_at(left, lineno, line)
        _check_id_at(right, lineno, line, None)
        relations.append((left, right, lineno, line))
    doc = parse_lotteries("\n".join(lottery_lines))
    declared = {name for name, _ in doc.entries}
    for left, right, lineno, line in relations:
        if left not in declared:
            raise UnknownLotteryName(left).at(lineno, _column(line, left))
        if right not in declared:
            raise UnknownLotteryName(right).at(lineno, line.rfind(right) + 1)
    return doc, tuple((left, right) for left, right, _, _ in relations)


def relation_from_document(doc: PrefDocument) -> BaseRelation:
    """Build the relation; a violated strict fact is placed at its first
    declaration when the document has positions."""
    try:
        return build_base_relation(doc.facts, extra_universe=set(doc.universe_decls))
    except StrictViolation as exc:
        if doc.positions:
            declared = (FactKind.STRICT, exc.left, exc.right)
            i = next(i for i, f in enumerate(doc.facts) if (f.kind, f.left, f.right) == declared)
            raise exc.at(*doc.positions[i]) from None
        raise


def lotteries_from_document(doc: LotteryDocument, normalize: bool = False) -> dict[str, Lottery]:
    """Materialize the document into named lotteries, in document order.

    A weight error is placed at its distribution when the document has
    positions.
    """
    lots = {}
    for i, (name, pairs) in enumerate(doc.entries):
        try:
            lots[name] = make_lottery(pairs, normalize=normalize)
        except PrefError as exc:
            if doc.positions:
                raise exc.at(*doc.positions[i]) from None
            raise
    return lots
