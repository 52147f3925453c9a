"""Line-oriented input grammars and canonical text rendering.

Preference files declare one fact or universe entry per line; lottery
files declare one named distribution per line.  Rationals are exact
(``p/q`` or integers); floats are rejected outright.  ``#`` starts a
comment anywhere in a line.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
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
from .relation import (
    BaseRelation,
    FactKind,
    PrefFact,
    _LastFieldAside,
    build_base_relation,
    check_id,
    render_symbols,
)

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
_TOKEN_RE = re.compile(r"\S+")  # the tokens of str.split()

# canonical ASCII operators, with unicode equivalents accepted on input
_OPS = {
    "<": FactKind.STRICT,
    "<=": FactKind.WEAK,
    "~": FactKind.EQUIV,
    "≺": FactKind.STRICT,   # ≺
    "⪯": FactKind.WEAK,     # ⪯
    "∼": FactKind.EQUIV,    # ∼
}


class PrefDocument(
    _LastFieldAside, namedtuple("PrefDocument", "facts universe_decls positions", defaults=((),))
):
    """A parsed preference file: its facts and ``alt`` declarations, and the
    (line, column) of each fact, which takes no part in equality."""

    __slots__ = ()


class LotteryDocument(
    _LastFieldAside, namedtuple("LotteryDocument", "entries positions", defaults=((),))
):
    """A parsed lottery file: (name, (alternative, weight) pairs) per
    distribution, and the (line, column) of each, which takes no part in
    equality."""

    __slots__ = ()


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, ended only by ``\\n``, ``\\r\\n`` or ``\\r``, the
    last one possibly empty; other line separators are whitespace."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def numbered_lines(text: str):
    """``(line number, line)`` of each line of ``text`` not blank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.partition("#")[0]
        if line and not line.isspace():
            yield lineno, line


def token_column(text: str, i: int) -> int:
    """Column, counted from 1, of the ``i``-th token of ``text.split()``;
    1 when ``text`` is blank."""
    return ([m.start() for m in _TOKEN_RE.finditer(text)] or [0])[i] + 1


def parse_prefs(text: str) -> PrefDocument:
    """Parse a preference document.

    Statements: ``alt <id>`` (universe declaration), ``a < b`` (strict),
    ``a <= b`` (weak), ``a ~ b`` (equivalence).
    """
    facts: list[PrefFact] = []
    positions: list[tuple[int, int]] = []
    universe: list[str] = []
    for lineno, line in numbered_lines(text):
        tokens = line.split()
        try:
            if tokens[0] == "alt":
                if len(tokens) != 2:
                    raise DslSyntaxError("a single identifier after 'alt'").at(lineno, token_column(line, 0) + 3)
                universe.append(check_id(tokens[1]))
                continue
            if len(tokens) != 3:
                raise DslSyntaxError("'<id> (<|<=|~) <id>' or 'alt <id>'").at(lineno, 1)
            left, op, right = tokens
            if op not in _OPS:
                # when the first character parses, point at the stray one
                stray = op[0] in _OPS and len(op) > 1
                raise DslSyntaxError("operator <, <= or ~").at(lineno, token_column(line, 1) + stray)
            facts.append(PrefFact(_OPS[op], left, right))
        except MalformedId as exc:  # left is checked first; right is the last token
            raise exc.at(lineno, token_column(line, 0 if exc.ident == tokens[0] else -1)) from None
        positions.append((lineno, len(line) - len(line.lstrip()) + 1))
    return PrefDocument(tuple(facts), tuple(universe), tuple(positions))


def _parse_rational(token: str) -> Fraction:
    """The exact rational ``token``; raises :class:`DslSyntaxError` unplaced."""
    if not _RATIONAL_RE.fullmatch(token):
        raise DslSyntaxError("exact rational p/q or integer (floats are rejected)")
    try:
        num, den = map(int, token.split("/")) if "/" in token else (int(token), 1)
    except ValueError:  # more digits than the interpreter converts
        raise DslSyntaxError(f"at most {sys.get_int_max_str_digits()} digits per integer") from None
    if den == 0:
        raise DslSyntaxError("nonzero denominator")
    return Fraction(num, den)


def _items(tail: str, start: int):
    """Each comma-separated item of ``tail``, the slice of a lottery line
    that begins at index ``start``, as the index where the item begins and
    its unstripped ``(<id>, "@", <rational>)`` fields."""
    for part in tail.split(","):
        yield start, part.partition("@")
        start += len(part) + 1


def _lottery_line(lineno: int, line: str, entries: dict, positions: list) -> None:
    """Read the lottery line ``line``, numbered ``lineno``, into ``entries``
    (name to pairs, in file order) and ``positions``."""
    head, sep, tail = line.partition(":")
    if not sep:
        raise DslSyntaxError("':' after the lottery name").at(lineno, len(line) + 1)
    name = head.strip()
    try:
        if check_id(name) in entries:
            raise DuplicateName(name)
    except PrefError as exc:
        raise exc.at(lineno, token_column(head, 0)) from None
    pairs = []
    for start, (alt, at, weight) in _items(tail, len(head) + 1):
        try:
            ident = alt.strip()
            if not at:  # an item without '@', or an empty one
                raise DslSyntaxError("'@' between alternative and weight" if ident else "'<id>@<rational>'")
            check_id(ident)
        except PrefError as exc:
            raise exc.at(lineno, start + token_column(alt, 0)) from None
        try:
            pairs.append((ident, _parse_rational(weight.strip())))
        except DslSyntaxError as exc:
            raise exc.at(lineno, start + len(alt) + 1 + token_column(weight, 0)) from None
    entries[name] = tuple(pairs)
    positions.append((lineno, len(head) + len(tail) - len(tail.lstrip()) + 2))


def parse_lotteries(text: str) -> LotteryDocument:
    """Parse a lottery document: ``<name> : <id>@<rational>(, ...)*`` per line."""
    entries, positions = {}, []
    for lineno, line in numbered_lines(text):
        _lottery_line(lineno, line, entries, positions)
    return LotteryDocument(tuple(entries.items()), tuple(positions))


def locate_alternative(text: str, ident: str) -> tuple[int, int] | None:
    """(line, column) of the first mention of alternative ``ident`` in a
    lottery document that parses, or None if it is not mentioned."""
    for lineno, line in numbered_lines(text):
        head, _, tail = line.partition(":")
        for start, (alt, _, _) in _items(tail, len(head) + 1):
            if alt.strip() == ident:
                return lineno, start + token_column(alt, 0)
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
    ``<name> <= <name>``.  Lines are read once, in file order; names are
    checked after the last, as a relation may precede its lotteries.
    """
    entries, positions = {}, []
    relations = []  # (left, right, line number, line)
    for lineno, line in numbered_lines(text):
        if ":" in line:
            _lottery_line(lineno, line, entries, positions)
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in ("<=", "⪯"):
            raise DslSyntaxError("'<name> : ...' or '<name> <= <name>'").at(lineno, 1)
        left, _, right = tokens
        try:
            check_id(left)
            check_id(right)
        except MalformedId as exc:
            raise exc.at(lineno, token_column(line, 0 if exc.ident == left else -1)) from None
        relations.append((left, right, lineno, line))
    for left, right, lineno, line in relations:
        if left not in entries:
            raise UnknownLotteryName(left).at(lineno, token_column(line, 0))
        if right not in entries:
            raise UnknownLotteryName(right).at(lineno, token_column(line, -1))
    doc = LotteryDocument(tuple(entries.items()), tuple(positions))
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
