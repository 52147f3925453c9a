import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialpref.casetable import parse_table
from partialpref.dsl import (
    _OPS,
    LotteryDocument,
    PrefDocument,
    locate_alternative,
    numbered_lines,
    lotteries_from_document,
    parse_lotteries,
    parse_model,
    parse_prefs,
    relation_from_document,
    render_lotteries,
    render_prefs,
    render_verdict,
    token_column,
)
from partialpref.engine import AdmissibleSet
from partialpref.errors import (
    DslSyntaxError,
    DuplicateName,
    MalformedId,
    NegativeWeight,
    NotNormalized,
    PrefError,
    StrictViolation,
    UnknownLotteryName,
)
from partialpref.relation import FactKind, PrefFact, RelKind, check_id

E, L, G, I = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP


class TestParsePrefs:
    def test_strict_chain(self):
        doc = parse_prefs("a < b\nb < c")
        assert doc.facts == (
            PrefFact(FactKind.STRICT, "a", "b"),
            PrefFact(FactKind.STRICT, "b", "c"),
        )

    def test_comment_stripped(self):
        doc = parse_prefs("a ~ b  # tie")
        assert doc.facts == (PrefFact(FactKind.EQUIV, "a", "b"),)

    def test_double_strict_rejected_at_second_angle(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_prefs("a << b")
        assert exc.value.line == 1
        assert exc.value.column == 4

    def test_universe_declaration(self):
        doc = parse_prefs("alt x\nalt y\nx <= y")
        assert doc.universe_decls == ("x", "y")
        rel = relation_from_document(doc)
        assert rel.universe == {"x", "y"}

    def test_unicode_operators_accepted(self):
        doc = parse_prefs("a ≺ b\nc ⪯ d\ne ∼ f")
        assert [f.kind for f in doc.facts] == [
            FactKind.STRICT,
            FactKind.WEAK,
            FactKind.EQUIV,
        ]

    def test_blank_and_comment_lines_ignored(self):
        doc = parse_prefs("\n# header\n\na < b\n")
        assert len(doc.facts) == 1
        assert doc.positions == ((4, 1),)

    def test_crlf_accepted(self):
        doc = parse_prefs("a < b\r\nb < c\r\n")
        assert len(doc.facts) == 2

    def test_malformed_id(self):
        with pytest.raises(MalformedId):
            parse_prefs("a.b < c")

    def test_strict_violation_placed_at_first_declaration(self):
        doc = parse_prefs("a < b\n  c < d  # first\n\nd ~ c\n c < d\n")
        assert doc.positions == ((1, 1), (2, 3), (4, 1), (5, 2))
        with pytest.raises(StrictViolation) as exc:
            relation_from_document(doc)
        assert (exc.value.left, exc.value.right, exc.value.line, exc.value.column) == (
            "c", "d", 2, 3)
        assert str(exc.value).startswith("line 2, column 3: strict fact c < d violated")

    def test_document_without_positions_violates_unplaced(self):
        doc = PrefDocument((PrefFact(FactKind.STRICT, "a", "b"), PrefFact(FactKind.WEAK, "b", "a")), ())
        with pytest.raises(StrictViolation) as exc:
            relation_from_document(doc)
        assert exc.value.line is None
        assert str(exc.value).startswith("strict fact a < b violated")

    @pytest.mark.parametrize(
        "text, ident, column",
        [("a.b < c", "a.b", 1), ("b < b!", "b!", 5), ("a <= <=", "<=", 6), ("  alt x.y", "x.y", 7)],
    )
    def test_malformed_id_placed(self, text, ident, column):
        with pytest.raises(MalformedId) as exc:
            parse_prefs("a < b\n" + text)
        assert (exc.value.ident, exc.value.line, exc.value.column) == (ident, 2, column)
        assert str(exc.value) == f"line 2, column {column}: malformed identifier: {ident!r}"


def token_parse_prefs(text: str) -> PrefDocument:
    """``parse_prefs`` as it read every line before its line pattern: by
    the tokens of ``str.split``.  The oracle of :class:`TestLinePattern`."""
    facts = []
    positions = []
    universe = []
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
                stray = op[0] in _OPS and len(op) > 1
                raise DslSyntaxError("operator <, <= or ~").at(lineno, token_column(line, 1) + stray)
            facts.append(PrefFact(_OPS[op], left, right))
        except MalformedId as exc:
            raise exc.at(lineno, token_column(line, 0 if exc.ident == tokens[0] else -1)) from None
        positions.append((lineno, len(line) - len(line.lstrip()) + 1))
    return PrefDocument(tuple(facts), tuple(universe), tuple(positions))


def parsed(parse, text):
    """The document and its positions, or the error's class, message and place."""
    try:
        doc = parse(text)
    except PrefError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return doc, doc.positions


class TestLinePattern:
    """``parse_prefs`` reads the common line shapes with one pattern and
    leaves every other line to the tokens: its documents, positions and
    errors are those of :func:`token_parse_prefs`."""

    IDS = ["a", "b2", "x-1", "a_b", "über", "alt", "altx", "_"]
    BAD_IDS = ["a.b", "x!", "b\u200b", "-<"]
    OPS = list(_OPS) + ["<<", "=", "<==", "~~", ">", "<=<"]
    BLANKS = [" ", "  ", "\t", " \t", "\xa0", "\u2028", "\v", "\u3000"]
    ENDS = ["\n", "\r\n", "\r"]

    @classmethod
    def line(cls, rng):
        def blank():
            return rng.choice(cls.BLANKS) if rng.random() < 0.2 else rng.choice([" ", "\t", "  "])

        def ident():
            return rng.choice(cls.BAD_IDS) if rng.random() < 0.1 else rng.choice(cls.IDS)

        shape = rng.random()
        if shape < 0.45:
            tokens = [ident(), rng.choice(cls.OPS) if rng.random() < 0.2 else rng.choice(list(_OPS)), ident()]
        elif shape < 0.65:
            tokens = ["alt", ident()]
        elif shape < 0.75:
            tokens = ["alt", rng.choice(list(_OPS)), ident()]
        else:  # missing or extra tokens
            tokens = [rng.choice(cls.IDS + cls.OPS + cls.BAD_IDS) for _ in range(rng.randint(1, 4))]
        line = blank() * rng.randint(0, 2)
        line += "".join(t + blank() for t in tokens[:-1]) + tokens[-1]
        line += blank() * rng.randint(0, 1)
        if rng.random() < 0.15:
            line += rng.choice(["#", " # c < d", "# alt"])
        if rng.random() < 0.05:
            line = rng.choice(["", "  ", "# only a comment", "\t#"])
        return line

    def test_agrees_with_the_token_parser(self):
        rng = random.Random("line-pattern")
        outcomes = set()
        for _ in range(4000):
            lines = [self.line(rng) for _ in range(rng.randint(1, 5))]
            text = "".join(line + rng.choice(self.ENDS) for line in lines)[:rng.choice([None, -1])]
            expected = parsed(token_parse_prefs, text)
            assert parsed(parse_prefs, text) == expected, ascii(text)
            outcomes.add(expected[0] if isinstance(expected[0], type) else "document")
        assert outcomes == {"document", DslSyntaxError, MalformedId}

    @pytest.mark.parametrize("text", [
        "alt < b", "alt alt", "alt\t<= b", "  x ~ alt", "a <\xa0b", "\u2028a < b",
        "a < b\u2028", "alt\u3000x", "a\t⪯\tb  ", "a <<= b", "a < b < c", "alt",
    ], ids=ascii)
    def test_edge_lines(self, text):
        assert parsed(parse_prefs, text) == parsed(token_parse_prefs, text)


class TestParseLotteries:
    def test_basic_entry(self):
        doc = parse_lotteries("f : a@1/3, b@2/3")
        assert doc.entries == (("f", (("a", F(1, 3)), ("b", F(2, 3)))),)

    def test_degenerate(self):
        doc = parse_lotteries("g : a@1")
        lots = lotteries_from_document(doc)
        assert lots["g"].weight("a") == 1

    def test_float_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_lotteries("f : a@0.5")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_lotteries("f : a@1\nf : b@1")

    def test_duplicate_name_placed(self):
        with pytest.raises(DuplicateName) as exc:
            parse_lotteries("f : a@1\n\n  f  : b@1")
        assert (exc.value.name, exc.value.line, exc.value.column) == ("f", 3, 3)
        assert str(exc.value) == "line 3, column 3: duplicate name: 'f'"

    @pytest.mark.parametrize(
        "ident, place",
        [("a", (1, 5)), ("b", (2, 12)), ("bb", (2, 5)), ("c", (3, 10)), ("f", None), ("z", None)],
    )
    def test_locate_alternative(self, ident, place):
        # names, weights, comments and longer identifiers are not mentions
        text = "f : a@1  # b\n\tg:\tbb@1/2,b@1/2\nh : b@0, c @1/2,cc@1/2\n"
        parse_lotteries(text)
        assert locate_alternative(text, ident) == place

    def test_not_normalized_surfaces_on_materialize(self):
        doc = parse_lotteries("f : a@1/2, b@1/3")
        with pytest.raises(NotNormalized):
            lotteries_from_document(doc)
        lots = lotteries_from_document(doc, normalize=True)
        assert lots["f"].weight("a") == F(3, 5)

    def test_malformed_names_placed(self):
        for text, ident, column in [("x! : a@1", "x!", 1), ("f :  b@1/2,  a!@1/2", "a!", 14)]:
            with pytest.raises(MalformedId) as exc:
                parse_lotteries(text)
            assert (exc.value.ident, exc.value.line, exc.value.column) == (ident, 1, column)

    def test_materialize_error_placed_at_distribution(self):
        doc = parse_lotteries("g : a@1\n\n f :a@1, b@-1/2")
        assert doc.positions == ((1, 5), (3, 5))
        with pytest.raises(NegativeWeight) as exc:
            lotteries_from_document(doc)
        assert (exc.value.alternative, exc.value.weight) == ("b", F(-1, 2))
        assert (exc.value.line, exc.value.column) == (3, 5)
        assert str(exc.value).startswith("line 3, column 5: negative weight")

    def test_document_without_positions_errs_unplaced(self):
        doc = LotteryDocument((("f", (("a", F(1, 2)),)),))
        with pytest.raises(NotNormalized) as exc:
            lotteries_from_document(doc)
        assert (exc.value.total, exc.value.line) == (F(1, 2), None)
        assert str(exc.value) == "weights sum to 1/2, expected 1"

    def test_missing_colon(self):
        with pytest.raises(DslSyntaxError):
            parse_lotteries("f a@1")

    @pytest.mark.parametrize(
        "weight", ["1" * 5000 + "/7", "1/" + "7" * 5000], ids=["numerator", "denominator"]
    )
    def test_overlong_weight_is_syntax_error(self, weight):
        # int() refuses strings past the interpreter's digit limit (4300
        # by default); that must surface at the token, not as ValueError
        with pytest.raises(DslSyntaxError) as exc:
            parse_lotteries(f"g : a@1\nf : b@1/2, a@{weight}")
        assert (exc.value.line, exc.value.column) == (2, 14)
        assert "digits" in str(exc.value)


class TestParseModel:
    def test_lotteries_and_weak_pairs(self):
        doc, pairs = parse_model("f : a@1\ng : b@1\nf <= f\nf <= g\ng <= g")
        assert [name for name, _ in doc.entries] == ["f", "g"]
        assert pairs == (("f", "f"), ("f", "g"), ("g", "g"))

    def test_bad_relation_line(self):
        with pytest.raises(DslSyntaxError):
            parse_model("f : a@1\nf < g")

    def test_unknown_name_placed(self):
        # the relation line may precede the lotteries it names
        with pytest.raises(UnknownLotteryName) as exc:
            parse_model("g <= f\nf : a@1\n  q <= f\ng : b@1")
        assert (exc.value.name, exc.value.line, exc.value.column) == ("q", 3, 3)

    def test_first_syntax_error_in_file_order(self):
        # a lottery line's error comes before a later relation line's
        with pytest.raises(DslSyntaxError) as exc:
            parse_model("f : a@x\nf <=")
        assert str(exc.value).startswith("line 1, column 7: expected exact rational")


# the line separators of str.splitlines that are not line ends in a file
SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """Lines end only at \\n, \\r\\n and \\r; every other separator is
    whitespace inside its line."""

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    @pytest.mark.parametrize(
        "parse, first, second, column",
        [(parse_prefs, "a < b", "x << y", 4), (parse_table, "~~~~ -> ~", "<<<< -> < x", 11)],
        ids=["prefs", "table"],
    )
    def test_separator_does_not_end_a_line(self, parse, first, second, column, sep):
        with pytest.raises(DslSyntaxError) as exc:
            parse(first + sep + "\n" + second)
        assert (exc.value.line, exc.value.column) == (2, column)

    @pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
    def test_separator_is_whitespace(self, sep):
        assert parse_prefs("a <" + sep + "b").facts == (PrefFact(FactKind.STRICT, "a", "b"),)

    GRAMMARS = {
        parse_prefs: ("# head\n\na < b\n  c <= d # tail\nalt e\n", "a < b\n\nx << y\n"),
        parse_lotteries: ("f : a@1\n\n # x\n g :  a@1/2, b@1/2\n", "f : a@1\n\ng : a@x"),
        parse_model: ("f : a@1\n\nf <= g\ng : b@1\n", "f : a@1\n# x\nf < f"),
        parse_table: ("#! head\n\n~~~~ -> ~\n  ~~~< -> <\n", "~~~~ -> ~\n\n<<<< -> < x\n"),
    }

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("parse", GRAMMARS, ids=lambda parse: parse.__name__)
    def test_crlf_and_cr_read_like_lf(self, parse, end):
        good, bad = self.GRAMMARS[parse]
        # the repr shows the places, which equality leaves out
        assert repr(parse(good.replace("\n", end))) == repr(parse(good))
        with pytest.raises(DslSyntaxError) as lf:
            parse(bad)
        with pytest.raises(DslSyntaxError) as exc:
            parse(bad.replace("\n", end))
        assert str(exc.value) == str(lf.value)


def planted_error(rng, grammar):
    """One line of ``grammar`` whose first error is a planted token whose
    text also occurs earlier in the line: ``(line, token, index)``.  A
    model gets a lottery line."""

    def gap():
        return rng.choice([" ", "  ", "\t", " \t "])

    def ident():
        return rng.choice(["a", "b", "ab", "x-1", "a_b"])

    if grammar == "prefs":
        # the left side is checked after the operator, so it may hold it
        op = rng.choice([">", "=", "=>", "-", "><"])
        before = rng.choice(["", " "]) + ident() + op + ident() + gap()
        return before + op + gap() + ident(), op, len(before)
    if grammar == "table":
        lhs = "".join(rng.choice("~<>#") for _ in range(4))
        i = rng.randrange(3)
        bad = lhs[i:rng.randint(i + 2, 4)]
        before = rng.choice(["", "  ", "\t"]) + lhs + gap() + "->"
        before += "".join(gap() + rng.choice("~<>#") for _ in range(rng.randrange(3))) + gap()
        return before + bad + gap(), bad, len(before)
    name = ident()
    alts = [ident() for _ in range(rng.randint(1, 3))]
    before = rng.choice(["", " "]) + name + gap() + ":"
    before += "".join(f"{gap()}{a}@{rng.choice(['1', '1/2', '0'])}," for a in alts)
    after = rng.choice(["", gap(), ", b@1"])
    kind = rng.choice(["weight", "missing @", "empty item"])
    if kind == "empty item":
        return before + rng.choice(["", gap()]) + after, "", len(before)
    bad = rng.choice([name] + alts)  # no identifier is a rational
    if kind == "weight":
        before += gap() + ident() + "@"
    before += gap()
    return before + bad + after, bad, len(before)


class TestColumns:
    """An input error is placed at the first character of its token,
    counted in the raw line, even when the token's text occurs earlier."""

    @pytest.mark.parametrize(
        "parse, line, column, expected",
        [
            (parse_lotteries, "a : a@1/2, b@a", 14, "exact rational"),
            (parse_lotteries, "ab : ab", 6, "'@' between"),
            (parse_lotteries, "f : a@1,,b@1", 9, "'<id>@<rational>'"),
            (parse_prefs, "a<< << b", 6, "operator"),
        ],
        ids=["weight", "missing-at", "empty-item", "stray-angle"],
    )
    def test_token_text_also_earlier(self, parse, line, column, expected):
        with pytest.raises(DslSyntaxError) as exc:
            parse(line)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert str(exc.value).startswith(f"line 1, column {column}: expected {expected}")

    @pytest.mark.parametrize("grammar", ["prefs", "lotteries", "model", "table"])
    def test_planted_token_placed(self, grammar):
        rng = random.Random(f"columns-{grammar}")
        parse = {"prefs": parse_prefs, "lotteries": parse_lotteries,
                 "model": parse_model, "table": parse_table}[grammar]
        # a model's lottery lines follow the lottery grammar
        head = "f : a@1\nf <= f\n" if grammar == "model" else ""
        for _ in range(300):
            line, token, index = planted_error(rng, grammar)
            with pytest.raises(DslSyntaxError) as exc:
                parse(head + line)
            assert exc.value.line == head.count("\n") + 1
            assert exc.value.column == index + 1, line
            assert line[exc.value.column - 1:].startswith(token)
            assert token in line[:index]


class TestRenderVerdict:
    def test_singleton(self):
        assert render_verdict(AdmissibleSet(frozenset({E}))) == "~"

    def test_pair(self):
        assert render_verdict(AdmissibleSet(frozenset({I, E}))) == "~ #"

    def test_full_set_canonical_order(self):
        assert render_verdict(AdmissibleSet(frozenset({G, I, E, L}))) == "~ < > #"

    def test_verbose_provenance_indented(self):
        v = AdmissibleSet(frozenset({L}), ("R3 shift witness",))
        assert render_verdict(v, verbose=True) == "<\n  R3 shift witness"


# "alt" is a keyword in the preference grammar
ids = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s != "alt"
)


@st.composite
def pref_documents(draw):
    n = draw(st.integers(0, 6))
    kinds = [FactKind.WEAK, FactKind.STRICT, FactKind.EQUIV]
    facts = tuple(
        PrefFact(draw(st.sampled_from(kinds)), draw(ids), draw(ids)) for _ in range(n)
    )
    universe = tuple(dict.fromkeys(draw(st.lists(ids, max_size=4))))
    return PrefDocument(facts, universe)


@st.composite
def lottery_documents(draw):
    names = draw(st.lists(ids, min_size=0, max_size=4, unique=True))
    entries = []
    for name in names:
        alts = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
        weights = [draw(st.fractions(min_value=F(1, 9), max_value=F(3))) for _ in alts]
        entries.append((name, tuple(zip(alts, weights))))
    return LotteryDocument(tuple(entries))


class TestRoundTrip:
    @given(pref_documents())
    @settings(max_examples=60, deadline=None)
    def test_prefs_round_trip(self, doc):
        assert parse_prefs(render_prefs(doc)) == doc

    @given(lottery_documents())
    @settings(max_examples=60, deadline=None)
    def test_lotteries_round_trip(self, doc):
        assert parse_lotteries(render_lotteries(doc)) == doc
