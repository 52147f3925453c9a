import hashlib
import itertools
import random
from fractions import Fraction as F
from importlib import resources

import pytest

from partialpref.casetable import (
    AxiomViolation,
    CaseTuple,
    FiniteModel,
    admissible_outcomes,
    bundled_table_text,
    check_axioms,
    consistent_tuples,
    parse_table,
    regenerate_table,
    render_table,
    verify_table,
)
from partialpref.errors import DslSyntaxError, ForeignLottery, InconsistentTuple, TableMismatch
from partialpref.engine import compare, saturate
from partialpref.lottery import Lottery, convex_combine, make_lottery
from partialpref.relation import KIND_INDEX, RelKind

from conftest import (
    all_relations,
    alt_names,
    eu_utility,
    judgments_left,
    lottery_utility,
    random_grid_lottery,
)

E, L, G, I = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP


def case(*kinds):
    return CaseTuple(*kinds)


class TestConsistentTuples:
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_reference_counts_preorders(self, n, count):
        assert len(all_relations(n)) == count  # OEIS A000798

    def test_equals_reference_enumeration(self):
        # the 4,096 reflexive relations on f1, f2, g1, g2 filtered for transitivity
        f1, f2, g1, g2 = alt_names(4)
        found = {
            case(*(rel.classify(f, g) for f, g in ((f1, g1), (f1, g2), (f2, g1), (f2, g2))))
            for rel in all_relations(4)
        }
        assert consistent_tuples() == tuple(sorted(found, key=lambda t: [KIND_INDEX[k] for k in t]))

    def test_all_equiv_present(self):
        assert case(E, E, E, E) in consistent_tuples()

    def test_contradictory_tuple_absent(self):
        # f2 < g1 ~ f1 forces f2 < f1 while f1 < g2 ~ f2 forces f1 < f2
        assert case(E, L, L, E) not in consistent_tuples()

    def test_closed_under_mirror(self):
        ts = set(consistent_tuples())
        assert all(t.mirror() in ts for t in ts)

    def test_cardinality_matches_transcription(self):
        rows = parse_table(bundled_table_text())
        assert len(consistent_tuples()) == len(rows) == 166

    def test_canonical_order(self):
        from partialpref.relation import KIND_INDEX

        ts = consistent_tuples()
        keys = [tuple(KIND_INDEX[k] for k in t) for t in ts]
        assert keys == sorted(keys)


class TestAdmissibleOutcomes:
    def test_all_equiv(self):
        assert admissible_outcomes(case(E, E, E, E)).members == {E}

    def test_strict_with_equiv_forces_less(self):
        assert admissible_outcomes(case(L, I, I, E)).members == {L}

    def test_opposing_stricts_admit_incomparable(self):
        assert admissible_outcomes(case(L, G, L, G)).members == {E, L, G, I}

    def test_all_incomparable_never_forced(self):
        assert admissible_outcomes(case(I, I, I, I)).members == {E, I}

    def test_inconsistent_tuple_rejected(self):
        with pytest.raises(InconsistentTuple):
            admissible_outcomes(case(E, L, L, E))

    def test_rejects_exactly_the_unrealizable_tuples(self):
        f1, f2, g1, g2 = alt_names(4)
        realized = {
            case(*(rel.classify(f, g) for f, g in ((f1, g1), (f1, g2), (f2, g1), (f2, g2))))
            for rel in all_relations(4)
        }
        rejected = set()
        for kinds in itertools.product(RelKind, repeat=4):
            try:
                admissible_outcomes(case(*kinds))
            except InconsistentTuple:
                rejected.add(case(*kinds))
        assert len(rejected) == 90 and len(realized) == 166
        assert rejected == {case(*kinds) for kinds in itertools.product(RelKind, repeat=4)} - realized

    def test_mirror_coherence(self):
        for t in consistent_tuples():
            mirrored = admissible_outcomes(t.mirror()).members
            assert mirrored == {k.mirror() for k in admissible_outcomes(t).members}

    def test_never_empty(self):
        assert all(admissible_outcomes(t).members for t in consistent_tuples())

    def test_no_strict_draw_restricts_to_equiv_or_incomp(self):
        for t in consistent_tuples():
            if L not in t and G not in t:
                assert admissible_outcomes(t).members <= {E, I}


class TestTableRegeneration:
    def test_first_row(self):
        rows = regenerate_table()
        t, outcome = rows[0]
        assert t == case(E, E, E, E)
        assert outcome.members == {E}

    def test_quoted_rows(self):
        table = dict(regenerate_table())
        assert table[case(E, E, I, I)].members == {E, I}
        assert table[case(E, L, G, I)].members == {E, L, G, I}

    def test_matches_bundled_transcription(self):
        verify_table()  # raises TableMismatch on any diff

    def test_render_equals_bundled_text(self):
        assert render_table(regenerate_table()) == bundled_table_text()

    @staticmethod
    def engine_rows(alpha):
        """Each row's judgments of hf = alpha*f1 + (1-alpha)*f2 against
        hg = alpha*g1 + (1-alpha)*g2 that both ``saturate``'s facts and
        ``compare`` leave, united over the preorders on f1, f2, g1 and g2
        that project to the row."""
        f1, f2, g1, g2 = alt_names(4)
        draws = [Lottery.degenerate(a) for a in (f1, f2, g1, g2)]
        hf, hg = convex_combine(alpha, *draws[:2]), convex_combine(alpha, *draws[2:])
        rows = {}
        for rel in all_relations(4):
            t = case(*(rel.classify(f, g) for f, g in ((f1, g1), (f1, g2), (f2, g1), (f2, g2))))
            left = judgments_left(saturate(rel, [*draws, hf, hg]), hf, hg)
            rows.setdefault(t, set()).update(left & compare(rel, hf, hg).members)
        return rows

    def test_table_is_a_consequence_of_the_engine(self):
        # the table's generic coefficient is the union over alpha in
        # {1/3, 2/3}; alpha = 1/3 alone is narrower on four rows, alpha = 1/2
        # alone on 33, and neither is wider on any.  On a failure, find
        # whether the engine or the table is wrong before changing either.
        table = {t: outcome.members for t, outcome in regenerate_table()}
        third, two_thirds, half = (self.engine_rows(F(k, 6)) for k in (2, 4, 3))
        assert {t: third[t] | two_thirds[t] for t in table} == table
        assert third.keys() == half.keys() == table.keys()
        assert all(third[t] <= table[t] and half[t] <= table[t] for t in table)
        narrower = {t.symbols() for t in table if third[t] != table[t]}
        assert narrower == {"<>>>", "><<<", "#<<<", "#>>>"}
        assert sum(half[t] != table[t] for t in table) == 33

    def test_mismatch_reported_per_tuple(self):
        text = bundled_table_text().splitlines()
        text[0] = "~~~~ -> ~ #"
        text[5] = text[5].split(" -> ")[0] + " -> >"
        with pytest.raises(TableMismatch) as exc:
            verify_table("\n".join(text))
        assert len(exc.value.diffs) == 2

    def test_transcription_checksum(self):
        recorded = (
            resources.files("partialpref")
            .joinpath("data/case_table.sha256")
            .read_text("utf-8")
            .split()[0]
        )
        actual = hashlib.sha256(bundled_table_text().encode("utf-8")).hexdigest()
        assert actual == recorded

    def test_round_trip_parse_render(self):
        rows = parse_table(bundled_table_text())

        class Outcome:
            def __init__(self, members):
                self.members = members

            def sorted_members(self):
                from partialpref.relation import KIND_INDEX

                return sorted(self.members, key=KIND_INDEX.__getitem__)

        rendered = render_table([(t, Outcome(s)) for t, s in rows])
        assert rendered == bundled_table_text()


class TestParseTableErrors:
    """Each malformed row is placed by its line and its column in the raw
    line; comment and blank lines count."""

    @pytest.mark.parametrize(
        "row, column, expected",
        [
            ("~~~~ ~", 1, "'<tuple> -> <set>'"),
            ("~~x~ -> ~", 1, "four symbols from {~,<,>,#}"),
            ("  ~~x~ -> ~", 3, "four symbols from {~,<,>,#}"),
            ("~~~~ -> ~ ?", 11, "symbol from {~,<,>,#}"),
            ("<<<< -> < <<", 11, "symbol from {~,<,>,#}"),
            ("  ~~~~ -> ~ x", 13, "symbol from {~,<,>,#}"),
            ("~~~~ ->  ", 7, "nonempty outcome set"),
            ("\t~~~~ ->", 8, "nonempty outcome set"),
            ("~~~~ -> < >", 1, "one row per left side: '~~~~' is also on line 3"),
            ("  ~~~~ -> ~", 3, "one row per left side: '~~~~' is also on line 3"),
        ],
        ids=["missing-arrow", "bad-left", "bad-left-indented", "bad-symbol",
             "symbol-text-earlier", "bad-symbol-indented", "empty-outcome", "empty-outcome-indented",
             "repeated-left", "repeated-left-indented"],
    )
    def test_error_placed(self, row, column, expected):
        with pytest.raises(DslSyntaxError) as exc:
            parse_table(f"#! header\n\n~~~~ -> ~\n{row}\n~~~< -> <")
        assert str(exc.value) == f"line 4, column {column}: expected {expected}"
        assert (exc.value.line, exc.value.column) == (4, column)


def reflexive_model(family):
    return FiniteModel(
        family=tuple(family), weak=frozenset((h, h) for h in family)
    )


def eu_model(family, utility):
    fam = tuple(family)
    weak = frozenset(
        (f, g)
        for f in fam
        for g in fam
        if lottery_utility(f, utility) <= lottery_utility(g, utility)
    )
    return FiniteModel(family=fam, weak=weak)


class TestCheckAxioms:
    def test_empty_relation_passes(self):
        fa, fb = Lottery.degenerate("a"), Lottery.degenerate("b")
        m = convex_combine(F(1, 2), fa, fb)
        assert check_axioms(reflexive_model([fa, fb, m])) == []

    def test_expected_utility_passes(self, rng):
        alts = ["a", "b", "c"]
        utility = {"a": 0, "b": 3, "c": 7}
        family = [random_grid_lottery(rng, alts, 6) for _ in range(8)]
        family = list(dict.fromkeys(family))
        assert check_axioms(eu_model(family, utility)) == []

    def test_missing_reflexive_pair_flagged(self):
        fa, fb = Lottery.degenerate("a"), Lottery.degenerate("b")
        model = FiniteModel(family=(fa, fb), weak=frozenset({(fa, fa)}))
        assert any(v.axiom == "A1'" for v in check_axioms(model))

    def test_broken_transitivity_flagged(self):
        f, g, h = (Lottery.degenerate(x) for x in "abc")
        weak = {(x, x) for x in (f, g, h)} | {(f, g), (g, h)}
        violations = check_axioms(FiniteModel(family=(f, g, h), weak=frozenset(weak)))
        assert AxiomViolation("A2", (f, g, h)) in violations

    def test_mixture_monotonicity_flagged(self):
        # [a] < [b] but the midpoint placed above [b] breaks strict mixing
        fa, fb = Lottery.degenerate("a"), Lottery.degenerate("b")
        m = convex_combine(F(1, 2), fa, fb)
        weak = {(x, x) for x in (fa, fb, m)} | {(fa, fb), (fa, m), (fb, m)}
        violations = check_axioms(FiniteModel(family=(fa, fb, m), weak=frozenset(weak)))
        assert any(v.axiom == "A3" for v in violations)

    def test_incomparability_persistence_flagged(self):
        # a # b yet their mixtures strictly ordered: no draw supports it
        fa, fb = Lottery.degenerate("a"), Lottery.degenerate("b")
        m1 = convex_combine(F(1, 4), fa, fb)
        m2 = convex_combine(F(3, 4), fa, fb)
        fam = (fa, fb, m1, m2)
        weak = {(x, x) for x in fam} | {(m1, m2)}
        violations = check_axioms(FiniteModel(family=fam, weak=frozenset(weak)))
        assert any(v.axiom == "A6" for v in violations)

    def test_foreign_lottery_rejected(self):
        fa, fb = Lottery.degenerate("a"), Lottery.degenerate("b")
        model = FiniteModel(family=(fa,), weak=frozenset({(fa, fa), (fa, fb)}))
        with pytest.raises(ForeignLottery):
            check_axioms(model)

    def test_family_order_does_not_change_violations(self):
        # a witness mapped back to the wrong lottery changes the multiset
        rng = random.Random(31)
        for _ in range(50):
            alts = ["a", "b", "c", "d"][: rng.randint(2, 4)]
            utility = eu_utility(rng, alts)
            base = [random_grid_lottery(rng, alts, 4) for _ in range(4)]
            mids = [convex_combine(F(1, 2), x, y) for x, y in zip(base, base[1:])]
            model = eu_model(list(dict.fromkeys(base + mids)), utility)
            pair = (rng.choice(model.family), rng.choice(model.family))
            mutated = FiniteModel(family=model.family, weak=model.weak ^ {pair})
            for m in (model, mutated):
                shuffled = list(m.family)
                rng.shuffle(shuffled)
                relabelled = FiniteModel(family=tuple(shuffled), weak=m.weak)
                assert sorted(map(str, check_axioms(relabelled))) == sorted(
                    map(str, check_axioms(m))
                )

    def test_single_mutation_detected(self, rng):
        alts = ["a", "b", "c"]
        utility = eu_utility(rng, alts)
        base = [random_grid_lottery(rng, alts, 4) for _ in range(4)]
        # distinct utilities plus midpoints of adjacent members (see ledger)
        by_u = {}
        for lot in base:
            by_u.setdefault(lottery_utility(lot, utility), lot)
        members = [by_u[u] for u in sorted(by_u)]
        mids = [
            convex_combine(F(1, 2), x, y) for x, y in zip(members, members[1:])
        ]
        family = list(dict.fromkeys(members + mids))
        model = eu_model(family, utility)
        assert check_axioms(model) == []
        for pair in itertools.product(model.family, repeat=2):
            mutated = FiniteModel(
                family=model.family, weak=model.weak ^ {pair}
            )
            assert check_axioms(mutated), f"undetected mutation of {pair}"
