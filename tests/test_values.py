"""The contract of the immutable value classes.

Each class keeps its repr, its equality and hash, its immutability and
its constructor checks, whatever builds it.  Fields left out of equality
(a document's ``positions``, ``DerivedFacts.provenance``) or out of the
hash (``BaseRelation.up``) must not change it.
"""

import pickle
from fractions import Fraction as F

import pytest

from partialpref.casetable import AxiomViolation, FiniteModel
from partialpref.dsl import LotteryDocument, PrefDocument
from partialpref.engine import AdmissibleSet, Derivation, DerivedFacts, TransportPlan
from partialpref.errors import MalformedId
from partialpref.lottery import Lottery, make_lottery
from partialpref.relation import BaseRelation, FactKind, PrefFact, RelKind

A = frozenset({"a"})
ONE_THIRD = (("a", F(1, 3)), ("b", F(2, 3)))
LOT = "Lottery(entries=(('a', Fraction(1, 3)), ('b', Fraction(2, 3))))"
ACCEPT_B = frozenset({(Lottery.degenerate("b"), Lottery.degenerate("b"))})
PLAN = ((("a", "b"), F(1, 2)),)

# class: (instance, an equal instance built another way, an unequal
# instance, the instance's repr); each entry builds fresh objects
CASES = {
    "Lottery": lambda: (
        make_lottery(ONE_THIRD),
        Lottery(entries=ONE_THIRD),
        Lottery.degenerate("a"),
        LOT,
    ),
    "PrefFact": lambda: (
        PrefFact(FactKind.STRICT, "a", "b"),
        PrefFact(kind=FactKind.STRICT, left="a", right="b"),
        PrefFact(FactKind.WEAK, "a", "b"),
        "PrefFact(kind=<FactKind.STRICT: '<'>, left='a', right='b')",
    ),
    "BaseRelation": lambda: (
        BaseRelation(A, {"a": A}),
        BaseRelation(universe=A, up={}),  # closed to the same up-sets
        BaseRelation(frozenset("ab"), {"a": A}),
        "BaseRelation(universe=frozenset({'a'}), up={'a': frozenset({'a'})})",
    ),
    "AdmissibleSet": lambda: (
        AdmissibleSet(frozenset({RelKind.LESS}), ("R3",)),
        AdmissibleSet(members=frozenset({RelKind.LESS}), provenance=("R3",)),
        AdmissibleSet(frozenset({RelKind.LESS})),
        "AdmissibleSet(members=frozenset({<RelKind.LESS: '<'>}), provenance=('R3',))",
    ),
    "TransportPlan": lambda: (
        TransportPlan(PLAN),
        TransportPlan(moves=PLAN),
        TransportPlan(((("a", "b"), F(1, 3)),)),
        "TransportPlan(moves=((('a', 'b'), Fraction(1, 2)),))",
    ),
    "Derivation": lambda: (
        Derivation("A2", (1, 2, 3)),
        Derivation(rule="A2", premises=(1, 2, 3)),
        Derivation("A4", (1, 2, 3)),
        "Derivation(rule='A2', premises=(1, 2, 3))",
    ),
    "DerivedFacts": lambda: (
        DerivedFacts(ACCEPT_B, frozenset()),
        DerivedFacts(weak=ACCEPT_B, strict=frozenset(), provenance={"x": 1}),
        DerivedFacts(ACCEPT_B, ACCEPT_B),
        "DerivedFacts(weak=frozenset({(Lottery(entries=(('b', Fraction(1, 1)),)), "
        "Lottery(entries=(('b', Fraction(1, 1)),)))}), strict=frozenset(), provenance={})",
    ),
    "PrefDocument": lambda: (
        PrefDocument((PrefFact(FactKind.EQUIV, "a", "b"),), ("c",), ((1, 1),)),
        PrefDocument(facts=(PrefFact(FactKind.EQUIV, "a", "b"),), universe_decls=("c",)),
        PrefDocument((PrefFact(FactKind.EQUIV, "a", "b"),), ("d",), ((1, 1),)),
        "PrefDocument(facts=(PrefFact(kind=<FactKind.EQUIV: '~'>, left='a', right='b'),), "
        "universe_decls=('c',), positions=((1, 1),))",
    ),
    "LotteryDocument": lambda: (
        LotteryDocument((("f", ONE_THIRD),), ((1, 5),)),
        LotteryDocument(entries=(("f", ONE_THIRD),), positions=((2, 3),)),
        LotteryDocument((("g", ONE_THIRD),), ((1, 5),)),
        "LotteryDocument(entries=(('f', (('a', Fraction(1, 3)), ('b', Fraction(2, 3)))),), "
        "positions=((1, 5),))",
    ),
    "FiniteModel": lambda: (
        FiniteModel((make_lottery(ONE_THIRD),), frozenset()),
        FiniteModel(family=(Lottery(ONE_THIRD),), weak=frozenset()),
        FiniteModel((make_lottery(ONE_THIRD),), ACCEPT_B),
        f"FiniteModel(family=({LOT},), weak=frozenset())",
    ),
    "AxiomViolation": lambda: (
        AxiomViolation("A2", (make_lottery(ONE_THIRD), F(1, 2))),
        AxiomViolation(axiom="A2", witnesses=(Lottery(ONE_THIRD), F(1, 2))),
        AxiomViolation("A3", (make_lottery(ONE_THIRD), F(1, 2))),
        f"AxiomViolation(axiom='A2', witnesses=({LOT}, Fraction(1, 2)))",
    ),
}


@pytest.mark.parametrize("name", CASES)
class TestValueClass:
    def test_repr(self, name):
        value, _, _, text = CASES[name]()
        assert type(value).__name__ == name
        assert repr(value) == text

    def test_equality_and_hash(self, name):
        value, equal, unequal, _ = CASES[name]()
        # a lottery is interned: one object per distribution
        assert value is equal if name == "Lottery" else value is not equal
        assert value == equal and not value != equal
        assert hash(value) == hash(equal)
        assert len({value, equal}) == 1
        assert value != unequal and not value == unequal
        # equal objects hash equally, a tuple of the fields included
        if isinstance(value, tuple):
            assert value != tuple(value) or hash(value) == hash(tuple(value))
        # the fields left out of equality leave the hash alone too
        if name == "BaseRelation":
            ab = frozenset("ab")
            isolated, chain = BaseRelation(ab, {}), BaseRelation(ab, {"a": ab})
            assert isolated != chain and hash(isolated) == hash(chain)

    def test_immutable(self, name):
        value, _, _, _ = CASES[name]()
        before = repr(value)
        field = before.split("(", 1)[1].split("=", 1)[0]  # the first field the repr names
        for attribute in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attribute, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == before

    def test_pickles(self, name):
        value, _, _, text = CASES[name]()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and repr(copy) == text


def test_lottery_cache_cannot_be_assigned():
    lot = Lottery.degenerate("a")
    with pytest.raises(AttributeError):
        lot.integer_form = (1, {"b": 1})
    assert lot.integer_form == (1, {"a": 1})


def test_empty_admissible_set_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        AdmissibleSet(frozenset())
    with pytest.raises(ValueError):
        AdmissibleSet(members=frozenset(), provenance=("note",))


def test_malformed_fact_rejected_left_first():
    with pytest.raises(MalformedId) as exc:
        PrefFact(FactKind.WEAK, "a b", "c!")
    assert exc.value.ident == "a b"
    with pytest.raises(MalformedId) as exc:
        PrefFact(FactKind.WEAK, left="a", right="c!")
    assert exc.value.ident == "c!"


def test_derived_facts_get_their_own_provenance():
    first = DerivedFacts(frozenset(), frozenset())
    second = DerivedFacts(weak=frozenset(), strict=frozenset())
    first.provenance["x"] = 1
    assert second.provenance == {}
    assert first == second and hash(first) == hash(second)

