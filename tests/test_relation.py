import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialpref.errors import MalformedId, StrictViolation, UnknownAlternative
from partialpref.lottery import Lottery
from partialpref.relation import (
    BaseRelation,
    FactKind,
    PrefFact,
    RelKind,
    build_base_relation,
    check_id,
)

from conftest import random_relation


def strict(a, b):
    return PrefFact(FactKind.STRICT, a, b)


def weak(a, b):
    return PrefFact(FactKind.WEAK, a, b)


def equiv(a, b):
    return PrefFact(FactKind.EQUIV, a, b)


class TestBuild:
    def test_transitive_closure_of_strict_chain(self):
        rel = build_base_relation([strict("a", "b"), strict("b", "c")])
        assert ("a", "c") in rel.weak
        assert rel.classify("a", "c") is RelKind.LESS

    def test_empty_relation_is_reflexive_only(self):
        rel = build_base_relation([], extra_universe={"a", "b"})
        assert rel.weak == {("a", "a"), ("b", "b")}
        assert rel.classify("a", "b") is RelKind.INCOMP

    def test_strict_violation_detected_post_closure(self):
        with pytest.raises(StrictViolation) as exc:
            build_base_relation([strict("a", "b"), weak("b", "a")])
        assert (exc.value.left, exc.value.right) == ("a", "b")

    def test_strict_violation_via_equiv_chain(self):
        with pytest.raises(StrictViolation):
            build_base_relation([strict("a", "b"), equiv("b", "c"), weak("c", "a")])

    def test_equiv_declares_both_directions(self):
        rel = build_base_relation([equiv("a", "b")])
        assert rel.classify("a", "b") is RelKind.EQUIV

    def test_malformed_ids_rejected(self):
        with pytest.raises(MalformedId):
            build_base_relation([weak("a b", "c")])
        with pytest.raises(MalformedId):
            build_base_relation([], extra_universe={""})
        assert check_id("über_x-1") == "über_x-1"

    def test_trailing_newline_rejected(self):
        with pytest.raises(MalformedId):
            check_id("a\n")
        with pytest.raises(MalformedId):
            Lottery.degenerate("b\n")
        with pytest.raises(MalformedId):
            PrefFact(FactKind.WEAK, "a\n", "b")


class TestClassify:
    def test_reflexive_pair_is_equiv(self):
        rel = build_base_relation([], extra_universe={"a"})
        assert rel.classify("a", "a") is RelKind.EQUIV

    def test_strict_gives_less_and_greater(self):
        rel = build_base_relation([strict("a", "b")])
        assert rel.classify("a", "b") is RelKind.LESS
        assert rel.classify("b", "a") is RelKind.GREATER

    def test_unknown_alternative(self):
        rel = build_base_relation([weak("a", "b")])
        with pytest.raises(UnknownAlternative):
            rel.classify("a", "z")


class TestProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_preorders(self, seed):
        import random

        rel = random_relation(random.Random(seed), 8)
        alts = sorted(rel.universe)
        for a, b in itertools.product(alts, repeat=2):
            assert rel.classify(b, a) is rel.classify(a, b).mirror()
        # closure idempotence: rebuilding from the closed pairs is identical
        rebuilt = build_base_relation(
            [weak(a, b) for a, b in rel.weak], extra_universe=rel.universe
        )
        assert rebuilt == rel
        # strict part is transitive
        for a, b, c in itertools.product(alts, repeat=3):
            if (
                rel.classify(a, b) is RelKind.LESS
                and rel.classify(b, c) is RelKind.LESS
            ):
                assert rel.classify(a, c) is RelKind.LESS

    @given(st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_reflexivity_always_holds(self, universe):
        rel = build_base_relation([], extra_universe=universe)
        for a in universe:
            assert rel.holds(a, a)
