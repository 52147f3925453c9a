import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialpref.errors import MalformedId, StrictViolation, UnknownAlternative
from partialpref.lottery import Lottery
from partialpref.relation import (
    _KIND,
    BaseRelation,
    FactKind,
    PrefFact,
    RelKind,
    build_base_relation,
    check_id,
)

from conftest import all_relations, all_up_sets, alt_names, random_facts, random_relation


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

    def test_up_names_an_unknown_alternative(self):
        rel = build_base_relation([weak("a", "b")])
        with pytest.raises(UnknownAlternative) as info:
            rel.up["zz"]
        assert info.value.ident == "zz"


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


def oracle_closure(universe, facts):
    """Floyd-Warshall over pairs: the reflexive-transitive closure of facts."""
    alts = sorted(universe)
    le = {(a, a) for a in alts}
    for fact in facts:
        le.add((fact.left, fact.right))
        if fact.kind is FactKind.EQUIV:
            le.add((fact.right, fact.left))
    for k in alts:
        for i in alts:
            if (i, k) in le:
                le.update((i, j) for j in alts if (k, j) in le)
    return le


def assert_matches_oracle(rel, facts):
    closure = oracle_closure(rel.universe, facts)
    assert rel.count_pairs() == sum(len(above) for above in rel.up.values())
    assert rel.weak == closure
    assert sum(len(above) for above in rel.up.values()) == len(rel.weak)
    for a, b in itertools.product(sorted(rel.universe), repeat=2):
        kind = rel.classify(a, b)
        assert kind is _KIND[(a, b) in closure][(b, a) in closure], (a, b)
        if kind is RelKind.EQUIV:
            assert rel.up[a] is rel.up[b]


def mixed_facts(rng, n):
    """Facts of every kind: weak cycles, ~ chains, self-loops and stricts."""
    alts = alt_names(n)
    kinds = list(FactKind)
    facts = [
        PrefFact(rng.choice(kinds), rng.choice(alts), rng.choice(alts))
        for _ in range(rng.randrange(2 * n))
    ]
    cycle = rng.sample(alts, 3)
    facts += [weak(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    chain = rng.sample(alts, 3)
    facts += [equiv(a, b) for a, b in zip(chain, chain[1:])]
    rng.shuffle(facts)
    return facts


class TestClosureOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_relation(self, seed):
        facts = random_facts(random.Random(seed), 9)
        assert_matches_oracle(random_relation(random.Random(seed), 9), facts)

    def test_mixed_facts_and_strict_violations(self):
        violations = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randrange(3, 10)
            facts = mixed_facts(rng, n)
            isolated = {f"z{i}" for i in range(rng.randrange(3))}
            universe = {x for fact in facts for x in (fact.left, fact.right)} | isolated
            closure = oracle_closure(universe, facts)
            broken = [
                (f.left, f.right)
                for f in facts
                if f.kind is FactKind.STRICT and (f.right, f.left) in closure
            ]
            if broken:
                violations += 1
                with pytest.raises(StrictViolation) as exc:
                    build_base_relation(facts, extra_universe=isolated)
                assert (exc.value.left, exc.value.right) == broken[0], seed
            else:
                rel = build_base_relation(facts, extra_universe=isolated)
                assert rel.universe == universe
                assert_matches_oracle(rel, facts)
        assert 50 <= violations <= 250

    @pytest.mark.parametrize("order", ["reverse", "forward"])
    def test_long_strict_chain(self, order):
        alts = alt_names(1500)
        facts = [strict(a, b) for a, b in zip(alts, alts[1:])]
        if order == "reverse":
            facts.reverse()
        start = time.perf_counter()
        rel = build_base_relation(facts)
        elapsed = time.perf_counter() - start
        assert rel.classify(alts[0], alts[-1]) is RelKind.LESS
        assert rel.classify(alts[-1], alts[0]) is RelKind.GREATER
        assert len(rel.up[alts[0]]) == 1500
        assert elapsed < 2.0


class TestMaskedClosure:
    """A relation built from facts keeps one bitmask per alternative and
    builds ``up`` from them on first access; it is the same value as the
    relation made from its explicit up-sets."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_and_hashes_like_its_explicit_up(self, seed):
        rel = random_relation(random.Random(seed), 9)
        count = rel.count_pairs()
        assert "up" not in vars(rel)
        explicit = BaseRelation(rel.universe, dict(rel.up))
        assert rel == explicit and explicit == rel and not rel != explicit
        assert hash(rel) == hash(explicit) and len({rel, explicit}) == 1
        assert count == explicit.count_pairs() == len(rel.weak)
        assert rel.up is rel.up

    @pytest.mark.parametrize("touched", [False, True], ids=["masks", "masks-and-up"])
    def test_pickle_round_trip(self, touched):
        rel = build_base_relation(mixed_facts(random.Random(1), 9), extra_universe={"z"})
        if touched:
            rel.weak
        copy = pickle.loads(pickle.dumps(rel))
        assert copy == rel and hash(copy) == hash(rel)
        assert copy.count_pairs() == rel.count_pairs()
        for a, b in itertools.product(sorted(rel.universe), repeat=2):
            assert copy.classify(a, b) is rel.classify(a, b)
            if copy.classify(a, b) is RelKind.EQUIV:
                assert copy.up[a] is copy.up[b]

    def test_equivalent_alternatives_share_one_up_set(self):
        rel = build_base_relation([equiv("a", "b"), weak("b", "c"), weak("c", "a"), strict("c", "d")])
        assert rel.up["a"] is rel.up["b"] is rel.up["c"] == {"a", "b", "c", "d"}
        assert rel.up["d"] == {"d"}

    @pytest.mark.parametrize("up", all_up_sets(3))
    def test_explicit_up_sets_round_trip_through_the_masks(self, up):
        universe = frozenset(alt_names(3))
        rel = BaseRelation(universe, up)
        assert rel.up == up
        facts = [weak(a, b) for a, above in up.items() for b in above]
        assert rel.count_pairs() == len(rel.weak) == len(oracle_closure(universe, facts))
        for a, b in itertools.product(universe, repeat=2):
            if rel.classify(a, b) is RelKind.EQUIV:
                assert rel.up[a] is rel.up[b]
        assert rel == build_base_relation(facts, extra_universe=universe)

    def test_every_up_dict_closes_as_its_pairs(self):
        # each of the 512 up dicts on a, b, c, and each with the key c
        # left out, is the relation closed from its pairs as weak facts
        universe = frozenset("abc")
        subsets = [frozenset(c) for k in range(4) for c in itertools.combinations("abc", k)]
        for ups in itertools.product(subsets, repeat=3):
            full = dict(zip("abc", ups))
            for up in full, {a: above for a, above in full.items() if a != "c"}:
                rel = BaseRelation(universe, up)
                built = build_base_relation(
                    [weak(a, b) for a, above in up.items() for b in above], extra_universe=universe
                )
                assert rel == built and hash(rel) == hash(built) and rel.universe == universe
                assert rel.count_pairs() == built.count_pairs() == len(rel.weak)
                for a, b in itertools.product(universe, repeat=2):
                    assert rel.classify(a, b) is built.classify(a, b)

    def test_a_plain_set_universe_builds_the_same_value(self):
        up = {"a": frozenset("b")}
        rel, other = BaseRelation({"a", "b"}, up), BaseRelation(frozenset("ab"), up)
        assert type(rel.universe) is frozenset
        assert rel == other and hash(rel) == hash(other) and len({rel, other}) == 1

    def test_an_up_set_member_outside_the_universe_is_unknown(self):
        with pytest.raises(UnknownAlternative) as info:
            BaseRelation(frozenset("ab"), {"a": frozenset("a"), "b": frozenset("bz")})
        assert info.value.ident == "z"

    def test_an_up_set_key_outside_the_universe_is_unknown(self):
        with pytest.raises(UnknownAlternative) as info:
            BaseRelation(frozenset("a"), {"b": frozenset("b")})
        assert info.value.ident == "b"


class TestRestrict:
    def test_induced_preorder_on_the_known_alternatives(self):
        rel = build_base_relation([strict("a", "b"), equiv("b", "c"), weak("c", "d")], {"e"})
        small = rel.restrict(["d", "b", "zz", "a", "b", "c"])
        assert small == BaseRelation(frozenset("abcd"), {
            "a": frozenset("abcd"), "b": frozenset("bcd"), "c": frozenset("bcd"), "d": frozenset("d"),
        })
        assert small.up["b"] is small.up["c"]
        assert "up" not in vars(rel)
        with pytest.raises(UnknownAlternative):
            small.classify("a", "e")
        assert rel.restrict([]) == BaseRelation(frozenset(), {})

    @pytest.mark.parametrize("seed", range(30))
    def test_classifies_every_chosen_pair_as_the_whole(self, seed):
        rng = random.Random(seed)
        rel = random_relation(rng, 9) if seed % 3 else rng.choice(all_relations(3))
        alts = sorted(rel.universe)
        chosen = rng.sample(alts, rng.randint(0, len(alts))) + ["unknown"]
        small = rel.restrict(chosen)
        assert small.universe == set(chosen) - {"unknown"}
        # built from facts or from its up-sets: one restriction
        assert BaseRelation(rel.universe, dict(rel.up)).restrict(chosen) == small
        assert small.count_pairs() == len(small.weak)
        for a, b in itertools.product(small.universe, repeat=2):
            assert small.classify(a, b) is rel.classify(a, b)
            if small.classify(a, b) is RelKind.EQUIV:
                assert small.up[a] is small.up[b]

    @pytest.mark.parametrize("seed", range(10))
    def test_universe_is_the_alternatives_with_a_mask(self, seed):
        # a relation built from facts, and each restriction of it, has one
        # mask per alternative of its universe and no other
        facts = random_facts(random.Random(seed), 6)
        for rel in (build_base_relation(facts), build_base_relation(facts, {"lone"})):
            alts = sorted(rel.universe)
            assert rel.universe == frozenset(rel._masks)
            for k in range(len(alts) + 1):
                for chosen in itertools.combinations(alts + ["unknown"], k):
                    small = rel.restrict(chosen)
                    assert small.universe == frozenset(small._masks)

    @pytest.mark.parametrize("up", all_up_sets(3))
    def test_explicit_up_sets_restrict_as_the_facts(self, up):
        universe = frozenset(alt_names(3))
        rel = BaseRelation(universe, up)
        built = build_base_relation(
            [weak(a, b) for a, above in up.items() for b in above], extra_universe=universe
        )
        for k in range(4):
            for chosen in itertools.permutations(sorted(universe) + ["unknown"], k):
                small = rel.restrict(chosen)
                assert small == built.restrict(chosen)
                assert small.count_pairs() == len(small.weak)
