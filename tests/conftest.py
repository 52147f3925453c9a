"""Shared generators for randomized and exhaustive test instances."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from partialpref.lottery import Lottery, make_lottery
from partialpref.relation import BaseRelation, FactKind, PrefFact, RelKind, build_base_relation


def alt_names(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def random_facts(rng: random.Random, n: int) -> list[PrefFact]:
    """Random weak and equivalence facts on n alternatives."""
    facts = []
    for a, b in itertools.permutations(alt_names(n), 2):
        r = rng.random()
        if r < 0.18:
            facts.append(PrefFact(FactKind.WEAK, a, b))
        elif r < 0.22:
            facts.append(PrefFact(FactKind.EQUIV, a, b))
    return facts


def random_relation(rng: random.Random, n: int) -> BaseRelation:
    """A random partial preorder on n alternatives (weak facts only)."""
    return build_base_relation(random_facts(rng, n), extra_universe=set(alt_names(n)))


def mixed_relation(rng: random.Random, most: int = 6) -> BaseRelation:
    """A random partial preorder, or the Pareto preorder of one or two
    integer utilities, on 2 to ``most`` alternatives."""
    n = rng.randint(2, most)
    utilities = rng.randrange(3)
    if not utilities:
        return random_relation(rng, n)
    alts = alt_names(n)
    us = [{a: rng.randrange(n) for a in alts} for _ in range(utilities)]
    facts = [
        PrefFact(FactKind.WEAK, a, b)
        for a, b in itertools.permutations(alts, 2)
        if all(u[a] <= u[b] for u in us)
    ]
    return build_base_relation(facts, extra_universe=set(alts))


def all_relations(n: int) -> list[BaseRelation]:
    """Every preorder on n alternatives, built from its up-sets."""
    return [BaseRelation(universe=frozenset(alt_names(n)), up=up) for up in all_up_sets(n)]


def all_up_sets(n: int) -> list[dict[str, frozenset[str]]]:
    """The up-sets of every preorder on n alternatives, by brute-force
    transitivity filter."""
    alts = alt_names(n)
    free = [(a, b) for a, b in itertools.permutations(alts, 2)]
    out = []
    for bits in range(1 << len(free)):
        weak = {(a, a) for a in alts}
        for i, pair in enumerate(free):
            if bits >> i & 1:
                weak.add(pair)
        if any(
            (a, c) not in weak for (a, b) in weak for (b2, c) in weak if b == b2
        ):
            continue
        out.append({a: frozenset(b for x, b in weak if x == a) for a in alts})
    return out


def judgments_left(facts, f, g) -> set[RelKind]:
    """The judgments between f and g that saturated ``facts`` leave possible."""
    E, L, G, I = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP
    left = {E, L, G, I}
    if (f, g) in facts.weak:
        left -= {G, I}
    if (g, f) in facts.weak:
        left -= {L, I}
    if (f, g) in facts.strict:
        left -= {E, G, I}
    if (g, f) in facts.strict:
        left -= {E, L, I}
    return left


def grid_lotteries(alts: list[str], denom: int) -> list[Lottery]:
    """All lotteries over alts whose weights are multiples of 1/denom."""
    n = len(alts)
    out = []
    for split in itertools.combinations(range(denom + n - 1), n - 1):
        parts = []
        prev = -1
        for s in split:
            parts.append(s - prev - 1)
            prev = s
        parts.append(denom + n - 2 - prev)
        pairs = [(a, Fraction(k, denom)) for a, k in zip(alts, parts) if k > 0]
        out.append(make_lottery(pairs))
    return out


def random_grid_lottery(rng: random.Random, alts: list[str], denom: int) -> Lottery:
    """A random lottery with weights in multiples of 1/denom."""
    cuts = sorted(rng.randrange(denom + 1) for _ in range(len(alts) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    pairs = [(a, Fraction(k, denom)) for a, k in zip(alts, parts) if k > 0]
    if not pairs:  # pragma: no cover - parts always sum to denom > 0
        pairs = [(alts[0], Fraction(1))]
    return make_lottery(pairs)


def eu_utility(rng: random.Random, alts: list[str]) -> dict[str, int]:
    return {a: rng.randrange(-20, 21) for a in alts}


def lottery_utility(lot: Lottery, utility: dict[str, int]) -> Fraction:
    return sum((w * utility[a] for a, w in lot.entries), Fraction(0))


@pytest.fixture
def rng():
    return random.Random(20260823)
