"""Metamorphic properties of the engine over random closed relations,
and relations closed from random up dicts.

Each test changes an input in a way that must not change the answer:
swapping the two lotteries mirrors the verdict, renaming the alternatives
leaves every verdict and the kept offers alone, permuting the offers
keeps the same offers in input order, and ``--normalize`` reads weights
scaled by a positive integer as the weights themselves.
"""

import io
import random

import pytest

from partialpref.cli import run
from partialpref.engine import compare, dominates, maximal_filter, shift_reachable
from partialpref.lottery import make_lottery
from partialpref.relation import BaseRelation, FactKind, PrefFact, build_base_relation

from conftest import alt_names, mixed_relation, random_grid_lottery


def lotteries(rng, rel, count):
    alts = sorted(rel.universe)
    return [random_grid_lottery(rng, rng.sample(alts, rng.randint(1, min(4, len(alts)))), 12)
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(5))
def test_swapping_the_lotteries_mirrors_the_verdict(seed):
    rng = random.Random(f"mirror-{seed}")
    for _ in range(40):
        rel = mixed_relation(rng)
        # the same preorder built from its up-sets and as a restriction
        for built in rel, BaseRelation(rel.universe, dict(rel.up)), rel.restrict(rel.universe):
            lots = lotteries(rng, rel, 5)
            for f in lots:
                for g in lots:
                    members = compare(built, f, g).members
                    assert compare(built, g, f).members == {k.mirror() for k in members}
                    assert members == compare(rel, f, g).members
        # the closure of a random up dict, neither reflexive nor transitive
        alts = alt_names(rng.randint(2, 6))
        unclosed = BaseRelation(frozenset(alts), {
            a: frozenset(b for b in alts if b != a and rng.random() < 0.3) for a in alts
        })
        lots = lotteries(rng, unclosed, 5)
        for f in lots:
            for g in lots:
                members = compare(unclosed, f, g).members
                assert compare(unclosed, g, f).members == {k.mirror() for k in members}


def renamed(rng, rel):
    """``rel`` under a random renaming of its alternatives that reverses
    their name order, as a new relation built from its facts, and the
    renaming."""
    alts = sorted(rel.universe)
    new = [f"r{k:02d}" for k in rng.sample(range(100), len(alts))]
    names = dict(zip(alts, sorted(new, reverse=True)))
    facts = [PrefFact(FactKind.WEAK, names[a], names[b]) for a, b in sorted(rel.weak) if a != b]
    return build_base_relation(facts, extra_universe=set(names.values())), names


@pytest.mark.parametrize("seed", range(5))
def test_renaming_the_alternatives_changes_no_verdict(seed):
    rng = random.Random(f"rename-{seed}")
    for _ in range(30):
        rel = mixed_relation(rng)
        other, names = renamed(rng, rel)
        lots = lotteries(rng, rel, 6)
        moved = {lot: make_lottery([(names[a], w) for a, w in lot.entries]) for lot in lots}
        for f in lots:
            for g in lots:
                x, y = moved[f], moved[g]
                assert compare(other, x, y).members == compare(rel, f, g).members
                assert dominates(other, x, y) == dominates(rel, f, g)
                assert (shift_reachable(other, x, y) is None) == (shift_reachable(rel, f, g) is None)
        offers = [(f"o{i}", lot) for i, lot in enumerate(lots)]
        kept = [name for name, _ in maximal_filter(rel, offers)]
        assert [name for name, _ in maximal_filter(other, [(n, moved[lot]) for n, lot in offers])] == kept


@pytest.mark.parametrize("seed", range(5))
def test_permuting_the_offers_keeps_the_same_offers_in_input_order(seed):
    rng = random.Random(f"permute-{seed}")
    dropped = 0
    for _ in range(30):
        rel = mixed_relation(rng)
        offers = [(f"o{i}", lot) for i, lot in enumerate(lotteries(rng, rel, 8))]
        kept = {name for name, _ in maximal_filter(rel, offers)}
        dropped += len(offers) - len(kept)
        for _ in range(3):
            shuffled = rng.sample(offers, len(offers))
            assert maximal_filter(rel, shuffled) == [o for o in shuffled if o[0] in kept]
    assert dropped >= 30, dropped


@pytest.mark.parametrize("seed", range(3))
def test_normalize_reads_scaled_weights_as_the_weights(seed, tmp_path):
    rng = random.Random(f"normalize-{seed}")
    dropped = 0
    for trial in range(10):
        rel = mixed_relation(rng)
        prefs = tmp_path / f"{trial}.prefs"
        prefs.write_text("".join(f"{a} <= {b}\n" for a, b in sorted(rel.weak) if a != b)
                         + "".join(f"alt {a}\n" for a in sorted(rel.universe)))
        lots = lotteries(rng, rel, 8)
        outputs = set()
        for scale in (None, 1, 3, "each"):
            lines = []
            for i, lot in enumerate(lots):
                k = rng.randint(1, 9) if scale == "each" else scale
                items = (f"{a}@{w}" if k is None else f"{a}@{w.numerator * 12 // w.denominator * k}"
                         for a, w in lot.entries)
                lines.append(f"o{i} : " + ", ".join(items) + "\n")
            path = tmp_path / f"{trial}-{scale}.lots"
            path.write_text("".join(lines))
            out, err = io.StringIO(), io.StringIO()
            assert run(["--normalize", "filter", str(prefs), str(path)], out=out, err=err) == 0
            outputs.add(out.getvalue())
        assert len(outputs) == 1
        dropped += len(lots) - len(outputs.pop().splitlines())
    assert dropped >= 10, dropped
