"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Everything is exact rational arithmetic; there is no statistical
tolerance anywhere.
"""

import io
import itertools
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from partialpref.casetable import (
    FiniteModel,
    admissible_outcomes,
    bundled_table_text,
    check_axioms,
    consistent_tuples,
    parse_table,
    verify_table,
)
from partialpref.cli import run
from partialpref.engine import compare, cross_profile, dominates, shift_reachable
from partialpref.lottery import Lottery, convex_combine, decompose, make_lottery
from partialpref.relation import BaseRelation, RelKind

from conftest import (
    all_relations,
    alt_names,
    grid_lotteries,
    lottery_utility,
    random_grid_lottery,
    random_relation,
)

E, L, G, I = RelKind.EQUIV, RelKind.LESS, RelKind.GREATER, RelKind.INCOMP

DATA = Path(__file__).parent / "data"


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_table_reproduction():
    start = time.monotonic()
    verify_table()  # zero diffs against the reviewed transcription
    rows = parse_table(bundled_table_text())
    assert len(consistent_tuples()) == len(rows)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"table verified, {len(rows)} rows, {elapsed:.2f}s")


def test_criterion_2_spot_checks():
    def members(*kinds):
        return admissible_outcomes(kinds).members

    assert members(E, E, E, E) == {E}
    assert members(L, I, I, E) == {L}
    assert I in members(L, G, L, G)
    assert members(I, I, I, I) == {E, I}
    report(2, "four quoted case-table entries reproduced")


def test_criterion_3_theorem_suites():
    start = time.monotonic()
    rng = random.Random(1729)
    cases = 0
    while cases < 500:
        rel = random_relation(rng, rng.randint(2, 6))
        alts = sorted(rel.universe)
        f = random_grid_lottery(rng, alts, 12)
        g = random_grid_lottery(rng, alts, 12)
        cases += 1
        verdict = compare(rel, f, g).members
        if shift_reachable(rel, f, g) is not None:
            assert verdict == {L}
        if dominates(rel, f, g):
            assert G not in verdict and I not in verdict
            if dominates(rel, g, f):
                assert verdict == {E}
        if set(cross_profile(rel, f, g).values()) <= {E, I}:
            assert verdict <= {E, I}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(3, f"{cases} randomized theorem checks, {elapsed:.2f}s")


def bfs_shift_reachable(rel, f, g, denom):
    """Independent oracle: BFS over single shifts quantized to 1/denom."""
    alts = sorted(rel.universe)
    strict_pairs = [
        (i, j)
        for i, a in enumerate(alts)
        for j, b in enumerate(alts)
        if rel.classify(a, b) is RelKind.LESS
    ]
    start = tuple(f.weight(a) for a in alts)
    target = tuple(g.weight(a) for a in alts)
    if start == target:
        return False
    seen = {start}
    frontier = [start]
    step = F(1, denom)
    while frontier:
        state = frontier.pop()
        for i, j in strict_pairs:
            avail = state[i]
            k = 1
            while k * step <= avail:
                eps = k * step
                nxt = list(state)
                nxt[i] -= eps
                nxt[j] += eps
                nxt = tuple(nxt)
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
                k += 1
    return False


def test_criterion_4_transport_oracle_equivalence():
    start = time.monotonic()
    alts = alt_names(3)
    lots = grid_lotteries(alts, 4)
    checked = 0
    for rel in all_relations(3):
        for f, g in itertools.product(lots, repeat=2):
            flow = shift_reachable(rel, f, g) is not None
            bfs = bfs_shift_reachable(rel, f, g, 4)
            assert flow == bfs, (sorted(rel.weak), str(f), str(g))
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"{checked} transport/BFS agreements over {len(all_relations(3))} preorders, {elapsed:.2f}s")


def eu_family(rng, n_alts, n_base, denom):
    """Expected-utility family: distinct utilities plus adjacent midpoints."""
    alts = alt_names(n_alts)
    utility = {a: rng.randrange(-20, 21) for a in alts}
    by_u = {}
    for _ in range(n_base):
        lot = random_grid_lottery(rng, alts, denom)
        by_u.setdefault(lottery_utility(lot, utility), lot)
    members = [by_u[u] for u in sorted(by_u)]
    mids = [convex_combine(F(1, 2), x, y) for x, y in zip(members, members[1:])]
    family = list(dict.fromkeys(members + mids))[:12]
    return family, utility


def eu_model(family, utility):
    fam = tuple(family)
    weak = frozenset(
        (f, g)
        for f in fam
        for g in fam
        if lottery_utility(f, utility) <= lottery_utility(g, utility)
    )
    return FiniteModel(family=fam, weak=weak)


def test_criterion_5_weakening_claim():
    rng = random.Random(5)
    families = []
    for _ in range(100):
        family, utility = eu_family(rng, n_alts=rng.randint(2, 4), n_base=6, denom=6)
        families.append((family, utility))
        model = eu_model(family, utility)
        assert check_axioms(model) == []
        empty = FiniteModel(
            family=tuple(family), weak=frozenset((h, h) for h in family)
        )
        assert check_axioms(empty) == []
    # mutation: flipping any single weak pair of a passing model is detected
    family, utility = families[0]
    model = eu_model(family, utility)
    flips = 0
    for pair in itertools.product(model.family, repeat=2):
        mutated = FiniteModel(family=model.family, weak=model.weak ^ {pair})
        assert check_axioms(mutated), f"undetected mutation of {pair}"
        flips += 1
    report(5, f"100 EU + 100 empty-relation models clean; {flips} single-pair mutations all detected")


def test_criterion_6_bob_scenario_cli():
    out, err = io.StringIO(), io.StringIO()
    code = run(
        ["filter", str(DATA / "bob.prefs"), str(DATA / "bob.lotteries")],
        out=out,
        err=err,
    )
    assert code == 0
    assert out.getvalue().splitlines() == ["carl_one_to_one", "mary_three"]
    report(6, "CLI filter keeps exactly {carl_one_to_one, mary_three}, exit 0")


def test_criterion_7_engine_invariants():
    rng = random.Random(7)
    # compare: never empty, mirror-symmetric, the same on the relation
    # rebuilt from its up-sets
    for _ in range(200):
        rel = random_relation(rng, rng.randint(2, 5))
        alts = sorted(rel.universe)
        f = random_grid_lottery(rng, alts, 6)
        g = random_grid_lottery(rng, alts, 6)
        v = compare(rel, f, g)
        assert v.members
        assert compare(rel, g, f).members == {k.mirror() for k in v.members}
        rebuilt = BaseRelation(rel.universe, dict(rel.up))
        assert compare(rebuilt, f, g).members == v.members
        assert compare(rebuilt, g, f).members == {k.mirror() for k in v.members}
    # case-table outcomes mirror-symmetric
    for t in consistent_tuples():
        assert admissible_outcomes(t.mirror()).members == {
            k.mirror() for k in admissible_outcomes(t).members
        }
    # exhaustive combine/decompose round-trip on the 1/6 grid
    lots = grid_lotteries(alt_names(3), 6)
    trips = 0
    for f, g in itertools.permutations(lots, 2):
        for k in range(1, 6):
            alpha = F(k, 6)
            h = convex_combine(alpha, f, g)
            assert sum((w for _, w in h.entries), F(0)) == 1
            assert decompose(h, f, g) == alpha
            trips += 1
    report(7, f"200 compare invariants, 166 mirrored rows, {trips} grid round-trips")
