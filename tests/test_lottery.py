import itertools
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

from partialpref.errors import (
    AlphaOutOfRange,
    DegeneratePair,
    EmptySupport,
    NegativeWeight,
    NotNormalized,
)
from partialpref.lottery import (
    Lottery,
    convex_combine,
    decompose,
    make_lottery,
    mixture_table,
)

from conftest import alt_names, grid_lotteries


class TestCachedHash:
    def test_equal_lotteries_hash_alike(self):
        f = make_lottery([("a", F(1, 3)), ("b", F(2, 3))])
        g = make_lottery([("b", F(2, 3)), ("a", F(1, 3))])
        assert hash(f) == hash(f) == hash(g) == hash((f.entries,))

    def test_unpickled_lottery_hashes_as_built_here(self):
        # the pickle comes from a process with another string hash seed
        code = (
            "import pickle, sys; from partialpref.lottery import Lottery; "
            "lot = Lottery.degenerate('a'); hash(lot); sys.stdout.buffer.write(pickle.dumps(lot))"
        )
        seed = "1" if sys.flags.hash_randomization == 0 else "0"
        data = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
        ).stdout
        assert pickle.loads(data) in {Lottery.degenerate("a")}


class TestMakeLottery:
    def test_exact_sum_accepted(self):
        lot = make_lottery([("a", F(1, 3)), ("b", F(2, 3))])
        assert lot.support() == {"a", "b"}

    def test_not_normalized(self):
        with pytest.raises(NotNormalized) as exc:
            make_lottery([("a", F(1, 2)), ("b", F(1, 3))])
        assert exc.value.total == F(5, 6)

    def test_normalize_divides_by_sum(self):
        lot = make_lottery([("a", 2), ("b", 4)], normalize=True)
        assert lot.weight("a") == F(1, 3)
        assert lot.weight("b") == F(2, 3)

    def test_duplicates_summed(self):
        lot = make_lottery([("a", F(1, 2)), ("a", F(1, 4)), ("b", F(1, 4))])
        assert lot.weight("a") == F(3, 4)

    def test_zero_entries_dropped(self):
        lot = make_lottery([("a", 1), ("b", 0)])
        assert lot.support() == {"a"}

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_lottery([("a", F(3, 2)), ("b", F(-1, 2))])

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            make_lottery([("a", 0), ("b", 0)])

    def test_degenerate(self):
        assert Lottery.degenerate("a").weight("a") == 1


class TestConvexCombine:
    def test_alpha_one_is_identity(self):
        f = make_lottery([("a", F(1, 2)), ("b", F(1, 2))])
        g = Lottery.degenerate("c")
        assert convex_combine(1, f, g) == f
        assert convex_combine(0, f, g) == g

    def test_symmetric_midpoint(self):
        m = convex_combine(F(1, 2), Lottery.degenerate("a"), Lottery.degenerate("b"))
        assert m.weight("a") == F(1, 2) and m.weight("b") == F(1, 2)

    def test_third_mix(self):
        f = make_lottery([("a", F(1, 2)), ("b", F(1, 2))])
        g = Lottery.degenerate("b")
        h = convex_combine(F(1, 3), f, g)
        assert h.weight("a") == F(1, 6) and h.weight("b") == F(5, 6)

    def test_alpha_out_of_range(self):
        f, g = Lottery.degenerate("a"), Lottery.degenerate("b")
        with pytest.raises(AlphaOutOfRange):
            convex_combine(F(3, 2), f, g)

    def test_commutes_with_flipped_alpha(self):
        f = make_lottery([("a", F(1, 4)), ("b", F(3, 4))])
        g = make_lottery([("b", F(1, 2)), ("c", F(1, 2))])
        for alpha in (F(0), F(1, 3), F(2, 5), F(1)):
            assert convex_combine(alpha, f, g) == convex_combine(1 - alpha, g, f)


class TestDecompose:
    def test_midpoint(self):
        h = make_lottery([("a", F(1, 2)), ("b", F(1, 2))])
        assert decompose(h, Lottery.degenerate("a"), Lottery.degenerate("b")) == F(1, 2)

    def test_boundary_excluded(self):
        f, g = Lottery.degenerate("a"), Lottery.degenerate("b")
        assert decompose(f, f, g) is None

    def test_inverse_of_combine_example(self):
        f = make_lottery([("a", F(1, 2)), ("b", F(1, 2))])
        g = Lottery.degenerate("b")
        h = make_lottery([("a", F(1, 6)), ("b", F(5, 6))])
        assert decompose(h, f, g) == F(1, 3)

    def test_degenerate_pair_rejected(self):
        f = Lottery.degenerate("a")
        with pytest.raises(DegeneratePair):
            decompose(f, f, f)

    def test_unrelated_lottery_returns_none(self):
        f, g = Lottery.degenerate("a"), Lottery.degenerate("b")
        assert decompose(Lottery.degenerate("c"), f, g) is None


class TestGridRoundTrip:
    def test_combine_decompose_round_trip_on_sixth_grid(self):
        lots = grid_lotteries(["a", "b", "c"], 6)
        alphas = [F(k, 6) for k in range(1, 6)]
        for f, g in itertools.permutations(lots, 2):
            for alpha in alphas:
                h = convex_combine(alpha, f, g)
                assert sum((w for _, w in h.entries), F(0)) == 1
                assert decompose(h, f, g) == alpha

    def test_all_grid_lotteries_sum_to_one(self):
        for lot in grid_lotteries(["a", "b", "c"], 6):
            assert sum((w for _, w in lot.entries), F(0)) == 1
            assert all(w > 0 and w.denominator > 0 for _, w in lot.entries)


class TestMixtureTable:
    def test_matches_convex_combine_on_quarter_grid(self):
        # on the 1/4 grid every coefficient linking three members is p/q
        # with q <= 4, so these candidates are exhaustive
        lots = grid_lotteries(alt_names(3), 4)
        position = {lot: k for k, lot in enumerate(lots)}
        candidates = sorted({F(p, q) for q in range(1, 5) for p in range(q + 1)})
        table = mixture_table(lots)
        assert set(table) == set(itertools.permutations(range(len(lots)), 2))
        for (i, j), row in table.items():
            expected = []
            for alpha in candidates:
                k = position.get(convex_combine(alpha, lots[i], lots[j]))
                if k is not None:
                    expected.append((k, alpha))
            assert row == sorted(expected), (i, j)
            assert all(type(alpha) is F for _, alpha in row)
            proper = {k: alpha for k, alpha in row if k not in (i, j)}
            for k, h in enumerate(lots):
                assert decompose(h, lots[i], lots[j]) == proper.get(k)

    def test_distinct_lotteries_required(self):
        f = Lottery.degenerate("a")
        with pytest.raises(DegeneratePair):
            mixture_table([f, f])
