import copy
import functools
import gc
import itertools
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction as F

import pytest

from partialpref import lottery
from partialpref.errors import (
    AlphaOutOfRange,
    DegeneratePair,
    EmptySupport,
    NegativeWeight,
    NotNormalized,
)
from partialpref.errors import MalformedId
from partialpref.lottery import (
    Lottery,
    convex_combine,
    decompose,
    make_lottery,
    mixture_table,
)
from partialpref.relation import check_id

from conftest import alt_names, grid_lotteries, random_grid_lottery


def fraction_sum_lottery(pairs, normalize=False):
    """``make_lottery`` as it was written on Fraction sums."""
    acc = {}
    for alternative, weight in pairs:
        check_id(alternative)
        w = F(weight)
        if w < 0:
            raise NegativeWeight(alternative, w)
        acc[alternative] = acc.get(alternative, F(0)) + w
    total = sum(acc.values(), F(0))
    if total == 0:
        raise EmptySupport()
    if normalize:
        acc = {a: w / total for a, w in acc.items()}
    elif total != 1:
        raise NotNormalized(total)
    return Lottery(entries=tuple(sorted((a, w) for a, w in acc.items() if w > 0)))


def outcome(build, pairs, normalize):
    """What ``build`` returns, with the integer form it computes, or the
    type, message and attributes of what it raises."""
    try:
        lot = build(pairs, normalize=normalize)
    except (NegativeWeight, EmptySupport, NotNormalized, MalformedId) as exc:
        return type(exc), str(exc), vars(exc)
    return lot.entries, lot.integer_form


class TestCachedHash:
    """Lotteries are interned, so the hash is ``object``'s, by identity."""

    def test_equal_lotteries_hash_alike(self):
        f = make_lottery([("a", F(1, 3)), ("b", F(2, 3))])
        g = make_lottery([("b", F(2, 3)), ("a", F(1, 3))])
        assert f is g and f is Lottery(f.entries) and f is Lottery(((("a", F(1, 3)), ("b", F(2, 3)))))
        assert hash(f) == hash(g) == object.__hash__(f)
        # one table entry per distribution, keyed by its integer form
        assert lottery._INTERNED[3, ("a", 1), ("b", 2)] is f
        assert Lottery.degenerate("a") is make_lottery([("a", F(2, 2))]) is Lottery((("a", 1),))
        assert "__hash__" in vars(Lottery) and "__eq__" not in vars(Lottery)

    def test_every_construction_hashes_alike(self):
        rng = random.Random(14)
        for _ in range(50):
            f = random_grid_lottery(rng, alt_names(4), rng.choice((2, 3, 6)))
            g = random_grid_lottery(rng, alt_names(4), 4)
            alpha = F(rng.randint(0, 5), 5)
            h = convex_combine(alpha, f, g)
            built = [
                h,
                make_lottery(h.entries),
                Lottery(h.entries),
                pickle.loads(pickle.dumps(h)),
                make_lottery(
                    [(a, alpha * w) for a, w in f.entries] + [(a, (1 - alpha) * w) for a, w in g.entries]
                ),
            ]
            assert len({hash(lot) for lot in built}) == 1
            assert all(lot == h for lot in built)

    def test_caches_kept_in_the_instance_dict_and_out_of_pickles(self):
        lot = Lottery.degenerate("a")
        assert vars(lot) == {"entries": lot.entries, "integer_form": (1, {"a": 1})}
        assert Lottery(lot.entries).integer_form == (1, {"a": 1})
        # a pickle holds the entries alone, and loading it or copying the
        # lottery gives back the live object
        assert lot.__reduce__() == (Lottery, (lot.entries,))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(lot, protocol)) is lot
        assert copy.deepcopy(lot) is lot and copy.copy(lot) is lot
        f = make_lottery([("a", F(1, 3)), ("b", F(2, 3))])
        assert pickle.loads(pickle.dumps([f, lot])) == [f, lot]
        assert copy.deepcopy({f: [lot]}).popitem() == (f, [lot])

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


class TestEquality:
    def test_equal_entries_equal_and_other_values_not(self):
        f = make_lottery([("a", F(1, 3)), ("b", F(2, 3))])
        g = make_lottery([("b", F(4, 6)), ("a", F(1, 3))])
        h = make_lottery([("a", F(2, 3)), ("b", F(1, 3))])
        assert f == g and not f != g and f == f
        assert f != h and not f == h
        assert f.__eq__(f.entries) is NotImplemented
        assert f != f.entries and f != "f" and f != None  # noqa: E711

    def test_different_distributions_are_distinct_objects(self):
        rng = random.Random(25)
        lots = {}
        for _ in range(400):
            lot = random_grid_lottery(rng, alt_names(4), rng.choice((2, 3, 4, 6)))
            lots.setdefault(lot.entries, []).append(lot)
        assert len(lots) >= 80
        for built in lots.values():
            assert all(lot is built[0] for lot in built)
        distinct = [built[0] for built in lots.values()]
        for f, g in itertools.combinations(distinct, 2):
            assert f is not g and f != g and not f == g
        assert len({hash(lot) for lot in distinct}) == len(distinct)


class TestInterning:
    def test_table_keeps_only_live_lotteries(self):
        kept = make_lottery([("a", F(1, 7)), ("b", F(6, 7))])
        gc.collect()
        before = len(lottery._INTERNED)
        denom = 1009  # a prime: every weight k/1009 is in lowest terms
        built = [make_lottery([("a", F(k, denom)), ("b", F(denom - k, denom))])
                 for k in range(1, 1001)]
        assert len(set(map(id, built))) == 1000
        assert len(lottery._INTERNED) == before + 1000
        del built
        gc.collect()
        assert len(lottery._INTERNED) <= before
        assert make_lottery([("b", F(6, 7)), ("a", F(1, 7))]) is kept
        assert lottery._INTERNED[7, ("a", 1), ("b", 6)] is kept

    def test_threads_building_one_distribution_get_one_object(self):
        denom, count, workers = 1013, 300, 6  # a prime denominator: distinct fresh lotteries
        built = [[] for _ in range(workers)]
        start = threading.Barrier(workers, timeout=10)

        def build(out):
            start.wait()
            for k in range(1, count + 1):
                out.append(make_lottery([("a", F(k, denom)), ("b", F(denom - k, denom))]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == count for out in built)
        for lots in zip(*built):
            assert all(lot is lots[0] for lot in lots)


class TestIntegerWeights:
    """``make_lottery`` sums integer numerators; a Fraction-sum version is
    the reference for its lottery, integer form, errors and messages."""

    WEIGHTS = [F(0), F(1), F(2), F(-1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4),
               F(1, 6), F(5, 6), F(-1, 6), F(1, 12), F(7, 10), F(3, 10)]

    def test_random_pairs_match_fraction_sums(self):
        rng = random.Random(88)
        kinds = set()
        for _ in range(3000):
            alts = ["a", "b", "c", "d", "e!"] if rng.random() < 0.02 else ["a", "b", "c", "d"]
            pairs = [(rng.choice(alts), rng.choice(self.WEIGHTS))
                     for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.3:  # complete to 1, so the unnormalized sum can hold
                pairs.append((rng.choice(alts), 1 - sum((w for _, w in pairs), F(0))))
            normalize = rng.random() < 0.5
            got = outcome(make_lottery, pairs, normalize)
            assert got == outcome(fraction_sum_lottery, pairs, normalize), (pairs, normalize)
            kinds.add(got[0] if isinstance(got[0], type) else "lottery")
        assert kinds == {"lottery", NegativeWeight, EmptySupport, NotNormalized, MalformedId}

    def test_integer_form_is_the_one_computed_on_demand(self):
        rng = random.Random(89)
        for _ in range(200):
            lot = random_grid_lottery(rng, alt_names(4), rng.choice((2, 6, 12)))
            scaled = make_lottery([(a, w * 5) for a, w in lot.entries], normalize=True)
            again = Lottery(entries=lot.entries)
            assert lot == scaled == again
            assert lot.integer_form == scaled.integer_form == again.integer_form
            assert list(lot.integer_form[1]) == [a for a, _ in lot.entries]

    def test_weights_given_as_strings_and_ints(self):
        lot = make_lottery([("b", "1/4"), ("a", 0), ("b", "1/4"), ("c", F(1, 2))])
        assert lot.entries == (("b", F(1, 2)), ("c", F(1, 2)))
        assert lot.integer_form == (2, {"b": 1, "c": 1})


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

    def test_matches_pointwise_fraction_mixture(self):
        # built through make_lottery, the mixture carries its integer form
        rng = random.Random(91)
        for _ in range(500):
            alts = alt_names(rng.randint(1, 4))
            f, g = (random_grid_lottery(rng, alts, rng.randint(1, 12)) for _ in range(2))
            alpha = F(rng.randint(0, 7), 7)
            weights = dict.fromkeys(alts, F(0))
            for a, w in f.entries:
                weights[a] += alpha * w
            for a, w in g.entries:
                weights[a] += (1 - alpha) * w
            expected = Lottery(tuple((a, w) for a, w in weights.items() if w))
            mixed = convex_combine(alpha, f, g)
            assert mixed.entries == expected.entries and hash(mixed) == hash(expected)
            assert "integer_form" in vars(mixed)
            assert mixed.integer_form == expected.integer_form


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
    @staticmethod
    def alphas(row):
        """The ``(k, alpha)`` of each ``(k, alpha, n)`` in ``row``, after
        checking that each n is its alpha times one step count: the n of
        the boundary whose alpha is 1."""
        steps = max(n for _, _, n in row)
        assert steps > 0 and all(type(n) is int and n == alpha * steps for _, alpha, n in row)
        return [(k, alpha) for k, alpha, _ in row]

    def test_matches_convex_combine_on_quarter_grid(self):
        # on the 1/4 grid every coefficient linking three members is p/q
        # with q <= 4, so these candidates are exhaustive
        lots = grid_lotteries(alt_names(3), 4)
        position = {lot: k for k, lot in enumerate(lots)}
        candidates = sorted({F(p, q) for q in range(1, 5) for p in range(q + 1)})
        table, _ = mixture_table(lots)
        assert set(table) == set(itertools.permutations(range(len(lots)), 2))
        for (i, j), row in table.items():
            expected = []
            for alpha in candidates:
                k = position.get(convex_combine(alpha, lots[i], lots[j]))
                if k is not None:
                    expected.append((k, alpha))
            row = self.alphas(row)
            assert row == sorted(expected), (i, j)
            assert all(type(alpha) is F for _, alpha in row)
            proper = {k: alpha for k, alpha in row if k not in (i, j)}
            for k, h in enumerate(lots):
                assert decompose(h, lots[i], lots[j]) == proper.get(k)

    def test_distinct_lotteries_required(self):
        f = Lottery.degenerate("a")
        with pytest.raises(DegeneratePair):
            mixture_table([f, f])
        g = Lottery.degenerate("b")
        with pytest.raises(DegeneratePair):
            mixture_table([g, f, convex_combine(F(1, 2), f, g), f])

    @staticmethod
    def brute_force_table(lots):
        """Each ordered pair's row found by solving for alpha on one
        alternative where the pair differs and checking with convex_combine."""
        table = {}
        for i, j in itertools.combinations(range(len(lots)), 2):
            for x, y in ((i, j), (j, i)):
                f, g = lots[x], lots[y]
                a = next(a for a in sorted(f.support() | g.support()) if f.weight(a) != g.weight(a))
                row = []
                for k, h in enumerate(lots):
                    alpha = (h.weight(a) - g.weight(a)) / (f.weight(a) - g.weight(a))
                    if 0 <= alpha <= 1 and convex_combine(alpha, f, g) == h:
                        row.append((k, alpha))
                table[x, y] = row
        return table

    def test_matches_brute_force_with_planted_collinear_members(self):
        rng = random.Random(90)
        proper = 0
        for _ in range(60):
            alts = alt_names(rng.randint(2, 4))
            lots = [random_grid_lottery(rng, alts, rng.choice((2, 3, 4))) for _ in range(3)]
            lots += [Lottery.degenerate(a) for a in rng.sample(alts, 2)]
            for _ in range(rng.randint(1, 4)):  # three or four collinear members
                f, g = rng.sample(lots, 2)
                lots.append(convex_combine(F(rng.randint(1, 5), 6), f, g))
                lots.append(convex_combine(F(1, 2), f, lots[-1]))
            lots = list(dict.fromkeys(lots))
            rng.shuffle(lots)
            table, splits = mixture_table(lots)
            assert list(table) == [
                key for i, j in itertools.combinations(range(len(lots)), 2)
                for key in ((i, j), (j, i))
            ]
            # the list comparison also checks the order of the alpha keys
            assert list(splits.items()) == list(two_pass_splits(table, len(lots)).items())
            rows = {key: self.alphas(row) for key, row in table.items()}
            assert rows == self.brute_force_table(lots)
            proper += sum(len(row) - 2 for row in rows.values())
            for (i, j), row in rows.items():
                assert all(type(alpha) is F for _, alpha in row)
                inner = {k: alpha for k, alpha in row if k not in (i, j)}
                for k in rng.sample(range(len(lots)), min(3, len(lots))):
                    assert decompose(lots[k], lots[i], lots[j]) == inner.get(k)
        assert proper >= 2000, proper

    def test_coefficient_memo_matches_functools_cache(self, monkeypatch):
        # the coefficients were memoized by functools.cache(Fraction); with
        # that memo put back, the tables, the splits, their key order and
        # which entries share one Fraction object are the same
        class CachedFractions:
            def __init__(self):
                self.fraction = functools.cache(F)

            def __getitem__(self, key):
                return self.fraction(*key)

        def shared(table):
            first = {}
            return [first.setdefault(id(alpha), len(first))
                    for row in table.values() for _, alpha, _ in row]

        rng = random.Random(2025)
        for _ in range(60):
            alts = alt_names(rng.randint(2, 4))
            lots = [random_grid_lottery(rng, alts, rng.choice((2, 3, 4, 6)))
                    for _ in range(rng.randint(2, 6))]
            for _ in range(rng.randint(0, 4)):
                f, g = rng.sample(lots, 2)
                lots.append(convex_combine(F(rng.randint(1, 5), 6), f, g))
            lots = list(dict.fromkeys(lots))
            table, splits = mixture_table(lots)
            with monkeypatch.context() as patch:
                patch.setattr(lottery, "_Fractions", CachedFractions)
                old_table, old_splits = mixture_table(lots)
            assert list(table.items()) == list(old_table.items())
            assert list(splits.items()) == list(old_splits.items())
            assert shared(table) == shared(old_table)
            assert all(type(alpha) is F for row in table.values() for _, alpha, _ in row)


def two_pass_splits(table, size):
    """The split index of a finished ``table`` of ``size`` lotteries, built
    by a second walk over its rows: ``splits[alpha][h]`` is (h, h), then
    the key (x, y) of each row that holds h at alpha, h neither x nor y."""
    splits = {}
    for (x, y), row in table.items():
        for h, alpha, _ in row:
            if h != x and h != y:
                if alpha not in splits:
                    splits[alpha] = [[(m, m)] for m in range(size)]
                splits[alpha][h].append((x, y))
    return splits


def all_pairs_mixture_instances(table, size):
    """Every (hf, hg, alpha, split, split) instance of ``table``, stepping
    through every (hf, hg) pair and rejecting the trivial x trivial splits:
    the order in which ``consequences`` meets the A4 and A5 instances."""
    for alpha, options in two_pass_splits(table, size).items():
        for hf in range(size):
            for hg in range(size):
                for f in options[hf]:
                    for g in options[hg]:
                        if f != (hf, hf) or g != (hg, hg):
                            yield hf, hg, alpha, f, g


def flattened_splits(splits, size):
    """The ``splits`` of ``mixture_table`` read in the order ``consequences``
    walks them: alpha, hf, then hg (every hg beside a properly split hf,
    only properly split ones beside a trivial hf), then hf's splits by
    hg's, leaving out the trivial x trivial pair."""
    for alpha, options in splits.items():
        proper = [h for h, hs in enumerate(options) if len(hs) > 1]
        for hf, fs in enumerate(options):
            for hg in range(size) if len(fs) > 1 else proper:
                for f, g in itertools.product(fs, options[hg]):
                    if (f, g) != ((hf, hf), (hg, hg)):
                        yield hf, hg, alpha, f, g


class TestMixtureInstances:
    def test_same_sequence_as_all_pairs_generator(self):
        rng = random.Random(140)
        yielded = 0
        for _ in range(80):
            alts = alt_names(rng.randint(2, 4))
            lots = [
                random_grid_lottery(rng, alts, rng.choice((2, 3, 4))) for _ in range(rng.randint(2, 5))
            ]
            for _ in range(rng.randint(0, 3)):
                f, g = rng.sample(lots, 2)
                lots.append(convex_combine(F(rng.randint(1, 5), 6), f, g))
            lots = list(dict.fromkeys(lots))
            table, splits = mixture_table(lots)
            expected = list(all_pairs_mixture_instances(table, len(lots)))
            assert list(flattened_splits(splits, len(lots))) == expected
            yielded += len(expected)
        assert yielded >= 1000, yielded
