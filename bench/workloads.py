"""Seeded input generators: one per kind of request, two kinds per workload.

``generate(workload, seed, root, count)`` returns the files the program may
read and the requests that use them.  Every request carries the known answer
its output is checked against (see ``oracle``).  Inputs depend only on the
seed: per-request generators are seeded with strings, which ``random``
hashes with SHA-512, so neither PYTHONHASHSEED nor the request count
changes a request.  Weights are exact ``p/q`` on a 1/12 grid (1/24 for
midpoints of two grid lotteries).

Request sizes come from a golden-ratio sequence over a range, the same for
every seed, so any prefix of the request list covers the range evenly, no
gap between size modes falls at a percentile, and the seed changes the
content of the requests but not their sizes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from oracle import closure_size, eu, sign

GRID = 12
GOLDEN = (5 ** 0.5 - 1) / 2

# sha256 of the reviewed 166-row case-table transcription
CASE_TABLE_SHA256 = "a48186d23380228a664e2aceacd38f14bb8da90e454c009f8b24743f27ddef17"


@dataclass
class Inputs:
    files: dict[str, str]
    requests: list[dict]
    # the request that ends set-up, excluded from latency; the same for every
    # seed, so set-up time does not depend on the seed
    first: dict

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()


def _golden(i: int) -> float:
    """The i-th point of a golden-ratio sequence in [0, 1)."""
    return (0.5 + i * GOLDEN) % 1.0


def _spread(i: int, lo: int, hi: int) -> int:
    """The i-th size of a golden-ratio sequence over [lo, hi]."""
    return lo + int((hi - lo + 1) * _golden(i))


def _alts(m: int) -> list[str]:
    return [f"a{i}" for i in range(m)]


def _grid_lottery(rng: random.Random, alts, max_support=4) -> dict[str, Fraction]:
    k = rng.randint(1, min(max_support, len(alts)))
    support = sorted(rng.sample(alts, k))
    cuts = sorted(rng.sample(range(1, GRID), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [GRID])]
    return {a: Fraction(p, GRID) for a, p in zip(support, parts)}


def _midpoint(x, y) -> dict[str, Fraction]:
    out = {a: w / 2 for a, w in x.items()}
    for a, w in y.items():
        out[a] = out.get(a, Fraction(0)) + w / 2
    return dict(sorted(out.items()))


def _key(lottery) -> tuple:
    return tuple(sorted(lottery.items()))


def _lottery_line(name: str, lottery) -> str:
    return f"{name} : " + ", ".join(f"{a}@{w}" for a, w in sorted(lottery.items()))


def _distinct_lotteries(rng, alts, n, mix_share=0.0):
    """n distinct grid lotteries; a share of them are midpoints of earlier ones."""
    out, seen = [], set()
    while len(out) < n:
        if len(out) >= 2 and rng.random() < mix_share:
            lot = _midpoint(*rng.sample(out, 2))
        else:
            lot = _grid_lottery(rng, alts)
        if _key(lot) not in seen:
            seen.add(_key(lot))
            out.append(lot)
    return out


def _prefs_text(rng, alts, utils, declare=0.7) -> str:
    """Declare strictly-ordered-in-every-utility pairs (a share of them,
    closure derives the rest) and equal-in-every-utility pairs."""
    lines = [f"alt {a}" for a in alts]
    for a, b in itertools.permutations(alts, 2):
        if all(u[a] < u[b] for u in utils):
            if rng.random() < declare:
                lines.append(f"{a} {rng.choice(('<', '<='))} {b}")
        elif a < b and all(u[a] == u[b] for u in utils):
            lines.append(f"{a} ~ {b}")
    return "\n".join(lines) + "\n"


# --- filter requests -------------------------------------------------------


def _filter_request(tag: str, rng, n: int, dense: bool, files) -> dict:
    m = rng.choice((4, 5, 6))
    alts = _alts(m)
    # one utility gives a total preorder (most offers dominated, any() stops
    # early); three give a sparse one (most offers kept, all pairs scanned)
    utils = [{a: rng.randrange(m if dense else 8) for a in alts} for _ in range(1 if dense else 3)]
    offers = _distinct_lotteries(rng, alts, n)
    names = [f"o{i}" for i in range(n)]
    values = [[eu(lot, u) for u in utils] for lot in offers]
    must_keep = set()
    for k in range(len(utils)):
        best = max(v[k] for v in values)
        must_keep.update(names[i] for i, v in enumerate(values) if v[k] == best)
    may_drop = [
        names[i]
        for i, vi in enumerate(values)
        if any(all(x > y for x, y in zip(vj, vi)) for vj in values)
    ]
    files[f"{tag}.prefs"] = _prefs_text(rng, alts, utils)
    files[f"{tag}.lots"] = "".join(_lottery_line(nm, lot) + "\n" for nm, lot in zip(names, offers))
    return {
        "argv": ["filter", f"{tag}.prefs", f"{tag}.lots"],
        "expect": {"names": names, "must_keep": sorted(must_keep), "may_drop": may_drop},
    }


def _gen_filter(seed, count, files):
    requests = [
        _filter_request(f"filter{i}", random.Random(f"{seed}:filter-offers:{i}"),
                        _spread(i, 6, 30), dense=i % 2 == 0, files=files)
        for i in range(count)
    ]
    first = _filter_request("filter-first", random.Random("filter-offers:first"), 12, False, files)
    return requests, first


# --- check requests --------------------------------------------------------


def _check_model(rng, n: int):
    """An EU model on a total preorder: n lotteries, at least three EU levels."""
    while True:
        m = rng.choice((3, 4))
        alts = _alts(m)
        u = {a: rng.randrange(5) for a in alts}
        family = [{a: Fraction(1)} for a in rng.sample(alts, 2)]
        family += _distinct_lotteries(rng, alts, n - 2, mix_share=0.4)
        keys = [_key(lot) for lot in family]
        values = [eu(lot, u) for lot in family]
        if len(set(keys)) == n and len(set(values)) >= 3:
            return alts, u, family, values


_MUTATIONS = ("A1'", "A2-drop", "A2-add")


def _check_request(tag, rng, n, mutation, files) -> dict:
    alts, u, family, values = _check_model(rng, n)
    names = [f"l{i}" for i in range(n)]
    weak = [(x, y) for x in range(n) for y in range(n) if values[x] <= values[y]]
    expect_tag = None
    if mutation == "A1'":
        h = rng.randrange(n)
        weak.remove((h, h))
        expect_tag = "A1'"
    elif mutation is not None:
        triples = [
            (f, h, g)
            for f, h, g in itertools.permutations(range(n), 3)
            if values[f] < values[h] < values[g]
        ]
        f, h, g = rng.choice(triples)
        if mutation == "A2-drop":
            weak.remove((f, g))
        else:
            weak.append((g, f))
        expect_tag = "A2"
    files[f"{tag}.prefs"] = _prefs_text(rng, alts, [u], declare=1.0)
    lines = [_lottery_line(nm, lot) for nm, lot in zip(names, family)]
    lines += [f"{names[x]} <= {names[y]}" for x, y in weak]
    files[f"{tag}.model"] = "\n".join(lines) + "\n"
    return {
        "argv": ["check", f"{tag}.prefs", f"{tag}.model"],
        "expect": {"tag": expect_tag},
    }


def _gen_check(seed, count, files):
    requests = []
    for i in range(count):
        # a clean model, then a mutated copy of the same model
        base = i // 2
        mutation = _MUTATIONS[base % 3] if i % 2 else None
        rng = random.Random(f"{seed}:axiom-check:{base}")
        requests.append(_check_request(f"check{i}", rng, _spread(base, 4, 8), mutation, files))
    first = _check_request("check-first", random.Random("axiom-check:first"), 5, None, files)
    return requests, first


# --- saturate requests -----------------------------------------------------


def _saturate_request(tag, rng, n, m, files) -> dict:
    alts = _alts(m)
    # two utilities, the second within 2 of the first: a partial preorder
    # that still orders most pairs, so the fixpoint derives facts.  Requests
    # on total preorders cost about three times as much; mixing the two
    # puts the median between two modes of the latency distribution.
    u = {a: rng.randrange(6) for a in alts}
    utils = [u, {a: u[a] + rng.randrange(3) for a in alts}]
    family = _distinct_lotteries(rng, alts, n, mix_share=0.4)
    names = [f"f{i}" for i in range(n)]
    files[f"{tag}.prefs"] = _prefs_text(rng, alts, utils)
    files[f"{tag}.lots"] = "".join(_lottery_line(nm, lot) + "\n" for nm, lot in zip(names, family))
    return {
        "argv": ["saturate", f"{tag}.prefs", f"{tag}.lots"],
        "expect": {"eu": {nm: [str(eu(lot, u)) for u in utils] for nm, lot in zip(names, family)}},
    }


def _gen_saturate(seed, count, files):
    requests = [
        _saturate_request(f"saturate{i}", random.Random(f"{seed}:saturate-derive:{i}"),
                          _spread(i, 4, 6), 3 + i % 2, files)
        for i in range(count)
    ]
    first = _saturate_request("saturate-first", random.Random("saturate-derive:first"), 5, 4, files)
    return requests, first


# --- query requests: validate, compare, table --verify ----------------------

PREORDERS = 24
LOTTERIES_PER_PREORDER = 12


def _layered_preorder(rng, n: int, total: bool):
    """A layered preorder on n alternatives.

    Total: alternatives in one layer are equivalent, layers form a chain.
    Partial: two utilities order each layer in opposite directions, so
    alternatives in one layer are incomparable, except declared twins.
    Returns the alternatives, the utilities, the file text and the closure size.
    """
    alts = [f"x{i}" for i in range(n)]
    layers, i = [], 0
    while i < n:
        width = rng.randint(5, 20)
        layers.append(alts[i:i + width])
        i += width
    span = n + 1
    utils = [{}, {}] if not total else [{}]
    lines, edges = [], []

    def declare(a, op, b):
        lines.append(f"{a} {op} {b}")
        edges.append((a, b))
        if op == "~":
            edges.append((b, a))

    for depth, layer in enumerate(layers):
        for pos, a in enumerate(layer):
            if total:
                utils[0][a] = depth
            else:
                utils[0][a] = depth * span + pos
                utils[1][a] = depth * span + (len(layer) - pos)
        if total:
            for a, b in zip(layer, layer[1:]):
                declare(a, "~", b)
        elif len(layer) > 2 and rng.random() < 0.5:
            # a twin: equal under both utilities, declared equivalent
            twin, orig = layer[-1], layer[0]
            for u in utils:
                u[twin] = u[orig]
            declare(orig, "~", twin)
    for lower, upper in zip(layers, layers[1:]):
        if total:
            declare(rng.choice(lower), rng.choice(("<", "<=")), rng.choice(upper))
            continue
        for b in upper:
            for a in rng.sample(lower, min(len(lower), rng.randint(1, 2))):
                declare(a, rng.choice(("<", "<=")), b)
    mentioned = {a for a, b in edges} | {b for a, b in edges}
    decls = [f"alt {a}" for a in alts if a not in mentioned]
    text = "\n".join(decls + lines) + "\n"
    return alts, utils, text, closure_size(alts, edges)


def _mutated_table(rng, text: str):
    lines = text.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if "->" in line and not line.startswith("#!")]
    i = rng.choice(rows)
    head, _, tail = lines[i].partition("->")
    outcome = set(tail.split())
    # drop a symbol from a multi-symbol outcome, else add one
    outcome = outcome - {max(outcome)} if len(outcome) > 1 else outcome | {min({"~", "<", ">", "#"} - outcome)}
    lines[i] = f"{head.rstrip()} -> {' '.join(sorted(outcome, key='~<>#'.index))}\n"
    return "".join(lines), head.strip()


def _gen_query(seed, count, files, case_table: str):
    rng = random.Random(f"{seed}:cli-queries:files")
    preorders = []
    for j in range(PREORDERS):
        n = 100 + 300 * j // (PREORDERS - 1)
        total = j % 2 == 0
        alts, utils, text, closure = _layered_preorder(rng, n, total)
        lots = [_grid_lottery(rng, alts, max_support=3) for _ in range(LOTTERIES_PER_PREORDER)]
        files[f"p{j}.prefs"] = text
        files[f"p{j}.lots"] = "".join(_lottery_line(f"g{i}", lot) + "\n" for i, lot in enumerate(lots))
        preorders.append((n, total, utils, lots, closure))
    files["table.txt"] = case_table
    bad_table, bad_row = _mutated_table(rng, case_table)
    files["table-bad.txt"] = bad_table

    def query(i, rq):
        if i % 25 == 24:
            bad = (i // 25) % 4 == 3
            name = "table-bad.txt" if bad else "table.txt"
            return {"argv": ["table", "--verify", name],
                    "expect": {"bad_row": bad_row if bad else None}}
        j = int(PREORDERS * _golden(i))
        n, total, utils, lots, closure = preorders[j]
        if rq.random() < 0.5:
            return {"argv": ["validate", f"p{j}.prefs"],
                    "expect": {"stdout": f"universe: {n} alternatives; closure: {closure} weak pairs\n"}}
        x, y = rq.sample(range(LOTTERIES_PER_PREORDER), 2)
        signs = [sign(eu(lots[x], u), eu(lots[y], u)) for u in utils]
        return {"argv": ["compare", f"p{j}.prefs", f"p{j}.lots", f"g{x}", f"g{y}"],
                "expect": {"eu_signs": signs, "total": total}}

    requests = [query(i, random.Random(f"{seed}:cli-queries:{i}")) for i in range(count)]
    first = {"argv": ["table", "--verify", "table.txt"], "expect": {"bad_row": None}}
    return requests, first


def case_table_text(root: Path) -> str:
    """The program's reviewed transcription, checked against the pinned digest."""
    text = (root / "src" / "partialpref" / "data" / "case_table.txt").read_text("utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != CASE_TABLE_SHA256:
        raise ValueError(f"case table transcription changed: sha256 {digest}")
    return text


# Each workload interleaves two kinds of request one to one.  The first
# kind also gives the request that ends set-up.  The kinds in one workload
# cost about the same (medians 15-40 ms), so the latency distribution has
# no gap between modes.
WORKLOADS = {
    "filter-query": ("query", "filter"),
    "check-saturate": ("check", "saturate"),
}

# requests generated per run: about twice what the current code completes in
# 55 s, so a run rarely wraps around and repeats an input
COUNTS = {"filter-query": 3600, "check-saturate": 3600}


def generate(workload: str, seed: int, root: Path, count: int | None = None) -> Inputs:
    files: dict[str, str] = {}
    count = COUNTS[workload] if count is None else count
    generators = {
        "filter": _gen_filter,
        "check": _gen_check,
        "saturate": _gen_saturate,
        "query": lambda seed, n, files: _gen_query(seed, n, files, case_table_text(root)),
    }
    first_kind, second_kind = WORKLOADS[workload]
    firsts, first = generators[first_kind](seed, count - count // 2, files)
    seconds, _ = generators[second_kind](seed, count // 2, files)
    requests = [r for pair in itertools.zip_longest(firsts, seconds) for r in pair if r is not None]
    return Inputs(files, requests, first)
