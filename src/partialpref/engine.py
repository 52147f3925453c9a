"""Derived judgments between lotteries.

Lifts the base preorder on alternatives to lottery pairs:

* ``dominates`` — every support pair weakly improves, so f <= g;
* ``shift_reachable`` — g is obtainable from f by moving probability mass
  onto strictly preferred alternatives, so f < g; decided by exact
  max-flow feasibility with the strict pairs as edges;
* ``compare`` — the set of judgments not refuted by the elimination rules
  R1-R5 (an over-approximation: the true judgment of any admissible
  extension of the base relation is always a member), decided on four
  bits of the lotteries' profiles and the shift tests; the rule notes and
  the plans' moves are built only when read;
* ``saturate`` — least fixpoint of the mixture derivation rules over a
  finite lottery family;
* ``maximal_filter`` — keeps the offers not certainly strictly dominated.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import le

from .errors import DuplicateOfferName
from .lottery import Lottery, mixture_table, scale
from .lottery import decompose  # noqa: F401  bench/test_bench.py traces it here
from .relation import BaseRelation, RelKind, _kept, _LastFieldAside, _read_only

__all__ = [
    "AdmissibleSet",
    "TransportPlan",
    "DerivedFacts",
    "Derivation",
    "cross_profile",
    "dominates",
    "shift_reachable",
    "up_masses",
    "compare",
    "saturate",
    "maximal_filter",
]

ZERO = Fraction(0)

# the judgments each conclusion about (f, g) refutes, shared with the case
# table; "!<" and "!>" conclude that f < g, or f > g, is impossible
REFUTES = {
    "<=": frozenset({RelKind.GREATER, RelKind.INCOMP}),
    ">=": frozenset({RelKind.LESS, RelKind.INCOMP}),
    "<": frozenset({RelKind.EQUIV, RelKind.GREATER, RelKind.INCOMP}),
    ">": frozenset({RelKind.EQUIV, RelKind.LESS, RelKind.INCOMP}),
    "!<": frozenset({RelKind.LESS}),
    "!>": frozenset({RelKind.GREATER}),
}

# what the pairs in supp(f) x supp(g) hold, one bit for each rule that
# reads it: some pair a, b has not a <= b (blocks R1), some has not
# b <= a (blocks R2), some has a < b (blocks R4), some has a > b (blocks R5)
_NOT_LE, _NOT_GE, _SOME_LESS, _SOME_GREATER = 1, 2, 4, 8
_ALL_KINDS = frozenset(RelKind)
_ONLY_LESS = frozenset({RelKind.LESS})


def _nonempty(members) -> None:
    if not members:
        raise ValueError("admissible set must be nonempty")


class AdmissibleSet:
    """Nonempty subset of the four judgment symbols plus rule provenance.

    A verdict of :func:`compare` with a shift plan fixes its ``members``
    at once and builds ``provenance``, the notes of the rules that fired,
    on first read.
    """

    def __init__(self, members: frozenset[RelKind], provenance: tuple[str, ...] = ()):
        _nonempty(members)
        self.__dict__.update(members=members, provenance=provenance)

    @classmethod
    def _deferred(cls, members: frozenset[RelKind], kinds: int, fg, gf) -> "AdmissibleSet":
        """The verdict with ``members`` whose provenance is that of
        :func:`_rules` on ``kinds``, ``fg`` and ``gf``, built when read."""
        _nonempty(members)
        verdict = cls.__new__(cls)
        verdict.__dict__.update(members=members, _decided=(kinds, fg, gf))
        return verdict

    __setattr__ = __delattr__ = _read_only

    @_kept
    def provenance(self) -> tuple[str, ...]:
        """The notes of the rules that fired, in rule order."""
        return tuple(note for note, _ in _rules(*self._decided) if note)

    def __eq__(self, other):
        if other.__class__ is not AdmissibleSet:
            return NotImplemented
        return self.members == other.members and self.provenance == other.provenance

    def __hash__(self):
        return hash((self.members, self.provenance))

    def __repr__(self):
        return f"AdmissibleSet(members={self.members!r}, provenance={self.provenance!r})"

    def __reduce__(self):
        return AdmissibleSet, (self.members, self.provenance)

    @classmethod
    def refute(cls, rules) -> "AdmissibleSet":
        """Fold ``(note, refuted kinds)`` rows; a row fires when its note is a
        nonempty string, removing its kinds and adding its note."""
        members = _ALL_KINDS
        provenance = []
        for note, refuted in rules:
            if note:
                members -= refuted
                provenance.append(note)
        return cls(members, tuple(provenance))


class TransportPlan:
    """Witness that g is reachable from f by strictly improving shifts.

    ``moves`` maps (source, target) to positive mass, as sorted items; row
    sums equal f's weights, column sums equal g's weights, and every
    off-diagonal move goes to a strictly preferred alternative.  A plan of
    :func:`shift_reachable` holds its integer flow and builds ``moves`` on
    first read.
    """

    def __init__(self, moves: tuple[tuple[tuple[str, str], Fraction], ...]):
        self.__dict__["moves"] = moves

    @classmethod
    def _of_flow(cls, f: Lottery, g: Lottery, sources, sinks, flow) -> "TransportPlan":
        """The plan that keeps f's mass where g has weight too and moves
        ``flow[i, j]`` from the alternative of ``sources[i]`` to
        ``sinks[j]``, in units of the common denominator of f and g."""
        plan = cls.__new__(cls)
        plan.__dict__["_flow"] = f, g, sources, sinks, flow
        return plan

    __setattr__ = __delattr__ = _read_only

    @_kept
    def moves(self) -> tuple[tuple[tuple[str, str], Fraction], ...]:
        """The moves of the integer flow, as sorted items."""
        f, g, sources, sinks, flow = self._flow
        (df, nf), (dg, ng) = f.integer_form, g.integer_form
        denom = lcm(df, dg)
        mf, mg = denom // df, denom // dg
        moves = {(a, a): Fraction(min(x * mf, ng[a] * mg), denom) for a, x in nf.items() if a in ng}
        for (i, j), mass in flow.items():
            moves[(sources[i][0], sinks[j])] = Fraction(mass, denom)
        return tuple(sorted(moves.items()))

    def __eq__(self, other):
        if other.__class__ is not TransportPlan:
            return NotImplemented
        return self.moves == other.moves

    def __hash__(self):
        return hash(self.moves)

    def __repr__(self):
        return f"TransportPlan(moves={self.moves!r})"

    def __reduce__(self):
        return TransportPlan, (self.moves,)

    def move_dict(self) -> dict[tuple[str, str], Fraction]:
        return dict(self.moves)

    def row_sums(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (src, _), mass in self.moves:
            out[src] = out.get(src, ZERO) + mass
        return out

    def col_sums(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for (_, dst), mass in self.moves:
            out[dst] = out.get(dst, ZERO) + mass
        return out


def cross_profile(rel: BaseRelation, f: Lottery, g: Lottery):
    """Classify every pair in supp(f) x supp(g)."""
    return {
        (a, b): rel.classify(a, b)
        for a in sorted(f.support())
        for b in sorted(g.support())
    }


def _support_kinds(rel: BaseRelation, f: Lottery, g: Lottery) -> int:
    """What the pairs in supp(f) x supp(g) hold, as a mask of the rule
    bits, read from the two lotteries' profiles in ``rel.profiles``."""
    profiles = rel.profiles
    pf, pg = profiles.get(f), profiles.get(g)
    if pf is None or pg is None:
        # the pairs' up-sets are read led by f's first alternative, then
        # g's, then the rest of f's
        rel.up[f.entries[0][0]]
        pg = profiles[g]
        pf = profiles[f]
    support_f, above_f, up_all_f, _ = pf
    support_g, above_g, up_all_g, _ = pg
    # every pair is a <= b iff supp(g) lies in the up-set of each a
    return ((support_g & ~up_all_f and _NOT_LE) | (support_f & ~up_all_g and _NOT_GE)
            | (above_f & support_g and _SOME_LESS) | (above_g & support_f and _SOME_GREATER))


def dominates(rel: BaseRelation, f: Lottery, g: Lottery) -> bool:
    """True iff every support pair of (f, g) is Less or Equiv, hence f <= g."""
    return not _support_kinds(rel, f, g) & _NOT_LE


def _max_flow(excess: list[int], deficit: list[int], edges):
    """Integer max flow from sources with ``excess`` to sinks with ``deficit``.

    ``edges`` are the distinct (source, sink) index pairs that may carry
    any amount.  Returns (value, flow) where flow maps (source, sink) to a
    positive amount, in edge order.  Edmonds-Karp: each round augments
    along the first path a breadth-first search meets, visiting the
    sources with excess left in index order, then from each source its
    sinks in edge order and from each sink whose deficit is met its
    sources in edge order, with flow to cancel; the first sink popped with
    deficit left ends the search.  An edge's capacity never binds: it
    carries at most its source's excess.
    """
    n = len(excess)
    sinks_of = [[] for _ in range(n)]  # each source's sinks, in edge order
    sources_of = [[] for _ in deficit]  # each sink's sources, in edge order
    for i, j in edges:
        sinks_of[i].append(j)
        sources_of[j].append(i)
    excess, deficit = list(excess), list(deficit)  # what is left of each
    flow = dict.fromkeys(edges, 0)
    value = 0
    while True:
        # node k < n is source k, node n + j is sink j; parent n + m is
        # the super source
        parent = [-1] * (n + len(deficit))
        queue = [i for i in range(n) if excess[i]]
        for i in queue:
            parent[i] = len(parent)
        end = None
        for u in queue:  # the list grows as the search goes
            if u < n:
                for j in sinks_of[u]:
                    if parent[n + j] < 0:
                        parent[n + j] = u
                        queue.append(n + j)
            elif deficit[u - n]:
                end = u - n
                break
            else:
                j = u - n
                for i in sources_of[j]:
                    if parent[i] < 0 and flow[i, j]:
                        parent[i] = u
                        queue.append(i)
        if end is None:
            return value, {e: x for e, x in flow.items() if x}
        # the path from the sink back to its first source: edges that gain
        # flow, and edges whose flow it cancels
        gain, cancel = [], []
        start, j = parent[n + end], end
        gain.append((start, j))
        while parent[start] < len(parent):
            j = parent[start] - n
            cancel.append((start, j))
            start = parent[n + j]
            gain.append((start, j))
        bottleneck = min(excess[start], deficit[end], *(flow[e] for e in cancel))
        excess[start] -= bottleneck
        deficit[end] -= bottleneck
        for e in gain:
            flow[e] += bottleneck
        for e in cancel:
            flow[e] -= bottleneck
        value += bottleneck


def shift_reachable(rel: BaseRelation, f: Lottery, g: Lottery):
    """Transport plan witnessing f < g via strictly improving shifts, or None.

    Feasible iff the excess mass of f over g can be routed entirely along
    strict pairs onto g's excess; strict transitivity lets multi-step
    shift chains collapse to direct moves.  The pair is decided on integer
    weights over its common denominator; a plan holds that integer flow
    and builds its ``Fraction`` moves on first read.

    Three necessary conditions are bit tests on the lotteries' profiles
    in ``rel.profiles``, looked up for f, then g: some alternative of f is
    strictly below one of g, every alternative of f outside supp(g) has
    one of supp(g) strictly above it, and every alternative of g outside
    supp(f) has one of supp(f) strictly below it.
    """
    support_f, above_f, _, alts_f = rel.profiles[f]
    support_g = rel.profiles[g][0]
    if not above_f & support_g or support_g & ~(support_f | above_f):
        return None
    for reach in alts_f:
        if not reach & support_g:
            return None
    (df, nf), (dg, ng) = f.integer_form, g.integer_form
    up = rel.up
    denom = lcm(df, dg)
    mf, mg = denom // df, denom // dg
    sources, excess, sinks, deficit = [], [], [], []
    for a in sorted(nf.keys() | ng.keys()):
        up_a = up[a]
        d = nf.get(a, 0) * mf - ng.get(a, 0) * mg
        if d > 0:
            sources.append((a, up_a))
            excess.append(d)
        elif d:
            sinks.append(a)
            deficit.append(-d)
    if not sources:  # f == g: both weight vectors sum to denom
        return None
    # the excess equals the deficit, so all of it must move: a source with
    # no strict edge out, or a sink with none in, leaves f < g unwitnessed
    edges = []
    for i, (a, up_a) in enumerate(sources):
        out = [(i, j) for j, b in enumerate(sinks) if b in up_a and a not in up[b]]
        if not out:
            return None
        edges += out
    if len({j for _, j in edges}) < len(sinks):
        return None
    # with one source, the checks above found an edge to every sink, each
    # carrying its sink's deficit; with one sink, each source's excess
    # goes to it.  Such a flow is unique, so only two or more of each need
    # a search
    if len(sources) == 1:
        flow = dict(zip(edges, deficit))
    elif len(sinks) == 1:
        flow = dict(zip(edges, excess))
    else:
        value, flow = _max_flow(excess, deficit, edges)
        if value != sum(excess):
            return None
    return TransportPlan._of_flow(f, g, sources, sinks, flow)


def up_masses(rel: BaseRelation, lotteries) -> list[tuple[int, ...]]:
    """Each lottery's mass on each principal up-set ``rel.up[a]``, for the
    alternatives a of the lotteries' supports, as integers over their
    common denominator; equal up-sets count once.

    A strict shift moves mass only upwards, so if f shifts to g, then g's
    mass is at least f's on every up-set and greater on the up-set of any
    alternative that receives mass (Strassen 1965; Kamae, Krengel &
    O'Brien 1977).  Pairs that fail this need no max-flow.
    """
    vectors = scale(lotteries)
    alts = sorted({a for lot in lotteries for a, _ in lot.entries})
    columns = dict.fromkeys(tuple(c for c, b in enumerate(alts) if b in rel.up[a]) for a in alts)
    return [tuple(sum(vec[c] for c in col) for col in columns) for vec in vectors]


def compare(rel: BaseRelation, f: Lottery, g: Lottery) -> AdmissibleSet:
    """Judgments between f and g not refuted by rules R1-R5.

    The members are decided at once; the provenance, and the moves of a
    shift plan in it, are built on first read (see :class:`AdmissibleSet`).
    """
    if f == g:
        return AdmissibleSet(frozenset({RelKind.EQUIV}), ("identity: f = g",))
    kinds = _support_kinds(rel, f, g)
    # a strict shift raises f's mass on the up-set of each alternative that
    # receives mass, so no strict shift leads back: g => f is tested only
    # when f => g has no plan (Strassen 1965; Kamae, Krengel & O'Brien 1977)
    fg = shift_reachable(rel, f, g)
    gf = shift_reachable(rel, g, f) if fg is None else None
    return _verdict(kinds, fg, gf)


# the verdict of each mask of rule bits when neither shift exists, filled
# on first use; an AdmissibleSet is immutable, so pairs share it
_NO_SHIFT: dict[int, AdmissibleSet] = {}


def _rules(kinds: int, fg, gf):
    """Rows ``(note, refuted kinds)`` of rules R1-R5, in order, for a pair
    whose support pairs hold the rule bits ``kinds`` and whose shift plans,
    either way, are fg and gf; a row fires when its note is nonempty."""
    return (
        (not kinds & _NOT_LE
         and "R1 dominance f <= g: every support pair is < or ~", REFUTES["<="]),
        (not kinds & _NOT_GE
         and "R2 dominance g <= f: every support pair is > or ~", REFUTES[">="]),
        (fg and f"R3 shift f => g with plan {fg.move_dict()}", REFUTES["<"]),
        (gf and f"R3' shift g => f with plan {gf.move_dict()}", REFUTES[">"]),
        (not kinds & _SOME_LESS
         and "R4 no support pair is <, so f < g is impossible", REFUTES["!<"]),
        (not kinds & _SOME_GREATER
         and "R5 no support pair is >, so f > g is impossible", REFUTES["!>"]),
    )


def _verdict(kinds: int, fg, gf) -> AdmissibleSet:
    """The judgments rules R1-R5 leave for a pair whose support pairs hold
    the rule bits ``kinds`` and whose shift plans, either way, are fg and
    gf.  A shift row removes its kinds from the verdict without shifts;
    its notes, and the plans' moves, are built when the provenance is read."""
    verdict = _NO_SHIFT.get(kinds)
    if verdict is None:
        verdict = _NO_SHIFT[kinds] = AdmissibleSet.refute(_rules(kinds, None, None))
    if fg is None and gf is None:
        return verdict
    members = verdict.members
    if fg is not None:
        members -= REFUTES["<"]
    if gf is not None:
        members -= REFUTES[">"]
    return AdmissibleSet._deferred(members, kinds, fg, gf)


def consequences(table, splits, size, weak, strict):
    """Every A1'-A5 instance over indices whose premises hold and whose
    conclusion is not yet strict.

    Yields ``(axiom, (h1, h2), witnesses)``: A1', A2 and A4 conclude
    h1 <= h2, A3 and A5 conclude h1 < h2.  ``witnesses`` is the tuple
    ``check`` prints: ``(h,)`` for A1', ``(x, y, z)`` for A2 (x <= y <= z),
    ``(f, g, alpha, beta, h1, h2)`` for A3 (f < g mixed at beta > alpha),
    ``(f1, g1, f2, g2, alpha, h1, h2)`` for A4 and A5, which walk the
    :func:`mixture_table` ``splits`` by alpha, h1, h2 not yet strict when
    reached, h1's split and h2's (h1 mixes f1 with f2, h2 mixes g1 with g2);
    a pair of trivial splits concludes its own premise, adding no fact and
    never a violation, so it is not yielded, and an h1 and h2 both lacking
    a proper split are not walked.
    A2 and A3 walk copies of ``weak`` and ``strict`` taken when they start,
    so a caller may add conclusions while iterating.
    """
    for h in range(size):
        if (h, h) not in strict:
            yield "A1'", (h, h), (h,)
    above = [[] for _ in range(size)]
    for x, y in weak:
        above[x].append(y)
    for x, y in list(weak):
        for z in above[y]:
            if (x, z) not in strict:
                yield "A2", (x, z), (x, y, z)
    # mixing a strict pair with itself: more weight on the worse side is worse
    for f, g in sorted(strict):
        row = table[f, g]
        for h1, beta, b in row:
            for h2, alpha, a in row:
                if b > a and (h1, h2) not in strict:
                    yield "A3", (h1, h2), (f, g, alpha, beta, h1, h2)
    # mixing two weak facts / a strict with a weak fact at a shared alpha
    for alpha, options in splits.items():
        proper = [h for h, hs in enumerate(options) if len(hs) > 1]
        for h1, fs in enumerate(options):
            for h2 in range(size) if len(fs) > 1 else proper:
                if (h1, h2) not in strict:
                    for f1, f2 in fs:
                        for g1, g2 in options[h2]:
                            if (f1, g1) in weak and (f2, g2) in weak and (f1 != f2 or g1 != g2):
                                witnesses = (f1, g1, f2, g2, alpha, h1, h2)
                                yield "A4", (h1, h2), witnesses
                                if (f1, g1) in strict:
                                    yield "A5", (h1, h2), witnesses


def lift(members, witnesses) -> tuple:
    """``witnesses`` with each int index replaced by its member of ``members``."""
    return tuple(members[w] if type(w) is int else w for w in witnesses)


class Derivation(namedtuple("Derivation", "rule premises")):
    """How a saturated fact was obtained: rule id plus its witnesses; for
    A1'-A5 the witnesses of the matching ``check`` violation."""

    __slots__ = ()


class DerivedFacts(_LastFieldAside, namedtuple("DerivedFacts", "weak strict provenance")):
    """Weak/strict lottery pairs derivable within a family.

    ``provenance`` covers every derived fact over the internal pool
    (family plus degenerate lotteries of the mentioned alternatives) and
    allows each derivation step to be replayed.  It takes no part in
    equality or hashing, and defaults to a new dict.
    """

    __slots__ = ()

    def __new__(cls, weak: frozenset[tuple[Lottery, Lottery]],
                strict: frozenset[tuple[Lottery, Lottery]], provenance: dict | None = None):
        return super().__new__(cls, weak, strict, {} if provenance is None else provenance)


def saturate(rel: BaseRelation, family) -> DerivedFacts:
    """Least fixpoint of the mixture derivation rules over ``family``.

    Seeds weak facts with dominance and strict facts with shift witnesses
    over the pool (family members plus degenerate lotteries on their
    supports): dominance is one bit test per pair on the lotteries'
    profiles in ``rel.profiles``, looked up in pool order, and shift
    transport runs only on the pairs that :func:`up_masses` leaves
    possible.  Then closes under A1'-A5 as :func:`consequences` states
    them, restricted to mixtures that are themselves pool members.  The
    result is restricted to pairs of family members.
    """
    family = list(dict.fromkeys(family))
    degenerates = [Lottery.degenerate(a) for lot in family for a, _ in lot.entries]
    pool = list(dict.fromkeys([*family, *degenerates]))

    # the fixpoint runs on pool indices
    weak: set[tuple[int, int]] = set()
    strict: set[tuple[int, int]] = set()
    prov: dict = {}

    def add(pair, rule, premises, is_strict=False):
        if pair in (strict if is_strict else weak):
            return False
        weak.add(pair)
        if is_strict:
            strict.add(pair)
        prov[pair] = (rule, premises)
        return True

    # x dominates y iff the support bits of y lie in the up_all bits of x
    profiles = [rel.profiles[lot] for lot in pool]
    mass = up_masses(rel, pool)
    for x, y in permutations(range(len(pool)), 2):
        if not profiles[y][0] & ~profiles[x][2]:
            add((x, y), "seed-dominance", (x, y))
        if mass[x] != mass[y] and all(map(le, mass[x], mass[y])):
            plan = shift_reachable(rel, pool[x], pool[y])
            if plan is not None:
                add((x, y), "seed-shift", (x, y, plan), True)

    table, splits = mixture_table(pool)
    changed = True
    while changed:
        changed = False
        for axiom, (x, z), witnesses in consequences(table, splits, len(pool), weak, strict):
            # transitivity: a strict premise makes the conclusion strict
            is_strict = axiom in ("A3", "A5") or axiom == "A2" and x != z and (
                (x, witnesses[1]) in strict or (witnesses[1], z) in strict)
            changed |= add((x, z), axiom, witnesses, is_strict)

    m = len(family)  # family members come first in the pool
    return DerivedFacts(
        weak=frozenset((pool[x], pool[y]) for x, y in weak if x < m and y < m),
        strict=frozenset((pool[x], pool[y]) for x, y in strict if x < m and y < m),
        provenance={
            (pool[x], pool[y]): Derivation(rule, lift(pool, premises))
            for (x, y), (rule, premises) in prov.items()
        },
    )


def maximal_filter(rel: BaseRelation, offers) -> list[tuple[str, Lottery]]:
    """Drop offers certainly strictly dominated by another offer.

    ``offers`` is a sequence of (name, lottery) pairs; an offer is dropped
    only when compare against some other offer is the singleton {Less}.
    Each offer meets the others in descending order of their total mass
    on the up-sets of :func:`up_masses`, input order among equals, so a
    kept offer still runs one compare per other distinct offer.  Output
    preserves input order.
    """
    named = list(offers)
    seen = set()
    for name, _ in named:
        if name in seen:
            raise DuplicateOfferName(name)
        seen.add(name)
    lots = [lot for _, lot in named]
    first = lots[0] if lots else None
    rival = next((lot for lot in lots if lot != first), None)
    if rival is None:  # no two offers differ: nothing to compare
        return named
    # the unknown alternative that an input-order scan meets first: the
    # first compare's lookups, then every offer's alternatives
    rel._require(first.entries[0][0], *(a for a, _ in rival.entries),
                 *(a for lot in lots for a, _ in lot.entries))
    # a strict shift raises the total up-set mass, so the likeliest
    # dominators come first and a dropped offer usually stops at one compare
    totals = [-sum(mass) for mass in up_masses(rel, lots)]
    scan = [lots[k] for k in sorted(range(len(lots)), key=totals.__getitem__)]
    return [
        (name, lot)
        for name, lot in named
        if not any(other != lot and compare(rel, lot, other).members == _ONLY_LESS
                   for other in scan)
    ]
