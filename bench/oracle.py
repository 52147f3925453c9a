"""Known answers for the benchmark, computed without the program under test.

Every preference file the benchmark writes is generated from K integer
utility functions: a pair is declared ``<``/``<=`` only when it is strictly
ordered under every utility, and ``~`` only when it is equal under all of
them.  Expected-utility (EU) arithmetic on those utilities then gives
answers that any sound reasoner must agree with.  This module imports
nothing from ``partialpref``.
"""

from __future__ import annotations

from fractions import Fraction


def eu(lottery: dict[str, Fraction], utility: dict[str, int]) -> Fraction:
    """Expected utility of a lottery given as {alternative: weight}."""
    return sum((w * utility[a] for a, w in lottery.items()), Fraction(0))


def sign(x: Fraction, y: Fraction) -> str:
    return "<" if x < y else ">" if x > y else "~"


def closure_size(universe, edges) -> int:
    """Pairs in the reflexive-transitive closure of directed ``edges``."""
    succ: dict[str, list[str]] = {a: [] for a in universe}
    for a, b in edges:
        succ[a].append(b)
    total = 0
    for start in universe:
        seen = {start}
        stack = [start]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        total += len(seen)
    return total


def check_validate(expect, code, out, err):
    if code != 0:
        return f"exit {code}, expected 0"
    if out != expect["stdout"]:
        return f"stdout {out!r}, expected {expect['stdout']!r}"
    return None


def check_compare(expect, code, out, err):
    """A singleton verdict must agree with EU order under every utility;
    on a total preorder the EU judgment must be a member of the verdict."""
    if code != 0:
        return f"exit {code}, expected 0"
    verdict = out.split()
    if not verdict or len(set(verdict)) != len(verdict) or not set(verdict) <= {"~", "<", ">", "#"}:
        return f"malformed verdict {out!r}"
    signs = expect["eu_signs"]
    if len(verdict) == 1 and any(s != verdict[0] for s in signs):
        return f"singleton verdict {verdict[0]} contradicts EU judgments {signs}"
    if expect["total"] and signs[0] not in verdict:
        return f"EU judgment {signs[0]} missing from verdict {verdict} on a total preorder"
    return None


def check_filter(expect, code, out, err):
    """Every EU-argmax offer is kept; every dropped offer has another offer
    with strictly higher EU under every utility."""
    if code != 0:
        return f"exit {code}, expected 0"
    kept = out.splitlines()
    names = expect["names"]
    position = {n: i for i, n in enumerate(names)}
    if any(n not in position for n in kept):
        return "output names an unknown offer"
    order = [position[n] for n in kept]
    if order != sorted(set(order)):
        return "kept offers are not a duplicate-free subsequence of the input"
    kept_set = set(kept)
    missing = [n for n in expect["must_keep"] if n not in kept_set]
    if missing:
        return f"EU-argmax offers dropped: {missing}"
    droppable = set(expect["may_drop"])
    wrong = [n for n in names if n not in kept_set and n not in droppable]
    if wrong:
        return f"offers dropped without an EU-dominating offer: {wrong}"
    return None


def check_saturate(expect, code, out, err):
    """Every ``x < y`` / ``x <= y`` line holds in EU under every utility."""
    if code != 0:
        return f"exit {code}, expected 0"
    values = {name: [Fraction(v) for v in vs] for name, vs in expect["eu"].items()}
    seen = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("<", "<=") or parts[0] == parts[2]:
            return f"malformed line {line!r}"
        x, op, y = parts
        if x not in values or y not in values or (x, y) in seen:
            return f"unknown or repeated pair in {line!r}"
        seen.add((x, y))
        for vx, vy in zip(values[x], values[y]):
            if vx > vy or (op == "<" and vx == vy):
                return f"{line!r} fails in EU ({vx} vs {vy})"
    return None


def check_check(expect, code, out, err):
    """EU models are clean; each mutation has a provable violation tag."""
    tag = expect["tag"]
    if tag is None:
        if code != 0 or out != "no violations\n":
            return f"exit {code} with {out[:80]!r}, expected a clean model"
        return None
    if code != 4:
        return f"exit {code}, expected 4"
    tags = {line.partition(": ")[0] for line in out.splitlines()}
    if tag not in tags:
        return f"tag {tag} not reported (got {sorted(tags)})"
    return None


def check_table(expect, code, out, err):
    bad_row = expect["bad_row"]
    if bad_row is None:
        if code != 0 or out != "table matches transcription\n":
            return f"exit {code} with {out!r}, expected a match"
        return None
    if code != 3:
        return f"exit {code}, expected 3"
    diffs = err.splitlines()
    if len(diffs) != 1 or not diffs[0].startswith(f"{bad_row}: transcription ["):
        return f"expected exactly the mutated row {bad_row} in {diffs[:3]}"
    return None


CHECKS = {
    "validate": check_validate,
    "compare": check_compare,
    "filter": check_filter,
    "saturate": check_saturate,
    "check": check_check,
    "table": check_table,
}


def verify(request, code, out, err):
    """None when the output is right, else a one-line reason."""
    return CHECKS[request["argv"][0]](request["expect"], code, out, err)


def canonical(request, out: str) -> str:
    """Output in a form that does not depend on PYTHONHASHSEED.

    ``check`` prints its violation lines in hash order, so they are compared
    as a multiset.
    """
    if request["argv"][0] == "check":
        return "".join(sorted(out.splitlines(keepends=True)))
    return out
