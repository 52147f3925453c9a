"""Command-line front end.

Subcommands: validate, compare, filter, table, check, saturate.  Results
go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage or
parse error, 2 strict-fact violation, 3 table mismatch, 4 axiom
violations.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from types import SimpleNamespace

from . import casetable, dsl, engine
from .errors import NotUtf8, PrefError, StrictViolation, TableMismatch, UnknownAlternative
from .relation import render_symbols


@functools.cache
def _build_parser():
    """The argparse parser of every subcommand in :data:`_COMMANDS`, built
    only for the argvs :func:`_fast_args` leaves to it: help, usage errors
    and other spellings."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="partialpref",
        description="Reason about partial preferences over alternatives and lotteries.",
    )
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    parser.add_argument("--verbose", action="store_true", help="include rule provenance")
    parser.add_argument(
        "--normalize", action="store_true", help="rescale lottery weights to sum to 1"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for positional in positionals:
            p.add_argument(positional)
    group = sub.choices["table"].add_mutually_exclusive_group()
    group.add_argument("--emit", action="store_true")
    group.add_argument("--verify", metavar="TRANSCRIPTION")
    return parser


def _fast_args(argv):
    """The namespace argparse gives for an argv of one of the documented
    shapes, or None for every other argv.

    Leading ``--verbose``, ``--normalize`` and ``--format text|tsv`` (last
    wins), then a subcommand and exactly its positionals, none starting
    with ``-``; ``table`` takes nothing, ``--emit`` or ``--verify PATH``.
    """
    args = {"format": "text", "verbose": False, "normalize": False}
    tokens = iter(argv)
    for token in tokens:
        if token == "--format":
            args["format"] = next(tokens, None)
            if args["format"] not in ("text", "tsv"):
                return None
        elif token in ("--verbose", "--normalize"):
            args[token[2:]] = True
        else:
            break
    else:
        return None
    if token not in _COMMANDS:
        return None
    args["subcommand"] = token
    rest, names = list(tokens), _COMMANDS[token][2]
    if token == "table":  # the one subcommand with options
        args.update(emit=rest == ["--emit"], verify=None)
        if args["emit"]:
            rest = []
        elif rest[:1] == ["--verify"]:
            rest, names = rest[1:], ("verify",)
    if len(rest) != len(names) or any(t.startswith("-") for t in rest):
        return None
    args.update(zip(names, rest))
    return SimpleNamespace(**args)


def _read_text(path: str) -> str:
    """The file as UTF-8; a byte that does not decode is placed by line and
    byte column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = dsl.split_lines(data[: exc.start].decode("utf-8"))
        raise NotUtf8(path, len(lines), len(lines[-1].encode("utf-8")) + 1) from None


def _load_relation(path: str):
    return dsl.relation_from_document(dsl.parse_prefs(_read_text(path)))


def _load_lotteries(path: str, normalize: bool):
    """The named lotteries of a lottery file, and the file's text."""
    text = _read_text(path)
    return dsl.lotteries_from_document(dsl.parse_lotteries(text), normalize=normalize), text


@contextlib.contextmanager
def _placed_in(text: str):
    """Place an unknown alternative at its first mention in the lottery
    file ``text``."""
    try:
        yield
    except UnknownAlternative as exc:
        place = dsl.locate_alternative(text, exc.ident)
        raise exc.at(*place) if place else exc


def _cmd_validate(args, out, err) -> int:
    try:
        rel = _load_relation(args.prefs)
    except StrictViolation as exc:
        print(str(exc), file=err)
        return 2
    closure = sum(len(above) for above in rel.up.values())
    print(
        f"universe: {len(rel.universe)} alternatives; closure: {closure} weak pairs",
        file=out,
    )
    return 0


def _cmd_compare(args, out, err) -> int:
    rel = _load_relation(args.prefs)
    lots, text = _load_lotteries(args.lotteries, args.normalize)
    for name in (args.name1, args.name2):
        if name not in lots:
            print(f"unknown lottery name: {name!r}", file=err)
            return 1
    with _placed_in(text):
        verdict = engine.compare(rel, lots[args.name1], lots[args.name2])
    if args.format == "tsv":
        line = dsl.render_verdict(verdict, verbose=args.verbose, sep="\t")
        print(f"{args.name1}\t{args.name2}\t{line}", file=out)
    else:
        print(dsl.render_verdict(verdict, verbose=args.verbose), file=out)
    return 0


def _cmd_filter(args, out, err) -> int:
    rel = _load_relation(args.prefs)
    lots, text = _load_lotteries(args.lotteries, args.normalize)
    with _placed_in(text):
        kept = engine.maximal_filter(rel, list(lots.items()))
    for name, _ in kept:
        print(name, file=out)
    return 0


def _cmd_table(args, out, err) -> int:
    if args.verify is not None:
        try:
            casetable.verify_table(_read_text(args.verify))
        except TableMismatch as exc:
            for case, expected, computed in exc.diffs:
                exp = render_symbols(expected) if expected else "(missing)"
                got = render_symbols(computed) if computed else "(missing)"
                print(f"{case.symbols()}: transcription [{exp}] != computed [{got}]", file=err)
            return 3
        print("table matches transcription", file=out)
        return 0
    out.write(casetable.render_table(casetable.regenerate_table()))
    return 0


def _cmd_check(args, out, err) -> int:
    rel = _load_relation(args.prefs)
    doc, pairs = dsl.parse_model(_read_text(args.model))
    lots = dsl.lotteries_from_document(doc, normalize=args.normalize)
    weak = frozenset((lots[left], lots[right]) for left, right in pairs)
    model = casetable.FiniteModel(family=tuple(lots.values()), weak=weak)
    violations = casetable.check_axioms(model, rel)
    name_of = {lot: name for name, lot in reversed(lots.items())}  # the first name wins

    def label(w):
        return name_of.get(w, str(w))

    for v in violations:
        witnesses = ", ".join(label(w) for w in v.witnesses)
        print(f"{v.axiom}: {witnesses}", file=out)
    if violations:
        return 4
    print("no violations", file=out)
    return 0


def _cmd_saturate(args, out, err) -> int:
    rel = _load_relation(args.prefs)
    lots, text = _load_lotteries(args.lotteries, args.normalize)
    with _placed_in(text):
        facts = engine.saturate(rel, list(lots.values()))
    sep = "\t" if args.format == "tsv" else " "
    for x, f in lots.items():
        for y, g in lots.items():
            if x != y and (f, g) in facts.weak:
                op = "<" if (f, g) in facts.strict else "<="
                print(f"{x}{sep}{op}{sep}{y}", file=out)
    return 0


# every subcommand in help order: (handler, help line, positional names)
_COMMANDS = {
    "validate": (_cmd_validate, "build and validate a preference file", ("prefs",)),
    "compare": (
        _cmd_compare, "judge a pair of named lotteries", ("prefs", "lotteries", "name1", "name2")
    ),
    "filter": (
        _cmd_filter, "keep only offers that are not certainly dominated", ("prefs", "lotteries")
    ),
    "table": (_cmd_table, "emit or verify the exhaustive case table", ()),
    "check": (_cmd_check, "check an explicit finite model against the axioms", ("prefs", "model")),
    "saturate": (
        _cmd_saturate, "derive weak/strict facts over a lottery family", ("prefs", "lotteries")
    ),
}


def run(argv, out=None, err=None) -> int:
    """Run the CLI with explicit argv and streams; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _fast_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 1 if exc.code else 0
    try:
        return _COMMANDS[args.subcommand][0](args, out, err)
    except (PrefError, OSError) as exc:
        print(str(exc), file=err)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
