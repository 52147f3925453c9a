import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partialpref
from partialpref import cli
from partialpref.casetable import bundled_table_text
from partialpref.cli import _COMMANDS, _build_parser, _fast_args, run

DATA = Path(__file__).parent / "data"
BOB = (str(DATA / "bob.prefs"), str(DATA / "bob.lotteries"))


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def main_under_hash_seed(seed, *argv):
    """``partialpref.cli.main`` in a fresh interpreter with PYTHONHASHSEED=seed."""
    src = str(Path(partialpref.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path_var}
    return subprocess.run(
        [sys.executable, "-c", "from partialpref.cli import main; main()", *argv],
        capture_output=True, env=env, timeout=120,
    )


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.prefs"
    path.write_text("a < b\nb < c\n")
    return path


@pytest.fixture
def lots(tmp_path):
    path = tmp_path / "lots.txt"
    path.write_text("f : a@1\ng : c@1\nm : a@1/2, c@1/2\n")
    return path


class TestValidate:
    def test_reports_closure_size(self, chain):
        code, out, err = invoke("validate", str(chain))
        assert code == 0
        assert "3 alternatives" in out and "6 weak pairs" in out

    def test_large_file_builds_no_up_set(self, tmp_path, monkeypatch):
        # validate counts the pairs on the masks; the queries read up-sets
        # of a restriction to their lotteries' alternatives
        alts = [f"x{i}" for i in range(400)]
        prefs = tmp_path / "chain.prefs"
        prefs.write_text("".join(f"{a} < {b}\n" for a, b in zip(alts, alts[1:])))
        lots = tmp_path / "ends.lots"
        lots.write_text("low : x0@1\nhigh : x399@1\nmid : x0@1/2, x200@1/2\n")
        built = []
        load = cli._load_relation
        monkeypatch.setattr(cli, "_load_relation", lambda path: built.append(load(path)) or built[-1])
        assert invoke("validate", str(prefs)) == (
            0, "universe: 400 alternatives; closure: 80200 weak pairs\n", "")
        assert invoke("compare", str(prefs), str(lots), "low", "high") == (0, "<\n", "")
        assert invoke("filter", str(prefs), str(lots)) == (0, "high\n", "")
        assert invoke("saturate", str(prefs), str(lots))[1].splitlines()[:2] == [
            "low < high", "low < mid"]
        assert len(built) == 4
        assert all("up" not in vars(rel) for rel in built)

    def test_strict_violation_exits_2(self, tmp_path):
        path = tmp_path / "bad.prefs"
        path.write_text("a < b\nb <= a\n")
        code, out, err = invoke("validate", str(path))
        assert code == 2
        assert "violated" in err

    def test_parse_error_exits_1(self, tmp_path):
        path = tmp_path / "bad.prefs"
        path.write_text("a << b\n")
        code, out, err = invoke("validate", str(path))
        assert code == 1
        assert "line 1" in err

    def test_missing_file_exits_1(self, tmp_path):
        code, _, err = invoke("validate", str(tmp_path / "absent.prefs"))
        assert code == 1

    @pytest.mark.parametrize("path", ["./absent.prefs", "golden//absent.prefs", "golden/", ""])
    def test_unreadable_path_named_as_given(self, monkeypatch, path):
        monkeypatch.chdir(DATA)
        code, out, err = invoke("validate", path)
        assert (code, out) == (1, "")
        assert err.endswith(f"{path!r}\n")


class TestCompare:
    def test_certain_strict(self, chain, lots):
        code, out, _ = invoke("compare", str(chain), str(lots), "f", "g")
        assert code == 0
        assert out == "<\n"

    def test_verbose_provenance(self, chain, lots):
        code, out, _ = invoke("--verbose", "compare", str(chain), str(lots), "f", "g")
        assert code == 0
        assert "R3" in out

    def test_tsv_format(self, chain, lots):
        code, out, _ = invoke("--format", "tsv", "compare", str(chain), str(lots), "f", "g")
        assert out == "f\tg\t<\n"

    def test_verbose_plan_identical_across_hash_seeds(self, tmp_path):
        # R3 fires with several valid transport plans here; the printed one
        # must not depend on set iteration order
        prefs = tmp_path / "p.prefs"
        prefs.write_text(
            "a0 <= a2\na0 <= a3\na0 <= a4\na0 <= a5\na1 <= a2\na1 <= a3\n"
            "a1 <= a4\na1 <= a5\na3 <= a2\na3 <= a4\na3 <= a5\na4 <= a2\n"
            "a4 <= a5\na5 <= a2\na5 <= a4\n"
        )
        lots = tmp_path / "l.txt"
        lots.write_text(
            "f : a0@1/6, a1@1/12, a2@1/12, a3@7/12, a4@1/12\n"
            "g : a2@1/2, a3@1/3, a5@1/6\n"
        )
        outputs = set()
        for seed in ("0", "1", "2", "3", "4", "5"):
            proc = main_under_hash_seed(
                seed, "--verbose", "compare", str(prefs), str(lots), "f", "g"
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert b"R3 shift f => g with plan" in outputs.pop()

    def test_unknown_name_is_usage_error(self, chain, lots):
        code, _, err = invoke("compare", str(chain), str(lots), "f", "zz")
        assert code == 1
        assert "zz" in err

    def test_normalize_flag(self, chain, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("f : a@2\ng : c@3, c@1\n")
        code, out, _ = invoke("--normalize", "compare", str(chain), str(path), "f", "g")
        assert code == 0
        assert out == "<\n"


class TestFilter:
    def test_bob_scenario(self):
        code, out, _ = invoke(
            "filter", str(DATA / "bob.prefs"), str(DATA / "bob.lotteries")
        )
        assert code == 0
        assert out.splitlines() == ["carl_one_to_one", "mary_three"]

    def test_deterministic(self, chain, lots):
        runs = {invoke("filter", str(chain), str(lots))[1] for _ in range(3)}
        assert len(runs) == 1


class TestTable:
    def test_emit_matches_bundled(self):
        code, out, _ = invoke("table", "--emit")
        assert code == 0
        assert out == bundled_table_text()

    def test_emit_is_default(self):
        assert invoke("table")[1] == bundled_table_text()

    def test_verify_match_exits_0(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(bundled_table_text())
        code, out, _ = invoke("table", "--verify", str(path))
        assert code == 0
        assert "matches" in out

    def test_verify_mismatch_exits_3(self, tmp_path):
        lines = bundled_table_text().splitlines()
        lines[0] = "~~~~ -> ~ #"
        path = tmp_path / "table.txt"
        path.write_text("\n".join(lines))
        code, _, err = invoke("table", "--verify", str(path))
        assert code == 3
        assert "~~~~" in err

    def test_verify_repeated_row_exits_1(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("~~~~ -> < >\n" + bundled_table_text())
        assert invoke("table", "--verify", str(path)) == (
            1, "", "line 2, column 1: expected one row per left side: '~~~~' is also on line 1\n"
        )


class TestCheck:
    def test_clean_model_exits_0(self, chain, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "f : a@1\ng : b@1\n"
            "f <= f\ng <= g\nf <= g\n"
        )
        code, out, _ = invoke("check", str(chain), str(path))
        assert code == 0
        assert "no violations" in out

    def test_violations_exit_4(self, chain, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "f : a@1\ng : b@1\nh : c@1\n"
            "f <= f\ng <= g\nh <= h\nf <= g\ng <= h\n"
        )
        code, out, _ = invoke("check", str(chain), str(path))
        assert code == 4
        assert "A2" in out

    def test_output_identical_across_hash_seeds(self, chain, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "f : a@1\ng : c@1\nm : a@1/2, c@1/2\n"
            "q : a@1/4, c@3/4\nr : a@3/4, c@1/4\n"
            "f <= f\ng <= g\nm <= m\nr <= r\n"
            "f <= g\ng <= m\nm <= q\nq <= r\nr <= g\nf <= m\n"
        )
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            proc = main_under_hash_seed(seed, "check", str(chain), str(path))
            assert proc.returncode == 4, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        lines = outputs.pop().decode().splitlines()
        axioms = [line.split(":")[0] for line in lines]
        assert axioms == sorted(axioms)  # grouped by axiom, A1' first
        assert {"A1'", "A2", "A3", "A4", "A5", "A6"} <= set(axioms)

    def test_witness_labelled_by_first_name(self, tmp_path):
        prefs = tmp_path / "ab.prefs"
        prefs.write_text("alt a\nalt b\n")
        path = tmp_path / "model.txt"
        path.write_text("f : a@1\ng : a@1\nh : b@1\nh <= h\n")
        assert invoke("check", str(prefs), str(path)) == (4, "A1': f\n", "")

    def test_unknown_model_name_exits_1(self, chain, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("f : a@1\nf <= q\n")
        code, _, err = invoke("check", str(chain), str(path))
        assert code == 1


class TestInputErrorsPlaced:
    """Each malformed input exits 1 naming its line and column."""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("validate", "a < b!\n", "line 1, column 5: malformed identifier: 'b!'"),
            ("filter", "f : a!@1\n", "line 1, column 5: malformed identifier: 'a!'"),
            ("filter", "g : a@1\nf : a@1/2, b@1/3\n",
             "line 2, column 5: weights sum to 5/6, expected 1"),
            ("filter", "f : a@1, b@-1/2\n", "line 1, column 5: negative weight -1/2 for 'b'"),
            ("filter", "f : a@0\n", "line 1, column 5: lottery has empty support"),
            ("check", "f : a@1\nf <= f\n\nf <= zz\n",
             "line 4, column 6: unknown lottery name in model: 'zz'"),
            ("filter", "f : a@1\n f : b@1\n", "line 2, column 2: duplicate name: 'f'"),
            # the bad token's text also occurs earlier in its line
            ("filter", "a : a@1/2, b@a\n",
             "line 1, column 14: expected exact rational p/q or integer (floats are rejected)"),
            ("validate", "a<< << b\n", "line 1, column 6: expected operator <, <= or ~"),
            ("filter", "f : a@1/0\n", "line 1, column 7: expected nonzero denominator"),
            ("check", "f : a@1\ng : b@1\nf <= g!\n", "line 3, column 6: malformed identifier: 'g!'"),
        ],
        ids=["malformed-id", "malformed-alternative", "not-normalized", "negative-weight",
             "zero-weight", "unknown-model-name", "duplicate-name", "weight-text-earlier",
             "stray-angle-text-earlier", "zero-denominator", "malformed-model-name"],
    )
    def test_error_names_line_and_column(self, chain, tmp_path, command, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = [command, str(path)] if command == "validate" else [command, str(chain), str(path)]
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", message + "\n")

    @pytest.mark.parametrize("command", ["compare", "filter", "saturate"])
    def test_unknown_alternative_placed_at_first_mention(self, chain, tmp_path, command):
        # zz is weighted 0 in f, so f itself is known; g's zz is the one
        # looked up, but the first mention is the one placed
        path = tmp_path / "input.txt"
        path.write_text("# zz in a comment\nf : a@1, zz@0\ng :  b@1/2,zz@1/2\n")
        extra = ["g", "f"] if command == "compare" else []
        code, out, err = invoke(command, str(chain), str(path), *extra)
        assert (code, out) == (1, "")
        assert err == "line 2, column 10: alternative not in universe: 'zz'\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["filter"], "f : a@1/2, zz@1/2\n"),
            (["filter"], "f : a@1/2, zz@1/2\ng : zz@1/2, a@1/2\n"),
            (["compare", "f", "f"], "f : a@1/2, zz@1/2\n"),
            (["compare", "f", "g"], "f : a@1/2, zz@1/2\ng : zz@1/2, a@1/2\n"),
        ],
        ids=["filter-one-offer", "filter-one-distribution", "compare-itself",
             "compare-one-distribution"],
    )
    def test_unknown_alternative_never_looked_up_is_placed(self, chain, tmp_path, argv, text):
        # the engine compares no two distinct lotteries here, so it looks
        # up no alternative; the unknown one is still an error
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out, err = invoke(argv[0], str(chain), str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == "line 1, column 12: alternative not in universe: 'zz'\n"

    def test_unknown_alternative_never_looked_up_named_in_file_order(self, chain, tmp_path):
        # offers in file order, each lottery's alternatives in entries
        # order: yy before zz, though zz comes first in the text of g
        path = tmp_path / "input.txt"
        path.write_text("f : a@1/2, yy@1/4, zz@1/4\ng : zz@1/4, a@1/2, yy@1/4\n")
        for argv in (["filter"], ["compare", "g", "f"], ["compare", "g", "g"]):
            code, out, err = invoke(argv[0], str(chain), str(path), *argv[1:])
            assert (code, out) == (1, "")
            assert err == "line 1, column 12: alternative not in universe: 'yy'\n"

    @pytest.mark.parametrize(
        "text, place, ident",
        [
            ("f : a@1\ng : b@1/2, zz@1/2\nf <= f\ng <= g\nf <= g\n", "line 2, column 12", "zz"),
            # a comment is no mention
            ("# zz\nf : a@1\nf <= g\ng : zz@1\n", "line 4, column 5", "zz"),
            # lotteries in file order, each one's alternatives in entries
            # order: yy before zz, though zz comes first in the text
            ("f : a@1/2, yy@1/2\ng : zz@1/2, yy@1/2\n", "line 1, column 12", "yy"),
            ("f : zz@1/2, a@1/4, yy@1/4\n", "line 1, column 20", "yy"),
        ],
        ids=["clean-model", "after-a-comment", "file-order", "entries-order"],
    )
    def test_check_rejects_an_alternative_outside_the_universe(self, chain, tmp_path, text,
                                                               place, ident):
        path = tmp_path / "input.model"
        path.write_text(text)
        code, out, err = invoke("check", str(chain), str(path))
        assert (code, out) == (1, "")
        assert err == f"{place}: alternative not in universe: {ident!r}\n"

    @pytest.mark.parametrize("command, code", [("validate", 2), ("filter", 1), ("saturate", 1)])
    def test_strict_violation_placed_at_declaration(self, lots, tmp_path, command, code):
        path = tmp_path / "bad.prefs"
        path.write_text("a < b\n  c < d\n\n d <= c  # contradicts line 2\n")
        argv = [command, str(path)] + ([str(lots)] if command != "validate" else [])
        got, out, err = invoke(*argv)
        assert (got, out) == (code, "")
        assert err == (
            "line 2, column 3: strict fact c < d violated: closure also contains d <= c\n"
        )


class TestNotUtf8:
    @pytest.mark.parametrize("role", ["prefs", "lotteries", "model", "transcription"])
    def test_undecodable_file_exits_1(self, chain, lots, tmp_path, role):
        bad = tmp_path / f"bad.{role}"
        bad.write_bytes(b"# fine\nf : a\xff\xfe@1\n")
        argv = {
            "prefs": ["validate", str(bad)],
            "lotteries": ["compare", str(chain), str(bad), "f", "g"],
            "model": ["check", str(chain), str(bad)],
            "transcription": ["table", "--verify", str(bad)],
        }[role]
        code, out, err = invoke(*argv)
        assert (code, out) == (1, "")
        assert err == f"{bad}: line 2, column 6: expected UTF-8 text\n"

    @pytest.mark.parametrize(
        "data, place",
        [(b"a < b\rc \xff\n", "line 2, column 3"), (b"a < b\r\n\xc3\xa9 \xff", "line 2, column 4")],
        ids=["cr", "column-counts-bytes"],
    )
    def test_placed_by_line_ends_and_bytes(self, tmp_path, data, place):
        bad = tmp_path / "bad.prefs"
        bad.write_bytes(data)
        assert invoke("validate", str(bad)) == (1, "", f"{bad}: {place}: expected UTF-8 text\n")


class TestSaturate:
    def test_mixture_facts_printed(self, chain, lots):
        code, out, _ = invoke("saturate", str(chain), str(lots))
        assert code == 0
        assert out.splitlines() == ["f < g", "f < m", "m < g"]

    def test_tsv(self, chain, lots):
        code, out, _ = invoke("--format", "tsv", "saturate", str(chain), str(lots))
        assert "f\t<\tg" in out.splitlines()

    def test_every_name_of_one_distribution_printed(self, tmp_path):
        prefs, lots = tmp_path / "ab.prefs", tmp_path / "lots.txt"
        prefs.write_text("a < b\n")
        lots.write_text("f : a@1\ng : a@1\nh : b@1\n")
        code, out, _ = invoke("saturate", str(prefs), str(lots))
        assert code == 0
        assert out.splitlines() == ["f <= g", "f < h", "g <= f", "g < h"]

    def test_unknown_alternative_identical_across_hash_seeds(self, tmp_path):
        prefs, lots = tmp_path / "ab.prefs", tmp_path / "lots.txt"
        prefs.write_text("a < b\n")
        lots.write_text("f : a@1/4, zq@1/4, yk@1/4, xm@1/4\n")
        for seed in ("0", "1", "2", "3", "4", "5", "6", "7"):
            proc = main_under_hash_seed(seed, "saturate", str(prefs), str(lots))
            assert (proc.returncode, proc.stdout) == (1, b""), seed
            assert proc.stderr == b"line 1, column 28: alternative not in universe: 'xm'\n", seed


class TestUsage:
    def test_no_subcommand(self):
        assert invoke()[0] == 1

    def test_unknown_subcommand(self):
        assert invoke("frobnicate")[0] == 1

    def test_parser_reuse_matches_fresh_processes(self):
        # one process serves several requests; no parser state may leak
        # from one call into the next
        requests = [
            ["compare"],
            ["validate", BOB[0]],
            ["--format", "tsv", "compare", *BOB, "mary_one_to_one", "mary_three"],
            ["compare", *BOB, "carl_five", "carl_one_to_one"],
        ]
        codes = []
        for argv in requests:
            code, out, _ = invoke(*argv)
            fresh = main_under_hash_seed("0", *argv)
            assert (code, out) == (fresh.returncode, fresh.stdout.decode()), argv
            codes.append(code)
        assert codes == [1, 0, 0, 0]


class TestGolden:
    def test_outputs_match_recorded(self, monkeypatch):
        """stdout and exit codes equal those recorded in ``golden/cli.json``.

        The record covers ``validate``, ``filter`` and ``compare`` (text,
        TSV and verbose) on ``bob.*`` and on ``golden/layered.*``: a seeded
        preorder of ten layers of 18 alternatives with skip edges, ``~``
        twins, one weak cycle and isolated ``alt`` declarations (200
        alternatives), and 18 lotteries over it.  It also covers ``check``
        on a clean model and on models that report each axiom tag A1' to
        A6 (``golden/*.model``), and ``saturate`` (text and TSV) on
        ``golden/mix.*``.
        """
        monkeypatch.chdir(DATA)
        cases = json.loads((DATA / "golden" / "cli.json").read_text("utf-8"))
        assert len(cases) == 56
        wrong = [
            case["argv"]
            for case in cases
            if invoke(*case["argv"])[:2] != (case["code"], case["stdout"])
        ]
        assert wrong == []


def python_s(code, **kwargs):
    """``code`` in a fresh ``python -S``: no ``site``, and no ``.pth`` file
    importing modules first."""
    src = str(Path(partialpref.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60, **kwargs,
    )


START_UP_ONLY = {
    "dataclasses", "inspect", "importlib.resources", "typing",
    "argparse", "gettext", "locale", "pathlib",
}


def test_cold_import_skips_start_up_only_modules():
    """Importing the CLI loads no module that only costs start-up time."""
    proc = python_s("import sys, partialpref.cli; print(*sys.modules)")
    loaded = set(proc.stdout.split())
    assert "partialpref.cli" in loaded, proc.stderr
    assert loaded & START_UP_ONLY == set()


def test_documented_commands_run_without_argparse():
    commands = [
        ["validate", "bob.prefs"],
        ["--verbose", "compare", *BOB, "carl_one_to_one", "carl_five"],
        ["--normalize", "filter", *BOB],
        ["table", "--verify", str(Path(partialpref.__file__).parent / "data" / "case_table.txt")],
        ["check", "golden/mix.prefs", "golden/a1.model"],
        ["--format", "tsv", "saturate", "golden/mix.prefs", "golden/mix.lotteries"],
    ]
    code = (
        "import io, sys\n"
        "from partialpref.cli import run\n"
        f"print(*(run(argv, io.StringIO(), io.StringIO()) for argv in {commands!r}))\n"
        "print(*sys.modules)\n"
    )
    proc = python_s(code, cwd=DATA)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.splitlines()
    assert codes.split() == ["0", "0", "0", "0", "4", "0"], proc.stderr
    assert set(loaded.split()) & START_UP_ONLY == set()


def argparse_outcome(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


GLOBAL_FLAGS = [[]] + [
    " ".join(combo).split()
    for n in (1, 2, 3)
    for combo in itertools.product(
        ["--verbose", "--normalize", "--format text", "--format tsv"], repeat=n
    )
]
DOCUMENTED = [
    [name, *(f"{p}.arg" for p in positionals)] for name, (_, _, positionals) in _COMMANDS.items()
]
DOCUMENTED += [["table", "--emit"], ["table", "--verify", "t"]]


def argv_corpus():
    """Each documented shape and its missing, extra and misplaced
    arguments, the edge tokens around them, and an unknown subcommand,
    each under every global-flag combination."""
    shapes = [s for shape in DOCUMENTED for s in (shape, shape[:-1], shape + ["extra"])]
    shapes += [
        ["table", "--emit", "--verify", "t"], ["table", "--emit", "--emit"], ["frobnicate", "p"]
    ]
    edges = ["-h", "--help", "--verb", "--format=tsv", "--format xml", "--", "-x", "-1", ""]
    for token in [edge.split(" ") if " " in edge else [edge] for edge in edges]:
        for shape in ["validate", "p"], ["compare", "p", "l", "n1", "n2"], ["table", "--verify", "t"]:
            shapes += [token + shape, shape[:1] + token + shape[1:], shape + token, shape[:-1] + token]
    return [flags + shape for flags in GLOBAL_FLAGS for shape in shapes]


class TestFastArgs:
    def test_agrees_with_argparse(self):
        for argv in argv_corpus():
            fast = _fast_args(argv)
            assert fast is None or vars(fast) == argparse_outcome(argv), argv

    def test_answers_every_documented_shape(self):
        for argv in (flags + shape for flags in GLOBAL_FLAGS for shape in DOCUMENTED):
            assert _fast_args(argv) is not None, argv


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse's wording differs between Python versions"
)
def test_help_usage_and_file_errors_match_record(monkeypatch, capsys):
    """stdout, stderr and exit code of help, usage errors and unreadable
    files equal those recorded in ``golden/usage.json`` (Python 3.11, 80
    columns)."""
    monkeypatch.chdir(DATA)
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads((DATA / "golden" / "usage.json").read_text("utf-8"))
    for case in cases:
        code = run(case["argv"])
        recorded = case["code"], case["stdout"], case["stderr"]
        assert (code, *capsys.readouterr()) == recorded, case["argv"]
