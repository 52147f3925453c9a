"""Self-tests of the benchmark: tracer, generators and known-answer checks.

    python3 -m pytest -q bench
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402
from partialpref import casetable, cli, dsl, engine, lottery  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = tuple(workloads.COUNTS)


def invoke(argv, cwd):
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        code = cli.run(list(argv), out=out, err=err)
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


def write_inputs(inputs, directory):
    for name, text in inputs.files.items():
        (directory / name).write_text(text, "utf-8")


# --- tracer ---------------------------------------------------------------


def test_incomparable_offers_give_exact_call_counts(tmp_path):
    n = 6
    (tmp_path / "p.prefs").write_text("".join(f"alt a{i}\n" for i in range(n)))
    (tmp_path / "o.lots").write_text("".join(f"o{i} : a{i}@1\n" for i in range(n)))
    with Tracer() as tracer:
        code, out, _ = invoke(["filter", "p.prefs", "o.lots"], tmp_path)
    assert code == 0 and len(out.split()) == n
    layers = tracer.layer_metrics(1)
    assert layers["engine.compare.calls"] == n * (n - 1)
    assert layers["engine.shift_reachable.calls"] == 2 * n * (n - 1)
    assert layers["engine.maximal_filter.compares_per_offer"] == n - 1
    assert layers["engine.maximal_filter.drop_ratio"] == 0


def test_decompose_counted_through_every_binding():
    f, g = lottery.Lottery.degenerate("a"), lottery.Lottery.degenerate("b")
    h = lottery.convex_combine(1, f, g)
    mid = lottery.convex_combine(Fraction(1, 2), f, g)
    with Tracer() as tracer:
        lottery.decompose(mid, f, g)
        engine.decompose(mid, f, g)
        casetable.decompose(h, f, g)  # boundary: no proper coefficient
    layers = tracer.layer_metrics(1)
    assert layers["lottery.decompose.calls"] == 3
    assert layers["lottery.decompose.hit_ratio"] == pytest.approx(2 / 3)


def test_tracer_restores_every_binding(tmp_path):
    def bindings():
        out = {}
        for name, module in sys.modules.items():
            if name == "partialpref" or name.startswith("partialpref."):
                out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
        out["Lottery.__hash__"] = lottery.Lottery.__dict__["__hash__"]
        return out

    before = bindings()
    original_compare = engine.compare
    with Tracer() as tracer:
        assert engine.compare is not original_compare
        assert casetable.decompose is not before[("partialpref.casetable", "decompose")]
        hash(lottery.Lottery.degenerate("a"))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.hash_calls >= 1


# --- generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a = workloads.generate(workload, 7, ROOT, count=6)
    b = workloads.generate(workload, 7, ROOT, count=6)
    c = workloads.generate(workload, 8, ROOT, count=6)
    assert a.files == b.files and a.requests == b.requests and a.first == b.first
    assert a.digest() != c.digest()


def test_inputs_do_not_depend_on_hash_seed():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads, pathlib; "
        "print([workloads.generate(w, 3, pathlib.Path(sys.argv[2]), count=6).digest() "
        "for w in workloads.COUNTS])"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code, str(BENCH), str(ROOT)],
            env=dict(os.environ, PYTHONHASHSEED=seed), capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


_WEIGHT = re.compile(r"@([^,\s]+)")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_files_parse_and_weights_are_exact(workload):
    inputs = workloads.generate(workload, 11, ROOT, count=8)
    for name, text in inputs.files.items():
        for weight in _WEIGHT.findall(text):
            assert re.fullmatch(r"\d+(/\d+)?", weight), (name, weight)
        if name.endswith(".prefs"):
            dsl.relation_from_document(dsl.parse_prefs(text))
        elif name.endswith(".lots"):
            dsl.lotteries_from_document(dsl.parse_lotteries(text))
        elif name.endswith(".model"):
            dsl.lotteries_from_document(dsl.parse_model(text)[0])
        else:
            assert casetable.parse_table(text)


# --- known-answer checks --------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_answers_hold_on_the_program(workload, tmp_path):
    inputs = workloads.generate(workload, 5, ROOT, count=12)
    write_inputs(inputs, tmp_path)
    for request in [inputs.first] + inputs.requests:
        result = invoke(request["argv"], tmp_path)
        assert oracle.verify(request, *result) is None, request["argv"]


def _find(inputs, predicate):
    return next(r for r in inputs.requests if predicate(r))


def test_checks_reject_wrong_answers(tmp_path):
    inputs = workloads.generate("filter-query", 5, ROOT, count=24)
    request = _find(inputs, lambda r: r["argv"][0] == "filter")
    argmax = request["expect"]["must_keep"][0]
    kept = [n for n in request["expect"]["names"] if n != argmax]
    assert oracle.verify(request, 0, "\n".join(kept) + "\n", "") is not None
    assert oracle.verify(request, 0, "", "") is not None  # drops undominated offers

    validate = _find(inputs, lambda r: r["argv"][0] == "validate")
    assert oracle.verify(validate, 0, validate["expect"]["stdout"].replace(" weak", "1 weak"), "") is not None
    compare = _find(inputs, lambda r: r["argv"][0] == "compare" and r["expect"]["total"])
    wrong = {"<": ">", ">": "<", "~": "<"}[compare["expect"]["eu_signs"][0]]
    assert oracle.verify(compare, 0, f"{wrong}\n", "") is not None
    table = {"argv": ["table"], "expect": {"bad_row": "~~~~"}}
    assert oracle.verify(table, 0, "table matches transcription\n", "") is not None

    inputs = workloads.generate("check-saturate", 5, ROOT, count=24)
    request = _find(inputs, lambda r: r["argv"][0] == "saturate"
                    and len({tuple(v) for v in r["expect"]["eu"].values()}) > 1)
    values = request["expect"]["eu"]
    hi, lo = sorted(values, key=lambda n: [Fraction(v) for v in values[n]])[-1:-3:-1]
    assert oracle.verify(request, 0, f"{hi} < {lo}\n", "") is not None

    clean, mutated = [r for r in inputs.requests if r["argv"][0] == "check"][:2]
    assert oracle.verify(clean, 4, "A2: l0, l1, l2\n", "") is not None
    assert oracle.verify(mutated, 0, "no violations\n", "") is not None
    assert oracle.verify(mutated, 4, "A6: l0, l1, l2, l3\n", "") is not None


def test_check_output_is_compared_as_a_multiset():
    request = {"argv": ["check"]}
    assert oracle.canonical(request, "A2: x\nA1': y\n") == oracle.canonical(request, "A1': y\nA2: x\n")


# --- the benchmark command ------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "filter-query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_run_prints_every_metric(tmp_path):
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "check-saturate", "--seed", "2",
             "--seconds", "1", "--trace", trace, "--trace-requests", "20"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names
