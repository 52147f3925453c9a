"""End-to-end benchmark of the partialpref CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's input
files from the seed, then starts workload processes with a pinned
PYTHONHASHSEED that call ``partialpref.cli.run`` in-process, one request
at a time (a closed loop with one client).  Every output is checked
against a known answer that does not come from the program.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a separate traced run with ``--trace 1``).  The line before it
records the hash seed, sample count and input/output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import METRIC_UNITS  # noqa: E402

PYTHONHASHSEED = "0"
SETUP_RUNS = 9  # fresh interpreters per run; set-up time is their median
DIGEST_REQUESTS = 20
TRACE_REQUESTS = {"filter-query": 240, "check-saturate": 300}
WORKER_TIMEOUT = 150


def _worker(mode: str, work_dir: Path, seconds: float) -> dict:
    # a bytecode cache of the run's own, written by the first worker: every
    # timed interpreter reads the same fresh .pyc files, whatever __pycache__
    # directories the checkout holds
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED,
               PYTHONPYCACHEPREFIX=str(work_dir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(work_dir), str(SRC), str(seconds)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile(samples, q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.COUNTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-requests", type=int, default=None,
                        help="requests in the traced run (default: a fixed count per workload)")
    args = parser.parse_args(argv)
    if not (SRC / "partialpref" / "__init__.py").is_file():
        print(f"no partialpref sources under {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.generate(args.workload, args.seed, ROOT)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        for name, text in inputs.files.items():
            (work_dir / name).write_text(text, "utf-8")
        manifest = {
            "first": inputs.first,
            "requests": inputs.requests,
            "digest_requests": DIGEST_REQUESTS,
            "trace_requests": args.trace_requests or TRACE_REQUESTS[args.workload],
        }
        (work_dir / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        # all the timed loop loads: the expected answers are read after it
        (work_dir / "argv.json").write_text(json.dumps([r["argv"] for r in inputs.requests]), "utf-8")
        (work_dir / "first.argv").write_text("\n".join(inputs.first["argv"]) + "\n", "utf-8")
        notes = {"workload": args.workload, "seed": args.seed, "pythonhashseed": PYTHONHASHSEED,
                 "inputs_sha256": inputs.digest()}
        if args.trace:
            report = _worker("trace", work_dir, args.seconds)
            metrics = {name: {"value": report["layers"][name], "unit": unit}
                       for name, unit in METRIC_UNITS.items()}
            notes["traced_requests"] = report["traced_requests"]
            failures, attempted = report["failures"], report["attempted"]
        else:
            _worker("setup", work_dir, args.seconds)  # writes the bytecode cache, warms the file cache
            setups = [_worker("setup", work_dir, args.seconds) for _ in range(SETUP_RUNS)]
            report = _worker("run", work_dir, args.seconds)
            latencies = report["latencies"]
            if len(latencies) < 2:
                raise SystemExit(f"only {len(latencies)} requests completed in {args.seconds} s")
            failures = [f for r in [report] + setups for f in r["failures"]]
            attempted = sum(r["attempted"] for r in [report] + setups)
            metrics = {
                "throughput_rps": {"value": len(latencies) / report["wall"], "unit": "1/s"},
                "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "latency_p90_ms": {"value": 1000 * _percentile(latencies, 90), "unit": "ms"},
                "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
            notes.update(latency_samples=len(latencies), input_wrapped=report["wrapped"])
        notes.update(outputs_sha256=report["outputs_sha256"],
                     outputs_digest_requests=report["outputs_digest_requests"],
                     failed_frac=len(failures) / attempted)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(notes))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
