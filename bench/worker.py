"""One workload process: ``python3 worker.py <mode> <work dir> <src dir> <seconds>``.

Runs in the work directory, so request argv names files relative to it,
and prints one JSON object.  Modes:

* ``setup`` — a fresh interpreter: time from before ``import partialpref``
  to the end of the first request;
* ``run`` — the closed loop: one client calls ``partialpref.cli.run``,
  waits for the answer, sends the next request, for ``seconds``;
* ``trace`` — a fixed number of requests untraced, then the same ones
  traced, for per-layer metrics and the tracing overhead.

The timed loop holds only the argv lists and streams each output to a file,
so ``peak_rss_mb`` is the program's memory, not the benchmark's.  Expected
answers are loaded, and outputs checked against them, after the timed part.
"""

import io
import os
import sys
import time


def _call(cli, argv):
    """Exit code, stdout and stderr of one request; a traceback is a failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.run(list(argv), out=out, err=err)
    except Exception as exc:
        code = f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue()


def main(argv):
    mode, work_dir, src_dir, seconds = argv[0], argv[1], argv[2], float(argv[3])
    os.chdir(work_dir)
    sys.path.insert(0, src_dir)
    with open("first.argv", encoding="utf-8") as fh:
        first_argv = fh.read().splitlines()

    # set-up is timed in every mode; only the setup mode reports it.  Nothing
    # that partialpref imports (re, fractions, ...) may be loaded before it.
    t0 = time.perf_counter()
    import partialpref
    from partialpref import cli

    first_result = _call(cli, first_argv)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    if not os.path.abspath(partialpref.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"imported partialpref from {partialpref.__file__}, not {src_dir}")

    clock = time.perf_counter
    report = {}
    traced_results = []
    if mode == "setup":
        report.update(setup_s=setup_s)
        count = 0
    elif mode == "run":
        with open("argv.json", encoding="utf-8") as fh:
            argvs = json.load(fh)
        latencies = []
        count = 0
        with open("outputs.jsonl", "w", encoding="utf-8") as sink:
            start = clock()
            deadline = start + seconds
            while clock() < deadline:
                t = clock()
                result = _call(cli, argvs[count % len(argvs)])
                latencies.append(clock() - t)
                sink.write(json.dumps(result) + "\n")
                count += 1
            wall = clock() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report.update(latencies=latencies, wall=wall, peak_rss_mb=peak_rss_mb,
                      wrapped=count > len(argvs))
        del argvs
    else:
        from tracer import Tracer

        with open("manifest.json", encoding="utf-8") as fh:
            limit = json.load(fh)["trace_requests"]
        with open("argv.json", encoding="utf-8") as fh:
            argvs = json.load(fh)[:limit]
        # the same requests twice: untraced for the overhead base, then traced
        start = clock()
        untraced_results = [_call(cli, a) for a in argvs]
        untraced = clock() - start
        with Tracer() as tracer:
            start = clock()
            traced_results = [_call(cli, a) for a in argvs]
            traced = clock() - start
        with open("outputs.jsonl", "w", encoding="utf-8") as sink:
            sink.writelines(json.dumps(r) + "\n" for r in untraced_results)
        count = len(argvs)
        layers = tracer.layer_metrics(count)
        layers["trace.overhead_ratio"] = traced / untraced
        report.update(layers=layers, traced_requests=count)

    import hashlib

    import oracle

    with open("manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    requests = manifest["requests"]
    failures = []

    def verify(request, result, where):
        try:
            reason = oracle.verify(request, *result)
        except Exception as exc:  # a malformed output must count, not abort the run
            reason = f"checker raised {exc!r}"
        if reason is not None:
            failures.append(f"{where}: {' '.join(request['argv'])}: {reason}")

    verify(manifest["first"], first_result, "first")
    for j, result in enumerate(traced_results):
        verify(requests[j], result, f"traced request {j}")
    digest = hashlib.sha256()
    digest_n = min(manifest["digest_requests"], count)
    if count:
        with open("outputs.jsonl", encoding="utf-8") as fh:
            for j, line in enumerate(fh):
                request = requests[j % len(requests)]
                result = json.loads(line)
                verify(request, result, f"request {j}")
                if j < digest_n:
                    code, out, _ = result
                    digest.update(f"{j}\0{code}\0{oracle.canonical(request, out)}\0".encode())
    report.update(
        failures=failures,
        attempted=1 + count + len(traced_results),
        outputs_sha256=digest.hexdigest(),
        outputs_digest_requests=digest_n,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
