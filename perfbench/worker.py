"""Decide a list of inputs through `infoineq.cli.main` in one interpreter.

    python3 worker.py JOB.json

The job names the source tree to import, the directory holding the input
files, the inputs (a key and the CLI argv each) and whether to trace.
The worker prints one JSON line: its set-up time (start of this script to
`infoineq.cli` imported and inputs loaded), per input the exit code, the
captured report, the time spent in `cli.main` and the latency from
submission to verdict, its peak resident memory and, when tracing, the
per-layer totals.

Every time comes twice: as measured, and rescaled to a reference CPU
speed.  The CPU speed of a shared machine drifts (by 1.7x within seconds
on a 2-core shared VM), so a speed probe runs alongside the
program: every PROBE_EVERY_S of CPU time a timer signal runs a fixed
loop of int arithmetic and times it.  A span's rescaled time is its
measured time times PROBE_REF_S over the mean probe time within
PROBE_WINDOW_S of the span.  On an n=6 LP whose measured time varied by
14% (coefficient of variation) over four runs, the rescaled time varied
by 0.5%; on `matus_k2`, 7% against 1%.
"""
import time

perf = time.perf_counter
_START = perf()

import array  # noqa: E402
import signal  # noqa: E402

PROBE_EVERY_S = 0.002
PROBE_WINDOW_S = 0.25
PROBE_REF_S = 6e-6  # the probe loop's time at the reference speed
_probe_at = array.array("d")
_probe_len = array.array("d")


def _probe(signum, frame):
    t = perf()
    x = 0
    for i in range(100):
        x += i * i % 7
    _probe_len.append(perf() - t)
    _probe_at.append(t)


signal.signal(signal.SIGPROF, _probe)
signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

import bisect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402


def rescaled(start: float, end: float) -> float:
    """end - start at the reference speed."""
    lo = bisect.bisect_left(_probe_at, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(_probe_at, end + PROBE_WINDOW_S)
    window = _probe_len[lo:hi] or _probe_len
    if not window:
        return end - start
    return (end - start) * PROBE_REF_S * len(window) / sum(window)


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    os.chdir(job["dir"])
    import infoineq.cli as cli
    for name in job["load"]:
        with open(name) as fh:
            fh.read()
    ready = perf()

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    timed = []
    last_verdict = _START
    for inp in job["inputs"]:
        out, err = io.StringIO(), io.StringIO()
        first_span = len(tracer.spans) if tracer else 0
        span = tracer.open(tracing.INPUT) if tracer else None
        start = perf()
        error = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(inp["argv"])
        except Exception:  # a raise is a failed input, reported, not fatal
            code, error = None, traceback.format_exc()
        end = perf()
        entry = {"key": inp["key"], "exit": code, "stdout": out.getvalue(),
                 "stderr": err.getvalue(), "error": error}
        if tracer:
            tracer.close(span)
            entry["violations"] = sum(1 for s in tracer.spans[first_span:]
                                      if s[0] == "refuter.violation")
        # latency: from submission (the previous verdict, or the start of
        # this interpreter for the first input) to this verdict
        timed.append((entry, start, end, last_verdict))
        last_verdict = end
    signal.setitimer(signal.ITIMER_PROF, 0, 0)

    results = []
    for entry, start, end, submitted in timed:
        entry.update({"seconds": end - start, "seconds_ref": rescaled(start, end),
                      "latency_ref": rescaled(submitted, end)})
        results.append(entry)
    report = {"setup_s": ready - _START, "setup_ref": rescaled(_START, ready),
              "results": results,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        report["trace"] = tracing.summarize(tracer)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
