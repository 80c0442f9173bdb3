"""The infoineq benchmark: decide one workload's inputs through
`infoineq.cli.main`, check every verdict, and print the metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`.  Workloads (see README.md):

  corpus        the 15 bundled fixtures through `prove`, one fresh
                interpreter per fixture
  lp-large      seeded n=5/n=6 `prove` and `ci prove` inputs whose time is
                a few large exact LPs, one fresh interpreter per input
  refute-early  240 seeded false inequalities at n=3..5 through `refute`,
                all in one interpreter; each scan stops early

A run decides the workload's inputs once per pass, and makes passes until
`--seconds` have gone by (at least one).  With `--trace 1` it instead
makes one pass in which each interpreter has a traced twin running beside
it, with spans around the program's layers, and reports the per-layer
metrics instead of the end-to-end ones.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import tracing

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKLOADS = ("corpus", "lp-large", "refute-early")
SETUP_PROBES = 2  # extra fresh interpreters that only set up, on refute-early
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "verdict_p50_s": "s", "verdict_p90_s": "s",
    "verdicts_ok": "ratio", "outputs_identical": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def corpus_inputs(root: Path) -> list[gen.Input]:
    """The fixtures recorded in golden/corpus.json, with their manifest
    budgets and the answers the manifest gives at the elemental set."""
    golden = json.loads((GOLDEN / "corpus.json").read_text())
    corpus_dir = root / "src" / "infoineq" / "corpus"
    inputs = []
    for name, meta in sorted(golden.items()):
        fname = f"{name}.iic"
        argv = ["prove", "--file", fname, "--workers", "1"]
        if meta["budget"]:
            argv += ["--budget", meta["budget"]]
        inputs.append(gen.Input(name, argv, {fname: (corpus_dir / meta["file"]).read_text()},
                                meta["expected_status"], meta["expected_exit"],
                                {"kind": "fixture"}))
    return inputs


def workload_inputs(workload: str, seed: int, root: Path) -> list[gen.Input]:
    if workload == "corpus":
        return corpus_inputs(root)
    if workload == "lp-large":
        return gen.lp_inputs(seed)
    return gen.refute_inputs(seed)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def start_worker(root: Path, work: Path, inputs: list[gen.Input], trace: bool,
                 decide: bool = True) -> subprocess.Popen:
    job = {"src": str(root / "src"), "dir": str(work), "trace": trace,
           "inputs": [{"key": i.key, "argv": i.argv} for i in (inputs if decide else [])],
           "load": [f for i in inputs for f in i.files]}
    job_file = work / ("job-traced.json" if trace else "job.json")
    job_file.write_text(json.dumps(job))
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_file)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def _groups(workload: str, inputs: list[gen.Input]) -> list[list[gen.Input]]:
    """Inputs that share one interpreter."""
    return [inputs] if workload == "refute-early" else [[inp] for inp in inputs]


def run_pass(workload: str, root: Path, work: Path, inputs: list[gen.Input]) -> list[dict]:
    """Decide every input once, untraced; returns the worker reports."""
    reports = [finish_worker(start_worker(root, work, group, False))
               for group in _groups(workload, inputs)]
    if workload == "refute-early":
        reports += [finish_worker(start_worker(root, work, inputs, False, decide=False))
                    for _ in range(SETUP_PROBES)]
    return reports


def run_traced_pass(workload: str, root: Path, work: Path,
                    inputs: list[gen.Input]) -> tuple[list[dict], list[dict]]:
    """Decide every input once untraced and once traced, the two
    interpreters of each group side by side; returns both report lists."""
    untraced, traced = [], []
    for group in _groups(workload, inputs):
        procs = []
        try:
            procs.append(start_worker(root, work, group, False))
            procs.append(start_worker(root, work, group, True))
            plain, spans = [finish_worker(p) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        untraced.append(plain)
        traced.append(spans)
    return untraced, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def decided(reports: list[dict]) -> list[dict]:
    return [r for rep in reports for r in rep["results"]]


def end_to_end(passes: list[list[dict]], judged: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and informational figures printed beside
    them.  Times are rescaled to the reference CPU speed (see worker.py);
    wall_s is the median over the run's passes."""
    setups = [rep["setup_ref"] for reports in passes for rep in reports]

    def wall(key):
        return statistics.median(sum(r[key] for r in decided(reports)) for reports in passes)

    latencies = [r["latency_ref"] for reports in passes for r in decided(reports)]
    n = len(judged)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall("seconds_ref"),
        "verdict_p50_s": tracing.percentile(latencies, 0.5),
        "verdict_p90_s": tracing.percentile(latencies, 0.9),
        "verdicts_ok": sum(j["ok"] for j in judged) / n,
        "outputs_identical": sum(j["identical"] for j in judged) / n,
        "peak_rss_mb": max(rep["peak_rss_mb"] for reports in passes for rep in reports),
    }
    info = {
        "wall_measured_s": wall("seconds"),
        "setup_measured_s": statistics.median(rep["setup_s"] for reports in passes
                                              for rep in reports),
        "verdict_samples": len(latencies),
        "failed_share": sum(j["failed"] for j in judged) / n,
        "passes": len(passes),
    }
    return metrics, info


def per_layer(workload: str, traced: list[dict], untraced: list[dict],
              inputs: list[gen.Input]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass, and failed self-checks.  Span
    times are rescaled to the reference speed with each traced
    interpreter's own measured-to-rescaled ratio."""
    parts = []
    for rep in traced:
        if "trace" not in rep:
            continue
        measured = sum(r["seconds"] for r in rep["results"])
        scale = sum(r["seconds_ref"] for r in rep["results"]) / measured if measured else 1.0
        part = dict(rep["trace"], top_s=rep["trace"]["top_s"] * scale)
        for key in ("self_s", "total_s"):
            part[key] = {name: v * scale for name, v in part[key].items()}
        parts.append(part)
    raw = tracing.merge(parts)
    by_key = {i.key: i for i in inputs}
    hits = [r["violations"] for r in decided(traced)
            if by_key[r["key"]].expected_status == "refuted"]
    metrics = tracing.layer_metrics(raw, hits)
    untraced_wall = sum(r["seconds_ref"] for r in decided(untraced))
    overhead = sum(r["seconds_ref"] for r in decided(traced)) - untraced_wall
    metrics["trace.overhead_s"] = overhead
    problems = []
    if workload == "refute-early" and metrics["simplex.solve_lp.calls"]:
        problems.append("refute-early made LP calls")
    if workload == "lp-large" and metrics["refuter.violation.calls"]:
        problems.append("lp-large checked refuter candidates")
    # the traced top-level spans must account for the untraced wall time,
    # give or take the tracing overhead and 10% of run-to-run noise
    if abs(raw["top_s"] - untraced_wall) > abs(overhead) + 0.1 * untraced_wall:
        problems.append(f"top-level spans {raw['top_s']:.3f}s do not match "
                        f"untraced wall {untraced_wall:.3f}s")
    return metrics, problems


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    inputs = workload_inputs(workload, seed, root)
    golden = json.loads((GOLDEN / f"{workload}.json").read_text())
    work = root / ".perfbench_work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for inp in inputs:
            for name, text in inp.files.items():
                (work / name).write_text(text)
        if trace:
            untraced, traced = run_traced_pass(workload, root, work, inputs)
            passes = [untraced]
        else:
            traced, passes = None, []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(workload, root, work, inputs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sys.path.insert(0, str(root / "src"))
    by_key = {i.key: i for i in inputs}
    judged = [check.judge(by_key[r["key"]], r, golden)
              for reports in passes + ([traced] if traced else [])
              for r in decided(reports)]
    problems = [f"{j['key']}: {p}" for j in judged for p in j["problems"]]
    e2e, info = end_to_end(passes, judged)
    if trace:
        values, trace_problems = per_layer(workload, traced, passes[0], inputs)
        problems += trace_problems
        units, info = {}, {}
    else:
        values, units = e2e, END_TO_END_UNITS
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": units.get(name) or _layer_unit(name)}
               for name, value in values.items()}
    return {"correct": not problems and all(j["ok"] for j in judged),
            "attempted": len(judged), "failed": sum(j["failed"] for j in judged),
            "metrics": metrics}, info


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "candidates" if "hit_depth" in name else "count"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "infoineq" / "cli.py").is_file():
        print("error: run from the root of an infoineq source checkout "
              "(src/infoineq/cli.py not found)", file=sys.stderr)
        return 2
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload:13s} {name:42s} {m['value']:>14.6g} {m['unit']}")
    for name, value in info.items():
        print(f"{args.workload:13s} {name:42s} {value:>14.6g} (informational)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
