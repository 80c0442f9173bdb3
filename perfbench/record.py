"""Record the outputs every later run is compared with.

    python3 perfbench/record.py [corpus|lp-large|refute-early ...]

Decides every member of each workload's pool (the corpus: every manifest
fixture) once, checks each against its known answer, and writes
golden/<workload>.json with digests of its input and of its verdict,
certificates and first counterexample.  Run it from the root of a source
checkout, only when the recorded outputs are meant to change.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
import gen
import run


def corpus_golden(root: Path) -> dict:
    manifest = json.loads((root / "src/infoineq/corpus/manifest.json").read_text())
    out = {}
    for name, meta in manifest.items():
        status, code = check.MANIFEST_ANSWER[meta["expected_verdict"]]
        out[name] = {"file": meta["file"], "budget": meta.get("budget", ""),
                     "expected_status": status, "expected_exit": code}
    return out


def record(workload: str, root: Path) -> None:
    path = run.GOLDEN / f"{workload}.json"
    if workload == "corpus":
        golden = corpus_golden(root)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        inputs = run.corpus_inputs(root)
    elif workload == "lp-large":
        golden, inputs = {}, gen.lp_pool()
    else:
        golden, inputs = {}, gen.refute_pool()
    work = root / ".perfbench_work" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for inp in inputs:
            for name, text in inp.files.items():
                (work / name).write_text(text)
        reports = run.run_pass(workload, root, work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, str(root / "src"))
    by_key = {i.key: i for i in inputs}
    bad = 0
    for r in run.decided(reports):
        inp = by_key[r["key"]]
        verdict = check.judge(inp, r, {})
        if not verdict["ok"]:
            bad += 1
            print(f"{inp.key}: {verdict['problems']}", file=sys.stderr)
        entry = golden.setdefault(inp.key, {})
        entry["input"] = check.input_digest(inp.argv, inp.files)
        entry["output"] = check.digest(json.loads(r["stdout"]), r["exit"])
        entry["seconds"] = round(r["seconds"], 3)
        entry.update({k: v for k, v in inp.props.items() if k != "statements"})
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(golden)} recorded, {bad} failed the known-answer gate")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        record(name, Path.cwd())
