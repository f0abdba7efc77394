"""Benchmark self-test, at self-test input sizes (a minute or so on two cores).

Checks that:

* one seed gives byte-identical input files and another seed changes them;
* a smoke run of every workload, untraced and traced, exits 0, is correct,
  and emits exactly the metrics BENCHMARK.json declares, each with its unit;
* the traced runs keep the layers apart: no tree is grown while score-br is
  timed, train-br routes no record, and only kfold-lp-mixed searches numeric
  thresholds.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import inputs
import workloads as wl

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_inputs_deterministic() -> list:
    problems = []
    root = wl.WORK_DIR / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    for name in wl.WORKLOADS:
        files = {}
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            spec = wl.make_spec(name, seed, tiny=True)
            spec["work"] = str(root / name / tag)
            inputs.write_inputs(spec)
            files[tag] = {f: (root / name / tag / f).read_bytes() for f in ("corpus.csv", "registry.json")}
        if files["a"] != files["b"]:
            problems.append(f"{name}: the same seed gave different input files")
        if files["a"]["corpus.csv"] == files["c"]["corpus.csv"]:
            problems.append(f"{name}: a different seed gave the same corpus")
    shutil.rmtree(root, ignore_errors=True)
    return problems


def smoke(name: str, trace: int) -> tuple[dict, list]:
    argv = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "run.py"), *argv],
        cwd=wl.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return {}, [f"{where}: exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS or result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: bad result line {proc.stdout.strip().splitlines()[-1][:200]}")
    declared = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(k for k in set(expected) & set(emitted) if expected[k] != emitted[k])
        problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
    return result["metrics"], problems


def check_separation(traced: dict) -> list:
    value = {w: {k: m["value"] for k, m in metrics.items()} for w, metrics in traced.items()}
    problems = []
    if value["score-br"]["tree.grow.calls"] != 0:
        problems.append("score-br grew trees while timed")
    if value["train-br"]["tree.predict_distribution.calls"] != 0:
        problems.append("train-br routed records")
    for name, v in value.items():
        if (v["tree.best_numeric_threshold.calls"] > 0) != (name == "kfold-lp-mixed"):
            problems.append(f"{name}: numeric-threshold search calls {v['tree.best_numeric_threshold.calls']}")
    return problems


def main() -> int:
    problems = check_inputs_deterministic()
    traced = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            metrics, found = smoke(name, trace)
            problems += found
            if trace:
                traced[name] = metrics
    if not problems:
        problems += check_separation(traced)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
