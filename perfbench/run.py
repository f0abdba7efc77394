"""chidt benchmark: one workload, a closed loop of CLI commands, every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload score-br --seed 1 --seconds 20 --trace 0

A run:

1. regenerates the shipped ``data/run_chd.json`` run in a child process and
   refuses to time anything unless its files match the digests pinned in
   ``pins.json``;
2. sets the workload up several times, each time in a fresh child process
   (interpreter start, ``import chidt``, seeded input generation and, for
   score-br, training the model to score), and reports the median as
   ``setup_s``;
3. repeats the workload's op in a closed loop with one client: one process,
   no threads, each command through ``chidt.cli.main`` starting after the
   previous one ends, until ``--seconds`` have passed. The first op's outputs
   are checked (and, at the default seed, their pinned digests); every later
   op's outputs must match them byte for byte. Every op is timed, the first
   too: a user's command always runs in a fresh process.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` half the time is spent untraced and half in a traced run in a
child process (see ``tracer.py``), and the last line holds the per-layer
metrics plus ``trace.overhead_pct``. The run exits 1 if any command or check
failed. ``--tiny`` shrinks the inputs for the self-test; pinned digests are
then not checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import layer_unit

BENCH_DIR = wl.BENCH_DIR
ROOT = wl.ROOT
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def child(script: str, *args: str) -> None:
    """Run a benchmark script in a process of its own and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{script} exited with {proc.returncode}:\n{proc.stderr.strip()}")


def set_up(spec: dict, spec_path: Path, repeats: int) -> list:
    """Set the workload up ``repeats`` times from nothing; returns each set-up's seconds."""
    spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    times = []
    for _ in range(repeats):
        shutil.rmtree(spec["work"], ignore_errors=True)
        t0 = time.perf_counter()
        child("inputs.py", "--spec", str(spec_path))
        times.append(time.perf_counter() - t0)
    return times


class Loop:
    """Closed-loop ops of one workload, with every op's outputs checked."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.walls: list = []
        self.commands: dict = {}
        self.reference = None

    def _op(self) -> None:
        wall, times, errors = wl.run_op(self.spec)
        self.attempted += len(self.spec["op"])
        if errors:
            self.fail(len(errors), errors)
            return
        digests = wl.output_digests(self.spec)
        if self.reference is None:
            problems = wl.check_outputs(self.spec)
            pinned = wl.pinned_digests(self.spec)
            if pinned is not None:
                problems += [f"{k} sha256 {digests[k]} != pinned {v}" for k, v in pinned.items() if digests[k] != v]
            if not problems:
                self.reference = digests
        else:
            problems = [] if digests == self.reference else ["outputs differ from the first op's"]
        if problems:
            self.fail(1, problems)
            return
        self.walls.append(wall)
        for name, seconds in times.items():
            self.commands.setdefault(name, []).append(seconds)

    def fail(self, commands: int, problems: list) -> None:
        self.failed += commands
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)

    def run(self, seconds: float) -> None:
        """Time ops until ``seconds`` have passed; failed ops are not kept."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self._op()

    def failed_result(self) -> int:
        """Print a result line with no metrics for a run that has nothing to report; returns 1."""
        print(json.dumps({"correct": False, "attempted": self.attempted, "failed": self.failed, "metrics": {}}))
        return 1


def traced(spec: dict, spec_path: Path, seconds: float, reference: dict) -> dict:
    """The traced run, in a child process; its outputs must match the untraced run's."""
    out = Path(spec["work"]) / "trace.json"
    child("tracer.py", "--spec", str(spec_path), "--seconds", str(seconds), "--out", str(out))
    result = json.loads(out.read_text(encoding="utf-8"))
    result["same_outputs"] = wl.output_digests(spec) == reference
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chidt benchmark: one workload, closed loop")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    args = parser.parse_args(argv)

    spec = wl.make_spec(args.workload, args.seed, args.tiny)
    spec_path = wl.WORK_DIR / f"{args.workload}.spec.json"
    wl.WORK_DIR.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()

    child("preflight.py", "--dir", str(wl.WORK_DIR / f"{args.workload}.preflight"))
    setup_times = set_up(spec, spec_path, 1 if args.trace else SETUP_REPEATS)

    sys.path.insert(0, str(ROOT / "src"))
    import chidt.cli  # noqa: F401  the import belongs to set-up, not to the first op

    loop = Loop(spec)
    loop.run(args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not loop.walls:
        return loop.failed_result()

    wall = statistics.median(loop.walls)
    if args.trace:
        trace = traced(spec, spec_path, args.seconds / 2, loop.reference)
        loop.attempted += len(trace["walls"]) * len(spec["op"])
        if trace["failures"] or not trace["same_outputs"]:
            loop.fail(max(1, len(trace["failures"])), trace["failures"] or ["traced outputs differ from untraced"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in trace["metrics"].items()}
        overhead = 100.0 * (statistics.median(trace["walls"]) / wall - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "records_per_s": {"value": wl.op_records(spec) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    facts = machine_facts()
    load_after = os.getloadavg()
    facts.update(
        loadavg_before=load_before[0],
        loadavg_after=load_after[0],
        overloaded=max(load_before[0], load_after[0]) > facts["nproc"],
    )
    correct = loop.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"setup runs {len(setup_times)}, timed ops {len(loop.walls)}")
    print("op wall s " + " ".join(f"{w:.3f}" for w in loop.walls))
    if facts["overloaded"]:
        print("WARNING: load average exceeded nproc; timings are suspect", file=sys.stderr)
    if args.trace:
        print(
            f"traced ops {len(trace['walls'])}, {trace['wrapped']} attributes wrapped and restored, "
            f"outputs same as untraced: {trace['same_outputs']}"
        )
    for name, samples in sorted(loop.commands.items()):
        print(f"{name}_s {statistics.median(samples):.4f} s (median of {len(samples)})")
    if correct:
        for name, value in sorted(wl.quality(spec).items()):
            print(f"{name} {value:.6g} {'%' if name.endswith('_pct') else 'ratio'}")
        print("outputs " + json.dumps(loop.reference, sort_keys=True))
    print(f"fail_ratio {loop.failed / loop.attempted:.4f} ratio ({loop.failed} of {loop.attempted} commands)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
