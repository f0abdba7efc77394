"""The benchmark's workloads: their inputs, the commands one op runs, and the checks on the outputs.

Each workload stresses one hot layer of chidt and bypasses the others:

* ``train-br``: ``chidt train`` with the diverse-br strategy on a
  cover-all-labels split. Nearly all of it is C4.5 induction (22 binary
  trees, stage 1 pruned, stage 2 unpruned with min-leaf 1) and the
  ``model.json`` write. No record is scored.
* ``score-br``: ``chidt predict`` then a resubstitution ``chidt eval`` of a
  diverse-br model trained during set-up, over a large corpus. It is routing,
  the validity check, CSV parsing and metrics; no tree is grown while timed.
* ``kfold-lp-mixed``: a 5-fold ``chidt eval`` with the label-powerset
  strategy over a corpus with three numeric lab-value columns. It runs many
  small train/score batches, a multi-class tree and the numeric-threshold
  search that the other two never reach, and triggers stage 2 more often.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
PINS_PATH = BENCH_DIR / "pins.json"

# output digests are pinned for this seed at full size
DEFAULT_SEED = 1

# the workload's own files; exclusions come from the shipped data
EXCLUSIONS = ROOT / "data" / "exclusions_chd.json"
HIERARCHY = ROOT / "data" / "hierarchy_chd.json"

WORKLOADS = {
    "train-br": {
        "records": 4000,
        "numeric": False,
        "training": {"strategy": "diverse-br", "train_size": 2000},
        "evaluation": {},
        "setup_commands": [],
        "op": [["train"]],
        "op_records": "train_size",
        "outputs": ["model.json"],
    },
    "score-br": {
        "records": 8000,
        "numeric": False,
        "training": {"strategy": "diverse-br", "train_size": 600},
        "evaluation": {"protocol": "resubstitution"},
        "setup_commands": [["train"]],
        "op": [["predict"], ["eval"]],
        "op_records": "records",
        "outputs": ["predictions.csv", "report.json", "report.txt"],
    },
    "kfold-lp-mixed": {
        "records": 300,
        "numeric": True,
        "training": {"strategy": "label-powerset"},
        "evaluation": {"protocol": "kfold", "k": 5},
        "setup_commands": [],
        "op": [["eval"]],
        "op_records": "records",
        "outputs": ["report.json", "report.txt"],
    },
}

# self-test sizes: (records, train_size)
TINY = {"train-br": (240, 80), "score-br": (240, 80), "kfold-lp-mixed": (40, None)}


def make_spec(name: str, seed: int, tiny: bool = False) -> dict:
    """The full description of one workload run, as written to ``spec.json``."""
    spec = json.loads(json.dumps(WORKLOADS[name]))
    if tiny:
        spec["records"], train_size = TINY[name]
        if train_size is not None:
            spec["training"]["train_size"] = train_size
    work = WORK_DIR / name
    spec.update(
        name=name,
        seed=seed,
        tiny=tiny,
        work=str(work),
        config=str(work / "config.json"),
        exclusions=str(EXCLUSIONS),
        hierarchy=str(HIERARCHY),
    )
    return spec


def op_records(spec: dict) -> int:
    """Records one op handles: the training split when it trains, else the whole corpus."""
    if spec["op_records"] == "train_size":
        return spec["training"]["train_size"]
    return spec["records"]


def run_op(spec: dict):
    """Run the workload's commands once through ``chidt.cli.main``, one after another.

    Returns (op wall seconds, {command: seconds}, list of failure messages).
    """
    from chidt import cli

    times, errors = {}, []
    start = time.perf_counter()
    for argv in spec["op"]:
        t0 = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--config", spec["config"]])
        except Exception:
            code, err = None, io.StringIO(traceback.format_exc())
        times[argv[0]] = time.perf_counter() - t0
        if code != 0:
            errors.append(f"chidt {argv[0]} exited with {code}: {err.getvalue().strip()}")
    return time.perf_counter() - start, times, errors


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(spec: dict) -> dict:
    work = Path(spec["work"])
    return {name: sha256(work / name) for name in ["corpus.csv", "registry.json"] + spec["outputs"]}


def pinned_digests(spec: dict) -> dict | None:
    """The pinned digests that apply to this run, or None off the default seed or at self-test size."""
    if spec["seed"] != DEFAULT_SEED or spec["tiny"]:
        return None
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["workloads"][spec["name"]]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the outputs hold
# ---------------------------------------------------------------------------


def _truth(work: Path) -> dict:
    with open(work / "corpus.csv", newline="", encoding="utf-8") as fh:
        return {row["id"]: _codes(row["codes"]) for row in csv.DictReader(fh)}


def _codes(cell: str) -> frozenset:
    return frozenset(c for c in cell.split(";") if c)


def _check_train(spec: dict, work: Path) -> list:
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    alphabet = sorted(set().union(*_truth(work).values()))
    problems = []
    if model.get("format") != "chidt-model" or model.get("strategy") != "diverse-br":
        problems.append("model.json is not a diverse-br cascade model")
    if len(model["training_ids"]) != spec["training"]["train_size"]:
        problems.append(f"model trained on {len(model['training_ids'])} records")
    for stage in ("stage1", "stage2"):
        if model[stage]["codes"] != alphabet or len(model[stage]["trees"]) != len(alphabet):
            problems.append(f"{stage} does not hold one tree per code of the corpus")
    if model["stage2"]["params"]["pruning"] or model["stage2"]["params"]["min_leaf"] != 1:
        problems.append("stage 2 is not the unpruned min-leaf-1 bank")
    return problems


def _check_score(spec: dict, work: Path) -> list:
    truth = _truth(work)
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    registered = {frozenset(e["codes"]) for e in model["registry"]["combinations"]}
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    with open(work / "predictions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [r["id"] for r in rows] != list(truth):
        return ["predictions.csv does not list the corpus records in order"]
    exact = sum(_codes(r["codes"]) == truth[r["id"]] for r in rows)
    if 100.0 * exact / len(rows) != report["multilabel"]["subset_accuracy_pct"]:
        problems.append("subset accuracy recomputed from predictions.csv differs from report.json")
    if report["metrics"]["total"] != len(rows):
        problems.append("report.json does not cover every record")
    for r in rows:
        if (r["triggered"] == "true") == (r["reason"] == "ok"):
            problems.append(f"row {r['id']}: triggered flag and reason disagree")
        elif r["triggered"] == "false" and _codes(r["codes"]) not in registered:
            problems.append(f"row {r['id']}: untriggered codes {r['codes']!r} are not registered")
    return problems


def _check_kfold(spec: dict, work: Path) -> list:
    n = len(_truth(work))
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    folds = report["folds"]
    problems = []
    if len(folds) != spec["evaluation"]["k"] or sum(report["fold_sizes"]) != n:
        problems.append("folds do not partition the corpus")
    if report["aggregate"]["total"] != n:
        problems.append("aggregate report does not cover every record")
    if report["aggregate"]["correct"] != sum(f["metrics"]["correct"] for f in folds):
        problems.append("aggregate correct count is not the sum over folds")
    return problems


CHECKS = {"train-br": _check_train, "score-br": _check_score, "kfold-lp-mixed": _check_kfold}


def check_outputs(spec: dict) -> list:
    return CHECKS[spec["name"]](spec, Path(spec["work"]))


def quality(spec: dict) -> dict:
    """Subset accuracy and Hamming loss from report.json, for workloads that evaluate."""
    if "report.json" not in spec["outputs"]:
        return {}
    report = json.loads((Path(spec["work"]) / "report.json").read_text(encoding="utf-8"))
    if "multilabel" in report:
        ml = report["multilabel"]
        return {"subset_accuracy_pct": ml["subset_accuracy_pct"], "hamming_loss": ml["hamming_loss"]}
    sizes = report["fold_sizes"]
    hamming = sum(f["multilabel"]["hamming_loss"] * s for f, s in zip(report["folds"], sizes)) / sum(sizes)
    return {"subset_accuracy_pct": report["aggregate"]["accuracy_pct"], "hamming_loss": hamming}
