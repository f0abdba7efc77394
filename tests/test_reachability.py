"""Every function defined in ``src/chidt`` is entered by some ``chidt`` command.

The sweep runs the CLI in-process under ``sys.setprofile`` and records every
function entered: ``gen``; ``train`` with and without the single-label
fallback; ``predict`` and ``predict --terms``; ``eval`` under
resubstitution, holdout and k-fold in both modes; ``inspect`` and
``validate``. Every command runs under both strategies, on the shipped
``data/run_chd.json`` corpus and on a copy of it with a numeric lab column
and every cell quoted.

A function that no command enters is dead code and fails the test. Delete
it, or keep it on purpose by adding it to ``ALLOWED`` with the reason.
"""

from __future__ import annotations

import csv
import inspect
import json
import sys
from pathlib import Path

import chidt
from chidt.cascade import STRATEGIES
from chidt.cli import main
from chidt.evaluation import MODES

from conftest import DATA_DIR

SRC = Path(chidt.__file__).resolve().parent

# module.qualname: why the function stays although no command enters it
ALLOWED = {
    "cascade.ChiDTModel.predict_with_scores": "the per-record view over predict_batch; the benchmark tracer wraps it",
    "cascade.train_chidt": "one-set view over train_cascades, the Python API",
    "jsondoc.fail": "raises on malformed input only",
    "tree._refuse": "raises on an unroutable value only",
    "tree._read_nodes.<locals>.path": "names a tree node only in the message of a failed check",
    "data.Dataset.__iter__": "perfbench/tracer.py zips an evaluated dataset with its recorded predictions",
}


def _defined() -> dict:
    """(file, first line) -> module.qualname of every named function in ``src/chidt``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), f"{path.stem}.")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not inspect.iscode(const):
                    continue
                name = prefix + const.co_name
                # a function body, not a class body, lambda or comprehension
                function = bool(const.co_flags & inspect.CO_NEWLOCALS)
                if function and not const.co_name.startswith("<"):
                    found[(const.co_filename, const.co_firstlineno)] = name
                stack.append((const, name + (".<locals>." if function else ".")))
    return found


def _sweep(tmp_path: Path) -> set:
    """(file, first line) of every function entered while the commands run."""
    out = tmp_path / "out"
    base = json.loads((DATA_DIR / "run_chd.json").read_text(encoding="utf-8"))
    base["out_dir"] = str(out)
    base["paths"] = {
        "dataset": str(out / "corpus.csv"),
        "registry": str(out / "registry.json"),
        "model": str(out / "model.json"),
        "hierarchy": str(DATA_DIR / "hierarchy_chd.json"),
        "lexicon": str(DATA_DIR / "lexicon_chd.json"),
        "exclusions": str(DATA_DIR / "exclusions_chd.json"),
    }

    def config(name: str, training=None, evaluation=None, dataset=None) -> str:
        doc = json.loads(json.dumps(base))
        doc["training"].update(training or {})
        doc["evaluation"].update(evaluation or {})
        if dataset is not None:
            doc["paths"]["dataset"] = str(dataset)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    terms = tmp_path / "terms.json"
    terms.write_text(json.dumps([{"id": "a", "terms": ["chest pain", "st elevation", "unknown"]}, {"terms": []}]))
    labelsets = tmp_path / "labelsets.json"
    labelsets.write_text(json.dumps([["I21.0"], ["I20.0", "I20.9"], ["I25.1"], []]))

    plain = config("plain")
    kfold = {"protocol": "kfold", "k": 3}
    evals = [config(p, evaluation={"protocol": p}) for p in ("resubstitution", "holdout")]
    evals.append(config("kfold", evaluation=kfold))
    fallback = config("fallback", training={"single_label_fallback": True})
    runs = [["gen", "--config", plain]]
    for strategy in STRATEGIES:
        pick = ["--strategy", strategy]
        runs += [
            ["train", "--config", plain, *pick],
            ["predict", "--config", plain, *pick],
            ["predict", "--config", plain, "--input", str(terms), "--terms", *pick],
            ["inspect", "--config", plain, *pick],
        ]
        runs += [["eval", "--config", cfg, "--mode", mode, *pick] for cfg in evals for mode in MODES]
        runs += [["train", "--config", fallback, *pick], ["predict", "--config", fallback, *pick]]
    runs.append(["validate", "--config", plain, str(labelsets)])

    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def run_all(commands) -> None:
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            codes = [(args[0], main(args)) for args in commands]
        finally:
            sys.setprofile(previous)
        assert all(code == 0 for _, code in codes), codes

    run_all(runs)

    # the same corpus with a numeric lab column, read as numeric because it has more than two values, and
    # every cell quoted, which load_csv reads with csv.reader
    numeric = tmp_path / "numeric.csv"
    with open(out / "corpus.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[0].insert(1, "troponin_ng_l")
    for i, row in enumerate(rows[1:]):
        row.insert(1, f"{(i * 37) % 101 / 4:g}")
    with open(numeric, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    lab = config("numeric", evaluation=kfold, dataset=numeric)
    run_all([[command, "--config", lab, "--strategy", s] for s in STRATEGIES for command in ("train", "eval")])
    return entered


def test_every_function_is_reached_by_a_command(tmp_path):
    defined = _defined()
    names = set(defined.values())
    stale = sorted(set(ALLOWED) - names)
    assert not stale, f"allow-list entries name no function in src/chidt: {stale}"
    entered = _sweep(tmp_path)
    unreached = sorted(name for where, name in defined.items() if where not in entered and name not in ALLOWED)
    assert not unreached, f"no chidt command enters these functions; delete or allow-list them: {unreached}"
