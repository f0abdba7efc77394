"""Layer tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function of chidt's ``data``, ``tree``,
``cascade``, ``ontology`` and ``evaluation`` modules, a few methods that
carry a layer's work (``Dataset.feature_matrix``, ``Dataset.subset``,
``ChiDTModel.predict_with_scores``) and the ``cli.cmd_*`` commands. A
function is wrapped in every chidt module that bound it by name, so
``chidt.cascade.build_tree`` and ``chidt.cli.train_chidt`` are traced as well
as the defining attribute. ``Tracer.uninstall`` puts every original back.

Every wrapped call adds to an aggregate per function: calls, total time and
self time (its duration minus the time of the wrapped calls inside it).
Coarse calls (names in ``SPANS``) also become spans: name, start, end,
parent (the index of the enclosing span within the same op), op id and self
time. Per-record functions such as ``predict_distribution``
or ``entropy`` are aggregated only, so a run keeps a few hundred spans, not
millions.

Run as a script it is the traced run of one workload, in a process of its
own: it replays the workload's commands with the tracer installed and writes
the per-op layer metrics as JSON::

    python3 perfbench/tracer.py --spec perfbench/.work/score-br/spec.json --seconds 5 --out trace.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

LAYERS = ("data", "tree", "cascade", "ontology", "evaluation")
METHODS = (
    ("data", "Dataset", "feature_matrix"),
    ("data", "Dataset", "subset"),
    ("cascade", "ChiDTModel", "predict_with_scores"),
)
# modules searched for names bound to a wrapped function
BINDERS = ("chidt",) + tuple(f"chidt.{m}" for m in LAYERS + ("config", "cli"))

SPANS = frozenset(
    {
        "cli.cmd_train",
        "cli.cmd_predict",
        "cli.cmd_eval",
        "data.load_csv",
        "data.Dataset.feature_matrix",
        "data.Dataset.subset",
        "data.cover_all_labels_split",
        "tree.build_tree",
        "tree.grow",
        "tree.prune_ebp",
        "cascade.train_chidt",
        "cascade.train_br",
        "cascade.train_label_powerset",
        "cascade.model_to_dict",
        "cascade.model_from_dict",
        "ontology.observed_registry",
        "evaluation.evaluate_predictions",
        "evaluation.evaluate_resubstitution",
        "evaluation.evaluate_kfold",
        "evaluation.kfold_assignments",
    }
)


class _Frame:
    __slots__ = ("start", "child", "span")

    def __init__(self, start: float, span: int | None):
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Wraps chidt's layer functions and records aggregates, spans and facts."""

    def __init__(self):
        self._saved: list = []
        self._stack: list = []
        self.reset(0)

    # -- recording ---------------------------------------------------------

    def reset(self, op: int) -> None:
        """Start a new op: clear aggregates, spans and facts."""
        self.op = op
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.spans: list = []
        self.facts = {
            "load_csv_rows": 0,
            "nodes_grown": 0,
            "prune_nodes_in": 0,
            "nodes_kept": 0,
            "predict_rows": 0,
            "stage2_rows": 0,
            "eval_triggered": 0,
            "eval_triggered_exact": 0,
            "folds": 0,
            "reasons": {"empty": 0, "unregistered": 0, "exclusion-violated": 0},
        }
        self._predictions: list = []

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        is_span = name in SPANS
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = None
            if is_span:
                parent = stack[-1].span if stack else None
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.op, 0.0])
            frame = _Frame(clock(), span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame.child
                if span is not None:
                    self.spans[span][1:3] = [frame.start, end]
                    self.spans[span][5] = duration - frame.child
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- facts taken from arguments and results ----------------------------

    def _observe_data_load_csv(self, args, kwargs, result) -> None:
        self.facts["load_csv_rows"] += len(result)

    def _observe_tree_grow(self, args, kwargs, result) -> None:
        self.facts["nodes_grown"] += result.n_nodes

    def _observe_tree_prune_ebp(self, args, kwargs, result) -> None:
        self.facts["prune_nodes_in"] += args[0].n_nodes
        self.facts["nodes_kept"] += result.n_nodes

    def _observe_ontology_is_valid(self, args, kwargs, result) -> None:
        ok, reason = result
        if not ok:
            self.facts["reasons"][reason] = self.facts["reasons"].get(reason, 0) + 1

    def _observe_cascade_ChiDTModel_predict_with_scores(self, args, kwargs, result) -> None:
        final, _, trace = result
        self.facts["predict_rows"] += 1
        self.facts["stage2_rows"] += trace.triggered
        self._predictions.append((trace.triggered, final))

    def _observe_evaluation_evaluate_predictions(self, args, kwargs, result) -> None:
        # evaluate_predictions scores each of its records once, in order, so
        # the last len(records) predictions are this call's
        records = args[1] if len(args) > 1 else kwargs["eval_records"]
        made = self._predictions[len(self._predictions) - len(records) :]
        for rec, (triggered, final) in zip(records, made):
            if triggered:
                self.facts["eval_triggered"] += 1
                self.facts["eval_triggered_exact"] += final == rec.labels

    def _observe_evaluation_kfold_assignments(self, args, kwargs, result) -> None:
        self.facts["folds"] += len(result)

    # -- installing --------------------------------------------------------

    def _targets(self):
        """(qualified name, original function) for everything to wrap."""
        for layer in LAYERS:
            module = importlib.import_module(f"chidt.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield f"{layer}.{attr}", obj
        cli = importlib.import_module("chidt.cli")
        for attr, obj in vars(cli).items():
            if attr.startswith("cmd_") and inspect.isfunction(obj):
                yield f"cli.{attr}", obj

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        binders = [importlib.import_module(m) for m in BINDERS]
        for name, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            for module in binders:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"chidt.{layer}"), cls_name)
            fn = cls.__dict__[method]
            self._saved.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and check that each is the original again."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in self._saved if getattr(o, a) is not fn]
        self._saved = []
        if wrong:
            raise RuntimeError(f"tracer left wrapped attributes behind: {wrong}")

    @property
    def wrapped(self) -> int:
        return len(self._saved)

    # -- per-layer metrics -------------------------------------------------

    def _stage_times(self) -> tuple[float, float]:
        """Stage-1 and stage-2 training time: the 1st and 2nd trainer span of each train_chidt."""
        stage = [0.0, 0.0]
        seen: dict = {}
        for name, start, end, parent, _, _ in self.spans:
            if name in ("cascade.train_br", "cascade.train_label_powerset") and parent is not None:
                if self.spans[parent][0] == "cascade.train_chidt":
                    k = seen.get(parent, 0)
                    seen[parent] = k + 1
                    stage[min(k, 1)] += end - start
        return stage[0], stage[1]

    def metrics(self) -> dict:
        """Layer metrics of the current op, by the names BENCHMARK.json declares."""
        calls, total, self_t, f = self.calls, self.total, self.self_time, self.facts

        def s(name):
            return total.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        stage1, stage2 = self._stage_times()
        cli_names = [k for k in total if k.startswith("cli.cmd_")]
        out = {
            "data.load_csv.s": s("data.load_csv"),
            "data.load_csv.calls": n("data.load_csv"),
            "data.load_csv.rows": f["load_csv_rows"],
            "data.Dataset.feature_matrix.s": s("data.Dataset.feature_matrix"),
            "data.Dataset.feature_matrix.calls": n("data.Dataset.feature_matrix"),
            "data.Dataset.subset.s": s("data.Dataset.subset"),
            "data.Dataset.subset.calls": n("data.Dataset.subset"),
            "data.cover_all_labels_split.s": s("data.cover_all_labels_split"),
            "tree.grow.s": s("tree.grow"),
            "tree.grow.calls": n("tree.grow"),
            "tree.prune_ebp.s": s("tree.prune_ebp"),
            "tree.prune_ebp.calls": n("tree.prune_ebp"),
            "tree.gain_ratio.calls": n("tree.gain_ratio"),
            "tree.entropy.calls": n("tree.entropy"),
            "tree.nodes_grown": f["nodes_grown"],
            "tree.nodes_kept": f["nodes_kept"],
            "tree.prune_kept_ratio": f["nodes_kept"] / f["prune_nodes_in"] if f["prune_nodes_in"] else 0.0,
            "tree.best_numeric_threshold.s": s("tree.best_numeric_threshold"),
            "tree.best_numeric_threshold.calls": n("tree.best_numeric_threshold"),
            "tree.predict_distribution.s": s("tree.predict_distribution"),
            "tree.predict_distribution.calls": n("tree.predict_distribution"),
            "cascade.train_chidt.s": s("cascade.train_chidt"),
            "cascade.stage1_train.s": stage1,
            "cascade.stage2_train.s": stage2,
            "cascade.model_to_dict.s": s("cascade.model_to_dict"),
            "cascade.model_from_dict.s": s("cascade.model_from_dict"),
            "cascade.predict.s": s("cascade.ChiDTModel.predict_with_scores"),
            "cascade.predict.self_s": self_t.get("cascade.ChiDTModel.predict_with_scores", 0.0),
            "cascade.predict.calls": n("cascade.ChiDTModel.predict_with_scores"),
            "cascade.stage2.rows": f["stage2_rows"],
            "cascade.trigger_ratio": f["stage2_rows"] / f["predict_rows"] if f["predict_rows"] else 0.0,
            "cascade.stage2_useful_ratio": (
                f["eval_triggered_exact"] / f["eval_triggered"] if f["eval_triggered"] else 0.0
            ),
            "ontology.is_valid.s": s("ontology.is_valid"),
            "ontology.is_valid.calls": n("ontology.is_valid"),
            "ontology.observed_registry.s": s("ontology.observed_registry"),
            "evaluation.evaluate_predictions.s": s("evaluation.evaluate_predictions"),
            "evaluation.evaluate_predictions.self_s": self_t.get("evaluation.evaluate_predictions", 0.0),
            "evaluation.kfold_assignments.s": s("evaluation.kfold_assignments"),
            "evaluation.folds": f["folds"],
            "cli.train.s": s("cli.cmd_train"),
            "cli.predict.s": s("cli.cmd_predict"),
            "cli.eval.s": s("cli.cmd_eval"),
            "cli.self_s": sum(self_t[k] for k in cli_names),
        }
        for reason in ("empty", "unregistered", "exclusion-violated"):
            out[f"ontology.reason.{reason}"] = f["reasons"].get(reason, 0)
        return out


def layer_unit(metric: str) -> str:
    """Unit of a layer metric, read from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    return "ratio" if last.endswith("_ratio") else "count"


def traced_run(spec: dict, seconds: float) -> dict:
    """Replay the workload's op with the tracer installed until ``seconds`` pass (at least once)."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_op

    tracer = Tracer()
    tracer.install()
    wrapped = tracer.wrapped
    per_op, walls, spans, failures = [], [], [], []
    try:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            tracer.reset(len(walls))
            wall, _, errors = run_op(spec)
            failures += errors
            walls.append(wall)
            per_op.append(tracer.metrics())
            spans += tracer.spans
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median_low(op[k] for op in per_op) for k in per_op[0]}
    return {
        "metrics": metrics,
        "walls": walls,
        "failures": failures,
        "wrapped": wrapped,
        "spans": [dict(zip(("name", "start", "end", "parent", "op", "self"), s)) for s in spans],
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="traced run of one benchmark workload")
    parser.add_argument("--spec", required=True, help="workload spec JSON written by run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    args = parser.parse_args()
    result = traced_run(json.loads(Path(args.spec).read_text(encoding="utf-8")), args.seconds)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
