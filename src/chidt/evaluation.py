"""Confusion matrices, the six table metrics, multi-label metrics, and protocols.

Two evaluation modes are supported and named in every report:

* ``principal``: each record is reduced to one code (its PDx-tagged code
  if present, else the lowest-sorted code) and scored as a multi-class
  problem over the code alphabet. Probabilistic errors use the one-hot
  distribution of the predicted class.
* ``multilabel``: exact-match (subset) accuracy plays the role of
  "Correctly Classified Instances" over label-combination classes, while
  the probabilistic errors are computed per binary code subproblem and
  averaged over the alphabet.

Relative errors are normalized against the zero-rule predictor that
always outputs the training-set prior.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import Dataset, Record, SplitSpec, label_indicator
from .errors import ValidationError
from .ontology import combo_key

MODE_PRINCIPAL = "principal"
MODE_MULTILABEL = "multilabel"
MODES = (MODE_PRINCIPAL, MODE_MULTILABEL)

# reserved class name for records/predictions with no code at all
NONE_CLASS = "(none)"


class ConfusionMatrix:
    """k x k integer counts; cell (i, j) counts true class i predicted as j."""

    def __init__(self, classes: Sequence[str], counts=None):
        self.classes = tuple(classes)
        if not self.classes:
            raise ValidationError("confusion matrix needs at least one class")
        k = len(self.classes)
        if counts is None:
            self.counts = np.zeros((k, k), dtype=np.int64)
        else:
            self.counts = np.asarray(counts, dtype=np.int64)
            if self.counts.shape != (k, k):
                raise ValidationError(f"counts shape {self.counts.shape} does not match {k} classes")
            if np.any(self.counts < 0):
                raise ValidationError("confusion matrix counts must be nonnegative")

    @classmethod
    def from_pairs(cls, classes: Sequence[str], pairs) -> "ConfusionMatrix":
        cm = cls(classes)
        index = {c: i for i, c in enumerate(cm.classes)}
        for truth, pred in pairs:
            try:
                cm.counts[index[truth], index[pred]] += 1
            except KeyError as exc:
                raise ValidationError(f"class {exc} is not in the matrix class list")
        return cm

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    def to_dict(self) -> dict:
        return {"classes": list(self.classes), "counts": self.counts.tolist()}


def accuracy(cm: ConfusionMatrix):
    """(correctly classified count, percentage of the total)."""
    if cm.total == 0:
        raise ValidationError("accuracy undefined for an empty matrix")
    return cm.correct, 100.0 * cm.correct / cm.total


def kappa(cm: ConfusionMatrix) -> float:
    """Cohen's kappa; 0 when expected agreement is already perfect."""
    n = cm.total
    if n == 0:
        raise ValidationError("kappa undefined for an empty matrix")
    p_o = cm.correct / n
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float((rows * cols).sum()) / (n * n)
    if p_e >= 1.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


class ErrorStats(NamedTuple):
    mae: float
    rmse: float
    rae_pct: float | None
    rrse_pct: float | None


def probabilistic_errors(predicted, targets, prior) -> ErrorStats:
    """WEKA-style absolute/squared errors of probability predictions.

    Args:
        predicted: (N, k) predicted class distributions.
        targets: (N, k) one-hot true classes.
        prior: (k,) training-set class distribution (the zero-rule predictor).

    Relative errors are None when the zero-rule denominator is zero
    (a constant single-class corpus).
    """
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    q = np.asarray(prior, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 2 or p.shape[1] != len(q):
        raise ValidationError("prediction, target, and prior shapes are inconsistent")
    if p.shape[0] == 0:
        raise ValidationError("no instances to evaluate")
    diff = p - t
    base = q[None, :] - t
    mae = float(np.abs(diff).mean())
    rmse = float(np.sqrt((diff**2).mean()))
    abs_base = float(np.abs(base).sum())
    sq_base = float((base**2).sum())
    rae = None if abs_base == 0 else 100.0 * float(np.abs(diff).sum()) / abs_base
    rrse = None if sq_base == 0 else 100.0 * float(np.sqrt((diff**2).sum() / sq_base))
    return ErrorStats(mae=mae, rmse=rmse, rae_pct=rae, rrse_pct=rrse)


@dataclass(frozen=True)
class MetricsReport:
    """The six-row table report plus identification metadata."""

    mode: str
    protocol: str
    correct: int
    total: int
    accuracy_pct: float
    kappa: float
    mae: float
    rmse: float
    rae_pct: float | None
    rrse_pct: float | None
    contaminated: bool = False

    def __post_init__(self) -> None:
        if self.total <= 0 or not 0 <= self.correct <= self.total:
            raise ValidationError("report counts are inconsistent")
        if abs(self.accuracy_pct - 100.0 * self.correct / self.total) > 1e-9:
            raise ValidationError("accuracy percentage must equal 100*correct/total")
        if self.kappa > 1.0 + 1e-12:
            raise ValidationError("kappa cannot exceed 1")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "protocol": self.protocol,
            "correct": self.correct,
            "total": self.total,
            "accuracy_pct": self.accuracy_pct,
            "kappa": self.kappa,
            "mae": self.mae,
            "rmse": self.rmse,
            "rae_pct": self.rae_pct,
            "rrse_pct": self.rrse_pct,
            "flags": ["resubstitution-contaminated"] if self.contaminated else [],
        }


@dataclass(frozen=True)
class PerLabelStats:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float | None:
        d = self.tp + self.fp
        return None if d == 0 else self.tp / d

    @property
    def recall(self) -> float | None:
        d = self.tp + self.fn
        return None if d == 0 else self.tp / d

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass(frozen=True)
class MultiLabelReport:
    """Set-prediction quality: exact matches, Hamming loss, per-label P/R."""

    subset_accuracy_pct: float
    hamming_loss: float
    per_label: dict
    trigger_rate: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.hamming_loss <= 1.0:
            raise ValidationError("Hamming loss must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "subset_accuracy_pct": self.subset_accuracy_pct,
            "hamming_loss": self.hamming_loss,
            "per_label": {c: s.to_dict() for c, s in sorted(self.per_label.items())},
            "trigger_rate": self.trigger_rate,
        }


@dataclass(frozen=True)
class EvalResult:
    metrics: MetricsReport
    multilabel: MultiLabelReport
    matrix: ConfusionMatrix

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics.to_dict(),
            "multilabel": self.multilabel.to_dict(),
            "confusion_matrix": self.matrix.to_dict(),
        }


def _combo_class(labels) -> str:
    return combo_key(labels) if labels else NONE_CLASS


# ---------------------------------------------------------------------------
# Core evaluation
# ---------------------------------------------------------------------------


def evaluate_predictions(
    model,
    eval_records: Sequence[Record],
    train_records: Sequence[Record],
    alphabet: Sequence[str],
    mode: str = MODE_MULTILABEL,
    protocol: str = "custom",
    contaminated: bool = False,
) -> EvalResult:
    """Evaluate ``model`` over ``eval_records`` with priors from ``train_records``.

    ``model`` has ``codes`` and ``predict_batch(X) -> (labels, scores, traces | None)``;
    it is called once, on the feature matrix of all of ``eval_records``.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown evaluation mode {mode!r}")
    if not eval_records:
        raise ValidationError("no records to evaluate")
    if not train_records:
        raise ValidationError("training records are required for the zero-rule prior")

    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValidationError("evaluation requires a non-empty label alphabet")
    if tuple(model.codes) != alphabet:
        raise ValidationError("model code alphabet differs from the dataset's")
    truths = [r.labels for r in eval_records]
    X = np.array([r.features for r in eval_records], dtype=np.float64)
    predictions, scores, traces = model.predict_batch(X)
    truth_indicator = label_indicator(truths, alphabet)

    if mode == MODE_PRINCIPAL:
        true_classes = [r.principal_code() or NONE_CLASS for r in eval_records]
        pred_classes = [min(p, default=NONE_CLASS) for p in predictions]
        train_classes = [r.principal_code() or NONE_CLASS for r in train_records]
        classes = list(alphabet)
        if NONE_CLASS in true_classes or NONE_CLASS in pred_classes:
            classes.append(NONE_CLASS)
        cm = ConfusionMatrix.from_pairs(classes, zip(true_classes, pred_classes))
        index = {c: i for i, c in enumerate(classes)}
        onehot = np.zeros((len(eval_records), len(classes)))
        target = np.zeros_like(onehot)
        for i, (t, p) in enumerate(zip(true_classes, pred_classes)):
            target[i, index[t]] = 1.0
            onehot[i, index[p]] = 1.0
        prior = np.zeros(len(classes))
        for c in train_classes:
            if c in index:
                prior[index[c]] += 1.0
        prior /= len(train_classes)
        errors = probabilistic_errors(onehot, target, prior)
    else:
        combo_truth = [_combo_class(t) for t in truths]
        combo_pred = [_combo_class(p) for p in predictions]
        classes = sorted(set(combo_truth) | set(combo_pred))
        cm = ConfusionMatrix.from_pairs(classes, zip(combo_truth, combo_pred))
        errors = _binary_averaged_errors(truth_indicator, scores, [r.labels for r in train_records], alphabet)

    correct, pct = accuracy(cm)
    metrics = MetricsReport(
        mode=mode,
        protocol=protocol,
        correct=correct,
        total=cm.total,
        accuracy_pct=pct,
        kappa=kappa(cm),
        mae=errors.mae,
        rmse=errors.rmse,
        rae_pct=errors.rae_pct,
        rrse_pct=errors.rrse_pct,
        contaminated=contaminated,
    )
    ml = _multilabel_report(alphabet, truths, predictions, truth_indicator, traces)
    return EvalResult(metrics=metrics, multilabel=ml, matrix=cm)


def _binary_averaged_errors(truth_indicator, scores, train_labels, alphabet) -> ErrorStats:
    """Probabilistic errors of each code's binary subproblem, averaged."""
    maes, rmses, raes, rrses = [], [], [], []
    priors = label_indicator(train_labels, alphabet).sum(axis=0) / len(train_labels)
    for j, q in enumerate(priors):
        s = scores[:, j]
        pred = np.column_stack([1.0 - s, s])
        y = truth_indicator[:, j].astype(np.float64)
        target = np.column_stack([1.0 - y, y])
        stats = probabilistic_errors(pred, target, np.array([1.0 - q, q]))
        maes.append(stats.mae)
        rmses.append(stats.rmse)
        if stats.rae_pct is not None:
            raes.append(stats.rae_pct)
        if stats.rrse_pct is not None:
            rrses.append(stats.rrse_pct)
    return ErrorStats(
        mae=float(np.mean(maes)),
        rmse=float(np.mean(rmses)),
        rae_pct=float(np.mean(raes)) if raes else None,
        rrse_pct=float(np.mean(rrses)) if rrses else None,
    )


def _multilabel_report(alphabet, truths, predictions, truth_indicator, traces) -> MultiLabelReport:
    n = len(truths)
    exact = sum(1 for t, p in zip(truths, predictions) if t == p)
    t = truth_indicator
    p = label_indicator(predictions, alphabet)
    tp = (t & p).sum(axis=0)
    fp = (p & ~t).sum(axis=0)
    fn = (t & ~p).sum(axis=0)
    tn = (~t & ~p).sum(axis=0)
    per_label = {
        code: PerLabelStats(tp=int(tp[j]), fp=int(fp[j]), fn=int(fn[j]), tn=int(tn[j]))
        for j, code in enumerate(alphabet)
    }
    seen = [] if traces is None else [tr for tr in traces if tr is not None]
    rate = sum(tr.triggered for tr in seen) / n if len(seen) == n else None
    return MultiLabelReport(
        subset_accuracy_pct=100.0 * exact / n,
        hamming_loss=int(fp.sum() + fn.sum()) / (n * len(alphabet)),
        per_label=per_label,
        trigger_rate=rate,
    )


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _check_model_split(model, ds: Dataset, split: SplitSpec) -> None:
    split.validate_against(ds)
    trained_on = getattr(model, "training_ids", None)
    if trained_on is not None and frozenset(trained_on) != split.train_ids:
        raise ValidationError("model was not trained on the split's training ids")


def evaluate_resubstitution(model, ds: Dataset, split: SplitSpec, mode: str = MODE_MULTILABEL) -> EvalResult:
    """Evaluate over ALL records, training ones included.

    This reproduces the recombine-training-with-the-rest protocol; the
    report is flagged resubstitution-contaminated because training records
    leak into the evaluation set.
    """
    _check_model_split(model, ds, split)
    train = [r for r in ds.records if r.id in split.train_ids]
    return evaluate_predictions(
        model,
        ds.records,
        train,
        ds.label_alphabet,
        mode=mode,
        protocol="resubstitution",
        contaminated=True,
    )


def evaluate_holdout(model, ds: Dataset, split: SplitSpec, mode: str = MODE_MULTILABEL) -> EvalResult:
    """Evaluate on the test side only."""
    _check_model_split(model, ds, split)
    train = [r for r in ds.records if r.id in split.train_ids]
    test = [r for r in ds.records if r.id in split.test_ids]
    return evaluate_predictions(
        model, test, train, ds.label_alphabet, mode=mode, protocol="holdout"
    )


def kfold_assignments(ds: Dataset, k: int, seed: int) -> list:
    """Seeded fold id-sets, stratified by each record's first (lowest) label.

    Records are dealt round-robin within strata with a global fold pointer,
    so fold sizes differ by at most one.
    """
    if k < 2:
        raise ValidationError("k-fold needs k >= 2")
    if k > len(ds.records):
        raise ValidationError(f"k={k} would leave folds with zero instances")
    strata: dict = {}
    for rec in ds.records:
        strata.setdefault(min(rec.labels) if rec.labels else NONE_CLASS, []).append(rec.id)
    rng = random.Random(seed)
    folds = [set() for _ in range(k)]
    pointer = 0
    for stratum in sorted(strata):
        ids = sorted(strata[stratum])
        rng.shuffle(ids)
        for rid in ids:
            folds[pointer % k].add(rid)
            pointer += 1
    return [frozenset(f) for f in folds]


@dataclass(frozen=True)
class KFoldResult:
    folds: tuple
    aggregate: MetricsReport
    fold_sizes: tuple

    def to_dict(self) -> dict:
        return {
            "aggregate": self.aggregate.to_dict(),
            "fold_sizes": list(self.fold_sizes),
            "folds": [f.to_dict() for f in self.folds],
        }


def evaluate_kfold(
    ds: Dataset,
    k: int,
    seed: int,
    trainer: Callable[[Dataset], object],
    mode: str = MODE_MULTILABEL,
) -> KFoldResult:
    """Stratified k-fold cross-validation with per-fold detail.

    ``trainer`` maps a training Dataset to a model. The aggregate report
    sums correct/total across folds and averages the remaining metrics
    (undefined relative errors are skipped).
    """
    assignments = kfold_assignments(ds, k, seed)
    results = []
    for fold_ids in assignments:
        train_ids = ds.record_ids() - fold_ids
        model = trainer(ds.subset(train_ids, name=f"{ds.name}-train"))
        train = [r for r in ds.records if r.id in train_ids]
        test = [r for r in ds.records if r.id in fold_ids]
        results.append(
            evaluate_predictions(
                model, test, train, ds.label_alphabet, mode=mode, protocol="kfold-fold"
            )
        )
    correct = sum(r.metrics.correct for r in results)
    total = sum(r.metrics.total for r in results)
    raes = [r.metrics.rae_pct for r in results if r.metrics.rae_pct is not None]
    rrses = [r.metrics.rrse_pct for r in results if r.metrics.rrse_pct is not None]
    aggregate = MetricsReport(
        mode=mode,
        protocol=f"kfold(k={k})",
        correct=correct,
        total=total,
        accuracy_pct=100.0 * correct / total,
        kappa=float(np.mean([r.metrics.kappa for r in results])),
        mae=float(np.mean([r.metrics.mae for r in results])),
        rmse=float(np.mean([r.metrics.rmse for r in results])),
        rae_pct=float(np.mean(raes)) if raes else None,
        rrse_pct=float(np.mean(rrses)) if rrses else None,
    )
    return KFoldResult(
        folds=tuple(results),
        aggregate=aggregate,
        fold_sizes=tuple(len(a) for a in assignments),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _pct(value: float) -> str:
    return f"{value:.4f}"


def _plain(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def format_report(report: MetricsReport) -> str:
    """Table-style text rendering: fixed 4-decimal numbers, tab-separated."""
    acc = _pct(report.accuracy_pct)
    # rendered accuracy and error must sum to exactly 100
    err = str(Decimal("100.0000") - Decimal(acc))
    incorrect = report.total - report.correct
    suffix = " [resubstitution-contaminated]" if report.contaminated else ""
    lines = [
        f"=== {report.mode} evaluation, {report.protocol} protocol{suffix} ===",
        f"Correctly Classified Instances\t{report.correct}\t{acc} %",
        f"Incorrectly Classified Instances\t{incorrect}\t{err} %",
        f"Kappa statistic\t{_plain(report.kappa)}",
        f"Mean absolute error\t{_plain(report.mae)}",
        f"Root mean squared error\t{_plain(report.rmse)}",
        f"Relative absolute error\t{_plain(report.rae_pct)}" + (" %" if report.rae_pct is not None else ""),
        f"Root relative squared error\t{_plain(report.rrse_pct)}" + (" %" if report.rrse_pct is not None else ""),
        f"Total Number of Instances\t{report.total}",
    ]
    return "\n".join(lines)
