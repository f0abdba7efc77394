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

from .data import NONE_CLASS, Dataset, _distinct_labelsets, _principal_columns
from .errors import ValidationError
from .ontology import combo_key

MODE_PRINCIPAL = "principal"
MODE_MULTILABEL = "multilabel"
MODES = (MODE_PRINCIPAL, MODE_MULTILABEL)


class ConfusionMatrix:
    """k x k integer counts; cell (i, j) counts true class i predicted as j."""

    def __init__(self, classes: Sequence[str], counts):
        self.classes = tuple(classes)
        if not self.classes:
            raise ValidationError("confusion matrix needs at least one class")
        k = len(self.classes)
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape != (k, k):
            raise ValidationError(f"counts shape {self.counts.shape} does not match {k} classes")
        if np.any(self.counts < 0):
            raise ValidationError("confusion matrix counts must be nonnegative")

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
    kappa: float
    mae: float
    rmse: float
    rae_pct: float | None
    rrse_pct: float | None

    @property
    def contaminated(self) -> bool:
        """A resubstitution report: the model's training records are among those it scores."""
        return self.protocol == "resubstitution"

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.correct / self.total

    def __post_init__(self) -> None:
        if self.total <= 0 or not 0 <= self.correct <= self.total:
            raise ValidationError("report counts are inconsistent")
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


# ---------------------------------------------------------------------------
# Core evaluation
# ---------------------------------------------------------------------------


def evaluate_predictions(
    model,
    eval_ds: Dataset,
    train_ds: Dataset,
    mode: str = MODE_MULTILABEL,
    protocol: str = "custom",
) -> EvalResult:
    """Evaluate ``model`` over the records of ``eval_ds`` with priors from those of ``train_ds``.

    ``model`` has ``codes`` and ``predict_batch(X) -> (label indicator, scores, reasons | None)``;
    it is called once, on ``eval_ds.X``.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown evaluation mode {mode!r}")
    if not len(eval_ds):
        raise ValidationError("no records to evaluate")
    if not len(train_ds):
        raise ValidationError("training records are required for the zero-rule prior")

    alphabet = eval_ds.label_alphabet
    if not alphabet:
        raise ValidationError("evaluation requires a non-empty label alphabet")
    if train_ds.label_alphabet != alphabet:
        raise ValidationError("training and evaluation records differ in their label alphabet")
    if tuple(model.codes) != alphabet:
        raise ValidationError("model code alphabet differs from the dataset's")
    predicted, scores, reasons = model.predict_batch(eval_ds.X)

    # truth and guess: each row's class, as an index into ``classes``
    if mode == MODE_PRINCIPAL:
        truth = _principal_columns(eval_ds.Y, eval_ds.roles)
        guess = _principal_columns(predicted)
        classes = list(alphabet) + [NONE_CLASS] * int(max(truth.max(), guess.max()) == len(alphabet))
        prior = np.bincount(_principal_columns(train_ds.Y, train_ds.roles), minlength=len(alphabet) + 1)
        onehot = np.eye(len(classes))
        errors = probabilistic_errors(onehot[guess], onehot[truth], prior[: len(classes)] / len(train_ds))
    else:
        truth_sets, truth = _distinct_labelsets(eval_ds.Y, alphabet)
        guess_sets, guess = _distinct_labelsets(predicted, alphabet)
        keys = {labels: combo_key(labels) if labels else NONE_CLASS for labels in truth_sets + guess_sets}
        classes = sorted(set(keys.values()))
        truth = np.array([classes.index(keys[labels]) for labels in truth_sets])[truth]
        guess = np.array([classes.index(keys[labels]) for labels in guess_sets])[guess]
        errors = _binary_averaged_errors(eval_ds.Y, scores, train_ds.Y)
    k = len(classes)
    cm = ConfusionMatrix(classes, np.bincount(truth * k + guess, minlength=k * k).reshape(k, k))

    correct, _ = accuracy(cm)
    metrics = MetricsReport(
        mode=mode,
        protocol=protocol,
        correct=correct,
        total=cm.total,
        kappa=kappa(cm),
        mae=errors.mae,
        rmse=errors.rmse,
        rae_pct=errors.rae_pct,
        rrse_pct=errors.rrse_pct,
    )
    ml = _multilabel_report(alphabet, eval_ds.Y, predicted, reasons)
    return EvalResult(metrics=metrics, multilabel=ml, matrix=cm)


def _binary_averaged_errors(truth_indicator, scores, train_indicator) -> ErrorStats:
    """Probabilistic errors of each code's binary subproblem, averaged."""
    stats = []
    priors = train_indicator.sum(axis=0) / len(train_indicator)
    for j, q in enumerate(priors):
        s = scores[:, j]
        pred = np.column_stack([1.0 - s, s])
        y = truth_indicator[:, j].astype(np.float64)
        target = np.column_stack([1.0 - y, y])
        stats.append(probabilistic_errors(pred, target, np.array([1.0 - q, q])))
    return _mean_errors(stats)


def _mean_errors(stats: Sequence[ErrorStats]) -> ErrorStats:
    """Field-by-field mean of ``stats``; undefined relative errors are skipped, and a field none defines is None."""
    columns = ([v for v in column if v is not None] for column in zip(*stats))
    return ErrorStats(*(float(np.mean(c)) if c else None for c in columns))


def _multilabel_report(alphabet, t: np.ndarray, p: np.ndarray, reasons) -> MultiLabelReport:
    """Exact matches, Hamming loss and per-code counts of truth ``t`` against prediction ``p``."""
    n = len(t)
    exact = int((t == p).all(axis=1).sum())
    tp = (t & p).sum(axis=0)
    fp = (p & ~t).sum(axis=0)
    fn = (t & ~p).sum(axis=0)
    tn = (~t & ~p).sum(axis=0)
    per_label = {
        code: PerLabelStats(tp=int(tp[j]), fp=int(fp[j]), fn=int(fn[j]), tn=int(tn[j]))
        for j, code in enumerate(alphabet)
    }
    return MultiLabelReport(
        subset_accuracy_pct=100.0 * exact / n,
        hamming_loss=int(fp.sum() + fn.sum()) / (n * len(alphabet)),
        per_label=per_label,
        trigger_rate=None if reasons is None else np.count_nonzero(reasons) / n,
    )


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


def _training_records(model, ds: Dataset) -> Dataset:
    """The records of ``ds`` that ``model`` was trained on; every one of its ``training_ids`` must be in ``ds``."""
    try:
        return ds.subset(model.training_ids)
    except ValidationError:
        missing = model.training_ids - ds.record_ids()
        if not missing:
            raise
        message = f"dataset lacks {len(missing)} of the model's training records: {sorted(missing)[:5]}"
        raise ValidationError(message) from None


def evaluate_resubstitution(model, ds: Dataset, mode: str = MODE_MULTILABEL) -> EvalResult:
    """Evaluate over ALL records of ``ds``, the model's training records included.

    This reproduces the recombine-training-with-the-rest protocol; the
    report is flagged resubstitution-contaminated because training records
    leak into the evaluation set.
    """
    train = _training_records(model, ds)
    return evaluate_predictions(model, ds, train, mode=mode, protocol="resubstitution")


def evaluate_holdout(model, ds: Dataset, mode: str = MODE_MULTILABEL) -> EvalResult:
    """Evaluate on the records of ``ds`` that the model was not trained on."""
    train, test = _training_records(model, ds), ds.subset(ds.record_ids() - model.training_ids)
    if not len(test):
        raise ValidationError(f"all {len(ds)} records of the dataset are the model's training records; none is held out")
    return evaluate_predictions(model, test, train, mode=mode, protocol="holdout")


def kfold_assignments(ds: Dataset, k: int, seed: int) -> list:
    """Seeded fold id-sets, stratified by each record's first (lowest) label.

    Records are dealt round-robin within strata with a global fold pointer,
    so fold sizes differ by at most one.
    """
    if k < 2:
        raise ValidationError("k-fold needs k >= 2")
    if k > len(ds):
        raise ValidationError(f"k={k} would leave folds with zero instances")
    strata: dict = {}
    classes = ds.label_alphabet + (NONE_CLASS,)
    for rid, column in zip(ds.ids, _principal_columns(ds.Y).tolist()):
        strata.setdefault(classes[column], []).append(rid)
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
    """The per-fold results of ``evaluate_kfold``, in fold order; the sizes and the aggregate are read off them."""

    folds: tuple

    @property
    def fold_sizes(self) -> tuple:
        return tuple(f.metrics.total for f in self.folds)

    @property
    def aggregate(self) -> MetricsReport:
        """Correct and total summed over the folds, kappa and the errors averaged (see ``_mean_errors``)."""
        metrics = [f.metrics for f in self.folds]
        errors = _mean_errors([ErrorStats(m.mae, m.rmse, m.rae_pct, m.rrse_pct) for m in metrics])
        return MetricsReport(
            mode=metrics[0].mode,
            protocol=f"kfold(k={len(metrics)})",
            correct=sum(m.correct for m in metrics),
            total=sum(m.total for m in metrics),
            kappa=float(np.mean([m.kappa for m in metrics])),
            **errors._asdict(),
        )

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
    trainer: Callable[[Dataset, list], Sequence],
    mode: str = MODE_MULTILABEL,
) -> KFoldResult:
    """Stratified k-fold cross-validation with per-fold detail.

    ``trainer(ds, training_sets)`` maps the k training sets, each the
    frozenset of the ids of the records of ``ds`` outside one fold, in fold
    order, to the k models, in the same order; ``cascade.train_cascades``
    (with its keyword arguments bound) is one. Each model is then scored on
    its fold, and the result holds the k fold results (see ``KFoldResult``).
    """
    assignments = kfold_assignments(ds, k, seed)
    training_sets = [ds.record_ids() - fold_ids for fold_ids in assignments]
    models = trainer(ds, training_sets)
    if len(models) != k:
        raise ValidationError(f"the trainer returned {len(models)} models for {k} folds")
    results = [
        evaluate_predictions(model, ds.subset(fold_ids), ds.subset(train_ids), mode=mode, protocol="kfold-fold")
        for model, fold_ids, train_ids in zip(models, assignments, training_sets)
    ]
    return KFoldResult(tuple(results))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _plain(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def format_report(report: MetricsReport) -> str:
    """Table-style text rendering: fixed 4-decimal numbers, tab-separated."""
    acc = _plain(report.accuracy_pct)
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
