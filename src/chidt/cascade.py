"""Multi-label wrappers and the two-stage cascade classifier.

Stage 1 is a binary-relevance bank of per-code trees. Its prediction is
checked against the valid-combination registry; a known error (empty,
excluded, or unregistered combination) triggers stage 2, whose output is
returned verbatim. By default stage 2 is a deliberately diversified BR
bank (unpruned, min-leaf 1); a label-powerset stage 2, which can only emit
observed combinations, is available as an alternative strategy.

Training has one path, ``train_cascades``: one cascade per set of training
records (the k training sets of a k-fold run, say), with all the sets'
trees of a stage grown by one ``grow_bank`` call. Under diverse-br that
call grows both stages, so a node that both stages reach is counted and
scored once; each stage is pruned with its own parameters.
``train_chidt`` is its one-set view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import AttributeMeta, Dataset, _distinct_labelsets, label_indicator
from .errors import SchemaMismatchError, ValidationError
from .jsondoc import Fields, code_sets, distinct, fields, flag, items, number, one_of, strings
from .ontology import REASONS, ExclusionGroup, ValidCombinationRegistry, _read_registry, combo_key, is_valid
from .ontology import observed_registry
from .tree import C45Params, C45Tree, _read_params, _read_schema, _read_tree, grow_bank, leaf_distributions
from .tree import route_bank, schema_fingerprint

BINARY_CLASSES = ("absent", "present")

STRATEGY_DIVERSE_BR = "diverse-br"
STRATEGY_LABEL_POWERSET = "label-powerset"
STRATEGIES = (STRATEGY_DIVERSE_BR, STRATEGY_LABEL_POWERSET)

# stage-2 diversification: a different decision surface over the same data
DIVERSE_STAGE2_PARAMS = C45Params(min_leaf=1, pruning=False)


def _feature_matrix(attributes: Sequence[AttributeMeta], X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(attributes):
        raise SchemaMismatchError(
            f"feature matrix of shape {X.shape} does not match the model schema's {len(attributes)} attributes"
        )
    return X


@dataclass
class BRModel:
    """One binary tree per code; a code is predicted present when its
    positive-class probability reaches the decision threshold."""

    codes: tuple
    trees: tuple
    attributes: tuple
    threshold: float = 0.5
    params: C45Params = field(default_factory=C45Params)

    @property
    def constant_codes(self) -> dict:
        """``negative`` for each code whose tree saw no positive training row, ``positive`` for one that saw
        no negative: a function of the root counts."""
        roots = zip(self.codes, (tree.counts[0].tolist() for tree in self.trees))
        return {code: "negative" if pos == 0 else "positive" for code, (neg, pos) in roots if 0 in (neg, pos)}

    def predict_batch(self, X):
        X = _feature_matrix(self.attributes, X)
        scores = np.empty((len(X), len(self.trees)))
        for j, (tree, leaf) in enumerate(zip(self.trees, route_bank(self.trees, X))):
            scores[:, j] = (tree.counts[:, 1] / tree.counts.sum(axis=1))[leaf]
        return scores >= self.threshold, scores, None

    def to_dict(self) -> dict:
        return {
            "kind": "br",
            "codes": list(self.codes),
            "threshold": self.threshold,
            "params": self.params.to_dict(),
            "constant_codes": dict(sorted(self.constant_codes.items())),
            "trees": [t.to_dict() for t in self.trees],
        }


@dataclass
class LPModel:
    """A single multi-class tree over the distinct observed label combinations.

    ``codes`` is the code alphabet its per-code scores are aligned with.
    """

    tree: C45Tree
    combos: tuple
    codes: tuple
    attributes: tuple
    params: C45Params = field(default_factory=C45Params)

    def __post_init__(self) -> None:
        object.__setattr__(self, "combos", tuple(frozenset(c) for c in self.combos))
        if not self.combos:
            raise ValidationError("label-powerset model needs at least one combination class")
        distinct(self.combos, "label-powerset combos", "combination", sorted)
        if any(not c for c in self.combos):
            raise ValidationError("label-powerset classes must decode to non-empty LabelSets")
        unknown = sorted(frozenset().union(*self.combos).difference(self.codes))
        if unknown:
            raise ValidationError(f"label-powerset combinations name codes outside the code alphabet: {unknown}")

    def predict_batch(self, X):
        """Majority combination per row plus per-code marginals: each
        combination's probability mass goes to its codes."""
        dist = leaf_distributions(self.tree, _feature_matrix(self.attributes, X))
        members = label_indicator(self.combos, self.codes)
        scores = np.zeros((len(dist), len(self.codes)))
        # one combination at a time, so each marginal is summed in the same
        # order as a one-row loop over the combinations would
        for k, member in enumerate(members):
            scores[:, member] += dist[:, k, None]
        return members[np.argmax(dist, axis=1)], scores, None

    def to_dict(self) -> dict:
        return {
            "kind": "lp",
            "combos": [sorted(c) for c in self.combos],
            "params": self.params.to_dict(),
            "tree": self.tree.to_dict(),
        }


def _training_rows(ds: Dataset, training_sets: list) -> np.ndarray:
    """(records, sets) bool: cell (i, s) is set iff record ``ds.ids[i]`` is in ``training_sets[s]``."""
    if not training_sets:
        raise ValidationError("no training sets to train on")
    columns = []
    for ids in training_sets:  # the first set that fails names the error: its emptiness, then its unknown ids
        if not ids:
            raise ValidationError("cannot train on an empty dataset")
        columns.append(ds.rows(ids))
    return np.column_stack(columns)


def _refuse_empty_labelsets(ds: Dataset, training: np.ndarray) -> None:
    """Label-powerset classes are combinations: refuse the first training set that has a record without codes."""
    for rows in (training & ~ds.Y.any(axis=1)[:, None]).T:
        if rows.any():
            empties = [ds.ids[i] for i in np.flatnonzero(rows)]
            raise ValidationError(f"label-powerset training requires non-empty LabelSets: {empties[:5]}")


def _br_banks(ds: Dataset, training: np.ndarray, stages: Sequence[C45Params], threshold: float) -> list:
    """For each parameter set of ``stages``, one BR model per column of ``training``: the banks of all the
    stages and sets grow together, with one ``grow_bank`` call over ``np.tile(ds.Y, sets)`` (tree
    ``(stage * sets + s) * codes + j`` is code j of set s)."""
    n_codes, n_sets = len(ds.label_alphabet), training.shape[1]
    Y, rows = np.tile(ds.Y, n_sets), np.repeat(training, n_codes, axis=1)
    trees = grow_bank(ds.feature_matrix(), Y, ds.attributes, BINARY_CLASSES, stages, rows)
    banks = [tuple(trees[b * n_codes : (b + 1) * n_codes]) for b in range(len(stages) * n_sets)]
    return [
        [BRModel(ds.label_alphabet, banks[i * n_sets + s], ds.attributes, threshold, params) for s in range(n_sets)]
        for i, params in enumerate(stages)
    ]


def _lp_trees(ds: Dataset, training: np.ndarray, params: C45Params) -> list:
    """One label-powerset model per column of ``training``, the trees grown by one ``grow_bank`` call.

    The trees share one class list: the union of the sets' combinations, in
    ``combo_key`` order. ``grow_bank`` prunes the trees over that list, if
    ``params.pruning`` is set, and each tree's counts are then cut to its own
    set's combinations. A combination that a set lacks is a column of zeros
    in its tree, which changes neither a node's row count nor its largest
    count: every pessimistic error, and so the pruned tree, is the same as
    over the set's own combinations. So each tree is the tree that its set
    grows, and prunes, alone.
    """
    used = np.flatnonzero(training.any(axis=1))
    distinct, inverse = _distinct_labelsets(ds.Y[used], ds.label_alphabet)
    order = sorted(range(len(distinct)), key=lambda c: combo_key(distinct[c]))
    combos = [distinct[c] for c in order]
    names = [combo_key(c) for c in combos]
    y = np.zeros(len(ds), dtype=np.int64)
    y[used] = np.argsort(order)[inverse]  # each record's rank of its combination
    present = np.zeros((len(combos), training.shape[1]), dtype=bool)  # the combinations of each set
    rows, sets = np.nonzero(training)
    present[y[rows], sets] = True
    Y = np.repeat(y[:, None], training.shape[1], axis=1)
    models = []
    for tree, own in zip(grow_bank(ds.feature_matrix(), Y, ds.attributes, names, (params,), training), present.T):
        own = np.flatnonzero(own)
        tree = replace(tree, counts=tree.counts[:, own], class_names=tuple(names[c] for c in own))
        models.append(LPModel(tree, tuple(combos[c] for c in own), ds.label_alphabet, ds.attributes, params))
    return models


@dataclass
class ChiDTModel:
    """Cascade of two same-data classifiers with registry-triggered fallback.

    Both stages, and the cascade itself, follow one predictor protocol:
    ``codes`` plus ``predict_batch(X) -> (n x codes bool label indicator,
    n x codes scores, uint8 reason per row | None)``; a reason indexes
    ``REASONS``, 0 meaning the row passed the check. ``predict_with_scores(x)``
    is the one per-record view over it. ``training_ids`` are the records
    both stages were trained on.
    """

    stage1: BRModel
    stage2: BRModel | LPModel
    registry: ValidCombinationRegistry
    exclusions: tuple = ()
    single_label_fallback: bool = False
    training_ids: frozenset = frozenset()

    def __post_init__(self) -> None:
        if tuple(self.stage1.codes) != tuple(self.stage2.codes):
            raise ValidationError("cascade stages must share one code alphabet")
        object.__setattr__(self, "exclusions", tuple(self.exclusions))
        object.__setattr__(self, "training_ids", frozenset(self.training_ids))

    @property
    def strategy(self) -> str:
        return STRATEGY_LABEL_POWERSET if isinstance(self.stage2, LPModel) else STRATEGY_DIVERSE_BR

    @property
    def attributes(self) -> tuple:
        return self.stage1.attributes

    @property
    def codes(self) -> tuple:
        return self.stage1.codes

    def predict_with_scores(self, x):
        """(final labels as a frozenset, per-code scores from the stage that produced them, reason string) of
        the single feature vector ``x``: row 0 of ``predict_batch``."""
        Y, scores, reasons = self.predict_batch(np.asarray(x, dtype=np.float64)[None])
        return frozenset(code for code, on in zip(self.codes, Y[0]) if on), scores[0], REASONS[reasons[0]]

    def predict_batch(self, X):
        """(final label indicator, scores, reasons) per row of ``X``.

        Stage 1 scores the whole batch; the validity check runs once per
        distinct stage-1 combination; stage 2 runs once, on the triggered
        rows (a nonzero reason) only, and overwrites just their rows of the
        indicator and the scores.
        """
        X = _feature_matrix(self.attributes, X)
        Y, scores, _ = self.stage1.predict_batch(X)
        stage1_sets, inverse = _distinct_labelsets(Y, self.codes)
        checks = [REASONS.index(is_valid(self.registry, self.exclusions, s1)[1]) for s1 in stage1_sets]
        reasons = np.array(checks, dtype=np.uint8)[inverse]
        triggered = np.flatnonzero(reasons)
        if not triggered.size:
            return Y, scores, reasons
        Y2, scores2, _ = self.stage2.predict_batch(X[triggered])
        if self.single_label_fallback:
            finals, which = _distinct_labelsets(Y2, self.codes)
            invalid = np.array([not is_valid(self.registry, self.exclusions, f)[0] for f in finals])[which]
            Y2[invalid] = np.eye(len(self.codes), dtype=bool)[np.argmax(scores2[invalid], axis=1)]
        Y[triggered], scores[triggered] = Y2, scores2
        return Y, scores, reasons


def train_cascades(
    ds: Dataset,
    training_sets: Sequence,
    stage1_params: C45Params | None = None,
    stage2_params: C45Params | None = None,
    strategy: str = STRATEGY_DIVERSE_BR,
    declared: ValidCombinationRegistry | None = None,
    exclusions: Sequence[ExclusionGroup] = (),
    threshold: float = 0.5,
    single_label_fallback: bool = False,
) -> list:
    """One cascade per set of record ids of ``ds`` in ``training_sets``, each trained on those records alone.

    The sets' trees grow together, with one ``grow_bank`` call for both
    diverse-br stages, or one per stage under label-powerset (see
    ``_br_banks`` and ``_lp_trees``), and each equals the tree that its set
    grows alone in its stage. Each cascade's registry is the combinations
    observed in its own records, merged with ``declared`` if given
    (observed provenance wins where both list a combination). Stage-2
    parameters default to the diversified unpruned/min-leaf-1 profile for
    the diverse-br strategy and to stage-1 defaults otherwise. Every set is
    checked before any tree grows, and an error names the first set that
    fails.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown cascade strategy {strategy!r}")
    training_sets = [frozenset(ids) for ids in training_sets]
    training = _training_rows(ds, training_sets)
    if not ds.label_alphabet:
        raise ValidationError("cannot train with an empty label alphabet")
    if strategy == STRATEGY_LABEL_POWERSET:
        _refuse_empty_labelsets(ds, training)
    stage1_params = stage1_params or C45Params()
    if strategy == STRATEGY_DIVERSE_BR:
        stage1, stage2 = _br_banks(ds, training, (stage1_params, stage2_params or DIVERSE_STAGE2_PARAMS), threshold)
    else:
        (stage1,) = _br_banks(ds, training, (stage1_params,), threshold)
        stage2 = _lp_trees(ds, training, stage2_params or C45Params())
    observed = [observed_registry(ds.Y[rows], ds.label_alphabet) for rows in training.T]
    return [
        ChiDTModel(
            stage1=s1,
            stage2=s2,
            registry=registry if declared is None else registry.merged(declared),
            exclusions=tuple(exclusions),
            single_label_fallback=single_label_fallback,
            training_ids=ids,
        )
        for s1, s2, registry, ids in zip(stage1, stage2, observed, training_sets)
    ]


def train_chidt(ds: Dataset, **kwargs) -> ChiDTModel:
    """Train both cascade stages on all the records of ``ds``: the one-set view of ``train_cascades``, whose
    keyword arguments it takes. Its registry is the combinations observed in ``ds``, merged with ``declared``."""
    return train_cascades(ds, [ds.record_ids()], **kwargs)[0]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def model_to_dict(model: ChiDTModel) -> dict:
    return {
        "format": "chidt-model",
        "strategy": model.strategy,
        "single_label_fallback": model.single_label_fallback,
        "schema": schema_fingerprint(model.attributes, model.codes),
        "training_ids": sorted(model.training_ids),
        "registry": model.registry.to_dict(),
        "exclusions": [sorted(g.codes) for g in model.exclusions],
        "stage1": model.stage1.to_dict(),
        "stage2": model.stage2.to_dict(),
    }


def _read_stage(doc, where: str, kinds, attributes, alphabet):
    """A model stage: a BR bank or, where ``kinds`` allows, a label-powerset tree over ``alphabet``."""
    if one_of(fields(doc, where).get("kind"), f"{where}.kind", kinds) == "lp":
        f = Fields(doc, where, ("kind", "combos", "params", "tree"), ("combos", "tree"))
        combos = distinct(f.get("combos", code_sets), f.path("combos"), "combination", sorted)
        tree = f.get("tree", _read_tree, attributes=attributes, class_names=[combo_key(c) for c in combos])
        params = f.get("params", _read_params, C45Params())
        return LPModel(tree, combos, tuple(alphabet), tuple(attributes), params)
    f = Fields(doc, where, ("kind", "codes", "threshold", "params", "constant_codes", "trees"), ("codes", "trees"))
    codes = f.get("codes", strings)
    trees = f.get("trees", items, entry=_read_tree, attributes=attributes, class_names=BINARY_CLASSES)
    if len(trees) != len(codes):
        raise ValidationError(f"{f.path('trees')} has {len(trees)} trees for {len(codes)} codes")
    model = BRModel(
        codes=codes,
        trees=tuple(trees),
        attributes=tuple(attributes),
        threshold=f.get("threshold", number, 0.5, low=0.0, high=1.0, open_low=True),
        params=f.get("params", _read_params, C45Params()),
    )
    if doc.get("constant_codes", model.constant_codes) != model.constant_codes:
        raise ValidationError(f"{f.path('constant_codes')} contradicts the trees' root counts: {model.constant_codes}")
    return model


def model_from_dict(doc) -> ChiDTModel:
    if type(doc) is not dict or doc.get("format") != "chidt-model":
        raise ValidationError("not a cascade model document")
    keys = ("format", "strategy", "schema", "training_ids", "registry", "exclusions", "stage1", "stage2")
    f = Fields(doc, "model", keys + ("single_label_fallback",), keys)
    attributes, classes = f.get("schema", _read_schema)
    stage = dict(attributes=attributes, alphabet=classes)
    stage1 = f.get("stage1", _read_stage, kinds=("br",), **stage)
    if stage1.codes != classes:
        raise SchemaMismatchError("stage-1 code list does not match the model schema")
    model = ChiDTModel(
        stage1=stage1,
        stage2=f.get("stage2", _read_stage, kinds=("br", "lp"), **stage),
        registry=f.get("registry", _read_registry),
        exclusions=tuple(map(ExclusionGroup, f.get("exclusions", code_sets))),
        single_label_fallback=f.get("single_label_fallback", flag, False),
        training_ids=distinct(f.get("training_ids", strings), f.path("training_ids"), "record id"),
    )
    strategy = f.get("strategy", one_of, choices=STRATEGIES)
    if strategy != model.strategy:
        raise ValidationError(f"stored strategy {strategy!r} contradicts its {model.strategy} stage 2")
    return model
