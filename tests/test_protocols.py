"""Resubstitution, holdout, and k-fold evaluation protocols."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from chidt.cascade import train_cascades, train_chidt
from chidt.data import (
    GeneratorConfig,
    GeneratorProfile,
    cover_all_labels_split,
    generate_synthetic,
    load_csv,
)
from chidt.errors import ValidationError
from chidt.evaluation import (
    evaluate_holdout,
    evaluate_kfold,
    evaluate_predictions,
    evaluate_resubstitution,
    kfold_assignments,
)
from chidt.tree import C45Params

from conftest import batch_rows, make_dataset, row_labels


def small_corpus(seed=5, n=60, noise=0.05):
    profiles = (
        GeneratorProfile(labels={"a"}, rates=(0.9, 0.1, 0.3, 0.2)),
        GeneratorProfile(labels={"b"}, rates=(0.1, 0.9, 0.3, 0.8)),
        GeneratorProfile(labels={"a", "c"}, rates=(0.9, 0.2, 0.9, 0.5)),
    )
    ds, _ = generate_synthetic(
        GeneratorConfig(profiles=profiles, n_records=n, noise_rate=noise, seed=seed)
    )
    return ds


class SpyModel:
    """Constant predictor remembering every feature vector it was shown."""

    def __init__(self, labels=frozenset({"a"}), codes=("a", "b", "c"), training_ids=frozenset()):
        self.labels = frozenset(labels)
        self.codes = tuple(codes)
        self.training_ids = frozenset(training_ids)
        self.seen = []

    def predict_batch(self, X):
        self.seen.extend(tuple(row) for row in X)
        Y = np.array([[c in self.labels for c in self.codes]] * len(X), dtype=bool).reshape(len(X), len(self.codes))
        return Y, Y.astype(np.float64), None


class TestResubstitution:
    def test_memorizing_model_gets_training_side_right(self):
        # unique feature rows so an unpruned min-leaf-1 model memorizes them
        rows = list(itertools.product((0, 1), repeat=5))[:24]
        rng = random.Random(3)
        combos = [{"a"}, {"b"}, {"a", "c"}]
        labelsets = [rng.choice(combos) for _ in rows]
        ds = make_dataset(rows, labelsets, alphabet=list("abc"))
        train_ids = cover_all_labels_split(ds, 10, seed=1)
        train_ds = ds.subset(train_ids)
        model = train_chidt(
            train_ds,
            stage1_params=C45Params(min_leaf=1, pruning=False),
            strategy="label-powerset",
        )
        result = evaluate_resubstitution(model, ds)
        assert result.metrics.total == len(rows)
        assert result.metrics.correct >= len(train_ids)
        assert result.metrics.contaminated
        assert "resubstitution-contaminated" in result.metrics.to_dict()["flags"]

    def test_empty_test_side_equals_training_set_evaluation(self):
        ds = small_corpus()
        model = train_chidt(ds, strategy="label-powerset")
        resub = evaluate_resubstitution(model, ds)
        direct = evaluate_predictions(model, ds, ds, protocol="resubstitution")
        assert resub.metrics.correct == direct.metrics.correct
        assert resub.metrics.mae == pytest.approx(direct.metrics.mae, abs=1e-12)

    def test_total_instances_on_196_record_corpus(self):
        ds = small_corpus(n=196)
        train_ds = ds.subset(cover_all_labels_split(ds, 53, seed=2))
        model = train_chidt(train_ds)
        result = evaluate_resubstitution(model, ds)
        assert result.metrics.total == 196
        assert "Total Number of Instances\t196" in __import__("chidt").format_report(result.metrics)

    def test_wrong_training_ids_rejected(self):
        # under either protocol, a dataset that lacks some of the model's training records is refused
        ds = small_corpus()
        model = train_chidt(ds)  # trained on r00 to r59
        rest = ds.subset(sorted(ds.record_ids())[7:])
        message = r"^dataset lacks 7 of the model's training records: \['r00', 'r01', 'r02', 'r03', 'r04'\]$"
        for evaluate in (evaluate_resubstitution, evaluate_holdout):
            with pytest.raises(ValidationError, match=message):
                evaluate(model, rest)


class TestHoldout:
    def test_only_test_records_are_read(self):
        ds = small_corpus()
        spy = SpyModel(training_ids=cover_all_labels_split(ds, 20, seed=4))
        evaluate_holdout(spy, ds)
        test_ids = ds.record_ids() - spy.training_ids
        test_features = {tuple(x) for rid, x in zip(ds.ids, ds.X.tolist()) if rid in test_ids}
        assert set(spy.seen) <= test_features
        assert len(spy.seen) == len(test_ids)

    def test_reports_test_side_total(self):
        ds = small_corpus()
        model = train_chidt(ds.subset(cover_all_labels_split(ds, 20, seed=4)))
        result = evaluate_holdout(model, ds)
        assert result.metrics.total == len(ds) - 20
        assert result.metrics.protocol == "holdout"

    def test_nothing_held_out_rejected(self):
        ds = small_corpus()
        model = train_chidt(ds)
        message = r"^all 60 records of the dataset are the model's training records; none is held out$"
        with pytest.raises(ValidationError, match=message):
            evaluate_holdout(model, ds)


class TestKFold:
    def test_leave_one_out_runs_n_trainings(self):
        ds = small_corpus(n=12)
        calls = []

        def trainer(ds, training_sets):
            calls.append([len(ids) for ids in training_sets])
            return train_cascades(ds, training_sets, strategy="label-powerset")

        result = evaluate_kfold(ds, k=12, seed=5, trainer=trainer)
        assert calls == [[11] * 12]
        assert result.aggregate.total == 12

    def test_fold_sizes_differ_by_at_most_one(self):
        ds = small_corpus(n=50)
        for k in (2, 3, 7, 10):
            sizes = [len(f) for f in kfold_assignments(ds, k, seed=6)]
            assert sum(sizes) == 50
            assert max(sizes) - min(sizes) <= 1

    def test_assignments_partition_and_are_deterministic(self):
        ds = small_corpus(n=37)
        a1 = kfold_assignments(ds, 5, seed=7)
        a2 = kfold_assignments(ds, 5, seed=7)
        assert a1 == a2
        union = set().union(*a1)
        assert union == set(ds.record_ids())
        assert sum(len(f) for f in a1) == len(union)

    def test_stratification_spreads_first_labels(self):
        ds = small_corpus(n=60, noise=0.0)
        folds = kfold_assignments(ds, 3, seed=8)
        first = {rid: min(labels) for rid, labels in zip(ds.ids, row_labels(ds))}
        totals = {c: sum(1 for v in first.values() if v == c) for c in set(first.values())}
        for fold in folds:
            for code, total in totals.items():
                in_fold = sum(1 for rid in fold if first[rid] == code)
                assert abs(in_fold - total / 3) <= 1 + 1e-9

    def test_records_without_codes_share_one_stratum(self):
        ds = load_csv("a,codes\n1,\n0,\n1,\n", label_column="codes")
        assert sorted(len(fold) for fold in kfold_assignments(ds, 2, seed=1)) == [1, 2]

    def test_zero_instance_folds_rejected(self):
        ds = small_corpus(n=10)
        with pytest.raises(ValidationError, match="zero instances"):
            kfold_assignments(ds, 11, seed=0)
        with pytest.raises(ValidationError, match="k >= 2"):
            kfold_assignments(ds, 1, seed=0)

    def test_aggregate_pools_counts_and_averages_metrics(self):
        ds = small_corpus(n=30)

        def trainer(ds, training_sets):
            return train_cascades(ds, training_sets, strategy="label-powerset")

        result = evaluate_kfold(ds, k=3, seed=9, trainer=trainer)
        assert result.aggregate.correct == sum(f.metrics.correct for f in result.folds)
        assert result.aggregate.kappa == pytest.approx(
            np.mean([f.metrics.kappa for f in result.folds]), abs=1e-12
        )


class TestModes:
    def test_single_label_data_multilabel_equals_principal_accuracy(self):
        rows = list(itertools.product((0, 1), repeat=4))
        rng = random.Random(11)
        labelsets = [{rng.choice("abc")} for _ in rows]
        ds = make_dataset(rows, labelsets, alphabet=list("abc"))
        model = train_chidt(ds, stage1_params=C45Params(min_leaf=1, pruning=False)).stage1
        ml = evaluate_predictions(model, ds, ds, mode="multilabel")
        pr = evaluate_predictions(model, ds, ds, mode="principal")
        # BR can emit empty/multi-code sets; restrict the claim to the spec's
        # reduction consistency: subset accuracy equals multi-class accuracy
        assert ml.multilabel.subset_accuracy_pct == pytest.approx(ml.metrics.accuracy_pct)
        if all(len(labels) == 1 for labels in batch_rows(model, ds.X)[0]):
            assert ml.metrics.correct == pr.metrics.correct

    def test_pdx_tag_drives_principal_reduction(self):
        rows = [(0,), (1,)]
        labelsets = [{"b", "c"}, {"b", "c"}]
        roles = {0: {"c": "PDx"}, 1: {}}
        ds = make_dataset(rows, labelsets, roles=roles)
        model = SpyModel(labels=frozenset({"b", "c"}), codes=ds.label_alphabet)
        result = evaluate_predictions(model, ds, ds, mode="principal")
        # record 0 reduces to its PDx code "c"; prediction reduces to lowest "b"
        classes = result.matrix.classes
        i_b, i_c = classes.index("b"), classes.index("c")
        assert result.matrix.counts[i_c, i_b] == 1  # PDx truth c, predicted b
        assert result.matrix.counts[i_b, i_b] == 1

    def test_principal_mode_handles_empty_predictions(self):
        ds = small_corpus(n=20)
        model = SpyModel(labels=frozenset())
        result = evaluate_predictions(model, ds, ds, mode="principal")
        assert "(none)" in result.matrix.classes
        none_col = result.matrix.classes.index("(none)")
        assert result.matrix.counts[:, none_col].sum() == len(ds)
        assert result.metrics.correct == 0
        assert result.metrics.kappa <= 0.0

    def test_trigger_rate_appears_for_cascades_only(self):
        ds = small_corpus()
        cascade = train_chidt(ds, strategy="label-powerset")
        br = train_chidt(ds).stage1
        with_cascade = evaluate_predictions(cascade, ds, ds)
        plain = evaluate_predictions(br, ds, ds)
        assert with_cascade.multilabel.trigger_rate is not None
        assert plain.multilabel.trigger_rate is None

    def test_hamming_and_subset_results_consistent(self):
        ds = small_corpus()
        model = train_chidt(ds, strategy="label-powerset")
        result = evaluate_predictions(model, ds, ds)
        assert 0.0 <= result.multilabel.hamming_loss <= 1.0
        if result.multilabel.subset_accuracy_pct == 100.0:
            assert result.multilabel.hamming_loss == 0.0
