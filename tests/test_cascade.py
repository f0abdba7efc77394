"""Binary relevance, label powerset, and the cascade trigger contract."""

from __future__ import annotations

import itertools
import json
import random
import re

import numpy as np
import pytest

from chidt.cascade import (
    BINARY_CLASSES,
    BRModel,
    ChiDTModel,
    LPModel,
    model_from_dict,
    model_to_dict,
    train_cascades,
    train_chidt,
)
from chidt.data import GeneratorConfig, GeneratorProfile, generate_synthetic
from chidt.errors import SchemaMismatchError, ValidationError
from chidt.evaluation import evaluate_predictions
from chidt.ontology import ValidCombinationRegistry, observed_registry
from chidt.tree import C45Params, C45Tree, _read_tree, leaf_distributions

from conftest import batch_rows, binary_attrs, leaf_tree, make_dataset


def indicator_tree(attrs, feat_idx: int) -> C45Tree:
    """Hand-built stump: positive iff feature ``feat_idx`` is 1."""
    root = {
        "kind": "split",
        "test": {"attr": feat_idx, "branches": 2},
        "counts": [1.0, 1.0],
        "majority": 0,
        "children": [
            {"kind": "leaf", "counts": [1.0, 0.0], "majority": 0},
            {"kind": "leaf", "counts": [0.0, 1.0], "majority": 1},
        ],
    }
    return _read_tree({"root": root}, "tree", attrs, BINARY_CLASSES)


def constant_tree(attrs, positive: bool) -> C45Tree:
    return leaf_tree([0.0, 1.0] if positive else [1.0, 0.0], attrs, BINARY_CLASSES)


def constant_lp(attrs, combos, predicted_index: int = 0, codes=("a", "b", "c")) -> LPModel:
    from chidt.ontology import combo_key

    counts = np.zeros(len(combos))
    counts[predicted_index] = 1.0
    tree = leaf_tree(counts, attrs, tuple(combo_key(c) for c in combos))
    return LPModel(tree=tree, combos=tuple(combos), codes=codes, attributes=attrs)


def spy_batch_rows(obj) -> list:
    """Wrap ``obj.predict_batch`` in place; the returned list gets, per call,
    the tuple of feature rows that call was given."""
    calls = []
    inner = obj.predict_batch

    def spy(X):
        calls.append(tuple(tuple(row) for row in np.asarray(X)))
        return inner(X)

    obj.predict_batch = spy
    return calls


class TestTrainBr:
    def test_single_code_alphabet_is_one_binary_problem(self):
        ds = make_dataset([(0,), (0,), (1,), (1,)], [set(), set(), {"a"}, {"a"}])
        model = train_chidt(ds, stage1_params=C45Params(min_leaf=1, pruning=False)).stage1
        assert model.codes == ("a",)
        assert len(model.trees) == 1
        assert batch_rows(model, [(1,), (0,)])[0] == [frozenset({"a"}), frozenset()]

    def test_eleven_code_corpus_grows_eleven_trees(self):
        profiles = tuple(
            GeneratorProfile(labels={f"C{i:02d}"}, rates=tuple([0.1] * 11)) for i in range(11)
        )
        ds, _ = generate_synthetic(GeneratorConfig(profiles=profiles, n_records=60, seed=1))
        model = train_chidt(ds).stage1
        assert len(model.trees) == 11
        assert model.codes == ds.label_alphabet

    def test_label_in_every_record_yields_constant_positive(self):
        ds = make_dataset([(0,), (1,)], [{"a"}, {"a", "b"}])
        model = train_chidt(ds, stage1_params=C45Params(min_leaf=1, pruning=False)).stage1
        assert model.constant_codes["a"] == "positive"
        tree_a = model.trees[model.codes.index("a")]
        assert tree_a.n_nodes == 1
        assert batch_rows(model, [(0,)])[0][0] >= {"a"}

    def test_absent_label_yields_constant_negative(self):
        ds = make_dataset([(0,), (1,)], [{"a"}, {"a"}], alphabet=["a", "zz"])
        model = train_chidt(ds).stage1
        assert model.constant_codes["zz"] == "negative"

    def test_constant_codes_follow_the_root_counts(self):
        attrs = binary_attrs(1)
        trees = [leaf_tree(counts, attrs, BINARY_CLASSES) for counts in ([2.0, 0.0], [0.0, 3.0], [1.0, 1.0])]
        model = BRModel(codes=("a", "b", "c"), trees=tuple(trees), attributes=attrs)
        assert model.constant_codes == {"a": "negative", "b": "positive"}

    def test_empty_dataset_rejected(self):
        ds = make_dataset([(0,)], [{"a"}])
        empty = ds.subset([])
        with pytest.raises(ValidationError):
            train_chidt(empty)


class TestPredictBr:
    def test_all_negative_trees_give_empty_set(self):
        attrs = binary_attrs(2)
        model = BRModel(
            codes=("a", "b"),
            trees=(constant_tree(attrs, False), constant_tree(attrs, False)),
            attributes=attrs,
        )
        assert batch_rows(model, [(0, 1)])[0] == [frozenset()]

    def test_probability_at_threshold_included(self):
        attrs = binary_attrs(1)
        tree = leaf_tree([1.0, 3.0], attrs, BINARY_CLASSES)
        model = BRModel(codes=("a",), trees=(tree,), attributes=attrs, threshold=0.5)
        labels, scores, _ = batch_rows(model, [(0,)])
        assert scores[0, 0] == pytest.approx(0.75)
        assert labels == [frozenset({"a"})]

    def test_agrees_with_per_tree_oracle_on_500_vectors(self):
        rng = random.Random(44)
        rows = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(40)]
        labelsets = [
            {c for j, c in enumerate("abc") if row[j] == 1 and rng.random() < 0.9}
            for row in rows
        ]
        ds = make_dataset(rows, labelsets, alphabet=list("abc"))
        model = train_chidt(ds, stage1_params=C45Params(min_leaf=1, pruning=False)).stage1
        X = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(500)]
        positive = [leaf_distributions(tree, X)[:, 1] for tree in model.trees]
        for i, labels in enumerate(batch_rows(model, X)[0]):
            expected = {code for code, p in zip(model.codes, positive) if p[i] >= 0.5}
            assert labels == frozenset(expected)

    def test_threshold_half_equals_argmax_composition(self):
        # pure-leaf model: probabilities are 0/1, so >= 0.5 is exactly argmax
        rng = random.Random(9)
        rows = list(itertools.product((0, 1), repeat=3))
        labelsets = [{c for j, c in enumerate("ab") if row[j] == 1} for row in rows]
        ds = make_dataset(rows, labelsets, alphabet=list("ab"))
        model = train_chidt(ds, stage1_params=C45Params(min_leaf=1, pruning=False)).stage1
        argmax = [np.argmax(leaf_distributions(tree, rows), axis=1) for tree in model.trees]
        for i, labels in enumerate(batch_rows(model, rows)[0]):
            argmax_set = {code for code, predicted in zip(model.codes, argmax) if predicted[i] == 1}
            assert labels == frozenset(argmax_set)

    def test_schema_mismatch(self):
        ds = make_dataset([(0, 1)], [{"a"}])
        model = train_chidt(ds).stage1
        with pytest.raises(SchemaMismatchError):
            model.predict_batch([(0,)])


class TestLabelPowerset:
    def test_single_combo_constant_model(self):
        ds = make_dataset([(0,), (1,)], [{"a", "b"}, {"a", "b"}])
        model = train_chidt(ds, strategy="label-powerset").stage2
        assert model.combos == (frozenset({"a", "b"}),)
        assert batch_rows(model, [(0,)])[0] == [frozenset({"a", "b"})]

    def test_three_profiles_make_three_classes(self):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.9, 0.1)),
            GeneratorProfile(labels={"b"}, rates=(0.1, 0.9)),
            GeneratorProfile(labels={"a", "c"}, rates=(0.9, 0.9)),
        )
        ds, _ = generate_synthetic(GeneratorConfig(profiles=profiles, n_records=90, seed=2))
        model = train_chidt(ds, strategy="label-powerset").stage2
        assert len(model.combos) == 3

    def test_empty_labelset_rejected(self):
        ds = make_dataset([(0,), (1,)], [{"a"}, set()])
        with pytest.raises(ValidationError, match="non-empty"):
            train_chidt(ds, strategy="label-powerset")

    def test_predictions_always_observed_over_4bit_lattice(self):
        rng = random.Random(3)
        rows = [tuple(rng.randrange(2) for _ in range(4)) for _ in range(30)]
        combos = [{"a"}, {"a", "b"}, {"c"}]
        labelsets = [rng.choice(combos) for _ in rows]
        ds = make_dataset(rows, labelsets, alphabet=list("abc"))
        model = train_chidt(ds, strategy="label-powerset", stage2_params=C45Params(min_leaf=1, pruning=False)).stage2
        registry = observed_registry(ds)
        for labels in batch_rows(model, list(itertools.product((0, 1), repeat=4)))[0]:
            assert labels in registry


class TestTrainChidt:
    def _corpus(self, seed=5):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.9, 0.1, 0.2)),
            GeneratorProfile(labels={"b"}, rates=(0.1, 0.9, 0.2)),
            GeneratorProfile(labels={"a", "b"}, rates=(0.9, 0.9, 0.8)),
        )
        ds, _ = generate_synthetic(
            GeneratorConfig(profiles=profiles, n_records=60, noise_rate=0.05, seed=seed)
        )
        return ds

    def test_diverse_br_default_stage_parameters(self):
        ds = self._corpus()
        model = train_chidt(ds, strategy="diverse-br")
        assert isinstance(model.stage2, BRModel)
        assert model.stage1.params.pruning is True
        assert model.stage1.params.min_leaf == 2
        assert model.stage2.params.pruning is False
        assert model.stage2.params.min_leaf == 1

    def test_label_powerset_stage2(self):
        ds = self._corpus()
        model = train_chidt(ds, strategy="label-powerset")
        assert isinstance(model.stage2, LPModel)

    def test_stages_record_identical_training_ids(self):
        ds = self._corpus()
        for strategy in ("diverse-br", "label-powerset"):
            model = train_chidt(ds, strategy=strategy)
            assert model.training_ids == ds.record_ids()

    def test_training_is_deterministic(self):
        ds = self._corpus()
        m1 = train_chidt(ds, strategy="label-powerset")
        m2 = train_chidt(ds, strategy="label-powerset")
        assert model_to_dict(m1) == model_to_dict(m2)

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError, match="strategy"):
            train_chidt(self._corpus(), strategy="mystery")

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([{"r00", "nobody"}, set()], "unknown record ids: ['nobody']"),
            ([set(), {"r00", "nobody"}], "cannot train on an empty dataset"),
        ],
        ids=["unknown id first", "empty set first"],
    )
    def test_the_first_failing_training_set_names_the_error(self, sets, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            train_cascades(self._corpus(), sets)


class TestPredictChidt:
    def _toy_model(self, stage2=None, registry=None, **kwargs):
        attrs = binary_attrs(4)
        stage1 = BRModel(
            codes=("a", "b", "c"),
            trees=(indicator_tree(attrs, 0), indicator_tree(attrs, 1), indicator_tree(attrs, 2)),
            attributes=attrs,
        )
        if stage2 is None:
            stage2 = constant_lp(attrs, (frozenset({"a"}), frozenset({"a", "b"})), 0)
        if registry is None:
            registry = ValidCombinationRegistry([{"a"}, {"a", "b"}])
        return ChiDTModel(stage1=stage1, stage2=stage2, registry=registry, **kwargs)

    def test_empty_prediction_triggers(self):
        model = self._toy_model()
        (final,), _, (reason,) = batch_rows(model, [(0, 0, 0, 0)])
        assert reason == "empty"
        assert batch_rows(model.stage1, [(0, 0, 0, 0)])[0] == [frozenset()]
        assert final == frozenset({"a"})

    def test_registered_prediction_passes_through(self):
        model = self._toy_model()
        (final,), _, (reason,) = batch_rows(model, [(1, 1, 0, 0)])
        assert reason == "ok"
        assert [final] == batch_rows(model.stage1, [(1, 1, 0, 0)])[0] == [frozenset({"a", "b"})]

    def test_unregistered_combination_triggers(self):
        model = self._toy_model()
        (final,), _, (reason,) = batch_rows(model, [(1, 0, 1, 0)])
        assert reason == "unregistered"
        assert batch_rows(model.stage1, [(1, 0, 1, 0)])[0] == [frozenset({"a", "c"})]
        assert final == frozenset({"a"})

    def test_stage2_not_evaluated_when_valid(self):
        model = self._toy_model()
        calls = spy_batch_rows(model.stage2)
        model.predict_batch([(1, 0, 0, 0), (1, 1, 0, 0)])
        assert calls == []
        model.predict_batch([(1, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0)])
        assert calls == [((0, 0, 0, 0),)]

    def test_triggered_output_is_stage2_verbatim_even_if_invalid(self):
        attrs = binary_attrs(4)
        # stage 2 constantly predicts an unregistered combination
        stage2 = constant_lp(attrs, (frozenset({"b", "c"}),), 0)
        model = self._toy_model(stage2=stage2)
        (final,), _, (reason,) = batch_rows(model, [(0, 0, 0, 0)])
        assert reason != "ok"
        assert final == frozenset({"b", "c"})
        assert final not in model.registry
        assert [final] == batch_rows(model.stage2, [(0, 0, 0, 0)])[0]

    def test_optional_single_label_fallback(self):
        attrs = binary_attrs(4)
        stage2 = BRModel(
            codes=("a", "b", "c"),
            trees=(constant_tree(attrs, False),) * 3,
            attributes=attrs,
        )
        model = self._toy_model(stage2=stage2, single_label_fallback=True)
        (final,), _, (reason,) = batch_rows(model, [(0, 0, 0, 0)])
        assert reason == "empty"
        assert [final] != batch_rows(model.stage2, [(0, 0, 0, 0)])[0]
        assert len(final) == 1

    def test_cascade_fidelity_on_trained_models(self):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.9, 0.1, 0.3)),
            GeneratorProfile(labels={"a", "b"}, rates=(0.2, 0.9, 0.7)),
        )
        ds, _ = generate_synthetic(
            GeneratorConfig(profiles=profiles, n_records=50, noise_rate=0.1, seed=7)
        )
        model = train_chidt(ds, strategy="diverse-br")
        X = list(itertools.product((0, 1), repeat=3))
        finals, _, reasons = batch_rows(model, X)
        stage1_raw, stage2_raw = batch_rows(model.stage1, X)[0], batch_rows(model.stage2, X)[0]
        for final, reason, s1, s2 in zip(finals, reasons, stage1_raw, stage2_raw):
            if reason != "ok":
                assert final == s2
            else:
                assert final == s1


def evaluated_trigger_rate(model, ds) -> float:
    result = evaluate_predictions(model, ds, ds)
    return result.multilabel.trigger_rate


class TestTriggerRate:
    def test_zero_when_registry_covers_every_output(self):
        ds = make_dataset(
            list(itertools.product((0, 1), repeat=2)),
            [{"a"}, {"a"}, {"b"}, {"b"}],
        )
        model = train_chidt(
            ds,
            stage1_params=C45Params(min_leaf=1, pruning=False),
            declared=ValidCombinationRegistry([{"a"}, {"b"}]),
        )
        assert evaluated_trigger_rate(model, ds) == 0.0

    def test_one_for_constant_empty_stage1(self):
        attrs = binary_attrs(2)
        stage1 = BRModel(
            codes=("a",), trees=(constant_tree(attrs, False),), attributes=attrs
        )
        stage2 = constant_lp(attrs, (frozenset({"a"}),), 0, codes=("a",))
        model = ChiDTModel(stage1=stage1, stage2=stage2, registry=ValidCombinationRegistry([{"a"}]))
        ds = make_dataset([(0, 0), (0, 1), (1, 0)], [{"a"}, {"a"}, {"a"}])
        assert evaluated_trigger_rate(model, ds) == 1.0

    def test_equals_mean_of_per_record_traces(self):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.8, 0.2)),
            GeneratorProfile(labels={"b"}, rates=(0.2, 0.8)),
        )
        ds, _ = generate_synthetic(
            GeneratorConfig(profiles=profiles, n_records=40, noise_rate=0.2, seed=11)
        )
        model = train_chidt(ds, strategy="label-powerset")
        reasons = batch_rows(model, ds.X)[2]
        expected = sum(reason != "ok" for reason in reasons) / len(reasons)
        assert evaluated_trigger_rate(model, ds) == pytest.approx(expected, abs=1e-12)


class TestPersistence:
    def test_round_trip_preserves_predictions(self):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.9, 0.1, 0.5)),
            GeneratorProfile(labels={"b", "c"}, rates=(0.1, 0.9, 0.5)),
        )
        ds, _ = generate_synthetic(
            GeneratorConfig(profiles=profiles, n_records=40, noise_rate=0.05, seed=13)
        )
        for strategy in ("diverse-br", "label-powerset"):
            model = train_chidt(ds, strategy=strategy)
            doc = json.loads(json.dumps(model_to_dict(model)))
            again = model_from_dict(doc)
            assert model_to_dict(again) == model_to_dict(model)
            assert batch_rows(again, ds.X)[0] == batch_rows(model, ds.X)[0]

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValidationError, match="not a cascade model"):
            model_from_dict({"format": "something-else"})

    def test_rejects_a_repeated_training_id(self):
        ds = make_dataset([(0, 1), (1, 0), (1, 1)], [{"a"}, {"b"}, {"a", "b"}], alphabet=["a", "b"])
        doc = json.loads(json.dumps(model_to_dict(train_chidt(ds))))
        assert model_from_dict(doc).training_ids == ds.record_ids()
        doc["training_ids"] = ["r0", "r1", "r0"]
        with pytest.raises(ValidationError, match=r"^model training_ids\[2\] repeats the record id 'r0'$"):
            model_from_dict(doc)


class TestConstructionInvariants:
    def test_cascade_stages_must_share_one_alphabet(self):
        attrs = binary_attrs(4)
        stage1 = BRModel(codes=("a", "b"), trees=(indicator_tree(attrs, 0),) * 2, attributes=attrs)
        for codes in (("b", "a"), ("a",), ("a", "b", "c")):
            stage2 = BRModel(codes=codes, trees=(indicator_tree(attrs, 1),) * len(codes), attributes=attrs)
            with pytest.raises(ValidationError, match="one code alphabet"):
                ChiDTModel(stage1=stage1, stage2=stage2, registry=ValidCombinationRegistry([{"a"}]))

    def test_lp_model_rejects_codes_outside_its_alphabet(self):
        attrs = binary_attrs(1)
        message = r"^label-powerset combinations name codes outside the code alphabet: \['zzz'\]$"
        with pytest.raises(ValidationError, match=message):
            constant_lp(attrs, (frozenset({"a"}), frozenset({"a", "zzz"})))

    def test_lp_model_rejects_empty_combination_classes(self):
        attrs = binary_attrs(2)
        with pytest.raises(ValidationError, match="non-empty"):
            constant_lp(attrs, (frozenset(),), 0)
        with pytest.raises(ValidationError, match="at least one combination"):
            LPModel(
                tree=constant_tree(attrs, True), combos=(), codes=(), attributes=attrs
            )
