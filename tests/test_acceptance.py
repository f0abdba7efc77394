"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is also part of the default pytest run.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from chidt.cascade import train_chidt
from chidt.data import _read_generator, cover_all_labels_split, generate_synthetic
from chidt.cli import main as cli_main
from chidt.evaluation import (
    ConfusionMatrix,
    evaluate_predictions,
    evaluate_resubstitution,
    kappa,
    probabilistic_errors,
)
from chidt.ontology import ValidCombinationRegistry, is_valid, observed_registry
from chidt.tree import C45Params, _entropy_rows, grow_bank

from conftest import DATA_DIR, batch_rows, binary_attrs, make_dataset, row_labels
from test_cascade import BRModel, ChiDTModel, constant_lp, indicator_tree, spy_batch_rows
from test_metrics import oracle_errors, oracle_kappa, random_distribution
from test_tree import random_view, resubstitution_accuracy


def report(n: int, title: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {title}")


def test_criterion_1_metric_arithmetic_vs_tables():
    """Accuracy percentages render exactly as in the result tables."""
    expected = {
        (52, 53): "98.1132",
        (185, 196): "94.3878",
        (183, 196): "93.3673",
        (184, 196): "93.8776",
    }
    for (correct, total), rendered in expected.items():
        cm = ConfusionMatrix(("hit", "miss"), [[correct, total - correct], [0, 0]])
        _, pct = __import__("chidt").accuracy(cm)
        assert f"{pct:.4f}" == rendered, (correct, total)
    report(1, "accuracy arithmetic matches all four table renderings at 4 decimals")


def test_criterion_2_metric_oracles_on_200_fixtures():
    """kappa/mae/rmse/rae/rrse match an independent oracle to 1e-12."""
    rng = random.Random(1234)
    start = time.monotonic()
    for trial in range(200):
        k = rng.randrange(2, 6)          # k <= 5
        n = rng.randrange(1, 51)         # N <= 50
        counts = [[rng.randrange(0, 12) for _ in range(k)] for _ in range(k)]
        if sum(map(sum, counts)) == 0:
            counts[0][0] = 1
        cm = ConfusionMatrix(tuple(f"c{i}" for i in range(k)), counts)
        assert kappa(cm) == pytest.approx(oracle_kappa(counts), abs=1e-12)

        pred = [random_distribution(rng, k) for _ in range(n)]
        targets = []
        for _ in range(n):
            row = [0.0] * k
            row[rng.randrange(k)] = 1.0
            targets.append(row)
        prior = random_distribution(rng, k)
        stats = probabilistic_errors(pred, targets, prior)
        o_mae, o_rmse, o_rae, o_rrse = oracle_errors(pred, targets, prior)
        assert stats.mae == pytest.approx(o_mae, abs=1e-12)
        assert stats.rmse == pytest.approx(o_rmse, abs=1e-12)
        assert stats.rae_pct == pytest.approx(o_rae, abs=1e-12)
        assert stats.rrse_pct == pytest.approx(o_rrse, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"five metrics match the direct-formula oracle on 200 fixtures ({elapsed:.2f}s)")


def test_criterion_3_c45_core():
    """Entropy value, perfect memorization, and induction determinism."""
    start = time.monotonic()
    assert _entropy_rows(np.array([[9.0, 5.0]]))[0] == pytest.approx(0.940286, abs=1e-6)

    rng = random.Random(99)
    params = C45Params(min_leaf=1, pruning=False)
    for _ in range(12):
        X, y, attrs, classes = random_view(rng, rng.randrange(5, 35), 4, 3)
        seen = {}
        for i in range(len(y)):  # force conflict-freeness
            key = tuple(X[i])
            y[i] = seen.setdefault(key, y[i])
        tree = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert resubstitution_accuracy(tree, X, y) == 1.0
    # XOR-style fixture: zero single-attribute gain everywhere, still separable
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0])
    xor_tree = grow_bank(X, y[:, None], binary_attrs(2), ("a", "b"), (params,))[0]
    assert resubstitution_accuracy(xor_tree, X, y) == 1.0

    for _ in range(8):
        X, y, attrs, classes = random_view(rng, 30, 4, 3)
        g1 = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]
        g2 = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]
        assert g1.to_dict() == g2.to_dict()
        p1, p2 = (grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2),))[0] for _ in range(2))
        assert p1.to_dict() == p2.to_dict()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"entropy oracle, 100% memorization, deterministic grow/prune ({elapsed:.2f}s)")


def test_criterion_4_cascade_contract_exhaustive():
    """All 16 inputs of the 4-bit toy universe honor the cascade contract."""
    start = time.monotonic()
    attrs = binary_attrs(4)
    stage1 = BRModel(
        codes=("a", "b", "c"),
        trees=(indicator_tree(attrs, 0), indicator_tree(attrs, 1), indicator_tree(attrs, 2)),
        attributes=attrs,
    )
    registry = ValidCombinationRegistry([{"a"}, {"a", "b"}, {"c"}])
    stage2 = constant_lp(attrs, (frozenset({"a"}), frozenset({"a", "b"}), frozenset({"c"})), 2)
    model = ChiDTModel(stage1=stage1, stage2=stage2, registry=registry)

    universe = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.float64)
    stage1_alone = batch_rows(stage1, universe)[0]
    valid = np.array([is_valid(registry, (), labels)[0] for labels in stage1_alone])
    assert valid.any() and not valid.all(), "toy universe must exercise both paths"
    stage2_alone = dict(zip(np.flatnonzero(~valid), batch_rows(stage2, universe[~valid])[0]))
    stage2_calls = spy_batch_rows(stage2)

    finals, _, reasons = batch_rows(model, universe)
    for i in np.flatnonzero(valid):
        assert reasons[i] == "ok"
        assert finals[i] == stage1_alone[i]

    for i in np.flatnonzero(~valid):
        assert reasons[i] != "ok"
        assert finals[i] == stage2_alone[i]
        assert finals[i] in registry
    # stage 2 runs once, on exactly the invalid inputs
    assert stage2_calls == [tuple(map(tuple, universe[~valid]))]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(4, f"cascade bypass/fidelity/registry-membership over all 16 inputs ({elapsed:.2f}s)")


def test_criterion_5_paper_protocol_rehearsal():
    """196-record rehearsal: the cascade beats its own stage 1 directionally."""
    start = time.monotonic()
    gen = json.loads((DATA_DIR / "generator_chd.json").read_text())
    assert gen["n_records"] == 196
    assert len(gen["profiles"]) >= 6

    summary = {}
    for strategy in ("label-powerset", "diverse-br"):
        wins = 0
        improvements = []
        total_line_seen = False
        for seed in range(20):
            cfg = replace(_read_generator(gen, "generator"), seed=1000 + seed)
            ds, _ = generate_synthetic(cfg)
            assert len(ds.label_alphabet) == 11
            train_ds = ds.subset(cover_all_labels_split(ds, 53, seed=1000 + seed))
            model = train_chidt(train_ds, strategy=strategy)
            cascade = evaluate_resubstitution(model, ds)
            stage1_only = evaluate_predictions(
                model.stage1,
                ds,
                train_ds,
                protocol="resubstitution",
            )
            assert cascade.metrics.total == 196
            text = __import__("chidt").format_report(cascade.metrics)
            if "Total Number of Instances\t196" in text:
                total_line_seen = True
            delta = (
                cascade.multilabel.subset_accuracy_pct
                - stage1_only.multilabel.subset_accuracy_pct
            )
            improvements.append(delta)
            wins += delta >= 0
        assert total_line_seen
        assert wins >= 15, f"{strategy}: cascade >= stage-1 in only {wins}/20 seeds"
        mean_improvement = sum(improvements) / len(improvements)
        assert mean_improvement > 0.0, f"{strategy}: no mean improvement"
        summary[strategy] = (wins, mean_improvement)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    detail = ", ".join(
        f"{s}: {w}/20 seeds, {m:+.2f} points" for s, (w, m) in summary.items()
    )
    report(5, f"rehearsal ({detail}) ({elapsed:.1f}s)")


def test_criterion_6_validity_semantics():
    """Empty is always invalid; observed combos always validate."""
    start = time.monotonic()
    rng = random.Random(777)
    codes = ["a", "b", "c", "d", "e"]
    for _ in range(100):
        n_combos = rng.randrange(1, 6)
        combos = []
        while len(combos) < n_combos:
            size = rng.randrange(1, 4)
            combos.append(set(rng.sample(codes, size)))
        registry = ValidCombinationRegistry(combos)
        assert is_valid(registry, (), frozenset()) == (False, "empty")

    for _ in range(100):
        labelsets = []
        for _ in range(rng.randrange(1, 15)):
            labelsets.append(set(rng.sample(codes, rng.randrange(0, 4))))
        ds = make_dataset([(0,)] * len(labelsets), labelsets, alphabet=codes)
        registry = observed_registry(ds.Y, ds.label_alphabet)
        for labels in row_labels(ds):
            if labels:
                assert is_valid(registry, (), labels) == (True, "ok")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(6, f"validity semantics hold over 100 random registries and corpora ({elapsed:.2f}s)")


def test_criterion_7_end_to_end_determinism(tmp_path):
    """gen -> train -> eval twice with one seed is byte-identical."""
    start = time.monotonic()
    gen = json.loads((DATA_DIR / "generator_chd.json").read_text())
    config = {
        "seed": 20090101,
        "out_dir": str(tmp_path / "out"),
        "paths": {
            "dataset": str(tmp_path / "out" / "corpus.csv"),
            "registry": str(tmp_path / "out" / "registry.json"),
            "model": str(tmp_path / "out" / "model.json"),
        },
        "generator": {k: v for k, v in gen.items() if k != "seed"},
        "training": {"strategy": "label-powerset", "train_size": 53},
        "evaluation": {"mode": "multilabel", "protocol": "resubstitution"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_all():
        for command in ("gen", "train", "eval"):
            assert cli_main([command, "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        return {
            name: (out / name).read_bytes()
            for name in ("corpus.csv", "registry.json", "model.json", "report.txt", "report.json")
        }

    first = run_all()
    second = run_all()
    assert first == second
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(7, f"two seeded CLI runs produced byte-identical artifacts ({elapsed:.1f}s)")
