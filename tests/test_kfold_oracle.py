"""K-fold cross-validation with all folds' trees grown together, against each fold trained alone.

``evaluate_kfold`` hands the k training sets to one trainer, the one
``chidt eval`` builds (``cli._build_trainer``), and ``train_cascades`` grows
all the folds' trees with one ``grow_bank`` call per stage. The oracle is
the loop that this replaced: each fold's training records taken out of the
corpus and trained alone through the one-set ``train_chidt``, its registry
the observed one merged with the declared one. Reports and models must be
equal. For a deeper run::

    python -m pytest tests/test_kfold_oracle.py --hypothesis-profile=oracle-deep
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from chidt import cli
from chidt.cascade import STRATEGIES, STRATEGY_LABEL_POWERSET, model_to_dict, train_chidt
from chidt.config import RunConfig, TrainingConfig
from chidt.data import Dataset, label_indicator
from chidt.evaluation import MODES, evaluate_kfold
from chidt.ontology import ValidCombinationRegistry
from chidt.tree import C45Params

from conftest import random_view

CODES = ("a", "b", "c", "d", "e")


def random_corpus(rng, strategy: str) -> Dataset:
    """Up to 60 records over 1-4 random attributes, each with 0-3 codes (1-3 under label-powerset) drawn from
    a few combinations, so that folds differ in the combinations they hold."""
    n = rng.randrange(2, 61)
    X, _, attributes, _ = random_view(rng, n, rng.randrange(1, 5), 2)
    alphabet = CODES[: rng.randrange(1, len(CODES) + 1)]
    min_size = 1 if strategy == STRATEGY_LABEL_POWERSET else 0
    combos = [rng.sample(alphabet, rng.randrange(min_size, min(3, len(alphabet)) + 1)) for _ in range(6)]
    labelsets = [rng.choice(combos) for _ in range(n)]
    return Dataset(attributes, alphabet, [f"r{i}" for i in range(n)], X, label_indicator(labelsets, alphabet))


def random_params(rng):
    return rng.choice([None, C45Params(min_leaf=rng.randrange(1, 4), pruning=rng.random() < 0.5)])


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strategy=st.sampled_from(STRATEGIES),
    fallback=st.booleans(),
    declared=st.booleans(),
    k=st.integers(2, 6),
    mode=st.sampled_from(MODES),
)
def test_folds_grown_together_equal_each_fold_trained_alone(seed, strategy, fallback, declared, k, mode):
    rng = random.Random(seed)
    ds = random_corpus(rng, strategy)
    k = min(k, len(ds))
    training = TrainingConfig(
        strategy=strategy,
        threshold=rng.choice((0.3, 0.5, 0.7)),
        stage1_params=random_params(rng),
        stage2_params=random_params(rng),
        use_declared_registry=declared,
        single_label_fallback=fallback,
    )
    extra = ValidCombinationRegistry([rng.sample(ds.label_alphabet, rng.randrange(1, len(ds.label_alphabet) + 1))])
    grown, alone = [], []

    def one_at_a_time(ds, training_sets):  # the oracle: one fold after another
        for ids in training_sets:
            alone.append(
                train_chidt(
                    ds.subset(ids),
                    stage1_params=training.stage1_params,
                    stage2_params=training.stage2_params,
                    strategy=strategy,
                    declared=extra if declared else None,
                    threshold=training.threshold,
                    single_label_fallback=fallback,
                )
            )
        return alone

    with tempfile.TemporaryDirectory() as tmp:
        registry_path = Path(tmp) / "registry.json"
        registry_path.write_text(json.dumps(extra.to_dict()))
        trainer = cli._build_trainer(RunConfig(paths={"registry": registry_path}, training=training))

    def together(ds, training_sets):
        grown.extend(trainer(ds, training_sets))
        return grown

    got = evaluate_kfold(ds, k, seed, together, mode)
    want = evaluate_kfold(ds, k, seed, one_at_a_time, mode)
    assert got.to_dict() == want.to_dict()
    assert [model_to_dict(m) for m in grown] == [model_to_dict(m) for m in alone]
