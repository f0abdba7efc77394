"""Batch prediction against the per-record walk it replaced.

The oracles below are the scalar paths as they stood before prediction was
batched: a per-record tree walk, now down the tree's ``to_dict()``
document, per-record BR and label-powerset scoring, and the per-record
cascade. ``predict_batch`` must reproduce their scores bit for bit, their
reasons exactly and their label sets as rows of a bool label indicator, and
the cascade must call stage 2 once, on exactly the triggered rows.

A bank is routed as one forest (``route_bank``). Besides the per-record
walk, its oracle is the routing it replaced: each tree on its own, all rows
a level at a time, refusing an unroutable value where a reached test reads
it. The forest must reach the same leaves, or refuse with the same message,
whatever the block size.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chidt.tree
from chidt.cascade import (
    BINARY_CLASSES,
    BRModel,
    LPModel,
    STRATEGIES,
    STRATEGY_LABEL_POWERSET,
    train_chidt,
)
from chidt.data import NOMINAL, Dataset, label_indicator
from chidt.errors import SchemaMismatchError, ValidationError
from chidt.ontology import (
    REASON_OK,
    REASONS,
    ExclusionGroup,
    ValidCombinationRegistry,
    combo_key,
    is_valid,
)
from chidt.tree import C45Params, _refuse, _unroutable, grow_bank, leaf_distributions, route_bank

from conftest import binary_attrs, child_lists, leaf_tree
from test_tree import random_view

CODES = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# Oracles: the per-record scalar paths
# ---------------------------------------------------------------------------


def oracle_route(tree, x) -> dict:
    if len(x) != len(tree.attributes):
        raise ValidationError(f"feature vector has {len(x)} slots, schema defines {len(tree.attributes)}")
    node = tree.to_dict()["root"]
    while node["kind"] == "split":
        test = node["test"]
        attr = tree.attributes[test["attr"]]
        value = x[test["attr"]]
        if "threshold" in test:
            node = node["children"][0] if value <= test["threshold"] else node["children"][1]
        else:
            idx = int(value)
            if not 0 <= idx < test["branches"]:
                raise ValidationError(f"value index {value!r} outside the domain of {attr.name!r}")
            node = node["children"][idx]
    return node


def oracle_tree_walk(tree, X) -> np.ndarray:
    """The leaf each row of ``X`` reaches: one tree on its own, all rows a level at a time, a value no branch
    can take refused at the first level where a reached test reads it, at the first such row."""
    n_branches, children = tree.n_branches, child_lists(tree)
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X)) if tree.attr[0] >= 0 else np.zeros(0, dtype=np.intp)
    while rows.size:
        at = node[rows]
        values, threshold = X[rows, tree.attr[at]], tree.threshold[at]
        numeric = ~np.isnan(threshold)
        bad = _unroutable(values, numeric, n_branches[at])
        if bad.any():
            i = int(np.argmax(bad))
            _refuse(values[i], numeric[i], tree.attributes[tree.attr[at[i]]].name)
        branch = np.where(numeric, values > threshold, values).astype(np.intp)
        step = np.array([children[i][j] for i, j in zip(at.tolist(), branch.tolist())], dtype=np.intp)
        node[rows] = step
        rows = rows[tree.attr[step] >= 0]
    return node


def oracle_bank_walk(trees, X) -> np.ndarray:
    """(trees, n) leaves of a bank, routed tree by tree: the first tree that meets a refusal raises it."""
    return np.array([oracle_tree_walk(tree, X) for tree in trees], dtype=np.intp).reshape(len(trees), len(X))


def oracle_distribution(tree, x) -> np.ndarray:
    counts = np.array(oracle_route(tree, x)["counts"])
    return counts / counts.sum()


def oracle_stage(model, x):
    """(labels, scores) of one BR or label-powerset stage on one record."""
    if isinstance(model, BRModel):
        scores = np.array([oracle_distribution(t, x)[1] for t in model.trees])
        return frozenset(c for c, s in zip(model.codes, scores) if s >= model.threshold), scores
    dist = oracle_distribution(model.tree, x)
    scores = np.zeros(len(model.codes))
    index = {c: i for i, c in enumerate(model.codes)}
    for combo, p in zip(model.combos, dist):
        for code in combo:
            if code in index:
                scores[index[code]] += p
    return model.combos[int(np.argmax(dist))], scores


def oracle_cascade(model, x):
    """(labels, scores, reason string) of the cascade on one record."""
    s1, s1_scores = oracle_stage(model.stage1, x)
    ok, reason = is_valid(model.registry, model.exclusions, s1)
    if ok:
        return s1, s1_scores, REASON_OK
    final, scores = oracle_stage(model.stage2, x)
    if model.single_label_fallback and not is_valid(model.registry, model.exclusions, final)[0]:
        final = frozenset({model.codes[int(np.argmax(scores))]})
    return final, scores, reason


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def random_queries(rng, attributes, n):
    """Feature rows inside every attribute's domain, numeric values on and between training values."""
    rows = []
    for _ in range(n):
        rows.append(
            [
                rng.randrange(len(a.values)) if a.kind == NOMINAL else rng.randrange(-1, 11) + 0.25 * rng.randrange(4)
                for a in attributes
            ]
        )
    return np.array(rows, dtype=np.float64).reshape(n, len(attributes))


def random_cascade(rng, strategy: str, fallback: bool):
    n = rng.randrange(4, 60)
    X, _, attributes, _ = random_view(rng, n, rng.randrange(1, 5), 2)
    alphabet = CODES[: rng.randrange(1, len(CODES) + 1)]
    min_size = 1 if strategy == STRATEGY_LABEL_POWERSET else 0
    labelsets = [rng.sample(alphabet, rng.randrange(min_size, min(4, len(alphabet)) + 1)) for _ in range(n)]
    ds = Dataset(attributes, alphabet, [f"r{i}" for i in range(n)], X, label_indicator(labelsets, alphabet))
    # the registry is the observed one, merged with a declared one, or declared alone when no record has a code
    if rng.random() < 0.5 or not ds.Y.any():
        declared = None if ds.Y.any() else ValidCombinationRegistry([alphabet[:1]])
    else:
        extra = [rng.sample(alphabet, rng.randrange(1, len(alphabet) + 1)) for _ in range(3)]
        declared = ValidCombinationRegistry(extra)
    exclusions = ()
    if len(alphabet) >= 2 and rng.random() < 0.6:
        exclusions = (ExclusionGroup(frozenset(rng.sample(alphabet, 2))),)
    model = train_chidt(
        ds,
        stage1_params=C45Params(min_leaf=rng.randrange(1, 4), pruning=rng.random() < 0.5),
        strategy=strategy,
        declared=declared,
        exclusions=exclusions,
        threshold=rng.choice((0.3, 0.5, 0.7)),
        single_label_fallback=fallback,
    )
    Q = np.vstack([ds.X, random_queries(rng, attributes, rng.randrange(0, 40))])
    return model, Q


def random_bank(rng, n_trees: int):
    """A BR model of ``n_trees`` trees grown together over mixed nominal (2 to 5 values, or in about a
    quarter of the banks 2 to 300) and numeric attributes, one of them a leaf-only (constant-code) tree, about
    half of them pruned, plus its rows."""
    n = rng.randrange(4, 40)
    widths = (2, 301 if rng.random() < 0.25 else 6)
    X, _, attributes, _ = random_view(rng, n, rng.randrange(1, 5), 2, widths=widths)
    Y = np.array([[rng.randrange(2) for _ in range(n_trees)] for _ in range(n)], dtype=np.int64)
    Y[:, rng.randrange(n_trees)] = rng.randrange(2)
    min_leaf = rng.randrange(1, 3)
    grown = grow_bank(X, Y, attributes, BINARY_CLASSES, C45Params(min_leaf=min_leaf, pruning=False))
    pruned = grow_bank(X, Y, attributes, BINARY_CLASSES, C45Params(min_leaf=min_leaf))
    trees = tuple(tree_pruned if rng.random() < 0.5 else tree for tree, tree_pruned in zip(grown, pruned))
    codes = tuple(f"k{j}" for j in range(n_trees))
    return BRModel(codes=codes, trees=trees, attributes=attributes, threshold=rng.choice((0.3, 0.5))), X


def spoil(rng, attributes, Q, share: float) -> np.ndarray:
    """A copy of ``Q`` with about ``share`` of its cells set to values no branch can take."""
    Q = Q.copy()
    for i, j in np.ndindex(*Q.shape):
        if rng.random() < share:
            a = attributes[j]
            Q[i, j] = np.nan if a.kind != NOMINAL else rng.choice((np.nan, np.inf, -1.0, 0.5, len(a.values)))
    return Q


def outcome(route, *args):
    """What ``route`` returns, or the message of the ValidationError it raises."""
    try:
        return route(*args)
    except ValidationError as e:
        return str(e)


def assert_indicator(Y, labelsets, codes) -> None:
    """``Y`` is the n x len(codes) bool label indicator of the per-record label sets."""
    assert Y.dtype == bool and Y.shape == (len(labelsets), len(codes))
    assert np.array_equal(Y, label_indicator(labelsets, codes))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=max(120, settings().max_examples), deadline=None)  # the deep profile's count, if larger
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    n_attrs=st.integers(1, 5),
    k=st.integers(2, 4),
    min_leaf=st.integers(1, 3),
    pruned=st.booleans(),
)
def test_tree_batch_equals_per_record_walk(seed, n, n_attrs, k, min_leaf, pruned):
    rng = random.Random(seed)
    X, y, attrs, classes = random_view(rng, n, n_attrs, k)
    tree = grow_bank(X, y[:, None], attrs, classes, C45Params(min_leaf=min_leaf, pruning=pruned))[0]
    Q = np.vstack([X, random_queries(rng, attrs, 30)])
    got = leaf_distributions(tree, Q)
    want = np.vstack([oracle_distribution(tree, q) for q in Q])
    assert np.array_equal(got, want)


def test_tree_generator_reaches_virtual_leaves_and_numeric_splits():
    rng = random.Random(7)
    virtual = numeric = 0
    for _ in range(40):
        X, y, attrs, classes = random_view(rng, rng.randrange(2, 40), rng.randrange(1, 5), 3)
        tree = grow_bank(X, y[:, None], attrs, classes, C45Params(min_leaf=1, pruning=False))[0]
        virtual += bool(tree.virtual.any())
        numeric += bool((~np.isnan(tree.threshold)).any())
    assert virtual and numeric


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 6),
    cells=st.sampled_from((1, 2, 7, 24, 1 << 16)),
)
def test_bank_scores_equal_per_record_walk(seed, n_trees, cells):
    """BR scores from one forest per bank, routed in blocks of at most ``cells`` (tree, row) pairs, equal the
    per-record walk down each tree bit for bit, and the forest reaches the leaves of the per-tree walk."""
    rng = random.Random(seed)
    model, X = random_bank(rng, n_trees)
    Q = np.vstack([X, random_queries(rng, model.attributes, rng.randrange(0, 40))])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chidt.tree, "_TABLE_CELLS", cells)
        Y, scores, _ = model.predict_batch(Q)
        leaves = route_bank(model.trees, Q)
    want = [oracle_stage(model, q) for q in Q]
    assert np.array_equal(scores, np.vstack([w[1] for w in want]))
    assert_indicator(Y, [w[0] for w in want], model.codes)
    assert leaves.dtype == np.intp and np.array_equal(leaves, oracle_bank_walk(model.trees, Q))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 6),
    cells=st.sampled_from((1, 3, 16, 1 << 16)),
    share=st.sampled_from((0.02, 0.1, 0.3)),
)
def test_bank_refuses_what_the_per_tree_walk_refuses_first(seed, n_trees, cells, share):
    """With unroutable values scattered over the rows, the forest either reaches the per-tree walk's leaves
    or refuses with its message: that of the first tree, shallowest level and first row, in any blocks."""
    rng = random.Random(seed)
    model, X = random_bank(rng, n_trees)
    Q = spoil(rng, model.attributes, np.vstack([X, random_queries(rng, model.attributes, 20)]), share)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chidt.tree, "_TABLE_CELLS", cells)
        got = outcome(route_bank, model.trees, Q)
    want = outcome(oracle_bank_walk, model.trees, Q)
    assert type(got) is type(want)
    assert got == want if isinstance(want, str) else np.array_equal(got, want)


def test_bank_generator_reaches_every_kind_of_tree():
    rng = random.Random(5)
    leaf_only = numeric = wide = hundreds = 0
    for _ in range(30):
        model, _ = random_bank(rng, rng.randrange(1, 6))
        for tree in model.trees:
            leaf_only += bool(tree.attr[0] < 0)
            numeric += bool((~np.isnan(tree.threshold)).any())
            wide += bool((tree.n_branches > 2).any())
            hundreds += bool((tree.n_branches >= 100).any())
    assert leaf_only and numeric and wide and hundreds


@pytest.mark.parametrize("extra", (-1, 0, 1, 6))
def test_bank_rows_on_both_sides_of_a_block_boundary(monkeypatch, extra):
    model, X = random_bank(random.Random(8), 4)
    monkeypatch.setattr(chidt.tree, "_TABLE_CELLS", 4 * 6)  # blocks of 6 rows
    Q = random_queries(random.Random(9), model.attributes, 12 + extra)
    _, scores, _ = model.predict_batch(Q)
    assert np.array_equal(scores, np.vstack([oracle_stage(model, q)[1] for q in Q]))
    assert np.array_equal(route_bank(model.trees, Q), oracle_bank_walk(model.trees, Q))


def one_test_bank(n_trees: int):
    """A BR model over binary f0..f{n-1}: tree j tests f{j} at its root and predicts it."""
    attributes = binary_attrs(n_trees)
    X = np.array(list(np.ndindex(*(2,) * n_trees)), dtype=np.float64)
    trees = tuple(grow_bank(X, X.astype(np.int64), attributes, BINARY_CLASSES))
    assert [int(tree.attr[0]) for tree in trees] == list(range(n_trees))
    return BRModel(codes=tuple(f"k{j}" for j in range(n_trees)), trees=trees, attributes=attributes), X


def test_unroutable_value_in_the_third_trees_test_is_refused_as_before():
    model, X = one_test_bank(4)
    Q = X.copy()
    Q[5, 2] = 3.0
    message = "value index 3 outside the domain of 'f2'"
    with pytest.raises(ValidationError) as raised:
        model.predict_batch(Q)
    assert str(raised.value) == message == outcome(oracle_bank_walk, model.trees, Q)


def test_unroutable_value_no_reached_test_reads_still_routes():
    model, X = one_test_bank(3)
    trees = model.trees[:2]  # no tree tests f2
    Q = X.copy()
    Q[:4, 2] = (np.nan, np.inf, 1.5, 7.0)
    assert np.array_equal(route_bank(trees, Q), route_bank(trees, X))
    assert np.array_equal(route_bank(trees, Q), oracle_bank_walk(trees, X))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strategy=st.sampled_from(STRATEGIES),
    fallback=st.booleans(),
)
def test_cascade_batch_equals_per_record_cascade(seed, strategy, fallback):
    model, Q = random_cascade(random.Random(seed), strategy, fallback)
    want = [oracle_cascade(model, q) for q in Q]
    calls = []
    inner = model.stage2.predict_batch

    def spy(X):
        calls.append(np.array(X, copy=True))
        return inner(X)

    model.stage2.predict_batch = spy
    Y, scores, reasons = model.predict_batch(Q)

    assert_indicator(Y, [w[0] for w in want], model.codes)
    assert np.array_equal(scores, np.vstack([w[1] for w in want]))
    assert reasons.dtype == np.uint8
    assert np.asarray(REASONS, dtype=object)[reasons].tolist() == [w[2] for w in want]
    triggered = [i for i, w in enumerate(want) if w[2] != REASON_OK]
    if triggered:
        assert len(calls) == 1
        assert np.array_equal(calls[0], Q[triggered])
    else:
        assert calls == []


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strategy=st.sampled_from(STRATEGIES),
    fallback=st.booleans(),
)
def test_untriggered_rows_are_stage1_and_triggered_rows_stage2(seed, strategy, fallback):
    """The cascade contract as array comparisons: a row with reason 0 is stage 1's output verbatim and, with
    the fallback off, a triggered row is stage 2's."""
    model, Q = random_cascade(random.Random(seed), strategy, fallback)
    Y, scores, reasons = model.predict_batch(Q)
    Y1, scores1, _ = model.stage1.predict_batch(Q)
    ok = reasons == 0
    assert np.array_equal(Y[ok], Y1[ok]) and np.array_equal(scores[ok], scores1[ok])
    if not fallback:
        Y2, scores2, _ = model.stage2.predict_batch(Q[~ok])
        assert np.array_equal(Y[~ok], Y2) and np.array_equal(scores[~ok], scores2)


@pytest.mark.parametrize("fallback", (False, True))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_per_record_view_is_its_row_of_the_batch(strategy, fallback):
    """``ChiDTModel.predict_with_scores(x)`` is row i of ``predict_batch``: the labels as a frozenset, the
    scores bit for bit and the reason as its string."""
    triggered = fell_back = 0
    for seed in range(8):
        model, Q = random_cascade(random.Random(seed), strategy, fallback)
        Y, scores, reasons = model.predict_batch(Q)
        stage2 = model.stage2.predict_batch(Q)[0]
        for i, x in enumerate(Q):
            labels, row_scores, reason = model.predict_with_scores(x)
            assert type(labels) is frozenset and labels == {c for c, on in zip(model.codes, Y[i]) if on}
            assert row_scores.shape == scores[i].shape and np.array_equal(row_scores, scores[i])
            assert type(reason) is str and reason == REASONS[reasons[i]]
            triggered += reason != REASON_OK
            fell_back += reason != REASON_OK and not np.array_equal(Y[i], stage2[i])
    assert triggered and bool(fell_back) == fallback


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stage_batches_equal_per_record_stages(strategy):
    model, Q = random_cascade(random.Random(11), strategy, False)
    for stage in (model.stage1, model.stage2):
        Y, scores, reasons = stage.predict_batch(Q)
        want = [oracle_stage(stage, q) for q in Q]
        assert reasons is None
        assert_indicator(Y, [w[0] for w in want], stage.codes)
        assert np.array_equal(scores, np.vstack([w[1] for w in want]))


def test_lp_marginals_add_in_combination_order():
    # 40 overlapping combinations on one leaf: a matmul would reorder the sums
    rng = random.Random(2)
    attrs = binary_attrs(1)
    combos = []
    while len(combos) < 40:
        combo = frozenset(rng.sample(CODES, rng.randrange(1, 5)))
        if combo not in combos:
            combos.append(combo)
    counts = np.array([rng.randrange(1, 50) for _ in combos], dtype=np.float64)
    tree = leaf_tree(counts, attrs, tuple(combo_key(c) for c in combos))
    model = LPModel(tree=tree, combos=tuple(combos), codes=CODES, attributes=attrs)
    want = oracle_stage(model, (0,))
    for n in (1, 2, 17):
        Y, scores, _ = model.predict_batch(np.zeros((n, 1)))
        assert_indicator(Y, [want[0]] * n, CODES)
        assert np.array_equal(scores, np.vstack([want[1]] * n))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_batch_and_wrong_width(strategy):
    model, Q = random_cascade(random.Random(5), strategy, True)
    Y, scores, reasons = model.predict_batch(Q[:0])
    assert reasons.shape == (0,) and reasons.dtype == np.uint8 and scores.shape == (0, len(model.codes))
    assert_indicator(Y, [], model.codes)
    for predictor in (model, model.stage1, model.stage2):
        with pytest.raises(SchemaMismatchError):
            predictor.predict_batch(np.zeros((3, Q.shape[1] + 1)))
        with pytest.raises(SchemaMismatchError):
            predictor.predict_batch(np.zeros(Q.shape[1]))

