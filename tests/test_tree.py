"""C4.5 induction against independent brute-force oracles."""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chidt.data import AttributeMeta, NOMINAL, NUMERIC
from chidt.errors import ValidationError
from chidt.tree import (
    C45Params,
    C45Tree,
    _entropy_rows,
    _read_tree,
    best_numeric_threshold,
    grow_bank,
    leaf_distributions,
    render,
)

from conftest import binary_attrs, child_lists, node_thresholds, random_view
from oracle_c45 import SplitTest


# ---------------------------------------------------------------------------
# Oracles: straight-line reimplementations used only by the tests
# ---------------------------------------------------------------------------


def oracle_entropy(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def oracle_partition(X, attributes, test, rows):
    branches = {}
    if test.threshold is not None:
        for r in rows:
            branches.setdefault(0 if X[r, test.attr_index] <= test.threshold else 1, []).append(r)
        return [branches.get(j, []) for j in range(2)]
    for r in rows:
        branches.setdefault(int(X[r, test.attr_index]), []).append(r)
    return [branches.get(j, []) for j in range(test.n_branches)]


def oracle_counts(y, rows, k):
    counts = [0] * k
    for r in rows:
        counts[y[r]] += 1
    return counts


def oracle_gain_stats(X, y, k, attributes, test, rows):
    branches = oracle_partition(X, attributes, test, rows)
    sizes = [len(b) for b in branches]
    if sum(1 for s in sizes if s > 0) < 2:
        return None
    parent_h = oracle_entropy(oracle_counts(y, rows, k))
    total = len(rows)
    weighted = sum(
        (len(b) / total) * oracle_entropy(oracle_counts(y, b, k)) for b in branches if b
    )
    gain = parent_h - weighted
    split_info = oracle_entropy([s for s in sizes if s > 0])
    return gain, split_info, gain / split_info


def oracle_best_threshold(X, y, k, attr, min_leaf, rows):
    values = sorted({X[r, attr] for r in rows})
    best = None
    for lo, hi in zip(values, values[1:]):
        t = (lo + hi) / 2.0
        test = SplitTest(attr, threshold=t)
        branches = oracle_partition(X, None, test, rows)
        if any(len(b) < min_leaf for b in branches):
            continue
        stats = oracle_gain_stats(X, y, k, None, test, rows)
        if stats is None:
            continue
        gain, _, ratio = stats
        if best is None or gain > best[1]:
            best = (t, gain, ratio)
    return best


def oracle_root_selection(X, y, k, attributes, min_leaf):
    """Recompute grow's split-selection rule for the root from oracle parts."""
    rows = list(range(len(y)))
    candidates = []
    for a, attr in enumerate(attributes):
        if attr.kind == NUMERIC:
            found = oracle_best_threshold(X, y, k, a, min_leaf, rows)
            if found is None:
                continue
            t, gain, ratio = found
            candidates.append((a, gain, ratio))
        else:
            test = SplitTest(a, n_branches=len(attr.values))
            sizes = [len(b) for b in oracle_partition(X, attributes, test, rows)]
            if sum(1 for s in sizes if s >= min_leaf) < 2:
                continue
            stats = oracle_gain_stats(X, y, k, attributes, test, rows)
            if stats is None:
                continue
            gain, _, ratio = stats
            candidates.append((a, gain, ratio))
    positive = [c for c in candidates if c[1] > 1e-12]
    mean_gain = sum(c[1] for c in positive) / len(positive)
    eligible = [c for c in positive if c[1] >= mean_gain - 1e-12]
    best = eligible[0]
    for c in eligible[1:]:
        if c[2] > best[2]:
            best = c
    return best[0]


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


class TestEntropy:
    # each row of _entropy_rows, the one entropy kernel
    def test_uniform_binary(self):
        assert _entropy_rows(np.array([[8.0, 8.0]]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure(self):
        assert _entropy_rows(np.array([[14.0, 0.0]]))[0] == 0.0

    def test_nine_five(self):
        h = _entropy_rows(np.array([[9.0, 5.0]]))[0]
        assert h == pytest.approx(0.940286, abs=1e-6)
        assert h == pytest.approx(oracle_entropy([9, 5]), abs=1e-12)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6).filter(sum))
    def test_bounds_and_purity(self, counts):
        h = _entropy_rows(np.array([counts], dtype=np.float64))[0]
        k = len(counts)
        assert -1e-12 <= h <= math.log2(k) + 1e-12
        pure = sum(1 for c in counts if c > 0) == 1
        assert (h < 1e-12) == pure


# ---------------------------------------------------------------------------
# numeric thresholds
# ---------------------------------------------------------------------------


class TestBestNumericThreshold:
    # each node's result against the exhaustive oracle on that node's rows alone

    def test_single_midpoint(self):
        # node 0 alone, then beside a second node whose rows interleave with its own
        assert node_thresholds([1.0, 2.0], [0, 1], [0, 0], 2)[0][0] == pytest.approx(1.5)
        found = node_thresholds([1.0, 7.0, 2.0, 5.0], [0, 0, 1, 1], [0, 1, 0, 1], 2)
        assert [f[0] for f in found] == pytest.approx([1.5, 6.0])

    def test_constant_column_has_no_candidate(self):
        found = node_thresholds([1.0] * 5 + [1.0, 2.0], [0, 1, 0, 1, 0, 0, 1], [0] * 5 + [1, 1], 2)
        assert found[0] is None and found[1][0] == pytest.approx(1.5)
        # the raw arrays: a NaN threshold and zero gain and ratio where a node has no candidate
        zeros = np.zeros(5, dtype=int)
        found = best_numeric_threshold(np.ones(5), np.arange(5), zeros, zeros, np.array([[5.0, 0.0]]), np.zeros(1))
        threshold, gain, ratio = found
        assert np.isnan(threshold[0]) and gain[0] == ratio[0] == 0.0

    def test_matches_exhaustive_oracle_on_random_views(self):
        rng = random.Random(31)
        for _ in range(30):
            n = 60
            X = np.array([[rng.randrange(0, 8) + 0.25 * rng.randrange(4)] for _ in range(n)])
            y = np.array([rng.randrange(2) for _ in range(n)])
            node = np.array([rng.randrange(3) for _ in range(n)])
            for min_leaf in (1, 2, 3):
                found = node_thresholds(X[:, 0], y, node, 2, min_leaf)
                for i, mine in enumerate(found):
                    expected = oracle_best_threshold(X, y, 2, 0, min_leaf, np.flatnonzero(node == i))
                    if expected is None:
                        assert mine is None
                    else:
                        assert mine == pytest.approx(expected, abs=1e-12)

    def test_gain_ties_take_smallest_threshold(self):
        # symmetric arrangement: both boundaries give identical gain, at node 1 and shifted by 10 at node 0
        X = np.array([[11.0], [12.0], [13.0], [14.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 0, 1] * 2)
        node = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        for i, found in enumerate(node_thresholds(X[:, 0], y, node, 2)):
            rows = np.flatnonzero(node == i)
            expected = oracle_best_threshold(X, y, 2, 0, 1, rows)
            assert found[1] == pytest.approx(expected[1], abs=1e-12)
            candidates = (X[rows[:-1], 0] + 0.5).tolist()
            tied = [
                t
                for t in candidates
                if oracle_gain_stats(X, y, 2, None, SplitTest(0, threshold=t), rows)[0]
                == pytest.approx(found[1], abs=1e-12)
            ]
            assert found[0] == min(tied)


# ---------------------------------------------------------------------------
# grow
# ---------------------------------------------------------------------------


def depth(tree: C45Tree) -> int:
    """Edges on the longest root-to-leaf path."""
    children, level, edges = child_lists(tree), [0], 0
    while True:
        level = [child for i in level for child in children[i]]
        if not level:
            return edges
        edges += 1


def resubstitution_accuracy(tree: C45Tree, X, y) -> float:
    return float(np.mean(np.argmax(leaf_distributions(tree, X), axis=1) == y))


class TestGrow:
    def test_pure_view_is_single_leaf(self):
        X = np.array([[0], [1], [0]], dtype=float)
        y = np.array([1, 1, 1])
        tree = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"))[0]
        assert tree.n_nodes == 1
        assert tree.majority[0] == 1

    def test_single_separating_attribute(self):
        X = np.array([[0], [0], [1], [1]], dtype=float)
        y = np.array([0, 0, 1, 1])
        tree = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=1, pruning=False),))[0]
        assert depth(tree) == 1
        assert resubstitution_accuracy(tree, X, y) == 1.0

    def test_weather_unpruned_is_perfect_and_root_matches_oracle(self, weather):
        X, y, attrs, classes = weather
        params = C45Params(min_leaf=2, pruning=False)
        tree = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert resubstitution_accuracy(tree, X, y) == 1.0
        expected_root = oracle_root_selection(X, y, len(classes), attrs, params.min_leaf)
        assert tree.attr[0] == expected_root

    def test_empty_view_rejected(self):
        with pytest.raises(ValidationError):
            grow_bank(np.zeros((0, 1)), np.zeros((0, 1), dtype=int), binary_attrs(1), ("a", "b"))

    def test_max_depth_stops_growth(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=1, pruning=False, max_depth=1),))[0]
        assert depth(tree) <= 1

    def test_deterministic_across_runs(self, weather):
        X, y, attrs, classes = weather
        params = C45Params(min_leaf=2, pruning=False)
        t1 = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        t2 = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert t1.to_dict() == t2.to_dict()

    def test_deterministic_on_random_views(self):
        rng = random.Random(77)
        for _ in range(10):
            X, y, attrs, classes = random_view(rng, 30, 4, 3)
            params = C45Params(min_leaf=1, pruning=False)
            first = grow_bank(X, y[:, None], attrs, classes, (params,))[0].to_dict()
            again = grow_bank(X, y[:, None], attrs, classes, (params,))[0].to_dict()
            assert first == again

    def test_min_leaf_one_unpruned_memorizes_conflict_free_data(self):
        rng = random.Random(13)
        for _ in range(25):
            X, y, attrs, classes = random_view(rng, rng.randrange(5, 40), 4, 3)
            # force conflict-freeness: one class per distinct feature row
            seen = {}
            for i in range(len(y)):
                key = tuple(X[i])
                if key in seen:
                    y[i] = seen[key]
                else:
                    seen[key] = y[i]
            tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=1, pruning=False),))[0]
            assert resubstitution_accuracy(tree, X, y) == 1.0

    def test_xor_is_memorized(self):
        # every single attribute has zero gain here; growth must still separate
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        tree = grow_bank(X, y[:, None], binary_attrs(2), ("a", "b"), (C45Params(min_leaf=1, pruning=False),))[0]
        assert resubstitution_accuracy(tree, X, y) == 1.0

    # before grow checked its input, these views lost the bad row (the root's children held 4 rows) or misread it
    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, float("nan"), "NaN in numeric 'lab'"),
            (0, 2.0, "value index 2 outside the domain of 'sign'"),
            (0, -1.0, "value index -1 outside the domain of 'sign'"),
            (0, 0.5, "value 0.5 of nominal 'sign' is not a value index"),
            (0, float("inf"), "value inf of nominal 'sign' is not a value index"),
        ],
    )
    def test_values_no_branch_can_take_fail_closed(self, column, value, message):
        attrs = (AttributeMeta("sign", NOMINAL, values=("0", "1")), AttributeMeta("lab", NUMERIC))
        X = np.array([[0, 1.0], [0, 2.0], [1, 3.0], [1, 4.0], [0, 5.0]])
        y = np.array([0, 0, 1, 1, 0])
        X[3, column] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            grow_bank(X, y[:, None], attrs, ("no", "yes"), (C45Params(min_leaf=1),))

    def test_unobserved_nominal_value_routes_to_parent_majority(self):
        attrs = (AttributeMeta("color", NOMINAL, values=("r", "g", "b")),)
        X = np.array([[0], [0], [1], [1], [1]], dtype=float)
        y = np.array([0, 0, 1, 1, 1])
        tree = grow_bank(X, y[:, None], attrs, ("no", "yes"), (C45Params(min_leaf=1, pruning=False),))[0]
        # value "b" never occurs; its virtual leaf predicts the root majority
        dist = leaf_distributions(tree, [[2]])[0]
        assert np.argmax(dist) == 1
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


class TestPrune:
    def test_pure_leaf_unchanged(self):
        X = np.array([[0], [1]], dtype=float)
        y = np.array([0, 0])
        tree = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(pruning=False),))[0]
        pruned = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"))[0]
        assert pruned.to_dict()["root"] == tree.to_dict()["root"]

    def test_children_with_parent_majority_collapse(self):
        # split where both sides keep the same majority: pruning removes it
        X = np.array([[0], [0], [0], [0], [1], [1], [1], [1]], dtype=float)
        y = np.array([0, 0, 0, 1, 0, 0, 0, 1])
        grown = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=1, pruning=False),))[0]
        pruned = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=1, pruning=True),))[0]
        assert grown.n_nodes == 3
        assert pruned.n_nodes == 1
        assert pruned.majority[0] == 0

    def test_never_increases_node_count_on_50_random_trees(self):
        def assert_internal_arity(tree):
            assert (tree.n_branches[tree.attr >= 0] >= 2).all()
            assert (tree.n_branches[tree.attr < 0] == 0).all()

        rng = random.Random(2024)
        for _ in range(50):
            X, y, attrs, classes = random_view(rng, rng.randrange(6, 40), 4, 3)
            grown = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=1, pruning=False),))[0]
            pruned = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=1),))[0]
            assert pruned.n_nodes <= grown.n_nodes
            assert pruned.attributes == grown.attributes
            assert pruned.class_names == grown.class_names
            assert_internal_arity(grown)
            assert_internal_arity(pruned)

    def test_useful_split_survives(self):
        X = np.repeat(np.array([[0], [1]], dtype=float), 20, axis=0)
        y = np.repeat(np.array([0, 1]), 20)
        assert grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=1),))[0].attr[0] >= 0


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


class TestPredict:
    def test_leaf_distribution_normalized(self):
        X = np.array([[0], [0], [0], [1]], dtype=float)
        y = np.array([0, 0, 0, 1])
        tree = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=4),))[0]
        assert tree.n_nodes == 1
        dist = leaf_distributions(tree, [[0]])[0]
        assert dist == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_distributions_sum_to_one(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(),))[0]
        for dist in leaf_distributions(tree, X):
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fixture_probabilities_match_hand_routing(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]

        children = child_lists(tree)

        def hand_route(x):
            i = 0
            while tree.attr[i] >= 0:
                value, threshold = x[tree.attr[i]], tree.threshold[i]
                i = children[i][int(value) if np.isnan(threshold) else int(value > threshold)]
            return tree.counts[i] / tree.counts[i].sum()

        for x, dist in zip(X, leaf_distributions(tree, X)):
            assert dist == pytest.approx(hand_route(x), abs=1e-15)

    def test_tie_breaks_to_lowest_class_index(self):
        X = np.array([[0], [1]], dtype=float)
        y = np.array([1, 0])
        tree = grow_bank(X, y[:, None], binary_attrs(1), ("a", "b"), (C45Params(min_leaf=2),))[0]
        assert tree.n_nodes == 1
        dist = leaf_distributions(tree, [[0]])[0]
        assert dist == pytest.approx([0.5, 0.5])
        assert np.argmax(dist) == 0

    def test_agrees_with_argmax_oracle_on_1000_vectors(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes)[0]
        rng = random.Random(6)
        Q = [[rng.randrange(3), rng.uniform(60, 90), rng.uniform(60, 100), rng.randrange(2)] for _ in range(1000)]
        dists = leaf_distributions(tree, Q)
        for dist, predicted in zip(dists, np.argmax(dists, axis=1)):
            expected = max(range(len(dist)), key=lambda j: (dist[j], -j))
            assert predicted == expected

    def test_out_of_domain_nominal_value(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]
        assert tree.attr[0] == 0
        with pytest.raises(ValidationError, match="outside the domain"):
            leaf_distributions(tree, [[7, 70.0, 80.0, 0]])

    def test_arity_mismatch(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes)[0]
        with pytest.raises(ValidationError, match="4-attribute schema"):
            leaf_distributions(tree, [[0, 70.0]])
        with pytest.raises(ValidationError, match="4-attribute schema"):
            leaf_distributions(tree, X[:, :3])

    # weather tree: outlook at the root, humidity under sunny (2), windy under rainy (1)
    @pytest.mark.parametrize(
        "x, message",
        [
            ([1.5, 70.0, 80.0, 0], "not a value index"),
            ([-0.5, 70.0, 80.0, 0], "not a value index"),
            ([float("nan"), 70.0, 80.0, 0], "not a value index"),
            ([float("inf"), 70.0, 80.0, 0], "not a value index"),
            ([1, 70.0, 80.0, 0.999], "not a value index"),
            ([3, 70.0, 80.0, 0], "outside the domain"),
            ([2, 70.0, float("nan"), 0], "NaN in numeric 'humidity'"),
        ],
    )
    def test_values_no_branch_can_take_fail_closed(self, weather, x, message):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]
        with pytest.raises(ValidationError, match=message):
            leaf_distributions(tree, [x])
        batch = np.vstack([X, np.array(x, dtype=np.float64)])
        with pytest.raises(ValidationError, match=message):
            leaf_distributions(tree, batch)

    def test_values_off_the_tested_path_are_not_read(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0]
        # overcast is a leaf: neither humidity nor windy is tested
        assert np.argmax(leaf_distributions(tree, [[0, float("nan"), float("nan"), 0.5]])[0]) == 1

    def test_batch_rows_equal_one_row_calls(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=1, pruning=False),))[0]
        batch = leaf_distributions(tree, X)
        assert np.array_equal(batch, np.vstack([leaf_distributions(tree, x[None]) for x in X]))
        assert leaf_distributions(tree, X[:0]).shape == (0, 2)


# ---------------------------------------------------------------------------
# persistence and rendering
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_json_round_trip(self, weather):
        X, y, attrs, classes = weather
        tree = grow_bank(X, y[:, None], attrs, classes)[0]
        doc = json.loads(json.dumps(tree.to_dict()))
        again = _read_tree(doc, "tree", attrs, classes)
        assert again.to_dict() == tree.to_dict()
        assert np.array_equal(leaf_distributions(again, X), leaf_distributions(tree, X))

    def test_malformed_split_rejected_when_read(self, weather):
        _, _, attrs, classes = weather
        leaf = {"kind": "leaf", "counts": [1.0, 1.0], "majority": 0}
        for test, children, message in (
            ({"attr": 0, "branches": 3}, [leaf, leaf], "tree root.children has 2 entries for 3 branches"),
            ({"attr": 1, "threshold": 70.0}, [leaf], "tree root.children has 1 entries for 2 branches"),
            ({"attr": 9, "branches": 2}, [leaf, leaf], "tree root.test.attr is not an integer in [0, 4): got 9"),
        ):
            root = {"kind": "split", "test": test, "counts": [1.0, 1.0], "majority": 0, "children": children}
            with pytest.raises(ValidationError, match=re.escape(message)):
                _read_tree({"root": root}, "tree", attrs, classes)

    def test_render_mentions_tests_and_leaves(self, weather):
        X, y, attrs, classes = weather
        text = render(grow_bank(X, y[:, None], attrs, classes, (C45Params(min_leaf=2, pruning=False),))[0])
        assert "outlook = sunny" in text
        assert "humidity" in text
        assert "yes (" in text


# ---------------------------------------------------------------------------
# deep trees
# ---------------------------------------------------------------------------


def test_chain_of_2000_levels_needs_no_recursion():
    # the class alternates along a numeric column: each split cuts one row off the rest
    n = 2001
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    attrs = (AttributeMeta("x", NUMERIC),)
    tree = grow_bank(X, y[:, None], attrs, ("a", "b"), (C45Params(min_leaf=1, pruning=False),))[0]
    assert depth(tree) == 2000
    assert tree.n_nodes == 4001
    assert np.array_equal(np.argmax(leaf_distributions(tree, X), axis=1), y)
    again = _read_tree(tree.to_dict(), "tree", attrs, ("a", "b"))
    for name in ("attr", "threshold", "n_branches", "counts", "virtual"):
        assert np.array_equal(getattr(again, name), getattr(tree, name), equal_nan=True), name
    pruned = grow_bank(X, y[:, None], attrs, ("a", "b"), (C45Params(min_leaf=1),))[0]
    assert pruned.n_nodes <= tree.n_nodes
    assert leaf_distributions(pruned, X).shape == (n, 2)
    assert pruned.to_dict()["root"]["kind"] in ("leaf", "split")
