"""Table-driven C4.5 induction and level-wise pruning against the scalar, recursive code they replaced
(``oracle_c45``), tree for tree.

Every comparison is exact (``==``): the table kernel must reproduce the
scalar arithmetic bit for bit, or a near-tie between two candidates could
pick a different split and change a model. For a deeper run::

    python -m pytest tests/test_tree_oracle.py --hypothesis-profile=oracle-deep
"""

from __future__ import annotations

import dataclasses
import inspect
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chidt.tree as tree_module
import oracle_c45
from chidt.data import NOMINAL, NUMERIC, AttributeMeta
from chidt.errors import ValidationError
from chidt.tree import C45Params, _entropy_rows, grow_bank
from conftest import node_thresholds, random_view
from oracle_c45 import SplitTest, oracle_grow, oracle_prune

views = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 300),
        "n_attrs": st.integers(1, 5),
        "k": st.integers(2, 12),
        "numeric_share": st.sampled_from([0.0, 0.5, 1.0]),
        "max_width": st.sampled_from([3, 10, 300]),
    }
)


def view(seed, n, n_attrs, k, numeric_share, max_width):
    return random_view(random.Random(seed), n, n_attrs, k, numeric_share, widths=(2, max_width + 1))


class TestGrowMatchesOracle:
    @settings(deadline=None)
    @given(
        views,
        st.integers(1, 3),
        st.sampled_from([None, 1, 3]),
    )
    def test_same_tree_as_scalar_induction(self, spec, min_leaf, max_depth):
        X, y, attrs, classes = view(**spec)
        params = C45Params(min_leaf=min_leaf, max_depth=max_depth, pruning=False)
        grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(2, 12))
    def test_permuted_copies_tie_as_the_scalar_sums_do(self, seed, width, k):
        # copies of one column with permuted values have equal gains in exact arithmetic; which copy
        # wins depends on the order the branch terms are summed in, so it must be the scalar order
        rng = random.Random(seed)
        X, y, attrs, classes = random_view(rng, 200, 1, k, numeric_share=0.0, widths=(width, width + 1))
        perms = [list(range(width))] + [rng.sample(range(width), width) for _ in range(5)]
        X = np.column_stack([np.take(p, X[:, 0].astype(int)) for p in perms]).astype(np.float64)
        attrs = tuple(dataclasses.replace(attrs[0], name=f"a{i}") for i in range(len(perms)))
        params = C45Params(min_leaf=1, max_depth=2, pruning=False)
        grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)

    def test_wide_views_reach_the_pairwise_path(self, monkeypatch):
        # 12 classes and 10-value attributes: nodes and splits with 8 or more nonzero terms
        widths = []

        def counted(T):
            widths.append(T.shape[1])
            return pairwise_sum(T)

        pairwise_sum = tree_module._pairwise_sum
        monkeypatch.setattr(tree_module, "_pairwise_sum", counted)
        X, y, attrs, classes = view(seed=3, n=300, n_attrs=4, k=12, numeric_share=0.5, max_width=10)
        params = C45Params(min_leaf=1, pruning=False)
        grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)
        assert widths and min(widths) >= 8

    def test_level_counted_one_node_at_a_time(self, monkeypatch):
        # a level whose count table would exceed the cell budget is counted in node chunks
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", 1)
        for seed in range(5):
            X, y, attrs, classes = view(seed=seed, n=200, n_attrs=4, k=9, numeric_share=0.0, max_width=10)
            params = C45Params(min_leaf=1, pruning=False)
            grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
            assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)

    def test_shipped_corpus_sized_views(self):
        # the shape of a diverse-br bank: 14 binary attributes, two classes, 2,000 rows
        rng = random.Random(2009)
        for min_leaf in (1, 2):
            X, y, attrs, classes = random_view(rng, 2000, 14, 2, numeric_share=0.0)
            params = C45Params(min_leaf=min_leaf, pruning=False)
            grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
            assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)


class TestPruneMatchesOracle:
    @settings(deadline=None)
    @given(
        views,
        st.integers(1, 3),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([0.05, 0.25, 0.5]),
    )
    def test_same_tree_as_recursive_pruning(self, spec, min_leaf, max_depth, cf):
        X, y, attrs, classes = view(**spec)
        params = C45Params(min_leaf=min_leaf, max_depth=max_depth, confidence_factor=cf)
        pruned = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert pruned.to_dict() == oracle_prune(oracle_grow(X, y, attrs, classes, params))
        grown = grow_bank(X, y[:, None], attrs, classes, (dataclasses.replace(params, pruning=False),))[0]
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, dataclasses.replace(params, pruning=False))


class TestEntropyKernel:
    # nonzero counts on both sides of every branch of numpy's pairwise sum: under 8 terms, one block of
    # 8 lanes with 0-7 left over, and rows split once, twice and more past 128 terms
    @pytest.mark.parametrize("nonzero", [*range(1, 21), 63, 64, 127, 128, 129, 136, 255, 256, 257, 1000])
    def test_rows_equal_scalar_entropy_exactly(self, nonzero):
        rng = np.random.default_rng(nonzero)
        width = nonzero + 4
        C = np.zeros((400, width))
        for i, scale in enumerate(np.repeat([1, 10, 1000, 10**6], 100)):
            cols = rng.choice(width, size=nonzero, replace=False)
            C[i, cols] = rng.integers(1, scale + 1, size=nonzero)
        h = _entropy_rows(C)
        assert all(h[i] == oracle_c45.entropy(C[i]) for i in range(len(C)))

    @given(
        st.integers(1, 300),
        st.integers(1, 8),
        st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        st.sampled_from([1, 10, 1000, 10**6]),
        st.integers(0, 2**32 - 1),
    )
    def test_any_rows_equal_scalar_entropy_exactly(self, width, n_rows, density, scale, seed):
        # drawn from a seed: hypothesis cannot draw up to 2,400 cells one by one fast enough
        rng = np.random.default_rng(seed)
        C = np.where(rng.random((n_rows, width)) < density, rng.integers(1, scale + 1, (n_rows, width)), 0)
        C[~C.any(axis=1), 0] = 1
        C = C.astype(np.float64)
        assert _entropy_rows(C).tolist() == [oracle_c45.entropy(row) for row in C]

    def test_very_wide_rows_equal_scalar_entropy_exactly(self):
        rng = np.random.default_rng(8193)
        for width in (8193, 20000):
            C = rng.integers(0, 10**6, size=(3, width)).astype(np.float64)
            assert _entropy_rows(C).tolist() == [oracle_c45.entropy(row) for row in C]

    def test_empty_row_reads_zero(self):
        assert _entropy_rows(np.array([[0.0, 0.0], [3.0, 1.0]]))[0] == 0.0


class TestThresholdMatchesOracle:
    # every node's result equals the loop's on that node's rows alone

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9), st.integers(0, 3)), min_size=1, max_size=80),
        st.integers(2, 10),
        st.data(),
    )
    def test_same_split_as_the_loop(self, triples, k, data):
        X = np.array([[v / 2.0] for v, _, _ in triples])
        y = np.array([c % k for _, c, _ in triples])
        node = np.array([i for _, _, i in triples])
        min_leaf = data.draw(st.integers(0, len(triples)))  # 0 as 1: no side of a cut is ever empty
        for i, found in enumerate(node_thresholds(X[:, 0], y, node, k, min_leaf)):
            rows = np.flatnonzero(node == i)  # a node without rows has no candidate
            assert found == (oracle_c45.best_numeric_threshold(X, y, k, 0, min_leaf, rows) if rows.size else None)

    @pytest.mark.parametrize("min_leaf, expected", [(1, 2.5), (2, 2.5), (3, 3.5), (4, None)])
    def test_tied_gains_take_the_smallest_threshold(self, min_leaf, expected):
        # mirror image: the cuts at 2.5 and 4.5 give the same gain to the last bit; node 1 holds the same
        # rows shifted by 10 and interleaved with node 0's
        X = np.concatenate([np.arange(1.0, 7.0), np.arange(11.0, 17.0)])[[0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11], None]
        y = np.repeat([0, 0, 1, 1, 0, 0], 2)
        node = np.tile([0, 1], 6)
        found = node_thresholds(X[:, 0], y, node, 2, min_leaf)
        for i in range(2):
            assert found[i] == oracle_c45.best_numeric_threshold(X, y, 2, 0, min_leaf, np.flatnonzero(node == i))
        assert [f and f[0] for f in found] == [expected, expected and expected + 10]
        tied = oracle_c45.gain_ratio(X[node == 0], y[node == 0], 2, SplitTest(0, threshold=4.5))
        assert tied.gain == oracle_c45.gain_ratio(X[node == 0], y[node == 0], 2, SplitTest(0, threshold=2.5)).gain


def boundary_view(seed, n, k, classes, shapes, n_nodes):
    """(X, y, node): n rows whose classes follow the pattern ``classes`` along the row order, one numeric
    column per entry of ``shapes``, and rows spread over ``n_nodes`` nodes.

    Classes are random, in long one-class runs, or one class with a single minority row at the start, the
    middle or the end. An ``ordered`` column rises with the row, so within each node its class runs are
    runs by value; ``few`` has 1 to 3 distinct values, with mixed classes at each; ``adjacent`` rises over
    neighbouring floats (``np.nextafter``), whose midpoints collapse; ``shuffled`` is a random order.
    """
    rng = np.random.default_rng(seed)
    if classes == "random":
        y = rng.integers(0, k, n)
    elif classes == "runs":
        y = np.repeat(rng.integers(0, k, n), rng.geometric(1 / 8, n))[:n]
    else:
        y = np.full(n, rng.integers(k))
        y[{"first": 0, "middle": n // 2, "last": n - 1}[classes]] = (y[0] + 1) % k
    columns = []
    for shape in shapes:
        if shape == "ordered":
            columns.append(np.arange(n) // rng.integers(1, 3) * 0.5)
        elif shape == "few":
            columns.append(rng.integers(0, rng.integers(1, 4), n).astype(np.float64))
        elif shape == "adjacent":
            base = rng.choice([1.0, -3.5, 2.0**52, 1e16])
            ladder = [base]
            for _ in range(5):
                ladder.append(np.nextafter(ladder[-1], np.inf))
            columns.append(np.array(ladder)[np.arange(n) * 6 // n])
        else:
            columns.append(rng.permutation(n) * 0.25)
    return np.column_stack(columns), y, rng.integers(0, n_nodes, n)


boundary_views = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(2, 120),
        "k": st.sampled_from([2, 3, 8, 12]),
        "classes": st.sampled_from(["random", "runs", "first", "middle", "last"]),
        "shapes": st.lists(st.sampled_from(["ordered", "few", "adjacent", "shuffled"]), min_size=1, max_size=4),
        "n_nodes": st.integers(1, 4),
    }
)


class TestBoundaryCuts:
    # only boundary cuts are scored; every (attribute, node) pair still gets the exhaustive scan's split

    @settings(deadline=None)
    @given(boundary_views, st.integers(1, 4))
    def test_same_split_as_the_exhaustive_scan(self, spec, min_leaf):
        X, y, node = boundary_view(**spec)
        d, k, m = X.shape[1], spec["k"], spec["n_nodes"]
        # one search over every (attribute, node) pair, numbered as _candidates numbers them
        counts = np.zeros((m, k))
        np.add.at(counts, (node, y), 1.0)
        ranks = np.argsort(np.argsort(X, axis=0), axis=0)
        pair = (np.arange(d)[:, None] * m + node).ravel()
        c = np.tile(counts, (d, 1))
        found = tree_module.best_numeric_threshold(
            X.T.ravel(), ranks.T.ravel(), np.tile(y, d), pair, c, _entropy_rows(c), min_leaf
        )
        for a in range(d):
            for j in range(m):
                t, g, q = (float(f[a * m + j]) for f in found)
                rows = np.flatnonzero(node == j)
                expected = oracle_c45.best_numeric_threshold(X, y, k, a, min_leaf, rows) if rows.size else None
                assert (None if np.isnan(t) else (t, g, q)) == expected
        attrs = tuple(AttributeMeta(f"a{i}", NUMERIC) for i in range(d))
        classes = tuple(f"c{j}" for j in range(k))
        params = C45Params(min_leaf=min_leaf, max_depth=8, pruning=False)  # a wrong search may never stop
        grown = grow_bank(X, y[:, None], attrs, classes, (params,))[0]
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)

    def test_cuts_inside_a_one_class_run_are_not_scored(self, monkeypatch):
        # ten distinct values, five of one class then five of the other: of the nine cuts, the first, the
        # last and the one between the runs are scored
        scored = []

        def counted(parent_h, table):
            scored.append(len(table))
            return split_scores(parent_h, table)

        split_scores = tree_module._split_scores
        monkeypatch.setattr(tree_module, "_split_scores", counted)
        assert node_thresholds(np.arange(10.0), np.repeat([0, 1], 5), np.zeros(10), 2)[0][0] == 4.5
        assert scored == [3]


def bank(seed, n, n_attrs, k, numeric_share, n_trees, widths=(2, 4)):
    """(X, Y, attributes, class_names) of a random view with ``n_trees`` class columns in shuffled order:
    a constant one, which grows a single node, and the rest cycling through a function of one attribute
    (a shallow tree), that function with a tenth of the classes redrawn, and random classes (deep trees).
    A nominal attribute has ``randrange(*widths)`` values."""
    rng = random.Random(seed)
    X, y, attrs, classes = random_view(rng, n, n_attrs, k, numeric_share, widths)
    columns = [np.full(n, rng.randrange(k))]
    for j in range(n_trees - 1):
        shallow = (X[:, rng.randrange(n_attrs)] * 2).astype(np.int64) % k
        noisy = np.where([rng.random() < 0.1 for _ in range(n)], [rng.randrange(k) for _ in range(n)], shallow)
        columns.append((shallow, noisy, np.array([rng.randrange(k) for _ in range(n)]))[j % 3])
    rng.shuffle(columns)
    return X, np.column_stack(columns), attrs, classes


banks = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 150),
        "n_attrs": st.integers(1, 4),
        "k": st.integers(2, 9),
        "numeric_share": st.sampled_from([0.0, 0.5, 1.0]),
        "n_trees": st.integers(1, 5),
    }
)


class TestBankMatchesOracle:
    # each tree of a bank is the tree that its own class column grows alone

    @settings(deadline=None)
    @given(banks, st.sampled_from([1, 2, 5]), st.sampled_from([None, 1, 3]), st.sampled_from([0.05, 0.25]))
    def test_every_tree_is_the_scalar_one(self, spec, min_leaf, max_depth, cf):
        X, Y, attrs, classes = bank(**spec)
        params = C45Params(min_leaf=min_leaf, max_depth=max_depth, confidence_factor=cf, pruning=False)
        pruning = dataclasses.replace(params, pruning=True)
        trees, pruned = grow_bank(X, Y, attrs, classes, (params,)), grow_bank(X, Y, attrs, classes, (pruning,))
        assert len(trees) == len(pruned) == Y.shape[1]
        for tree, tree_pruned, y in zip(trees, pruned, Y.T):
            assert tree.to_dict() == oracle_grow(X, y, attrs, classes, params)
            assert tree_pruned.to_dict() == oracle_prune(oracle_grow(X, y, attrs, classes, pruning))

    @settings(deadline=None)
    @given(
        banks,
        st.sampled_from([1, 2, 5]),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([0.2, 0.6, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_per_tree_rows_grow_each_tree_alone(self, spec, min_leaf, max_depth, share, seed):
        # each tree trains on its own random rows, which other trees reuse; the shared class list is a
        # superset of a tree's classes, so the bank tree's counts are cut to the classes its rows have.
        # The bank prunes before that cut, as label-powerset training does, so the pruned compare
        # guards that order
        X, Y, attrs, classes = bank(**spec)
        rng = np.random.default_rng(seed)
        training = rng.random(Y.shape) < share
        training[rng.integers(len(Y), size=Y.shape[1]), np.arange(Y.shape[1])] = True  # no tree without rows
        params = C45Params(min_leaf=min_leaf, max_depth=max_depth, pruning=False)
        pruning = dataclasses.replace(params, pruning=True)
        trees = grow_bank(X, Y, attrs, classes, (params,), training)
        pruned = grow_bank(X, Y, attrs, classes, (pruning,), training)
        assert len(trees) == len(pruned) == Y.shape[1]
        for tree, tree_pruned, y, rows in zip(trees, pruned, Y.T, training.T):
            own = np.unique(y[rows])
            names = tuple(classes[c] for c in own)
            alone = (X[rows], np.searchsorted(own, y[rows]), attrs, names)
            projected = dataclasses.replace(tree, counts=tree.counts[:, own], class_names=names)
            assert projected.to_dict() == oracle_grow(*alone, params)
            projected = dataclasses.replace(tree_pruned, counts=tree_pruned.counts[:, own], class_names=names)
            assert projected.to_dict() == oracle_prune(oracle_grow(*alone, pruning))

    def test_a_tree_without_rows_is_refused(self):
        X, Y, attrs, classes = bank(1, n=20, n_attrs=2, k=3, numeric_share=0.5, n_trees=2)
        training = np.ones(Y.shape, dtype=bool)
        training[:, 1] = False
        with pytest.raises(ValidationError, match="empty view"):
            grow_bank(X, Y, attrs, classes, (C45Params(),), training)
        with pytest.raises(ValidationError, match="do not match"):
            grow_bank(X, Y, attrs, classes, (C45Params(),), training[:, :1])

    @pytest.mark.parametrize("seed", range(4))
    def test_levels_counted_in_several_chunks(self, monkeypatch, seed):
        # a cell budget far below one bank level: each level is counted in chunks of a node or a few
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", 64)
        X, Y, attrs, classes = bank(seed, n=120, n_attrs=4, k=3, numeric_share=0.5, n_trees=5)
        params = C45Params(min_leaf=1, pruning=False)
        for tree, y in zip(grow_bank(X, Y, attrs, classes, (params,)), Y.T):
            assert tree.to_dict() == oracle_grow(X, y, attrs, classes, params)

    @pytest.mark.parametrize("seed", range(3))
    def test_numeric_only_levels_searched_in_chunks(self, monkeypatch, seed):
        # each row counts one cell per attribute: every search holds at most 64 values, or one node's
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", 64)
        searched = []

        def counted(values, rank, y, node, counts, parent_h, min_leaf):
            searched.append((len(counts), len(values)))
            return search(values, rank, y, node, counts, parent_h, min_leaf)

        search = tree_module.best_numeric_threshold
        monkeypatch.setattr(tree_module, "best_numeric_threshold", counted)
        X, Y, attrs, classes = bank(seed, n=120, n_attrs=3, k=3, numeric_share=1.0, n_trees=4)
        params = C45Params(min_leaf=1, pruning=False)
        for tree, y in zip(grow_bank(X, Y, attrs, classes, (params,)), Y.T):
            assert tree.to_dict() == oracle_grow(X, y, attrs, classes, params)
        # the three numeric attributes of one node are three (attribute, node) pairs
        assert all(pairs == 3 or values <= 64 for pairs, values in searched)
        assert max(values for _, values in searched) > 64  # a node of its own may hold more

    @pytest.mark.parametrize("cells", [1 << 16, 256])
    def test_one_search_per_chunk_covers_every_numeric_attribute(self, monkeypatch, cells):
        # numeric column j holds values in [1000 j, 1000 j + 10), so a searched row shows its attribute
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", cells)
        X, Y, attrs, classes = bank(5, n=150, n_attrs=2, k=3, numeric_share=0.0, n_trees=3)
        X = np.column_stack([X[:, 0], random_view(random.Random(5), 150, 3, 3, numeric_share=1.0)[0], X[:, 1]])
        X[:, 1:4] += np.arange(3) * 1000.0
        attrs = (attrs[0], *(AttributeMeta(f"x{j}", NUMERIC) for j in range(3)), attrs[1])
        levels = []  # each level's open node count and the nodes of each of its searches

        def level(*args):
            levels.append((len(signature.bind(*args).arguments["counts"]), []))  # the open nodes' class counts
            return candidates(*args)

        def search(values, rank, y, node, counts, parent_h, min_leaf):
            # checked here, before a wrong split could make a level that never ends
            assert len(counts) % 3 == 0
            attribute = node // (len(counts) // 3)
            assert (attribute == values // 1000).all() and set(attribute.tolist()) == {0, 1, 2}
            levels[-1][1].append(len(counts) // 3)
            return best_numeric_threshold(values, rank, y, node, counts, parent_h, min_leaf)

        candidates, best_numeric_threshold = tree_module._candidates, tree_module.best_numeric_threshold
        signature = inspect.signature(candidates)
        monkeypatch.setattr(tree_module, "_candidates", level)
        monkeypatch.setattr(tree_module, "best_numeric_threshold", search)
        params = C45Params(min_leaf=1, pruning=False)
        for tree, y in zip(grow_bank(X, Y, attrs, classes, (params,)), Y.T):
            assert tree.to_dict() == oracle_grow(X, y, attrs, classes, params)
        levels = [(m, searches) for m, searches in levels if m]  # a level of pure nodes searches nothing
        assert len(levels) > 2
        for m, searches in levels:
            assert sum(searches) == m  # the chunks, one search each, cover the level
        chunked = max(len(searches) for _, searches in levels)
        assert chunked == 1 if cells == 1 << 16 else chunked > 1

    @pytest.mark.parametrize("pruning", [False, True])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_each_nominal_attribute_scored_over_its_own_values(self, monkeypatch, min_leaf, pruning):
        # four binary attributes with a 300-value one between them, and a numeric one: the binary tests
        # are scored as one table 2 branches wide, the 300-value test as a table of its own
        X, Y, attrs, classes = bank(11, n=400, n_attrs=4, k=3, numeric_share=0.0, n_trees=3, widths=(2, 3))
        rng = np.random.default_rng(11)
        wide = rng.integers(0, 300, len(X))
        X = np.column_stack([X[:, :2], wide, X[:, 2:], rng.integers(0, 20, len(X)) * 0.5])
        Y = np.column_stack([Y, wide % 3])  # classes that only the 300-value attribute tells
        wide_attr = AttributeMeta("w", NOMINAL, tuple(map(str, range(300))))
        attrs = (*attrs[:2], wide_attr, *attrs[2:], AttributeMeta("x", NUMERIC))
        attrs = tuple(dataclasses.replace(a, name=f"a{i}") for i, a in enumerate(attrs))
        tables = []

        def counted(parent_h, table):
            tables.append(table.shape)
            return split_scores(parent_h, table)

        split_scores = tree_module._split_scores
        monkeypatch.setattr(tree_module, "_split_scores", counted)
        params = C45Params(min_leaf=min_leaf, pruning=pruning, max_depth=6)  # a wrong score may never stop
        trees = grow_bank(X, Y, attrs, classes, (params,))
        for tree, y in zip(trees, Y.T):
            grown = oracle_grow(X, y, attrs, classes, params)
            assert tree.to_dict() == (oracle_prune(grown) if pruning else grown)
        assert any((tree.attr == 2).any() for tree in trees)
        # (attributes, branches) of each nominal table; a numeric search scores (cuts, 2, classes) tables
        assert {shape[1:3] for shape in tables if len(shape) == 4} == {(4, 2), (1, 300)}

    def test_trees_stop_at_different_depths(self):
        # a one-node tree, a one-split tree and a deep tree grown side by side, at every depth limit
        X, Y, attrs, classes = bank(7, n=200, n_attrs=3, k=2, numeric_share=0.5, n_trees=3)
        for max_depth in (None, 0, 1, 2):
            params = C45Params(min_leaf=2, max_depth=max_depth, pruning=False)
            trees = grow_bank(X, Y, attrs, classes, (params,))
            for tree, y in zip(trees, Y.T):
                assert tree.to_dict() == oracle_grow(X, y, attrs, classes, params)
        assert len({tree.n_nodes for tree in grow_bank(X, Y, attrs, classes, (C45Params(pruning=False),))}) == 3


stage_params = st.builds(
    C45Params,
    min_leaf=st.integers(1, 3),
    confidence_factor=st.sampled_from([0.05, 0.25]),
    pruning=st.booleans(),
    max_depth=st.sampled_from([None, 0, 1, 2, 3, 4]),
)


class TestStagesGrowInOnePass:
    # two stages grown as one bank share every node that both reach with the same rows after the same
    # tests; each stage's trees are still the ones a bank of that stage alone grows

    @settings(deadline=None)
    @given(
        banks,
        st.sampled_from([3, 10, 300]),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.7, 1.0]),
        stage_params,
        stage_params | st.none(),
        st.integers(0, 2**32 - 1),
    )
    def test_each_stage_is_its_own_bank(self, spec, max_width, n_sets, share, first, second, seed):
        # second is None: the two stages are equal
        X, Y, attrs, classes = bank(**spec, widths=(2, max_width + 1))
        stages = (first, first if second is None else second)
        rng = np.random.default_rng(seed)
        sets = rng.random((len(X), n_sets)) < share
        sets[rng.integers(len(X), size=n_sets), np.arange(n_sets)] = True  # no set without rows
        # the layout of the cascade's banks: code j of set s is tree s * codes + j
        Y, training = np.tile(Y, n_sets), np.repeat(sets, Y.shape[1], axis=1)
        together = grow_bank(X, Y, attrs, classes, stages, training)
        alone = [tree for params in stages for tree in grow_bank(X, Y, attrs, classes, (params,), training)]
        assert len(together) == len(alone) == 2 * Y.shape[1]
        assert [tree.to_dict() for tree in together] == [tree.to_dict() for tree in alone]
        for b, tree in enumerate(together):
            params, y, rows = stages[b // Y.shape[1]], Y[:, b % Y.shape[1]], training[:, b % Y.shape[1]]
            own = np.unique(y[rows])
            names = tuple(classes[c] for c in own)
            grown = oracle_grow(X[rows], np.searchsorted(own, y[rows]), attrs, names, params)
            projected = dataclasses.replace(tree, counts=tree.counts[:, own], class_names=names)
            assert projected.to_dict() == (oracle_prune(grown) if params.pruning else grown)

    @pytest.mark.parametrize("seed", range(3))
    def test_stages_that_choose_apart_each_keep_the_rows(self, seed):
        # numeric attributes at min_leaf 3 and 1: the stages share the roots, then cut elsewhere, and each
        # node they split apart becomes two nodes, each of which must route its own copy of the rows
        X, Y, attrs, classes = bank(seed, n=150, n_attrs=3, k=3, numeric_share=1.0, n_trees=4)
        stages = (C45Params(min_leaf=3, pruning=False), C45Params(min_leaf=1))
        together = grow_bank(X, Y, attrs, classes, stages)
        alone = [tree for params in stages for tree in grow_bank(X, Y, attrs, classes, (params,))]
        assert [tree.to_dict() for tree in together] == [tree.to_dict() for tree in alone]
