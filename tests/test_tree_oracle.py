"""Table-driven C4.5 induction and flat-array pruning against the scalar, recursive code they replaced
(``oracle_c45``), tree for tree.

Every comparison is exact (``==``): the table kernel must reproduce the
scalar arithmetic bit for bit, or a near-tie between two candidates could
pick a different split and change a model. For a deeper run::

    python -m pytest tests/test_tree_oracle.py --hypothesis-profile=oracle-deep
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chidt.tree as tree_module
import oracle_c45
from chidt.tree import C45Params, _entropy_rows, best_numeric_threshold, entropy, grow, prune_ebp
from conftest import random_view
from oracle_c45 import SplitTest, oracle_grow, oracle_prune

views = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 300),
        "n_attrs": st.integers(1, 5),
        "k": st.integers(2, 12),
        "numeric_share": st.sampled_from([0.0, 0.5, 1.0]),
        "max_width": st.sampled_from([3, 10]),
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
        assert grow(X, y, attrs, classes, params).to_dict() == oracle_grow(X, y, attrs, classes, params)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(2, 12))
    def test_permuted_copies_tie_as_the_scalar_sums_do(self, seed, width, k):
        # copies of one column with permuted values have equal gains in exact arithmetic; which copy
        # wins depends on the order the branch terms are summed in, so it must be the scalar order
        rng = random.Random(seed)
        X, y, attrs, classes = random_view(rng, 200, 1, k, numeric_share=0.0, widths=(width, width + 1))
        perms = [list(range(width))] + [rng.sample(range(width), width) for _ in range(5)]
        X = np.column_stack([np.take(p, X[:, 0].astype(int)) for p in perms]).astype(np.float64)
        attrs = tuple(dataclasses.replace(attrs[0], name=f"a{i}", index=i) for i in range(len(perms)))
        params = C45Params(min_leaf=1, max_depth=2, pruning=False)
        assert grow(X, y, attrs, classes, params).to_dict() == oracle_grow(X, y, attrs, classes, params)

    def test_wide_views_reach_the_scalar_fallback(self, monkeypatch):
        # 12 classes and 10-value attributes: nodes and splits with 8 or more nonzero terms
        calls = []

        def counted(weights):
            calls.append(np.count_nonzero(weights))
            return entropy(weights)

        monkeypatch.setattr(tree_module, "entropy", counted)
        X, y, attrs, classes = view(seed=3, n=300, n_attrs=4, k=12, numeric_share=0.5, max_width=10)
        params = C45Params(min_leaf=1, pruning=False)
        assert grow(X, y, attrs, classes, params).to_dict() == oracle_grow(X, y, attrs, classes, params)
        assert calls and min(calls) >= 8

    def test_level_counted_one_node_at_a_time(self, monkeypatch):
        # a level whose count table would exceed the cell budget is counted in node chunks
        monkeypatch.setattr(tree_module, "_TABLE_CELLS", 1)
        for seed in range(5):
            X, y, attrs, classes = view(seed=seed, n=200, n_attrs=4, k=9, numeric_share=0.0, max_width=10)
            params = C45Params(min_leaf=1, pruning=False)
            assert grow(X, y, attrs, classes, params).to_dict() == oracle_grow(X, y, attrs, classes, params)

    def test_shipped_corpus_sized_views(self):
        # the shape of a diverse-br bank: 14 binary attributes, two classes, 2,000 rows
        rng = random.Random(2009)
        for min_leaf in (1, 2):
            X, y, attrs, classes = random_view(rng, 2000, 14, 2, numeric_share=0.0)
            params = C45Params(min_leaf=min_leaf, pruning=False)
            assert grow(X, y, attrs, classes, params).to_dict() == oracle_grow(X, y, attrs, classes, params)


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
        params = C45Params(min_leaf=min_leaf, max_depth=max_depth, confidence_factor=cf, pruning=False)
        grown = grow(X, y, attrs, classes, params)
        assert prune_ebp(grown).to_dict() == oracle_prune(oracle_grow(X, y, attrs, classes, params))
        assert grown.to_dict() == oracle_grow(X, y, attrs, classes, params)  # the input is left as it was


class TestEntropyKernel:
    @pytest.mark.parametrize("nonzero", range(1, 21))
    def test_rows_equal_scalar_entropy_exactly(self, nonzero):
        rng = np.random.default_rng(nonzero)
        width = nonzero + 4
        C = np.zeros((400, width))
        for i, scale in enumerate(np.repeat([1, 10, 1000, 10**6], 100)):
            cols = rng.choice(width, size=nonzero, replace=False)
            C[i, cols] = rng.integers(1, scale + 1, size=nonzero)
        h = _entropy_rows(C)
        assert all(h[i] == entropy(C[i]) for i in range(len(C)))

    @given(
        st.lists(
            st.lists(st.one_of(st.just(0), st.integers(1, 10**6)), min_size=24, max_size=24).filter(any),
            min_size=1,
            max_size=8,
        )
    )
    def test_any_rows_equal_scalar_entropy_exactly(self, rows):
        C = np.array(rows, dtype=np.float64)
        assert _entropy_rows(C).tolist() == [entropy(row) for row in C]

    def test_empty_row_reads_zero(self):
        assert _entropy_rows(np.array([[0.0, 0.0], [3.0, 1.0]]))[0] == 0.0


class TestThresholdMatchesOracle:
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 9)), min_size=1, max_size=60),
        st.integers(2, 10),
        st.data(),
    )
    def test_same_split_as_the_loop(self, pairs, k, data):
        X = np.array([[v / 2.0] for v, _ in pairs])
        y = np.array([c % k for _, c in pairs])
        min_leaf = data.draw(st.integers(1, len(pairs)))
        rows = np.arange(len(pairs))
        assert best_numeric_threshold(X, y, k, 0, min_leaf, rows) == oracle_c45.best_numeric_threshold(
            X, y, k, 0, min_leaf, rows
        )

    @pytest.mark.parametrize("min_leaf, expected", [(1, 2.5), (2, 2.5), (3, 3.5), (4, None)])
    def test_tied_gains_take_the_smallest_threshold(self, min_leaf, expected):
        # mirror image: the cuts at 2.5 and 4.5 give the same gain to the last bit
        X = np.arange(1.0, 7.0)[:, None]
        y = np.array([0, 0, 1, 1, 0, 0])
        found = best_numeric_threshold(X, y, 2, 0, min_leaf)
        assert found == oracle_c45.best_numeric_threshold(X, y, 2, 0, min_leaf)
        assert (found and found.threshold) == expected
        tied = oracle_c45.gain_ratio(X, y, 2, SplitTest(0, threshold=4.5))
        assert tied.gain == oracle_c45.gain_ratio(X, y, 2, SplitTest(0, threshold=2.5)).gain
