"""Shared fixtures: the classic 14-instance weather corpus, random tree views and repo fixture paths."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from chidt.data import NOMINAL, NUMERIC, AttributeMeta, Dataset, _role_matrix, label_indicator
from chidt.ontology import REASONS
from chidt.tree import C45Tree, _entropy_rows, _read_tree, best_numeric_threshold

# a deeper, reproducible run of the property suites: pytest --hypothesis-profile=oracle-deep
settings.register_profile("oracle-deep", max_examples=1500, derandomize=True, deadline=None)

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Quinlan's play/don't-play corpus: one nominal, two numeric, one binary attribute
WEATHER_ROWS = [
    ("sunny", 85, 85, "FALSE", "no"),
    ("sunny", 80, 90, "TRUE", "no"),
    ("overcast", 83, 86, "FALSE", "yes"),
    ("rainy", 70, 96, "FALSE", "yes"),
    ("rainy", 68, 80, "FALSE", "yes"),
    ("rainy", 65, 70, "TRUE", "no"),
    ("overcast", 64, 65, "TRUE", "yes"),
    ("sunny", 72, 95, "FALSE", "no"),
    ("sunny", 69, 70, "FALSE", "yes"),
    ("rainy", 75, 80, "FALSE", "yes"),
    ("sunny", 75, 70, "TRUE", "yes"),
    ("overcast", 72, 90, "TRUE", "yes"),
    ("overcast", 81, 75, "FALSE", "yes"),
    ("rainy", 71, 91, "TRUE", "no"),
]

OUTLOOK_VALUES = ("overcast", "rainy", "sunny")
WINDY_VALUES = ("FALSE", "TRUE")
WEATHER_CLASSES = ("no", "yes")


@pytest.fixture(scope="session")
def weather():
    """(X, y, attributes, class_names) for the weather corpus."""
    attributes = (
        AttributeMeta("outlook", NOMINAL, values=OUTLOOK_VALUES),
        AttributeMeta("temperature", NUMERIC),
        AttributeMeta("humidity", NUMERIC),
        AttributeMeta("windy", NOMINAL, values=WINDY_VALUES),
    )
    X = np.array(
        [
            [OUTLOOK_VALUES.index(o), t, h, WINDY_VALUES.index(w)]
            for o, t, h, w, _ in WEATHER_ROWS
        ],
        dtype=np.float64,
    )
    y = np.array([WEATHER_CLASSES.index(c) for *_, c in WEATHER_ROWS], dtype=np.int64)
    return X, y, attributes, WEATHER_CLASSES


def binary_attrs(n: int):
    """n binary {0,1} nominal attributes named f0..f{n-1}."""
    return tuple(AttributeMeta(f"f{i}", NOMINAL, values=("0", "1")) for i in range(n))


def leaf_tree(counts, attributes, class_names) -> C45Tree:
    """A tree that is one leaf with the given class counts."""
    root = {"kind": "leaf", "counts": [float(c) for c in counts], "majority": int(np.argmax(counts))}
    return _read_tree({"root": root}, "tree", attributes, class_names)


def child_lists(tree: C45Tree) -> list:
    """Each node's children in branch order, found from their parents: the nodes after the root are the
    children of the nodes in order, ``n_branches[i]`` of them for node i."""
    children = [[] for _ in range(tree.n_nodes)]
    for child, parent in enumerate(np.repeat(np.arange(tree.n_nodes), tree.n_branches).tolist(), start=1):
        children[parent].append(child)
    return children


def batch_rows(model, X) -> tuple:
    """``model.predict_batch(X)`` read row by row: (each row's labels as a frozenset, the scores, each row's
    reason string, or None for a single stage)."""
    Y, scores, reasons = model.predict_batch(np.asarray(X, dtype=np.float64))
    labels = [frozenset(code for code, on in zip(model.codes, row) if on) for row in Y]
    return labels, scores, None if reasons is None else [REASONS[r] for r in reasons]


def make_dataset(feature_rows, labelsets, alphabet=None, roles=None):
    """Dataset over binary attributes from integer feature rows and label iterables; ``roles`` maps a row
    number to that row's ``{code: tag}``."""
    if alphabet is None:
        alphabet = sorted(set().union(*[set(ls) for ls in labelsets]) or set())
    X = np.array(feature_rows, dtype=np.int64)
    tags = _role_matrix([(roles or {}).get(i, {}) for i in range(len(X))], alphabet)
    ids = [f"r{i}" for i in range(len(X))]
    return Dataset(binary_attrs(X.shape[1]), tuple(alphabet), ids, X, label_indicator(labelsets, alphabet), tags)


def row_labels(ds: Dataset) -> list:
    """Each row's codes as a frozenset, read from ``ds.Y``."""
    codes = np.asarray(ds.label_alphabet, dtype=object)
    return [frozenset(codes[y]) for y in ds.Y]


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    """``got`` and ``want`` hold the same schema, alphabet, ids and columns."""
    for key in ("attributes", "label_alphabet", "ids"):
        assert getattr(got, key) == getattr(want, key), key
    for key in ("X", "Y", "roles"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key


def random_view(rng, n, n_attrs, k, numeric_share=0.5, widths=(2, 4)):
    """(X, y, attributes, class_names): n rows of n_attrs random attributes, numeric with probability
    ``numeric_share`` (20 distinct values, so ties are common) or nominal with ``randrange(*widths)``
    values, and k random classes."""
    attrs = []
    cols = []
    for i in range(n_attrs):
        if rng.random() < numeric_share:
            attrs.append(AttributeMeta(f"a{i}", NUMERIC))
            cols.append([rng.randrange(0, 10) + 0.5 * rng.randrange(0, 2) for _ in range(n)])
        else:
            width = rng.randrange(*widths)
            attrs.append(
                AttributeMeta(f"a{i}", NOMINAL, values=tuple(str(v) for v in range(width)))
            )
            cols.append([rng.randrange(width) for _ in range(n)])
    X = np.array(cols, dtype=np.float64).T
    y = np.array([rng.randrange(k) for _ in range(n)], dtype=np.int64)
    classes = tuple(f"c{j}" for j in range(k))
    return X, y, tuple(attrs), classes


def node_thresholds(values, y, node, k, min_leaf=1) -> list:
    """``best_numeric_threshold`` at the nodes 0 .. max(node) of the rows (``values``, ``y``, ``node``), as one
    (threshold, gain, gain ratio) tuple per node, or None at a node without a candidate."""
    y, node = np.asarray(y, dtype=np.int64), np.asarray(node, dtype=np.intp)
    counts = np.zeros((int(node.max()) + 1, k))
    np.add.at(counts, (node, y), 1.0)
    values = np.asarray(values, dtype=np.float64)
    rank = np.argsort(np.argsort(values))
    found = best_numeric_threshold(values, rank, y, node, counts, _entropy_rows(counts), min_leaf)
    return [None if math.isnan(t) else (t, g, q) for t, g, q in zip(*(a.tolist() for a in found))]
