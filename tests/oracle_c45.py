"""The scalar, recursive C4.5 induction and pruning that ``chidt.tree`` replaced, kept as test oracles.

One node at a time and one attribute at a time: every nominal candidate
splits the node's rows into branches and scores them with scalar
``entropy`` calls, and every numeric candidate walks the sorted rows in a
Python loop. ``oracle_grow(...)`` builds the nested node documents of
``C45Tree.to_dict`` directly and must equal the ``to_dict()`` of the tree
that ``grow_bank`` grows from the same class column, for every input, so
the table-driven induction is checked tree for tree.
``oracle_prune`` prunes such a document by recursive subtree replacement,
one ``pessimistic_errors`` call per node, and must equal the tree that
``grow_bank`` grows with pruning on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from chidt.data import AttributeMeta, NUMERIC
from chidt.errors import ValidationError
from chidt.tree import GAIN_EPS, C45Params


@dataclass(frozen=True)
class SplitTest:
    """Branch test at an internal node.

    Numeric attributes branch on (<= threshold, > threshold); nominal
    attributes hold one branch per declared value.
    """

    attr_index: int
    threshold: float | None = None
    n_branches: int = 2

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None


class NumericSplit(NamedTuple):
    threshold: float
    gain: float
    ratio: float


class GainStats(NamedTuple):
    gain: float
    split_info: float
    ratio: float


def entropy(weights) -> float:
    """Shannon entropy, in bits, of a nonnegative weight vector."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValidationError("class weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValidationError("entropy undefined for zero total weight")
    p = w[w > 0] / total
    return float(-(p * np.log2(p)).sum())


def class_counts(y: np.ndarray, n_classes: int, rows: np.ndarray | None = None) -> np.ndarray:
    sel = y if rows is None else y[rows]
    return np.bincount(sel, minlength=n_classes).astype(np.float64)


def split_rows(X: np.ndarray, test: SplitTest, rows: np.ndarray) -> list:
    """Row indices per branch of ``test`` (may contain empty branches)."""
    col = X[rows, test.attr_index]
    if test.is_numeric:
        return [rows[col <= test.threshold], rows[col > test.threshold]]
    v = col.astype(np.int64)
    return [rows[v == j] for j in range(test.n_branches)]


def gain_ratio(X, y, n_classes: int, test: SplitTest, rows=None) -> GainStats | None:
    if rows is None:
        rows = np.arange(len(y))
    parent = entropy(class_counts(y, n_classes, rows))
    branches = split_rows(X, test, rows)
    sizes = np.array([len(b) for b in branches], dtype=np.float64)
    if np.count_nonzero(sizes) < 2:
        return None
    total = sizes.sum()
    weighted = 0.0
    for branch, size in zip(branches, sizes):
        if size:
            weighted += (size / total) * entropy(class_counts(y, n_classes, branch))
    gain = parent - weighted
    split_info = entropy(sizes)
    return GainStats(gain=gain, split_info=split_info, ratio=gain / split_info)


def best_numeric_threshold(X, y, n_classes: int, attr_index: int, min_leaf: int = 1, rows=None) -> NumericSplit | None:
    if rows is None:
        rows = np.arange(len(y))
    values = X[rows, attr_index]
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y[rows][order]
    n = len(rows)

    parent_counts = np.bincount(sy, minlength=n_classes).astype(np.float64)
    parent_h = entropy(parent_counts)

    left = np.zeros(n_classes, dtype=np.float64)
    best: NumericSplit | None = None
    for i in range(n - 1):
        left[sy[i]] += 1.0
        if sv[i] == sv[i + 1]:
            continue
        n_left = i + 1
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        threshold = (sv[i] + sv[i + 1]) / 2.0
        if not sv[i] < threshold < sv[i + 1]:
            continue
        right = parent_counts - left
        weighted = (n_left / n) * entropy(left) + (n_right / n) * entropy(right)
        gain = parent_h - weighted
        split_info = entropy([n_left, n_right])
        cand = NumericSplit(threshold=float(threshold), gain=float(gain), ratio=float(gain / split_info))
        if best is None or cand.gain > best.gain:
            best = cand
    return best


class _Candidate(NamedTuple):
    attr_index: int
    test: SplitTest
    gain: float
    ratio: float


def _attr_candidate(X, y, n_classes, attributes, attr_index, rows, min_leaf) -> _Candidate | None:
    attr = attributes[attr_index]
    if attr.kind == NUMERIC:
        found = best_numeric_threshold(X, y, n_classes, attr_index, min_leaf, rows)
        if found is None:
            return None
        test = SplitTest(attr_index, threshold=found.threshold)
        return _Candidate(attr_index, test, found.gain, found.ratio)
    test = SplitTest(attr_index, n_branches=len(attr.values))
    sizes = [len(b) for b in split_rows(X, test, rows)]
    if sum(1 for s in sizes if s >= min_leaf) < 2:
        return None
    stats = gain_ratio(X, y, n_classes, test, rows)
    if stats is None:
        return None
    return _Candidate(attr_index, test, stats.gain, stats.ratio)


def _select_split(candidates: list, impure: bool) -> _Candidate | None:
    positive = [c for c in candidates if c.gain > GAIN_EPS]
    if positive:
        mean_gain = sum(c.gain for c in positive) / len(positive)
        eligible = [c for c in positive if c.gain >= mean_gain - GAIN_EPS]
        best = eligible[0]
        for c in eligible[1:]:
            if c.ratio > best.ratio:
                best = c
        return best
    if impure and candidates:
        return candidates[0]
    return None


def oracle_grow(
    X: np.ndarray,
    y,
    attributes: Sequence[AttributeMeta],
    class_names: Sequence[str],
    params: C45Params | None = None,
) -> dict:
    """The tree as the document ``C45Tree.to_dict`` writes."""
    params = params or C45Params()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    k = len(class_names)

    def leaf(counts: np.ndarray, majority: int, virtual: bool = False) -> dict:
        node = {"kind": "leaf", "counts": counts.tolist(), "majority": majority}
        if virtual:
            node["virtual"] = True
        return node

    def build(rows: np.ndarray, depth: int) -> dict:
        counts = class_counts(y, k, rows)
        majority = int(np.argmax(counts))
        impure = np.count_nonzero(counts) > 1
        if not impure or (params.max_depth is not None and depth >= params.max_depth):
            return leaf(counts, majority)
        results = [_attr_candidate(X, y, k, attributes, a, rows, params.min_leaf) for a in range(len(attributes))]
        chosen = _select_split([c for c in results if c is not None], impure)
        if chosen is None:
            return leaf(counts, majority)
        children = []
        for branch in split_rows(X, chosen.test, rows):
            if len(branch) == 0:
                children.append(leaf(counts, majority, virtual=True))
            else:
                children.append(build(branch, depth + 1))
        test = {"attr": chosen.test.attr_index}
        if chosen.test.is_numeric:
            test["threshold"] = chosen.test.threshold
        else:
            test["branches"] = chosen.test.n_branches
        return {"kind": "split", "test": test, "counts": counts.tolist(), "majority": majority, "children": children}

    root = build(np.arange(len(y)), 0)
    return {"root": root, "params": params.to_dict()}


def pessimistic_errors(n: float, e: float, cf: float) -> float:
    """N times the upper confidence bound on the training error rate.

    Uses the normal-approximation upper limit on f = E/N at confidence CF
    (z is the standard-normal upper-CF quantile, about 0.6745 at CF 0.25).
    """
    if n <= 0:
        return 0.0
    z = NormalDist().inv_cdf(1.0 - cf)
    f = e / n
    inner = f / n - (f * f) / n + (z * z) / (4 * n * n)
    u = (f + (z * z) / (2 * n) + z * math.sqrt(max(inner, 0.0))) / (1.0 + (z * z) / n)
    return n * u


def _subtree_error(node: dict, cf: float) -> float:
    if node["kind"] == "leaf":
        if node.get("virtual"):
            return 0.0
        counts = np.array(node["counts"])
        n = float(counts.sum())
        e = n - float(counts[node["majority"]])
        return pessimistic_errors(n, e, cf)
    return sum(_subtree_error(c, cf) for c in node["children"])


def _prune_node(node: dict, cf: float) -> dict:
    if node["kind"] == "leaf":
        return node
    node = {**node, "children": [_prune_node(c, cf) for c in node["children"]]}
    counts = np.array(node["counts"])
    n = float(counts.sum())
    e = n - float(counts[node["majority"]])
    as_leaf = pessimistic_errors(n, e, cf)
    as_subtree = _subtree_error(node, cf)
    if as_leaf <= as_subtree:
        return {"kind": "leaf", "counts": node["counts"], "majority": node["majority"]}
    return node


def oracle_prune(doc: dict) -> dict:
    """A ``to_dict`` document pruned bottom-up at its own confidence factor, one subtree at a time."""
    return {**doc, "root": _prune_node(doc["root"], doc["params"]["confidence_factor"])}
