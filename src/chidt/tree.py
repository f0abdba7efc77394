"""C4.5 decision-tree induction: gain-ratio splits, error-based pruning, prediction.

Trees are grown top-down over a float feature matrix (nominal slots hold
value indices), selecting the attribute with the highest gain ratio among
candidates whose information gain reaches the mean candidate gain. Pruning
is bottom-up subtree replacement driven by the normal-approximation upper
confidence bound on leaf error. All ties break toward the lowest index
(attribute, class, threshold) so induction is deterministic.

Growth is level-wise and table-driven, and a bank of trees over one
feature matrix grows together: the open nodes of all its trees are
numbered as one level. Each tree has its own set of training rows of that
matrix (one tree per code and per k-fold training set, say), and a row may
train several trees. The class list is shared, so it may be a superset of
a tree's classes; a class that a tree lacks is a column of zero counts,
and it changes no score. Each bank level counts the classes of its open
nodes with one ``np.bincount``, and scores them in chunks of nodes of
bounded size: one more ``np.bincount`` per chunk counts every branch of
every nominal test, and each numeric attribute is searched once per
chunk. That search sorts the chunk's rows by (node, value) and scores
every midpoint of every node from one cumulative class count, less the
count before the node's first row; each node keeps its first best
midpoint. No choice looks across nodes, so a tree grown in a bank is the
tree grown alone from its rows and its own classes. Every score goes
through one entropy kernel, ``_entropy_rows``, that keeps the summation
order of the scalar formula, ``-(p * log2(p)).sum()`` over the nonzero
classes: with fewer than 8 nonzero classes the terms are subtracted class
by class, an empty class adding an exact 0.0; with 8 or more, where
numpy's ``sum`` turns pairwise, the compacted terms are added in numpy's
order of 8 lanes in blocks of at most 128 terms (``_pairwise_sum``).
Branch terms are accumulated branch by branch, an empty branch adding an
exact 0.0. Counts are integers held in floats, so they add exactly in any
grouping. So the trees are bit for bit those of the scalar,
one-node-at-a-time induction, which ``tests/oracle_c45.py`` keeps as the
test oracle.

A tree is one set of flat arrays in breadth-first order (``C45Tree``):
growth appends each level's nodes, pruning is one pass in reverse order,
prediction routes a bank's trees as one forest over their concatenated
child tables (``route_bank``), and writing, reading and rendering walk
the arrays or an explicit queue or stack. Nothing recurses, so any
depth that JSON can nest works. The oracle module also keeps the
recursive pruning that the reverse pass replaced.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .data import AttributeMeta, NOMINAL, NUMERIC
from .errors import SchemaMismatchError, ValidationError
from .jsondoc import MAX, Fields, fail, field_names, fields, flag, integer, items, number, one_of, strings, text

# gains at or below this are treated as zero when ranking candidates
GAIN_EPS = 1e-12


@dataclass(frozen=True)
class C45Params:
    """Induction parameters (defaults follow classic C4.5 conventions)."""

    min_leaf: int = 2
    confidence_factor: float = 0.25
    pruning: bool = True
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.min_leaf < 1:
            raise ValidationError("min_leaf must be at least 1")
        if not 0.0 < self.confidence_factor <= 0.5:
            raise ValidationError("confidence factor must lie in (0, 0.5]")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValidationError("max_depth cannot be negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _read_params(doc, where: str) -> C45Params:
    f = Fields(doc, where, field_names(C45Params))
    return C45Params(
        min_leaf=f.get("min_leaf", integer, 2),
        confidence_factor=f.get("confidence_factor", number, 0.25),
        pruning=f.get("pruning", flag, True),
        max_depth=f.optional("max_depth", integer),
    )


def entropy(weights) -> float:
    """Shannon entropy, in bits, of a nonnegative weight vector: the one-row view of ``_entropy_rows``."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError(f"class weights must be one vector, got {w.ndim} dimensions")
    if np.any(w < 0):
        raise ValidationError("class weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise ValidationError("class weights and their total must be finite")
    if total <= 0:
        raise ValidationError("entropy undefined for zero total weight")
    return float(_entropy_rows(w[None])[0])


def _entropy_rows(C: np.ndarray) -> np.ndarray:
    """Entropy, in bits, of every row of a (rows, classes) count matrix; an all-zero row reads 0.0.

    Each row is ``-sum(p * log2(p))`` over its nonzero classes, added in
    the order of numpy's 1-D float64 ``sum`` of those terms, so a row reads
    bit for bit what that ``sum`` gives. Fewer than 8 terms are added one
    after another from 0.0, so such rows subtract their terms class by
    class, an empty class adding an exact 0.0. Rows with 8 or more nonzero
    classes are grouped by that count, their terms compacted in class
    order, and summed by ``_pairwise_sum``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = C / C.sum(axis=1, keepdims=True)
        terms = np.log2(p)
        terms *= p
    del p
    nonzero = C > 0
    terms[~nonzero] = 0.0
    h = np.zeros(len(C))
    for j in range(C.shape[1]):
        h -= terms[:, j]
    m = np.count_nonzero(nonzero, axis=1)
    wide = np.flatnonzero(m >= 8)
    if wide.size:
        m = m[wide]
        # bincount, not unique: unique on an index array imports numpy.ma
        for width in np.flatnonzero(np.bincount(m)[8:]) + 8:
            rows = wide[m == width]
            h[rows] = -_pairwise_sum(terms[rows][nonzero[rows]].reshape(-1, width))
    return h


def _pairwise_sum(T: np.ndarray) -> np.ndarray:
    """The sum of each row of ``T`` (rows, at least 8 terms), in the order of numpy's float64 pairwise ``sum``.

    Up to 128 terms, 8 lanes start from the first 8 terms and each adds
    every 8th term after it; the lanes are added as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and the last
    ``n % 8`` terms one after another. A longer row is split after
    ``n // 2`` terms rounded down to a multiple of 8, and the sums of the
    two parts are added.
    """
    n = T.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(T[:, :half]) + _pairwise_sum(T[:, half:])
    r = T[:, :8].copy()
    for i in range(8, n - n % 8, 8):
        r += T[:, i : i + 8]
    s = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    for j in range(n - n % 8, n):
        s += T[:, j]
    return s


def _split_scores(parent_h, table: np.ndarray) -> tuple:
    """(gain, split information, gain ratio, branch sizes) of splits given as class-count tables.

    ``table`` is (..., branches, classes), the class counts in each branch of
    each split; ``parent_h`` is the entropy of the node each split divides.
    The weighted child entropy is accumulated branch by branch, an empty
    branch adding an exact 0.0, so every score is the float that the
    scalar per-branch formula gives.
    """
    sizes = table.sum(axis=-1)
    h = _entropy_rows(table.reshape(-1, table.shape[-1])).reshape(sizes.shape)
    split_info = _entropy_rows(sizes.reshape(-1, sizes.shape[-1])).reshape(sizes.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = sizes / sizes.sum(axis=-1, keepdims=True)
        weighted = np.zeros(sizes.shape[:-1])
        for j in range(sizes.shape[-1]):
            weighted += frac[..., j] * h[..., j]
        gain = parent_h - weighted
        return gain, split_info, gain / split_info, sizes


def best_numeric_threshold(values, y, node, counts: np.ndarray, parent_h: np.ndarray, min_leaf: int = 1) -> tuple:
    """(threshold, gain, gain ratio) arrays of the best midpoint threshold of one numeric attribute at every
    node, by information gain. Row i has attribute value ``values[i]``, class ``y[i]`` and node ``node[i]``;
    ``counts`` holds each node's class counts, (nodes, classes), and ``parent_h`` their entropies.

    The rows are sorted once by (node, value), as one integer key: node
    times the row count plus the row's rank by value. Rows of equal value
    may come in any order, since a midpoint lies only between distinct
    values. Every midpoint between consecutive distinct values of one node
    is scored at once, from one cumulative class count less the count
    before the node's first row; candidates leaving either side below
    ``min_leaf`` are skipped. Ties in gain go to the smallest threshold. A
    node with no candidate has a NaN threshold and zero gain and ratio.
    """
    n_nodes, k = counts.shape
    threshold, gain, ratio = np.full(n_nodes, np.nan), np.zeros(n_nodes), np.zeros(n_nodes)
    rank = np.empty(len(values), dtype=np.intp)
    rank[np.argsort(values)] = np.arange(len(values))
    order = np.argsort(node * len(values) + rank)  # distinct keys: the order is the one (node, value) order
    sv, sn = values[order], node[order]
    starts = np.searchsorted(sn, np.arange(n_nodes + 1))
    n_left = np.arange(1, len(sv)) - starts[sn[:-1]]  # rows of its node up to each row but the last
    n_right = np.diff(starts)[sn[:-1]] - n_left
    with np.errstate(invalid="ignore", over="ignore"):
        mid = (sv[:-1] + sv[1:]) / 2.0
        # a midpoint strictly inside one node: distinct neighbours whose midpoint did not collapse onto either
        inside = (sn[:-1] == sn[1:]) & (sv[:-1] < mid) & (mid < sv[1:])
    cut = np.flatnonzero(inside & (n_left >= min_leaf) & (n_right >= min_leaf))
    if not cut.size:
        return threshold, gain, ratio
    mid, at = mid[cut], sn[cut]
    del sv, n_left, n_right, inside
    counted = np.zeros((len(sn) + 1, k))
    counted[np.arange(1, len(sn) + 1), y[order]] = 1.0
    np.cumsum(counted, axis=0, out=counted)  # class counts of the sorted rows before each row; exact integers
    left = counted[cut + 1] - counted[starts[at]]
    del counted
    g, _, q, _ = _split_scores(parent_h[at], np.stack([left, counts[at] - left], axis=1))
    # each node's first candidate of its largest gain, so of the smallest threshold among equal gains
    first = np.flatnonzero(np.diff(at, prepend=-1))
    top = np.maximum.reduceat(g, first)
    best = np.flatnonzero(g == np.repeat(top, np.diff(first, append=len(at))))
    best = best[np.flatnonzero(np.diff(at[best], prepend=-1))]
    threshold[at[best]], gain[at[best]], ratio[at[best]] = mid[best], g[best], q[best]
    return threshold, gain, ratio


# cells of nominal count table and of row keys built at once; a bank level with more is scored in node chunks
_TABLE_CELLS = 1 << 16


def _candidates(X, keys, widths, y, rows, n, node, counts, parent_h, min_leaf) -> tuple:
    """(gain, gain ratio, threshold, candidacy) of every attribute at every open node of a bank level, as
    (nodes, attributes) arrays. ``rows`` are the bank rows at the open nodes, grouped by ``node``: bank row
    r is feature row ``r % n`` of class ``y[r]``; ``counts`` and ``parent_h`` hold each open node's class
    counts and entropy. ``keys`` holds each feature row's (nominal attribute, value) cells of one node's
    count table (see ``grow_bank``).

    The level is scored in chunks of consecutive nodes whose row keys and
    count tables hold at most ``_TABLE_CELLS`` cells, each row counting as
    one cell at least, so that a numeric-only schema is chunked too; a
    node that alone holds more is a chunk of its own. In each chunk, the
    class counts of every branch of every nominal test come from one
    ``np.bincount`` over (node, attribute, value, class) and are scored at
    once, and each numeric attribute goes through ``best_numeric_threshold``
    once for all the chunk's nodes. No score looks across nodes, so the
    chunking changes no result.
    """
    (m, k), d = counts.shape, len(widths)
    gain, ratio, threshold = np.zeros((m, d)), np.zeros((m, d)), np.full((m, d), np.nan)
    ok = np.zeros((m, d), dtype=bool)
    nominal, numeric = np.flatnonzero(widths), np.flatnonzero(widths == 0).tolist()
    w = int(widths.max(initial=0))
    per_node = nominal.size * w * k
    starts = np.searchsorted(node, np.arange(m + 1))
    # the cells of row keys and tables of the nodes before each node
    before = np.concatenate(([0], np.cumsum(np.diff(starts) * max(nominal.size, 1) + per_node)))
    lo = 0
    while lo < m:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + _TABLE_CELLS, "right")) - 1)
        at = rows[starts[lo] : starts[hi]]
        sample, cls, local = at % n, y[at], node[starts[lo] : starts[hi]] - lo
        if nominal.size:
            cells = keys[sample]
            cells += (local * per_node + cls)[:, None]
            table = np.bincount(cells.ravel(), minlength=(hi - lo) * per_node).reshape(hi - lo, nominal.size, w, k)
            del cells
            g, _, q, sizes = _split_scores(parent_h[lo:hi, None], table.astype(np.float64))
            gain[lo:hi, nominal], ratio[lo:hi, nominal] = g, q
            ok[lo:hi, nominal] = np.count_nonzero(sizes >= min_leaf, axis=-1) >= 2
        for a in numeric:
            found = best_numeric_threshold(X[sample, a], cls, local, counts[lo:hi], parent_h[lo:hi], min_leaf)
            threshold[lo:hi, a], gain[lo:hi, a], ratio[lo:hi, a] = found
            ok[lo:hi, a] = ~np.isnan(threshold[lo:hi, a])
        lo = hi
    return gain, ratio, threshold, ok


def _choose(gain: np.ndarray, ratio: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """C4.5 selection at every node: best gain ratio among candidates with at-least-mean gain.

    Positive-gain candidates are preferred. When an impure node has only
    zero-gain candidates left, the lowest-indexed one is taken as a last
    resort so that separable data is always separated. The mean gain is a
    left-to-right sum (``cumsum``), ratio ties go to the lowest attribute.
    """
    positive = ok & (gain > GAIN_EPS)
    n_positive = positive.sum(axis=1)
    mean = np.cumsum(np.where(positive, gain, 0.0), axis=1)[:, -1] / np.maximum(n_positive, 1)
    eligible = positive & (gain >= (mean - GAIN_EPS)[:, None])
    best = np.argmax(np.where(eligible, ratio, -np.inf), axis=1)
    return np.where(n_positive > 0, best, np.argmax(ok, axis=1))


def _keep(rows: np.ndarray, node: np.ndarray, chosen: np.ndarray) -> tuple:
    """The rows at the nodes where ``chosen`` holds, their nodes renumbered 0, 1, ... in order."""
    keep = chosen[node]
    return rows[keep], (np.cumsum(chosen) - 1)[node[keep]]


@dataclass(frozen=True, eq=False)
class C45Tree:
    """A grown (optionally pruned) tree plus the schema it was trained on.

    The tree is read-only flat arrays, one entry per node in breadth-first
    order with the root at 0 (the layout of scikit-learn's ``tree_``): a
    node's children are consecutive, in branch order, and come after the
    children of every node before it. A branch that no training row reached
    is a *virtual* leaf with its parent's counts: it predicts the parent
    majority but adds nothing to pruning error sums.
    """

    attr: np.ndarray  # tested attribute, -1 at a leaf
    threshold: np.ndarray  # numeric threshold, NaN at nominal tests and leaves
    children: np.ndarray  # (nodes, widest branching) child index, -1 past a node's branches
    counts: np.ndarray  # (nodes, classes) training class counts
    virtual: np.ndarray  # True at a virtual leaf
    attributes: tuple
    class_names: tuple
    params: C45Params

    def __post_init__(self) -> None:
        for array in (self.attr, self.threshold, self.children, self.counts, self.virtual):
            array.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.attr)

    @property
    def majority(self) -> np.ndarray:
        """Each node's majority class: the first index of its largest count."""
        return np.argmax(self.counts, axis=1)

    @property
    def n_branches(self) -> np.ndarray:
        """Each node's branch count, 0 at a leaf."""
        return np.count_nonzero(self.children >= 0, axis=1)

    def to_dict(self, embed_schema: bool = True) -> dict:
        """The tree as nested node documents, built children first, so that no depth recurses."""
        attr, threshold, children = self.attr.tolist(), self.threshold.tolist(), self.children.tolist()
        counts, majority, virtual = self.counts.tolist(), self.majority.tolist(), self.virtual.tolist()
        nodes = [None] * self.n_nodes
        for i in reversed(range(self.n_nodes)):
            if attr[i] < 0:
                nodes[i] = {"kind": "leaf", "counts": counts[i], "majority": majority[i]}
                if virtual[i]:
                    nodes[i]["virtual"] = True
                continue
            branches = [nodes[c] for c in children[i] if c >= 0]
            test = {"attr": attr[i]}
            if math.isnan(threshold[i]):
                test["branches"] = len(branches)
            else:
                test["threshold"] = threshold[i]
            nodes[i] = {"kind": "split", "test": test, "counts": counts[i], "majority": majority[i]}
            nodes[i]["children"] = branches
        doc = {"root": nodes[0], "params": self.params.to_dict()}
        if embed_schema:
            doc["schema"] = schema_fingerprint(self.attributes, self.class_names)
        return doc

    @classmethod
    def from_dict(cls, doc, attributes=None, class_names=None) -> "C45Tree":
        """Read ``to_dict`` output; ``attributes`` and ``class_names`` stand in for an unembedded schema."""
        return _read_tree(doc, "tree", attributes, class_names)


def _tree(attr, threshold, n_branches, counts, virtual, attributes, class_names, params) -> C45Tree:
    """A tree from its per-node values in breadth-first order; the child table follows from the branch counts."""
    n_branches = np.asarray(n_branches, dtype=np.intp)
    first = np.cumsum(n_branches) - n_branches + 1
    j = np.arange(max(1, int(n_branches.max())))
    return C45Tree(
        attr=np.asarray(attr, dtype=np.intp),
        threshold=np.asarray(threshold, dtype=np.float64),
        children=np.where(j < n_branches[:, None], first[:, None] + j, -1),
        counts=np.asarray(counts, dtype=np.float64).reshape(len(n_branches), len(class_names)),
        virtual=np.asarray(virtual, dtype=bool),
        attributes=tuple(attributes),
        class_names=tuple(class_names),
        params=params,
    )


def _read_tree(doc, where: str, attributes, class_names) -> C45Tree:
    f = Fields(doc, where, ("root", "params", "schema"), ("root",))
    stored = f.optional("schema", _read_schema)
    if attributes is None or class_names is None:
        if stored is None:
            raise ValidationError(f"{where} has no schema and none was supplied")
        attributes, class_names = stored
    elif stored is not None and schema_fingerprint(*stored) != schema_fingerprint(attributes, class_names):
        raise SchemaMismatchError("stored tree was built against a different schema")
    nodes = _read_nodes(doc["root"], f.path("root"), tuple(attributes), len(class_names))
    return _tree(*nodes, attributes, class_names, f.get("params", _read_params, C45Params()))


def schema_fingerprint(attributes: Sequence[AttributeMeta], class_names: Sequence[str]) -> dict:
    return {
        "attributes": [
            {"name": a.name, "kind": a.kind, "values": list(a.values) if a.values else None}
            for a in attributes
        ],
        "classes": list(class_names),
    }


def _read_schema(doc, where: str) -> tuple:
    """(attributes, class names) of a schema fingerprint."""
    f = Fields(doc, where, ("attributes", "classes"), ("attributes", "classes"))
    entries = f.get("attributes", items, entry=Fields, keys=("name", "kind", "values"), required=("name", "kind"))
    kinds = (NUMERIC, NOMINAL)
    attributes = tuple(
        AttributeMeta(a.get("name", text), a.get("kind", one_of, choices=kinds), a.optional("values", strings), i)
        for i, a in enumerate(entries)
    )
    classes = f.get("classes", strings)
    if len(set(classes)) < len(classes):
        repeated = next(c for c in classes if classes.count(c) > 1)
        raise ValidationError(f"{f.path('classes')} repeats the class {repeated!r}")
    return attributes, classes


_NODE_KEYS = {  # kind: (allowed keys, required keys)
    "leaf": (("kind", "counts", "majority", "virtual"), ("kind", "counts", "majority")),
    "split": (("kind", "counts", "majority", "test", "children"),) * 2,
}
_KEY_SETS = {kind: tuple(map(frozenset, keys)) for kind, keys in _NODE_KEYS.items()}
_TEST_KEYS = frozenset(("attr", "threshold", "branches"))


def _read_nodes(root, where: str, attributes: tuple, n_classes: int) -> tuple:
    """(attribute, threshold, branch count, class counts, virtual flag) of each node of the node document
    ``root``, breadth-first. Each node is checked against the schema: class counts, majority class and, at
    a split, a test whose branches match its attribute and children. A model has thousands of nodes, so
    the checked getters, and the node's field path they name, are reached only when a check fails."""
    widths = [None if a.is_numeric else len(a.values) for a in attributes]
    docs, parents, branches = [root], [0], [0]
    nodes = []

    def path() -> str:
        """The field path of node ``i``: ``where``, then ``.children[j]`` for each branch down to it."""
        steps, j = [], i
        while j:
            steps.append(f".children[{branches[j]}]")
            j = parents[j]
        return where + "".join(reversed(steps))

    for i, doc in enumerate(docs):  # docs grows while iterating: breadth-first
        kind = doc.get("kind") if type(doc) is dict else None
        if kind not in ("leaf", "split"):
            one_of(fields(doc, path()).get("kind"), f"{path()}.kind", _NODE_KEYS)
        if doc.keys() not in _KEY_SETS[kind]:
            fields(doc, path(), *_NODE_KEYS[kind])
        c = doc["counts"]
        valid = type(c) is list and len(c) == n_classes
        if not (valid and all(type(v) in (int, float) and 0 <= v <= MAX for v in c) and sum(c) > 0):
            expected = f"{n_classes} finite non-negative counts with a positive sum"
            fail(f"{path()}.counts", expected, c)
        m = doc["majority"]
        if type(m) is not int or not 0 <= m < n_classes:
            integer(m, f"{path()}.majority", n_classes)
        if m != c.index(max(c)):
            expected = f"{c.index(max(c))}, the first index of its largest count"
            fail(f"{path()}.majority", expected, m)
        if kind == "leaf":
            if type(doc.get("virtual", False)) is not bool:
                flag(doc["virtual"], f"{path()}.virtual")
            nodes.append((-1, math.nan, 0, c, doc.get("virtual", False)))
            continue
        t = doc["test"]
        if type(t) is not dict or t.keys() - _TEST_KEYS or "attr" not in t:
            fields(t, f"{path()}.test", _TEST_KEYS, ("attr",))
        a = t["attr"]
        if type(a) is not int or not 0 <= a < len(attributes):
            integer(a, f"{path()}.test.attr", len(attributes))
        width, name = widths[a], attributes[a].name
        if width is None:
            if "branches" in t or "threshold" not in t:
                raise ValidationError(f"{path()}.test: a split on numeric {name!r} takes a threshold, no branches")
            th = t["threshold"]
            if type(th) not in (int, float) or not -MAX <= th <= MAX:
                number(th, f"{path()}.test.threshold")
            width, th = 2, float(th)
        elif "threshold" in t or type(t.get("branches")) is not int or t["branches"] != width:
            raise ValidationError(f"{path()}.test: a split on nominal {name!r} takes {width} branches")
        else:
            th = math.nan
        kids = doc["children"]
        if type(kids) is not list:
            fail(f"{path()}.children", "a list", kids)
        if len(kids) != width:
            raise ValidationError(f"{path()}.children has {len(kids)} entries for {width} branches")
        docs += kids
        parents += [i] * width
        branches += range(width)
        nodes.append((a, th, width, c, False))
    return tuple(zip(*nodes))


def grow_bank(
    X: np.ndarray,
    Y,
    attributes: Sequence[AttributeMeta],
    class_names: Sequence[str],
    params: C45Params | None = None,
    training=None,
) -> list:
    """Top-down C4.5 induction of one tree per column of ``Y``, one level of the whole bank at a time (no
    pruning; see prune_ebp).

    Each tree has its own set of training rows, all from the one shared
    ``X``: row r of the bank is the pair (tree ``r // n``, feature row
    ``r % n``) with class ``Y[r % n, r // n]``, and it exists iff feature
    row ``r % n`` trains tree ``r // n``. So ``X`` is not copied per tree,
    and a row may train any number of trees. The open nodes of all the
    trees are numbered together. Each level counts the classes at all its
    open nodes with one ``np.bincount`` and scores every candidate test of
    every open node at once (see ``_candidates``); the rows then move to
    their children. A level's nodes, virtual leaves included, are appended
    in (parent, branch) order, so each tree's own nodes, taken in that
    order, are in breadth-first order. No choice looks across trees, so
    each tree is the one its column would grow alone from its rows.

    The class list may be a superset of a tree's classes. A class that
    none of a tree's rows has is a column of zeros in each of its nodes'
    counts, and it changes no score: the entropy kernel adds an exact 0.0
    for it, and cumulative counts add it as an exact 0. So taking the
    counts of the classes the tree has (``counts[:, present]``) gives the
    tree grown over that class list alone, node for node.

    Args:
        X: (n, d) float matrix; nominal columns hold value indices.
        Y: (n, trees) integer classes, indices into class_names.
        attributes: schema describing the d columns.
        class_names: ordered class list, shared by the trees.
        params: induction parameters (defaults used when None).
        training: (n, trees) bool, set where feature row i trains tree t;
            every row trains every tree when None.

    Returns the trees in column order. Raises ValidationError, as
    prediction does, on a value of ``X`` that no branch can take: a NaN
    numeric value or a nominal value that is not an index into its
    attribute's values.
    """
    params = params or C45Params()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != len(attributes):
        raise ValidationError("feature matrix shape does not match the attribute schema")
    if Y.ndim != 2 or len(Y) != X.shape[0]:
        raise ValidationError("feature matrix and class vector lengths differ")
    training = np.ones(Y.shape, dtype=bool) if training is None else np.asarray(training, dtype=bool)
    if training.shape != Y.shape:
        raise ValidationError(f"training rows of shape {training.shape} do not match the classes' {Y.shape}")
    n, n_trees = Y.shape
    if n == 0 or not training.any(axis=0).all():
        raise ValidationError("cannot grow a tree from an empty view")
    k = len(class_names)
    if k < 1 or Y.min(initial=0) < 0 or Y.max(initial=0) >= k:
        raise ValidationError("class indices fall outside the class list")
    if not n_trees:
        return []
    numeric, widths = _schema_kinds(attributes)
    bad = _unroutable(X, numeric, widths)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), X.shape[1])
        _refuse(X[i, j], numeric[j], attributes[j].name)
    width = max(2, int(widths.max(initial=0)))  # branches of the widest test
    nominal = widths > 0
    # each row's (nominal attribute, value) cell of a node's (attribute, value, class) count table
    keys = (X[:, nominal].astype(np.intp) + np.arange(np.count_nonzero(nominal)) * widths.max(initial=0)) * k
    y = Y.T.ravel()  # the class of bank row r

    levels = []  # (tree, attribute, threshold, branch count, class counts, virtual) of each level's nodes
    rows = np.flatnonzero(training.T)  # the bank rows at the level's reached nodes, grouped by node, ascending in one
    node = rows // n  # the reached node of each, numbered among the reached nodes
    reached = np.ones(n_trees, dtype=bool)  # the level's nodes that rows reach; the others are virtual
    owner = np.arange(n_trees)  # the tree of each of the level's nodes
    counts = np.zeros((n_trees, k))  # the level's class counts: a virtual node keeps its parent's
    depth = 0
    while True:
        counts[reached] = np.bincount(node * k + y[rows], minlength=np.count_nonzero(reached) * k).reshape(-1, k)
        attr, thr, n_branches = np.full(len(reached), -1), np.full(len(reached), np.nan), np.zeros(len(reached), int)
        levels.append((owner, attr, thr, n_branches, counts, ~reached))  # the splits below fill in attr, thr, nb
        if params.max_depth is not None and depth >= params.max_depth:
            break
        impure = np.count_nonzero(counts[reached], axis=1) > 1
        rows, node = _keep(rows, node, impure)
        at = np.flatnonzero(reached)[impure]
        h = _entropy_rows(counts[at])  # the open nodes' entropies, once for the nominal and the numeric scores
        gain, ratio, threshold, ok = _candidates(X, keys, widths, y, rows, n, node, counts[at], h, params.min_leaf)
        split = ok.any(axis=1)
        if not split.any():
            break
        chosen = _choose(gain, ratio, ok)
        at, a, t = at[split], chosen[split], threshold[np.arange(len(chosen)), chosen][split]
        nb = np.where(numeric[a], 2, widths[a])
        attr[at], thr[at], n_branches[at] = a, t, nb
        rows, node = _keep(rows, node, split)

        values = X[rows % n, a[node]]
        key = node * width + np.where(numeric[a[node]], values > t[node], values).astype(np.intp)
        seen = np.bincount(key, minlength=len(at) * width).reshape(-1, width) > 0
        node = (np.cumsum(seen) - 1)[key]
        order = np.argsort(node, kind="stable")
        rows, node = rows[order], node[order]
        reached = seen[np.arange(width) < nb[:, None]]
        owner = np.repeat(owner[at], nb)
        counts = np.repeat(counts[at], nb, axis=0)
        depth += 1
    owner, *columns = (np.concatenate(column) for column in zip(*levels))
    by_tree = np.argsort(owner, kind="stable")  # each tree's nodes, in level order
    ends = np.cumsum(np.bincount(owner, minlength=n_trees))[:-1]
    return [
        _tree(*node_columns, attributes, class_names, params)
        for node_columns in zip(*(np.split(column[by_tree], ends) for column in columns))
    ]


def grow(
    X: np.ndarray,
    y,
    attributes: Sequence[AttributeMeta],
    class_names: Sequence[str],
    params: C45Params | None = None,
) -> C45Tree:
    """One tree grown from the integer classes ``y``: the one-tree bank of ``grow_bank``."""
    return grow_bank(X, np.asarray(y)[:, None], attributes, class_names, params)[0]


# ---------------------------------------------------------------------------
# Error-based pruning
# ---------------------------------------------------------------------------


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


def prune_ebp(tree: C45Tree, params: C45Params | None = None) -> C45Tree:
    """Bottom-up subtree replacement using the pessimistic error bound; ``tree`` itself is unchanged.

    A subtree collapses to a majority leaf whenever the leaf's pessimistic
    error is no worse than the sum over the subtree's leaves, so node count
    never increases and ties favor the smaller tree. One pass in reverse
    breadth-first order sees every node's children before the node; a
    subtree's error is summed over its children in branch order. The nodes
    below a collapsed one are then dropped, the rest keeping their order.
    """
    params = params or tree.params
    n = tree.counts.sum(axis=1)
    n, e, virtual = n.tolist(), (n - tree.counts.max(axis=1)).tolist(), tree.virtual.tolist()
    attr, children = tree.attr.tolist(), tree.children.tolist()
    error = [0.0] * tree.n_nodes  # of each subtree, as pruned
    for i in reversed(range(tree.n_nodes)):
        error[i] = 0.0 if virtual[i] else pessimistic_errors(n[i], e[i], params.confidence_factor)
        if attr[i] >= 0:
            as_subtree = sum(error[c] for c in children[i] if c >= 0)
            if error[i] <= as_subtree:
                attr[i] = -1
            else:
                error[i] = as_subtree
    attr = np.array(attr, dtype=np.intp)
    dropped = np.zeros(tree.n_nodes, dtype=bool)
    below = tree.children[attr != tree.attr]
    while below.size:  # one level down at a time
        below = below[below >= 0]
        dropped[below] = True
        below = tree.children[below]
    keep, split = ~dropped, attr >= 0
    return _tree(
        attr[keep],
        np.where(split, tree.threshold, np.nan)[keep],
        np.where(split, tree.n_branches, 0)[keep],
        tree.counts[keep],
        tree.virtual[keep],
        tree.attributes,
        tree.class_names,
        params,
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _unroutable(values: np.ndarray, numeric, n_branches) -> np.ndarray:
    """Where no branch can take a value: NaN at a numeric test; a non-finite,
    non-integral or out-of-range value index at a nominal one (arguments broadcast)."""
    index = np.where(numeric, 0.0, values)
    return np.where(
        numeric,
        np.isnan(values),
        ~((index >= 0) & (index < n_branches) & (index == np.floor(index))),
    )


def _refuse(value: float, numeric: bool, name: str):
    if numeric:
        raise ValidationError(f"NaN in numeric {name!r}")
    if not np.isfinite(value) or value != np.floor(value):
        raise ValidationError(f"value {value:g} of nominal {name!r} is not a value index")
    raise ValidationError(f"value index {value:g} outside the domain of {name!r}")


def _schema_kinds(attributes: Sequence[AttributeMeta]) -> tuple:
    """(numeric flag, value count, 0 at a numeric attribute) arrays of a schema's attributes."""
    numeric = np.array([a.is_numeric for a in attributes], dtype=bool)
    widths = np.array([0 if a.is_numeric else len(a.values) for a in attributes], dtype=np.intp)
    return numeric, widths


def route_bank(trees: Sequence[C45Tree], X) -> np.ndarray:
    """(trees, n) array: the leaf that each row of ``X`` reaches in each of ``trees``, which share one
    schema, as a node index of that tree.

    The trees are routed as one forest: their node arrays are concatenated,
    with each tree's child indices offset by the nodes before it, and every
    (tree, row) pair moves down one level at a time.
    Each step gathers the tested value of every pair still at a split
    node, from a column-major copy of the rows, and indexes the child
    table; the pairs that reached a leaf drop out. Rows go in blocks whose
    pairs and column copy hold at most ``_TABLE_CELLS`` cells together, one
    per pair and one per value, so the arrays of a step stay small. The
    forest is built anew on each call from the trees.

    A value that no branch can take (see ``_unroutable``) is refused where
    a reached test reads it; a value that no reached test reads is never
    looked at. The refusal is the one that routing tree by tree, each tree
    a level at a time over all rows, would meet first: that of the first
    tree, then the shallowest level, then the first row.
    """
    X = np.asarray(X, dtype=np.float64)
    if not trees:
        return np.zeros((0, len(X)), dtype=np.intp)
    attributes = trees[0].attributes
    if X.ndim != 2 or X.shape[1] != len(attributes):
        raise ValidationError(
            f"feature matrix of shape {X.shape} does not match the {len(attributes)}-attribute schema"
        )
    sizes = [tree.n_nodes for tree in trees]
    offsets = np.cumsum([0] + sizes[:-1])
    width = max(tree.children.shape[1] for tree in trees)
    children = np.full((sum(sizes), width), -1, dtype=np.intp)
    for tree, offset in zip(trees, offsets.tolist()):
        local = tree.children
        children[offset : offset + tree.n_nodes, : local.shape[1]] = np.where(local >= 0, local + offset, -1)
    children = children.ravel()
    attr = np.concatenate([tree.attr for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    numeric = ~np.isnan(threshold)
    is_numeric, widths = _schema_kinds(attributes)
    owner = np.repeat(np.arange(len(trees)), sizes)  # the tree of each node
    refusal = None  # (tree, level, row, attribute) of the first refusal met so far

    n, n_trees = len(X), len(trees)
    leaves = np.empty((n_trees, n), dtype=np.intp)
    step = max(1, _TABLE_CELLS // (n_trees + len(attributes)))  # rows whose pairs and column copy fit the cells
    for lo in range(0, n, step):
        b = min(step, n - lo)
        columns = X[lo : lo + b].T.ravel()  # column-major: value (row r, attribute a) at a * b + r
        bad = _unroutable(columns.reshape(-1, b), is_numeric[:, None], widths[:, None]).ravel()
        bad = bad if bad.any() else None
        # pair p is (tree p // b, row p % b): at a split node of its tree, it reads cell p + shift of ``columns``
        shift = (attr - owner) * b
        node = np.repeat(offsets, b)
        pair = np.flatnonzero(attr[node] >= 0)  # the pairs at a split node, with their nodes
        at = node[pair]
        level = 0
        while pair.size:
            cell = shift[at] + pair
            hit = None if bad is None else bad[cell]
            if hit is not None and hit.any():  # refuse the first, route the others on
                i = int(np.argmax(hit))
                first = (int(pair[i]) // b, level, lo + int(pair[i]) % b, int(attr[at[i]]))
                refusal = first if refusal is None else min(refusal, first)
                pair, at, cell = pair[~hit], at[~hit], cell[~hit]
            values = columns[cell]
            at = children[at * width + np.where(numeric[at], values > threshold[at], values).astype(np.intp)]
            node[pair] = at
            split = np.flatnonzero(attr[at] >= 0)
            pair, at = pair[split], at[split]
            level += 1
        leaves[:, lo : lo + b] = node.reshape(n_trees, b) - offsets[:, None]
    if refusal is not None:
        _, _, row, a = refusal
        _refuse(X[row, a], attributes[a].is_numeric, attributes[a].name)
    return leaves


def leaf_distributions(tree: C45Tree, X) -> np.ndarray:
    """(n, classes) distributions of the leaves the rows of ``X`` reach, each count row normalized to sum 1:
    the one-tree view of ``route_bank``."""
    return (tree.counts / tree.counts.sum(axis=1, keepdims=True))[route_bank([tree], X)[0]]


def predict_distribution(tree: C45Tree, x) -> np.ndarray:
    """Class distribution at the leaf reached by ``x``, normalized to sum 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != len(tree.attributes):
        raise ValidationError(
            f"feature vector has {x.size} slots, schema defines {len(tree.attributes)}"
        )
    return leaf_distributions(tree, x[None, :])[0]


def predict(tree: C45Tree, x) -> int:
    """Majority class index at the leaf reached by ``x`` (lowest index on ties)."""
    return int(np.argmax(predict_distribution(tree, x)))


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt_count(v: float) -> str:
    return f"{v:g}"


def _leaf_suffix(tree: C45Tree, i: int) -> str:
    counts = tree.counts[i]
    majority = int(np.argmax(counts))
    n = float(counts.sum())
    e = n - float(counts[majority])
    label = tree.class_names[majority]
    if tree.virtual[i]:
        return f": {label} (0)"
    if e > 0:
        return f": {label} ({_fmt_count(n)}/{_fmt_count(e)})"
    return f": {label} ({_fmt_count(n)})"


def _branch_label(tree: C45Tree, i: int, j: int) -> str:
    attr = tree.attributes[tree.attr[i]]
    threshold = float(tree.threshold[i])
    if not math.isnan(threshold):
        op = "<=" if j == 0 else ">"
        return f"{attr.name} {op} {threshold:g}"
    return f"{attr.name} = {attr.values[j]}"


def render(tree: C45Tree) -> str:
    """Indented one-test-per-line rendering, leaves annotated with (n) or (n/errors)."""
    if tree.attr[0] < 0:
        return "root" + _leaf_suffix(tree, 0)
    n_branches = tree.n_branches.tolist()
    lines = []
    stack = [(0, j, "") for j in reversed(range(n_branches[0]))]  # (node, branch, indent) lines still to write
    while stack:  # depth first, branches in order
        i, j, prefix = stack.pop()
        child = int(tree.children[i, j])
        head = prefix + _branch_label(tree, i, j)
        if tree.attr[child] < 0:
            lines.append(head + _leaf_suffix(tree, child))
        else:
            lines.append(head)
            stack += [(child, b, prefix + "|   ") for b in reversed(range(n_branches[child]))]
    return "\n".join(lines)
