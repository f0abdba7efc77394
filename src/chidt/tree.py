"""C4.5 decision-tree induction: gain-ratio splits, error-based pruning, prediction.

Trees are grown top-down over a float feature matrix (nominal slots hold
value indices), selecting the attribute with the highest gain ratio among
candidates whose information gain reaches the mean candidate gain. Pruning
is bottom-up subtree replacement driven by the normal-approximation upper
confidence bound on leaf error. All ties break toward the lowest index
(attribute, class, threshold) so induction is deterministic.

Growth is level-wise and table-driven: each tree level counts the classes
of all its open nodes, and of every branch of every nominal test at those
nodes, with one ``np.bincount`` each, and scores all candidates at once;
numeric thresholds are scored as arrays over cumulative class counts.
Every score goes through one entropy kernel, ``_entropy_rows``, that
keeps the summation order of the scalar ``entropy``: terms subtracted
class by class, branch terms accumulated branch by branch, an exact 0.0
for each empty class or branch, and rows with 8 or more nonzero classes
(where numpy's ``sum`` turns pairwise) handed to ``entropy`` itself. So
the trees are bit for bit those of the scalar, one-node-at-a-time
induction, which ``tests/oracle_c45.py`` keeps as the test oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from statistics import NormalDist
from typing import NamedTuple, Sequence

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


@dataclass
class TreeNode:
    """Tree node; a leaf when ``test`` is None.

    ``counts`` holds the training class distribution reaching the node.
    Branches that received no training instances become *virtual* leaves
    carrying their parent's distribution: they predict the parent majority
    but contribute nothing to pruning error sums.
    """

    counts: np.ndarray
    majority: int
    test: SplitTest | None = None
    children: list = field(default_factory=list)
    virtual: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.test is None

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children)


class NumericSplit(NamedTuple):
    threshold: float
    gain: float
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


def _entropy_rows(C: np.ndarray) -> np.ndarray:
    """``entropy`` of every row of a (rows, classes) count matrix, bit for bit; an all-zero row reads 0.0.

    ``entropy`` adds its nonzero terms with numpy's 1-D ``sum``, which adds
    fewer than 8 terms one after another from 0.0, so the terms are
    subtracted here in class order, an empty class adding an exact 0.0. With
    8 or more terms that ``sum`` switches to 8-lane pairwise summation, so a
    row with 8 or more nonzero counts goes through ``entropy`` itself.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = C / C.sum(axis=1, keepdims=True)
        terms = np.where(C > 0, p * np.log2(p), 0.0)
    h = np.zeros(len(C))
    for j in range(C.shape[1]):
        h -= terms[:, j]
    for i in np.flatnonzero(np.count_nonzero(C, axis=1) >= 8):
        h[i] = entropy(C[i])
    return h


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


def best_numeric_threshold(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    attr_index: int,
    min_leaf: int = 1,
    rows: np.ndarray | None = None,
) -> NumericSplit | None:
    """Best midpoint threshold for a numeric attribute, by information gain.

    Every midpoint between consecutive distinct sorted values is scored at
    once from cumulative class counts over the sorted rows; candidates
    leaving either side below ``min_leaf`` are skipped. Ties in gain go to
    the smallest threshold. Returns None when no candidate exists.
    """
    if rows is None:
        rows = np.arange(len(y))
    values = X[rows, attr_index]
    order = np.argsort(values, kind="stable")
    sv = values[order]
    n = len(rows)
    n_left = np.arange(1, n)
    with np.errstate(invalid="ignore", over="ignore"):
        mid = (sv[:-1] + sv[1:]) / 2.0
        # a midpoint strictly inside: distinct neighbours whose midpoint did not collapse onto either
        cut = np.flatnonzero((sv[:-1] < mid) & (mid < sv[1:]) & (n_left >= min_leaf) & (n - n_left >= min_leaf))
    if not cut.size:
        return None
    seen = np.zeros((n, n_classes))
    seen[np.arange(n), y[rows][order]] = 1.0
    left = np.cumsum(seen, axis=0)
    table = np.stack([left[cut], left[-1] - left[cut]], axis=1)
    gain, _, ratio, _ = _split_scores(_entropy_rows(left[-1:]), table)
    best = int(np.argmax(gain))
    return NumericSplit(threshold=float(mid[cut[best]]), gain=float(gain[best]), ratio=float(ratio[best]))


# cells of the nominal count table built at once; a tree level with more is counted in node chunks
_TABLE_CELLS = 1 << 18


def _candidates(X, y, k, codes, widths, rows, node, counts, min_leaf) -> tuple:
    """(gain, gain ratio, threshold, candidacy) of every attribute at every open node of a level, as
    (nodes, attributes) arrays. ``rows`` are the rows at the open nodes, grouped by ``node``.

    The class counts of every branch of every nominal test of a chunk of
    nodes come from one ``np.bincount`` over (node, attribute, value, class)
    and are scored at once; each numeric attribute goes through
    ``best_numeric_threshold`` once per node.
    """
    m, d = len(counts), len(widths)
    gain, ratio, threshold = np.zeros((m, d)), np.zeros((m, d)), np.full((m, d), np.nan)
    ok = np.zeros((m, d), dtype=bool)
    starts = np.searchsorted(node, np.arange(m + 1))
    nominal = np.flatnonzero(widths)
    if nominal.size:
        w = int(widths.max())
        per_node = nominal.size * w * k
        parent_h = _entropy_rows(counts)
        step = max(1, _TABLE_CELLS // per_node)
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            at = slice(starts[lo], starts[hi])
            r = rows[at]
            cells = (((node[at, None] - lo) * nominal.size + np.arange(nominal.size)) * w + codes[r]) * k + y[r, None]
            table = np.bincount(cells.ravel(), minlength=(hi - lo) * per_node).reshape(hi - lo, nominal.size, w, k)
            g, _, q, sizes = _split_scores(parent_h[lo:hi, None], table.astype(np.float64))
            gain[lo:hi, nominal], ratio[lo:hi, nominal] = g, q
            ok[lo:hi, nominal] = np.count_nonzero(sizes >= min_leaf, axis=-1) >= 2
    for a in np.flatnonzero(widths == 0).tolist():
        for i in range(m):
            found = best_numeric_threshold(X, y, k, a, min_leaf, rows[starts[i] : starts[i + 1]])
            if found is not None:
                threshold[i, a], gain[i, a], ratio[i, a] = found
                ok[i, a] = True
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


@dataclass
class C45Tree:
    """A grown (optionally pruned) tree plus the schema it was trained on."""

    root: TreeNode
    attributes: tuple
    class_names: tuple
    params: C45Params

    @property
    def n_nodes(self) -> int:
        return self.root.node_count()

    @cached_property
    def flat(self) -> "FlatTree":
        """The tree as flat arrays, compiled on first use."""
        return _compile(self)

    def to_dict(self, embed_schema: bool = True) -> dict:
        doc = {"root": _node_to_dict(self.root), "params": self.params.to_dict()}
        if embed_schema:
            doc["schema"] = schema_fingerprint(self.attributes, self.class_names)
        return doc

    @classmethod
    def from_dict(cls, doc, attributes=None, class_names=None) -> "C45Tree":
        """Read ``to_dict`` output; ``attributes`` and ``class_names`` stand in for an unembedded schema."""
        return _read_tree(doc, "tree", attributes, class_names)


def _read_tree(doc, where: str, attributes, class_names) -> C45Tree:
    f = Fields(doc, where, ("root", "params", "schema"), ("root",))
    stored = f.optional("schema", _read_schema)
    if attributes is None or class_names is None:
        if stored is None:
            raise ValidationError(f"{where} has no schema and none was supplied")
        attributes, class_names = stored
    elif stored is not None and schema_fingerprint(*stored) != schema_fingerprint(attributes, class_names):
        raise SchemaMismatchError("stored tree was built against a different schema")
    tests = tuple(None if a.is_numeric else SplitTest(i, None, len(a.values)) for i, a in enumerate(attributes))
    root = _read_node(doc["root"], f.path("root"), tuple(attributes), tests, len(class_names))
    return C45Tree(root, tuple(attributes), tuple(class_names), f.get("params", _read_params, C45Params()))


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


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        doc = {"kind": "leaf", "counts": [float(c) for c in node.counts], "majority": node.majority}
        if node.virtual:
            doc["virtual"] = True
        return doc
    test = {"attr": node.test.attr_index}
    if node.test.is_numeric:
        test["threshold"] = node.test.threshold
    else:
        test["branches"] = node.test.n_branches
    return {
        "kind": "split",
        "test": test,
        "counts": [float(c) for c in node.counts],
        "majority": node.majority,
        "children": [_node_to_dict(c) for c in node.children],
    }


_NODE_KEYS = {  # kind: (allowed keys, required keys)
    "leaf": (("kind", "counts", "majority", "virtual"), ("kind", "counts", "majority")),
    "split": (("kind", "counts", "majority", "test", "children"),) * 2,
}
_KEY_SETS = {kind: tuple(map(frozenset, keys)) for kind, keys in _NODE_KEYS.items()}


def _read_node(doc, where: str, attributes: tuple, tests: tuple, n_classes: int) -> TreeNode:
    """A node checked against the schema: class counts, majority class and, at a split, a test whose
    branches match its attribute and children (``tests``: each nominal attribute's one split test)."""
    kind = doc.get("kind") if type(doc) is dict else None
    if kind not in ("leaf", "split"):
        one_of(fields(doc, where).get("kind"), f"{where}.kind", _NODE_KEYS)
    if doc.keys() not in _KEY_SETS[kind]:  # a model has thousands of nodes: look closer only when needed
        fields(doc, where, *_NODE_KEYS[kind])
    counts = doc["counts"]
    valid = type(counts) is list and len(counts) == n_classes
    if not (valid and all(type(c) in (int, float) and 0 <= c <= MAX for c in counts) and sum(counts) > 0):
        fail(f"{where}.counts", f"{n_classes} finite non-negative counts with a positive sum", counts)
    majority = integer(doc["majority"], f"{where}.majority", n_classes)
    if majority != counts.index(max(counts)):
        fail(f"{where}.majority", f"{counts.index(max(counts))}, the first index of its largest count", majority)
    counts = np.array(counts, dtype=np.float64)
    if kind == "leaf":
        return TreeNode(counts, majority, virtual="virtual" in doc and flag(doc["virtual"], f"{where}.virtual"))
    t = fields(doc["test"], f"{where}.test", ("attr", "threshold", "branches"), ("attr",))
    index = integer(t["attr"], f"{where}.test.attr", len(attributes))
    attr, test = attributes[index], tests[index]
    if attr.is_numeric:
        if "branches" in t or "threshold" not in t:
            raise ValidationError(f"{where}.test: a split on numeric {attr.name!r} takes a threshold, no branches")
        test = SplitTest(index, threshold=number(t["threshold"], f"{where}.test.threshold"))
    elif "threshold" in t or type(t.get("branches")) is not int or t["branches"] != test.n_branches:
        raise ValidationError(f"{where}.test: a split on nominal {attr.name!r} takes {test.n_branches} branches")
    children = items(
        doc["children"], f"{where}.children", _read_node, attributes=attributes, tests=tests, n_classes=n_classes
    )
    if len(children) != test.n_branches:
        raise ValidationError(f"{where}.children has {len(children)} entries for {test.n_branches} branches")
    return TreeNode(counts, majority, test, children)


def grow(
    X: np.ndarray,
    y,
    attributes: Sequence[AttributeMeta],
    class_names: Sequence[str],
    params: C45Params | None = None,
) -> C45Tree:
    """Top-down C4.5 induction, one tree level at a time (no pruning; see prune_ebp / build_tree).

    Each level counts the classes at all its open nodes with one
    ``np.bincount`` and scores every candidate test of every open node at
    once (see ``_candidates``); the rows then move to their children.

    Args:
        X: (n, d) float matrix; nominal columns hold value indices.
        y: integer class per row, indices into class_names.
        attributes: schema describing the d columns.
        class_names: ordered class list.
        params: induction parameters (defaults used when None).

    Raises ValidationError, as prediction does, on a value no branch can
    take: a NaN numeric value or a nominal value that is not an index into
    its attribute's values.
    """
    params = params or C45Params()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != len(attributes):
        raise ValidationError("feature matrix shape does not match the attribute schema")
    if len(y) != X.shape[0]:
        raise ValidationError("feature matrix and class vector lengths differ")
    if len(y) == 0:
        raise ValidationError("cannot grow a tree from an empty view")
    k = len(class_names)
    if k < 1 or y.min() < 0 or y.max() >= k:
        raise ValidationError("class indices fall outside the class list")
    numeric = np.array([a.is_numeric for a in attributes], dtype=bool)
    widths = np.array([0 if a.is_numeric else len(a.values) for a in attributes], dtype=np.intp)
    bad = _unroutable(X, numeric, widths)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), X.shape[1])
        _refuse(X[i, j], numeric[j], attributes[j].name)
    codes = X[:, widths > 0].astype(np.intp)
    width = max(2, int(widths.max(initial=0)))  # branches of the widest test

    root = None
    rows = np.arange(len(y))  # the rows at the open nodes, grouped by node, ascending within one
    node = np.zeros(len(y), dtype=np.intp)  # the open node of each
    slots = [None]  # (parent, branch) each open node hangs from; None for the root
    depth = 0
    while slots:
        counts = np.bincount(node * k + y[rows], minlength=len(slots) * k).reshape(-1, k).astype(np.float64)
        level = [TreeNode(c, m) for c, m in zip(counts, np.argmax(counts, axis=1).tolist())]
        for slot, t in zip(slots, level):
            if slot is None:
                root = t
            else:
                slot[0].children[slot[1]] = t
        if params.max_depth is not None and depth >= params.max_depth:
            break
        impure = np.count_nonzero(counts, axis=1) > 1
        rows, node = _keep(rows, node, impure)
        gain, ratio, threshold, ok = _candidates(X, y, k, codes, widths, rows, node, counts[impure], params.min_leaf)
        split = ok.any(axis=1)
        if not split.any():
            break
        attr = _choose(gain, ratio, ok)
        thr = threshold[np.arange(len(attr)), attr][split]
        attr = attr[split]
        level = [level[i] for i in np.flatnonzero(impure)[split].tolist()]
        rows, node = _keep(rows, node, split)

        at = attr[node]
        values = X[rows, at]
        key = node * width + np.where(numeric[at], values > thr[node], values).astype(np.intp)
        reached = np.bincount(key, minlength=len(level) * width).reshape(-1, width) > 0
        node = (np.cumsum(reached) - 1)[key]
        order = np.argsort(node, kind="stable")
        rows, node = rows[order], node[order]
        slots = []
        for t, a, th, seen in zip(level, attr.tolist(), thr.tolist(), reached.tolist()):
            t.test = SplitTest(a, threshold=th) if numeric[a] else SplitTest(a, n_branches=int(widths[a]))
            branches = range(t.test.n_branches)
            t.children = [None if seen[j] else TreeNode(t.counts.copy(), t.majority, virtual=True) for j in branches]
            slots += [(t, j) for j in branches if seen[j]]
        depth += 1
    return C45Tree(root=root, attributes=tuple(attributes), class_names=tuple(class_names), params=params)


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


def _subtree_error(node: TreeNode, cf: float) -> float:
    if node.is_leaf:
        if node.virtual:
            return 0.0
        n = float(node.counts.sum())
        e = n - float(node.counts[node.majority])
        return pessimistic_errors(n, e, cf)
    return sum(_subtree_error(c, cf) for c in node.children)


def _prune_node(node: TreeNode, cf: float) -> TreeNode:
    if node.is_leaf:
        return node
    node = replace(node, children=[_prune_node(c, cf) for c in node.children])
    n = float(node.counts.sum())
    e = n - float(node.counts[node.majority])
    as_leaf = pessimistic_errors(n, e, cf)
    as_subtree = _subtree_error(node, cf)
    if as_leaf <= as_subtree:
        return TreeNode(counts=node.counts, majority=node.majority)
    return node


def prune_ebp(tree: C45Tree, params: C45Params | None = None) -> C45Tree:
    """Bottom-up subtree replacement using the pessimistic error bound.

    A subtree collapses to a majority leaf whenever the leaf's pessimistic
    error is no worse than the sum over the subtree's leaves, so node count
    never increases and ties favor the smaller tree.
    """
    params = params or tree.params
    root = _prune_node(tree.root, params.confidence_factor)
    return C45Tree(root=root, attributes=tree.attributes, class_names=tree.class_names, params=params)


def build_tree(
    X: np.ndarray,
    y,
    attributes: Sequence[AttributeMeta],
    class_names: Sequence[str],
    params: C45Params | None = None,
) -> C45Tree:
    """grow() followed by prune_ebp() when pruning is enabled."""
    params = params or C45Params()
    tree = grow(X, y, attributes, class_names, params)
    if params.pruning:
        tree = prune_ebp(tree, params)
    return tree


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


class FlatTree(NamedTuple):
    """A tree compiled to flat arrays, one entry per node in breadth-first
    order with the root at 0 (the layout of scikit-learn's ``tree_``)."""

    attr: np.ndarray        # tested attribute index, -1 at a leaf
    threshold: np.ndarray   # numeric threshold, NaN at nominal tests and leaves
    numeric: np.ndarray     # True where the test is numeric
    n_branches: np.ndarray  # branch count, 0 at a leaf
    children: np.ndarray    # (nodes, widest branching) child index, -1 past a node's branches
    value: np.ndarray       # (nodes, classes) class distribution normalized to sum 1


def _compile(tree: C45Tree) -> FlatTree:
    """Flatten ``tree.root``; split nodes whose attribute index or child count
    contradicts the schema or their own test are rejected here."""
    order = [tree.root]
    child_rows = []
    for node in order:  # grows while iterating: breadth-first
        if node.is_leaf:
            child_rows.append(())
            continue
        test = node.test
        if not 0 <= test.attr_index < len(tree.attributes):
            raise ValidationError(
                f"split on attribute {test.attr_index} outside the {len(tree.attributes)}-attribute schema"
            )
        if len(node.children) != test.n_branches:
            raise ValidationError(
                f"split on {tree.attributes[test.attr_index].name!r} declares {test.n_branches} "
                f"branches but has {len(node.children)} children"
            )
        child_rows.append(range(len(order), len(order) + len(node.children)))
        order.extend(node.children)
    children = np.full((len(order), max(1, max(len(c) for c in child_rows))), -1, dtype=np.intp)
    for i, row in enumerate(child_rows):
        children[i, : len(row)] = row
    flat = FlatTree(
        attr=np.array([-1 if n.is_leaf else n.test.attr_index for n in order], dtype=np.intp),
        threshold=np.array(
            [n.test.threshold if not n.is_leaf and n.test.is_numeric else np.nan for n in order], dtype=np.float64
        ),
        numeric=np.array([not n.is_leaf and n.test.is_numeric for n in order], dtype=bool),
        n_branches=np.array([0 if n.is_leaf else n.test.n_branches for n in order], dtype=np.intp),
        children=children,
        value=np.stack([n.counts / n.counts.sum() for n in order]),
    )
    for array in flat:
        array.setflags(write=False)
    return flat


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


def _branches(tree: C45Tree, flat: FlatTree, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Branch taken at nodes ``at`` by ``values``; fails closed on values no branch can take."""
    numeric = flat.numeric[at]
    bad = _unroutable(values, numeric, flat.n_branches[at])
    if bad.any():
        i = int(np.argmax(bad))
        _refuse(values[i], numeric[i], tree.attributes[flat.attr[at[i]]].name)
    return np.where(numeric, values > flat.threshold[at], values).astype(np.intp)


def leaf_distributions(tree: C45Tree, X) -> np.ndarray:
    """(n, classes) distributions of the leaves the rows of ``X`` reach.

    All rows move down one level at a time: each step gathers the tested
    value of every row still at a split node and indexes the child table.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(tree.attributes):
        raise ValidationError(
            f"feature matrix of shape {X.shape} does not match the {len(tree.attributes)}-attribute schema"
        )
    flat = tree.flat
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.arange(len(X)) if flat.attr[0] >= 0 else np.zeros(0, dtype=np.intp)
    while rows.size:
        at = node[rows]
        step = flat.children[at, _branches(tree, flat, at, X[rows, flat.attr[at]])]
        node[rows] = step
        rows = rows[flat.attr[step] >= 0]
    return flat.value[node]


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


def _leaf_suffix(tree: C45Tree, node: TreeNode) -> str:
    n = float(node.counts.sum())
    e = n - float(node.counts[node.majority])
    label = tree.class_names[node.majority]
    if node.virtual:
        return f": {label} (0)"
    if e > 0:
        return f": {label} ({_fmt_count(n)}/{_fmt_count(e)})"
    return f": {label} ({_fmt_count(n)})"


def render(tree: C45Tree) -> str:
    """Indented one-test-per-line rendering, leaves annotated with (n) or (n/errors)."""
    lines: list = []

    def branch_label(test: SplitTest, j: int) -> str:
        attr = tree.attributes[test.attr_index]
        if test.is_numeric:
            op = "<=" if j == 0 else ">"
            return f"{attr.name} {op} {test.threshold:g}"
        return f"{attr.name} = {attr.values[j]}"

    def walk(node: TreeNode, prefix: str) -> None:
        for j, child in enumerate(node.children):
            head = f"{prefix}{branch_label(node.test, j)}"
            if child.is_leaf:
                lines.append(head + _leaf_suffix(tree, child))
            else:
                lines.append(head)
                walk(child, prefix + "|   ")

    if tree.root.is_leaf:
        lines.append("root" + _leaf_suffix(tree, tree.root))
    else:
        walk(tree.root, "")
    return "\n".join(lines)
