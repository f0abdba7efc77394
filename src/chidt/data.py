"""Clinical-coding dataset model: attribute schema, records, loaders, splits, synthesis.

The on-disk format is a small CSV dialect: one label column holding
separator-joined code lists, with optional ``code:ROLE`` suffixes for
PDx/SDx/PROC markers. Datasets are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .jsondoc import Fields, integer, items, number, strings

NUMERIC = "numeric"
NOMINAL = "nominal"

ROLE_TAGS = ("PDx", "SDx", "PROC")

BINARY_DOMAIN = ("0", "1")


@dataclass(frozen=True)
class AttributeMeta:
    """Schema entry for one feature column.

    ``values`` is the ordered nominal domain (None for numeric columns);
    record feature slots hold indices into it.
    """

    name: str
    kind: str
    values: tuple[str, ...] | None = None
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValidationError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        if self.kind == NOMINAL:
            if not self.values:
                raise ValidationError(f"nominal attribute {self.name!r} needs a non-empty value list")
            object.__setattr__(self, "values", tuple(str(v) for v in self.values))
            if len(set(self.values)) != len(self.values):
                raise ValidationError(f"nominal attribute {self.name!r} has duplicate values")
        elif self.values is not None:
            raise ValidationError(f"numeric attribute {self.name!r} cannot declare a value list")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @property
    def is_binary(self) -> bool:
        return self.kind == NOMINAL and self.values == BINARY_DOMAIN


@dataclass(frozen=True)
class Record:
    """One patient-style record: feature vector plus a set of diagnosis codes.

    ``roles`` optionally tags individual codes with PDx/SDx/PROC markers;
    at most one code may carry the PDx tag. A ``Dataset`` stores its records
    as columns; a ``Record`` is the per-row view of them.
    """

    id: str
    features: tuple
    labels: frozenset
    roles: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "roles", dict(self.roles))


def _refuse(bad: np.ndarray, message) -> None:
    """Raise ``message(row, column)`` for the first set cell of the 2-D mask ``bad``, if any."""
    if bad.any():
        raise ValidationError(message(*map(int, np.argwhere(bad)[0])))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar records sharing one attribute schema.

    Row ``i`` is the record ``ids[i]``: features ``X[i]`` (float64, a nominal
    slot holds its value index), codes ``Y[i]`` (bool, one column per code of
    the sorted ``label_alphabet``, so the first set column is the lowest code)
    and role tags ``roles[i]`` (uint8, 0 for none, ``k`` for ``ROLE_TAGS[k - 1]``).
    The constructor checks the columns once and stores read-only copies.
    """

    attributes: tuple
    label_alphabet: tuple
    ids: tuple
    X: np.ndarray
    Y: np.ndarray
    roles: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        attrs, alphabet, ids = tuple(self.attributes), tuple(self.label_alphabet), tuple(self.ids)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be unique")
        for i, attr in enumerate(attrs):
            if attr.index != i:
                raise ValidationError(f"attribute {attr.name!r} has index {attr.index}, expected {i}")
        if list(alphabet) != sorted(set(alphabet)):
            raise ValidationError("label alphabet must be sorted and free of duplicates")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate record id {next(i for i, c in Counter(ids).items() if c > 1)!r}")
        if "" in ids:
            raise ValidationError(f"the record in row {ids.index('')} has an empty id")
        n, L = len(ids), len(alphabet)
        roles = np.zeros((n, L)) if self.roles is None else self.roles
        columns = dict(X=(self.X, np.float64, len(attrs)), Y=(self.Y, bool, L), roles=(roles, np.uint8, L))
        for key, (values, dtype, width) in columns.items():
            column = np.array(values, dtype=dtype)
            if column.shape != (n, width):
                raise ValidationError(f"{key} has shape {column.shape}, expected {(n, width)}")
            column.setflags(write=False)
            object.__setattr__(self, key, column)
        X, Y, roles = self.X, self.Y, self.roles

        num = [a.index for a in attrs if a.is_numeric]
        _refuse(~np.isfinite(X[:, num]), lambda i, j: f"record {ids[i]!r}: non-finite value in {names[num[j]]!r}")
        nom = [a.index for a in attrs if not a.is_numeric]
        values, sizes = X[:, nom], np.array([len(attrs[j].values) for j in nom])
        _refuse(
            (values != np.floor(values)) | (values < 0) | (values >= sizes),
            lambda i, j: f"record {ids[i]!r}: value index {X[i, nom[j]]:g} outside domain of {names[nom[j]]!r}",
        )
        pdx = roles == ROLE_TAGS.index("PDx") + 1
        _refuse(pdx.sum(axis=1, keepdims=True) > 1, lambda i, _: f"record {ids[i]!r} tags more than one code as PDx")
        _refuse(roles > len(ROLE_TAGS), lambda i, j: f"record {ids[i]!r}: unknown role tag on {alphabet[j]!r}")
        absent = (roles > 0) & ~Y
        _refuse(absent, lambda i, j: f"record {ids[i]!r}: role tag on code {alphabet[j]!r} absent from its labels")
        for key, value in dict(attributes=attrs, label_alphabet=alphabet, ids=ids).items():
            object.__setattr__(self, key, value)

    @classmethod
    def from_records(cls, attributes, label_alphabet, records: Iterable[Record], name: str = "dataset") -> "Dataset":
        """The columns of ``records``; a code outside ``label_alphabet`` is refused."""
        records, alphabet = tuple(records), sorted(label_alphabet)
        for rec in records:
            unknown = sorted(rec.labels.difference(alphabet))
            if unknown:
                raise ValidationError(f"record {rec.id!r} carries codes outside the label alphabet: {unknown}")
        if any(len(rec.features) != len(attributes) for rec in records):
            raise ValidationError(f"record features do not match the schema's {len(attributes)} attributes")
        X = np.array([rec.features for rec in records]).reshape(len(records), len(attributes))
        if X.dtype.kind not in "iuf":
            raise ValidationError(f"record features are not numbers or value indices (read as {X.dtype})")
        ids = [rec.id for rec in records]
        Y = label_indicator([rec.labels for rec in records], alphabet)
        return cls(attributes, alphabet, ids, X, Y, _role_matrix(ids, [r.roles for r in records], alphabet), name)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """The ``Record`` view of each row, built on demand."""
        nominal = [not a.is_numeric for a in self.attributes]
        codes = np.asarray(self.label_alphabet, dtype=object)
        for rid, x, y, r in zip(self.ids, self.X, self.Y, self.roles):
            features = tuple(int(v) if nom else v for v, nom in zip(x.tolist(), nominal))
            tags = {codes[j]: ROLE_TAGS[r[j] - 1] for j in np.flatnonzero(r)}
            yield Record(rid, features, frozenset(codes[y]), tags)

    def __eq__(self, other) -> bool:
        plain, arrays = ("attributes", "label_alphabet", "ids", "name"), ("X", "Y", "roles")
        return isinstance(other, Dataset) and all(getattr(self, k) == getattr(other, k) for k in plain) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in arrays
        )

    @cached_property
    def records(self) -> tuple:
        """Every row as a ``Record``: a view for per-record callers and the exporters."""
        return tuple(self)

    def record_ids(self) -> frozenset:
        return frozenset(self.ids)

    def distinct_labelsets(self) -> set:
        return {labels for labels in _distinct_labelsets(self.Y, self.label_alphabet)[0] if labels}

    def subset(self, ids: Iterable[str], name: str | None = None) -> "Dataset":
        """Records whose id is in ``ids``, original order, schema and alphabet kept."""
        wanted = set(ids)
        missing = wanted - self.record_ids()
        if missing:
            raise ValidationError(f"unknown record ids: {sorted(missing)}")
        rows = np.fromiter((rid in wanted for rid in self.ids), dtype=bool, count=len(self.ids))
        kept = [rid for rid in self.ids if rid in wanted]
        return Dataset(
            self.attributes, self.label_alphabet, kept, self.X[rows], self.Y[rows], self.roles[rows], name or self.name
        )

    def feature_matrix(self) -> np.ndarray:
        """Features as float64 (nominal slots hold their value index); ``X``."""
        return self.X


def _role_matrix(ids: Sequence[str], roles: Sequence[Mapping], alphabet: Sequence[str]) -> np.ndarray:
    """n x L role column (see ``Dataset``) of per-row ``{code: tag}`` maps."""
    index = {code: j for j, code in enumerate(alphabet)}
    out = np.zeros((len(roles), len(index)), dtype=np.uint8)
    for i, tags in enumerate(roles):
        for code, tag in tags.items():
            if tag not in ROLE_TAGS:
                raise ValidationError(f"record {ids[i]!r}: unknown role tag {tag!r} on {code!r}")
            if code not in index:
                raise ValidationError(f"record {ids[i]!r}: role tag on code {code!r} absent from its labels")
            out[i, index[code]] = ROLE_TAGS.index(tag) + 1
    return out


def _distinct_labelsets(indicator: np.ndarray, codes: Sequence[str]):
    """(distinct label sets, per-row index into them) of a label-indicator matrix.

    Rows are bit-packed into byte keys so ``np.unique`` finds the distinct
    combinations without a Python pass over the rows.
    """
    if not len(indicator):
        return [], np.zeros(0, dtype=np.intp)
    packed = np.packbits(indicator, axis=1)
    _, first, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    names = np.asarray(codes, dtype=object)
    distinct = [frozenset(names[indicator[i]]) for i in first]
    return distinct, inverse.reshape(-1)


def _principal_columns(indicator: np.ndarray, roles: np.ndarray | None = None) -> np.ndarray:
    """Per row, the column of its PDx-tagged code, else of its first (lowest) code, else the column count."""
    if roles is not None:
        pdx = roles == ROLE_TAGS.index("PDx") + 1
        indicator = np.where(pdx.any(axis=1, keepdims=True), pdx, indicator)
    return np.argmax(np.column_stack([indicator, np.ones(len(indicator), dtype=bool)]), axis=1)


def label_indicator(labelsets: Sequence, alphabet: Sequence[str]) -> np.ndarray:
    """n x L bool matrix: cell (i, j) is set iff ``alphabet[j]`` is in
    ``labelsets[i]``. Codes outside ``alphabet`` are ignored."""
    index = {code: j for j, code in enumerate(alphabet)}
    rows, cols = [], []
    for i, labels in enumerate(labelsets):
        for code in labels:
            j = index.get(code)
            if j is not None:
                rows.append(i)
                cols.append(j)
    out = np.zeros((len(labelsets), len(alphabet)), dtype=bool)
    out[rows, cols] = True
    return out


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/test partition over record ids."""

    train_ids: frozenset
    test_ids: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_ids", frozenset(self.train_ids))
        object.__setattr__(self, "test_ids", frozenset(self.test_ids))
        overlap = self.train_ids & self.test_ids
        if overlap:
            raise ValidationError(f"train and test overlap: {sorted(overlap)[:5]}")

    def validate_against(self, ds: Dataset) -> None:
        union = self.train_ids | self.test_ids
        ids = ds.record_ids()
        if union != ids:
            extra = sorted(union - ids)[:5]
            missing = sorted(ids - union)[:5]
            raise ValidationError(f"split does not cover the dataset exactly (extra={extra}, missing={missing})")


# ---------------------------------------------------------------------------
# CSV loading / export
# ---------------------------------------------------------------------------


def _parses_numeric(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _row_reader(attributes: Sequence[AttributeMeta]):
    """``read_row(cells, n)``: the values of the text cells of line ``n``, a
    finite float per numeric cell and the value index per nominal one; any
    other cell fails as ``line n: ...``."""
    domains = [None if a.is_numeric else {v: i for i, v in enumerate(a.values)} for a in attributes]

    def read_row(cells, n: int) -> tuple:
        out = []
        for attr, index, cell in zip(attributes, domains, cells):
            if not cell:
                raise ValidationError(f"line {n}: missing value in column {attr.name!r} (unsupported)")
            if index is None:
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(f"line {n}: unparseable numeric cell {cell!r} in {attr.name!r}") from None
                if not math.isfinite(value):
                    raise ValidationError(f"line {n}: non-finite value {cell!r} in {attr.name!r}")
            elif cell in index:
                value = index[cell]
            else:
                raise ValidationError(f"line {n}: value {cell!r} outside declared domain of {attr.name!r}")
            out.append(value)
        return tuple(out)

    return read_row


def _parse_label_cell(raw: str, separator: str, where: str):
    codes = set()
    roles = {}
    for token in raw.split(separator):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            code, _, role = token.partition(":")
            code, role = code.strip(), role.strip()
            if role not in ROLE_TAGS:
                raise ValidationError(f"{where}: unknown role tag {role!r} in label cell")
            if roles.get(code, role) != role:
                raise ValidationError(f"{where}: conflicting role tags for code {code!r}")
            roles[code] = role
        else:
            code = token
        if not code:
            raise ValidationError(f"{where}: empty code in label cell")
        codes.add(code)
    return frozenset(codes), roles


def load_csv(
    content: str,
    label_column: str,
    label_separator: str = ";",
    id_column: str | None = None,
    name: str = "dataset",
    attributes: Sequence[AttributeMeta] | None = None,
) -> Dataset:
    """Parse a header-first CSV corpus into a Dataset.

    Attribute kinds are inferred per column: numeric iff every cell parses
    as a finite decimal number and more than two distinct values occur,
    nominal otherwise (domain = lexicographically sorted distinct values).
    Passing an explicit ``attributes`` schema skips inference and parses
    cells against the declared kinds and domains instead. Missing feature
    cells are rejected; an empty label cell yields an empty LabelSet.
    """
    reader = csv.reader(io.StringIO(content))
    rows, lines, end = [], [], 0  # the non-blank records and the physical line each starts on
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:
        raise ValidationError(f"CSV input is malformed: {exc}") from None
    del reader  # its StringIO holds a copy of the whole text
    if not rows:
        raise ValidationError("CSV input has no header row")
    header = [h.strip() for h in rows[0]]
    if not header or any(not h for h in header):
        raise ValidationError("CSV header row is empty or has blank column names")
    if len(set(header)) != len(header):
        raise ValidationError("CSV header has duplicate column names")
    if label_column not in header:
        raise ValidationError(f"label column {label_column!r} not found in header")
    label_idx = header.index(label_column)
    id_idx = None
    if id_column is not None:
        if id_column not in header:
            raise ValidationError(f"id column {id_column!r} not found in header")
        id_idx = header.index(id_column)
        if id_idx == label_idx:
            raise ValidationError("id column and label column must differ")

    body, lines = rows[1:], lines[1:]
    for n, row in zip(lines, body):
        if len(row) != len(header):
            raise ValidationError(f"line {n}: expected {len(header)} cells, found {len(row)}")

    feature_cols = [i for i in range(len(header)) if i != label_idx and i != id_idx]

    if attributes is not None:
        metas = tuple(attributes)
        if [a.name for a in metas] != [header[c] for c in feature_cols]:
            raise ValidationError(
                f"CSV feature columns {[header[c] for c in feature_cols]} do not match "
                f"the declared schema {[a.name for a in metas]}"
            )
    else:
        inferred = []
        for pos, col in enumerate(feature_cols):
            distinct = sorted({row[col].strip() for row in body})
            if len(distinct) > 2 and all(_parses_numeric(c) for c in distinct):
                inferred.append(AttributeMeta(header[col], NUMERIC, index=pos))
            else:
                inferred.append(AttributeMeta(header[col], NOMINAL, values=tuple(distinct), index=pos))
        metas = tuple(inferred)
    read_row = _row_reader(metas)
    ids, rows, labelsets, roles = [], [], [], []
    for i, (n, row) in enumerate(zip(lines, body)):
        labels, tags = _parse_label_cell(row[label_idx], label_separator, f"line {n}")
        rid = row[id_idx].strip() if id_idx is not None else f"r{i}"
        if not rid:
            raise ValidationError(f"line {n}: empty id in column {id_column!r}")
        ids.append(rid)
        rows.append(read_row([row[c].strip() for c in feature_cols], n))
        labelsets.append(labels)
        roles.append(tags)
    alphabet = sorted(set().union(*labelsets))
    X = np.array(rows, dtype=np.float64).reshape(len(rows), len(metas))
    Y = label_indicator(labelsets, alphabet)
    return Dataset(metas, tuple(alphabet), ids, X, Y, _role_matrix(ids, roles, alphabet), name)


def _render_feature(attr: AttributeMeta, value) -> str:
    if attr.kind == NUMERIC:
        return repr(float(value))
    return attr.values[int(value)]


def _render_label_cell(rec: Record, separator: str) -> str:
    parts = []
    for code in sorted(rec.labels):
        role = rec.roles.get(code)
        parts.append(f"{code}:{role}" if role else code)
    return separator.join(parts)


def export_csv(
    ds: Dataset,
    label_column: str = "codes",
    label_separator: str = ";",
    id_column: str | None = "id",
) -> str:
    """Inverse of load_csv: re-loading the output reproduces the dataset."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ([id_column] if id_column else []) + [a.name for a in ds.attributes] + [label_column]
    writer.writerow(header)
    for rec in ds.records:
        row = [rec.id] if id_column else []
        row += [_render_feature(a, v) for a, v in zip(ds.attributes, rec.features)]
        row.append(_render_label_cell(rec, label_separator))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Split protocols
# ---------------------------------------------------------------------------


def cover_all_labels_split(ds: Dataset, train_size: int, seed: int) -> SplitSpec:
    """Seeded split whose training side carries every label present in ``ds``.

    Labels are covered greedily from rarest to most common (one seeded pick
    among the records bearing each still-uncovered label); remaining train
    slots are filled by uniform sampling. Deterministic for a fixed seed.
    """
    support = {j: n for j, n in enumerate(ds.Y.sum(axis=0).tolist()) if n > 0}  # per alphabet column
    if train_size < len(support):
        raise ValidationError(
            f"train size {train_size} cannot cover {len(support)} distinct labels"
        )
    if train_size > len(ds):
        raise ValidationError(f"train size {train_size} exceeds record count {len(ds)}")

    rng = random.Random(seed)
    chosen = set()
    covered = np.zeros(len(ds.label_alphabet), dtype=bool)
    for j in sorted(support, key=lambda j: (support[j], j)):  # the alphabet is sorted: ties go to the lower code
        if covered[j]:
            continue
        pick = rng.choice(sorted(np.flatnonzero(ds.Y[:, j]), key=ds.ids.__getitem__))
        chosen.add(ds.ids[pick])
        covered |= ds.Y[pick]
    remaining = sorted(ds.record_ids() - chosen)
    fill = rng.sample(remaining, train_size - len(chosen))
    train = chosen | set(fill)
    return SplitSpec(train_ids=frozenset(train), test_ids=ds.record_ids() - train)


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorProfile:
    """One complete, valid code combination with its per-feature Bernoulli rates."""

    labels: frozenset
    rates: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not self.labels:
            raise ValidationError("generator profile needs a non-empty label set")
        if not self.rates:
            raise ValidationError("generator profile needs at least one feature rate")
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValidationError(f"feature rate {r} outside [0, 1]")


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration for the synthetic discharge-record generator."""

    profiles: tuple
    n_records: int
    noise_rate: float = 0.0
    seed: int = 0
    feature_names: tuple | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ValidationError("generator needs at least one profile")
        width = len(self.profiles[0].rates)
        for p in self.profiles:
            if len(p.rates) != width:
                raise ValidationError("all profiles must declare the same number of feature rates")
        if self.n_records < 1:
            raise ValidationError("n_records must be at least 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValidationError(f"noise rate {self.noise_rate} outside [0, 1]")
        if self.feature_names is not None:
            names = tuple(str(n) for n in self.feature_names)
            if len(names) != width:
                raise ValidationError(f"{len(names)} feature names for {width} rates")
            object.__setattr__(self, "feature_names", names)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "GeneratorConfig":
        return _read_generator(doc, "generator")


def _read_generator(doc, where: str, seeded: bool = True) -> GeneratorConfig:
    """A generator section; a run config's carries no seed of its own (``seeded`` False)."""
    keys = ("profiles", "n_records", "noise_rate", "features") + (("seed",) if seeded else ())
    f = Fields(doc, where, keys, ("profiles", "n_records"))
    return GeneratorConfig(
        profiles=tuple(f.get("profiles", items, entry=_read_profile)),
        n_records=f.get("n_records", integer),
        noise_rate=f.get("noise_rate", number, 0.0),
        seed=f.get("seed", integer, 0),
        feature_names=f.optional("features", strings),
    )


def _read_profile(doc, where: str) -> GeneratorProfile:
    f = Fields(doc, where, ("labels", "rates"), ("labels", "rates"))
    return GeneratorProfile(frozenset(f.get("labels", strings)), tuple(f.get("rates", items, entry=number)))


def generate_synthetic(cfg: GeneratorConfig):
    """Draw a synthetic corpus from label-combination profiles.

    Each record picks a profile uniformly, samples binary features at the
    profile's rates, then flips each feature with probability
    ``cfg.noise_rate``. Labels are the profile's combination verbatim, so
    the returned profile LabelSets are exactly the valid combinations.

    Returns:
        (Dataset, list of profile LabelSets in profile order)
    """
    width = len(cfg.profiles[0].rates)
    names = cfg.feature_names or tuple(f"f{i:02d}" for i in range(width))
    attributes = tuple(AttributeMeta(n, NOMINAL, values=BINARY_DOMAIN, index=i) for i, n in enumerate(names))
    alphabet = sorted(set().union(*(p.labels for p in cfg.profiles)))

    rng = random.Random(cfg.seed)
    picks, features = [], []
    for _ in range(cfg.n_records):
        pick = rng.randrange(len(cfg.profiles))
        bits = []
        for rate in cfg.profiles[pick].rates:
            bit = 1 if rng.random() < rate else 0
            if rng.random() < cfg.noise_rate:
                bit ^= 1
            bits.append(bit)
        picks.append(pick)
        features.append(bits)
    combos = [p.labels for p in cfg.profiles]
    pad = len(str(cfg.n_records - 1))
    ids = [f"r{i:0{pad}d}" for i in range(cfg.n_records)]
    Y = label_indicator(combos, alphabet)[picks]
    return Dataset(attributes, tuple(alphabet), ids, np.array(features), Y, name="synthetic"), combos
