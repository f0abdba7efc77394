"""Clinical-coding dataset model: attribute schema, records, loaders, splits, synthesis.

On-disk formats are a small CSV dialect (one label column holding
separator-joined code lists, optional ``code:ROLE`` suffixes for
PDx/SDx/PROC markers) and a dense ARFF subset. Datasets are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
import random
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
    at most one code may carry the PDx tag.
    """

    id: str
    features: tuple
    labels: frozenset
    roles: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "roles", dict(self.roles))

    def principal_code(self) -> str | None:
        """PDx-tagged code if present, else the lowest-sorted code, else None."""
        for code, role in self.roles.items():
            if role == "PDx":
                return code
        if self.labels:
            return min(self.labels)
        return None


def _validate_record(rec: Record, attributes: Sequence[AttributeMeta], alphabet: frozenset) -> None:
    if len(rec.features) != len(attributes):
        raise ValidationError(
            f"record {rec.id!r} has {len(rec.features)} features, schema defines {len(attributes)}"
        )
    for attr, value in zip(attributes, rec.features):
        if attr.kind == NUMERIC:
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise ValidationError(f"record {rec.id!r}: non-finite value {value!r} in numeric {attr.name!r}")
        else:
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < len(attr.values):
                raise ValidationError(f"record {rec.id!r}: value index {value!r} outside domain of {attr.name!r}")
    unknown = rec.labels - alphabet
    if unknown:
        raise ValidationError(f"record {rec.id!r} carries codes outside the label alphabet: {sorted(unknown)}")
    pdx = [c for c, r in rec.roles.items() if r == "PDx"]
    if len(pdx) > 1:
        raise ValidationError(f"record {rec.id!r} tags more than one code as PDx: {sorted(pdx)}")
    for code, role in rec.roles.items():
        if role not in ROLE_TAGS:
            raise ValidationError(f"record {rec.id!r}: unknown role tag {role!r} on {code!r}")
        if code not in rec.labels:
            raise ValidationError(f"record {rec.id!r}: role tag on code {code!r} absent from its labels")


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of records sharing one attribute schema.

    The label alphabet is kept sorted so every downstream artifact
    (per-code models, registries, reports) iterates codes in one order.
    """

    attributes: tuple
    label_alphabet: tuple
    records: tuple
    name: str = "dataset"

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "records", tuple(self.records))
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be unique")
        for i, attr in enumerate(self.attributes):
            if attr.index != i:
                raise ValidationError(f"attribute {attr.name!r} has index {attr.index}, expected {i}")
        alphabet = tuple(self.label_alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValidationError("label alphabet contains duplicates")
        object.__setattr__(self, "label_alphabet", tuple(sorted(alphabet)))
        seen_ids = set()
        alpha_set = frozenset(self.label_alphabet)
        for rec in self.records:
            if rec.id in seen_ids:
                raise ValidationError(f"duplicate record id {rec.id!r}")
            seen_ids.add(rec.id)
            _validate_record(rec, self.attributes, alpha_set)

    def __len__(self) -> int:
        return len(self.records)

    def record_ids(self) -> frozenset:
        return frozenset(r.id for r in self.records)

    def record_by_id(self, rid: str) -> Record:
        for rec in self.records:
            if rec.id == rid:
                return rec
        raise KeyError(rid)

    def label_support(self) -> dict:
        support = {code: 0 for code in self.label_alphabet}
        for rec in self.records:
            for code in rec.labels:
                support[code] += 1
        return support

    def distinct_labelsets(self) -> set:
        return {rec.labels for rec in self.records if rec.labels}

    def subset(self, ids: Iterable[str], name: str | None = None) -> "Dataset":
        """Records whose id is in ``ids``, original order, schema and alphabet kept."""
        wanted = set(ids)
        missing = wanted - self.record_ids()
        if missing:
            raise ValidationError(f"unknown record ids: {sorted(missing)}")
        return Dataset(
            attributes=self.attributes,
            label_alphabet=self.label_alphabet,
            records=tuple(r for r in self.records if r.id in wanted),
            name=name or self.name,
        )

    @cached_property
    def X(self) -> np.ndarray:
        """Read-only n x d float64 features (nominal slots hold their value index)."""
        out = np.array([rec.features for rec in self.records], dtype=np.float64)
        out = out.reshape(len(self.records), len(self.attributes))
        out.setflags(write=False)
        return out

    @cached_property
    def Y(self) -> np.ndarray:
        """Read-only n x L bool label indicator over ``label_alphabet``."""
        out = label_indicator([rec.labels for rec in self.records], self.label_alphabet)
        out.setflags(write=False)
        return out

    def feature_matrix(self) -> np.ndarray:
        """Features as float64 (nominal slots hold their value index); ``X``."""
        return self.X


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
    other cell fails as ``line n: ...``. The CSV and ARFF loaders share it."""
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
    try:
        rows = [r for r in csv.reader(io.StringIO(content)) if r]
    except csv.Error as exc:
        raise ValidationError(f"CSV input is malformed: {exc}") from None
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

    body = rows[1:]
    for n, row in enumerate(body, start=2):
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
    records = []
    alphabet = set()
    for n, row in enumerate(body, start=2):
        labels, roles = _parse_label_cell(row[label_idx], label_separator, f"line {n}")
        alphabet |= labels
        rid = row[id_idx].strip() if id_idx is not None else f"r{n - 2}"
        cells = [row[c].strip() for c in feature_cols]
        records.append(Record(id=rid, features=read_row(cells, n), labels=labels, roles=roles))

    return Dataset(
        attributes=metas,
        label_alphabet=tuple(sorted(alphabet)),
        records=tuple(records),
        name=name,
    )


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
# ARFF subset loading / export
# ---------------------------------------------------------------------------

_NUMERIC_KEYWORDS = ("numeric", "real", "integer")


def _split_arff_name(rest: str, n: int):
    rest = rest.strip()
    if rest.startswith(("'", '"')):
        quote = rest[0]
        try:
            end = rest.index(quote, 1)
        except ValueError:
            raise ValidationError(f"line {n}: unterminated quoted attribute name")
        return rest[1:end], rest[end + 1 :].strip()
    parts = rest.split(None, 1)
    if len(parts) < 2:
        raise ValidationError(f"line {n}: malformed @attribute declaration")
    return parts[0], parts[1].strip()


def load_arff_subset(content: str, name: str | None = None) -> Dataset:
    """Load a dense ARFF file restricted to numeric and nominal attributes.

    The last attribute is the class attribute (must be nominal); each data
    row becomes a record with a one-element LabelSet. Sparse rows, string,
    date, and relational attributes, and missing values ('?') are rejected.
    """
    relation = name
    attrs: list[tuple[str, str, tuple | None]] = []
    data_rows = []
    in_data = False
    for n, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if in_data:
            if line.startswith("{"):
                raise ValidationError(f"line {n}: sparse ARFF rows are not supported")
            cells = [c.strip().strip("'\"") for c in line.split(",")]
            data_rows.append((n, cells))
        elif low.startswith("@relation"):
            if relation is None:
                relation = line.split(None, 1)[1].strip().strip("'\"") if " " in line else "dataset"
        elif low.startswith("@attribute"):
            attr_name, rest = _split_arff_name(line.split(None, 1)[1], n)
            if rest.startswith("{"):
                if not rest.endswith("}"):
                    raise ValidationError(f"line {n}: unterminated nominal domain")
                values = tuple(v.strip().strip("'\"") for v in rest[1:-1].split(","))
                if any(not v for v in values):
                    raise ValidationError(f"line {n}: empty value in nominal domain")
                attrs.append((attr_name, NOMINAL, values))
            elif rest.lower() in _NUMERIC_KEYWORDS:
                attrs.append((attr_name, NUMERIC, None))
            else:
                raise ValidationError(f"line {n}: unsupported attribute kind {rest!r}")
        elif low.startswith("@data"):
            in_data = True
        else:
            raise ValidationError(f"line {n}: unrecognized declaration {line.split()[0]!r}")

    if not in_data:
        raise ValidationError("ARFF input has no @data section")
    if len(attrs) < 2:
        raise ValidationError("ARFF input needs at least one feature and a class attribute")
    class_name, class_kind, class_values = attrs[-1]
    if class_kind != NOMINAL:
        raise ValidationError(f"class attribute {class_name!r} must be nominal")

    metas = tuple(AttributeMeta(a_name, kind, vals, i) for i, (a_name, kind, vals) in enumerate(attrs))
    read_row = _row_reader(metas)
    records = []
    for n, cells in data_rows:
        if len(cells) != len(attrs):
            raise ValidationError(f"line {n}: expected {len(attrs)} values, found {len(cells)}")
        if "?" in cells:
            raise ValidationError(f"line {n}: missing values ('?') are not supported")
        *features, label = read_row(cells, n)
        records.append(Record(f"r{len(records)}", tuple(features), frozenset({class_values[label]})))

    return Dataset(
        attributes=metas[:-1],
        label_alphabet=tuple(sorted(class_values)),
        records=tuple(records),
        name=relation or "dataset",
    )


def export_arff(ds: Dataset, class_name: str = "class") -> str:
    """Render a single-label Dataset as dense ARFF (inverse of load_arff_subset)."""
    if any(len(r.labels) != 1 for r in ds.records):
        raise ValidationError("ARFF export requires exactly one code per record")
    if any(r.roles for r in ds.records):
        raise ValidationError("ARFF export cannot represent role tags")
    if class_name in (a.name for a in ds.attributes):
        raise ValidationError(f"class attribute name {class_name!r} collides with a feature")
    lines = [f"@relation {ds.name}", ""]
    for attr in ds.attributes:
        if attr.kind == NUMERIC:
            lines.append(f"@attribute {attr.name} numeric")
        else:
            lines.append(f"@attribute {attr.name} {{{','.join(attr.values)}}}")
    lines.append(f"@attribute {class_name} {{{','.join(ds.label_alphabet)}}}")
    lines.append("")
    lines.append("@data")
    for rec in ds.records:
        cells = [_render_feature(a, v) for a, v in zip(ds.attributes, rec.features)]
        cells.append(next(iter(rec.labels)))
        lines.append(",".join(cells))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Split protocols
# ---------------------------------------------------------------------------


def cover_all_labels_split(ds: Dataset, train_size: int, seed: int) -> SplitSpec:
    """Seeded split whose training side carries every label present in ``ds``.

    Labels are covered greedily from rarest to most common (one seeded pick
    among the records bearing each still-uncovered label); remaining train
    slots are filled by uniform sampling. Deterministic for a fixed seed.
    """
    support = {c: n for c, n in ds.label_support().items() if n > 0}
    if train_size < len(support):
        raise ValidationError(
            f"train size {train_size} cannot cover {len(support)} distinct labels"
        )
    if train_size > len(ds.records):
        raise ValidationError(f"train size {train_size} exceeds record count {len(ds.records)}")

    bearers: dict = {code: [] for code in support}
    for rec in ds.records:
        for code in rec.labels:
            if code in bearers:
                bearers[code].append(rec.id)

    rng = random.Random(seed)
    chosen = set()
    covered = set()
    for code in sorted(support, key=lambda c: (support[c], c)):
        if code in covered:
            continue
        pick = rng.choice(sorted(bearers[code]))
        chosen.add(pick)
        covered |= ds.record_by_id(pick).labels
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
    pad = len(str(cfg.n_records - 1))
    records = []
    for i in range(cfg.n_records):
        profile = cfg.profiles[rng.randrange(len(cfg.profiles))]
        features = []
        for rate in profile.rates:
            bit = 1 if rng.random() < rate else 0
            if rng.random() < cfg.noise_rate:
                bit ^= 1
            features.append(bit)
        records.append(Record(id=f"r{i:0{pad}d}", features=tuple(features), labels=profile.labels))

    ds = Dataset(
        attributes=attributes,
        label_alphabet=tuple(alphabet),
        records=tuple(records),
        name="synthetic",
    )
    return ds, [p.labels for p in cfg.profiles]
