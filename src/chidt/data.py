"""Clinical-coding dataset model: attribute schema, columnar records, loaders, splits, synthesis.

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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .jsondoc import Fields, integer, items, number, strings

NUMERIC = "numeric"
NOMINAL = "nominal"

ROLE_TAGS = ("PDx", "SDx", "PROC")

BINARY_DOMAIN = ("0", "1")

# the class evaluation gives an empty label set; no code may take this name, nor contain the ';' of ``combo_key``
NONE_CLASS = "(none)"


@dataclass(frozen=True)
class AttributeMeta:
    """Schema entry for one feature column.

    ``values`` is the ordered nominal domain (None for numeric columns);
    record feature slots hold indices into it.
    """

    name: str
    kind: str
    values: tuple[str, ...] | None = None

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


def _refuse(bad: np.ndarray, message) -> None:
    """Raise ``message(row, column)`` for the first set cell of the 2-D mask ``bad``, if any."""
    if bad.any():
        raise ValidationError(message(*map(int, np.argwhere(bad)[0])))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar records sharing one attribute schema.

    Row ``i`` is the record ``ids[i]``: features ``X[i]`` (float64; column
    ``j`` is ``attributes[j]``, and a nominal slot holds its value index),
    codes ``Y[i]`` (bool, one column per code of the sorted ``label_alphabet``,
    so the first set column is the lowest code) and role tags ``roles[i]``
    (uint8, 0 for none, ``k`` for ``ROLE_TAGS[k - 1]``).
    The constructor refuses a column of another dtype kind, checks the columns once and stores read-only copies.
    """

    attributes: tuple
    label_alphabet: tuple
    ids: tuple
    X: np.ndarray
    Y: np.ndarray
    roles: np.ndarray | None = None

    def __post_init__(self) -> None:
        attrs, alphabet, ids = tuple(self.attributes), tuple(self.label_alphabet), tuple(self.ids)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be unique")
        if list(alphabet) != sorted(set(alphabet)):
            raise ValidationError("label alphabet must be sorted and free of duplicates")
        _refuse_reserved(alphabet)
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate record id {next(i for i, c in Counter(ids).items() if c > 1)!r}")
        if "" in ids:
            raise ValidationError(f"the record in row {ids.index('')} has an empty id")
        n, L = len(ids), len(alphabet)
        roles = np.zeros((n, L), dtype=np.uint8) if self.roles is None else self.roles
        columns = dict(X=(self.X, np.float64, len(attrs)), Y=(self.Y, bool, L), roles=(roles, np.uint8, L))
        kinds = dict(X=("iuf", "integers or floats"), Y=("b", "bools"), roles=("iu", "integers"))  # numpy dtype kinds
        for key, (values, dtype, width) in columns.items():
            try:
                column = np.asarray(values)
            except ValueError:  # numpy's "inhomogeneous shape"
                raise ValidationError(f"{key} must be a rectangular array, not sequences of unequal lengths") from None
            if column.dtype.kind not in kinds[key][0]:
                raise ValidationError(f"{key} must hold {kinds[key][1]}, not {column.dtype} values")
            if column.shape != (n, width):
                raise ValidationError(f"{key} has shape {column.shape}, expected {(n, width)}")
            if key == "roles":  # before the uint8 cast, which would wrap 256 to 0
                outside = (column < 0) | (column > len(ROLE_TAGS))
                _refuse(outside, lambda i, j: f"record {ids[i]!r}: unknown roles tag {column[i, j]} on {alphabet[j]!r}")
            column = column.astype(dtype)
            column.setflags(write=False)
            object.__setattr__(self, key, column)
        X, Y, roles = self.X, self.Y, self.roles

        num = [j for j, a in enumerate(attrs) if a.is_numeric]
        _refuse(~np.isfinite(X[:, num]), lambda i, j: f"record {ids[i]!r}: non-finite value in {names[num[j]]!r}")
        nom = [j for j, a in enumerate(attrs) if not a.is_numeric]
        values, sizes = X[:, nom], np.array([len(attrs[j].values) for j in nom])
        _refuse(
            (values != np.floor(values)) | (values < 0) | (values >= sizes),
            lambda i, j: f"record {ids[i]!r}: value index {X[i, nom[j]]:g} outside domain of {names[nom[j]]!r}",
        )
        pdx = roles == ROLE_TAGS.index("PDx") + 1
        _refuse(pdx.sum(axis=1, keepdims=True) > 1, lambda i, _: f"record {ids[i]!r} tags more than one code as PDx")
        absent = (roles > 0) & ~Y
        _refuse(absent, lambda i, j: f"record {ids[i]!r}: role tag on code {alphabet[j]!r} absent from its labels")
        for key, value in dict(attributes=attrs, label_alphabet=alphabet, ids=ids).items():
            object.__setattr__(self, key, value)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """The record ids, in row order."""
        return iter(self.ids)

    def record_ids(self) -> frozenset:
        return frozenset(self.ids)

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Bool mask over the rows, set where the record's id is in ``ids``; an id of no record is refused."""
        wanted = set(ids)
        missing = wanted - self.record_ids()
        if missing:
            raise ValidationError(f"unknown record ids: {sorted(missing)}")
        return np.fromiter((rid in wanted for rid in self.ids), dtype=bool, count=len(self.ids))

    def subset(self, ids: Iterable[str]) -> "Dataset":
        """Records whose id is in ``ids``, original order, schema and alphabet kept."""
        rows = self.rows(ids)
        kept = [self.ids[i] for i in np.flatnonzero(rows).tolist()]
        return Dataset(self.attributes, self.label_alphabet, kept, self.X[rows], self.Y[rows], self.roles[rows])

    def feature_matrix(self) -> np.ndarray:
        """Features as float64 (nominal slots hold their value index); ``X``."""
        return self.X


def _refuse_reserved(codes: Sequence[str], where: str = "") -> None:
    """Refuse the code ``NONE_CLASS`` and any code holding the ';' of ``combo_key``; ``where`` names the list."""
    for i, code in enumerate(codes):
        if code == NONE_CLASS or ";" in code:
            at = f"{where}[{i}]: " if where else ""
            raise ValidationError(f"{at}code {code!r} is reserved: {NONE_CLASS!r} means no code, ';' joins codes")


def _role_matrix(roles: Sequence[Mapping], alphabet: Sequence[str]) -> np.ndarray:
    """n x L role column (see ``Dataset``) of per-row ``{code: tag}`` maps over codes of ``alphabet``."""
    index = {code: j for j, code in enumerate(alphabet)}
    out = np.zeros((len(roles), len(index)), dtype=np.uint8)
    for i, tags in enumerate(roles):
        for code, tag in tags.items():
            out[i, index[code]] = ROLE_TAGS.index(tag) + 1
    return out


def _distinct_labelsets(indicator: np.ndarray, codes: Sequence[str]):
    """(distinct label sets, per-row index into them) of a label-indicator matrix.

    The sets come in the byte order of the bit-packed rows, each found at
    its first row. Rows are bit-packed, padded to whole 8-byte words (one
    word at least, so no codes is one all-zero key) and read as big-endian
    ``uint64``, whose numeric order is the byte order: one ``np.lexsort``
    over the words and one comparison of neighbours find the sets, with
    no Python pass over the rows.
    """
    n, width = indicator.shape
    words = max(1, -(-width // 64))
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(indicator, axis=1)
    keys = packed.view(">u8")
    order = np.lexsort(keys.T[::-1])  # stable, the first word the primary key
    keys = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    names = np.asarray(codes, dtype=object)
    distinct = [frozenset(names[indicator[i]]) for i in order[new]]
    return distinct, inverse


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


# ---------------------------------------------------------------------------
# CSV loading / export
# ---------------------------------------------------------------------------


def _read_cell(attr: AttributeMeta, domain: Mapping | None, cell: str) -> float:
    """The value of one stripped feature cell of ``attr``: a finite float, or its index in the nominal ``domain``."""
    if not cell:
        raise ValidationError(f"missing value in column {attr.name!r} (unsupported)")
    if domain is not None:
        if cell not in domain:
            raise ValidationError(f"value {cell!r} outside declared domain of {attr.name!r}")
        return domain[cell]
    try:
        if "_" in cell:  # float() reads PEP 515 digit grouping: '1_000' as 1000.0
            raise ValueError(cell)
        value = float(cell)
    except ValueError:
        raise ValidationError(f"unparseable numeric cell {cell!r} in {attr.name!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {cell!r} in {attr.name!r}")
    return value


def _parse_label_cell(raw: str, separator: str):
    """(codes, {code: role tag}) of one label cell."""
    codes, roles = set(), {}
    for token in filter(None, (token.strip() for token in raw.split(separator))):
        code, tagged, role = (part.strip() for part in token.partition(":"))
        if tagged:
            if role not in ROLE_TAGS:
                raise ValidationError(f"unknown role tag {role!r} in label cell")
            if roles.setdefault(code, role) != role:
                raise ValidationError(f"conflicting role tags for code {code!r}")
        if not code:
            raise ValidationError("empty code in label cell")
        codes.add(code)
    return frozenset(codes), roles


def _distinct(column: Sequence[str]):
    """(the distinct cells of ``column`` in first-seen order, each row's index into them)."""
    index = {}
    inverse = np.fromiter((index.setdefault(c, len(index)) for c in column), dtype=np.intp, count=len(column))
    return list(index), inverse


def _table(content: str):
    """(header cells, empty if every line is blank; each record's line number and cell count; per column the
    distinct cells and each record's index into them, or None unless every record has the header's width).
    ``_scan`` reads ASCII text with no quote or carriage return, under 1 GiB so that int32 holds its
    positions; ``_read_rows`` any other. Both give the same table, up to the order of distinct cells.
    """
    if content.isascii() and '"' not in content and "\r" not in content and len(content) < 2**30:
        return _scan(content)
    return _read_rows(content)


def _read_rows(content: str):
    """``_table`` of a CSV text, parsed by ``csv.reader``."""
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
    header, widths = rows[0] if rows else [], np.array([len(row) for row in rows[1:]], dtype=np.intp)
    columns = None if (widths != len(header)).any() else list(zip(*rows[1:])) or [()] * len(header)
    del rows
    return header, np.array(lines[1:]), widths, columns and [_distinct(column) for column in columns]


def _group(keys: np.ndarray):
    """(each key's index among the sorted distinct ``keys``, the position of one key of each distinct value)."""
    order = np.argsort(keys)
    ordered, new = keys[order], np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return inverse, order[new]


def _scan(content: str):
    """``_table`` of ASCII text with no quote or carriage return, in whole-array passes over its bytes.

    ``csv.reader`` cuts such text at every comma and newline, skipping empty lines. A cell's key is the
    big-endian 8-byte words of its bytes and delimiter, masked to that length, and past 32 bytes its text.
    A column's cells share one delimiter, never NUL, so equal keys mean equal cells. One cell per key is decoded."""
    raw = content.encode() + (b"" if content.endswith("\n") else b"\n") + bytes(8)  # room for a word at any cell
    data = np.frombuffer(raw, dtype=np.uint8)[:-8]
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n"))).astype(np.int32)  # each cell's delimiter
    starts = np.concatenate(([0], ends[:-1] + 1), dtype=np.int32)
    lengths = ends - starts
    if lengths.max() > (limit := csv.field_size_limit()):
        raise ValidationError(f"CSV input is malformed: field larger than field limit ({limit})")
    last = np.flatnonzero(data[ends] == ord("\n"))  # each line's last cell
    width = np.diff(last, prepend=-1)
    blank = (width == 1) & (lengths[last] == 0)  # an empty line, which holds no record
    if blank.all():
        return [], None, None, None
    starts, lengths = np.delete(starts, last[blank]), np.delete(lengths, last[blank])
    width, lines, h = width[~blank], np.flatnonzero(~blank)[1:] + 1, int(width[~blank][0])
    header = [content[s : s + n] for s, n in zip(starts[:h].tolist(), lengths[:h].tolist())]
    if (width[1:] != h).any():
        return header, lines, width[1:], None
    words = np.ndarray((len(data) + 1,), dtype=">u8", buffer=raw, strides=(1,))  # the word at each byte
    masks = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)  # [k]: a word's first k bytes
    starts, lengths = starts[h:].reshape(-1, h).T.copy(), lengths[h:].reshape(-1, h).T.copy()  # a row per column
    inverses, picked, rest = [], [], {}
    for s, n in zip(starts, lengths):
        inverse, first = _group(words[s] & masks.take(n + 1, mode="clip"))
        # word k splits only groups of cells that reach it; few reach 32 bytes, so their rest is keyed as text
        for k in range(1, min(int(n.max(initial=0)) // 8, 4) + 1):
            rows = np.flatnonzero(n >= 8 * k)
            if k < 4:
                word = words[s[rows] + 8 * k] & masks.take(n[rows] + 1 - 8 * k, mode="clip")
            else:
                tails = zip(s[rows].tolist(), n[rows].tolist())
                word = np.fromiter((rest.setdefault(content[a + 32 : a + b], len(rest)) for a, b in tails), np.uint64)
            inverse[rows] = inverse.max() + 1 + _group((inverse[rows] << 32) | _group(word)[0])[0]  # ids < 2**30
        if n.max(initial=0) >= 8:
            inverse, first = _group(inverse)
        inverses.append(inverse)
        picked.append((s[first], n[first]))
    del starts, lengths
    s, n = (np.concatenate(side) for side in zip(*picked))
    offsets = np.cumsum(n + 1) - (n + 1)
    chars = data[np.arange(int(n.sum()) + len(n)) + np.repeat(s - offsets, n + 1)]  # each picked cell, delimited
    chars[offsets + n] = ord(",")
    cells, bounds = chars.tobytes().decode().split(","), np.cumsum([0] + [len(s) for s, _ in picked]).tolist()
    return header, lines, width[1:], [(cells[a:b], inverse) for a, b, inverse in zip(bounds, bounds[1:], inverses)]


def _read_each(read, cells: Sequence[str], inverse: np.ndarray):
    """(values, ``inverse``, {cell index: message}): ``read`` of each distinct cell, None where it fails."""
    values, bad = [], {}
    for k, cell in enumerate(cells):
        try:
            values.append(read(cell))
        except ValidationError as exc:
            values.append(None)
            bad[k] = str(exc)
    return values, inverse, bad


def _read_feature(attr: AttributeMeta, cells: Sequence[str], inverse: np.ndarray):
    """``_read_each`` of the distinct cells of ``attr``'s column."""
    domain = None if attr.is_numeric else {v: i for i, v in enumerate(attr.values)}
    return _read_each(lambda cell: _read_cell(attr, domain, cell.strip()), cells, inverse)


def load_csv(
    content: str,
    label_column: str,
    label_separator: str = ";",
    id_column: str | None = None,
    attributes: Sequence[AttributeMeta] | None = None,
) -> Dataset:
    """Parse a header-first CSV corpus into a Dataset, a column at a time.

    Attribute kinds are inferred per column: numeric iff every cell parses
    as a finite decimal number and more than two distinct values occur,
    nominal otherwise (domain = lexicographically sorted distinct values).
    Passing an explicit ``attributes`` schema skips inference and parses
    cells against the declared kinds and domains instead. Missing feature
    cells are rejected; an empty label cell yields an empty LabelSet. Each
    distinct cell of a column is read once.
    """
    header, lines, widths, columns = _table(content)
    if not header:
        raise ValidationError("CSV input has no header row")
    header = [h.strip() for h in header]
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

    ragged = np.flatnonzero(widths != len(header))
    if ragged.size:
        raise ValidationError(f"line {lines[ragged[0]]}: expected {len(header)} cells, found {widths[ragged[0]]}")

    feature_cols = [i for i in range(len(header)) if i != label_idx and i != id_idx]
    if attributes is not None and [a.name for a in attributes] != [header[c] for c in feature_cols]:
        raise ValidationError(
            f"CSV feature columns {[header[c] for c in feature_cols]} do not match "
            f"the declared schema {[a.name for a in attributes]}"
        )
    if attributes is None and feature_cols and not len(lines):
        raise ValidationError(f"CSV input has no records to infer column {header[feature_cols[0]]!r} from")
    # every column's _read_each, in the order errors take within a record: label cell, id, features
    read = [_read_each(lambda cell: _parse_label_cell(cell, label_separator), *columns[label_idx])]
    if id_idx is not None:
        cells, id_rows = columns[id_idx]
        rids = list(map(str.strip, cells))
        empty = [k for k, rid in enumerate(rids) if not rid] if "" in rids else []
        read.append((rids, id_rows, dict.fromkeys(empty, f"empty id in column {id_column!r}")))
    metas, X = [], np.empty((len(lines), len(feature_cols)))
    for pos, col in enumerate(feature_cols):
        cells, inverse = columns[col]
        attr = AttributeMeta(header[col], NUMERIC) if attributes is None else attributes[pos]
        column = _read_feature(attr, cells, inverse)
        if attributes is None:  # numeric iff more than two distinct values, every one a finite number
            distinct = sorted({cell.strip() for cell in cells})
            if len(distinct) <= 2 or column[2]:
                attr = AttributeMeta(header[col], NOMINAL, distinct)
                column = _read_feature(attr, cells, inverse)
        read.append(column)
        X[:, pos] = np.array(column[0], dtype=np.float64)[inverse]  # a refused cell reads as NaN
        metas.append(attr)
    del columns
    failing = [(inverse, bad) for _, inverse, bad in read if bad]
    if failing:  # the first record holding a bad cell, and its first bad cell in column order
        row = min(int(np.flatnonzero(np.isin(inverse, list(bad)))[0]) for inverse, bad in failing)
        message = next(bad[inverse[row]] for inverse, bad in failing if inverse[row] in bad)
        raise ValidationError(f"line {lines[row]}: {message}")

    parsed, rows, _ = read[0]
    ids = [f"r{i}" for i in range(len(rows))] if id_idx is None else list(map(rids.__getitem__, id_rows.tolist()))
    alphabet = sorted(set().union(*(codes for codes, _ in parsed)))
    roles = _role_matrix([tags for _, tags in parsed], alphabet)
    Y = label_indicator([codes for codes, _ in parsed], alphabet)
    return Dataset(tuple(metas), tuple(alphabet), ids, X, Y[rows], roles[rows])


def export_csv(
    ds: Dataset,
    label_column: str = "codes",
    label_separator: str = ";",
    id_column: str | None = "id",
) -> str:
    """Inverse of load_csv: re-loading the output reproduces the dataset."""
    columns = [[id_column, *ds.ids]] if id_column else []  # each column under its header
    for attr, x in zip(ds.attributes, ds.X.T.tolist()):
        columns.append([attr.name, *(map(repr, x) if attr.is_numeric else (attr.values[int(v)] for v in x))])
    suffixes = np.asarray(("",) + tuple(f":{tag}" for tag in ROLE_TAGS), dtype=object)
    tagged = np.asarray(ds.label_alphabet, dtype=object) + suffixes[ds.roles]  # cell (i, j): code j with row i's role
    columns.append([label_column, *(label_separator.join(codes[y]) for codes, y in zip(tagged, ds.Y))])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*columns))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Split protocols
# ---------------------------------------------------------------------------


def cover_all_labels_split(ds: Dataset, train_size: int, seed: int) -> frozenset:
    """The ids of a seeded training set that carries every label present in ``ds``.

    Labels are covered greedily from rarest to most common (one seeded pick
    among the records bearing each still-uncovered label); remaining train
    slots are filled by uniform sampling. Deterministic for a fixed seed.
    """
    if train_size < 1:
        raise ValidationError(f"train size {train_size} must be at least 1")
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
    return frozenset(chosen.union(fill))


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


def _read_generator(doc, where: str) -> GeneratorConfig:
    """A run config's generator section. It carries no seed of its own: ``seed`` reads 0 and ``cmd_gen`` sets it."""
    f = Fields(doc, where, ("profiles", "n_records", "noise_rate", "features"), ("profiles", "n_records"))
    return GeneratorConfig(
        profiles=tuple(f.get("profiles", items, entry=_read_profile)),
        n_records=f.get("n_records", integer),
        noise_rate=f.get("noise_rate", number, 0.0),
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
    attributes = tuple(AttributeMeta(n, NOMINAL, values=BINARY_DOMAIN) for n in names)
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
    return Dataset(attributes, tuple(alphabet), ids, np.array(features), Y), combos
