"""The per-row CSV loader that ``chidt.data.load_csv`` replaced, kept as a test oracle.

One record at a time: ``read_row`` converts a record's feature cells,
``_parse_label_cell`` its label cell, and the first bad cell met in file
order fails as ``line N: ...``. ``oracle_load_csv(...)`` must give a
``Dataset`` equal to ``load_csv(...)``, or fail with the identical message,
for every input, so the columnar loader is checked corpus for corpus.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

import numpy as np

from chidt.data import NOMINAL, NUMERIC, ROLE_TAGS, AttributeMeta, Dataset, _role_matrix, label_indicator
from chidt.errors import ValidationError


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



def oracle_load_csv(
    content: str,
    label_column: str,
    label_separator: str = ";",
    id_column: str | None = None,
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
        if feature_cols and not body:
            raise ValidationError(f"CSV input has no records to infer column {header[feature_cols[0]]!r} from")
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
    return Dataset(metas, tuple(alphabet), ids, X, Y, _role_matrix(ids, roles, alphabet))
