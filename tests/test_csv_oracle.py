"""``load_csv`` against the per-row loader it replaced (``tests/oracle_csv.py``).

Random corpora mix binary, nominal and numeric columns, ids present or
generated, role tags, blank lines, quoted line breaks, '\\n' or '\\r\\n' line
ends and a missing final line end, and carry 0-3 injected faults: a missing
cell, a bad numeric or nominal value, a bad role tag, an empty id, a ragged
row, a reserved code. Corpora with no quoted cell and '\\n' line ends take
``load_csv``'s whole-array reader, the others ``csv.reader``. Both loaders
must give an equal ``Dataset`` or fail with the identical message, under an
inferred and a declared schema.
A deeper run: ``python -m pytest tests/test_csv_oracle.py --hypothesis-profile=oracle-deep``.
"""

from __future__ import annotations

import csv
import io

from hypothesis import given, settings, strategies as st

from chidt.data import NOMINAL, NUMERIC, AttributeMeta, load_csv
from chidt.errors import ValidationError

from conftest import assert_same_dataset
from oracle_csv import oracle_load_csv

DOMAINS = {
    "binary": ("0", "1"),
    "nominal": ("angina", "old mi", "a,b", 'said "x"', "two\nlines"),
    "numeric": ("1.5", "2", "-3e1", " 4 ", "0.25", "7"),
}
CODES = ("I20.0", "I21.0", "I25.1")
# a ragged row or a reserved code fails the whole corpus before any cell is read, so they are drawn less often
FAULTS = ("missing", "bad-numeric", "bad-nominal", "bad-role", "empty-id") * 3 + ("ragged", "reserved-code")


def outcome(load, text: str, **kwargs):
    """The Dataset that ``load`` reads from ``text``, or the message it fails with."""
    try:
        return load(text, **kwargs)
    except ValidationError as exc:
        return str(exc)


@st.composite
def corpora(draw) -> tuple:
    """(CSV text, ``load_csv`` keyword arguments)."""
    kinds = draw(st.lists(st.sampled_from(sorted(DOMAINS)), max_size=3))
    names = [f"{kind[:3]}{j}" for j, kind in enumerate(kinds)]
    with_id = draw(st.booleans())
    separator = draw(st.sampled_from([";", "|"]))
    tagged = st.tuples(st.sampled_from(CODES), st.sampled_from(["", "", ":PDx", ":SDx", ":PROC"]))
    label_cell = st.lists(tagged, max_size=3, unique_by=lambda pair: pair[0]).map(
        lambda codes: separator.join(code + tag for code, tag in codes)
    )
    n = draw(st.integers(0, 6))
    rows = []
    for i in range(n):
        row = {name: draw(st.sampled_from(DOMAINS[kind])) for name, kind in zip(names, kinds)}
        row["codes"] = draw(label_cell)
        row["id"] = f"p{i}"
        rows.append(row)
    ragged = set()
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        fault = draw(st.sampled_from(FAULTS))
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if fault == "missing" and names:
            row[draw(st.sampled_from(names))] = draw(st.sampled_from(["", "  "]))
        elif fault == "bad-numeric" and "numeric" in kinds:
            row[names[kinds.index("numeric")]] = draw(st.sampled_from(["oops", "nan", "-inf", "1_000"]))
        elif fault == "bad-nominal" and names:
            row[draw(st.sampled_from(names))] = "zz"
        elif fault == "bad-role":
            row["codes"] += separator + draw(st.sampled_from(["I20.0:XX", ":PDx", "I21.0:PDx;I21.0:SDx"]))
        elif fault == "empty-id":
            row["id"] = draw(st.sampled_from(["", " "]))
        elif fault == "ragged":
            ragged.add(i)
        elif fault == "reserved-code":
            row["codes"] += separator + draw(st.sampled_from(["(none)", "a;b"]))
    header = names + ["codes"] + (["id"] if with_id else [])
    header = draw(st.permutations(header))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(header)
    for i, row in enumerate(rows):
        cells = [row[h] for h in header]
        writer.writerow(cells[:-1] if i in ragged else cells)
        buf.write(end * draw(st.integers(0, 2)))  # blank lines, which the line numbers count
    text = buf.getvalue()
    if draw(st.booleans()):  # no line end after the last line
        text = text.removesuffix(end)
    kwargs = dict(label_column="codes", label_separator=separator, id_column="id" if with_id else None)
    if draw(st.booleans()):  # a declared schema: the feature columns in header order
        kind = dict(zip(names, kinds))
        kwargs["attributes"] = tuple(
            AttributeMeta(h, NUMERIC)
            if kind[h] == "numeric"
            else AttributeMeta(h, NOMINAL, DOMAINS[kind[h]])
            for h in header
            if h in kind
        )
    return text, kwargs


@settings(deadline=None)
@given(corpora())
def test_load_csv_agrees_with_the_per_row_oracle(corpus):
    text, kwargs = corpus
    got, expected = outcome(load_csv, text, **kwargs), outcome(oracle_load_csv, text, **kwargs)
    assert type(got) is type(expected), (got, expected)
    if isinstance(got, str):
        assert got == expected
    else:
        assert_same_dataset(got, expected)
