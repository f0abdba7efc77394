"""``_scan``, the whole-array reader of quote-free CSV text, against ``_read_rows``, the ``csv.reader`` one.

Random ASCII texts free of '"' and '\\r' mix blank lines, a missing final
newline, trailing commas, empty and space-only cells, NUL, the characters
``str.splitlines`` would cut at ('\\x0b', '\\x0c', '\\x1c'), cells of 7 to 35
characters (keys of two to four words, and text past 32 bytes) and ragged rows, some under a
lowered ``csv.field_size_limit``. Both readers must give the same table, cell
for cell, or fail with the same message. Text holding a '"', a '\\r' or a
non-ASCII character goes to ``csv.reader``.
A deeper run: ``python -m pytest tests/test_csv_scan.py --hypothesis-profile=oracle-deep``.
"""

from __future__ import annotations

import contextlib
import csv

import pytest
from hypothesis import example, given, settings, strategies as st

from chidt import data
from chidt.data import NOMINAL, NUMERIC, _read_rows, _scan, load_csv
from chidt.errors import ValidationError

# short cells, and long ones that share their first 7, 8, 15, 31 or 32 bytes, so that keys differ only in a
# later word or in the text past 32 bytes
CELL = st.text(st.sampled_from("ab1 .-_:;\t\x00\x0b\x0c\x1c"), max_size=3) | st.tuples(
    st.sampled_from(["x" * 7, "x" * 8, "x" * 15, "x" * 31, "x" * 32]), st.text(st.sampled_from("y\x00"), max_size=3)
).map("".join)


@contextlib.contextmanager
def field_limit(limit: int | None):
    """``csv.field_size_limit`` set to ``limit`` (None leaves it), restored on exit."""
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        yield
    finally:
        csv.field_size_limit(old)


def table(read, text: str):
    """``read(text)`` with each column spelled out cell by cell, or the message it fails with."""
    try:
        header, lines, widths, columns = read(text)
    except ValidationError as exc:
        return str(exc)
    if not header:  # every line blank
        return None
    if columns is not None:
        for cells, inverse in columns:
            assert len(set(cells)) == len(cells) and set(inverse.tolist()) == set(range(len(cells)))
        columns = [[cells[k] for k in inverse] for cells, inverse in columns]
    return header, lines.tolist(), widths.tolist(), columns


@st.composite
def texts(draw) -> str:
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 5 + ["blank", "trailing comma", "ragged"]))
        if kind == "blank":
            lines.append("")
            continue
        n = draw(st.integers(1, 6)) if kind == "ragged" else width - (kind == "trailing comma")
        line = ",".join(draw(st.lists(CELL, min_size=n, max_size=n)))
        lines.append(line + "," if kind == "trailing comma" else line)
    text = "\n".join(lines)
    return text + "\n" if lines and draw(st.booleans()) else text


# one column of cells that differ only in their last byte, at every boundary of a word and of the text past 32 bytes
BOUNDARIES = "a\n" + "\n".join("x" * n + tail for n in (1, 7, 8, 15, 16, 31, 32, 33) for tail in ("", "\x00", "y"))


@settings(deadline=None)
@given(texts(), st.sampled_from([None, None, None, 2, 8]))
@example(BOUNDARIES, None)
def test_scan_agrees_with_csv_reader(text, limit):
    with field_limit(limit):
        assert table(_scan, text) == table(_read_rows, text)


@pytest.mark.parametrize(
    "text, values",
    [
        ('a,codes\n"1,5",x\n2,y\n3,z\n', ("1,5", "2", "3")),
        ("a,codes\r\n1,x\r\n2,y\r\n", ("1", "2")),
        ("a,codes\n1,x\nü,y\n", ("1", "ü")),
    ],
    ids=["quote", "CR", "non-ASCII"],
)
def test_other_text_goes_to_csv_reader(monkeypatch, text, values):
    def refuse(content):
        raise AssertionError("_scan read text it cannot")

    monkeypatch.setattr(data, "_scan", refuse)
    ds = load_csv(text, label_column="codes")
    assert [(a.name, a.kind, a.values) for a in ds.attributes] == [("a", NOMINAL, values)]
    assert ds.X[:, 0].tolist() == list(range(len(values))) and ds.ids == tuple(f"r{i}" for i in range(len(values)))


def test_quote_free_ascii_goes_to_scan(monkeypatch):
    def refuse(content):
        raise AssertionError("csv.reader read quote-free ASCII text")

    monkeypatch.setattr(data, "_read_rows", refuse)
    ds = load_csv("id,g,codes\np1, 1.5 ,I21.0\n\np2,2,I21.0;I25.1\np3,3,", label_column="codes", id_column="id")
    assert ds.attributes[0].kind == NUMERIC and ds.X[:, 0].tolist() == [1.5, 2.0, 3.0]
    assert ds.ids == ("p1", "p2", "p3") and ds.label_alphabet == ("I21.0", "I25.1")


@pytest.mark.parametrize("quote", ["", '"'], ids=["scan", "csv.reader"])
def test_a_field_over_the_limit_is_malformed(quote):
    old = csv.field_size_limit()
    with field_limit(8):
        assert load_csv(f"a,codes\n{quote}12345678{quote},x\n", label_column="codes").attributes[0].values == (
            "12345678",
        )
        with pytest.raises(ValidationError, match=r"^CSV input is malformed: field larger than field limit \(8\)$"):
            load_csv(f"a,codes\n{quote}123456789{quote},x\n", label_column="codes")
    assert csv.field_size_limit() == old
