"""``_distinct_labelsets`` against the ``np.unique(axis=0)`` grouping it replaced (``tests/oracle_labelsets.py``).

Random label indicators have 0 to 40 rows drawn, with many repeats, from a
pool of a few distinct rows, over 0, 1, 7, 8, 9, 63, 64, 65 or 130 codes:
each side of a byte and of an 8-byte word. Pool rows are random, empty,
full, or one code set at an edge of a byte or a word. Both must give the
same distinct sets in the same order and the same per-row index.
A deeper run: ``python -m pytest tests/test_labelset_oracle.py --hypothesis-profile=oracle-deep``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from chidt.data import _distinct_labelsets

from oracle_labelsets import oracle_distinct_labelsets

WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 130)


@st.composite
def indicators(draw):
    width = draw(st.sampled_from(WIDTHS))
    edges = sorted({j for j in (0, 7, 8, 63, 64, width - 1) if 0 <= j < width})
    pattern = st.one_of(
        st.integers(0, 2**width - 1),
        st.sampled_from([0, 2**width - 1] + [1 << j for j in edges]),
    )
    pool = draw(st.lists(pattern, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    bits = [[(pool[i] >> j) & 1 for j in range(width)] for i in picks]
    return np.array(bits, dtype=bool).reshape(len(picks), width)


@settings(deadline=None)
@given(indicator=indicators())
def test_distinct_labelsets_equal_the_unique_grouping(indicator):
    codes = [f"C{j:03d}" for j in range(indicator.shape[1])]
    distinct, inverse = _distinct_labelsets(indicator, codes)
    want_distinct, want_inverse = oracle_distinct_labelsets(indicator, codes)
    assert distinct == want_distinct
    assert inverse.dtype == np.intp and np.array_equal(inverse, want_inverse)


def test_no_codes_is_one_empty_set():
    distinct, inverse = _distinct_labelsets(np.zeros((5, 0), dtype=bool), [])
    assert distinct == [frozenset()]
    assert inverse.dtype == np.intp and inverse.tolist() == [0] * 5


def test_no_rows_is_no_sets():
    for width in (0, 3, 65):
        distinct, inverse = _distinct_labelsets(np.zeros((0, width), dtype=bool), [f"C{j}" for j in range(width)])
        assert distinct == [] and inverse.dtype == np.intp and inverse.shape == (0,)
