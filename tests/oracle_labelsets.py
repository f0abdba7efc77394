"""The label-set grouping that ``chidt.data._distinct_labelsets`` replaced, kept as a test oracle.

Rows are bit-packed into byte keys and grouped by ``np.unique(axis=0)``,
which sorts them as one void key per row: the byte order of the packed
rows. For every label indicator, ``_distinct_labelsets`` must give the
same distinct sets, in the same order, and the same per-row index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def oracle_distinct_labelsets(indicator: np.ndarray, codes: Sequence[str]):
    """(distinct label sets, per-row index into them) of a label-indicator matrix."""
    if not len(indicator):
        return [], np.zeros(0, dtype=np.intp)
    packed = np.packbits(indicator, axis=1)
    _, first, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    names = np.asarray(codes, dtype=object)
    distinct = [frozenset(names[indicator[i]]) for i in first]
    return distinct, inverse.reshape(-1)
