"""Shared fixtures: the classic 14-instance weather corpus and repo fixture paths."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from chidt.data import AttributeMeta, Dataset, NOMINAL, NUMERIC, Record

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Quinlan's play/don't-play corpus: one nominal, two numeric, one binary attribute
WEATHER_ROWS = [
    ("sunny", 85, 85, "FALSE", "no"),
    ("sunny", 80, 90, "TRUE", "no"),
    ("overcast", 83, 86, "FALSE", "yes"),
    ("rainy", 70, 96, "FALSE", "yes"),
    ("rainy", 68, 80, "FALSE", "yes"),
    ("rainy", 65, 70, "TRUE", "no"),
    ("overcast", 64, 65, "TRUE", "yes"),
    ("sunny", 72, 95, "FALSE", "no"),
    ("sunny", 69, 70, "FALSE", "yes"),
    ("rainy", 75, 80, "FALSE", "yes"),
    ("sunny", 75, 70, "TRUE", "yes"),
    ("overcast", 72, 90, "TRUE", "yes"),
    ("overcast", 81, 75, "FALSE", "yes"),
    ("rainy", 71, 91, "TRUE", "no"),
]

OUTLOOK_VALUES = ("overcast", "rainy", "sunny")
WINDY_VALUES = ("FALSE", "TRUE")
WEATHER_CLASSES = ("no", "yes")


@pytest.fixture(scope="session")
def weather():
    """(X, y, attributes, class_names) for the weather corpus."""
    attributes = (
        AttributeMeta("outlook", NOMINAL, values=OUTLOOK_VALUES, index=0),
        AttributeMeta("temperature", NUMERIC, index=1),
        AttributeMeta("humidity", NUMERIC, index=2),
        AttributeMeta("windy", NOMINAL, values=WINDY_VALUES, index=3),
    )
    X = np.array(
        [
            [OUTLOOK_VALUES.index(o), t, h, WINDY_VALUES.index(w)]
            for o, t, h, w, _ in WEATHER_ROWS
        ],
        dtype=np.float64,
    )
    y = np.array([WEATHER_CLASSES.index(c) for *_, c in WEATHER_ROWS], dtype=np.int64)
    return X, y, attributes, WEATHER_CLASSES


def binary_attrs(n: int):
    """n binary {0,1} nominal attributes named f0..f{n-1}."""
    return tuple(AttributeMeta(f"f{i}", NOMINAL, values=("0", "1"), index=i) for i in range(n))


def make_dataset(feature_rows, labelsets, alphabet=None, roles=None):
    """Dataset over binary attributes from integer feature rows and label iterables."""
    n = len(feature_rows[0])
    attrs = binary_attrs(n)
    if alphabet is None:
        alphabet = sorted(set().union(*[set(ls) for ls in labelsets]) or set())
    records = tuple(
        Record(
            id=f"r{i}",
            features=tuple(int(v) for v in row),
            labels=frozenset(ls),
            roles=(roles or {}).get(i, {}),
        )
        for i, (row, ls) in enumerate(zip(feature_rows, labelsets))
    )
    return Dataset.from_records(attributes=attrs, label_alphabet=tuple(alphabet), records=records)
