"""``load_hierarchy`` against the tree-building reader it replaced (``tests/oracle_hierarchy.py``).

Random documents are a node or a list of roots, nested up to 4 deep. Codes
come from a small pool, with repeats, empty strings and non-strings; titles
are of mixed types; nodes carry valid and invalid ``level`` overrides,
stray keys and non-list ``children``, and a few are not objects at all.
Both readers must give the same set of codes or fail with the identical
message.
A deeper run: ``python -m pytest tests/test_hierarchy_oracle.py --hypothesis-profile=oracle-deep``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from chidt.errors import ValidationError
from chidt.ontology import LEVELS, load_hierarchy

from oracle_hierarchy import oracle_codes

# codes a node at depth 1, 2, 3 or 4 mostly takes: concept, major and minor codes, two that break the prefix rule
# under either major (one lacks only the '.'), and one too deep; any depth may take any of them, so codes repeat
# and levels mismatch
CODES_AT_DEPTH = (("CHD", "I21"), ("I21", "I22", "X9"), ("I21.0", "I21.9", "I22.1", "I210", "X9"), ("I21.0.1",))
CODES = tuple(sorted(set(sum(CODES_AT_DEPTH, ()))))
ODD_CODES = ("", 7, None, True, ["I21"])
TITLES = ("", "Acute myocardial infarction", "t")
ODD_TITLES = (0, None, False, ["t"], {"t": 1})
BAD_LEVELS = ("leaf", "", 2, None)
NOT_NODES = ("I21", 3, None, [])
NOT_CHILD_LISTS = ({"code": "I21.0"}, "I21.0", 0, None)


def outcome(content: str, load):
    """The code set that ``load`` reads from ``content``, or the message it fails with."""
    try:
        return load(content)
    except ValidationError as exc:
        return str(exc)


def rarely(draw, n: int) -> bool:
    """True once in ``n`` draws: each fault is rare per node, so that many documents reach the tree checks."""
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def nodes(draw, depth: int = 1):
    """One hierarchy node at ``depth`` (roots are at 1), its children at most 4 deep."""
    if rarely(draw, 50):
        return draw(st.sampled_from(NOT_NODES))
    node = {}
    if not rarely(draw, 50):
        pool = ODD_CODES if rarely(draw, 20) else CODES if rarely(draw, 4) else CODES_AT_DEPTH[depth - 1]
        node["code"] = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        node["title"] = draw(st.sampled_from(ODD_TITLES if rarely(draw, 10) else TITLES))
    if rarely(draw, 8):
        node["level"] = draw(st.sampled_from(BAD_LEVELS if rarely(draw, 4) else LEVELS))
    if rarely(draw, 50):
        node[draw(st.sampled_from(["name", "Code", "parent"]))] = "x"
    if rarely(draw, 50):
        node["children"] = draw(st.sampled_from(NOT_CHILD_LISTS))
    elif depth < 3 and not rarely(draw, 4) or depth == 3 and rarely(draw, 8):
        node["children"] = draw(st.lists(nodes(depth + 1), max_size=3))
    return node


documents = st.one_of(nodes(), st.lists(nodes(), max_size=3))


@settings(deadline=None)
@given(documents)
def test_load_hierarchy_agrees_with_the_tree_oracle(doc):
    content = json.dumps(doc)
    got, expected = outcome(content, load_hierarchy), outcome(content, oracle_codes)
    assert type(got) is type(expected) and got == expected, (got, expected)


@pytest.mark.parametrize(
    "doc",
    [
        {"code": "CHD", "children": [{"code": "I21", "children": [{"code": "I21.0"}, {"code": "I21.0"}]}]},
        {"code": "CHD", "children": [{"code": "I21", "children": [{"code": "I22.1"}]}]},
        {"code": "CHD", "children": [{"code": "I21", "level": "minor"}]},
        {"code": "I21", "level": "major", "children": [{"code": "I21.0", "level": "major"}]},
        [{"code": "I21", "children": [{"code": "I21", "level": "major"}]}, {"code": 7}],
        [{"code": "CHD", "children": [{"code": "I21", "children": [{"code": "X9"}]}]}, {"code": "CHD"}],
        {"code": "CHD", "children": [{"code": "I21", "children": [{"code": "I21.0", "children": []}]}]},
        {"code": "CHD", "children": [{"code": "I21", "children": [{"code": "I210"}]}]},
        {"code": "I21", "title": 0},
        {"code": 7, "title": 0},
    ],
)
def test_hand_written_faults_agree(doc):
    content = json.dumps(doc)
    got, expected = outcome(content, load_hierarchy), outcome(content, oracle_codes)
    assert type(got) is type(expected) and got == expected, (got, expected)
