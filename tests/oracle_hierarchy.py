"""The tree-building hierarchy reader that ``chidt.ontology.load_hierarchy`` replaced, kept as a test oracle.

``load_hierarchy`` here reads every node into a ``CodeNode`` and registers
the tree in a ``CodeHierarchy``, recursively, checking duplicate codes, the
concept / major / minor levels and the prefix rule as it goes. For every
document, ``chidt.ontology.load_hierarchy`` must give the set of codes this
``CodeHierarchy`` holds, or fail with the identical message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from chidt.errors import ValidationError
from chidt.jsondoc import Fields, items, loads, one_of, text
from chidt.ontology import LEVELS


@dataclass(frozen=True)
class CodeNode:
    """One node of the three-level code tree."""

    code: str
    title: str
    level: str
    children: tuple = ()

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValidationError(f"unknown hierarchy level {self.level!r} for {self.code!r}")
        object.__setattr__(self, "children", tuple(self.children))


class CodeHierarchy:
    """Concept / major / minor code tree.

    Every minor code must start with its parent major code followed by '.'
    (the prefix rule), matching ICD-10 notation (I21.0 under I21).
    """

    def __init__(self, roots: Sequence[CodeNode]):
        self.roots = tuple(roots)
        self._nodes: dict = {}
        for root in self.roots:
            self._register(root, None)

    def _register(self, node: CodeNode, parent: CodeNode | None) -> None:
        if node.code in self._nodes:
            raise ValidationError(f"duplicate code {node.code!r} in hierarchy")
        if parent is None:
            pass
        elif parent.level == "concept" and node.level != "major":
            raise ValidationError(f"concept {parent.code!r} may only have major children, got {node.code!r}")
        elif parent.level == "major" and node.level != "minor":
            raise ValidationError(f"major {parent.code!r} may only have minor children, got {node.code!r}")
        elif parent.level == "minor":
            raise ValidationError(f"minor {parent.code!r} must be a leaf, found child {node.code!r}")
        if node.level == "minor" and node.children:
            raise ValidationError(f"minor {node.code!r} must be a leaf")
        if parent is not None and node.level == "minor" and not node.code.startswith(parent.code + "."):
            raise ValidationError(f"minor {node.code!r} does not extend its major {parent.code!r} (prefix rule)")
        self._nodes[node.code] = node
        for child in node.children:
            self._register(child, node)

    def __contains__(self, code: str) -> bool:
        return code in self._nodes


def _read_code_node(doc, where: str, parent_level: str | None) -> CodeNode:
    f = Fields(doc, where, ("code", "title", "children", "level"), ("code",))
    if parent_level == "minor":
        raise ValidationError(f"{where}: node nested deeper than the minor level")
    default = "concept" if parent_level is None else LEVELS[LEVELS.index(parent_level) + 1]
    level = f.get("level", one_of, default, choices=LEVELS)
    children = f.get("children", items, [], entry=_read_code_node, parent_level=level)
    return CodeNode(f.get("code", text), f.get("title", text, "", empty=True), level, children)


def load_hierarchy(content: str) -> CodeHierarchy:
    """Build a CodeHierarchy from JSON (a node object or a list of roots).

    Node objects carry ``code``, ``title`` and ``children``; level defaults
    to the node's depth (roots are concepts) and may be overridden with an
    explicit ``level`` field.
    """
    doc = loads(content, "hierarchy")
    if type(doc) is list:
        roots = items(doc, "hierarchy", _read_code_node, parent_level=None)
    else:
        roots = [_read_code_node(doc, "hierarchy", None)]
    return CodeHierarchy(roots)


def oracle_codes(content: str) -> frozenset:
    """The set of codes that the ``CodeHierarchy`` read from ``content`` holds."""
    return frozenset(load_hierarchy(content)._nodes)
