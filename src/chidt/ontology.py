"""ICD-10-style code hierarchy, valid-combination registry, and term lexicon.

The registry is what turns "impossible combination of codes" into a test:
a predicted LabelSet is possible iff it is non-empty, violates no declared
exclusion group, and appears in the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .data import AttributeMeta, Dataset, BINARY_DOMAIN, _distinct_labelsets
from .errors import ValidationError
from .jsondoc import Fields, code_set, code_sets, distinct, fields, items, loads, one_of, strings, text

LEVELS = ("concept", "major", "minor")

REASON_OK = "ok"
REASON_EMPTY = "empty"
REASON_UNREGISTERED = "unregistered"
REASON_EXCLUSION = "exclusion-violated"
# a cascade row's reason code is its index here; 0 means the row passed the check
REASONS = (REASON_OK, REASON_EMPTY, REASON_EXCLUSION, REASON_UNREGISTERED)


def _read_code_node(doc, where: str, parent_level: str | None) -> tuple:
    """``(code, level, children)`` of one node, its title checked and dropped."""
    f = Fields(doc, where, ("code", "title", "children", "level"), ("code",))
    if parent_level == "minor":
        raise ValidationError(f"{where}: node nested deeper than the minor level")
    default = "concept" if parent_level is None else LEVELS[LEVELS.index(parent_level) + 1]
    level = f.get("level", one_of, default, choices=LEVELS)
    children = f.get("children", items, [], entry=_read_code_node, parent_level=level)
    code = f.get("code", text)
    f.get("title", text, "", empty=True)
    return code, level, children


def load_hierarchy(content: str) -> frozenset:
    """The codes of a concept / major / minor code tree in JSON (a node object or a list of roots).

    Node objects carry ``code``, ``title`` and ``children``; level defaults
    to the node's depth (roots are concepts) and may be overridden with an
    explicit ``level`` field. Every field is read first. Then, depth first
    in document order: no code repeats, a concept's children are majors and
    a major's are minors, and every minor code starts with its major code
    followed by '.' (the prefix rule, as in ICD-10: I21.0 under I21).
    """
    doc = loads(content, "hierarchy")
    if type(doc) is list:
        roots = items(doc, "hierarchy", _read_code_node, parent_level=None)
    else:
        roots = [_read_code_node(doc, "hierarchy", None)]
    codes: set = set()
    stack = [(root, None, None) for root in reversed(roots)]
    while stack:
        (code, level, children), parent, parent_level = stack.pop()
        if code in codes:
            raise ValidationError(f"duplicate code {code!r} in hierarchy")
        if parent is not None:
            expected = LEVELS[LEVELS.index(parent_level) + 1]
            if level != expected:
                raise ValidationError(f"{parent_level} {parent!r} may only have {expected} children, got {code!r}")
            if level == "minor" and not code.startswith(parent + "."):
                raise ValidationError(f"minor {code!r} does not extend its major {parent!r} (prefix rule)")
        codes.add(code)
        stack.extend((child, code, level) for child in reversed(children))
    return frozenset(codes)


# ---------------------------------------------------------------------------
# Valid-combination registry
# ---------------------------------------------------------------------------

PROVENANCE_OBSERVED = "observed"
PROVENANCE_DECLARED = "declared"
PROVENANCES = (PROVENANCE_OBSERVED, PROVENANCE_DECLARED)


def combo_key(labels: Iterable[str]) -> str:
    """Canonical text form of a code combination (sorted, ';'-joined)."""
    return ";".join(sorted(labels))


@dataclass(frozen=True)
class ValidCombinationRegistry:
    """The set of label combinations considered possible, with provenance."""

    combinations: frozenset
    provenance: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        combos = frozenset(frozenset(c) for c in self.combinations)
        if frozenset() in combos:
            raise ValidationError("the empty combination can never be valid")
        object.__setattr__(self, "combinations", combos)
        prov = {frozenset(k): v for k, v in dict(self.provenance).items()}
        for combo in combos:
            prov.setdefault(combo, PROVENANCE_DECLARED)
        for combo, p in prov.items():
            if combo not in combos:
                raise ValidationError(f"provenance entry for unknown combination {combo_key(combo)!r}")
            if p not in PROVENANCES:
                raise ValidationError(f"unknown provenance {p!r}")
        object.__setattr__(self, "provenance", prov)

    def __contains__(self, labels) -> bool:
        return frozenset(labels) in self.combinations

    def __len__(self) -> int:
        return len(self.combinations)

    def merged(self, other: "ValidCombinationRegistry") -> "ValidCombinationRegistry":
        """Union of both registries; existing provenance wins on overlap."""
        prov = dict(other.provenance)
        prov.update(self.provenance)
        return ValidCombinationRegistry(self.combinations | other.combinations, prov)

    def to_dict(self) -> dict:
        entries = sorted(self.combinations, key=combo_key)
        return {
            "combinations": [
                {"codes": sorted(c), "provenance": self.provenance[c]} for c in entries
            ]
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ValidCombinationRegistry":
        return _read_registry(doc, "registry")


def _read_registry(doc, where: str) -> ValidCombinationRegistry:
    f = Fields(doc, where, ("combinations",))
    entries = f.get("combinations", items, [], entry=Fields, keys=("codes", "provenance"), required=("codes",))
    combos = distinct([e.get("codes", code_set) for e in entries], f.path("combinations"), "combination", sorted)
    prov = {
        combo: e.get("provenance", one_of, PROVENANCE_DECLARED, choices=PROVENANCES)
        for combo, e in zip(combos, entries)
    }
    return ValidCombinationRegistry(frozenset(prov), prov)


def observed_registry(ds: Dataset) -> ValidCombinationRegistry:
    """Registry of the distinct non-empty LabelSets appearing in ``ds``."""
    combos = [labels for labels in _distinct_labelsets(ds.Y, ds.label_alphabet)[0] if labels]
    return ValidCombinationRegistry(frozenset(combos), dict.fromkeys(combos, PROVENANCE_OBSERVED))


@dataclass(frozen=True)
class ExclusionGroup:
    """Codes declared pairwise mutually exclusive."""

    codes: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", frozenset(self.codes))
        if len(self.codes) < 2:
            raise ValidationError("an exclusion group needs at least two codes")


def load_exclusions(content: str, codes: frozenset | None = None) -> tuple:
    """Parse a JSON array of code arrays; each code must be in ``codes`` (a hierarchy's) if given."""
    groups = tuple(map(ExclusionGroup, code_sets(loads(content, "exclusions"), "exclusions")))
    for group in groups if codes is not None else ():
        unknown = [c for c in sorted(group.codes) if c not in codes]
        if unknown:
            raise ValidationError(f"exclusion group references unknown codes: {unknown}")
    return groups



def is_valid(
    registry: ValidCombinationRegistry,
    exclusions: Sequence[ExclusionGroup],
    labels,
):
    """Classify a LabelSet as possible or a known error.

    Checks run in a fixed order so failure reasons are deterministic:
    empty set, then exclusion groups, then registry membership.
    """
    labels = frozenset(labels)
    if not labels:
        return False, REASON_EMPTY
    for group in exclusions:
        if len(labels & group.codes) >= 2:
            return False, REASON_EXCLUSION
    if labels not in registry:
        return False, REASON_UNREGISTERED
    return True, REASON_OK


# ---------------------------------------------------------------------------
# Term lexicon
# ---------------------------------------------------------------------------


def normalize_term(term: str) -> str:
    """Lowercase, trim, and collapse internal whitespace (idempotent)."""
    return " ".join(term.strip().lower().split())


@dataclass(frozen=True)
class TermLexicon:
    """Mapping from normalized discharge-summary terms to binary feature names."""

    mapping: Mapping

    def __post_init__(self) -> None:
        cleaned: dict = {}
        for term, targets in dict(self.mapping).items():
            key = normalize_term(str(term))
            if not key:
                raise ValidationError("lexicon contains a blank term")
            cleaned.setdefault(key, set()).update(str(t) for t in targets)
        object.__setattr__(self, "mapping", {k: frozenset(v) for k, v in cleaned.items()})

    def targets(self) -> frozenset:
        out = set()
        for t in self.mapping.values():
            out |= t
        return frozenset(out)

    @classmethod
    def from_json(cls, content: str) -> "TermLexicon":
        doc = fields(loads(content, "lexicon"), "lexicon")
        return cls({term: strings(targets, f"lexicon {term!r}") for term, targets in doc.items()})


def map_terms(lexicon: TermLexicon, terms: Iterable[str], schema: Sequence[AttributeMeta]):
    """Binary presence vector for a bag of terms.

    A feature is set to 1 iff some normalized input term maps to it, and
    to the index of its value ``"0"`` otherwise; terms with no lexicon
    entry are ignored and counted. Every lexicon target must be a binary
    {0,1} feature of the schema, and every feature must be nominal with a
    value ``"0"``: a bag of terms says nothing about a lab value.

    Returns:
        (feature tuple aligned with the schema, ignored-term count)
    """
    positions = {attr.name: i for i, attr in enumerate(schema) if attr.is_binary}
    missing = sorted(lexicon.targets() - set(positions))
    if missing:
        raise ValidationError(f"lexicon targets features absent from the schema: {missing}")
    unset = next((a.name for a in schema if a.is_numeric or "0" not in a.values), None)
    if unset is not None:
        raise ValidationError(f"term bags cannot set attribute {unset!r}: it is not nominal with a value '0'")

    vector = [a.values.index("0") for a in schema]
    ignored = 0
    for term in terms:
        key = normalize_term(term)
        targets = lexicon.mapping.get(key)
        if targets is None:
            ignored += 1
            continue
        for name in targets:
            vector[positions[name]] = BINARY_DOMAIN.index("1")
    return tuple(vector), ignored
