"""Hierarchy, registry, validity semantics, and the term lexicon."""

from __future__ import annotations

import json
import random

import pytest

from chidt.data import NOMINAL, NUMERIC, AttributeMeta, GeneratorConfig, GeneratorProfile, generate_synthetic
from chidt.errors import ValidationError
from chidt.ontology import (
    ExclusionGroup,
    TermLexicon,
    ValidCombinationRegistry,
    is_valid,
    load_exclusions,
    load_hierarchy,
    map_terms,
    normalize_term,
    observed_registry,
)

from conftest import DATA_DIR, binary_attrs, make_dataset, row_labels

SMALL_HIERARCHY = json.dumps(
    {
        "code": "CHD",
        "title": "concept",
        "children": [
            {
                "code": "I21",
                "title": "major",
                "children": [
                    {"code": "I21.0", "title": "minor a"},
                    {"code": "I21.9", "title": "minor b"},
                ],
            }
        ],
    }
)


class TestHierarchy:
    def test_small_tree_loads(self):
        h = load_hierarchy(SMALL_HIERARCHY)
        assert type(h) is frozenset
        assert h == {"CHD", "I21", "I21.0", "I21.9"}

    def test_prefix_violation(self):
        doc = json.loads(SMALL_HIERARCHY)
        doc["children"][0]["children"].append({"code": "I22.0", "title": "stray"})
        with pytest.raises(ValidationError, match="prefix rule"):
            load_hierarchy(json.dumps(doc))

    def test_duplicate_code_rejected(self):
        doc = json.loads(SMALL_HIERARCHY)
        doc["children"][0]["children"].append({"code": "I21.0", "title": "dup"})
        with pytest.raises(ValidationError, match="duplicate code"):
            load_hierarchy(json.dumps(doc))

    def test_depth_beyond_minor_rejected(self):
        doc = json.loads(SMALL_HIERARCHY)
        doc["children"][0]["children"][0]["children"] = [{"code": "I21.0.1", "title": "too deep"}]
        with pytest.raises(ValidationError):
            load_hierarchy(json.dumps(doc))

    def test_shipped_fixture_has_six_majors(self):
        h = load_hierarchy((DATA_DIR / "hierarchy_chd.json").read_text())
        assert len(h) == 34
        majors = sorted(code for code in h if code != "CHD" and "." not in code)
        assert majors == ["I20", "I21", "I22", "I23", "I24", "I25"]

    def test_level_override(self):
        root = {"code": "I21", "title": "major root", "children": [{"code": "X9", "title": "m"}]}
        assert load_hierarchy(json.dumps(root)) == {"I21", "X9"}
        # depth-based default shifts accordingly: under a major root, children become minors and obey the prefix rule
        with pytest.raises(ValidationError, match=r"^minor 'X9' does not extend its major 'I21' \(prefix rule\)$"):
            load_hierarchy(json.dumps({**root, "level": "major"}))


class TestRegistry:
    def test_single_combo_corpus(self):
        ds = make_dataset([(0,), (1,)], [{"I21.0"}, {"I21.0"}])
        reg = observed_registry(ds)
        assert reg.combinations == frozenset({frozenset({"I21.0"})})

    def test_empty_labelsets_contribute_nothing(self):
        ds = make_dataset([(0,), (1,), (0,), (1,)], [{"a"}, {"a", "b"}, {"a"}, set()])
        reg = observed_registry(ds)
        assert reg.combinations == frozenset({frozenset({"a"}), frozenset({"a", "b"})})

    def test_synthetic_noise_free_registry_equals_profiles(self):
        profiles = (
            GeneratorProfile(labels={"a"}, rates=(0.5, 0.5)),
            GeneratorProfile(labels={"b"}, rates=(0.1, 0.9)),
            GeneratorProfile(labels={"a", "c"}, rates=(0.9, 0.1)),
        )
        ds, combos = generate_synthetic(
            GeneratorConfig(profiles=profiles, n_records=120, noise_rate=0.0, seed=5)
        )
        assert observed_registry(ds).combinations == frozenset(combos)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValidationError, match="empty combination"):
            ValidCombinationRegistry(frozenset({frozenset()}))

    def test_merge_keeps_existing_provenance(self):
        left = observed_registry(make_dataset([(0,)], [{"a"}]))
        right = ValidCombinationRegistry([{"a"}, {"b"}])
        merged = left.merged(right)
        assert merged.provenance[frozenset({"a"})] == "observed"
        assert merged.provenance[frozenset({"b"})] == "declared"

    def test_json_round_trip(self):
        reg = ValidCombinationRegistry([{"a", "b"}, {"c"}])
        assert ValidCombinationRegistry.from_dict(reg.to_dict()) == reg


class TestIsValid:
    def test_empty_is_always_a_known_error(self):
        reg = ValidCombinationRegistry([{"a"}])
        assert is_valid(reg, [], frozenset()) == (False, "empty")

    def test_registered_combo_ok(self):
        reg = ValidCombinationRegistry([{"I21.0"}])
        assert is_valid(reg, [], {"I21.0"}) == (True, "ok")

    def test_exclusion_checked_before_registry(self):
        reg = ValidCombinationRegistry([{"I21.0", "I21.9"}])
        group = ExclusionGroup({"I21.0", "I21.9"})
        assert is_valid(reg, [group], {"I21.0", "I21.9"}) == (False, "exclusion-violated")

    def test_unregistered(self):
        reg = ValidCombinationRegistry([{"a"}, {"a", "b"}])
        assert is_valid(reg, [], {"a", "c"}) == (False, "unregistered")

    def test_membership_equivalence(self):
        reg = ValidCombinationRegistry([{"a"}, {"b", "c"}])
        for combo in ({"a"}, {"b"}, {"b", "c"}, {"a", "b"}):
            ok, reason = is_valid(reg, [], combo)
            assert ok == (frozenset(combo) in reg.combinations)
            assert (reason == "ok") == ok

    def test_every_observed_combo_validates(self):
        rng = random.Random(99)
        codes = ["a", "b", "c", "d"]
        for _ in range(100):
            labelsets = []
            for _ in range(rng.randrange(1, 12)):
                k = rng.randrange(0, 3)
                labelsets.append(set(rng.sample(codes, k)))
            ds = make_dataset([(0,)] * len(labelsets), labelsets, alphabet=codes)
            reg = observed_registry(ds)
            for labels in row_labels(ds):
                if labels:
                    assert is_valid(reg, [], labels) == (True, "ok")

    def test_exclusion_group_needs_two_codes(self):
        with pytest.raises(ValidationError, match="at least two"):
            ExclusionGroup({"a"})

    def test_load_exclusions_checks_hierarchy(self):
        h = load_hierarchy(SMALL_HIERARCHY)
        groups = load_exclusions('[["I21.0", "I21.9"]]', h)
        assert groups[0].codes == frozenset({"I21.0", "I21.9"})
        with pytest.raises(ValidationError, match="unknown codes"):
            load_exclusions('[["I21.0", "Z99"]]', h)


class TestLexicon:
    def test_normalize_idempotent(self):
        for raw in ("  Unstable   ANGINA ", "chest\tpain", "a  b   c"):
            once = normalize_term(raw)
            assert normalize_term(once) == once

    def test_single_term_sets_one_feature(self):
        lex = TermLexicon({"unstable angina": ["f3"]})
        schema = binary_attrs(5)
        vector, ignored = map_terms(lex, ["Unstable  Angina"], schema)
        assert vector == (0, 0, 0, 1, 0)
        assert ignored == 0

    def test_empty_bag_gives_zero_vector(self):
        lex = TermLexicon({"chest pain": ["f0"]})
        vector, ignored = map_terms(lex, [], binary_attrs(3))
        assert vector == (0, 0, 0)
        assert ignored == 0

    def test_duplicates_equal_dedup(self):
        lex = TermLexicon({"chest pain": ["f0"], "st elevation": ["f1", "f2"]})
        schema = binary_attrs(3)
        bag = ["chest pain", "st elevation", "chest pain", "CHEST PAIN"]
        v_dup, _ = map_terms(lex, bag, schema)
        v_set, _ = map_terms(lex, set(bag[:2]), schema)
        assert v_dup == v_set

    def test_unknown_terms_counted(self):
        lex = TermLexicon({"chest pain": ["f0"]})
        _, ignored = map_terms(lex, ["chest pain", "mystery", "mystery"], binary_attrs(1))
        assert ignored == 2

    def test_monotone_in_terms(self):
        lex = TermLexicon({"a": ["f0"], "b": ["f1"], "c": ["f0", "f2"]})
        schema = binary_attrs(4)
        rng = random.Random(17)
        universe = ["a", "b", "c", "junk"]
        for _ in range(50):
            base = [t for t in universe if rng.random() < 0.5]
            extra = base + [rng.choice(universe)]
            v1, _ = map_terms(lex, base, schema)
            v2, _ = map_terms(lex, extra, schema)
            assert all(b <= e for b, e in zip(v1, v2))

    def test_unset_feature_takes_the_index_of_its_value_0(self):
        lex = TermLexicon({"chest pain": ["f0"]})
        schema = binary_attrs(1) + (AttributeMeta("grade", NOMINAL, values=("-1", "0", "1")),)
        assert map_terms(lex, ["chest pain"], schema) == ((1, 1), 0)

    @pytest.mark.parametrize(
        "attr",
        [AttributeMeta("trop", NUMERIC), AttributeMeta("grade", NOMINAL, values=("high", "low"))],
    )
    def test_feature_without_an_absent_value_rejected(self, attr):
        lex = TermLexicon({"chest pain": ["f0"]})
        message = f"^term bags cannot set attribute '{attr.name}': it is not nominal with a value '0'$"
        with pytest.raises(ValidationError, match=message):
            map_terms(lex, ["chest pain"], binary_attrs(1) + (attr,))

    def test_missing_target_feature_rejected(self):
        lex = TermLexicon({"chest pain": ["not_there"]})
        with pytest.raises(ValidationError, match="absent from the schema"):
            map_terms(lex, ["chest pain"], binary_attrs(2))

    def test_shipped_lexicon_targets_generator_features(self):
        lex = TermLexicon.from_json((DATA_DIR / "lexicon_chd.json").read_text())
        gen = json.loads((DATA_DIR / "generator_chd.json").read_text())
        assert lex.targets() <= set(gen["features"])
