"""Loaders, split protocol, and synthetic generator."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from chidt.data import (
    AttributeMeta,
    Dataset,
    GeneratorConfig,
    GeneratorProfile,
    NOMINAL,
    NUMERIC,
    ROLE_TAGS,
    cover_all_labels_split,
    export_csv,
    generate_synthetic,
    load_csv,
    _principal_columns,
    label_indicator,
)
from chidt.errors import ValidationError

from conftest import assert_same_dataset, row_labels

CSV_BASIC = """id,fever,bp,codes
p1,1,120.5,I21.0;I25.1
p2,0,131.25,I21.0
p3,1,140.75,
"""


def labels(ds: Dataset, rid: str) -> frozenset:
    """The codes of the record of ``ds`` whose id is ``rid``."""
    return row_labels(ds)[ds.ids.index(rid)]


class TestLoadCsv:
    def test_multi_label_cell(self):
        ds = load_csv(CSV_BASIC, label_column="codes", id_column="id")
        assert labels(ds, "p1") == frozenset({"I21.0", "I25.1"})
        assert ds.label_alphabet == ("I21.0", "I25.1")

    def test_empty_label_cell_loads_as_empty_set(self):
        ds = load_csv(CSV_BASIC, label_column="codes", id_column="id")
        assert labels(ds, "p3") == frozenset()

    def test_binary_column_inferred_nominal(self):
        # oracle: apply the inference rule directly to the column's cells
        cells = ["1", "0", "1"]
        rule_numeric = len(set(cells)) > 2 and all(_is_number(c) for c in cells)
        assert not rule_numeric
        ds = load_csv(CSV_BASIC, label_column="codes", id_column="id")
        fever = ds.attributes[0]
        assert fever.kind == NOMINAL
        assert fever.values == ("0", "1")

    def test_many_valued_numeric_column_inferred_numeric(self):
        ds = load_csv(CSV_BASIC, label_column="codes", id_column="id")
        assert ds.attributes[1].kind == NUMERIC
        assert ds.X[ds.ids.index("p2"), 1] == 131.25

    def test_ragged_row_rejected(self):
        bad = "a,b,codes\n1,2\n"
        with pytest.raises(ValidationError, match="expected 3 cells"):
            load_csv(bad, label_column="codes")

    def test_empty_header_rejected(self):
        with pytest.raises(ValidationError):
            load_csv("", label_column="codes")
        with pytest.raises(ValidationError, match="blank column"):
            load_csv("a,,codes\n1,2,x\n", label_column="codes")

    def test_missing_feature_cell_rejected(self):
        bad = "a,b,codes\n1,,x\n"
        with pytest.raises(ValidationError, match="missing value"):
            load_csv(bad, label_column="codes")

    def test_unparseable_numeric_cell_with_explicit_schema(self):
        schema = (AttributeMeta("a", NUMERIC),)
        with pytest.raises(ValidationError, match="unparseable numeric"):
            load_csv("a,codes\noops,x\n", label_column="codes", attributes=schema)

    def test_digit_grouping_is_no_number(self):
        # float() reads '1_000' as 1000.0; a finite decimal number has no '_'
        text = "id,x,codes\nr1,1_000,A\nr2,2,A\nr3,3,B\n"
        ds = load_csv(text, label_column="codes", id_column="id")
        assert (ds.attributes[0].kind, ds.attributes[0].values) == (NOMINAL, ("1_000", "2", "3"))
        with pytest.raises(ValidationError, match=r"^line 2: unparseable numeric cell '1_000' in 'x'$"):
            load_csv(text, label_column="codes", id_column="id", attributes=(AttributeMeta("x", NUMERIC),))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_numeric_cell_names_its_line(self, cell):
        schema = (AttributeMeta("age", NUMERIC),)
        with pytest.raises(ValidationError, match=f"^line 3: non-finite value '{cell}' in 'age'$"):
            load_csv(f"age,codes\n1.5,a\n{cell},b\n", label_column="codes", attributes=schema)

    def test_value_outside_declared_domain_names_its_line(self):
        schema = (AttributeMeta("f", NOMINAL, values=("0", "1")), AttributeMeta("g", NUMERIC))
        with pytest.raises(ValidationError, match=r"^line 3: value '7' outside declared domain of 'f'$"):
            load_csv("f,g,codes\n0,1.5,a\n7,2.5,b\n", label_column="codes", attributes=schema)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,codes\n1,2,x\n\n1,,x\n", "line 4: missing value in column 'b' (unsupported)"),
            ("a,codes\n\n\n1,I21.0:XX\n", "line 4: unknown role tag 'XX' in label cell"),
            ('a,codes\n1,"x\ny"\n2,I21.0:XX\n', "line 4: unknown role tag 'XX' in label cell"),
        ],
    )
    def test_line_numbers_count_blank_lines_and_quoted_newlines(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_csv(text, label_column="codes")

    def test_blank_lines_do_not_shift_generated_ids(self):
        assert load_csv("a,codes\n\n1,x\n\n\n2,y\n", label_column="codes").ids == ("r0", "r1")

    @pytest.mark.parametrize("text", ["a,codes\n1\r2,x\n", "a,codes\n1," + "x" * 200_000 + "\n"])
    def test_unparseable_csv_is_a_validation_error(self, text):
        with pytest.raises(ValidationError, match="CSV input is malformed"):
            load_csv(text, label_column="codes")

    SCHEMA = (AttributeMeta("f", NOMINAL, values=("0", "1")), AttributeMeta("g", NUMERIC))

    def test_faults_in_two_records_name_the_earlier_one(self):
        # the later record's bad cell is in the earlier column
        text = "f,g,codes\n0,1.5,a\n0,oops,b\n7,1.5,c\n"
        with pytest.raises(ValidationError, match=r"^line 3: unparseable numeric cell 'oops' in 'g'$"):
            load_csv(text, label_column="codes", attributes=self.SCHEMA)

    @pytest.mark.parametrize(
        "record, message",
        [
            (",7,a:XX,oops", "unknown role tag 'XX' in label cell"),
            (",7,a,oops", "empty id in column 'id'"),
            ("p2,7,a,oops", "value '7' outside declared domain of 'f'"),
            ("p2,0,a,oops", "unparseable numeric cell 'oops' in 'g'"),
        ],
    )
    def test_faults_in_one_record_report_label_then_id_then_features(self, record, message):
        text = f"id,f,codes,g\np1,0,a,1.5\n{record}\n"
        with pytest.raises(ValidationError, match=f"^line 3: {re.escape(message)}$"):
            load_csv(text, label_column="codes", id_column="id", attributes=self.SCHEMA)

    def test_a_bad_value_on_many_lines_names_the_first(self):
        text = "f,g,codes\n0,1.5,a\n" + "7,2.5,b\n" * 50
        with pytest.raises(ValidationError, match=r"^line 3: value '7' outside declared domain of 'f'$"):
            load_csv(text, label_column="codes", attributes=self.SCHEMA)
        with pytest.raises(ValidationError, match=r"^line 4: missing value in column 'a' \(unsupported\)$"):
            load_csv("a,codes\n1,x\n2,x\n" + ",x\n" * 50, label_column="codes")

    def test_header_only_corpus(self):
        ds = load_csv("f,g,codes\n", label_column="codes", attributes=self.SCHEMA)
        assert (len(ds), ds.attributes, ds.label_alphabet, ds.X.shape) == (0, self.SCHEMA, (), (0, 2))
        ds = load_csv("id,codes\n", label_column="codes", id_column="id")
        assert (len(ds), ds.attributes, ds.X.shape) == (0, (), (0, 0))
        # an inferred feature column without cells has no kind or domain
        with pytest.raises(ValidationError, match="^CSV input has no records to infer column 'f' from$"):
            load_csv("f,codes\n", label_column="codes")

    @pytest.mark.parametrize("cell, separator, code", [("x;(none)", ";", "(none)"), ("a;b|x", "|", "a;b")])
    def test_codes_reserved_by_the_reports_rejected(self, cell, separator, code):
        with pytest.raises(ValidationError, match=f"^code {re.escape(repr(code))} is reserved: "):
            load_csv(f"f,codes\n0,{cell}\n", label_column="codes", label_separator=separator)

    def test_role_tags_parsed(self):
        text = "a,codes\n1,I21.0:PDx;I25.1:SDx\n1,I21.0\n"
        ds = load_csv(text, label_column="codes")
        assert ds.label_alphabet == ("I21.0", "I25.1")
        assert [ROLE_TAGS[tag - 1] for tag in ds.roles[0]] == ["PDx", "SDx"]
        assert not ds.roles[1].any()
        assert ds.label_alphabet[_principal_columns(ds.Y, ds.roles)[0]] == "I21.0"

    def test_two_pdx_tags_rejected(self):
        text = "a,codes\n1,I21.0:PDx;I25.1:PDx\n"
        with pytest.raises(ValidationError, match="more than one code as PDx"):
            load_csv(text, label_column="codes")

    def test_duplicate_ids_rejected(self):
        text = "id,a,codes\np1,0,x\np1,1,y\n"
        with pytest.raises(ValidationError, match="duplicate record id"):
            load_csv(text, label_column="codes", id_column="id")

    @pytest.mark.parametrize("cell", ["", "  "])
    def test_empty_id_rejected(self, cell):
        text = f"id,a,codes\np1,0,x\n{cell},1,y\n"
        with pytest.raises(ValidationError, match="^line 3: empty id in column 'id'$"):
            load_csv(text, label_column="codes", id_column="id")

    def test_csv_round_trip(self):
        ds = load_csv(CSV_BASIC, label_column="codes", id_column="id")
        again = load_csv(export_csv(ds), label_column="codes", id_column="id")
        assert_same_dataset(again, ds)

    def test_csv_round_trip_with_roles_and_numerics(self):
        text = "x,y,codes\n0.5,a,I21.0:PDx\n1.5,b,I21.0;I25.1\n2.5,a,\n"
        ds = load_csv(text, label_column="codes")
        again = load_csv(export_csv(ds), label_column="codes", id_column="id")
        assert_same_dataset(again, ds)

    def test_quoted_cells_round_trip(self):
        # nominal values containing the delimiter and quote characters
        text = 'sym,codes\n"angina, unstable",I20.0\n"said ""stable""",I20.9\n'
        ds = load_csv(text, label_column="codes")
        assert ds.attributes[0].values == ('angina, unstable', 'said "stable"')
        again = load_csv(export_csv(ds), label_column="codes", id_column="id")
        assert_same_dataset(again, ds)


class TestColumnChecks:
    """The Dataset constructor, the one way to build a Dataset, checks the columns it is given."""

    ATTRS = (AttributeMeta("f", NOMINAL, values=("0", "1")), AttributeMeta("g", NUMERIC))

    def columns(self, X=((0, 1.5), (1, 2.5)), ids=("r0", "r1"), Y=((True, True), (False, True)), roles=None):
        return Dataset(self.ATTRS, ("a", "b"), ids, X, Y, roles)

    def test_valid_columns_are_stored_read_only(self):
        ds = self.columns(roles=[[1, 2], [0, 0]])
        assert not (ds.X.flags.writeable or ds.Y.flags.writeable or ds.roles.flags.writeable)
        assert (ds.X.dtype, ds.Y.dtype, ds.roles.dtype) == (np.float64, np.bool_, np.uint8)
        assert (ds.X.tolist(), ds.roles.tolist()) == ([[0, 1.5], [1, 2.5]], [[1, 2], [0, 0]])
        default = self.columns().roles
        assert default.dtype == np.uint8 and not default.any()
        # column j is the schema's attribute j: no attribute carries a number of its own to agree with it
        schema = (AttributeMeta("a", NUMERIC), AttributeMeta("b", NUMERIC))
        assert Dataset(schema, ("x",), ("r0",), [[1.0, 2.0]], [[True]]).attributes == schema
        ds = load_csv("a,b,codes\n1.5,2.5,x\n3,4,y\n", label_column="codes", attributes=schema)
        assert (ds.attributes, ds.X.tolist()) == (schema, [[1.5, 2.5], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("X", [["1", "1.5"], ["0", "2.5"]], r"X must hold integers or floats, not <U\d+ values"),
            ("X", [[False, True], [True, False]], "X must hold integers or floats, not bool values"),
            ("Y", [[2, "x"], [0, 1]], r"Y must hold bools, not <U\d+ values"),
            ("roles", [[300, 0], [0, 0]], "record 'r0': unknown roles tag 300 on 'a'"),
            ("Y", [[1, 0], [0, 1]], r"Y must hold bools, not int\d+ values"),
            ("roles", [[-1, 0], [0, 0]], "record 'r0': unknown roles tag -1 on 'a'"),
            ("roles", [[1.0, 0], [0, 0]], "roles must hold integers, not float64 values"),
        ],
        ids=["str X", "bool X", "non-bool Y", "roles 300", "int Y", "roles -1", "float roles"],
    )
    def test_a_column_of_another_kind_is_refused(self, column, value, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            self.columns(**{column: value})

    @pytest.mark.parametrize(
        "column, value",
        [("X", [[0, 1.5], [1]]), ("Y", [[True, True], [False]]), ("roles", [[1, 2], [0]])],
        ids=["X", "Y", "roles"],
    )
    def test_a_ragged_column_is_refused(self, column, value):
        message = f"^{column} must be a rectangular array, not sequences of unequal lengths$"
        with pytest.raises(ValidationError, match=message):
            self.columns(**{column: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_numeric_value(self, value):
        with pytest.raises(ValidationError, match="^record 'r1': non-finite value in 'g'$"):
            self.columns(X=((0, 1.5), (1, value)))

    @pytest.mark.parametrize("value", [0.5, 2, -1, np.nan])
    def test_nominal_value_outside_its_domain(self, value):
        with pytest.raises(ValidationError, match="^record 'r0': value index .* outside domain of 'f'$"):
            self.columns(X=((value, 1.5), (1, 2.5)))

    def test_wrong_feature_width(self):
        with pytest.raises(ValidationError, match=r"^X has shape \(2, 3\), expected \(2, 2\)$"):
            self.columns(X=((0, 1.5, 0), (1, 2.5, 0)))

    def test_features_that_are_not_numbers(self):
        with pytest.raises(ValidationError, match="^X must hold integers or floats, not object values$"):
            self.columns(X=np.array([[0, 1.5], [1, None]], dtype=object))

    @pytest.mark.parametrize("ids, message", [(("r0", "r0"), "duplicate record id 'r0'"), (("r0", ""), "empty id")])
    def test_duplicate_or_empty_ids(self, ids, message):
        with pytest.raises(ValidationError, match=message):
            self.columns(ids=ids)

    @pytest.mark.parametrize("code", ["(none)", "a;b"])
    def test_code_reserved_by_the_reports(self, code):
        with pytest.raises(ValidationError, match=f"^code {re.escape(repr(code))} is reserved: "):
            Dataset(self.ATTRS, (code,), ("r0",), np.array([[0, 1.5]]), np.array([[True]]))

    def test_two_pdx_tags(self):
        with pytest.raises(ValidationError, match="^record 'r0' tags more than one code as PDx$"):
            self.columns(roles=[[1, 1], [0, 0]])

    def test_role_on_an_absent_code(self):
        with pytest.raises(ValidationError, match="^record 'r1': role tag on code 'a' absent from its labels$"):
            self.columns(roles=[[0, 0], [2, 0]])


class TestCoverAllLabelsSplit:
    def _corpus_196(self):
        rng = random.Random(7)
        codes = [f"C{i:02d}" for i in range(11)]
        labelsets, X = [], []
        for _ in range(196):
            labelsets.append({rng.choice(codes)})
            if rng.random() < 0.3:
                labelsets[-1].add(rng.choice(codes))
            X.append([rng.randrange(2)])
        attrs = (AttributeMeta("f0", NOMINAL, values=("0", "1")),)
        ids = [f"r{i}" for i in range(196)]
        return Dataset(attrs, tuple(codes), ids, np.array(X), label_indicator(labelsets, codes))

    def test_53_of_196_covers_all_labels(self):
        ds = self._corpus_196()
        train_ids = cover_all_labels_split(ds, 53, seed=11)
        assert len(train_ids) == 53
        assert len(ds.record_ids() - train_ids) == 143
        assert train_ids <= ds.record_ids()
        train_labels = set().union(*(labels(ds, r) for r in train_ids))
        assert train_labels == set(ds.label_alphabet)

    def test_full_train_leaves_empty_test(self):
        ds = self._corpus_196()
        train_ids = cover_all_labels_split(ds, len(ds), seed=1)
        assert ds.record_ids() - train_ids == frozenset()

    def test_two_seeds_both_satisfy_coverage(self):
        ds = self._corpus_196()
        for seed in (3, 4):
            train_ids = cover_all_labels_split(ds, 53, seed=seed)
            covered = set().union(*(labels(ds, r) for r in train_ids))
            assert covered == set(ds.label_alphabet)
            assert train_ids <= ds.record_ids()

    def test_deterministic_for_fixed_seed(self):
        ds = self._corpus_196()
        assert cover_all_labels_split(ds, 53, seed=5) == cover_all_labels_split(ds, 53, seed=5)

    def test_infeasible_train_size(self):
        ds = self._corpus_196()
        with pytest.raises(ValidationError, match="cannot cover"):
            cover_all_labels_split(ds, 5, seed=0)
        with pytest.raises(ValidationError, match="exceeds record count"):
            cover_all_labels_split(ds, 500, seed=0)

    @pytest.mark.parametrize("train_size", [0, -3])
    def test_train_size_below_one_rejected(self, train_size):
        ds = self._corpus_196()
        with pytest.raises(ValidationError, match=f"^train size {train_size} must be at least 1$"):
            cover_all_labels_split(ds, train_size, seed=0)


class TestGenerateSynthetic:
    def test_single_profile_no_noise(self):
        cfg = GeneratorConfig(
            profiles=(GeneratorProfile(labels={"a"}, rates=(0.5, 0.5)),),
            n_records=40,
            noise_rate=0.0,
            seed=3,
        )
        ds, combos = generate_synthetic(cfg)
        assert combos == [frozenset({"a"})]
        assert ds.label_alphabet == ("a",) and ds.Y.all()

    def test_degenerate_rates_reproduce_template(self):
        cfg = GeneratorConfig(
            profiles=(GeneratorProfile(labels={"a", "b"}, rates=(1.0, 0.0, 1.0)),),
            n_records=25,
            noise_rate=0.0,
            seed=9,
        )
        ds, _ = generate_synthetic(cfg)
        assert (ds.X == [1, 0, 1]).all()

    def test_profile_counts_within_three_sigma(self):
        # multinomial oracle: n=300, p=1/3 per profile, sigma = sqrt(n*p*(1-p))
        profiles = tuple(
            GeneratorProfile(labels={c}, rates=(0.5,)) for c in ("a", "b", "c")
        )
        cfg = GeneratorConfig(profiles=profiles, n_records=300, noise_rate=0.0, seed=12)
        ds, _ = generate_synthetic(cfg)
        sigma = math.sqrt(300 * (1 / 3) * (2 / 3))
        for code in ("a", "b", "c"):
            count = row_labels(ds).count(frozenset({code}))
            assert abs(count - 100) <= 3 * sigma

    def test_bit_reproducible(self):
        cfg = GeneratorConfig(
            profiles=(
                GeneratorProfile(labels={"a"}, rates=(0.3, 0.7)),
                GeneratorProfile(labels={"a", "b"}, rates=(0.9, 0.1)),
            ),
            n_records=60,
            noise_rate=0.1,
            seed=21,
        )
        ds1, combos1 = generate_synthetic(cfg)
        ds2, combos2 = generate_synthetic(cfg)
        assert_same_dataset(ds1, ds2)
        assert combos1 == combos2

    def test_every_labelset_is_a_profile(self):
        cfg = GeneratorConfig(
            profiles=(
                GeneratorProfile(labels={"a"}, rates=(0.5, 0.5)),
                GeneratorProfile(labels={"b", "c"}, rates=(0.2, 0.8)),
            ),
            n_records=80,
            noise_rate=0.5,
            seed=4,
        )
        ds, combos = generate_synthetic(cfg)
        allowed = set(combos)
        assert set(row_labels(ds)) <= allowed

    def test_validation_errors(self):
        with pytest.raises(ValidationError, match="at least one profile"):
            GeneratorConfig(profiles=(), n_records=5)
        with pytest.raises(ValidationError, match="outside"):
            GeneratorProfile(labels={"a"}, rates=(1.5,))
        with pytest.raises(ValidationError, match="non-empty label set"):
            GeneratorProfile(labels=set(), rates=(0.5,))
        with pytest.raises(ValidationError, match="n_records"):
            GeneratorConfig(
                profiles=(GeneratorProfile(labels={"a"}, rates=(0.5,)),), n_records=0
            )

    def test_generated_csv_round_trips(self):
        cfg = GeneratorConfig(
            profiles=(
                GeneratorProfile(labels={"a"}, rates=(0.4, 0.6)),
                GeneratorProfile(labels={"b"}, rates=(0.7, 0.2)),
            ),
            n_records=30,
            noise_rate=0.05,
            seed=8,
        )
        ds, _ = generate_synthetic(cfg)
        again = load_csv(export_csv(ds), label_column="codes", id_column="id")
        assert_same_dataset(again, ds)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
