"""End-to-end CLI behavior: commands, exit codes, reproducibility."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chidt import cli
from chidt.cli import main
from chidt.data import Record

GEN_SECTION = {
    "n_records": 60,
    "noise_rate": 0.05,
    "features": ["f0", "f1", "f2", "f3"],
    "profiles": [
        {"labels": ["I20.0"], "rates": [0.9, 0.1, 0.2, 0.1]},
        {"labels": ["I21.0"], "rates": [0.1, 0.9, 0.2, 0.7]},
        {"labels": ["I21.0", "I25.1"], "rates": [0.2, 0.8, 0.9, 0.3]},
    ],
}


def write_config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "seed": 42,
        "out_dir": str(tmp_path / "out"),
        "paths": {
            "dataset": str(tmp_path / "out" / "corpus.csv"),
            "registry": str(tmp_path / "out" / "registry.json"),
            "model": str(tmp_path / "out" / "model.json"),
        },
        "generator": GEN_SECTION,
        "training": {"strategy": "label-powerset", "train_size": 20},
        "evaluation": {"mode": "multilabel", "protocol": "resubstitution"},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(args) -> int:
    return main([str(a) for a in args])


class TestGen:
    def test_writes_dataset_and_registry(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["gen", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "generated 60 records" in out
        assert (tmp_path / "out" / "corpus.csv").exists()
        registry = json.loads((tmp_path / "out" / "registry.json").read_text())
        assert len(registry["combinations"]) == 3

    def test_zero_records_is_a_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, generator={**GEN_SECTION, "n_records": 0})
        assert run(["gen", "--config", cfg]) == 1
        assert "n_records" in capsys.readouterr().err

    def test_missing_seed_is_a_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=None)
        assert run(["gen", "--config", cfg]) == 1
        assert "requires a seed" in capsys.readouterr().err

    def test_export_builds_no_record(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(Record, "__post_init__", lambda rec: built.append(rec.id))
        assert run(["gen", "--config", write_config(tmp_path)]) == 0
        assert built == []

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run(["gen", "--config", cfg]) == 0
        first = (tmp_path / "out" / "corpus.csv").read_bytes()
        first_reg = (tmp_path / "out" / "registry.json").read_bytes()
        assert run(["gen", "--config", cfg]) == 0
        assert (tmp_path / "out" / "corpus.csv").read_bytes() == first
        assert (tmp_path / "out" / "registry.json").read_bytes() == first_reg


class TestTrainEvalPredict:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["gen", "--config", cfg]) == 0
        assert run(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "trained label-powerset cascade on 20 records" in out
        model = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model["format"] == "chidt-model"
        assert len(model["training_ids"]) == 20

        assert run(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Total Number of Instances\t60" in out
        assert "[resubstitution-contaminated]" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["metrics"]["total"] == 60

        assert run(["predict", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,codes,triggered,reason"
        assert len(lines) == 61
        row = lines[1].split(",")
        assert row[2] in ("true", "false")
        assert row[3] in ("ok", "empty", "unregistered", "exclusion-violated")

        header_only = tmp_path / "header.csv"
        header_only.write_text((tmp_path / "out" / "corpus.csv").read_text().splitlines()[0] + "\n")
        assert run(["predict", "--config", cfg, "--input", header_only]) == 0
        assert (tmp_path / "out" / "predictions.csv").read_text() == "id,codes,triggered,reason\n"

    def test_bom_prefixed_corpus_trains_to_the_same_model(self, tmp_path):
        # spreadsheet exports start with a UTF-8 byte-order mark, here in front of a feature column's name
        assert run(["gen", "--config", write_config(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "corpus.csv").read_text().splitlines()]
        corpus = "".join(",".join(cells[1:2] + cells[:1] + cells[2:]) + "\n" for cells in rows)
        models = []
        for name, mark in (("plain", ""), ("bom", "\ufeff")):
            (tmp_path / f"{name}.csv").write_text(mark + corpus, encoding="utf-8")
            paths = {
                "dataset": str(tmp_path / f"{name}.csv"),
                "registry": str(tmp_path / "out" / "registry.json"),
                "model": str(tmp_path / name / "model.json"),
            }
            assert run(["train", "--config", write_config(tmp_path, paths=paths)]) == 0
            models.append((tmp_path / name / "model.json").read_bytes())
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbff0,id,")
        assert models[0] == models[1]

    @staticmethod
    def trained_for_terms(tmp_path) -> Path:
        cfg_doc = {
            "seed": 42,
            "out_dir": str(tmp_path / "out"),
            "paths": {
                "dataset": str(tmp_path / "out" / "corpus.csv"),
                "registry": str(tmp_path / "out" / "registry.json"),
                "model": str(tmp_path / "out" / "model.json"),
                "lexicon": str(tmp_path / "lexicon.json"),
            },
            "generator": GEN_SECTION,
            "training": {"strategy": "label-powerset", "train_size": 20},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_doc))
        (tmp_path / "lexicon.json").write_text(
            json.dumps({"chest pain": ["f0"], "st elevation": ["f1"], "old mi": ["f2"]})
        )
        run(["gen", "--config", cfg])
        run(["train", "--config", cfg])
        return cfg

    def test_tree_too_deep_for_json_fails_closed(self, tmp_path, capsys):
        # the code alternates along a numeric column: each split of an unpruned stage-2 tree cuts off one row
        corpus = tmp_path / "deep.csv"
        corpus.write_text("id,x,codes\n" + "".join(f"r{i},{i},{'I20.0' if i % 2 else 'I21.0'}\n" for i in range(600)))
        paths = {"dataset": str(corpus), "model": str(tmp_path / "out" / "model.json")}
        training = {"strategy": "diverse-br"}
        assert run(["train", "--config", write_config(tmp_path, paths=paths, training=training)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "more levels than JSON output can nest" in err
        assert not (tmp_path / "out" / "model.json").exists()
        kfold = {"mode": "multilabel", "protocol": "kfold", "k": 3}
        assert run(["eval", "--config", write_config(tmp_path, paths=paths, training=training, evaluation=kfold)]) == 0

    def test_predict_from_term_bags(self, tmp_path, capsys):
        cfg = self.trained_for_terms(tmp_path)
        terms_path = tmp_path / "terms.json"
        terms_path.write_text(
            json.dumps(
                [
                    {"id": "note1", "terms": ["Chest  Pain", "st elevation", "unknown thing"]},
                    {"id": "note2", "terms": []},
                ]
            )
        )
        assert run(["predict", "--config", cfg, "--input", terms_path, "--terms"]) == 0
        lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,codes,triggered,reason,ignored_terms"
        assert len(lines) == 3
        note1 = lines[1].split(",")
        assert note1[0] == "note1"
        assert note1[4] == "1"

    def test_terms_cannot_fill_a_numeric_column(self, tmp_path, capsys):
        corpus = tmp_path / "lab.csv"
        rows = [f"r{i},{i % 2},{i * 1.5},{'I20.9' if i % 3 else 'I21.0'}\n" for i in range(30)]
        corpus.write_text("id,f0,trop,codes\n" + "".join(rows))
        paths = {"dataset": str(corpus), "model": str(tmp_path / "out" / "model.json")}
        paths["lexicon"] = str(tmp_path / "lex.json")
        (tmp_path / "lex.json").write_text(json.dumps({"chest pain": ["f0"]}))
        (tmp_path / "terms.json").write_text(json.dumps([{"id": "n1", "terms": ["chest pain"]}]))
        cfg = write_config(tmp_path, paths=paths)
        assert run(["train", "--config", cfg]) == 0
        capsys.readouterr()
        assert run(["predict", "--config", cfg, "--input", tmp_path / "terms.json", "--terms"]) == 1
        err = capsys.readouterr().err
        assert err == "error: term bags cannot set attribute 'trop': it is not nominal with a value '0'\n"
        assert not (tmp_path / "out" / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([{"id": "n1", "terms": "chest pain"}], "list of strings"),
            ([{"id": "n1", "terms": {"chest pain": 1}}], "list of strings"),
            ([{"id": "n1", "terms": ["chest pain", 5]}], "list of strings"),
            ([{"id": "n1", "terms": None}], "list of strings"),
            (["chest pain"], "not a"),
            ([["chest pain"]], "not a"),
            ([{"id": "n1", "terms": []}, 7], "entry 1 is not a"),
        ],
    )
    def test_mistyped_term_bags_are_validation_errors(self, tmp_path, capsys, doc, message):
        cfg = self.trained_for_terms(tmp_path)
        capsys.readouterr()
        terms_path = tmp_path / "terms.json"
        terms_path.write_text(json.dumps(doc))
        assert run(["predict", "--config", cfg, "--input", terms_path, "--terms"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out" / "predictions.csv").exists()

    def test_untriggered_rows_report_ok(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["gen", "--config", cfg])
        run(["train", "--config", cfg])
        run(["predict", "--config", cfg])
        rows = [l.split(",") for l in (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]]
        untriggered = [r for r in rows if r[2] == "false"]
        assert untriggered, "expected at least one registered stage-1 prediction"
        assert all(r[3] == "ok" for r in untriggered)

    def test_holdout_protocol(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, evaluation={"mode": "multilabel", "protocol": "holdout"}
        )
        run(["gen", "--config", cfg])
        run(["train", "--config", cfg])
        assert run(["eval", "--config", cfg]) == 0
        assert "Total Number of Instances\t40" in capsys.readouterr().out

    def test_kfold_protocol(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, evaluation={"mode": "multilabel", "protocol": "kfold", "k": 3}
        )
        run(["gen", "--config", cfg])
        assert run(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "kfold(k=3)" in out
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(doc["folds"]) == 3
        assert doc["fold_sizes"] == [20, 20, 20]

    def test_kfold_reads_the_declared_registry_once(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, evaluation={"mode": "multilabel", "protocol": "kfold", "k": 3})
        run(["gen", "--config", cfg])
        loads = []
        inner = cli._load_registry
        monkeypatch.setattr(cli, "_load_registry", lambda path: loads.append(path) or inner(path))
        assert run(["eval", "--config", cfg]) == 0
        assert loads == [tmp_path / "out" / "registry.json"]

    def test_principal_mode_on_single_label_data_matches_subset_accuracy(self, tmp_path):
        single = {
            "n_records": 50,
            "noise_rate": 0.05,
            "features": ["f0", "f1", "f2"],
            "profiles": [
                {"labels": ["I20.0"], "rates": [0.9, 0.1, 0.3]},
                {"labels": ["I21.0"], "rates": [0.1, 0.9, 0.6]},
            ],
        }
        cfg = write_config(tmp_path, generator=single)
        run(["gen", "--config", cfg])
        run(["train", "--config", cfg])
        run(["eval", "--config", cfg, "--mode", "multilabel"])
        ml = json.loads((tmp_path / "out" / "report.json").read_text())
        run(["eval", "--config", cfg, "--mode", "principal"])
        pr = json.loads((tmp_path / "out" / "report.json").read_text())
        assert pr["metrics"]["correct"] == ml["metrics"]["correct"]
        assert pr["metrics"]["mode"] == "principal"
        assert ml["multilabel"]["subset_accuracy_pct"] == pytest.approx(
            pr["metrics"]["accuracy_pct"]
        )


class TestMissingTrainingRecords:
    @pytest.mark.parametrize("protocol", ["resubstitution", "holdout"])
    def test_eval_refuses_a_corpus_without_them(self, tmp_path, capsys, protocol):
        cfg = write_config(tmp_path, evaluation={"mode": "multilabel", "protocol": protocol})
        assert run(["gen", "--config", cfg]) == 0
        assert run(["train", "--config", cfg]) == 0
        dropped = json.loads((tmp_path / "out" / "model.json").read_text())["training_ids"][:3]
        corpus = tmp_path / "out" / "corpus.csv"
        lines = corpus.read_text().splitlines(keepends=True)
        corpus.write_text("".join(line for line in lines if line.split(",")[0] not in dropped))
        capsys.readouterr()
        assert run(["eval", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: dataset lacks 3 of the model's training records: {dropped}\n"
        assert not (tmp_path / "out" / "report.json").exists()


class TestInspectValidate:
    def test_inspect_renders_trees(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run(["gen", "--config", cfg])
        run(["train", "--config", cfg])
        assert run(["inspect", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "strategy: label-powerset" in out
        assert "--- stage 1: I20.0" in out
        assert "label-powerset (" in out

    def test_validate_reports_reasons(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run(["gen", "--config", cfg])
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([["I20.0"], ["I20.0", "I21.0"], []]))
        capsys.readouterr()
        assert run(["validate", "--config", cfg, sets_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "I20.0\tvalid\tok"
        assert lines[1] == "I20.0;I21.0\tinvalid\tunregistered"
        assert lines[2] == "(empty)\tinvalid\tempty"


class TestReservedCodes:
    @pytest.mark.parametrize("cell, separator", [("(none)", ";"), ("a;b", "|")])
    def test_train_refuses_a_code_that_reports_reserve(self, tmp_path, capsys, cell, separator):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(f"id,f0,codes\nr0,0,{cell}\nr1,1,I20.0\n")
        paths = {"dataset": str(corpus), "model": str(tmp_path / "out" / "model.json")}
        assert run(["train", "--config", write_config(tmp_path, paths=paths, label_separator=separator)]) == 1
        assert_one_line_error(capsys, f"code {cell!r} is reserved")
        assert not (tmp_path / "out" / "model.json").exists()


class TestRepeatedCodes:
    """A code listed twice in one code list, or a combination listed twice, is refused, never merged."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                [{"codes": ["I21.0", "I25.1"], "provenance": "observed"}, {"codes": ["I25.1", "I21.0"]}],
                "registry combinations[1] repeats the combination ['I21.0', 'I25.1']",
            ),
            ([{"codes": ["I20.0", "I20.0"]}], "registry combinations[0].codes[1] repeats the code 'I20.0'"),
        ],
    )
    def test_registry(self, tmp_path, capsys, entries, message):
        cfg = write_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "registry.json").write_text(json.dumps({"combinations": entries}))
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([["I20.0"]]))
        assert run(["validate", "--config", cfg, sets_path]) == 1
        assert_one_line_error(capsys, message)

    def test_exclusion_group(self, tmp_path, capsys):
        paths = {"registry": str(tmp_path / "out" / "registry.json"), "exclusions": str(tmp_path / "excl.json")}
        cfg = write_config(tmp_path, paths=paths)
        assert run(["gen", "--config", cfg]) == 0
        (tmp_path / "excl.json").write_text(json.dumps([["I20.0", "I20.0", "I21.0"]]))
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([["I20.0"]]))
        capsys.readouterr()
        assert run(["validate", "--config", cfg, sets_path]) == 1
        assert_one_line_error(capsys, "exclusions[0][1] repeats the code 'I20.0'")

    def test_label_powerset_classes(self, tmp_path, capsys):
        cfg, model_path, doc = trained_model(tmp_path, "label-powerset")
        doc["stage2"]["combos"][1] = doc["stage2"]["combos"][0]
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["predict", "--config", cfg]) == 1
        assert_one_line_error(capsys, f"model stage2.combos[1] repeats the combination {doc['stage2']['combos'][0]}")

    def test_label_set_to_validate(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["gen", "--config", cfg]) == 0
        sets_path = tmp_path / "sets.json"
        sets_path.write_text(json.dumps([["I20.0"], ["I21.0", "I25.1", "I21.0"]]))
        capsys.readouterr()
        assert run(["validate", "--config", cfg, sets_path]) == 1
        assert_one_line_error(capsys, "labelsets[1][2] repeats the code 'I21.0'")


class TestExitCodes:
    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "mystery": True}))
        assert run(["train", "--config", path]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run(["train", "--config", tmp_path / "nope.json"]) == 2

    def test_malformed_model_file_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run(["gen", "--config", cfg])
        (tmp_path / "out" / "model.json").write_text("{}")
        assert run(["eval", "--config", cfg]) == 1


def trained_model(tmp_path: Path, strategy: str) -> tuple:
    """(config path, model path, parsed model.json) after gen + train."""
    cfg = write_config(tmp_path, training={"strategy": strategy, "train_size": 20})
    assert run(["gen", "--config", cfg]) == 0
    assert run(["train", "--config", cfg]) == 0
    model_path = tmp_path / "out" / "model.json"
    return cfg, model_path, json.loads(model_path.read_text())


def assert_one_line_error(capsys, needle: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


class TestTamperedModel:
    def test_reversed_stage2_codes_rejected(self, tmp_path, capsys):
        cfg, model_path, doc = trained_model(tmp_path, "diverse-br")
        doc["stage2"]["codes"].reverse()
        model_path.write_text(json.dumps(doc))
        assert run(["eval", "--config", cfg]) == 1
        assert_one_line_error(capsys, "code alphabet")

    def test_dropped_stage2_code_rejected(self, tmp_path, capsys):
        cfg, model_path, doc = trained_model(tmp_path, "diverse-br")
        del doc["stage2"]["codes"][-1]
        del doc["stage2"]["trees"][-1]
        model_path.write_text(json.dumps(doc))
        assert run(["eval", "--config", cfg]) == 1
        assert_one_line_error(capsys, "code alphabet")

    @pytest.mark.parametrize("stage, stored", [("stage1", {"I20.0": "positive"}), ("stage2", {"I21.0": "negative"})])
    def test_constant_codes_contradicting_the_trees_rejected(self, tmp_path, capsys, stage, stored):
        cfg, model_path, doc = trained_model(tmp_path, "diverse-br")
        assert doc[stage]["constant_codes"] == {}
        doc[stage]["constant_codes"] = stored
        model_path.write_text(json.dumps(doc))
        assert run(["inspect", "--config", cfg]) == 1
        assert_one_line_error(capsys, f"model {stage}.constant_codes contradicts the trees' root counts: {{}}")

    @pytest.mark.parametrize(
        "trained, stored", [("label-powerset", "diverse-br"), ("diverse-br", "label-powerset")]
    )
    def test_strategy_contradicting_stage2_rejected(self, tmp_path, capsys, trained, stored):
        cfg, model_path, doc = trained_model(tmp_path, trained)
        doc["strategy"] = stored
        model_path.write_text(json.dumps(doc))
        assert run(["eval", "--config", cfg]) == 1
        assert_one_line_error(capsys, f"stored strategy '{stored}'")

    @pytest.mark.parametrize(
        "key", ["schema", "training_ids", "registry", "exclusions", "stage1", "stage2"]
    )
    def test_missing_key_rejected(self, tmp_path, capsys, key):
        cfg, model_path, doc = trained_model(tmp_path, "label-powerset")
        del doc[key]
        model_path.write_text(json.dumps(doc))
        assert run(["predict", "--config", cfg]) == 1
        assert_one_line_error(capsys, f"no '{key}' key")


# text that can trip the writer: quotes, backslashes and brackets inside strings, escaped controls, non-ASCII
json_text = st.text(
    st.one_of(
        st.sampled_from('"\\[]{},: '),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x80),
    ),
    max_size=8,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40,
)


class TestDumpJson:
    @given(json_values)
    def test_same_bytes_as_the_indenting_encoder(self, value):
        assert bytes(cli._dump_json(value)) == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("ascii")


class TestDeterminism:
    def test_gen_train_eval_twice_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)

        def run_all():
            assert run(["gen", "--config", cfg]) == 0
            assert run(["train", "--config", cfg]) == 0
            assert run(["eval", "--config", cfg]) == 0
            assert run(["predict", "--config", cfg]) == 0
            out = tmp_path / "out"
            names = ("corpus.csv", "model.json", "report.txt", "report.json", "predictions.csv")
            return {name: (out / name).read_bytes() for name in names}

        first = run_all()
        second = run_all()
        assert first == second

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        run(["gen", "--config", cfg])
        base = (tmp_path / "out" / "corpus.csv").read_bytes()
        run(["gen", "--config", cfg, "--seed", "43"])
        assert (tmp_path / "out" / "corpus.csv").read_bytes() != base


def test_predict_and_eval_construct_no_record(tmp_path, monkeypatch, capsys):
    """The shipped run's predict and eval work on the dataset's columns; no per-row ``Record`` view is built."""
    repo = Path(__file__).resolve().parent.parent
    config = json.loads((repo / "data" / "run_chd.json").read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path)
    for key, value in config["paths"].items():
        config["paths"][key] = str(tmp_path / Path(value).name if Path(value).parts[0] == "out" else repo / value)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert run(["gen", "--config", cfg]) == 0
    assert run(["train", "--config", cfg]) == 0
    built = []
    monkeypatch.setattr(Record, "__post_init__", lambda rec: built.append(rec.id))
    assert run(["predict", "--config", cfg]) == 0
    assert run(["eval", "--config", cfg]) == 0
    assert built == []
    assert "predicted 196 records" in capsys.readouterr().out


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "chidt", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "chidt" in proc.stdout
