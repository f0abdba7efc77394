"""Malformed documents fail closed: exit 1 or 2 with one message line, never a traceback.

The shipped run is trained once per module. ``test_probed_input_fails_closed``
drives inputs that once ended in a traceback or were silently misread;
``test_mutated_document_fails_closed`` lets hypothesis mutate the run's valid
config, model, registry, ontology, terms and label-set documents (drop a key,
retype a value, replace a list by a string, truncate a list).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chidt.cli import main

from conftest import DATA_DIR, REPO_ROOT

# the command that reads each document
COMMAND = {
    "config": "validate",
    "model": "predict",
    "registry": "validate",
    "exclusions": "validate",
    "hierarchy": "validate",
    "lexicon": "terms",
    "terms": "terms",
    "labelsets": "validate",
}


class Text(str):
    """A document written as it is, not as JSON: the corpus, or a document edited as text."""


class Replace(NamedTuple):
    """A probe that replaces the first ``old`` in a document's text by ``new``: faults no parsed JSON carries."""

    old: str
    new: str


def dump(doc) -> str:
    return doc if isinstance(doc, Text) else json.dumps(doc)


@pytest.fixture(scope="module")
def shipped(tmp_path_factory) -> tuple:
    """(case directory, {document name: parsed JSON, or the corpus as ``Text``}) of the shipped run, trained once."""
    work = tmp_path_factory.mktemp("shipped")
    run = json.loads((DATA_DIR / "run_chd.json").read_text(encoding="utf-8"))
    run["out_dir"] = str(work)
    run["paths"] = {
        key: str(work / Path(value).name if Path(value).parts[0] == "out" else REPO_ROOT / value)
        for key, value in run["paths"].items()
    }
    (work / "run.json").write_text(json.dumps(run), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("gen", "train"):
            assert main([command, "--config", str(work / "run.json")]) == 0
    case = work / "case"
    case.mkdir()
    paths = {name: str(case / f"{name}.json") for name in ("model", "registry", "exclusions", "hierarchy", "lexicon")}
    docs = {
        "config": {**run, "out_dir": str(case), "paths": {**paths, "dataset": str(case / "corpus.json")}},
        "corpus": Text((work / "corpus.csv").read_text(encoding="utf-8")),
        "model": json.loads((work / "model.json").read_text(encoding="utf-8")),
        "registry": json.loads((work / "registry.json").read_text(encoding="utf-8")),
        "terms": [{"id": "n1", "terms": ["chest pain", "st elevation"]}, {"terms": ["old mi"]}],
        "labelsets": [["I20.0"], ["I21.0", "I21.1"], []],
    }
    for name in ("exclusions", "hierarchy", "lexicon"):
        docs[name] = json.loads((DATA_DIR / f"{name}_chd.json").read_text(encoding="utf-8"))
    return case, docs


def run_case(case: Path, docs: dict, command: str) -> tuple:
    """(exit code, stderr) of ``command`` over ``docs``, each written to ``case/<name>.json``."""
    for name, doc in docs.items():
        (case / f"{name}.json").write_text(dump(doc), encoding="utf-8")
    argv = {
        "terms": ["predict", "--input", str(case / "terms.json"), "--terms"],
        "validate": ["validate", str(case / "labelsets.json")],
    }.get(command, [command])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([argv[0], "--config", str(case / "config.json"), *argv[1:]])
    return code, err.getvalue()


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


PROBES = [
    # model.json: tracebacks
    ("model", ("stage1", "trees"), 5, "predict"),
    ("model", ("registry",), [], "predict"),
    ("model", ("schema",), [], "predict"),
    ("model", ("stage1", "trees", 0, "root", "counts"), None, "predict"),
    ("model", ("stage1", "threshold"), "x", "predict"),
    ("model", ("stage1", "params", "min_leaf"), "two", "predict"),
    ("model", ("stage2", "combos"), 3, "predict"),
    ("model", ("training_ids",), 7, "predict"),
    # model.json: silently accepted
    ("model", ("split", "kind"), "bogus", "predict"),
    ("model", ("stage2", "combos", 0), ["ZZZ"], "predict"),
    # config: tracebacks
    ("config", ("seed",), "abc", "train"),
    ("config", ("training", "threshold"), "hi", "train"),
    ("config", ("generator", "profiles"), 5, "train"),
    ("config", ("training",), [], "train"),
    ("config", ("evaluation", "k"), "ten", "train"),
    ("config", ("label_separator",), "", "train"),
    # config: silently accepted
    ("config", ("training", "threshold"), 2.0, "train"),
    ("config", ("paths",), [], "train"),
    ("config", ("training", "stage1_params"), {"pruning": "false"}, "train"),
    # ontology and input files
    ("registry", ("combinations", 0, "codes"), "I20.0", "validate"),
    ("exclusions", (), ["I20.0"], "validate"),
    ("exclusions", (), [5], "validate"),
    ("hierarchy", (), 5, "validate"),
    ("lexicon", ("chest pain",), 5, "terms"),
    ("labelsets", (), [5], "validate"),
    ("labelsets", (), ["I20.0"], "validate"),
    ("terms", (0, "id"), 5, "terms"),
    ("terms", (1, "id"), "n1", "terms"),
    ("terms", (0, "id"), "t1", "terms"),
    # silently accepted: an empty CSV id, a repeated JSON key, repeated classes, a majority that contradicts its counts
    ("corpus", (), Replace("\nr000,", "\n,"), "train"),
    ("config", (), Replace('{"seed": ', '{"seed": 1, "seed": '), "train"),
    ("model", (("schema", "classes", 1), ("stage1", "codes", 1)), "I20.0", "predict"),
    ("model", ("stage1", "trees", 0, "root", "majority"), 1, "predict"),
    # silently accepted: a constant-code map that the trees' root counts contradict
    ("model", ("stage1", "constant_codes"), {"I20.0": "positive"}, "predict"),
    # silently merged: a code repeated in one code list, a combination or a training record listed twice
    ("registry", ("combinations", 0, "codes"), ["I20.0", "I20.0"], "validate"),
    ("registry", ("combinations", 4, "codes"), ["I23.0", "I21.0"], "validate"),
    ("exclusions", (0,), ["I20.0", "I20.0", "I20.9"], "validate"),
    ("labelsets", (1,), ["I21.0", "I21.1", "I21.0"], "validate"),
    ("model", ("registry", "combinations", 4, "codes"), ["I23.0", "I21.0"], "predict"),
    ("model", ("exclusions",), [["I20.0", "I20.0", "I20.9"]], "predict"),
    ("model", ("stage2", "combos", 1), ["I20.0"], "predict"),
    ("model", (("training_ids", 0), ("training_ids", 1)), "r000", "predict"),
]


@pytest.mark.parametrize(
    "name, path, value, command", PROBES, ids=[f"{n}.{'.'.join(map(str, p))}={v!r}" for n, p, v, _ in PROBES]
)
def test_probed_input_fails_closed(shipped, name, path, value, command):
    case, docs = shipped
    docs = copy.deepcopy(docs)
    if name == "exclusions":  # unchecked against the hierarchy, so that the codes are not refused as unknown
        del docs["config"]["paths"]["hierarchy"]
    if path[:1] == ("split",):  # the root of the first stage-1 tree that splits
        trees = docs["model"]["stage1"]["trees"]
        path = ("stage1", "trees", next(i for i, t in enumerate(trees) if t["root"]["kind"] == "split"), "root", "kind")
    if isinstance(value, Replace):
        assert value.old in dump(docs[name])
        docs[name] = Text(dump(docs[name]).replace(value.old, value.new, 1))
    elif not path:
        docs[name] = value
    elif value is None:
        del at(docs[name], path[:-1])[path[-1]]
    else:
        for step in path if isinstance(path[0], tuple) else (path,):  # a tuple of paths sets each
            at(docs[name], step[:-1])[step[-1]] = value
    code, err = run_case(case, docs, command)
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.sampled_from(["", "x", "I20.0", "br", "lp", "leaf", "split", "numeric"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2), st.dictionaries(st.sampled_from(["x", "kind"]), SCALARS))


def locations(doc, path=()):
    """Every path into ``doc``, the root included."""
    yield path
    steps = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for step, value in steps:
        yield from locations(value, path + (step,))


def mutate(data, doc):
    """``doc`` with one drawn mutation: a key dropped, a value retyped, a list turned into a string or truncated."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(locations(doc))))
    target = at(doc, path)
    ways = ["retype"] + (["drop"] if isinstance(target, dict) and target else [])
    ways += ["stringify", "truncate"] if isinstance(target, list) and target else []
    way = data.draw(st.sampled_from(ways))
    if way == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif way == "truncate":
        del target[data.draw(st.integers(0, len(target) - 1)) :]
    else:
        value = "I20.0" if way == "stringify" else data.draw(VALUES)
        if not path:
            return value
        at(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize("name", sorted(COMMAND))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_document_fails_closed(shipped, name, data):
    case, docs = shipped
    code, err = run_case(case, {**docs, name: mutate(data, docs[name])}, COMMAND[name])
    assert code in (0, 1, 2)
    assert code == 0 or (err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1), err
