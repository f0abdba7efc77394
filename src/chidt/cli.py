"""Command-line entry point: gen, train, predict, eval, inspect, validate.

Every command is driven by one JSON config (see RunConfig); selected keys
can be overridden with flags. Canonical outputs carry no timestamps, so a
fixed seed reproduces them byte for byte; wall-clock lines go to a sidecar
``run.log`` in the output directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import STRATEGIES, STRATEGY_LABEL_POWERSET, ChiDTModel, model_from_dict, model_to_dict, train_cascades
from .config import RunConfig
from .data import Dataset, _distinct_labelsets, cover_all_labels_split, export_csv, generate_synthetic, load_csv
from .errors import ValidationError
from .evaluation import MODES, evaluate_holdout, evaluate_kfold, evaluate_resubstitution, format_report
from .jsondoc import Fields, array, code_sets, loads, read, strings, text
from .ontology import (
    REASONS,
    TermLexicon,
    ValidCombinationRegistry,
    combo_key,
    is_valid,
    load_exclusions,
    load_hierarchy,
    map_terms,
)
from .tree import render

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _dump_json(doc) -> memoryview:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, from the C encoder.

    ``indent`` selects Python's pure-Python encoder, so the C encoder writes
    the compact text and numpy indents it. The text is ASCII, and inside a
    string a quote or backslash appears only escaped; with ``\\\\`` and
    ``\\"`` hidden, the quotes left toggle in and out of strings. Outside
    them, a line break and two spaces per level of nesting go after each
    comma and each opening bracket and before each closing bracket, except
    inside an empty ``[]`` or ``{}``. One cumulative sum of the break
    widths gives each source byte its output position, and one scatter
    each places the source bytes and the newlines. Temporaries are sized by
    the compact text, and the bytes are handed over without a copy, so
    writing a large model costs little memory.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ": "))
    hidden = np.frombuffer(text.replace("\\\\", "\0\0").replace('\\"', "\1\1").encode("ascii"), np.uint8)
    outside = ~np.logical_xor.accumulate(hidden == ord('"'))
    opens = ((hidden == ord("[")) | (hidden == ord("{"))) & outside
    closes = ((hidden == ord("]")) | (hidden == ord("}"))) & outside
    breaks = (hidden == ord(",")) & outside  # the bytes a break follows
    del hidden, outside
    depth = np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int16)  # nesting after each byte
    empty = opens[:-1] & closes[1:]  # the opening bracket of a ``[]`` or ``{}``
    breaks |= opens
    breaks[:-1] &= ~empty
    closes[1:] &= ~empty  # where a break goes before the byte
    del opens, empty
    where = np.flatnonzero(np.concatenate(([False], breaks[:-1])) | closes)  # the byte each break precedes
    del breaks
    width = 1 + 2 * (depth[where - 1] - closes[where]).astype(np.int32)
    del depth, closes
    source = np.frombuffer(text.encode("ascii"), np.uint8)
    del text
    n = len(source) + int(width.sum())  # bytes out, less the closing newline
    at = np.ones(len(source), np.int32 if n < 2**31 else np.int64)  # a step of 1 per source byte,
    at[0] = 0
    at[where] += width  # and of a break's width at the byte it precedes
    np.cumsum(at, out=at)  # the output position of each source byte
    start = at[where] - width  # of each break
    del where, width
    out = np.full(n + 1, ord(" "), np.uint8)  # the last byte is the closing newline
    out[at] = source
    del at, source
    out[start] = out[-1] = ord("\n")
    return out.data


def _write(path: Path, content: str | memoryview) -> None:
    """Write text as UTF-8, or bytes as they are."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)


def _log(cfg: RunConfig, message: str) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{datetime.now().isoformat()} {message}\n")


def _load_dataset(cfg: RunConfig, path: Path, attributes=None) -> Dataset:
    columns = dict(label_column=cfg.label_column, label_separator=cfg.label_separator, id_column=cfg.id_column)
    return read(path, lambda content: load_csv(content, attributes=attributes, **columns))


def _load_model(path: Path) -> ChiDTModel:
    return read(path, lambda content: model_from_dict(loads(content, "model")))


def _load_registry(path: Path) -> ValidCombinationRegistry:
    return read(path, lambda content: ValidCombinationRegistry.from_dict(loads(content, "registry")))


def _load_exclusion_groups(cfg: RunConfig):
    if "exclusions" not in cfg.paths:
        return ()
    hierarchy = read(cfg.paths["hierarchy"], load_hierarchy) if "hierarchy" in cfg.paths else None
    return read(cfg.paths["exclusions"], lambda content: load_exclusions(content, hierarchy))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    if cfg.generator is None:
        raise ValidationError("config has no 'generator' section")
    seed = cfg.require_seed("generation")
    ds, combos = generate_synthetic(replace(cfg.generator, seed=seed))

    dataset_path = cfg.path("dataset", "corpus.csv")
    registry_path = cfg.path("registry", "registry.json")
    _write(
        dataset_path,
        export_csv(ds, label_column=cfg.label_column, label_separator=cfg.label_separator, id_column=cfg.id_column),
    )
    registry = ValidCombinationRegistry(frozenset(combos))
    _write(registry_path, _dump_json(registry.to_dict()))
    _log(cfg, f"gen seed={seed} -> {dataset_path} {registry_path}")
    print(f"generated {len(ds)} records, {len(ds.label_alphabet)} codes, {len(registry)} combinations")
    print(f"dataset: {dataset_path}")
    print(f"registry: {registry_path}")
    return EXIT_OK


def _resolve_split(cfg: RunConfig, ds: Dataset) -> frozenset:
    """The ids of the records to train on: all of them, or a cover-all-labels split of ``train_size``."""
    if cfg.training.train_size is None:
        return ds.record_ids()
    seed = cfg.require_seed("the cover-all-labels split")
    return cover_all_labels_split(ds, cfg.training.train_size, seed)


def cmd_train(cfg: RunConfig) -> int:
    ds = _load_dataset(cfg, cfg.path("dataset", "corpus.csv"))
    train_ds = ds.subset(_resolve_split(cfg, ds))  # the bank's arrays then have a row per training record only
    (model,) = _build_trainer(cfg)(train_ds, [train_ds.record_ids()])
    model_path = cfg.path("model", "model.json")
    try:
        content = _dump_json(model_to_dict(model))
    except RecursionError:  # the C encoder recurses twice per tree level, as Python's did: about 495 levels fit
        raise ValidationError(f"cannot write {model_path}: a tree has more levels than JSON output can nest") from None
    _write(model_path, content)
    _log(cfg, f"train strategy={model.strategy} records={len(train_ds)} -> {model_path}")
    print(
        f"trained {model.strategy} cascade on {len(train_ds)} records, "
        f"{len(model.codes)} codes, registry of {len(model.registry)} combinations"
    )
    print(f"model: {model_path}")
    return EXIT_OK


def _term_bags(content: str) -> dict:
    """{id: terms} of a terms file; an entry without an id is ``t<index>``."""
    bags = {}
    for i, entry in enumerate(array(loads(content, "terms"), "terms")):
        f = Fields(entry, f"terms entry {i}", ("id", "terms"))
        rid = f.get("id", text, f"t{i}")
        if rid in bags:
            raise ValidationError(f"{f.path('id')} repeats the id {rid!r}")
        bags[rid] = f.get("terms", strings, ())
    return bags


def _rows_from_terms(cfg: RunConfig, model: ChiDTModel, source: Path):
    """Map bags of discharge-summary terms to (ids, feature matrix, ignored-term counts) via the lexicon."""
    lexicon = read(cfg.path("lexicon"), TermLexicon.from_json)
    bags = read(source, _term_bags)
    mapped = [map_terms(lexicon, terms, model.attributes) for terms in bags.values()]
    X = np.array([v for v, _ in mapped], dtype=np.float64).reshape(len(mapped), len(model.attributes))
    return list(bags), X, [n for _, n in mapped]


def cmd_predict(cfg: RunConfig, input_path: Path | None, terms: bool = False) -> int:
    model = _load_model(cfg.path("model", "model.json"))
    source = input_path or cfg.path("dataset", "corpus.csv")
    if terms:
        ids, X, ignored = _rows_from_terms(cfg, model, source)
    else:
        ds = _load_dataset(cfg, source, attributes=model.attributes)
        ids, X, ignored = ds.ids, ds.X, None
    Y, _, reasons = model.predict_batch(X)
    distinct, inverse = _distinct_labelsets(Y, model.codes)
    columns = [  # each column under its header
        ["id", *ids],
        ["codes", *np.array([combo_key(labels) for labels in distinct], dtype=object)[inverse]],
        ["triggered", *np.where(reasons > 0, "true", "false")],
        ["reason", *np.asarray(REASONS, dtype=object)[reasons]],
    ]
    if terms:
        columns.append(["ignored_terms", *ignored])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*columns))
    out_path = cfg.out_dir / "predictions.csv"
    _write(out_path, buf.getvalue())
    _log(cfg, f"predict {source} -> {out_path}")
    print(f"predicted {len(ids)} records, {np.count_nonzero(reasons)} triggered the cascade")
    print(f"predictions: {out_path}")
    return EXIT_OK


def _build_trainer(cfg: RunConfig):
    """(dataset, training sets of record ids) -> one cascade per set, each registry merged with the declared
    one when configured; each file is read once."""
    registry_path = cfg.path("registry", "registry.json")
    exclusions = _load_exclusion_groups(cfg)
    declared = _load_registry(registry_path) if cfg.training.use_declared_registry and registry_path.exists() else None

    def trainer(ds: Dataset, training_sets) -> list:
        return train_cascades(
            ds,
            training_sets,
            stage1_params=cfg.training.stage1_params,
            stage2_params=cfg.training.stage2_params,
            strategy=cfg.training.strategy,
            declared=declared,
            exclusions=exclusions,
            threshold=cfg.training.threshold,
            single_label_fallback=cfg.training.single_label_fallback,
        )

    return trainer


def cmd_eval(cfg: RunConfig) -> int:
    protocol = cfg.evaluation.protocol
    mode = cfg.evaluation.mode
    if protocol == "kfold":
        ds = _load_dataset(cfg, cfg.path("dataset", "corpus.csv"))
        seed = cfg.require_seed("k-fold assignment")
        result = evaluate_kfold(ds, cfg.evaluation.k, seed, _build_trainer(cfg), mode=mode)
        text = format_report(result.aggregate)
        doc = result.to_dict()
    else:
        model = _load_model(cfg.path("model", "model.json"))
        ds = _load_dataset(cfg, cfg.path("dataset", "corpus.csv"), attributes=model.attributes)
        evaluate = evaluate_resubstitution if protocol == "resubstitution" else evaluate_holdout
        result = evaluate(model, ds, mode=mode)
        text = format_report(result.metrics)
        doc = result.to_dict()

    _write(cfg.out_dir / "report.txt", text + "\n")
    _write(cfg.out_dir / "report.json", _dump_json(doc))
    _log(cfg, f"eval protocol={protocol} mode={mode}")
    print(text)
    print(f"reports: {cfg.out_dir / 'report.txt'}, {cfg.out_dir / 'report.json'}")
    return EXIT_OK


def cmd_inspect(cfg: RunConfig) -> int:
    model = _load_model(cfg.path("model", "model.json"))
    print(f"strategy: {model.strategy}")
    print(f"codes: {', '.join(model.codes)}")
    print(f"training records: {len(model.training_ids)}")
    print(f"registry: {len(model.registry)} combinations")
    print(f"exclusion groups: {len(model.exclusions)}")
    if model.stage1.constant_codes:
        consts = ", ".join(f"{c}={v}" for c, v in sorted(model.stage1.constant_codes.items()))
        print(f"constant stage-1 codes: {consts}")
    lp = model.strategy == STRATEGY_LABEL_POWERSET
    stage2 = [("label-powerset", model.stage2.tree)] if lp else zip(model.stage2.codes, model.stage2.trees)
    for stage, trees in ((1, zip(model.stage1.codes, model.stage1.trees)), (2, stage2)):
        for name, tree in trees:
            print(f"\n--- stage {stage}: {name} ({tree.n_nodes} nodes) ---")
            print(render(tree))
    return EXIT_OK


def cmd_validate(cfg: RunConfig, labelsets_path: Path) -> int:
    registry = _load_registry(cfg.path("registry", "registry.json"))
    exclusions = _load_exclusion_groups(cfg)
    for labels in read(labelsets_path, lambda content: code_sets(loads(content, "labelsets"), "labelsets")):
        ok, reason = is_valid(registry, exclusions, labels)
        shown = combo_key(labels) if labels else "(empty)"
        print(f"{shown}\t{'valid' if ok else 'invalid'}\t{reason}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chidt",
        description="Cascade decision-tree toolkit for multi-label diagnosis coding experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--mode", choices=MODES, help="override the evaluation mode")
        p.add_argument("--strategy", choices=STRATEGIES, help="override the cascade strategy")

    add_common(sub.add_parser("gen", help="generate a synthetic corpus and its registry"))
    add_common(sub.add_parser("train", help="train the cascade model"))
    p = sub.add_parser("predict", help="predict codes and cascade trigger reasons for records")
    add_common(p)
    p.add_argument("--input", help="records CSV to predict (defaults to paths.dataset)")
    p.add_argument(
        "--terms",
        action="store_true",
        help='treat the input as a JSON array of {"id", "terms"} objects and map the '
        "term bags to features through the configured lexicon",
    )
    add_common(sub.add_parser("eval", help="evaluate per the configured protocol"))
    add_common(sub.add_parser("inspect", help="render the model's trees and metadata"))
    p = sub.add_parser("validate", help="check label sets against the registry")
    add_common(p)
    p.add_argument("labelsets", help="JSON array of code arrays to validate")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    if args.mode:
        cfg.evaluation.mode = args.mode
    if args.strategy:
        cfg.training.strategy = args.strategy
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(RunConfig.from_file(args.config), args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, Path(args.input) if args.input else None, terms=args.terms)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "inspect":
            return cmd_inspect(cfg)
        if args.command == "validate":
            return cmd_validate(cfg, Path(args.labelsets))
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
