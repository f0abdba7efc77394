"""Golden digests: pinned runs regenerate byte for byte.

Each run is replayed into a temporary directory through ``chidt.cli.main``
and the sha256 of its canonical files is compared with a pin, so any byte
drift fails the tier-1 suite:

* the shipped ``data/run_chd.json`` run (gen, train, eval, predict) against
  the ``"shipped"`` block of ``perfbench/pins.json``;
* a 2,000-record diverse-br resubstitution run with the single-label
  fallback and ``data/exclusions_chd.json`` against
  ``tests/golden/fallback_br.json``. It covers the stage-2 BR bank, every
  trigger reason and the fallback, none of which the shipped run reaches.

Both runs then ``inspect`` their model, and the sha256 of its stdout is
compared with ``tests/golden/inspect.json``: that pins every tree's node
count and rendering.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chidt.cli import main

from conftest import DATA_DIR, GOLDEN_DIR, REPO_ROOT

PINS = REPO_ROOT / "perfbench" / "pins.json"
INSPECT_PINS = json.loads((GOLDEN_DIR / "inspect.json").read_text(encoding="utf-8"))
COMMANDS = ("gen", "train", "eval", "predict")


def replay(config: dict, tmp_path: Path, capsys) -> str:
    """Run ``COMMANDS`` then ``inspect``; the sha256 of what ``inspect`` prints."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for command in COMMANDS:
        assert main([command, "--config", str(config_path)]) == 0, command
    capsys.readouterr()
    assert main(["inspect", "--config", str(config_path)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def digests(tmp_path: Path, names) -> dict:
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


def test_shipped_run_matches_pinned_digests(tmp_path, capsys):
    config = json.loads((DATA_DIR / "run_chd.json").read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path)
    for key, value in config["paths"].items():
        path = Path(value)
        config["paths"][key] = str(tmp_path / path.name if path.parts[0] == "out" else REPO_ROOT / path)
    inspected = replay(config, tmp_path, capsys)

    pinned = json.loads(PINS.read_text(encoding="utf-8"))["shipped"]
    assert digests(tmp_path, pinned) == pinned
    assert inspected == INSPECT_PINS["shipped"]


def test_fallback_br_run_matches_pinned_digests(tmp_path, capsys):
    pin = json.loads((GOLDEN_DIR / "fallback_br.json").read_text(encoding="utf-8"))
    generator = json.loads((DATA_DIR / "generator_chd.json").read_text(encoding="utf-8"))
    generator = {k: v for k, v in generator.items() if k != "seed"}
    generator["n_records"] = pin["n_records"]
    config = {
        "seed": pin["seed"],
        "out_dir": str(tmp_path),
        "paths": {
            "dataset": str(tmp_path / "corpus.csv"),
            "registry": str(tmp_path / "registry.json"),
            "model": str(tmp_path / "model.json"),
            "hierarchy": str(DATA_DIR / "hierarchy_chd.json"),
            "exclusions": str(DATA_DIR / "exclusions_chd.json"),
        },
        "generator": generator,
        "training": pin["training"],
        "evaluation": pin["evaluation"],
    }
    inspected = replay(config, tmp_path, capsys)

    assert digests(tmp_path, pin["sha256"]) == pin["sha256"]
    assert inspected == INSPECT_PINS["fallback_br"]
