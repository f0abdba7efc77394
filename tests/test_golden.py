"""Golden digests: the shipped run regenerates byte for byte.

The ``data/run_chd.json`` run (gen, train, eval, predict) is replayed into a
temporary directory through ``chidt.cli.main`` and the sha256 of each
canonical file is compared with the ``"shipped"`` block of
``perfbench/pins.json``, so any byte drift fails the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chidt.cli import main

from conftest import DATA_DIR, REPO_ROOT

PINS = REPO_ROOT / "perfbench" / "pins.json"


def test_shipped_run_matches_pinned_digests(tmp_path, capsys):
    config = json.loads((DATA_DIR / "run_chd.json").read_text(encoding="utf-8"))
    config["out_dir"] = str(tmp_path)
    for key, value in config["paths"].items():
        path = Path(value)
        config["paths"][key] = str(tmp_path / path.name if path.parts[0] == "out" else REPO_ROOT / path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for command in ("gen", "train", "eval", "predict"):
        assert main([command, "--config", str(config_path)]) == 0, command
    capsys.readouterr()

    pinned = json.loads(PINS.read_text(encoding="utf-8"))["shipped"]
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned}
    assert got == pinned
