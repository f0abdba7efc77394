"""Shipped-run preflight: regenerate the ``data/run_chd.json`` run and compare it with pinned digests.

The run's ``out/`` paths are redirected into a scratch directory, then
``gen``, ``train``, ``eval`` and ``predict`` run through ``chidt.cli.main``.
Each canonical file must have the sha256 pinned in ``pins.json``; the tracked
``out/`` directory is not consulted. Exits 1 and names the files on a
mismatch::

    python3 perfbench/preflight.py --dir perfbench/.work/preflight
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from workloads import PINS_PATH, ROOT, sha256

RUN_CONFIG = ROOT / "data" / "run_chd.json"
COMMANDS = ("gen", "train", "eval", "predict")


def shipped_run(work: Path) -> dict:
    """Regenerate the shipped run into ``work``; returns {file: sha256}."""
    sys.path.insert(0, str(ROOT / "src"))
    from chidt.cli import main

    config = json.loads(RUN_CONFIG.read_text(encoding="utf-8"))
    config["out_dir"] = str(work)
    for key, value in config["paths"].items():
        path = Path(value)
        config["paths"][key] = str(work / path.name if path.parts[0] == "out" else ROOT / path)
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config_path)])
        if code != 0:
            raise SystemExit(f"preflight: chidt {command} exited with {code}")
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))["shipped"]
    return {name: sha256(work / name) for name in pinned}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="check the shipped run against pinned digests")
    parser.add_argument("--dir", required=True, help="scratch directory for the regenerated run")
    got = shipped_run(Path(parser.parse_args().dir))
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))["shipped"]
    wrong = sorted(name for name in pinned if got[name] != pinned[name])
    if wrong:
        for name in wrong:
            print(f"preflight: {name} sha256 {got[name]} != pinned {pinned[name]}", file=sys.stderr)
        sys.exit(1)
