"""Seeded benchmark inputs: a corpus CSV, the declared registry and a run config.

The corpus is drawn from the label-combination profiles of
``data/generator_chd.json`` by this module's own sampler, so the inputs stay
the same however the program under test changes. The mixed workload adds
three numeric lab-value columns whose means depend on the profile.

Run as a script it is the benchmark's set-up step for one workload: it writes
the inputs into a directory and, where the workload scores a trained model,
trains that model through ``chidt.cli.main``::

    python3 perfbench/inputs.py --spec perfbench/.work/score-br/spec.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROFILES_PATH = ROOT / "data" / "generator_chd.json"

# (column, base mean, profile feature whose rate shifts the mean, shift, sd, low, high)
NUMERIC_COLUMNS = (
    ("troponin_ng_l", 12.0, "troponin_rise", 240.0, 60.0, 0.0, 2000.0),
    ("age_years", 52.0, "prior_mi", 18.0, 11.0, 18.0, 99.0),
    ("lvef_pct", 63.0, "st_elevation", -22.0, 7.0, 10.0, 80.0),
)


def corpus_csv(n_records: int, seed: int, numeric: bool) -> tuple[str, list]:
    """(corpus CSV text, profile label lists): the same seed gives the same bytes."""
    doc = json.loads(PROFILES_PATH.read_text(encoding="utf-8"))
    features = doc["features"]
    profiles = doc["profiles"]
    noise = float(doc["noise_rate"])
    rng = random.Random(seed)
    header = ["id"] + list(features)
    if numeric:
        header += [c[0] for c in NUMERIC_COLUMNS]
    header.append("codes")
    pad = len(str(n_records - 1))
    lines = [",".join(header)]
    for i in range(n_records):
        profile = profiles[rng.randrange(len(profiles))]
        cells = [f"r{i:0{pad}d}"]
        for rate in profile["rates"]:
            bit = rng.random() < rate
            if rng.random() < noise:
                bit = not bit
            cells.append("1" if bit else "0")
        if numeric:
            for _, base, feature, shift, sd, low, high in NUMERIC_COLUMNS:
                mean = base + shift * profile["rates"][features.index(feature)]
                cells.append(f"{min(high, max(low, rng.gauss(mean, sd))):.1f}")
        cells.append(";".join(sorted(profile["labels"])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", [p["labels"] for p in profiles]


def registry_json(combos: list) -> str:
    entries = sorted({tuple(sorted(c)) for c in combos}, key=";".join)
    doc = {"combinations": [{"codes": list(c), "provenance": "declared"} for c in entries]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_config(spec: dict) -> dict:
    """Run config for one workload: the inputs and outputs live in the spec's work dir."""
    work = Path(spec["work"])
    return {
        "seed": spec["seed"],
        "out_dir": str(work),
        "paths": {
            "dataset": str(work / "corpus.csv"),
            "registry": str(work / "registry.json"),
            "model": str(work / "model.json"),
            "exclusions": spec["exclusions"],
            "hierarchy": spec["hierarchy"],
        },
        "training": spec["training"],
        "evaluation": spec["evaluation"],
    }


def write_inputs(spec: dict) -> None:
    """Write corpus.csv, registry.json and config.json into the spec's work dir."""
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    corpus, combos = corpus_csv(spec["records"], spec["seed"], spec["numeric"])
    (work / "corpus.csv").write_text(corpus, encoding="utf-8")
    (work / "registry.json").write_text(registry_json(combos), encoding="utf-8")
    config = json.dumps(run_config(spec), indent=2, sort_keys=True) + "\n"
    (work / "config.json").write_text(config, encoding="utf-8")


def set_up(spec: dict) -> None:
    """The whole set-up of one workload: inputs, then any model it scores."""
    sys.path.insert(0, str(ROOT / "src"))
    from chidt.cli import main

    write_inputs(spec)
    for argv in spec["setup_commands"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--config", spec["config"]])
        if code != 0:
            raise SystemExit(f"set-up command chidt {argv[0]} exited with {code}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="set up one benchmark workload")
    parser.add_argument("--spec", required=True, help="workload spec JSON written by run.py")
    set_up(json.loads(Path(parser.parse_args().spec).read_text(encoding="utf-8")))
