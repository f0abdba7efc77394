"""The benchmark's layer tracer still finds everything it wraps.

``perfbench/tracer.py`` wraps chidt's public layer functions and a few
methods by name, ``ChiDTModel.predict_with_scores`` among them. A refactor
that moves a traced method out of its class makes ``Tracer.install`` raise;
this test makes that a tier-1 failure, not only a benchmark self-test one.
The tracer module is loaded from its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib.util
import sys

from chidt.cascade import ChiDTModel

from conftest import REPO_ROOT


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_this_package(monkeypatch):
    original = vars(ChiDTModel).get("predict_with_scores")
    tracer = load_tracer(monkeypatch).Tracer()
    try:
        tracer.install()
        assert tracer.wrapped > 0
        assert vars(ChiDTModel)["predict_with_scores"] is not original
    finally:
        tracer.uninstall()
    assert tracer.wrapped == 0
    assert vars(ChiDTModel)["predict_with_scores"] is original
