"""Run configuration: one JSON document driving generation, training, and evaluation.

Each section's keys are its dataclass's fields; unknown keys and mistyped
values are rejected (see ``jsondoc``) so typos fail loudly, and every
stochastic step draws from the single top-level seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .cascade import STRATEGIES, STRATEGY_DIVERSE_BR
from .data import GeneratorConfig, _read_generator
from .errors import ValidationError
from .evaluation import MODES, MODE_MULTILABEL
from .jsondoc import Fields, field_names, flag, integer, loads, number, one_of, read, text
from .tree import C45Params, _read_params

PROTOCOLS = ("resubstitution", "holdout", "kfold")

_PATH_KEYS = ("dataset", "registry", "model", "hierarchy", "lexicon", "exclusions")


@dataclass
class TrainingConfig:
    strategy: str = STRATEGY_DIVERSE_BR
    threshold: float = 0.5
    train_size: int | None = None
    stage1_params: C45Params | None = None
    stage2_params: C45Params | None = None
    use_declared_registry: bool = True
    single_label_fallback: bool = False

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TrainingConfig":
        f = Fields(doc, "config training", field_names(cls))
        return cls(
            strategy=f.get("strategy", one_of, STRATEGY_DIVERSE_BR, choices=STRATEGIES),
            threshold=f.get("threshold", number, 0.5, low=0.0, high=1.0, open_low=True),
            train_size=f.optional("train_size", integer),
            stage1_params=f.optional("stage1_params", _read_params),
            stage2_params=f.optional("stage2_params", _read_params),
            use_declared_registry=f.get("use_declared_registry", flag, True),
            single_label_fallback=f.get("single_label_fallback", flag, False),
        )


@dataclass
class EvaluationConfig:
    mode: str = MODE_MULTILABEL
    protocol: str = "resubstitution"
    k: int = 10

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EvaluationConfig":
        f = Fields(doc, "config evaluation", field_names(cls))
        return cls(
            mode=f.get("mode", one_of, MODE_MULTILABEL, choices=MODES),
            protocol=f.get("protocol", one_of, "resubstitution", choices=PROTOCOLS),
            k=f.get("k", integer, 10),
        )


def _read_paths(doc, where: str) -> dict:
    f = Fields(doc, where, _PATH_KEYS)
    return {name: Path(f.get(name, text)) for name in doc if doc[name] is not None}


@dataclass
class RunConfig:
    seed: int | None = None
    out_dir: Path = Path("out")
    label_column: str = "codes"
    label_separator: str = ";"
    id_column: str = "id"
    paths: dict = field(default_factory=dict)
    generator: GeneratorConfig | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RunConfig":
        f = Fields(doc, "config", field_names(cls))
        return cls(
            seed=f.optional("seed", integer),
            out_dir=Path(f.get("out_dir", text, "out")),
            label_column=f.get("label_column", text, "codes"),
            label_separator=f.get("label_separator", text, ";"),
            id_column=f.get("id_column", text, "id"),
            paths=f.get("paths", _read_paths, {}),
            generator=f.optional("generator", _read_generator),
            training=TrainingConfig.from_dict(doc.get("training", {})),
            evaluation=EvaluationConfig.from_dict(doc.get("evaluation", {})),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return read(path, lambda content: cls.from_dict(loads(content, "config")))

    def require_seed(self, step: str) -> int:
        if self.seed is None:
            raise ValidationError(f"{step} is stochastic and requires a seed (config key 'seed' or --seed)")
        return self.seed

    def path(self, key: str, default_name: str | None = None) -> Path:
        if key in self.paths:
            return self.paths[key]
        if default_name is None:
            raise ValidationError(f"config paths.{key} is required for this command")
        return self.out_dir / default_name
