"""Cascade decision-tree toolkit for multi-label ICD-10 diagnosis coding.

A two-stage multi-label classifier (binary-relevance C4.5 banks with a
validity-registry trigger), the registry, exclusion groups and code set
(read from a code hierarchy) it relies on, table-style evaluation metrics,
and a reproducible CLI.
"""

__version__ = "0.1.0"

from .cascade import (
    BRModel,
    ChiDTModel,
    LPModel,
    model_from_dict,
    model_to_dict,
    train_cascades,
    train_chidt,
)
from .data import (
    AttributeMeta,
    Dataset,
    GeneratorConfig,
    GeneratorProfile,
    cover_all_labels_split,
    export_csv,
    generate_synthetic,
    load_csv,
)
from .errors import SchemaMismatchError, ValidationError
from .evaluation import (
    ConfusionMatrix,
    EvalResult,
    KFoldResult,
    MetricsReport,
    MultiLabelReport,
    accuracy,
    evaluate_holdout,
    evaluate_kfold,
    evaluate_predictions,
    evaluate_resubstitution,
    format_report,
    kappa,
    kfold_assignments,
    probabilistic_errors,
)
from .ontology import (
    ExclusionGroup,
    TermLexicon,
    ValidCombinationRegistry,
    combo_key,
    is_valid,
    load_exclusions,
    load_hierarchy,
    map_terms,
    normalize_term,
    observed_registry,
)
from .tree import (
    C45Params,
    C45Tree,
    best_numeric_threshold,
    grow_bank,
)

__all__ = [
    "AttributeMeta",
    "BRModel",
    "C45Params",
    "C45Tree",
    "ChiDTModel",
    "ConfusionMatrix",
    "Dataset",
    "EvalResult",
    "ExclusionGroup",
    "GeneratorConfig",
    "GeneratorProfile",
    "KFoldResult",
    "LPModel",
    "MetricsReport",
    "MultiLabelReport",
    "SchemaMismatchError",
    "TermLexicon",
    "ValidCombinationRegistry",
    "ValidationError",
    "accuracy",
    "best_numeric_threshold",
    "combo_key",
    "cover_all_labels_split",
    "evaluate_holdout",
    "evaluate_kfold",
    "evaluate_predictions",
    "evaluate_resubstitution",
    "export_csv",
    "format_report",
    "generate_synthetic",
    "grow_bank",
    "is_valid",
    "kappa",
    "kfold_assignments",
    "load_csv",
    "load_exclusions",
    "load_hierarchy",
    "map_terms",
    "model_from_dict",
    "model_to_dict",
    "normalize_term",
    "observed_registry",
    "probabilistic_errors",
    "train_cascades",
    "train_chidt",
]
