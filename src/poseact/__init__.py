"""Activity recognition from body-joint and object-attribute features.

Linear per-class scoring over block-structured features, trained with a
jointly regularized alternating solver that drives whole joints and whole
object-attribute blocks to zero, plus the data, analysis, benchmark, and CLI
plumbing around it.
"""

from .analysis import (
    ImportanceReport,
    format_report_table,
    importance_report,
    joint_importance,
    normalize_columns,
    object_importance,
    report_to_dict,
)
from .bench import (
    BenchResult,
    bench_predict,
    format_result_table,
    result_to_dict,
)
from .core import (
    Dataset,
    FeatureLayout,
    GroupNames,
    Model,
    attribute_norm,
    default_names,
    loss,
    objective,
    predict,
    predict_batch,
    skeletal_norm,
)
from .data import (
    GeneratedData,
    Standardizer,
    SynthSpec,
    generate,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    split,
    standardize,
)
from .errors import (
    ConfigError,
    DataFormatError,
    LayoutError,
    PoseactError,
    SingularityError,
    ValidationError,
)
from .solver import (
    FitReport,
    SolverConfig,
    check_reweighting_inequality,
    fit,
    smoothed_gradients,
    smoothed_objective,
    stationarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "FeatureLayout",
    "FitReport",
    "GeneratedData",
    "GroupNames",
    "ImportanceReport",
    "LayoutError",
    "Model",
    "PoseactError",
    "SingularityError",
    "SolverConfig",
    "Standardizer",
    "SynthSpec",
    "ValidationError",
    "attribute_norm",
    "bench_predict",
    "check_reweighting_inequality",
    "default_names",
    "fit",
    "format_report_table",
    "format_result_table",
    "generate",
    "importance_report",
    "joint_importance",
    "load_dataset",
    "load_model",
    "loss",
    "normalize_columns",
    "object_importance",
    "objective",
    "predict",
    "predict_batch",
    "report_to_dict",
    "result_to_dict",
    "save_dataset",
    "save_model",
    "skeletal_norm",
    "smoothed_gradients",
    "smoothed_objective",
    "split",
    "standardize",
    "stationarity_residual",
]
