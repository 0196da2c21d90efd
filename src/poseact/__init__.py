"""Activity recognition from body-joint and object-attribute features.

Linear per-class scoring over block-structured features, trained with a
jointly regularized reweighted least-squares solver that drives whole
joints and whole object-attribute blocks to zero, plus the data, analysis,
benchmark, and CLI plumbing around it.  The package exports the names the
README and the acceptance tests use; everything else is imported from its
submodule (poseact.core, .data, .solver, .analysis, .bench, .errors, .cli).
"""

from .analysis import importance_report
from .bench import bench_predict
from .core import Dataset, FeatureLayout, Model, loss, predict, predict_batch
from .data import (
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
from .errors import PoseactError
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
    "Dataset",
    "FeatureLayout",
    "FitReport",
    "Model",
    "PoseactError",
    "SolverConfig",
    "Standardizer",
    "SynthSpec",
    "bench_predict",
    "check_reweighting_inequality",
    "fit",
    "generate",
    "importance_report",
    "load_dataset",
    "load_model",
    "loss",
    "predict",
    "predict_batch",
    "save_dataset",
    "save_model",
    "smoothed_gradients",
    "smoothed_objective",
    "split",
    "standardize",
    "stationarity_residual",
]
