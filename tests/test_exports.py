"""Every exported name resolves, once, and the package list stays sorted and small."""

from __future__ import annotations

import importlib

import pytest

import poseact

# every submodule that declares __all__
SUBMODULES = ("analysis", "bench", "cli", "core", "data", "solver")


@pytest.mark.parametrize("module_name", ("poseact",) + tuple(f"poseact.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves_once(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), module_name
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, (module_name, missing)


def test_package_exports_are_sorted():
    assert poseact.__all__ == sorted(poseact.__all__)


def test_package_exports_exactly_the_documented_surface():
    """The names perfbench, the acceptance tests and the README import from
    poseact; everything else is reached through its submodule."""
    assert poseact.__all__ == [
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
    # perfbench's span tracer patches functions in each submodule it reaches from the package
    for module_name in ("core", "data", "solver", "analysis", "bench", "errors"):
        assert getattr(poseact, module_name).__name__ == f"poseact.{module_name}"
    # its standardization spans wrap data.standardize, which the package re-exports,
    # and the apply method the Standardizer class defines itself
    assert poseact.standardize is poseact.data.standardize
    assert poseact.Standardizer is poseact.data.Standardizer
    assert callable(vars(poseact.data.Standardizer)["apply"])


def test_core_and_analysis_export_exactly_their_surface():
    """The block scores have one public route each, objective and
    importance_report; no per-half norm or per-side importance is exported."""
    assert poseact.core.__all__ == [
        "FeatureLayout",
        "GroupNames",
        "Dataset",
        "NormalEquations",
        "Model",
        "default_names",
        "block_sums",
        "loss",
        "objective",
        "predict",
        "predict_batch",
    ]
    assert poseact.analysis.__all__ == [
        "ImportanceReport",
        "importance_report",
        "report_to_dict",
        "format_report_table",
    ]
