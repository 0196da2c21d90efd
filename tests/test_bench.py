"""Timing harness behavior (kept fast with tiny min durations)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from poseact import Dataset, FeatureLayout, Model, SolverConfig, bench_predict
from poseact.bench import format_result_table, result_to_dict
from poseact.errors import ConfigError, LayoutError, ValidationError

from conftest import build_dataset

LAYOUT = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(3,))


def make_model(n_classes=2):
    rng = np.random.default_rng(4)
    return Model(
        layout=LAYOUT,
        weights=np.vstack(
            (
                rng.standard_normal((LAYOUT.d_t, n_classes)),
                rng.standard_normal((LAYOUT.d_o, n_classes)),
            )
        ),
        class_names=tuple(f"class_{c}" for c in range(n_classes)),
        hyperparams=SolverConfig(),
    )


def test_bench_predict_reports_consistent_numbers():
    model = make_model()
    dataset = build_dataset(LAYOUT, n=32, n_classes=2, seed=0)
    result = bench_predict(model, dataset, min_duration_seconds=0.05)
    assert result.predictions_per_second > 0
    assert result.seconds_per_frame > 0
    assert result.predictions_per_second == pytest.approx(1.0 / result.seconds_per_frame)
    assert result.repetitions >= 1
    assert result.dims == (LAYOUT.d_t, LAYOUT.d_o, 2, 32)


def test_bench_predict_runs_at_least_min_duration():
    model = make_model()
    dataset = build_dataset(LAYOUT, n=16, n_classes=2, seed=1)
    result = bench_predict(model, dataset, min_duration_seconds=0.2)
    # total timed work = spf * instances * passes >= the floor we asked for
    assert result.seconds_per_frame * 16 * result.repetitions >= 0.2


def test_bench_predict_accepts_unlabeled_data_and_single_class():
    model = make_model(n_classes=1)
    rng = np.random.default_rng(2)
    dataset = Dataset(
        layout=LAYOUT,
        features=np.vstack(
            (rng.standard_normal((LAYOUT.d_t, 8)), rng.standard_normal((LAYOUT.d_o, 8)))
        ),
    )
    result = bench_predict(model, dataset, min_duration_seconds=0.01)
    assert result.dims[2] == 1


def test_bench_predict_rejects_bad_duration():
    model = make_model()
    dataset = build_dataset(LAYOUT, n=4, n_classes=2, seed=0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="min_duration_seconds"):
            bench_predict(model, dataset, min_duration_seconds=bad)


def test_bench_predict_rejects_a_dataset_the_model_cannot_score():
    """The same pairing as predict_batch: joints (2, 2) against (1, 3) have the
    same d_t and d_o but another block split; reordered classes do not match."""
    model = make_model()
    other = build_dataset(FeatureLayout((1, 3), 1, (3,)), n=4, n_classes=2, seed=0)
    with pytest.raises(LayoutError, match="^dataset layout does not match model layout$"):
        bench_predict(model, other, min_duration_seconds=0.01)
    dataset = build_dataset(LAYOUT, n=4, n_classes=2, seed=0)
    swapped = Model(
        layout=LAYOUT,
        weights=model.weights,
        class_names=("class_1", "class_0"),
        hyperparams=SolverConfig(),
    )
    with pytest.raises(ValidationError, match="do not match model classes"):
        bench_predict(swapped, dataset, min_duration_seconds=0.01)


def test_result_to_dict_schema():
    model = make_model()
    dataset = build_dataset(LAYOUT, n=8, n_classes=2, seed=3)
    result = bench_predict(model, dataset, min_duration_seconds=0.01)
    payload = result_to_dict(result)
    assert payload["schema_version"] == 1
    assert payload["predictions_per_second"] == result.predictions_per_second
    assert payload["seconds_per_frame"] == result.seconds_per_frame
    assert payload["dims"] == {
        "d_t": LAYOUT.d_t,
        "d_o": LAYOUT.d_o,
        "classes": 2,
        "instances": 8,
    }
    json.dumps(payload)


def test_format_result_table_rows():
    model = make_model()
    dataset = build_dataset(LAYOUT, n=8, n_classes=2, seed=3)
    predict_table = format_result_table(bench_predict(model, dataset, min_duration_seconds=0.01))
    assert "Processing Speed (Hz)" in predict_table
    assert "Time Per Frame (sec)" in predict_table
    assert len(predict_table.splitlines()) == 2
