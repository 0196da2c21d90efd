"""Throughput measurement for single-frame scoring.

Prediction is timed per frame: one untimed warm-up pass over the dataset,
then repeated passes on a monotonic clock until at least min_duration
seconds accumulate.  Predicted indices feed a running checksum so the work
cannot be optimized away, and the mean per-frame time and its inverse rate
are reported together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Model, _paired_weights, check_number, predict

__all__ = ["BenchResult", "bench_predict", "result_to_dict", "format_result_table"]


@dataclass(frozen=True)
class BenchResult:
    """One timing measurement.

    dims is (d_t, d_o, classes, instances); repetitions counts full passes
    over the dataset.
    """

    predictions_per_second: float
    seconds_per_frame: float
    dims: tuple[int, int, int, int]
    repetitions: int


def bench_predict(model: Model, dataset: Dataset, min_duration_seconds: float = 2.0) -> BenchResult:
    """Measure single-instance prediction throughput on the given data.

    The model must match the dataset's layout and, for labeled data, its
    class names, as in predict_batch.
    """
    _paired_weights(model, dataset)
    min_duration_seconds = check_number(min_duration_seconds, "min_duration_seconds", strict=True)
    frames = [
        (np.ascontiguousarray(dataset.skeleton[:, i]), np.ascontiguousarray(dataset.objects[:, i]))
        for i in range(dataset.n_instances)
    ]
    checksum = 0
    for t, o in frames:  # warm-up pass, never timed
        checksum += predict(model, t, o)[0]

    passes = 0
    count = 0
    start = time.perf_counter()
    while True:
        for t, o in frames:
            checksum += predict(model, t, o)[0]
        passes += 1
        count += len(frames)
        elapsed = time.perf_counter() - start
        if elapsed >= min_duration_seconds:
            break
    if checksum < 0:  # pragma: no cover - checksum only keeps the loop honest
        raise AssertionError("prediction checksum went negative")
    seconds_per_frame = elapsed / count
    return BenchResult(
        predictions_per_second=1.0 / seconds_per_frame,
        seconds_per_frame=seconds_per_frame,
        dims=(model.layout.d_t, model.layout.d_o, model.n_classes, dataset.n_instances),
        repetitions=passes,
    )


def result_to_dict(result: BenchResult) -> dict:
    """JSON-ready view of a BenchResult."""
    d_t, d_o, n_classes, n_instances = result.dims
    return {
        "schema_version": 1,
        "predictions_per_second": result.predictions_per_second,
        "seconds_per_frame": result.seconds_per_frame,
        "dims": {
            "d_t": d_t,
            "d_o": d_o,
            "classes": n_classes,
            "instances": n_instances,
        },
        "repetitions": result.repetitions,
    }


def format_result_table(result: BenchResult) -> str:
    """Two-row aligned table: rate in Hz and seconds per frame."""
    rows = [
        ("Processing Speed (Hz)", f"{result.predictions_per_second:.3e}"),
        ("Time Per Frame (sec)", f"{result.seconds_per_frame:.3e}"),
    ]
    width = max(len(label) for label, _ in rows) + 2
    return "\n".join(label.ljust(width) + value for label, value in rows)
