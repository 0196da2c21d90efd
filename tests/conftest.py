"""Shared fixtures and small dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from poseact import Dataset, FeatureLayout


def build_dataset(layout: FeatureLayout, n: int, n_classes: int, seed: int) -> Dataset:
    """Standard-normal features with uniform one-hot labels."""
    rng = np.random.default_rng(seed)
    skeleton = rng.standard_normal((layout.d_t, n))
    objects = rng.standard_normal((layout.d_o, n))
    labels = np.zeros((n, n_classes))
    labels[np.arange(n), rng.integers(0, n_classes, size=n)] = 1.0
    return Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)


@pytest.fixture
def small_layout() -> FeatureLayout:
    # 3 joints (dims 2, 3, 1), 2 objects x 2 modalities (dims 2, 1)
    return FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))


@pytest.fixture
def small_dataset(small_layout) -> Dataset:
    return build_dataset(small_layout, n=40, n_classes=3, seed=7)
