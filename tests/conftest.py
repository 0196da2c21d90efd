"""Shared fixtures and small dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from poseact import Dataset, FeatureLayout, standardize


def build_dataset(layout: FeatureLayout, n: int, n_classes: int, seed: int) -> Dataset:
    """Standard-normal features with uniform one-hot labels."""
    rng = np.random.default_rng(seed)
    skeleton = rng.standard_normal((layout.d_t, n))
    objects = rng.standard_normal((layout.d_o, n))
    labels = np.zeros((n, n_classes))
    labels[np.arange(n), rng.integers(0, n_classes, size=n)] = 1.0
    return Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)


def conditioned(dataset: Dataset, decay: float, seed: int = 3) -> Dataset:
    """dataset with its features mixed by Q diag(decay^t) Q' and standardized
    again: Q is a random orthogonal matrix drawn from seed, and t runs evenly
    over [0, 1] across the d feature rows.  On well-spread data cond(G)
    grows like decay^-2 (about 1e4 at decay 1e-2 and 1e6 at 1e-3), while
    the layout, labels and names stay as they were."""
    rows = dataset.features.shape[0]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, rows)))
    mix = (q * decay ** np.linspace(0.0, 1.0, rows)) @ q.T
    mixed = Dataset(
        layout=dataset.layout,
        features=mix @ dataset.features,
        labels=dataset.labels,
        class_names=dataset.class_names,
        names=dataset.names,
    )
    return standardize(mixed)[0]


@pytest.fixture
def small_layout() -> FeatureLayout:
    # 3 joints (dims 2, 3, 1), 2 objects x 2 modalities (dims 2, 1)
    return FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))


@pytest.fixture
def small_dataset(small_layout) -> Dataset:
    return build_dataset(small_layout, n=40, n_classes=3, seed=7)
