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


# the paper shape: 15 joints of 3 coordinates; 3 objects, each with a 48-bin
# and a 36-bin histogram modality and a 15-d Gaussian one
STRUCTURED_LAYOUT = FeatureLayout((3,) * 15, 3, (48, 36, 15))
# the parent of every joint of a 15-joint body tree, the root (pelvis) first:
# torso, neck, head, two arms of shoulder, elbow and hand, two legs of hip
# and knee
BODY_TREE = (None, 0, 1, 2, 2, 4, 5, 2, 7, 8, 0, 10, 11, 0, 13)


def structured(n: int, seed: int = 0, n_classes: int = 6) -> Dataset:
    """A seeded, standardized dataset laid out as STRUCTURED_LAYOUT whose
    features are correlated the way pose and object features are.

    Every instance draws a latent class.  Skeleton: each joint is its
    parent's position in BODY_TREE (the origin for the root) plus a bone
    drawn from N(latent class offset, 0.2^2) per coordinate, so joints far
    down the tree share their ancestors' draws.  Objects: the two histogram
    modalities are Gamma draws, with shapes set per latent class and bin,
    normalised to sum 1; the Gaussian modality is N(latent class mean, 1).
    Labels are then the argmax of planted scores, as in generate: class c
    has standard-normal ground-truth weights on joint 2c + 1 and on block
    (object c % 3, modality c // 2), scored against the standardized
    features.  After centring, each histogram's bins sum to 0, so G has one
    null direction per histogram: a rank deficit of 6.
    """
    layout = STRUCTURED_LAYOUT
    rng = np.random.default_rng(seed)
    latent = rng.integers(0, n_classes, size=n)
    offsets = rng.standard_normal((n_classes, layout.n_joints, 3))
    bones = offsets[latent].transpose(1, 2, 0) + 0.2 * rng.standard_normal((layout.n_joints, 3, n))
    joints = np.empty_like(bones)
    for j, parent in enumerate(BODY_TREE):
        joints[j] = bones[j] if parent is None else joints[parent] + bones[j]
    objects = []
    for _ in range(layout.object_count):
        for bins in layout.modality_dims[:2]:
            counts = rng.gamma(rng.uniform(0.5, 2.5, size=(n_classes, bins))[latent].T)
            objects.append(counts / counts.sum(axis=0))
        means = rng.standard_normal((n_classes, layout.modality_dims[2]))[latent].T
        objects.append(means + rng.standard_normal(means.shape))
    raw = Dataset(layout=layout, features=np.vstack([joints.reshape(layout.d_t, n)] + objects))
    features = standardize(raw)[0].features
    truth = np.zeros((layout.d_t + layout.d_o, n_classes))
    for c in range(n_classes):
        block = layout.object_block_slices[layout.object_block_index(c % 3, c // 2)]
        for rows in (layout.joint_slices[2 * c + 1], slice(layout.d_t + block.start, layout.d_t + block.stop)):
            truth[rows, c] = rng.standard_normal(rows.stop - rows.start)
    labels = np.zeros((n, n_classes))
    labels[np.arange(n), np.argmax(truth.T @ features, axis=0)] = 1.0
    return Dataset(layout=layout, features=features, labels=labels)


@pytest.fixture
def small_layout() -> FeatureLayout:
    # 3 joints (dims 2, 3, 1), 2 objects x 2 modalities (dims 2, 1)
    return FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))


@pytest.fixture
def small_dataset(small_layout) -> Dataset:
    return build_dataset(small_layout, n=40, n_classes=3, seed=7)
