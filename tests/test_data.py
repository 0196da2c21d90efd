"""Standardization, synthetic generation, splits, and file round-trips."""

from __future__ import annotations

import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseact.data
from poseact import (
    Dataset,
    FeatureLayout,
    Model,
    SolverConfig,
    Standardizer,
    SynthSpec,
    generate,
    load_dataset,
    load_model,
    predict_batch,
    save_dataset,
    save_model,
    split,
    standardize,
)
from poseact.core import GroupNames
from poseact.data import DATASET_FORMAT, FORMAT_VERSION, MODEL_FORMAT
from poseact.errors import ConfigError, DataFormatError, LayoutError, ValidationError

from conftest import build_dataset


# --- standardize --------------------------------------------------------------


def test_standardize_hand_example():
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    dataset = Dataset(layout=layout, features=np.array([[1.0, 3.0], [10.0, 10.0]]))
    out, transform = standardize(dataset)
    # mean 2, population std 1 -> values land on -1 and +1
    assert np.allclose(out.skeleton, [[-1.0, 1.0]])
    assert transform.mean[0] == 2.0
    assert transform.scale[0] == 1.0
    # the object feature (stacked row 1) is constant: centered, scale left at 1, and flagged
    assert np.allclose(out.objects, [[0.0, 0.0]])
    assert transform.scale[1] == 1.0
    assert transform.constant == (1,)


def test_standardize_flags_a_constant_row_whose_mean_rounds_off():
    """0.1 averaged over 3 instances is not 0.1; the row must still count as constant."""
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    skeleton = np.full((1, 3), 0.1)
    assert skeleton.mean(axis=1)[0] != 0.1 and skeleton.std(axis=1)[0] > 0.0
    # the object row varies, but too little for its std to survive squaring
    dataset = Dataset(layout=layout, features=np.vstack((skeleton, [[0.0, 1e-200, 0.0]])))
    out, transform = standardize(dataset)
    assert transform.constant == (0,)
    assert transform.mean[0] == 0.1 and transform.scale[0] == 1.0
    assert transform.scale[1] == 1.0
    assert np.array_equal(out.skeleton, np.zeros((1, 3)))
    held_out = Dataset(layout=layout, features=[[0.2], [0.0]])
    # exactly 0.2 - 0.1, not the 7e15 a 1.4e-17 scale would give
    assert transform.apply(held_out).skeleton[0, 0] == 0.2 - 0.1


def test_standardize_output_has_zero_mean_unit_variance(small_dataset):
    out, transform = standardize(small_dataset)
    for mat in (out.skeleton, out.objects):
        assert np.allclose(mat.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(mat.std(axis=1), 1.0, atol=1e-12)
    # population (not sample) statistics
    assert np.allclose(transform.mean, small_dataset.features.mean(axis=1))
    assert np.allclose(transform.scale, small_dataset.features.std(axis=1))


def test_standardize_requires_two_instances(small_layout):
    dataset = Dataset(
        layout=small_layout,
        features=np.zeros((small_layout.d_t + small_layout.d_o, 1)),
    )
    with pytest.raises(ValidationError, match="two instances"):
        standardize(dataset)


def test_standardize_keeps_labels_and_names(small_layout):
    dataset = build_dataset(small_layout, n=25, n_classes=3, seed=3)
    out, _ = standardize(dataset)
    assert np.array_equal(out.labels, dataset.labels)
    assert out.class_names == dataset.class_names
    assert out.names == dataset.names


def test_standardizer_apply_replays_training_transform(small_dataset):
    out, transform = standardize(small_dataset)
    replayed = transform.apply(small_dataset)
    assert np.array_equal(replayed.skeleton, out.skeleton)
    assert np.array_equal(replayed.objects, out.objects)


def test_standardizer_apply_uses_training_statistics(small_layout):
    train = build_dataset(small_layout, n=30, n_classes=2, seed=11)
    held_out = build_dataset(small_layout, n=12, n_classes=2, seed=12)
    _, transform = standardize(train)
    out = transform.apply(held_out)
    expected = (held_out.features - transform.mean[:, None]) / transform.scale[:, None]
    assert np.allclose(out.features, expected)
    # held-out data is generally not centered by the training statistics
    assert not np.allclose(out.skeleton.mean(axis=1), 0.0, atol=1e-3)


def test_standardizer_apply_rejects_wrong_width(small_dataset):
    _, transform = standardize(small_dataset)
    other_layout = FeatureLayout(joint_dims=(4,), object_count=1, modality_dims=(2,))
    other = build_dataset(other_layout, n=9, n_classes=2, seed=0)
    with pytest.raises(LayoutError, match="dataset layout does not match standardizer layout"):
        transform.apply(other)


def overflow_free(call, *args):
    """call(*args) with every warning raised as an error, so none can leak."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@pytest.mark.parametrize(
    "row",
    [
        [1.7e308, -1.7e308] + [0.0] * 14,  # the squares overflow
        [1.7e308] * 15 + [1.6e308],  # the sum overflows
        [1.7e308, -1.7e308] * 8,  # partial sums of opposite sign meet as inf - inf
    ],
)
def test_standardize_names_a_feature_whose_statistics_overflow(small_layout, row):
    dataset = build_dataset(small_layout, n=16, n_classes=2, seed=1)
    features = dataset.features.copy()
    features[4] = row
    with pytest.raises(ValidationError, match="standardize overflows float64 at feature 4"):
        overflow_free(standardize, replace(dataset, features=features))


def test_standardize_maps_a_huge_constant_feature_to_zero(small_layout):
    dataset = build_dataset(small_layout, n=5, n_classes=2, seed=1)
    features = dataset.features.copy()
    features[2] = 1.7e308
    scaled, transform = overflow_free(standardize, replace(dataset, features=features))
    assert transform.constant == (2,) and transform.mean[2] == 1.7e308
    assert np.all(scaled.features[2] == 0.0)


@pytest.mark.parametrize(
    "mean, scale, value",
    [(0.0, 0.5, 1.7e308), (-1.0e308, 1.0, 1.7e308), (1.0e308, 2.0, -1.7e308)],
)
def test_standardizer_apply_names_a_feature_that_overflows(small_layout, mean, scale, value):
    dataset = build_dataset(small_layout, n=5, n_classes=2, seed=2)
    rows = small_layout.d_t + small_layout.d_o
    transform = Standardizer(
        small_layout, mean=np.full(rows, mean), scale=np.full(rows, scale)
    )
    features = dataset.features.copy()
    features[3, 2] = value
    with pytest.raises(ValidationError, match="standardizing overflows float64 at feature 3"):
        overflow_free(transform.apply, replace(dataset, features=features))


def test_standardizer_validates_its_fields():
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(1,))
    good = dict(layout=layout, mean=[0.0, 0.0, 0.0], scale=[1.0, 1.0, 1.0])
    assert Standardizer(**good, constant=(0, 2)).constant == (0, 2)
    with pytest.raises(ValidationError, match="strictly positive"):
        Standardizer(**{**good, "scale": [1.0, 0.0, 1.0]})
    with pytest.raises(ValidationError, match="strictly positive"):
        Standardizer(**{**good, "scale": [1.0, 1.0, -1.0]})
    with pytest.raises(LayoutError, match="mean has 4 entries, layout expects 3"):
        Standardizer(**{**good, "mean": [0.0, 0.0, 0.0, 0.0]})
    with pytest.raises(LayoutError, match="scale has 2 entries, layout expects 3"):
        Standardizer(**{**good, "scale": [1.0, 1.0]})
    with pytest.raises(LayoutError, match="mean must be a 1-d array"):
        Standardizer(**{**good, "mean": [[0.0, 0.0, 0.0]]})
    with pytest.raises(ValidationError, match="non-finite"):
        Standardizer(**{**good, "mean": [0.0, 0.0, np.nan]})
    # numeric strings, booleans and ragged nesting are not numbers
    with pytest.raises(ValidationError, match="mean must hold real numbers"):
        Standardizer(**{**good, "mean": ["0.5", "1", "2"], "scale": [True, True, True]})
    with pytest.raises(ValidationError, match="scale must hold real numbers"):
        Standardizer(**{**good, "scale": [True, True, True]})
    with pytest.raises(ValidationError, match="mean must be a rectangular array"):
        Standardizer(**{**good, "mean": [[0.0, 0.0], [0.0]]})
    # constant holds stacked row indices in [0, d)
    with pytest.raises(LayoutError, match=r"constant entry out of range: must be in \[0, 3\)"):
        Standardizer(**good, constant=(3,))
    with pytest.raises(LayoutError, match="constant entry out of range"):
        Standardizer(**good, constant=(-1,))
    for index in (0.5, "1", True):
        with pytest.raises(LayoutError, match="constant entry must be an integer"):
            Standardizer(**good, constant=(index,))
    with pytest.raises(LayoutError, match="constant must be a sequence"):
        Standardizer(**good, constant=1)


# --- synthetic data -----------------------------------------------------------


LAYOUT = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))


def make_spec(**overrides):
    base = dict(
        layout=LAYOUT,
        n_classes=2,
        n_instances=50,
        noise_sigma=0.1,
        planted_joints=((0,), (1,)),
        planted_blocks=(((0, 0),), ((1, 1),)),
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_synth_spec_rejects_bad_values():
    bad = [
        dict(n_classes=1),
        dict(n_classes=2.0),
        dict(n_instances=0),
        dict(noise_sigma=-0.1),
        dict(noise_sigma=float("nan")),
        dict(seed=-1),
        dict(planted_joints=((0,),)),  # one class listed, two declared
        dict(planted_joints=((0,), ())),  # empty support
        dict(planted_joints=((0,), (3,))),  # joint index out of range
        dict(planted_blocks=(((0, 0),),)),
        dict(planted_blocks=(((0, 0),), ())),
        dict(planted_blocks=(((0, 0),), ((2, 0),))),  # object out of range
        dict(planted_blocks=(((0, 0),), ((0, 2),))),  # modality out of range
        # non-integer indices are rejected, not truncated or read as 0/1
        dict(planted_joints=((0.7,), (1,))),
        dict(planted_joints=((0,), ("1",))),
        dict(planted_joints=((True,), (1,))),
        dict(planted_blocks=(((0, True),), ((0, 0),))),
        dict(planted_blocks=(((0, 0),), ((0.9, 0),))),
        dict(planted_blocks=(((0, 0),), ((0, "1"),))),
        # the nesting is checked too: flat lists, and pairs that are not pairs
        dict(planted_joints=(0, 1)),
        dict(planted_joints=3),
        dict(planted_blocks=((0, 0), (0, 1))),
        dict(planted_blocks=(((0,),), ((0, 0),))),
        dict(planted_blocks=(((0, 0, 0),), ((0, 0),))),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            make_spec(**overrides)


def test_synth_spec_sorts_and_deduplicates_support():
    spec = make_spec(
        planted_joints=((2, 0, 2), (1,)),
        planted_blocks=(((1, 0), (0, 0), (1, 0)), ((0, 1),)),
    )
    assert spec.planted_joints == ((0, 2), (1,))
    assert spec.planted_blocks == (((0, 0), (1, 0)), ((0, 1),))


def test_generate_shapes_and_one_hot_labels():
    spec = make_spec(n_instances=40)
    made = generate(spec)
    dataset = made.dataset
    assert dataset.skeleton.shape == (LAYOUT.d_t, 40)
    assert dataset.objects.shape == (LAYOUT.d_o, 40)
    assert dataset.labels.shape == (40, 2)
    assert np.array_equal(np.sort(np.unique(dataset.labels)), [0.0, 1.0])
    assert np.array_equal(dataset.labels.sum(axis=1), np.ones(40))
    assert dataset.class_names == ("class_0", "class_1")
    assert made.true_weights.shape == (LAYOUT.d_t + LAYOUT.d_o, 2)
    assert not made.true_weights.flags.writeable


def test_generate_names_a_shape_numpy_cannot_allocate():
    """Shapes numpy refuses before touching memory, by their entry count
    (over 2^63) or their byte count (over 2^48), raise ConfigError naming
    the shape, not numpy's ValueError or MemoryError."""
    wide = FeatureLayout(joint_dims=(2**63, 1), object_count=2, modality_dims=(2, 1))
    with pytest.raises(ConfigError, match=f"{wide.d_t + wide.d_o} x 2 ground-truth weights"):
        generate(make_spec(layout=wide))
    d = LAYOUT.d_t + LAYOUT.d_o
    with pytest.raises(ConfigError, match=f"{d} x {2**45} feature matrix"):
        generate(make_spec(n_instances=2**45))


def test_generate_is_deterministic():
    a = generate(make_spec())
    b = generate(make_spec())
    assert np.array_equal(a.dataset.skeleton, b.dataset.skeleton)
    assert np.array_equal(a.dataset.objects, b.dataset.objects)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.true_weights, b.true_weights)
    c = generate(make_spec(seed=6))
    assert not np.array_equal(a.dataset.skeleton, c.dataset.skeleton)


def test_generate_puts_weight_only_on_planted_support():
    spec = make_spec(
        planted_joints=((0, 2), (1,)),
        planted_blocks=(((0, 1),), ((1, 0), (0, 0))),
    )
    made = generate(spec)
    true_w, true_u = made.true_weights[: LAYOUT.d_t], made.true_weights[LAYOUT.d_t :]
    for c in range(spec.n_classes):
        planted = set(spec.planted_joints[c])
        for j, sl in enumerate(LAYOUT.joint_slices):
            block = true_w[sl, c]
            if j in planted:
                assert np.all(block != 0.0)
            else:
                assert np.all(block == 0.0)
        planted_idx = {LAYOUT.object_block_index(o, m) for o, m in spec.planted_blocks[c]}
        for b, sl in enumerate(LAYOUT.object_block_slices):
            block = true_u[sl, c]
            if b in planted_idx:
                assert np.all(block != 0.0)
            else:
                assert np.all(block == 0.0)


def test_generate_labels_are_argmax_of_clean_scores():
    # with no feature noise the returned features ARE the clean features,
    # so the labels must be recomputable from the planted weights
    spec = make_spec(noise_sigma=0.0, n_instances=80, seed=13)
    made = generate(spec)
    dataset = made.dataset
    true_w, true_u = made.true_weights[: LAYOUT.d_t], made.true_weights[LAYOUT.d_t :]
    for i in range(dataset.n_instances):
        scores = true_w.T @ dataset.skeleton[:, i] + true_u.T @ dataset.objects[:, i]
        assert dataset.labels[i, int(np.argmax(scores))] == 1.0


def test_generate_noise_perturbs_features_but_not_labels():
    clean = generate(make_spec(noise_sigma=0.0, seed=21))
    noisy = generate(make_spec(noise_sigma=0.5, seed=21))
    assert np.array_equal(clean.dataset.labels, noisy.dataset.labels)
    assert np.array_equal(clean.true_weights, noisy.true_weights)
    assert not np.array_equal(clean.dataset.skeleton, noisy.dataset.skeleton)
    spread = np.abs(noisy.dataset.skeleton - clean.dataset.skeleton)
    assert spread.mean() < 1.0  # sigma 0.5 jitter, not a resample


def test_generate_matches_a_two_block_draw():
    """One d x N draw for the features, then the noise drawn row by row, give the
    same stream as drawing the skeleton block, then the object block."""
    spec = make_spec(n_instances=60, noise_sigma=0.7, seed=23)
    made = generate(spec)
    rng = np.random.default_rng(spec.seed)
    true_w = np.zeros((LAYOUT.d_t, spec.n_classes))
    true_u = np.zeros((LAYOUT.d_o, spec.n_classes))
    for c in range(spec.n_classes):
        for j in spec.planted_joints[c]:
            sl = LAYOUT.joint_slices[j]
            true_w[sl, c] = rng.standard_normal(sl.stop - sl.start)
    for c in range(spec.n_classes):
        for o, m in spec.planted_blocks[c]:
            sl = LAYOUT.object_block_slices[LAYOUT.object_block_index(o, m)]
            true_u[sl, c] = rng.standard_normal(sl.stop - sl.start)
    skeleton = rng.standard_normal((LAYOUT.d_t, 60))
    objects = rng.standard_normal((LAYOUT.d_o, 60))
    winners = np.argmax(skeleton.T @ true_w + objects.T @ true_u, axis=1)
    skeleton = skeleton + 0.7 * rng.standard_normal(skeleton.shape)
    objects = objects + 0.7 * rng.standard_normal(objects.shape)
    assert np.array_equal(made.true_weights, np.vstack((true_w, true_u)))
    assert made.dataset.skeleton.tobytes() == skeleton.tobytes()
    assert made.dataset.objects.tobytes() == objects.tobytes()
    assert np.array_equal(np.argmax(made.dataset.labels, axis=1), winners)


PAPER_LAYOUT = FeatureLayout((3,) * 15, 3, (48, 36, 15))  # 45 + 297 = 342 features


def paper_spec(n, seed):
    """The paper's shape, 6 classes, one planted joint and one planted block each."""
    return SynthSpec(
        layout=PAPER_LAYOUT,
        n_classes=6,
        n_instances=n,
        noise_sigma=0.5,
        planted_joints=tuple((2 * c + 1,) for c in range(6)),
        planted_blocks=tuple(((c % 3, c // 2),) for c in range(6)),
        seed=seed,
    )


def reference_generate(spec):
    """generate's draws with its scores taken as skeleton.T @ true_w + objects.T @ true_u,
    the product over the transposed feature blocks: (features, true_weights, winners)."""
    layout = spec.layout
    rng = np.random.default_rng(spec.seed)
    true_weights = np.zeros((layout.d_t + layout.d_o, spec.n_classes))
    true_w, true_u = true_weights[: layout.d_t], true_weights[layout.d_t :]
    for c in range(spec.n_classes):
        for j in spec.planted_joints[c]:
            sl = layout.joint_slices[j]
            true_w[sl, c] = rng.standard_normal(sl.stop - sl.start)
    for c in range(spec.n_classes):
        for o, m in spec.planted_blocks[c]:
            sl = layout.object_block_slices[layout.object_block_index(o, m)]
            true_u[sl, c] = rng.standard_normal(sl.stop - sl.start)
    features = rng.standard_normal((layout.d_t + layout.d_o, spec.n_instances))
    skeleton, objects = features[: layout.d_t], features[layout.d_t :]
    winners = np.argmax(skeleton.T @ true_w + objects.T @ true_u, axis=1)
    for row in features:
        row += spec.noise_sigma * rng.standard_normal(row.shape)
    return features, true_weights, winners


@pytest.mark.parametrize("n, seed", [(7000, 1), (7000, 2), (7000, 3), (20000, 4), (20000, 5)])
def test_generate_data_is_unmoved_by_the_score_orientation(n, seed):
    """The scores' orientation is a memory choice only: at the paper's shape the
    labels are the argmax of the transposed-block product, and the features and
    ground truth are byte-identical."""
    spec = paper_spec(n, seed)
    made = generate(spec)
    features, true_weights, winners = reference_generate(spec)
    assert made.dataset.features.tobytes() == features.tobytes()
    assert made.true_weights.tobytes() == true_weights.tobytes()
    assert np.array_equal(np.argmax(made.dataset.labels, axis=1), winners)


GENERATE_RSS_CHILD = """
from pathlib import Path
from poseact import FeatureLayout, SynthSpec, generate

def peak_rss():
    # VmHWM, not ru_maxrss: the latter keeps the spawning process's peak across exec
    status = Path("/proc/self/status").read_text().split("VmHWM:")[1]
    return int(status.split()[0]) * 1024

def spec(n):
    layout = FeatureLayout((3,) * 15, 3, (48, 36, 15))
    return SynthSpec(layout, 6, n, 0.5, ((0,),) * 6, (((0, 0),),) * 6)

generate(spec(200))  # the first products' one-off set-up, not counted
before = peak_rss()
made = generate(spec(7000))
print((peak_rss() - before) / made.dataset.features.nbytes)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_generate_leaves_no_blas_workspace_in_the_process():
    """generate's peak resident memory grows by about its feature matrix.

    tracemalloc cannot see what a BLAS library allocates, so this reads the
    peak RSS of a fresh interpreter with OpenBLAS at 2 threads.  Scores
    taken over the transposed d x N blocks (N x d operands) left OpenBLAS
    holding a workspace about that size: the peak grew by about 2.0x the
    feature matrix, against about 1.2x now."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    package_root = str(Path(poseact.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", GENERATE_RSS_CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    growth = float(child.stdout)
    assert growth <= 1.5, f"generate grew peak RSS by {growth:.2f}x its feature matrix"


def assert_stacked(dataset):
    d_t = dataset.layout.d_t
    # neither the matrix nor any array behind it, such as one its producer
    # sliced or transposed, can be written to
    owner = dataset.features
    while isinstance(owner, np.ndarray):
        assert not owner.flags.writeable
        owner = owner.base
    assert np.shares_memory(dataset.skeleton, dataset.features[:d_t])
    assert np.shares_memory(dataset.objects, dataset.features[d_t:])
    assert np.array_equal(dataset.features, np.vstack([dataset.skeleton, dataset.objects]))


def test_every_dataset_producer_returns_a_stacked_dataset(tmp_path):
    made = generate(make_spec(n_instances=30))
    dataset = made.dataset
    scaled, transform = standardize(dataset)
    train, test = split(dataset, 0.6, seed=1)
    path = tmp_path / "stacked.txt"
    save_dataset(dataset, path)
    renamed = replace(dataset, class_names=("x", "y"))
    assert_stacked(dataset)
    for derived in (scaled, transform.apply(test), train, test, load_dataset(path), renamed):
        assert_stacked(derived)
        assert not np.shares_memory(derived.features, dataset.features)
    # the reader's row-per-instance parse gives an F-ordered matrix, and the dataset keeps it
    assert load_dataset(path).features.flags.f_contiguous
    # replace copies the matrix it is given
    assert np.array_equal(renamed.features, dataset.features)
    shifted = replace(dataset, features=np.vstack((dataset.skeleton + 1.0, dataset.objects)))
    assert_stacked(shifted)
    assert np.array_equal(shifted.features[: LAYOUT.d_t], dataset.skeleton + 1.0)
    assert np.array_equal(shifted.features[LAYOUT.d_t :], dataset.objects)


# --- split ----------------------------------------------------------------------


def test_split_sizes_follow_rounding(small_layout):
    dataset = build_dataset(small_layout, n=10, n_classes=2, seed=1)
    train, test = split(dataset, train_fraction=0.73, seed=0)
    assert train.n_instances == 7
    assert test.n_instances == 3


def test_split_partitions_the_instances(small_layout):
    dataset = build_dataset(small_layout, n=37, n_classes=3, seed=8)
    train, test = split(dataset, train_fraction=0.7, seed=4)
    # fingerprint each instance by its (almost surely unique) first feature
    fingerprint = {dataset.skeleton[0, i]: i for i in range(37)}
    assert len(fingerprint) == 37
    seen = []
    for part in (train, test):
        for i in range(part.n_instances):
            j = fingerprint[part.skeleton[0, i]]
            seen.append(j)
            assert np.array_equal(part.skeleton[:, i], dataset.skeleton[:, j])
            assert np.array_equal(part.objects[:, i], dataset.objects[:, j])
            assert np.array_equal(part.labels[i], dataset.labels[j])
    assert sorted(seen) == list(range(37))
    for part in (train, test):
        assert part.layout == dataset.layout
        assert part.class_names == dataset.class_names
        assert part.names == dataset.names


def test_split_is_seed_deterministic(small_layout):
    dataset = build_dataset(small_layout, n=50, n_classes=2, seed=2)
    a_train, a_test = split(dataset, 0.6, seed=9)
    b_train, b_test = split(dataset, 0.6, seed=9)
    assert np.array_equal(a_train.skeleton, b_train.skeleton)
    assert np.array_equal(a_test.objects, b_test.objects)
    c_train, _ = split(dataset, 0.6, seed=10)
    assert not np.array_equal(a_train.skeleton, c_train.skeleton)


def test_split_rejects_bad_fractions(small_layout):
    dataset = build_dataset(small_layout, n=8, n_classes=2, seed=0)
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="between 0 and 1"):
            split(dataset, frac, seed=0)
    with pytest.raises(ConfigError, match="empty side"):
        split(dataset, 0.01, seed=0)
    with pytest.raises(ConfigError, match="empty side"):
        split(dataset, 0.99, seed=0)


def reference_split(dataset, train_fraction, seed):
    """split as it was before each side kept its own gather: one permuted copy
    of the whole matrix, then Dataset's copy of each side's slice of it."""
    n = dataset.n_instances
    n_train = int(round(train_fraction * n))
    order = np.random.default_rng(seed).permutation(n)
    features = dataset.features.take(order, axis=1)

    def part(cols):
        return replace(
            dataset,
            features=features[:, cols],
            labels=None if dataset.labels is None else dataset.labels[order[cols]],
        )

    return part(slice(n_train)), part(slice(n_train, None))


def reference_apply(transform, dataset):
    """Standardizer.apply as it was before the dataset kept its result: Dataset
    copies the centered and scaled array."""
    features = dataset.features - transform.mean[:, None]
    features /= transform.scale[:, None]
    return replace(dataset, features=features)


def dataset_outcome(dataset):
    """A dataset down to the bytes and strides of its arrays."""
    labels = None if dataset.labels is None else (dataset.labels.tobytes(), dataset.labels.strides)
    features = dataset.features.tobytes(), dataset.features.strides
    return dataset.layout, dataset.class_names, dataset.names, features, labels


def ordered_dataset(layout, n, order, labeled, seed):
    """build_dataset held in the given memory order (a loaded dataset is F-ordered)."""
    dataset = build_dataset(layout, n=n, n_classes=3, seed=seed)
    features = np.asarray(dataset.features, order=order)
    if labeled:
        return replace(dataset, features=features)
    return replace(dataset, features=features, labels=None, class_names=None)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("sides", [(1, 65), (65, 1), (2, 2), (2, 65), (1, 1)])
@pytest.mark.parametrize("labeled", [True, False])
def test_split_matches_the_copying_split(small_layout, order, sides, labeled):
    n = sum(sides)
    dataset = ordered_dataset(small_layout, n, order, labeled, seed=n)
    assert dataset.features.flags[f"{order}_CONTIGUOUS"]
    fraction = sides[0] / n
    new = split(dataset, fraction, seed=n)
    old = reference_split(dataset, fraction, seed=n)
    assert tuple(side.n_instances for side in new) == sides
    assert [dataset_outcome(side) for side in new] == [dataset_outcome(side) for side in old]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 65])
@pytest.mark.parametrize("labeled", [True, False])
def test_standardizer_apply_matches_the_copying_apply(small_layout, order, n, labeled):
    _, transform = standardize(build_dataset(small_layout, n=40, n_classes=3, seed=5))
    dataset = ordered_dataset(small_layout, n, order, labeled, seed=n)
    assert dataset.features.flags[f"{order}_CONTIGUOUS"]
    expected = dataset_outcome(reference_apply(transform, dataset))
    assert dataset_outcome(transform.apply(dataset)) == expected
    if n > 1:
        scaled, fitted = standardize(dataset)
        assert dataset_outcome(scaled) == dataset_outcome(reference_apply(fitted, dataset))


def test_split_handles_unlabeled_data(small_layout):
    rng = np.random.default_rng(0)
    dataset = Dataset(
        layout=small_layout,
        features=np.vstack(
            (
                rng.standard_normal((small_layout.d_t, 20)),
                rng.standard_normal((small_layout.d_o, 20)),
            )
        ),
    )
    train, test = split(dataset, 0.5, seed=1)
    assert train.labels is None and test.labels is None
    assert train.n_instances == 10 and test.n_instances == 10


# --- dataset files ---------------------------------------------------------------


def named_dataset(n=12, seed=3):
    layout = FeatureLayout(joint_dims=(2, 1), object_count=2, modality_dims=(1, 2))
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, 3))
    labels[np.arange(n), rng.integers(0, 3, size=n)] = 1.0
    return Dataset(
        layout=layout,
        features=np.vstack(
            (rng.standard_normal((layout.d_t, n)), rng.standard_normal((layout.d_o, n)))
        ),
        labels=labels,
        class_names=("walk", "drink", "wave"),
        names=GroupNames(
            joints=("hip", "wrist"),
            objects=("cup", "phone"),
            modalities=("pos", "size"),
        ),
    )


def test_dataset_file_round_trip(tmp_path):
    dataset = named_dataset()
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert back.layout == dataset.layout
    assert np.array_equal(back.skeleton, dataset.skeleton)
    assert np.array_equal(back.objects, dataset.objects)
    assert np.array_equal(back.labels, dataset.labels)
    assert back.class_names == dataset.class_names
    assert back.names == dataset.names


def test_dataset_file_round_trip_unlabeled(tmp_path):
    layout = FeatureLayout(joint_dims=(3,), object_count=1, modality_dims=(2,))
    rng = np.random.default_rng(7)
    dataset = Dataset(
        layout=layout,
        features=np.vstack((rng.standard_normal((3, 5)), rng.standard_normal((2, 5)))),
    )
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert back.labels is None
    assert back.class_names is None
    assert np.array_equal(back.skeleton, dataset.skeleton)


def test_dataset_file_bytes_are_stable(tmp_path):
    dataset = named_dataset(seed=9)
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    save_dataset(dataset, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_dataset_refuses_silent_overwrite(tmp_path):
    dataset = named_dataset()
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    with pytest.raises(FileExistsError, match="overwrite"):
        save_dataset(dataset, path)
    save_dataset(dataset, path, overwrite=True)  # explicit is fine


def test_files_from_the_json_writer_still_load(tmp_path):
    """A file spelled the way json.dumps writes it loads to the same dataset."""
    dataset = named_dataset()
    dataset = replace(
        dataset,
        features=np.vstack((dataset.skeleton * 1e-7, dataset.objects)),
        class_names=("a", "wävé", "c"),
    )
    path, old_path = tmp_path / "new.txt", tmp_path / "old.txt"
    save_dataset(dataset, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    old = [json.dumps(orjson.loads(line)) for line in lines]
    # json.dumps puts a space after each comma, writes "1e-07" and escapes non-ASCII
    assert all(", " in line for line in old) and "e-07" in old[1] and "\\u00e4" in old[0]
    old_path.write_text("\n".join(old) + "\n", encoding="utf-8")
    back = load_dataset(old_path)
    assert back.skeleton.tobytes() == dataset.skeleton.tobytes()
    assert back.class_names == dataset.class_names
    save_dataset(back, old_path, overwrite=True)
    assert old_path.read_bytes() == path.read_bytes()


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, 2.0**53, 2.0**63, 1e22, 1e-7]
)
NAMES = st.text(st.characters(codec="utf-8"), min_size=1, max_size=4)  # non-ASCII, no surrogates


@st.composite
def datasets(draw):
    """A small random layout, finite floats and UTF-8 names, labeled or not."""
    dims = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
    layout = FeatureLayout(draw(dims), draw(st.integers(1, 2)), draw(dims))
    n = draw(st.integers(1, 4))
    width = layout.d_t + layout.d_o
    matrix = np.array(draw(st.lists(FLOATS, min_size=width * n, max_size=width * n)))
    matrix = matrix.reshape(width, n)
    labeled = draw(st.booleans())
    classes = draw(st.none() | st.lists(NAMES, min_size=2, max_size=4, unique=True).map(tuple))
    if labeled and classes is None:
        classes = ("a", "b")
    labels = None
    if labeled:
        winners = draw(st.lists(st.integers(0, len(classes) - 1), min_size=n, max_size=n))
        labels = np.eye(len(classes))[winners]

    def group(count):
        return tuple(draw(st.lists(NAMES, min_size=count, max_size=count)))

    return Dataset(
        layout=layout,
        features=matrix,
        labels=labels,
        class_names=classes,
        names=GroupNames(group(layout.n_joints), group(layout.object_count), group(layout.n_modalities)),
    )


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(dataset=datasets())
def test_dataset_file_round_trip_is_exact(dataset, round_trip_dir):
    """load(save(ds)) is bit-equal, save(load(f)) is f, and json reads every row alike."""
    first, second = round_trip_dir / "a.txt", round_trip_dir / "b.txt"
    save_dataset(dataset, first, overwrite=True)
    back = load_dataset(first)
    assert back.layout == dataset.layout and back.names == dataset.names
    assert back.class_names == dataset.class_names
    assert back.skeleton.tobytes() == dataset.skeleton.tobytes()  # -0.0 included
    assert back.objects.tobytes() == dataset.objects.tobytes()
    if dataset.labels is None:
        assert back.labels is None
    else:
        assert np.array_equal(back.labels, dataset.labels)
    save_dataset(back, second, overwrite=True)
    assert second.read_bytes() == first.read_bytes()
    header, *rows = first.read_text(encoding="utf-8").split("\n")[:-1]
    assert json.loads(header)["classes"] == list(dataset.class_names or ())
    expected = np.vstack([dataset.skeleton, dataset.objects])
    for i, row in enumerate(rows):
        values = json.loads(row)[: expected.shape[0]]
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == expected[:, i].tobytes()


def traced_peak(call, *args):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_file_memory_at_paper_shape(tmp_path):
    """At the paper's shape the writer holds a few chunks of rows, not the
    file, and the reader about one feature matrix (the one it fills and
    Dataset keeps, with its headroom) plus one row, not the file's text and
    floats."""
    rng = np.random.default_rng(0)
    n = 5000
    dataset = Dataset(
        layout=PAPER_LAYOUT,
        features=rng.standard_normal((PAPER_LAYOUT.d_t + PAPER_LAYOUT.d_o, n)),
        labels=np.eye(6)[rng.integers(0, 6, size=n)],
        class_names=tuple(f"class_{c}" for c in range(6)),
    )
    path = tmp_path / "wide.txt"
    nbytes = dataset.features.nbytes
    save_peak = traced_peak(save_dataset, dataset, path)
    assert save_peak <= 0.5 * nbytes, f"save peak {save_peak / 1e6:.1f} MB"
    load_peak = traced_peak(load_dataset, path)
    assert load_peak <= 1.3 * nbytes, f"load peak {load_peak / 1e6:.1f} MB"


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"old")

    def chunks():
        yield b"new"
        raise RuntimeError("encoding failed")

    with pytest.raises(RuntimeError, match="encoding failed"):
        poseact.data._atomic_write(path, chunks(), overwrite=True)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]


def test_a_write_error_names_the_target_not_the_temp_file(tmp_path):
    """The temp file's name is random, so an error that names it tells the
    user nothing; the error names the path asked for."""
    target = tmp_path / "missing" / "model.json"
    with pytest.raises(FileNotFoundError) as caught:
        save_model(small_model(), target)
    assert str(target) in str(caught.value) and ".tmp" not in str(caught.value)
    assert caught.value.filename == str(target)


def write_lines(tmp_path, *lines):
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def good_header(**overrides):
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "joint_dims": [1],
        "object_count": 1,
        "modality_dims": [1],
        "classes": ["a", "b"],
    }
    header.update(overrides)
    return json.dumps(header)


def test_load_dataset_header_errors(tmp_path):
    cases = [
        ("{not json", "line 1"),
        (json.dumps([1, 2]), "must be a JSON object"),
        (good_header(format="something-else"), "format"),
        (good_header(version=99), "version"),
        (json.dumps({"format": DATASET_FORMAT, "version": FORMAT_VERSION}), "missing"),
        (good_header(joint_dims=[0]), "bad layout"),
        (good_header(classes=["a", "a"]), "duplicates"),
        (good_header(classes=["a", ""]), "non-empty strings"),
        # a string is not split into one-character names
        (good_header(names={"joints": "a", "objects": ["o"], "modalities": ["m"]}), "lists"),
        # wider than any row struct: the first row's width check names it
        (good_header(joint_dims=[10**30, 3]), rf"row 0 \(line 2\): 3 entries, expected {10**30 + 4}"),
    ]
    for header, fragment in cases:
        path = write_lines(tmp_path, header, '[0.0, 0.0, "a"]')
        with pytest.raises(DataFormatError, match=fragment):
            load_dataset(path)


def test_names_utf8_cannot_hold_are_rejected(tmp_path):
    """A lone surrogate cannot be written to a UTF-8 file, so no name may hold one."""
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    with pytest.raises(ValidationError, match="UTF-8"):
        Dataset(
            layout=layout,
            features=[[0.0, 1.0], [1.0, 0.0]],
            labels=np.eye(2),
            class_names=("\ud800", "b"),
        )
    with pytest.raises(ValidationError, match="UTF-8"):
        GroupNames(joints=("a\udfff",), objects=("o",), modalities=("m",))
    # json escapes a lone surrogate, so a header can still spell one
    for header in (
        good_header(classes=["\ud800", "b"]),
        good_header(names={"joints": ["\udc00"], "objects": ["o"], "modalities": ["m"]}),
    ):
        path = write_lines(tmp_path, header, '[0.0, 0.0, "b"]')
        with pytest.raises(DataFormatError, match=r"line 1: bad (classes|names) \(.*UTF-8"):
            load_dataset(path)


ROW_ERRORS = [
    ("[0.0, 0.0", r"row 0 \(line 2\)"),
    ('{"a": 1}', "expected a JSON array"),
    ('[0.0, "a"]', "entry 1 is not a number"),
    ('[0.0, true, "a"]', "entry 1 is not a number"),
    ('[0.0, NaN, "a"]', "entry 1 is not finite"),
    ('[0.0, 0.0, 0.0, "a"]', "expected 2 features"),
    ('[0.0, 0.0, "zzz"]', "unknown label"),
    ("[0.0, 0.0, 17]", "label must be a string"),
    # one past the float range: isfinite would overflow converting it
    ("[0.0, " + "9" * 401 + ', "a"]', "entry 1 is too large for a float"),
    # past the interpreter's digit limit for integer literals
    ("[0.0, " + "9" * 5000 + ', "a"]', r"row 0 \(line 2\) is not valid JSON"),
    # nested past the interpreter's recursion limit
    ("[" * 100_000, r"row 0 \(line 2\) is not valid JSON \(maximum recursion depth"),
]


def test_load_dataset_row_errors(tmp_path):
    header = good_header()
    for row, fragment in ROW_ERRORS:
        path = write_lines(tmp_path, header, row)
        with pytest.raises(DataFormatError, match=fragment):
            load_dataset(path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(header.encode() + b'\n[0.0, 0.0, "\xe9"]\n')
    with pytest.raises(DataFormatError, match="not UTF-8"):
        load_dataset(path)


def test_load_dataset_rejects_mixed_labeled_rows(tmp_path):
    path = write_lines(tmp_path, good_header(), '[0.0, 0.0, "a"]', "[0.0, 0.0]")
    with pytest.raises(DataFormatError, match=r"row 1 \(line 3\).*mixes"):
        load_dataset(path)


def test_load_dataset_empty_and_headerless_files(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        load_dataset(path)
    path = write_lines(tmp_path, good_header())
    with pytest.raises(DataFormatError, match="no instance rows"):
        load_dataset(path)


def test_load_dataset_labeled_rows_need_two_classes(tmp_path):
    path = write_lines(tmp_path, good_header(classes=["only"]), '[0.0, 0.0, "only"]')
    with pytest.raises(DataFormatError, match="fewer than two classes"):
        load_dataset(path)


# --- the streaming reader and writer against the whole-file ones they replaced ----


def reference_checked_rows(lines, width, classes):
    """The row loop of the whole-text reader: every row parsed and checked in
    file order, then all of them stacked by one np.array call."""
    features = []
    label_indices = []
    labeled = None
    class_index = {name: c for c, name in enumerate(classes)}
    for offset, raw in enumerate(lines):
        row_id = f"row {offset} (line {offset + 2})"
        try:
            row = orjson.loads(raw)
        except orjson.JSONDecodeError:
            row = poseact.data._parse_json(raw, row_id)
        if not isinstance(row, list):
            raise DataFormatError(f"{row_id}: expected a JSON array")
        has_label = len(row) == width + 1
        if not has_label and len(row) != width:
            raise DataFormatError(
                f"{row_id}: {len(row)} entries, expected {width} features"
                f" plus an optional label"
            )
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise DataFormatError(f"{row_id}: mixes labeled and unlabeled rows")
        values = row[:width]
        poseact.data._check_numbers(values, row_id)
        if has_label:
            label = row[width]
            if not isinstance(label, str):
                raise DataFormatError(
                    f"{row_id}: label must be a string, got {poseact.data._shown(label)}"
                )
            if label not in class_index:
                raise DataFormatError(f"{row_id}: unknown label {label!r}")
            label_indices.append(class_index[label])
        features.append(values)
    if not features:
        raise DataFormatError("file has a header but no instance rows")
    data = np.array(features, dtype=np.float64).T
    labels = None
    if labeled:
        if len(classes) < 2:
            raise DataFormatError(
                "rows carry labels but the header declares fewer than two classes"
            )
        labels = np.zeros((len(features), len(classes)))
        labels[np.arange(len(features)), label_indices] = 1.0
    return data, labels


def reference_load_dataset(path):
    """The whole-text reader load_dataset replaced: decode the whole file,
    split it at "\n", then parse the header and the rows."""
    lines = poseact.data._read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError("file is empty")
    layout, classes, names = poseact.data._parse_header(lines.pop(0))
    data, labels = reference_checked_rows(lines, layout.d_t + layout.d_o, classes)
    return Dataset(
        layout=layout,
        features=data,
        labels=labels,
        class_names=classes if classes else None,
        names=names,
    )


def reference_dataset_bytes(dataset):
    """The whole-file writer save_dataset replaced: every row, as a list of
    Python floats and its label, encoded into one buffer."""
    layout, names = poseact.data._encode_header(dataset.layout, dataset.names)
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        **layout,
        "classes": list(dataset.class_names) if dataset.class_names else [],
        "names": names,
    }
    if dataset.labels is None:
        labels = [()] * dataset.n_instances
    else:
        labels = [(dataset.class_names[c],) for c in np.argmax(dataset.labels, axis=1).tolist()]
    out = bytearray(orjson.dumps(header, option=orjson.OPT_APPEND_NEWLINE))
    for x, label in zip(dataset.features.T, labels):
        out += orjson.dumps([*x.tolist(), *label], option=orjson.OPT_APPEND_NEWLINE)
    return bytes(out)


def read_outcome(reader, path):
    """What reader makes of path: the error's type and message, or the Dataset
    down to its bytes and strides."""
    try:
        back = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return dataset_outcome(back)


def assert_readers_agree(path):
    assert read_outcome(load_dataset, path) == read_outcome(reference_load_dataset, path)


def test_readers_agree_on_every_row_error(tmp_path):
    header = good_header()
    for row, _ in ROW_ERRORS:
        assert_readers_agree(write_lines(tmp_path, header, row))
    path = tmp_path / "latin1.txt"
    path.write_bytes(header.encode() + b'\n[0.0, 0.0, "\xe9"]\n')
    assert_readers_agree(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "\n\n",
        good_header(),
        good_header() + "\n",
        good_header() + "\n\n",
        good_header() + '\n[0.0, 0.0, "a"]',
        good_header() + '\n[0.0, 0.0, "a"]\n\n',
        good_header() + '\n[0.0, 1.0, "a"]\n[1.0, 0.0, "b"]\n',
        good_header() + '\n[0.0, 1.0]\r[1.0, 0.0]\r\n',
        good_header(classes=["only"]) + '\n[0.0, 0.0, "only"]\n',
        good_header() + '\n[0.0, 0.0, "a"]\n[0.0, 0.0]\n',
    ],
)
def test_readers_agree_on_short_files(tmp_path, text):
    path = tmp_path / "short.txt"
    path.write_bytes(text.encode())
    assert_readers_agree(path)


@pytest.mark.parametrize("n", [1, poseact.data._CHUNK_ROWS, poseact.data._CHUNK_ROWS + 1, 300])
@pytest.mark.parametrize("labeled", [True, False])
def test_streaming_matches_the_whole_file_io_across_chunk_boundaries(tmp_path, n, labeled):
    dataset = named_dataset(n=n, seed=n)
    if not labeled:
        dataset = replace(dataset, labels=None, class_names=None)
    path = tmp_path / "rows.txt"
    save_dataset(dataset, path)
    assert path.read_bytes() == reference_dataset_bytes(dataset)
    assert_readers_agree(path)


def hard_floats(n, seed):
    """n finite floats: the edge values, random bit patterns and random exponents."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, size=n)
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-7, 2.0**53, 2.0**63, 1e22, 0.1]
    edges += [2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate((edges, bits, scaled))
    return values[np.isfinite(values)][:n]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("labeled", [True, False])
def test_save_dataset_spells_floats_as_the_list_writer(tmp_path, order, labeled):
    """Rows encoded from numpy by orjson are the bytes of rows encoded from
    Python floats, label escapes included."""
    layout = FeatureLayout((3,) * 5, 2, (40, 33))  # 15 + 146 features
    n = 150
    features = hard_floats(161 * n, seed=labeled).reshape(161, n)
    classes = ('say "hi"', "wävé", "back\\slash", "tab\t")
    dataset = Dataset(
        layout=layout,
        features=np.asarray(features, order=order),
        labels=np.eye(4)[np.arange(n) % 4] if labeled else None,
        class_names=classes,
    )
    path = tmp_path / "hard.txt"
    save_dataset(dataset, path)
    assert path.read_bytes() == reference_dataset_bytes(dataset)
    assert load_dataset(path).features.tobytes() == dataset.features.tobytes()


def test_label_indices_serve_scoring_and_files_unchanged(tmp_path):
    """Dataset.label_indices is the argmax of the one-hot labels, built once
    and read-only; predict_batch's accuracy and save_dataset's bytes read it
    and come out as they do from a fresh argmax.  Unlabeled data has none."""
    layout = FeatureLayout((3,) * 5, 2, (4, 3))
    dataset = build_dataset(layout, n=300, n_classes=4, seed=83)
    truth = np.argmax(dataset.labels, axis=1)
    indices = dataset.label_indices
    assert np.array_equal(indices, truth) and indices.dtype == truth.dtype
    assert dataset.label_indices is indices
    assert not indices.flags.writeable
    with pytest.raises(ValueError):
        indices[0] = 1
    weights = np.random.default_rng(83).standard_normal((layout.d_t + layout.d_o, 4))
    model = Model(layout, weights, dataset.class_names, SolverConfig())
    predicted, accuracy = predict_batch(model, dataset)
    assert np.array_equal(predicted, np.argmax(weights.T @ dataset.features, axis=0))
    assert accuracy == float(np.mean(predicted == truth))
    path = tmp_path / "labeled.txt"
    save_dataset(dataset, path)
    assert path.read_bytes() == reference_dataset_bytes(dataset)
    unlabeled = Dataset(layout=layout, features=dataset.features)
    assert unlabeled.label_indices is None


SEVEN_HEADER = good_header(joint_dims=[3, 2], modality_dims=[2])  # seven features a row
# labels whose text holds a "t", an "f", an escaped quote, or is a JSON literal's
BOOL_LETTER_CLASSES = ["a", "fetch_t", "tft", 'say "t"', "true"]


def number_texts(count, seed):
    """count number spellings: ints (-0 and [2**63, 2**64) among them), the
    float edges and random bit patterns, shuffled."""
    rng = np.random.default_rng(seed)
    ints = ["0", "-0", "1", "-1", str(2**53 + 1), str(-(2**63)), str(2**63 - 1), str(2**63)]
    ints += [str(2**64 - 1), str(2**63 + 1025), str(10**29 + 1), str(-(10**29) - 1)]
    ints += [str(int(v)) for v in rng.integers(2**63, 2**64, size=20, dtype=np.uint64)]
    ints += [str(int(v)) for v in rng.integers(-(2**63), 2**63, size=20, dtype=np.int64)]
    floats = ["5e-324", "-5e-324", "-0.0", "0.0", "1.7976931348623157e308", "-1.7976931348623157e308"]
    floats += [repr(v) for v in hard_floats(count, seed).tolist()]
    texts = (ints + floats) * (count // (len(ints) + len(floats)) + 1)
    return [texts[i] for i in rng.permutation(len(texts))[:count]]


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("spaced", [False, True])
def test_packed_rows_are_the_list_fill_bit_for_bit(tmp_path, n, labeled, spaced):
    """Every number spelling loads to the double the list fill stored, in the
    same F order, a lone row as the same C-ordered column, either side of the
    chunk boundary; with json.dumps spacing too."""
    texts = number_texts(7 * n, seed=n)
    rows = [texts[7 * k : 7 * k + 7] for k in range(n)]
    labels = [[json.dumps("ab"[k % 2])] if labeled else [] for k in range(n)]
    sep = ", " if spaced else ","
    lines = ("[" + sep.join(row + label) + "]" for row, label in zip(rows, labels))
    path = write_lines(tmp_path, SEVEN_HEADER, *lines)
    assert_readers_agree(path)
    features = load_dataset(path).features
    # an int is stored as float(int): "-0" as 0.0, not -0.0
    expected = np.array([[float(json.loads(t)) for t in row] for row in rows]).T
    assert features.tobytes() == expected.tobytes()
    assert features.flags.f_contiguous and (n > 1 or features.flags.c_contiguous)


BAD_ENTRIES = {
    "true": "is not a number (True)",
    "false": "is not a number (False)",
    '"s"': "is not a number ('s')",
    "null": "is not a number (None)",
    "[]": "is not a number ([])",
    "{}": "is not a number ({})",
    "9" * 400: "is too large for a float",
    "NaN": "is not finite (nan)",
}


@pytest.mark.parametrize("bad", list(BAD_ENTRIES))
@pytest.mark.parametrize("at_row", [0, 64])
def test_a_bad_entry_is_named_as_the_list_fill_named_it(tmp_path, bad, at_row):
    """A non-number at the first, a middle or the last entry of row 0 or row
    64 gets the message the list fill gave, whatever the row's label.  A bool
    packs as 1.0 or 0.0, so only the row's text before the label betrays it,
    also when the label itself holds a "t", an "f" or an escaped quote."""
    header = good_header(joint_dims=[3, 2], modality_dims=[2], classes=BOOL_LETTER_CLASSES)
    for label in [*BOOL_LETTER_CLASSES, None]:
        tail = "" if label is None else ", " + json.dumps(label)
        good = "[" + ", ".join(["0.5"] * 7) + tail + "]"
        for k in (0, 3, 6):
            entries = ["1.25"] * 7
            entries[k] = bad
            lines = [good] * 66
            lines[at_row] = "[" + ", ".join(entries) + tail + "]"
            path = write_lines(tmp_path, header, *lines)
            assert_readers_agree(path)
            with pytest.raises(DataFormatError) as caught:
                load_dataset(path)
            where = f"row {at_row} (line {at_row + 2})"
            assert str(caught.value) == f"{where}: entry {k} {BAD_ENTRIES[bad]}", (label, k)


@pytest.mark.parametrize("first, rest", [("-1.2345678901234567e-300", "0"), ("0", "-0.12345678901234567")])
def test_reader_sized_from_an_unlike_first_row_matches_the_whole_file_reader(tmp_path, first, rest):
    """A first row much longer than the rest makes the reader grow its matrix
    several times; a much shorter one leaves it far too large until it is
    trimmed.  Either way the dataset is the whole-file reader's."""
    lines = [good_header(), json.dumps([float(first)] * 2)]
    lines += [json.dumps([float(rest) * k] * 2) for k in range(1, 1000)]
    path = write_lines(tmp_path, *lines)
    assert_readers_agree(path)
    assert load_dataset(path).n_instances == 1000


def test_readers_agree_on_one_byte_corruptions(tmp_path):
    small = tmp_path / "small.txt"
    save_dataset(named_dataset(n=6, seed=5), small)
    original = small.read_bytes()
    path = tmp_path / "corrupted.txt"
    for seed in range(300):
        rng = np.random.default_rng(seed)
        at = int(rng.integers(len(original)))
        path.write_bytes(original[:at] + bytes([int(rng.integers(256))]) + original[at + 1 :])
        assert read_outcome(load_dataset, path) == read_outcome(reference_load_dataset, path), seed


def test_a_bad_byte_anywhere_wins_at_its_offset_in_the_file(file_of_300_rows, tmp_path):
    """A bad byte past the reader's first buffer is named at its offset in the
    file, also behind an earlier fault that would be named without it."""
    lines = file_of_300_rows.read_bytes().split(b"\n")
    lines[-2] = lines[-2].replace(b"]", b"\xff]")
    late = b"\n".join(lines)
    assert late.index(b"\xff") > 8192  # past the text layer's first 8 KiB read
    for name, content, fault in [
        ("late.txt", late, None),
        ("bad_header.txt", b"{not json" + late[late.index(b"\n") :], "line 1: header"),
        ("bad_row.txt", late.replace(b"\n[", b"\n[[", 1), r"row 0 \(line 2\)"),
    ]:
        path = tmp_path / name
        path.write_bytes(content)
        assert_readers_agree(path)
        with pytest.raises(DataFormatError) as caught:
            load_dataset(path)
        at = content.index(b"\xff")
        assert str(caught.value) == f"{path} is not UTF-8 text (bad byte at {at})"
        if fault:
            path.write_bytes(content.replace(b"\xff", b""))
            with pytest.raises(DataFormatError, match=fault):
                load_dataset(path)
    path = tmp_path / "truncated.txt"
    path.write_bytes(file_of_300_rows.read_bytes() + "é".encode()[:1])
    assert_readers_agree(path)
    at = path.stat().st_size - 1
    with pytest.raises(DataFormatError, match=rf"not UTF-8 text \(bad byte at {at}\)"):
        load_dataset(path)


def test_crlf_and_cr_files_load_as_their_lf_twin(tmp_path):
    """Lines end at "\n", "\r\n" or a lone "\r", as text mode reads them."""
    dataset = named_dataset(n=150, seed=8)
    lf = tmp_path / "lf.txt"
    save_dataset(dataset, lf)
    expected = read_outcome(load_dataset, lf)
    content = lf.read_bytes()
    # the file spans several of the text layer's 8 KiB reads
    assert len(content) > 8192 and b"\r" not in content
    for name, ending in (("crlf.txt", b"\r\n"), ("cr.txt", b"\r")):
        path = tmp_path / name
        path.write_bytes(content.replace(b"\n", ending))
        assert read_outcome(load_dataset, path) == expected, name


JSON_VALUES = (
    st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
    | st.text(max_size=2)
)


def first_bad_entry(values):
    """The message _check_numbers must give for values, or None: the spec, value by value."""
    for k, v in enumerate(values):
        if type(v) not in (int, float):
            return f"entry {k} is not a number ({v!r})"
        try:
            if not math.isfinite(float(v)):
                return f"entry {k} is not finite ({v!r})"
        except OverflowError:
            return f"entry {k} is too large for a float"
    return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    values=st.lists(st.floats(-1e9, 1e9) | st.integers(-(10**6), 10**6), max_size=8),
    bad=st.data(),
)
def test_check_numbers_matches_the_spec(values, bad):
    """The whole-row check never accepts what the value-by-value loop would reject."""
    if values and bad.draw(st.booleans(), label="corrupt"):
        values[bad.draw(st.integers(0, len(values) - 1), label="at")] = bad.draw(JSON_VALUES)
    expected = first_bad_entry(values)
    if expected is None:
        poseact.data._check_numbers(values, "row 0")
    else:
        with pytest.raises(DataFormatError) as caught:
            poseact.data._check_numbers(values, "row 0")
        assert str(caught.value) == f"row 0: {expected}"


@pytest.fixture
def file_of_300_rows(tmp_path):
    path = tmp_path / "rows.txt"
    save_dataset(named_dataset(n=300, seed=4), path)
    return path


def test_valid_file_skips_the_per_value_loop(file_of_300_rows, monkeypatch):
    calls = []
    check = poseact.data._row_number
    monkeypatch.setattr(poseact.data, "_row_number", lambda v: calls.append(v) or check(v))
    back = load_dataset(file_of_300_rows)
    assert back.n_instances == 300
    assert calls == []


@pytest.mark.parametrize(
    "k, value, message",
    [
        (0, "NaN", "entry 0 is not finite (nan)"),
        (4, "true", "entry 4 is not a number (True)"),
        (8, "9" * 401, "entry 8 is too large for a float"),
    ],
)
def test_bad_value_in_the_last_row_is_named(file_of_300_rows, k, value, message):
    lines = file_of_300_rows.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[-2])
    assert len(row) == 10  # nine features and a label
    row[k] = value
    lines[-2] = "[" + ", ".join(v if i == k else json.dumps(v) for i, v in enumerate(row)) + "]"
    file_of_300_rows.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DataFormatError) as caught:
        load_dataset(file_of_300_rows)
    assert str(caught.value) == f"row 299 (line 301): {message}"


# --- the row parser: orjson first, json for the rows orjson rejects ------------------


def reject(text):
    raise orjson.JSONDecodeError("rejected", text, 0)


def load_outcome(path, json_only=False):
    """load_dataset's arrays as bytes, or its DataFormatError message."""
    with pytest.MonkeyPatch.context() as patch:
        if json_only:
            patch.setattr(poseact.data.orjson, "loads", reject)
        try:
            back = load_dataset(path)
        except DataFormatError as exc:
            return str(exc)
    labels = None if back.labels is None else back.labels.tobytes()
    return back.skeleton.tobytes(), back.objects.tobytes(), labels


WIDE_HEADER = good_header(joint_dims=[3], modality_dims=[2])  # five features a row
DIGITS = st.integers(1, 9).map(str)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-(2**63), 2**64 - 1).map(str),
    # decimal strings with 15-40 significant digits, down to the subnormals
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        DIGITS,
        st.integers(10**13, 10**39),
        st.integers(-340, 310),
    ),
    # 30-digit integer literals, past 64 bits
    st.builds("{}{}{}".format, st.sampled_from(["", "-"]), DIGITS, st.integers(10**28, 10**29 - 1)),
    st.sampled_from(["-0", "-0.0", "1E5", "1e-400", "5e-324", "2.4703282292062328e-324"]),
)
# past the float range, past the interpreter's digit limit, or not finite
NOT_FINITE = st.sampled_from(
    ["9" * 401, "-" + "9" * 401, "1" + "0" * 4999, "1e400", "-1e400", "NaN", "Infinity", "-Infinity"]
)
SMALL_NUMBERS = st.floats(-1e6, 1e6).map(repr) | st.integers(-99, 99).map(str)
OTHERS = st.one_of(
    st.sampled_from(["true", "false", "null", '"zzz"', '"\\u00e9"', '"\\ud800"', '"é"']),
    st.sampled_from(['"\\ud800\\udc00"', '"a\\"b"', "[]", "{}", '{"a": 1, "a": 2}']),
    st.text(max_size=3).map(json.dumps),
    st.lists(SMALL_NUMBERS | st.just('"a"'), max_size=3).map(lambda v: "[" + ", ".join(v) + "]"),
    st.builds('{{"k": [{}]}}'.format, SMALL_NUMBERS),
)
LABELS = st.sampled_from(['"a"', '"b"', '"\\u0061"']) | OTHERS | SMALL_NUMBERS
SPACE = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def json_rows(draw, labeled):
    """One row's text: five features and maybe a label, now and then spoiled.

    Integer literals past 64 bits go only where a number belongs: orjson reads
    them as floats, so elsewhere they would show up in a message differently
    (pinned in test_known_parser_divergences).
    """
    entries = draw(st.lists(FINITE, min_size=5, max_size=5))
    if labeled:
        entries.append(draw(LABELS))
    for spoiler in (NOT_FINITE, OTHERS):
        if draw(st.integers(0, 5)) == 5:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(spoiler)
    if draw(st.integers(0, 9)) == 9:  # a wrong width
        entries = entries[: draw(st.integers(0, 4))]
    text = ",".join(draw(SPACE) + entry + draw(SPACE) for entry in entries)
    return draw(SPACE) + "[" + text + "]" + draw(SPACE)


@pytest.fixture(scope="module")
def rows_path(tmp_path_factory):
    return tmp_path_factory.mktemp("rows") / "rows.txt"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(rows=st.booleans().flatmap(lambda labeled: st.lists(json_rows(labeled), min_size=1, max_size=3)))
def test_orjson_rows_load_as_json_rows_do(rows, rows_path):
    """Every row loads to bit-equal arrays, or fails with the same message, either way."""
    rows_path.write_text("\n".join([WIDE_HEADER, *rows]) + "\n", encoding="utf-8")
    assert load_outcome(rows_path) == load_outcome(rows_path, json_only=True)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "9" * 401])
def test_orjson_yields_no_non_finite_number(literal):
    """A row orjson parsed skips the finiteness pass; this is what allows it."""
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(f"[{literal}]")


def test_rows_orjson_parsed_skip_the_finiteness_pass(file_of_300_rows, monkeypatch):
    """Also when the labels hold a "t", an "f" or an escaped quote: only the
    text before a label is searched for a bool."""
    bool_letters = file_of_300_rows.with_name("bool_letters.txt")
    dataset = named_dataset(n=300, seed=4)
    save_dataset(replace(dataset, class_names=("fetch_t", 'say "t"', "true")), bool_letters)
    calls = []
    monkeypatch.setattr(poseact.data, "_check_numbers", lambda *args: calls.append(args))
    for path in (file_of_300_rows, bool_letters):
        assert load_dataset(path).n_instances == 300
    assert calls == []


DEEP = 1020  # past json's recursion limit, within orjson's 1024 levels


@pytest.mark.parametrize(
    "row, shipped, json_only",
    [
        # (a) an integer literal outside [-2**63, 2**64) where no number belongs
        (
            "[0.0, 0.0, 1" + "0" * 29 + "]",
            ": label must be a string, got 1e+29",
            ": label must be a string, got 1" + "0" * 29,
        ),
        (
            "[0.0, [18446744073709551616], 0.0]",
            ": entry 1 is not a number ([1.8446744073709552e+19])",
            ": entry 1 is not a number ([18446744073709551616])",
        ),
        (
            '[0.0, 0.0, [-9223372036854775809, "a"]]',
            ": label must be a string, got [-9.223372036854776e+18, 'a']",
            ": label must be a string, got [-9223372036854775809, 'a']",
        ),
        # (b) nesting deeper than json's recursion limit and repr's
        (
            "[" * DEEP + "]" * DEEP,
            ": 1 entries, expected 2 features plus an optional label",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
        (
            "[0.0, " + "[" * DEEP + "]" * DEEP + ', "a"]',
            ": entry 1 is not a number (a list nested too deeply to show)",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
        (
            '[0.0, 0.0, {"k": ' + "[" * DEEP + "]" * DEEP + "}]",
            ": label must be a string, got a dict nested too deeply to show",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
    ],
    ids=["a-label", "a-nested", "a-nested-label", "b-row", "b-entry", "b-label"],
)
def test_known_parser_divergences(tmp_path, row, shipped, json_only):
    """The only two ways a row's message depends on which parser read it."""
    path = write_lines(tmp_path, good_header(), row)
    assert load_outcome(path) == "row 0 (line 2)" + shipped
    # the recursion message goes on in the interpreter's own words
    assert load_outcome(path, json_only=True).startswith("row 0 (line 2)" + json_only)


# --- model files ------------------------------------------------------------------


def small_model(with_standardizer=False):
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(2,))
    rng = np.random.default_rng(17)
    transform = None
    if with_standardizer:
        transform = Standardizer(
            layout=layout,
            mean=rng.standard_normal(layout.d_t + layout.d_o),
            scale=np.repeat([2.0, 0.5], (layout.d_t, layout.d_o)),
            constant=(1,),
        )
    return Model(
        layout=layout,
        weights=np.vstack(
            (rng.standard_normal((layout.d_t, 2)), rng.standard_normal((layout.d_o, 2)))
        ),
        class_names=("sit", "stand"),
        hyperparams=SolverConfig(lambda1=0.3, lambda2=0.05, tol=1e-7, max_iters=40),
        names=GroupNames(joints=("knee", "ankle"), objects=("chair",), modalities=("pos",)),
        standardizer=transform,
    )


def test_model_rejects_standardizer_for_another_layout():
    transform = small_model(with_standardizer=True).standardizer
    wider_layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(3,))
    wider = replace(transform, layout=wider_layout, mean=np.zeros(6), scale=np.ones(6))
    with pytest.raises(LayoutError, match="standardizer layout does not match model layout"):
        replace(small_model(), standardizer=wider)
    with pytest.raises(LayoutError, match=r"constant entry out of range: must be in \[0, 5\)"):
        replace(transform, constant=(5,))


def test_standardizer_for_another_block_split_is_rejected():
    """Same d_t and d_o, different joints: the rows mean different features."""
    model = small_model()
    swapped = FeatureLayout(joint_dims=(1, 2), object_count=1, modality_dims=(2,))
    assert (swapped.d_t, swapped.d_o) == (model.layout.d_t, model.layout.d_o)
    transform = small_model(with_standardizer=True).standardizer
    other = replace(transform, layout=swapped)
    with pytest.raises(LayoutError, match="standardizer layout does not match model layout"):
        replace(model, standardizer=other)
    dataset = build_dataset(model.layout, n=4, n_classes=2, seed=5)
    with pytest.raises(LayoutError, match="dataset layout does not match standardizer layout"):
        other.apply(dataset)
    assert transform.apply(dataset).layout == model.layout


def test_model_file_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.layout == model.layout
    assert np.array_equal(back.w, model.w)
    assert np.array_equal(back.u, model.u)
    assert back.class_names == model.class_names
    assert back.hyperparams == model.hyperparams
    assert back.names == model.names
    assert back.standardizer is None


def test_model_weights_are_rebuilt_by_replace_and_reload_bit_equal(tmp_path):
    model = small_model()
    transform = small_model(with_standardizer=True).standardizer
    rescaled = replace(model, standardizer=transform)
    assert rescaled.weights is not model.weights
    assert np.array_equal(rescaled.weights, model.weights)
    assert np.shares_memory(rescaled.w, rescaled.weights)
    assert np.shares_memory(rescaled.u, rescaled.weights)
    path = tmp_path / "model.json"
    save_model(rescaled, path)
    back = load_model(path)
    assert back.weights.tobytes() == rescaled.weights.tobytes()
    assert np.shares_memory(back.w, back.weights)


def test_model_file_round_trip_with_standardizer(tmp_path):
    model = small_model(with_standardizer=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.standardizer.layout == model.layout
    assert np.array_equal(back.standardizer.mean, model.standardizer.mean)
    assert np.array_equal(back.standardizer.scale, model.standardizer.scale)
    assert back.standardizer.constant == (1,)


def test_model_file_cuts_the_standardizer_at_d_t(tmp_path):
    """The file keeps per-side keys; constant rows on both sides land on their side."""
    model = small_model()  # d_t = 3, d_o = 2
    transform = Standardizer(
        layout=model.layout,
        mean=[0.5, -1.0, 2.0, 0.25, 3.0],
        scale=[2.0, 1.0, 0.5, 4.0, 1.0],
        constant=(1, 2, 4),
    )
    path = tmp_path / "model.json"
    save_model(replace(model, standardizer=transform), path)
    assert json.loads(path.read_text())["standardizer"] == {
        "skeleton_mean": [0.5, -1.0, 2.0],
        "skeleton_scale": [2.0, 1.0, 0.5],
        "object_mean": [0.25, 3.0],
        "object_scale": [4.0, 1.0],
        "skeleton_constant": [1, 2],
        "object_constant": [1],
    }
    back = load_model(path).standardizer
    assert back.constant == (1, 2, 4)
    assert back.mean.tolist() == transform.mean.tolist()
    assert back.scale.tolist() == transform.scale.tolist()


def test_model_file_bytes_are_stable(tmp_path):
    model = small_model(with_standardizer=True)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_model_refuses_silent_overwrite(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(FileExistsError, match="overwrite"):
        save_model(model, path)
    save_model(model, path, overwrite=True)


def test_load_model_errors(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())

    def mutated(**changes):
        out = {**doc, **changes}
        target = tmp_path / "mutated.json"
        target.write_text(json.dumps(out), encoding="utf-8")
        return target

    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_model(bad)
    bad.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_model(bad)
    with pytest.raises(DataFormatError, match="format"):
        load_model(mutated(format="other"))
    with pytest.raises(DataFormatError, match="version"):
        load_model(mutated(version=2))
    with pytest.raises(DataFormatError, match="classes"):
        load_model(mutated(classes=[]))
    with pytest.raises(DataFormatError, match="w must hold"):
        load_model(mutated(w=doc["w"][:-1]))
    with pytest.raises(DataFormatError, match="non-finite"):
        load_model(mutated(u=[None] + doc["u"][1:]))
    with pytest.raises(DataFormatError, match="bad hyperparams"):
        load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": -1.0}))
    with pytest.raises(DataFormatError, match="bad standardizer"):
        load_model(mutated(standardizer={"skeleton_mean": [0.0]}))
    with pytest.raises(DataFormatError, match="bad names"):
        load_model(mutated(names={"joints": ["only-one"]}))
    with pytest.raises(DataFormatError, match="must be lists"):
        load_model(mutated(names={**doc["names"], "joints": "ab"}))
    # integer literals one past the float range overflow a float conversion
    huge = int("9" * 401)
    with pytest.raises(DataFormatError, match="w has a non-finite.*too large for a float"):
        load_model(mutated(w=[huge] + doc["w"][1:]))
    with pytest.raises(DataFormatError, match="bad hyperparams"):
        load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": huge}))
    scaling = {"skeleton_scale": [1.0] * 3, "object_mean": [0.0] * 2, "object_scale": [1.0] * 2}
    with pytest.raises(DataFormatError, match="bad standardizer"):
        load_model(mutated(standardizer={**scaling, "skeleton_mean": [huge, 0.0, 0.0]}))
    fitted = {**scaling, "skeleton_mean": [0.0] * 3}
    short = {**fitted, "skeleton_mean": [0.0] * 2, "skeleton_scale": [1.0] * 2}
    with pytest.raises(DataFormatError, match="standardizer has 2 skeleton features, layout has 3"):
        load_model(mutated(standardizer=short))
    with pytest.raises(DataFormatError, match="object_constant indices outside"):
        load_model(mutated(standardizer={**fitted, "object_constant": [2]}))
    with pytest.raises(DataFormatError, match="skeleton_constant indices outside"):
        load_model(mutated(standardizer={**fitted, "skeleton_constant": [-1]}))
    assert load_model(mutated(standardizer={**fitted, "skeleton_constant": [2]})).standardizer
    for index in (0.5, "1", True):
        with pytest.raises(DataFormatError, match="skeleton_constant entry must be an integer"):
            load_model(mutated(standardizer={**fitted, "skeleton_constant": [index]}))
    # strings and booleans are not numbers, in any standardizer vector
    for name, vector, shown in (
        ("skeleton_mean", ["0.5", "1", "2"], "'0.5'"),
        ("object_scale", [True, False], "True"),
        ("object_mean", [0.0, "2"], "'2'"),
    ):
        with pytest.raises(
            DataFormatError,
            match=rf"bad standardizer \({name}\): entry \d is not a number \({shown}\)",
        ):
            load_model(mutated(standardizer={**fitted, name: vector}))
    for value in ("0.5", True):
        with pytest.raises(DataFormatError, match=rf"lambda1 must be a number, got {value!r}"):
            load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": value}))
    with pytest.raises(DataFormatError, match="layout is missing 'object_count'"):
        load_model(mutated(layout={"joint_dims": [2, 1], "modality_dims": [2]}))
    bad.write_bytes(path.read_bytes().replace(b"sit", b"s\xffs"))
    with pytest.raises(DataFormatError, match="not UTF-8"):
        load_model(bad)


def test_load_model_fills_missing_hyperparams_from_solver_defaults(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["hyperparams"] = {"lambda1": 0.3, "seed": 5, "not_a_hyperparameter": "ignored"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    # a model file from before fit's deterministic start carries "seed",
    # which now loads as any unknown key: ignored
    assert load_model(path).hyperparams == SolverConfig(lambda1=0.3)
    save_model(load_model(path), path, overwrite=True)
    written = json.loads(path.read_text())["hyperparams"]
    assert written == asdict(SolverConfig(lambda1=0.3)) and "seed" not in written
    doc["hyperparams"] = {}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).hyperparams == SolverConfig()


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        save_dataset(named_dataset(), tmp_path / "data.txt")
        save_model(small_model(), tmp_path / "model.json")
    finally:
        os.umask(old)
    # the temp files are renamed into place, none is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "model.json"]
    for name in ("data.txt", "model.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
