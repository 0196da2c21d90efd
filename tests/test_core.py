"""Layout bookkeeping, norms, loss, and argmax scoring."""

from __future__ import annotations

import numpy as np
import pytest

from poseact import (
    Dataset,
    FeatureLayout,
    GroupNames,
    LayoutError,
    Model,
    SolverConfig,
    ValidationError,
    attribute_norm,
    default_names,
    loss,
    objective,
    predict,
    predict_batch,
    skeletal_norm,
    smoothed_gradients,
    smoothed_objective,
    stationarity_residual,
)
from poseact.errors import ConfigError

from conftest import build_dataset


def norm_oracle(mat, slices):
    """Independent nested-loop version of the block-norm sum."""
    total = 0.0
    for sl in slices:
        block = mat[sl]
        for c in range(block.shape[1]):
            total += float(np.sqrt(np.sum(block[:, c] ** 2)))
    return total


# --- FeatureLayout ----------------------------------------------------------


def test_layout_dimension_bookkeeping():
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))
    assert layout.d_t == 6
    assert layout.d_o == 2 * (2 + 1)
    assert layout.n_joints == 3
    assert layout.n_modalities == 2
    assert layout.n_object_blocks == 4


def test_layout_slices_partition_both_axes():
    layout = FeatureLayout(joint_dims=(3, 1, 2), object_count=3, modality_dims=(2, 2, 1))
    covered = []
    for sl in layout.joint_slices:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(layout.d_t))
    covered = []
    for sl in layout.object_block_slices:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(layout.d_o))
    # block widths repeat the modality dims for every object
    widths = [sl.stop - sl.start for sl in layout.object_block_slices]
    assert widths == [2, 2, 1] * 3
    assert layout.object_block_dims == tuple(widths)


def test_layout_object_block_index_is_object_major():
    layout = FeatureLayout(joint_dims=(1,), object_count=3, modality_dims=(4, 2))
    seen = set()
    for o in range(3):
        for m in range(2):
            idx = layout.object_block_index(o, m)
            assert idx == o * 2 + m
            seen.add(idx)
    assert seen == set(range(layout.n_object_blocks))
    with pytest.raises(LayoutError):
        layout.object_block_index(3, 0)
    with pytest.raises(LayoutError):
        layout.object_block_index(0, 2)


def test_layout_rejects_bad_dims():
    with pytest.raises(LayoutError):
        FeatureLayout(joint_dims=(), object_count=1, modality_dims=(1,))
    with pytest.raises(LayoutError):
        FeatureLayout(joint_dims=(2, 0), object_count=1, modality_dims=(1,))
    with pytest.raises(LayoutError):
        FeatureLayout(joint_dims=(2,), object_count=0, modality_dims=(1,))
    with pytest.raises(LayoutError):
        FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=())
    with pytest.raises(LayoutError):
        FeatureLayout(joint_dims=(2.5,), object_count=1, modality_dims=(1,))
    with pytest.raises(LayoutError, match="joint_dims must be a sequence"):
        FeatureLayout(joint_dims=2, object_count=1, modality_dims=(1,))


def test_default_names_match_layout(small_layout):
    names = default_names(small_layout)
    names.check_against(small_layout)
    assert names.joints == ("joint_0", "joint_1", "joint_2")
    assert names.objects == ("object_0", "object_1")
    wrong = GroupNames(joints=("a",), objects=("b", "c"), modalities=("d", "e"))
    with pytest.raises(LayoutError):
        wrong.check_against(small_layout)
    with pytest.raises(ValidationError, match="joint names must be a sequence"):
        GroupNames(joints=5, objects=("b", "c"), modalities=("d",))


# --- Dataset ----------------------------------------------------------------


def test_dataset_validation_and_accessors(small_layout):
    ds = build_dataset(small_layout, n=10, n_classes=3, seed=0)
    assert ds.n_instances == 10
    assert ds.n_classes == 3
    assert ds.class_names == ("class_0", "class_1", "class_2")
    t, o = ds.instance(4)
    assert np.array_equal(t, ds.skeleton[:, 4])
    assert np.array_equal(o, ds.objects[:, 4])
    counts = ds.class_counts()
    assert sum(counts.values()) == 10
    with pytest.raises(LayoutError):
        ds.instance(10)


def test_dataset_arrays_are_frozen_copies(small_layout):
    rng = np.random.default_rng(3)
    skeleton = rng.standard_normal((small_layout.d_t, 5))
    objects = rng.standard_normal((small_layout.d_o, 5))
    ds = Dataset(layout=small_layout, skeleton=skeleton, objects=objects)
    skeleton[0, 0] = 99.0
    assert ds.skeleton[0, 0] != 99.0
    with pytest.raises(ValueError):
        ds.skeleton[0, 0] = 1.0


def test_dataset_rejects_malformed_labels(small_layout):
    rng = np.random.default_rng(5)
    skeleton = rng.standard_normal((small_layout.d_t, 4))
    objects = rng.standard_normal((small_layout.d_o, 4))

    two_hot = np.zeros((4, 3))
    two_hot[:, 0] = 1.0
    two_hot[0, 1] = 1.0
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, skeleton=skeleton, objects=objects, labels=two_hot)

    soft = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, skeleton=skeleton, objects=objects, labels=soft)

    one_class = np.ones((4, 1))
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, skeleton=skeleton, objects=objects, labels=one_class)

    ok = np.zeros((4, 2))
    ok[:, 0] = 1.0
    with pytest.raises(ValidationError):
        Dataset(
            layout=small_layout,
            skeleton=skeleton,
            objects=objects,
            labels=ok,
            class_names=("same", "same"),
        )
    with pytest.raises(LayoutError):
        Dataset(
            layout=small_layout,
            skeleton=skeleton,
            objects=objects,
            labels=np.zeros((3, 2)),
        )


def test_dataset_rejects_non_finite_and_shape_mismatch(small_layout):
    rng = np.random.default_rng(6)
    skeleton = rng.standard_normal((small_layout.d_t, 4))
    objects = rng.standard_normal((small_layout.d_o, 4))
    bad = skeleton.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, skeleton=bad, objects=objects)
    with pytest.raises(LayoutError):
        Dataset(layout=small_layout, skeleton=skeleton[:-1], objects=objects)
    with pytest.raises(LayoutError):
        Dataset(layout=small_layout, skeleton=skeleton, objects=objects[:, :3])


def test_dataset_rejects_non_numeric_arrays():
    # numeric strings and booleans would pass a float64 cast as numbers
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(2,))
    with pytest.raises(ValidationError, match="skeleton matrix must hold real numbers"):
        Dataset(layout=layout, skeleton=[["1"], [True]], objects=[[False], ["2e0"]])
    for bad in (
        np.ones((2, 1), dtype=bool),
        np.ones((2, 1), dtype=complex),
        np.array([[b"1"], [b"2"]]),
        np.array([[1.0], [None]], dtype=object),
    ):
        with pytest.raises(ValidationError, match="object matrix must hold real numbers"):
            Dataset(layout=layout, skeleton=np.ones((2, 1)), objects=bad)
    with pytest.raises(ValidationError, match="label matrix must hold real numbers"):
        Dataset(
            layout=layout,
            skeleton=np.ones((2, 1)),
            objects=np.ones((2, 1)),
            labels=np.array([[True, False]]),
        )
    # integers are numbers; numpy casts a mixed list such as [1, True] to int
    ds = Dataset(layout=layout, skeleton=[[1], [True]], objects=np.ones((2, 1), dtype=np.uint8))
    assert ds.skeleton.dtype == np.float64 and ds.skeleton[1, 0] == 1.0


def test_unlabeled_dataset_is_fine(small_layout):
    rng = np.random.default_rng(8)
    ds = Dataset(
        layout=small_layout,
        skeleton=rng.standard_normal((small_layout.d_t, 6)),
        objects=rng.standard_normal((small_layout.d_o, 6)),
    )
    assert ds.labels is None
    assert ds.n_classes is None
    assert ds.class_counts() is None


# --- norms ------------------------------------------------------------------


def test_skeletal_norm_hand_example():
    # one class, two joints of dims 2, 2: blocks (3,4) and (5,12)
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(1,))
    w = np.array([[3.0], [4.0], [5.0], [12.0]])
    assert skeletal_norm(w, layout) == pytest.approx(5.0 + 13.0)


def test_attribute_norm_hand_example():
    # one object, one modality of dim 3: block (0,3,4) has norm 5
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(3,))
    u = np.array([[0.0], [3.0], [4.0]])
    assert attribute_norm(u, layout) == pytest.approx(5.0)


def test_norms_match_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        j = int(rng.integers(1, 6))
        o = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        layout = FeatureLayout(
            joint_dims=tuple(int(d) for d in rng.integers(1, 4, size=j)),
            object_count=o,
            modality_dims=tuple(int(d) for d in rng.integers(1, 4, size=m)),
        )
        w = rng.standard_normal((layout.d_t, c))
        u = rng.standard_normal((layout.d_o, c))
        assert skeletal_norm(w, layout) == pytest.approx(
            norm_oracle(w, layout.joint_slices), rel=1e-12
        )
        assert attribute_norm(u, layout) == pytest.approx(
            norm_oracle(u, layout.object_block_slices), rel=1e-12
        )


def test_norms_are_absolutely_homogeneous(small_layout):
    rng = np.random.default_rng(23)
    w = rng.standard_normal((small_layout.d_t, 2))
    base = skeletal_norm(w, small_layout)
    for alpha in (-3.0, -0.5, 0.0, 0.25, 7.0):
        assert skeletal_norm(alpha * w, small_layout) == pytest.approx(
            abs(alpha) * base, abs=1e-12
        )


def test_norms_satisfy_triangle_inequality(small_layout):
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.standard_normal((small_layout.d_o, 3))
        b = rng.standard_normal((small_layout.d_o, 3))
        lhs = attribute_norm(a + b, small_layout)
        rhs = attribute_norm(a, small_layout) + attribute_norm(b, small_layout)
        assert lhs <= rhs + 1e-12


def test_skeletal_norm_invariant_under_joint_permutation():
    rng = np.random.default_rng(31)
    dims = (2, 3, 1, 2)
    layout = FeatureLayout(joint_dims=dims, object_count=1, modality_dims=(1,))
    w = rng.standard_normal((layout.d_t, 2))
    perm = [2, 0, 3, 1]
    permuted_layout = FeatureLayout(
        joint_dims=tuple(dims[j] for j in perm), object_count=1, modality_dims=(1,)
    )
    pieces = [w[layout.joint_slices[j]] for j in perm]
    w_perm = np.vstack(pieces)
    assert skeletal_norm(w, layout) == pytest.approx(
        skeletal_norm(w_perm, permuted_layout), rel=1e-12
    )


def test_norm_rejects_wrong_row_count(small_layout):
    with pytest.raises(LayoutError):
        skeletal_norm(np.zeros((small_layout.d_t + 1, 2)), small_layout)
    with pytest.raises(LayoutError):
        attribute_norm(np.zeros((small_layout.d_o - 1, 2)), small_layout)


# --- loss and objective -----------------------------------------------------


def test_loss_hand_example():
    # one joint dim 1, one object block dim 1, two instances, two classes;
    # residual entries all 0.1 -> loss = 4 * 0.01
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    skeleton = np.array([[1.0, 0.0]])
    objects = np.array([[0.0, 1.0]])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, skeleton=skeleton, objects=objects, labels=labels)
    w = np.array([[0.9, 0.1]])
    u = np.array([[0.1, 0.9]])
    # fitted scores: row0 = (0.9, 0.1), row1 = (0.1, 0.9); residual 0.1 in |.|
    assert loss(ds, w, u) == pytest.approx(0.04)


def test_loss_matches_loop_oracle(small_dataset):
    rng = np.random.default_rng(37)
    layout = small_dataset.layout
    w = rng.standard_normal((layout.d_t, 3))
    u = rng.standard_normal((layout.d_o, 3))
    total = 0.0
    for i in range(small_dataset.n_instances):
        t, o = small_dataset.instance(i)
        for c in range(3):
            pred = float(t @ w[:, c] + o @ u[:, c])
            total += (pred - small_dataset.labels[i, c]) ** 2
    assert loss(small_dataset, w, u) == pytest.approx(total, rel=1e-12)


def test_loss_requires_labels(small_layout):
    rng = np.random.default_rng(41)
    ds = Dataset(
        layout=small_layout,
        skeleton=rng.standard_normal((small_layout.d_t, 4)),
        objects=rng.standard_normal((small_layout.d_o, 4)),
    )
    with pytest.raises(ValidationError):
        loss(ds, np.zeros((small_layout.d_t, 2)), np.zeros((small_layout.d_o, 2)))
    # one weight column for three classes must not broadcast
    labeled = build_dataset(small_layout, n=4, n_classes=3, seed=41)
    w, u = np.zeros((small_layout.d_t, 1)), np.zeros((small_layout.d_o, 1))
    one_class = Model(
        layout=small_layout, w=w, u=u, class_names=("a",), hyperparams=SolverConfig()
    )
    for call in (
        lambda: loss(labeled, w, u),
        lambda: smoothed_objective(labeled, w, u, 0.1, 0.1, 1e-3),
        lambda: smoothed_gradients(labeled, w, u, 0.1, 0.1, 1e-3),
        lambda: stationarity_residual(labeled, one_class, 0.1, 0.1, 1e-8),
    ):
        with pytest.raises(LayoutError, match="1 and 1 columns for 3 classes"):
            call()


def test_objective_combines_terms(small_dataset):
    rng = np.random.default_rng(43)
    layout = small_dataset.layout
    w = rng.standard_normal((layout.d_t, 3))
    u = rng.standard_normal((layout.d_o, 3))
    expected = (
        loss(small_dataset, w, u)
        + 0.3 * skeletal_norm(w, layout)
        + 0.7 * attribute_norm(u, layout)
    )
    assert objective(small_dataset, w, u, 0.3, 0.7) == pytest.approx(expected, rel=1e-12)
    # zero weights on both penalties reduces to the loss
    assert objective(small_dataset, w, u, 0.0, 0.0) == pytest.approx(
        loss(small_dataset, w, u)
    )


def test_objective_rejects_negative_penalty(small_dataset):
    w = np.zeros((small_dataset.layout.d_t, 3))
    u = np.zeros((small_dataset.layout.d_o, 3))
    with pytest.raises(ConfigError):
        objective(small_dataset, w, u, -0.1, 0.1)
    with pytest.raises(ConfigError):
        objective(small_dataset, w, u, 0.1, float("nan"))


# --- prediction -------------------------------------------------------------


def make_model(layout, w, u, n_classes):
    return Model(
        layout=layout,
        w=w,
        u=u,
        class_names=tuple(f"class_{c}" for c in range(n_classes)),
        hyperparams=SolverConfig(),
    )


def test_predict_scores_and_argmax(small_layout):
    rng = np.random.default_rng(47)
    w = rng.standard_normal((small_layout.d_t, 3))
    u = rng.standard_normal((small_layout.d_o, 3))
    model = make_model(small_layout, w, u, 3)
    t = rng.standard_normal(small_layout.d_t)
    o = rng.standard_normal(small_layout.d_o)
    idx, scores = predict(model, t, o)
    expected = np.array([float(t @ w[:, c] + o @ u[:, c]) for c in range(3)])
    assert np.allclose(scores, expected, rtol=1e-12)
    assert idx == int(np.argmax(expected))


def test_predict_breaks_ties_toward_lowest_index():
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    # both classes score exactly t[0] + o[0]
    w = np.array([[1.0, 1.0]])
    u = np.array([[1.0, 1.0]])
    model = make_model(layout, w, u, 2)
    idx, scores = predict(model, np.array([2.0]), np.array([-1.0]))
    assert scores[0] == scores[1]
    assert idx == 0


def test_predict_validates_inputs(small_layout):
    model = make_model(
        small_layout,
        np.zeros((small_layout.d_t, 2)),
        np.zeros((small_layout.d_o, 2)),
        2,
    )
    with pytest.raises(LayoutError):
        predict(model, np.zeros(small_layout.d_t + 1), np.zeros(small_layout.d_o))
    with pytest.raises(LayoutError):
        predict(model, np.zeros((small_layout.d_t, 1)), np.zeros(small_layout.d_o))
    bad = np.zeros(small_layout.d_t)
    bad[0] = np.inf
    with pytest.raises(ValidationError):
        predict(model, bad, np.zeros(small_layout.d_o))


def test_predict_batch_matches_per_instance(small_dataset):
    rng = np.random.default_rng(53)
    layout = small_dataset.layout
    model = make_model(
        layout,
        rng.standard_normal((layout.d_t, 3)),
        rng.standard_normal((layout.d_o, 3)),
        3,
    )
    predicted, accuracy = predict_batch(model, small_dataset)
    singles = []
    for i in range(small_dataset.n_instances):
        t, o = small_dataset.instance(i)
        singles.append(predict(model, t, o)[0])
    assert predicted.tolist() == singles
    truth = np.argmax(small_dataset.labels, axis=1)
    assert accuracy == pytest.approx(np.mean(predicted == truth))


def test_predict_batch_unlabeled_has_no_accuracy(small_layout):
    rng = np.random.default_rng(59)
    ds = Dataset(
        layout=small_layout,
        skeleton=rng.standard_normal((small_layout.d_t, 5)),
        objects=rng.standard_normal((small_layout.d_o, 5)),
    )
    model = make_model(
        small_layout,
        rng.standard_normal((small_layout.d_t, 2)),
        rng.standard_normal((small_layout.d_o, 2)),
        2,
    )
    predicted, accuracy = predict_batch(model, ds)
    assert predicted.shape == (5,)
    assert accuracy is None


def test_predict_batch_rejects_layout_and_class_mismatch(small_dataset):
    other_layout = FeatureLayout(joint_dims=(2, 3, 2), object_count=2, modality_dims=(2, 1))
    rng = np.random.default_rng(61)
    model = make_model(
        other_layout,
        rng.standard_normal((other_layout.d_t, 3)),
        rng.standard_normal((other_layout.d_o, 3)),
        3,
    )
    with pytest.raises(LayoutError):
        predict_batch(model, small_dataset)
    renamed = Model(
        layout=small_dataset.layout,
        w=rng.standard_normal((small_dataset.layout.d_t, 3)),
        u=rng.standard_normal((small_dataset.layout.d_o, 3)),
        class_names=("x", "y", "z"),
        hyperparams=SolverConfig(),
    )
    with pytest.raises(ValidationError):
        predict_batch(renamed, small_dataset)


# --- Model ------------------------------------------------------------------


def test_model_validates_shapes_and_names(small_layout):
    rng = np.random.default_rng(67)
    w = rng.standard_normal((small_layout.d_t, 2))
    u = rng.standard_normal((small_layout.d_o, 2))
    with pytest.raises(LayoutError):
        make_model(small_layout, w[:-1], u, 2)
    with pytest.raises(LayoutError):
        make_model(small_layout, w, u[:, :1], 2)
    with pytest.raises(ValidationError):
        Model(
            layout=small_layout,
            w=w,
            u=u,
            class_names=("dup", "dup"),
            hyperparams=SolverConfig(),
        )
    # single-class models are allowed (scoring degenerates to one column)
    single = make_model(small_layout, w[:, :1], u[:, :1], 1)
    assert single.n_classes == 1


def test_model_arrays_are_frozen(small_layout):
    rng = np.random.default_rng(71)
    w = rng.standard_normal((small_layout.d_t, 2))
    model = make_model(
        small_layout, w, rng.standard_normal((small_layout.d_o, 2)), 2
    )
    w[0, 0] = 123.0
    assert model.w[0, 0] != 123.0
    with pytest.raises(ValueError):
        model.w[0, 0] = 5.0
