"""Layout bookkeeping, norms, loss, and argmax scoring."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from poseact import (
    Dataset,
    FeatureLayout,
    Model,
    SolverConfig,
    fit,
    loss,
    predict,
    predict_batch,
    save_model,
    smoothed_gradients,
    smoothed_objective,
    split,
    standardize,
    stationarity_residual,
)
from poseact.core import (
    GroupNames,
    _group_norms,
    _penalty,
    block_sums,
    default_names,
    objective,
)
from poseact.errors import ConfigError, LayoutError, ValidationError

from conftest import build_dataset


def norm_oracle(mat, slices):
    """Independent nested-loop version of the block-norm sum."""
    total = 0.0
    for sl in slices:
        block = mat[sl]
        for c in range(block.shape[1]):
            total += float(np.sqrt(np.sum(block[:, c] ** 2)))
    return total


def penalty(x, layout, lam1, lam2):
    """The one penalty route, as objective and fit take it: lam1 times the
    skeletal norm plus lam2 times the attribute norm of the stacked [W; U],
    read off the block norms of its class-major transpose."""
    return _penalty(layout, _group_norms(x.T, layout.block_dims, axis=-1), lam1, lam2)


# --- FeatureLayout ----------------------------------------------------------


def test_layout_dimension_bookkeeping():
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))
    assert layout.d_t == 6
    assert layout.d_o == 2 * (2 + 1)
    assert layout.n_joints == 3
    assert layout.n_modalities == 2
    assert layout.object_block_dims == (2, 1, 2, 1)
    assert layout.block_dims == (2, 3, 1, 2, 1, 2, 1)


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
    assert seen == set(range(len(layout.object_block_dims)))
    with pytest.raises(LayoutError):
        layout.object_block_index(3, 0)
    with pytest.raises(LayoutError):
        layout.object_block_index(0, 2)
    for obj, modality in ((True, 0), (0, True), (1.5, 0), (0, 1.0), ("1", 0), (None, 0), (-1, 0)):
        with pytest.raises(LayoutError):
            layout.object_block_index(obj, modality)


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
    counts = ds.class_counts()
    assert sum(counts.values()) == 10


def test_dataset_features_stack_skeleton_over_objects_and_share_their_memory(small_layout):
    ds = build_dataset(small_layout, n=12, n_classes=3, seed=2)
    d_t = small_layout.d_t
    assert ds.features.shape == (d_t + small_layout.d_o, 12)
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.features, np.vstack([ds.skeleton, ds.objects]))
    assert np.shares_memory(ds.skeleton, ds.features[:d_t])
    assert np.shares_memory(ds.objects, ds.features[d_t:])
    assert not np.shares_memory(ds.skeleton, ds.objects)
    for arr in (ds.features, ds.skeleton, ds.objects):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    for view in ("skeleton", "objects"):
        with pytest.raises(AttributeError):
            setattr(ds, view, ds.features)
        with pytest.raises(TypeError):
            Dataset(layout=small_layout, features=ds.features, **{view: ds.features})


def test_dataset_integer_halves_become_one_float_matrix(small_layout):
    features = np.vstack(
        (
            np.arange(small_layout.d_t * 3).reshape(small_layout.d_t, 3),
            np.ones((small_layout.d_o, 3), dtype=np.uint8),
        )
    )
    ds = Dataset(layout=small_layout, features=features)
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.features, features)


def test_dataset_copies_its_features_once():
    """Built from a float64 matrix, a dataset allocates one d x N copy and no more."""
    layout = FeatureLayout((3,) * 15, 3, (48, 36, 15))  # 45 + 297 = 342 features
    rng = np.random.default_rng(1)
    features = np.vstack(
        (rng.standard_normal((layout.d_t, 2000)), rng.standard_normal((layout.d_o, 2000)))
    )
    tracemalloc.start()
    try:
        ds = Dataset(layout=layout, features=features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.nbytes == features.nbytes
    # the copy itself plus the finiteness pass's boolean scratch (an eighth of it)
    assert features.nbytes <= peak < 1.5 * features.nbytes, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("producer", ["split", "standardize", "apply"])
def test_dataset_producers_allocate_one_matrix(producer):
    """At the paper's shape split, standardize and Standardizer.apply each build
    the d x N matrix their dataset keeps, with no second copy: the peak is that
    matrix plus the finiteness pass's boolean scratch and the labels."""
    layout = FeatureLayout((3,) * 15, 3, (48, 36, 15))  # 45 + 297 = 342 features
    rng = np.random.default_rng(2)
    n = 2000
    dataset = Dataset(
        layout=layout,
        features=rng.standard_normal((layout.d_t + layout.d_o, n)),
        labels=np.eye(6)[rng.integers(0, 6, size=n)],
    )
    _, transform = standardize(dataset)
    calls = {
        "split": lambda: split(dataset, 0.7, seed=1),
        "standardize": lambda: standardize(dataset)[:1],
        "apply": lambda: (transform.apply(dataset),),
    }
    tracemalloc.start()
    try:
        made = calls[producer]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(part.features.nbytes for part in made)
    assert nbytes == dataset.features.nbytes
    assert peak <= 1.2 * nbytes, f"peak {peak / nbytes:.2f}x the output"


@pytest.mark.parametrize("order", ["C", "F"])
def test_dataset_keeps_the_memory_order_of_its_features(small_layout, order):
    features = np.asarray(build_dataset(small_layout, 7, 3, seed=4).features, order=order)
    ds = Dataset(layout=small_layout, features=features)
    assert ds.features.flags[f"{order}_CONTIGUOUS"]
    assert np.array_equal(ds.features, features)


def test_dataset_arrays_are_frozen_copies(small_layout):
    rng = np.random.default_rng(3)
    features = np.vstack(
        (rng.standard_normal((small_layout.d_t, 5)), rng.standard_normal((small_layout.d_o, 5)))
    )
    kept = features.copy()
    ds = Dataset(layout=small_layout, features=features)
    features[0, 0], features[-1, -1] = 99.0, -99.0  # a skeleton and an object entry
    assert np.array_equal(ds.features, kept)
    assert ds.skeleton[0, 0] != 99.0 and ds.objects[-1, -1] != -99.0
    with pytest.raises(ValueError):
        ds.skeleton[0, 0] = 1.0


def test_dataset_rejects_malformed_labels(small_layout):
    rng = np.random.default_rng(5)
    features = np.vstack(
        (rng.standard_normal((small_layout.d_t, 4)), rng.standard_normal((small_layout.d_o, 4)))
    )

    two_hot = np.zeros((4, 3))
    two_hot[:, 0] = 1.0
    two_hot[0, 1] = 1.0
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, features=features, labels=two_hot)

    soft = np.full((4, 3), 1.0 / 3.0)
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, features=features, labels=soft)

    one_class = np.ones((4, 1))
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, features=features, labels=one_class)

    ok = np.zeros((4, 2))
    ok[:, 0] = 1.0
    with pytest.raises(ValidationError):
        Dataset(layout=small_layout, features=features, labels=ok, class_names=("same", "same"))
    with pytest.raises(LayoutError):
        Dataset(layout=small_layout, features=features, labels=np.zeros((3, 2)))


def test_dataset_rejects_non_finite_and_shape_mismatch(small_layout):
    rng = np.random.default_rng(6)
    features = np.vstack(
        (rng.standard_normal((small_layout.d_t, 4)), rng.standard_normal((small_layout.d_o, 4)))
    )
    rows = small_layout.d_t + small_layout.d_o
    for row in (1, rows - 1):  # a skeleton row and an object row
        bad = features.copy()
        bad[row, 1] = np.nan
        with pytest.raises(ValidationError, match="feature matrix contains non-finite values"):
            Dataset(layout=small_layout, features=bad)
    for short in (features[:-1], features[1:]):
        with pytest.raises(
            LayoutError, match=f"feature matrix has {rows - 1} rows, layout expects {rows}"
        ):
            Dataset(layout=small_layout, features=short)
    with pytest.raises(LayoutError, match="feature matrix must be a 2-d array"):
        Dataset(layout=small_layout, features=features[:, 0])
    with pytest.raises(ValidationError, match="at least one instance"):
        Dataset(layout=small_layout, features=features[:, :0])


def test_dataset_rejects_non_numeric_arrays():
    # numeric strings and booleans would pass a float64 cast as numbers
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(2,))
    with pytest.raises(ValidationError, match="feature matrix must hold real numbers"):
        Dataset(layout=layout, features=[["1"], [True], [False], ["2e0"]])
    for bad in (
        np.ones((4, 1), dtype=bool),
        np.ones((4, 1), dtype=complex),
        np.array([[b"1"], [b"2"], [b"3"], [b"4"]]),
        np.array([[1.0], [None], [1.0], [1.0]], dtype=object),
    ):
        with pytest.raises(ValidationError, match="feature matrix must hold real numbers"):
            Dataset(layout=layout, features=bad)
    with pytest.raises(ValidationError, match="label matrix must hold real numbers"):
        Dataset(layout=layout, features=np.ones((4, 1)), labels=np.array([[True, False]]))
    # a ragged nested list is named too, not left to numpy's bare ValueError
    with pytest.raises(ValidationError, match="feature matrix must be a rectangular array"):
        Dataset(layout=layout, features=[[1.0, 2.0], [3.0]])
    with pytest.raises(ValidationError, match="label matrix must be a rectangular array"):
        Dataset(layout=layout, features=np.ones((4, 1)), labels=[[1.0, 0.0], [1.0]])
    # integers are numbers; numpy casts a mixed list such as [1, True] to int
    ds = Dataset(layout=layout, features=[[1], [True], [1], [1]])
    assert ds.skeleton.dtype == np.float64 and ds.skeleton[1, 0] == 1.0


def test_unlabeled_dataset_is_fine(small_layout):
    rng = np.random.default_rng(8)
    ds = Dataset(
        layout=small_layout,
        features=np.vstack(
            (rng.standard_normal((small_layout.d_t, 6)), rng.standard_normal((small_layout.d_o, 6)))
        ),
    )
    assert ds.labels is None
    assert ds.n_classes is None
    assert ds.class_counts() is None


# --- norms ------------------------------------------------------------------
# the skeletal and attribute norms are read off one block pass over the
# stacked [W; U], as objective and fit take them: penalty(x, layout, 1, 0) is
# the skeletal norm alone, penalty(x, layout, 0, 1) the attribute norm alone


def test_skeletal_norm_hand_example():
    # one class, two joints of dims 2, 2: blocks (3,4) and (5,12); object block (7)
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(1,))
    x = np.array([[3.0], [4.0], [5.0], [12.0], [7.0]])
    assert penalty(x, layout, 1.0, 0.0) == pytest.approx(5.0 + 13.0)
    assert penalty(x, layout, 0.5, 2.0) == pytest.approx(0.5 * 18.0 + 2.0 * 7.0)


def test_attribute_norm_hand_example():
    # one object, one modality of dim 3: block (0,3,4) has norm 5; joint block (-2)
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(3,))
    x = np.array([[-2.0], [0.0], [3.0], [4.0]])
    assert penalty(x, layout, 0.0, 1.0) == pytest.approx(5.0)
    assert penalty(x, layout, 1.0, 1.0) == pytest.approx(2.0 + 5.0)


def test_block_sums_give_the_same_bits_in_both_layouts():
    """Summed along axis 0 of the d x C weights or along the last axis of
    their class-major C x d transpose, in either memory order, every block
    comes out bit for bit the same, at the paper shape and on random
    layouts."""
    rng = np.random.default_rng(19)
    layout = FeatureLayout(joint_dims=(3,) * 15, object_count=3, modality_dims=(48, 36, 15))
    dims = layout.block_dims
    x = rng.standard_normal((layout.d_t + layout.d_o, 6))
    for fn in (block_sums, _group_norms):
        rows = fn(x, dims)
        assert rows.shape == (len(dims), 6)
        for mat in (x.T, np.ascontiguousarray(x.T)):
            assert np.array_equal(fn(mat, dims, axis=-1), rows.T)
        assert np.array_equal(fn(np.asfortranarray(x), dims), rows)
        assert np.array_equal(fn(x[:, 2], dims), rows[:, 2])
    for _ in range(50):
        dims = tuple(int(v) for v in rng.integers(1, 150, size=int(rng.integers(1, 30))))
        x = rng.standard_normal((sum(dims), int(rng.integers(1, 12))))
        assert np.array_equal(block_sums(x.T, dims, axis=-1), block_sums(x, dims).T)


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
        x = np.vstack((w, u))
        skeletal = norm_oracle(w, layout.joint_slices)
        attribute = norm_oracle(u, layout.object_block_slices)
        assert penalty(x, layout, 1.0, 0.0) == pytest.approx(skeletal, rel=1e-12)
        assert penalty(x, layout, 0.0, 1.0) == pytest.approx(attribute, rel=1e-12)
        assert penalty(x, layout, 0.3, 0.7) == pytest.approx(
            0.3 * skeletal + 0.7 * attribute, rel=1e-12
        )


def test_norms_are_absolutely_homogeneous(small_layout):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((small_layout.d_t + small_layout.d_o, 2))
    for lam1, lam2 in ((1.0, 0.0), (0.0, 1.0)):
        base = penalty(x, small_layout, lam1, lam2)
        for alpha in (-3.0, -0.5, 0.0, 0.25, 7.0):
            assert penalty(alpha * x, small_layout, lam1, lam2) == pytest.approx(
                abs(alpha) * base, abs=1e-12
            )


def test_norms_satisfy_triangle_inequality(small_layout):
    rng = np.random.default_rng(29)
    rows = small_layout.d_t + small_layout.d_o
    for _ in range(20):
        a = rng.standard_normal((rows, 3))
        b = rng.standard_normal((rows, 3))
        for lam1, lam2 in ((1.0, 0.0), (0.0, 1.0)):
            lhs = penalty(a + b, small_layout, lam1, lam2)
            rhs = penalty(a, small_layout, lam1, lam2) + penalty(b, small_layout, lam1, lam2)
            assert lhs <= rhs + 1e-12


def test_skeletal_norm_invariant_under_joint_permutation():
    rng = np.random.default_rng(31)
    dims = (2, 3, 1, 2)
    layout = FeatureLayout(joint_dims=dims, object_count=1, modality_dims=(1,))
    x = rng.standard_normal((layout.d_t + layout.d_o, 2))
    perm = [2, 0, 3, 1]
    permuted_layout = FeatureLayout(
        joint_dims=tuple(dims[j] for j in perm), object_count=1, modality_dims=(1,)
    )
    pieces = [x[layout.joint_slices[j]] for j in perm]
    x_perm = np.vstack(pieces + [x[layout.d_t :]])
    assert penalty(x, layout, 1.0, 0.0) == pytest.approx(
        penalty(x_perm, permuted_layout, 1.0, 0.0), rel=1e-12
    )


def test_norm_rejects_wrong_row_count(small_dataset):
    # objective, the public route to the norms, reads the whole stacked [W; U]
    rows = small_dataset.layout.d_t + small_dataset.layout.d_o
    for bad in (rows + 1, rows - 1):
        with pytest.raises(
            LayoutError, match=rf"^weight matrix has shape \({bad}, 3\), expected \({rows}, 3\)$"
        ):
            objective(small_dataset, np.zeros((bad, 3)), 0.1, 0.1)


# every public function that reads a weight matrix, by name, as a call on the
# stacked [W; U]
def _weight_calls(ds):
    return {
        "Model": lambda x: Model(
            layout=ds.layout, weights=x, class_names=ds.class_names, hyperparams=SolverConfig()
        ),
        "loss": lambda x: loss(ds, x),
        "objective": lambda x: objective(ds, x, 0.1, 0.1),
        "smoothed_objective": lambda x: smoothed_objective(ds, x, 0.1, 0.1, 1e-3),
        "smoothed_gradients": lambda x: smoothed_gradients(ds, x, 0.1, 0.1, 1e-3),
    }


WEIGHT_CALLS = tuple(_weight_calls(None))


@pytest.mark.parametrize("call", WEIGHT_CALLS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weight_inputs_reject_non_finite_entries(small_dataset, call, value):
    """Rejected, not hidden: loss clamps at 0.0, and max(0.0, nan) is 0.0."""
    layout = small_dataset.layout
    fn = _weight_calls(small_dataset)[call]
    # a whole bad skeleton half, or one bad object entry
    bad_w = np.zeros((layout.d_t + layout.d_o, 3))
    bad_w[: layout.d_t] = value
    bad_u = np.zeros_like(bad_w)
    bad_u[-1, -1] = value
    for x in (bad_w, bad_u):
        with pytest.raises(ValidationError, match="^weight matrix contains non-finite values$"):
            fn(x)


@pytest.mark.parametrize("call", WEIGHT_CALLS)
def test_weight_inputs_reject_bool_and_string_entries(small_dataset, call):
    layout = small_dataset.layout
    fn = _weight_calls(small_dataset)[call]
    rows = layout.d_t + layout.d_o
    for bad in (np.ones((rows, 3), dtype=bool), np.full((rows, 3), "1.5"), np.full((rows, 3), "a")):
        with pytest.raises(
            ValidationError, match=f"^weight matrix must hold real numbers, got dtype {bad.dtype}$"
        ):
            fn(bad)
    # short first and last rows, so each half is ragged too
    ragged = [[0.0] * 2] + [[0.0] * 3] * (rows - 2) + [[0.0] * 2]
    with pytest.raises(
        ValidationError, match="^weight matrix must be a rectangular array, got ragged nesting$"
    ):
        fn(ragged)


def test_weight_inputs_take_integers_and_reject_wrong_rank(small_dataset):
    layout = small_dataset.layout
    ints = np.ones((layout.d_t + layout.d_o, 3), dtype=np.int64)
    for call, fn in _weight_calls(small_dataset).items():
        got, want = fn(ints), fn(ints.astype(float))
        if call == "Model":
            got, want = got.weights, want.weights
        assert np.array_equal(got, want), call
        with pytest.raises(
            LayoutError, match=r"^weight matrix must be a 2-d array, got shape \(\d+,\)$"
        ):
            fn(ints[:, 0])


# --- loss and objective -----------------------------------------------------


def test_loss_hand_example():
    # one joint dim 1, one object block dim 1, two instances, two classes;
    # residual entries all 0.1 -> loss = 4 * 0.01
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    skeleton = np.array([[1.0, 0.0]])
    objects = np.array([[0.0, 1.0]])
    labels = np.array([[1.0, 0.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)
    w = np.array([[0.9, 0.1]])
    u = np.array([[0.1, 0.9]])
    # fitted scores: row0 = (0.9, 0.1), row1 = (0.1, 0.9); residual 0.1 in |.|
    assert loss(ds, np.vstack((w, u))) == pytest.approx(0.04)


def test_loss_matches_loop_oracle(small_dataset):
    rng = np.random.default_rng(37)
    layout = small_dataset.layout
    w = rng.standard_normal((layout.d_t, 3))
    u = rng.standard_normal((layout.d_o, 3))
    total = 0.0
    for i in range(small_dataset.n_instances):
        t, o = small_dataset.skeleton[:, i], small_dataset.objects[:, i]
        for c in range(3):
            pred = float(t @ w[:, c] + o @ u[:, c])
            total += (pred - small_dataset.labels[i, c]) ** 2
    assert loss(small_dataset, np.vstack((w, u))) == pytest.approx(total, rel=1e-12)


def test_loss_requires_labels(small_layout):
    rng = np.random.default_rng(41)
    d = small_layout.d_t + small_layout.d_o
    ds = Dataset(
        layout=small_layout,
        features=np.vstack(
            (rng.standard_normal((small_layout.d_t, 4)), rng.standard_normal((small_layout.d_o, 4)))
        ),
    )
    with pytest.raises(ValidationError):
        loss(ds, np.zeros((d, 2)))
    # one weight column for three classes must not broadcast
    labeled = build_dataset(small_layout, n=4, n_classes=3, seed=41)
    x = np.zeros((d, 1))
    one_class = Model(layout=small_layout, weights=x, class_names=("a",), hyperparams=SolverConfig())
    for call in (
        lambda: loss(labeled, x),
        lambda: smoothed_objective(labeled, x, 0.1, 0.1, 1e-3),
        lambda: smoothed_gradients(labeled, x, 0.1, 0.1, 1e-3),
        lambda: stationarity_residual(labeled, one_class, 0.1, 0.1, 1e-8),
    ):
        with pytest.raises(
            LayoutError, match=rf"^weight matrix has shape \({d}, 1\), expected \({d}, 3\)$"
        ):
            call()


def test_objective_combines_terms(small_dataset):
    rng = np.random.default_rng(43)
    layout = small_dataset.layout
    w = rng.standard_normal((layout.d_t, 3))
    u = rng.standard_normal((layout.d_o, 3))
    x = np.vstack((w, u))
    expected = (
        loss(small_dataset, x)
        + 0.3 * norm_oracle(w, layout.joint_slices)
        + 0.7 * norm_oracle(u, layout.object_block_slices)
    )
    assert objective(small_dataset, x, 0.3, 0.7) == pytest.approx(expected, rel=1e-12)
    # zero weights on both penalties reduces to the loss
    assert objective(small_dataset, x, 0.0, 0.0) == pytest.approx(loss(small_dataset, x))


def test_objective_rejects_negative_penalty(small_dataset):
    x = np.zeros((small_dataset.layout.d_t + small_dataset.layout.d_o, 3))
    with pytest.raises(ConfigError):
        objective(small_dataset, x, -0.1, 0.1)
    with pytest.raises(ConfigError):
        objective(small_dataset, x, 0.1, float("nan"))


# --- prediction -------------------------------------------------------------


def make_model(layout, w, u, n_classes):
    return Model(
        layout=layout,
        weights=np.vstack((w, u)),
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


@pytest.mark.parametrize("side", ["skeleton", "object"])
@pytest.mark.parametrize(
    "value",
    [
        np.nan,
        np.inf,
        -np.inf,
        pytest.param((np.inf, -np.inf), id="inf_and_minus_inf"),
        pytest.param((1.7e308, np.nan), id="nan_beside_huge"),
    ],
)
def test_predict_rejects_non_finite_entries_without_a_warning(small_layout, side, value):
    # zero weights: scoring first would meet inf * 0 and warn before the check;
    # +inf and -inf square to +inf, so the screen meets no inf - inf either
    model = make_model(
        small_layout, np.zeros((small_layout.d_t, 2)), np.zeros((small_layout.d_o, 2)), 2
    )
    t, o = np.ones(small_layout.d_t), np.ones(small_layout.d_o)
    values = np.atleast_1d(value)
    (t if side == "skeleton" else o)[-len(values) :] = values
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match="input vectors contain non-finite values"):
            predict(model, t, o)
    assert caught == []


@pytest.mark.parametrize("huge", [1.7e308, -1.7e308])
def test_predict_scores_a_finite_frame_too_large_to_square(small_layout, huge):
    """x'x overflows, so the screen fails and the exact check lets the frame
    through; weights below 1/2 keep every score finite.  Warnings are errors
    here, which pins that np.vdot reports no overflow where ndarray.dot would."""
    rng = np.random.default_rng(89)
    model = make_model(
        small_layout,
        rng.uniform(-0.5, 0.5, (small_layout.d_t, 3)),
        rng.uniform(-0.5, 0.5, (small_layout.d_o, 3)),
        3,
    )
    t, o = np.full(small_layout.d_t, 1e200), np.full(small_layout.d_o, -1e200)
    o[1] = huge
    x = np.concatenate((t, o))
    assert np.vdot(x, x) == np.inf
    idx, scores = predict(model, t, o)
    reference = x.dot(model.weights)
    assert np.all(np.isfinite(reference))
    assert np.array_equal(scores, reference)
    assert idx == int(np.argmax(reference))


@pytest.mark.parametrize(
    "make_frame",
    [
        pytest.param(lambda v: v.astype(str), id="strings"),
        pytest.param(lambda v: v.astype(object), id="object"),
        pytest.param(lambda v: v + 1j, id="complex"),
        pytest.param(lambda v: v > 0, id="bool"),
    ],
)
@pytest.mark.parametrize("side", ["skeleton", "object"])
def test_predict_rejects_non_real_frames_without_a_warning(small_layout, make_frame, side):
    rng = np.random.default_rng(97)
    model = make_model(
        small_layout,
        rng.standard_normal((small_layout.d_t, 2)),
        rng.standard_normal((small_layout.d_o, 2)),
        2,
    )
    t, o = rng.standard_normal(small_layout.d_t), rng.standard_normal(small_layout.d_o)
    if side == "skeleton":
        t = make_frame(t)
    else:
        o = make_frame(o)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=f"{side} vector must hold real numbers"):
            predict(model, t, o)
    assert caught == []


def test_predict_scores_lists_and_other_real_dtypes_as_float64(small_layout):
    rng = np.random.default_rng(101)
    model = make_model(
        small_layout,
        rng.standard_normal((small_layout.d_t, 3)),
        rng.standard_normal((small_layout.d_o, 3)),
        3,
    )
    t = rng.integers(-5, 5, small_layout.d_t).astype(np.float64)
    o = rng.integers(-5, 5, small_layout.d_o).astype(np.float64)
    idx, scores = predict(model, t, o)
    for other in (
        (t.tolist(), o.tolist()),  # Python floats
        (t.astype(np.int64), o.astype(np.float32)),
        (t.astype(">f8"), o),  # float64, but not the native descriptor
    ):
        other_idx, other_scores = predict(model, *other)
        assert other_idx == idx
        assert np.array_equal(other_scores, scores)


def test_predict_scores_strided_views_as_contiguous_copies(small_dataset):
    rng = np.random.default_rng(73)
    layout = small_dataset.layout
    model = make_model(
        layout, rng.standard_normal((layout.d_t, 3)), rng.standard_normal((layout.d_o, 3)), 3
    )
    for i in range(small_dataset.n_instances):
        t, o = small_dataset.skeleton[:, i], small_dataset.objects[:, i]
        assert not t.flags.c_contiguous and not o.flags.c_contiguous
        idx, scores = predict(model, t, o)
        copy_idx, copy_scores = predict(model, t.copy(), o.copy())
        assert idx == copy_idx
        assert np.array_equal(scores, copy_scores)


@pytest.fixture
def paper_dataset() -> Dataset:
    # the paper's shape: 45 skeleton and 297 object features, 6 classes
    layout = FeatureLayout(joint_dims=(3,) * 15, object_count=3, modality_dims=(48, 36, 15))
    return build_dataset(layout, n=300, n_classes=6, seed=79)


def test_predict_batch_matches_per_instance(small_dataset, paper_dataset):
    rng = np.random.default_rng(53)
    for dataset in (small_dataset, paper_dataset):
        layout, n_classes = dataset.layout, dataset.n_classes
        w = rng.standard_normal((layout.d_t, n_classes))
        u = rng.standard_normal((layout.d_o, n_classes))
        model = make_model(layout, w, u, n_classes)
        predicted, accuracy = predict_batch(model, dataset)
        singles = []
        for i in range(dataset.n_instances):
            t, o = dataset.skeleton[:, i], dataset.objects[:, i]
            idx, scores = predict(model, t, o)
            # relative to the size of the terms summed, so a score near 0 is no exception
            scale = np.abs(t) @ np.abs(w) + np.abs(o) @ np.abs(u)
            assert np.all(np.abs(scores - (t @ w + o @ u)) <= 1e-12 * scale)
            singles.append(idx)
        assert predicted.tolist() == singles
        truth = np.argmax(dataset.labels, axis=1)
        assert accuracy == pytest.approx(np.mean(predicted == truth))


def test_predict_batch_unlabeled_has_no_accuracy(small_layout):
    rng = np.random.default_rng(59)
    ds = Dataset(
        layout=small_layout,
        features=np.vstack(
            (rng.standard_normal((small_layout.d_t, 5)), rng.standard_normal((small_layout.d_o, 5)))
        ),
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
        weights=np.vstack(
            (
                rng.standard_normal((small_dataset.layout.d_t, 3)),
                rng.standard_normal((small_dataset.layout.d_o, 3)),
            )
        ),
        class_names=("x", "y", "z"),
        hyperparams=SolverConfig(),
    )
    with pytest.raises(ValidationError):
        predict_batch(renamed, small_dataset)


# --- Model ------------------------------------------------------------------


def test_model_validates_shapes_and_names(small_layout):
    rng = np.random.default_rng(67)
    rows = small_layout.d_t + small_layout.d_o
    weights = np.vstack(
        (rng.standard_normal((small_layout.d_t, 2)), rng.standard_normal((small_layout.d_o, 2)))
    )

    def model(weights, class_names=("a", "b")):
        return Model(
            layout=small_layout, weights=weights, class_names=class_names, hyperparams=SolverConfig()
        )

    for bad in (weights[:-1], weights[1:]):
        with pytest.raises(
            LayoutError, match=rf"weight matrix has shape \({rows - 1}, 2\), expected \({rows}, 2\)"
        ):
            model(bad)
    with pytest.raises(LayoutError, match=rf"expected \({rows}, 2\)"):
        model(weights[:, :1])
    with pytest.raises(LayoutError, match="weight matrix must be a 2-d array"):
        model(weights[:, 0])
    with pytest.raises(ValidationError, match="weight matrix must hold real numbers"):
        model(weights > 0)
    bad = weights.copy()
    bad[-1, 0] = np.inf  # an object weight
    with pytest.raises(ValidationError, match="weight matrix contains non-finite values"):
        model(bad)
    with pytest.raises(ValidationError):
        model(weights, class_names=("dup", "dup"))
    # single-class models are allowed (scoring degenerates to one column)
    single = model(weights[:, :1], class_names=("a",))
    assert single.n_classes == 1


def test_model_rejects_hyperparams_that_are_not_a_solver_config(small_layout):
    """save_model writes hyperparams through dataclasses.asdict, which only a
    SolverConfig survives; a Model refuses anything else when it is built."""
    weights = np.zeros((small_layout.d_t + small_layout.d_o, 2))
    for bad, name in ((None, "NoneType"), (dataclasses.asdict(SolverConfig()), "dict"), ("0.1", "str")):
        with pytest.raises(ValidationError, match=f"hyperparams must be a SolverConfig, got {name}"):
            Model(layout=small_layout, weights=weights, class_names=("a", "b"), hyperparams=bad)


def test_model_weights_are_column_major_whatever_the_input_order(small_dataset):
    """One contiguous column per class, so one frame's product is one dot
    product per column; scores do not depend on the order the weights came in."""
    layout = small_dataset.layout
    weights = np.random.default_rng(103).standard_normal(
        (layout.d_t + layout.d_o, small_dataset.n_classes)
    )
    wide = np.zeros((2 * weights.shape[0], 3 * weights.shape[1]))
    wide[::2, ::3] = weights
    models = [
        Model(
            layout=layout,
            weights=given,
            class_names=small_dataset.class_names,
            hyperparams=SolverConfig(),
        )
        for given in (weights, np.asfortranarray(weights), wide[::2, ::3])
    ]
    for model in models:
        assert model.weights.flags.f_contiguous
        assert not model.weights.flags.writeable
        assert np.array_equal(model.weights, weights)
    for i in range(small_dataset.n_instances):
        t, o = small_dataset.skeleton[:, i], small_dataset.objects[:, i]
        idx, scores = predict(models[0], t, o)
        for model in models[1:]:
            other_idx, other_scores = predict(model, t, o)
            assert other_idx == idx
            assert np.array_equal(other_scores, scores)


def test_column_major_weights_change_no_model_file_or_batch_index(paper_dataset, tmp_path):
    """A model held C-ordered, as models were before they were kept column-major,
    writes the same file and predicts the same classes."""
    rng = np.random.default_rng(107)
    layout, n_classes = paper_dataset.layout, paper_dataset.n_classes
    train, _ = standardize(paper_dataset)
    fitted, _ = fit(train, SolverConfig(lambda1=1.0, lambda2=1.0))
    for model in (
        fitted,
        make_model(
            layout,
            rng.standard_normal((layout.d_t, n_classes)),
            rng.standard_normal((layout.d_o, n_classes)),
            n_classes,
        ),
    ):
        row_major = dataclasses.replace(model)
        held = np.ascontiguousarray(model.weights)
        held.setflags(write=False)
        object.__setattr__(row_major, "weights", held)
        assert row_major.weights.flags.c_contiguous and model.weights.flags.f_contiguous
        save_model(model, tmp_path / "col.json", overwrite=True)
        save_model(row_major, tmp_path / "row.json", overwrite=True)
        assert (tmp_path / "col.json").read_bytes() == (tmp_path / "row.json").read_bytes()
        for dataset in (paper_dataset, train):
            indices, accuracy = predict_batch(model, dataset)
            row_indices, row_accuracy = predict_batch(row_major, dataset)
            assert np.array_equal(indices, row_indices)
            assert accuracy == row_accuracy


def test_model_arrays_are_frozen(small_layout):
    rng = np.random.default_rng(71)
    weights = np.vstack(
        (rng.standard_normal((small_layout.d_t, 2)), rng.standard_normal((small_layout.d_o, 2)))
    )
    kept = weights.copy()
    model = Model(
        layout=small_layout, weights=weights, class_names=("a", "b"), hyperparams=SolverConfig()
    )
    weights[0, 0], weights[-1, -1] = 123.0, -123.0  # a skeleton and an object weight
    assert np.array_equal(model.weights, kept)
    assert model.w[0, 0] != 123.0 and model.u[-1, -1] != -123.0
    with pytest.raises(ValueError):
        model.w[0, 0] = 5.0
    for view in ("w", "u"):
        with pytest.raises(AttributeError):
            setattr(model, view, model.weights)
    with pytest.raises(TypeError):
        Model(
            layout=small_layout,
            w=model.w,
            u=model.u,
            class_names=model.class_names,
            hyperparams=model.hyperparams,
        )


def test_model_weights_stack_w_over_u_and_share_their_memory(small_layout):
    rng = np.random.default_rng(83)
    w = rng.standard_normal((small_layout.d_t, 3))
    u = rng.standard_normal((small_layout.d_o, 3))
    model = make_model(small_layout, w, u, 3)
    assert np.array_equal(model.weights, np.vstack((w, u)))
    assert not model.weights.flags.writeable
    with pytest.raises(ValueError):
        model.weights[0, 0] = 5.0
    # w and u are row views of the one stacked copy, not copies of their own
    assert np.shares_memory(model.w, model.weights)
    assert np.shares_memory(model.u, model.weights)
    assert not model.u.flags.writeable
