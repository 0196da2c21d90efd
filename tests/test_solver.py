"""Reweighting diagonals, the all-classes joint step, the reweighted fit
loop, and the first-order diagnostics around it."""

from __future__ import annotations

import numpy as np
import pytest

from poseact import (
    Dataset,
    FeatureLayout,
    Model,
    SolverConfig,
    SynthSpec,
    check_reweighting_inequality,
    fit,
    generate,
    loss,
    predict_batch,
    smoothed_gradients,
    smoothed_objective,
    split,
    standardize,
    stationarity_residual,
)
from poseact.core import _group_norms, block_sums, objective
from poseact.errors import ConfigError, LayoutError, SingularityError, ValidationError
from poseact.solver import _CG_STEPS, _irls_step, _reweights

from conftest import build_dataset, conditioned


def joint_step(ds, lam1, lam2, d, start=None):
    """fit's step on the stacked weights [W; U] with diagonals d (d x C), from
    start (zero by default); with both weights zero it is the exact solve.
    The step works class-major (C x d), so this hands it the transposes and
    returns the d x C result.  tol 0 takes all _CG_STEPS CG steps unless
    the system is solved exactly (r'M^-1 r summed over the classes == 0)
    first."""
    blocks = ds.normal_equations
    step = _irls_step(blocks, ds.layout, lam1, lam2, 0.0)
    x = np.zeros_like(blocks.xy.T) if start is None else np.ascontiguousarray(start.T)
    return step(x, x @ blocks.gram, np.ascontiguousarray(d.T))[0].T


def reweights(mat, dims, epsilon):
    """fit's reweighting diagonals of mat (a vector or d x C), from its block
    norms, taken class-major as fit takes them."""
    return _reweights(_group_norms(mat.T, dims, axis=-1), dims, epsilon).T


# the paper's 45 skeleton and 297 object features
PAPER_LAYOUT = FeatureLayout(joint_dims=(3,) * 15, object_count=3, modality_dims=(48, 36, 15))


# --- SolverConfig -----------------------------------------------------------


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.lambda1 == 0.1
    assert cfg.lambda2 == 0.1
    assert cfg.tol == 1e-6
    assert cfg.max_iters == 100
    assert cfg.epsilon == 1e-8
    assert cfg.seed == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        SolverConfig(lambda2=float("inf"))
    with pytest.raises(ConfigError):
        SolverConfig(tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(max_iters=0)
    with pytest.raises(ConfigError):
        SolverConfig(max_iters=2.5)
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(seed=-1)
    with pytest.raises(ConfigError):
        SolverConfig(seed=2**64)
    # float() would take these, but a bool or a string is not a number
    for field, value in (("lambda1", True), ("lambda2", "0.5"), ("tol", np.True_), ("epsilon", b"1")):
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            SolverConfig(**{field: value})
    # zero penalties are legal; they switch the solver to plain least squares
    assert SolverConfig(lambda1=0.0, lambda2=0.0).lambda1 == 0.0


# --- reweighting diagonals ----------------------------------------------------


def test_skeletal_reweights_hand_example():
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(1,))
    w_c = np.array([3.0, 4.0, 5.0, 12.0])
    diag = reweights(w_c, layout.joint_dims, 1e-8)
    assert np.allclose(diag, [1 / 10, 1 / 10, 1 / 26, 1 / 26], rtol=1e-12)


def test_skeletal_reweights_zero_block_hits_floor():
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(1,))
    w_c = np.array([0.0, 0.0, 3.0, 4.0])
    diag = reweights(w_c, layout.joint_dims, 1e-8)
    assert np.allclose(diag[:2], 1.0 / 2e-8)
    assert np.allclose(diag[2:], 1.0 / 10.0)


def test_attribute_reweights_hand_example():
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(3,))
    diag = reweights(np.array([0.0, 3.0, 4.0]), layout.object_block_dims, 1e-8)
    assert np.allclose(diag, 1.0 / 10.0)
    all_zero = reweights(np.zeros(3), layout.object_block_dims, 1e-8)
    assert np.allclose(all_zero, 1.0 / 2e-8)


def test_reweights_match_loop_oracle_and_stay_positive():
    rng = np.random.default_rng(101)
    for _ in range(20):
        layout = FeatureLayout(
            joint_dims=tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 5)))),
            object_count=int(rng.integers(1, 4)),
            modality_dims=tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 4)))),
        )
        w_c = rng.standard_normal(layout.d_t)
        u_c = rng.standard_normal(layout.d_o)
        dw = reweights(w_c, layout.joint_dims, 1e-8)
        du = reweights(u_c, layout.object_block_dims, 1e-8)
        assert np.all(dw > 0) and np.all(du > 0)
        for sl in layout.joint_slices:
            expected = 0.5 / max(np.sqrt(np.sum(w_c[sl] ** 2)), 1e-8)
            assert np.allclose(dw[sl], expected, rtol=1e-12)
        for sl in layout.object_block_slices:
            expected = 0.5 / max(np.sqrt(np.sum(u_c[sl] ** 2)), 1e-8)
            assert np.allclose(du[sl], expected, rtol=1e-12)
        # the all-classes call fit makes equals one column call per class
        w = rng.standard_normal((layout.d_t, 3))
        u = rng.standard_normal((layout.d_o, 3))
        w[layout.joint_slices[0], 1] = 0.0
        u[layout.object_block_slices[-1], 2] = 0.0
        for mat, dims in ((w, layout.joint_dims), (u, layout.object_block_dims)):
            at_once = reweights(mat, dims, 1e-8)
            for c in range(3):
                assert np.array_equal(at_once[:, c], reweights(mat[:, c], dims, 1e-8))


# --- the joint step ------------------------------------------------------------


def test_update_skeleton_identity_design_returns_labels():
    # T is the 4x4 identity and O is zero, so the system is diagonal: with no
    # skeletal penalty W must equal Y, and the penalised zero-feature U stays 0
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(2,))
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, features=np.vstack((np.eye(4), np.zeros((2, 4)))), labels=labels)
    x = joint_step(ds, 0.0, 1.0, np.ones((6, 2)))
    assert np.allclose(x[:4], labels, atol=1e-12)
    assert not x[4:].any()


def test_update_object_identity_design_returns_labels():
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(1, 2))
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, features=np.vstack((np.zeros((2, 3)), np.eye(3))), labels=labels)
    x = joint_step(ds, 1.0, 0.0, np.ones((5, 2)))
    assert not x[:2].any()
    assert np.allclose(x[2:], labels, atol=1e-12)


def test_updates_match_least_squares_oracle():
    """With no penalty the step is the ordinary least-squares solution of the
    stacked design, whatever the start."""
    rng = np.random.default_rng(107)
    layout = FeatureLayout(joint_dims=(3, 2), object_count=2, modality_dims=(2,))
    for k in range(10):
        ds = build_dataset(layout, n=30, n_classes=2, seed=200 + k)
        start = rng.standard_normal((9, 2))
        x = joint_step(ds, 0.0, 0.0, np.ones((9, 2)), start)
        stacked = np.vstack([ds.skeleton, ds.objects])
        oracle, *_ = np.linalg.lstsq(stacked.T, ds.labels, rcond=None)
        assert np.allclose(x, oracle, atol=1e-9)


def test_update_with_cross_term_matches_oracle():
    # the stacked system couples W and U through T O'; the step runs one CG
    # recurrence over every class, which solves the joint system exactly
    # once it has as many steps as unknowns, so 2 classes x 2 features (4
    # unknowns, at most _CG_STEPS) are checked against a dense per-class solve
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    ds = build_dataset(layout, n=25, n_classes=2, seed=300)
    rng = np.random.default_rng(301)
    d = reweights(rng.standard_normal((2, 2)), layout.joint_dims + layout.object_block_dims, 1e-8)
    assert d.size <= _CG_STEPS and not np.allclose(ds.normal_equations.gram[0, 1], 0.0)
    x = joint_step(ds, 0.7, 0.4, d)
    stacked = np.vstack([ds.skeleton, ds.objects])
    lam = np.array([0.7, 0.4])
    for c in range(2):
        system = stacked @ stacked.T + np.diag(lam * d[:, c])
        expected = np.linalg.solve(system, stacked @ ds.labels[:, c])
        assert np.allclose(x[:, c], expected, atol=1e-10)


def test_huge_penalty_crushes_the_solution():
    layout = FeatureLayout(joint_dims=(2, 3), object_count=1, modality_dims=(2,))
    ds = build_dataset(layout, n=40, n_classes=2, seed=303)
    d = np.ones((7, 2))
    x_free = joint_step(ds, 0.0, 0.0, d)
    x_crushed = joint_step(ds, 1e8, 1e8, d)
    assert np.linalg.norm(x_crushed) < 1e-4 * np.linalg.norm(x_free)
    # a huge weight on one side crushes that side alone
    x_skeleton = joint_step(ds, 1e8, 0.0, d)
    assert np.linalg.norm(x_skeleton[:5]) < 1e-4 * np.linalg.norm(x_free[:5])
    assert np.linalg.norm(x_skeleton[5:]) > 0.1 * np.linalg.norm(x_free[5:])


def test_update_symmetry_under_role_swap():
    """Swapping the two data matrices (and block structures) permutes the
    rows of the joint system, and the step permutes with them."""
    layout_a = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(3,))
    layout_b = FeatureLayout(joint_dims=(3,), object_count=1, modality_dims=(2, 1))
    rng = np.random.default_rng(109)
    skeleton = rng.standard_normal((3, 20))
    objects = rng.standard_normal((3, 20))
    labels = np.zeros((20, 2))
    labels[np.arange(20), rng.integers(0, 2, size=20)] = 1.0
    ds_a = Dataset(layout=layout_a, features=np.vstack((skeleton, objects)), labels=labels)
    ds_b = Dataset(layout=layout_b, features=np.vstack((objects, skeleton)), labels=labels)
    swap = np.r_[3:6, 0:3]
    d = rng.uniform(0.1, 1.0, size=(6, 2))
    start = rng.standard_normal((6, 2))
    from_a = joint_step(ds_a, 0.4, 0.7, d, start)
    from_b = joint_step(ds_b, 0.7, 0.4, d[swap], start[swap])
    assert np.allclose(from_a[swap], from_b, atol=1e-12)


def test_update_singular_gram_raises():
    # 5 skeleton rows from only 3 instances: T T' is rank deficient, and with
    # no skeletal penalty there is nothing to regularize the solve
    layout = FeatureLayout(joint_dims=(3, 2), object_count=1, modality_dims=(1,))
    rng = np.random.default_rng(113)
    ds = Dataset(
        layout=layout,
        features=np.vstack((rng.standard_normal((5, 3)), rng.standard_normal((1, 3)))),
        labels=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    )
    d = np.ones((6, 2))
    with pytest.raises(SingularityError, match=r"skeleton-weight system \(T T'\) is not positive"):
        joint_step(ds, 0.0, 0.1, d)
    with pytest.raises(SingularityError, match=r"joint system .* is not positive definite"):
        joint_step(ds, 0.0, 0.0, d)
    # the object side alone (1 row, 3 instances) is fine
    assert np.isfinite(joint_step(ds, 0.1, 0.0, d)).all()


def test_normal_equations_reject_unlabeled_data(small_layout):
    ds = build_dataset(small_layout, n=20, n_classes=2, seed=307)
    unlabeled = Dataset(layout=small_layout, features=ds.features)
    with pytest.raises(ValidationError, match="labeled"):
        unlabeled.normal_equations


@pytest.mark.filterwarnings("error")
def test_step_from_a_solved_system_moves_nothing():
    """A step whose starting residual is exactly 0 has r'z = 0 and a zero
    search direction, so p'q = 0: its step length is 0.0, with no 0 / 0
    and no division warning (warnings are errors), and it ends after one
    CG step.  Integer G, weights and XY make the start an exact solution
    in floating point; an all-zero XY from x = 0 is the other such start."""
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(2,))
    blocks = build_dataset(layout, n=8, n_classes=2, seed=317).normal_equations
    rng = np.random.default_rng(317)
    a = rng.integers(-3, 4, size=(5, 8)).astype(float)
    gram = a @ a.T + np.eye(5)
    d = np.full((2, 5), 0.5)  # class-major reweighting diagonals
    x = rng.integers(-4, 5, size=(2, 5)).astype(float)
    lam1, lam2 = 2.0, 1.0
    shift = np.repeat([lam1, lam2], [layout.d_t, layout.d_o]) * d
    xy = (x @ gram + shift * x).T
    solved = blocks._replace(gram=gram, xy=xy)
    zero, start = blocks._replace(gram=gram, xy=np.zeros_like(xy)), np.zeros_like(x)
    for tol in (0.0, SolverConfig().tol):
        new_x, new_gram_x, taken = _irls_step(solved, layout, lam1, lam2, tol)(x, x @ gram, d)
        assert np.array_equal(new_x, x) and np.array_equal(new_gram_x, x @ gram)
        assert taken == 1
        new_x, new_gram_x, taken = _irls_step(zero, layout, lam1, lam2, tol)(start, start @ gram, d)
        assert taken == 1
        for got in (new_x, new_gram_x):
            assert got.tobytes() == start.tobytes()  # +0.0 everywhere, bit for bit


# --- the shared normal equations ---------------------------------------------


def test_normal_equations_are_built_once_and_shared(monkeypatch, small_layout):
    builds = []
    build = Dataset.normal_equations.func
    monkeypatch.setattr(
        Dataset.normal_equations, "func", lambda ds: builds.append(ds) or build(ds)
    )
    ds = build_dataset(small_layout, n=40, n_classes=3, seed=311)
    model, _ = fit(ds, SolverConfig(max_iters=5))
    blocks = ds.normal_equations
    stationarity_residual(ds, model, 0.1, 0.1, 1e-8)
    assert ds.normal_equations is blocks
    assert builds == [ds]
    d_t, (x, t, o, y) = small_layout.d_t, (ds.features, ds.skeleton, ds.objects, ds.labels)
    assert blocks._fields == ("gram", "xy", "yy")
    # one product each over the stacked features, bit for bit
    assert np.array_equal(blocks.gram, x @ x.T)
    assert np.array_equal(blocks.xy, x @ y)
    assert np.array_equal(blocks.gram, blocks.gram.T)
    # and the blocks are the per-group products up to rounding
    assert np.allclose(blocks.gram[:d_t, :d_t], t @ t.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(blocks.gram[d_t:, d_t:], o @ o.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(blocks.gram[:d_t, d_t:], t @ o.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(blocks.xy, np.vstack([t @ y, o @ y]), rtol=1e-12, atol=1e-12)
    # one-hot labels: ||y_c||^2 is the class count
    assert np.array_equal(blocks.yy, list(ds.class_counts().values()))


def test_normal_equations_are_read_only(small_dataset):
    for block in small_dataset.normal_equations:
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[(0,) * block.ndim] = 1.0


def test_derived_datasets_build_their_own_normal_equations(small_layout):
    ds = build_dataset(small_layout, n=40, n_classes=2, seed=313)
    stale = ds.normal_equations
    scaled, _ = standardize(ds)
    train, test = split(ds, 0.5, seed=3)
    for derived in (scaled, train, test):
        blocks = derived.normal_equations
        assert blocks is not stale
        x, y = derived.features, derived.labels
        assert np.array_equal(blocks.gram, x @ x.T)
        assert np.array_equal(blocks.xy, x @ y)
        assert np.array_equal(blocks.gram, blocks.gram.T)


# --- fit ---------------------------------------------------------------------


def linear_label_dataset(seed=0, n=60):
    """Labels that are an exact linear readout of the first joint block."""
    layout = FeatureLayout(joint_dims=(2, 3), object_count=1, modality_dims=(2,))
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, 2))
    labels[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
    skeleton = rng.standard_normal((layout.d_t, n))
    skeleton[0:2, :] = labels.T  # joint 0 carries the one-hot rows verbatim
    objects = rng.standard_normal((layout.d_o, n))
    return Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)


def test_fit_converges_on_linearly_separable_data():
    ds = linear_label_dataset()
    model, report = fit(ds, SolverConfig(lambda1=0.1, lambda2=0.1, tol=1e-6, max_iters=100))
    assert report.converged
    assert report.iterations_run <= 100
    trace = np.asarray(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))


def test_fit_trace_is_monotone_on_random_problems():
    rng = np.random.default_rng(127)
    for k in range(10):
        layout = FeatureLayout(
            joint_dims=tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(2, 5)))),
            object_count=int(rng.integers(1, 3)),
            modality_dims=tuple(int(d) for d in rng.integers(1, 4, size=int(rng.integers(1, 3)))),
        )
        ds = build_dataset(layout, n=int(rng.integers(20, 60)), n_classes=3, seed=400 + k)
        _, report = fit(ds, SolverConfig(max_iters=40, seed=k))
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
        assert len(report.loss_trace) == len(trace) == report.iterations_run


def test_fit_final_trace_entry_matches_objective_and_loss():
    ds = build_dataset(
        FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(2,)),
        n=30,
        n_classes=2,
        seed=11,
    )
    cfg = SolverConfig(lambda1=0.3, lambda2=0.2, max_iters=25)
    model, report = fit(ds, cfg)
    # the trace and the public functions share one loss expansion; the
    # trace's G X is carried through the CG steps, the functions' is a
    # direct product, and the two agree at rounding level
    assert report.objective_trace[-1] == pytest.approx(
        objective(ds, model.weights, 0.3, 0.2), rel=1e-12, abs=0.0
    )
    assert report.loss_trace[-1] == pytest.approx(loss(ds, model.weights), rel=1e-12, abs=0.0)


def test_carried_gram_product_does_not_drift_on_conditioned_data():
    """fit carries G X through the CG recurrence instead of forming it at
    each new iterate.  On the paper shape mixed to cond(G) >= 1e4 and >= 1e6
    (100 iterations, unconverged, at lambda 0.1), the loss and objective of
    the last iterate still equal the direct ones within 1e-12 relative."""
    base = build_dataset(PAPER_LAYOUT, n=2000, n_classes=6, seed=727)
    for decay, floor in ((1e-2, 1e4), (1e-3, 1e6)):
        ds = conditioned(base, decay)
        assert np.linalg.cond(ds.normal_equations.gram) >= floor
        for lam in (0.1, 300.0):
            model, report = fit(ds, SolverConfig(lambda1=lam, lambda2=lam, seed=5))
            assert report.loss_trace[-1] == pytest.approx(
                loss(ds, model.weights), rel=1e-12, abs=0.0
            )
            assert report.objective_trace[-1] == pytest.approx(
                objective(ds, model.weights, lam, lam), rel=1e-12, abs=0.0
            )


def square_system(seed):
    """d_t + d_o = N = 6 with a nonsingular stacked design, so the unpenalized
    minimum is exact interpolation; returns the dataset and its stacked lstsq weights."""
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(3,))
    rng = np.random.default_rng(seed)
    n = 6
    skeleton = rng.standard_normal((3, n))
    objects = rng.standard_normal((3, n))
    stacked = np.vstack([skeleton, objects])
    assert np.linalg.matrix_rank(stacked) == n
    labels = np.zeros((n, 2))
    labels[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
    ds = Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)
    coef, *_ = np.linalg.lstsq(stacked.T, labels, rcond=None)
    return ds, coef


def test_fit_unpenalized_square_system_reaches_least_squares_loss():
    # the alternation must approach the exact interpolant
    ds, x_ls = square_system(131)
    model, report = fit(
        ds, SolverConfig(lambda1=0.0, lambda2=0.0, tol=1e-15, max_iters=20000)
    )
    stacked = np.vstack([ds.skeleton, ds.objects])
    oracle = float(np.sum((stacked.T @ x_ls - ds.labels) ** 2))
    assert loss(ds, model.weights) <= oracle + 1e-6


def test_loss_near_zero_is_never_negative():
    # the loss expanded over the normal equations rounds with an absolute
    # error of about eps * ||Y||^2, so near an interpolant it must be clamped
    ds, _ = square_system(131)
    y_sq = float(np.sum(ds.labels * ds.labels))
    _, report = fit(ds, SolverConfig(lambda1=0.0, lambda2=0.0, tol=1e-15, max_iters=20000))
    assert min(report.loss_trace) >= 0.0
    assert report.loss_trace[-1] <= 1e-12 * y_sq
    # at these interpolants the unclamped expansion comes out below zero
    for seed in (131, 1, 2, 4, 6, 8, 9):
        ds, x_ls = square_system(seed)
        assert 0.0 <= loss(ds, x_ls) <= 1e-12 * float(np.sum(ds.labels * ds.labels))


def test_fit_and_diagnostics_never_touch_the_data_after_the_gram_build():
    layout = FeatureLayout(joint_dims=(2, 3), object_count=2, modality_dims=(1, 2))
    intact = build_dataset(layout, n=50, n_classes=3, seed=331)
    stripped = build_dataset(layout, n=50, n_classes=3, seed=331)
    stripped.normal_equations
    object.__setattr__(stripped, "features", None)  # skeleton and objects are its views
    with pytest.raises(TypeError):
        stripped.skeleton
    cfg = SolverConfig(lambda1=0.2, lambda2=0.3, max_iters=30)
    model_a, report_a = fit(intact, cfg)
    model_b, report_b = fit(stripped, cfg)
    assert np.array_equal(model_a.w, model_b.w)
    assert np.array_equal(model_a.u, model_b.u)
    assert report_a.objective_trace == report_b.objective_trace
    assert report_a.loss_trace == report_b.loss_trace
    assert stationarity_residual(intact, model_a, 0.2, 0.3, 1e-8) == stationarity_residual(
        stripped, model_b, 0.2, 0.3, 1e-8
    )
    x = model_a.weights
    assert loss(intact, x) == loss(stripped, x)
    assert smoothed_objective(intact, x, 0.2, 0.3, 1e-3) == smoothed_objective(
        stripped, x, 0.2, 0.3, 1e-3
    )
    assert np.array_equal(
        smoothed_gradients(intact, x, 0.2, 0.3, 1e-3),
        smoothed_gradients(stripped, x, 0.2, 0.3, 1e-3),
    )


def test_fit_is_deterministic():
    ds = build_dataset(
        FeatureLayout(joint_dims=(2, 3), object_count=2, modality_dims=(1, 2)),
        n=35,
        n_classes=3,
        seed=17,
    )
    cfg = SolverConfig(seed=42, max_iters=30)
    model_a, report_a = fit(ds, cfg)
    model_b, report_b = fit(ds, cfg)
    assert np.array_equal(model_a.w, model_b.w)
    assert np.array_equal(model_a.u, model_b.u)
    assert report_a.objective_trace == report_b.objective_trace
    # a different seed starts elsewhere
    model_c, _ = fit(ds, SolverConfig(seed=43, max_iters=30))
    assert not np.array_equal(model_a.w, model_c.w)


def test_fit_reports_non_convergence_instead_of_raising():
    ds = build_dataset(
        FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(2,)),
        n=30,
        n_classes=2,
        seed=19,
    )
    model, report = fit(ds, SolverConfig(max_iters=1))
    assert not report.converged
    assert report.iterations_run == 1
    assert model.w.shape == (4, 2)


def test_fit_requires_labels(small_layout):
    rng = np.random.default_rng(23)
    ds = Dataset(
        layout=small_layout,
        features=np.vstack(
            (
                rng.standard_normal((small_layout.d_t, 5)),
                rng.standard_normal((small_layout.d_o, 5)),
            )
        ),
    )
    with pytest.raises(ValidationError):
        fit(ds, SolverConfig())


def test_fit_propagates_singularity():
    # unpenalized skeleton side with more rows than instances cannot be solved
    layout = FeatureLayout(joint_dims=(4, 3), object_count=1, modality_dims=(1,))
    ds = build_dataset(layout, n=4, n_classes=2, seed=29)
    with pytest.raises(SingularityError):
        fit(ds, SolverConfig(lambda1=0.0, lambda2=0.1))


def test_fit_propagates_object_side_singularity():
    # the mirror: unpenalized object side with more rows than instances
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(4, 3))
    ds = build_dataset(layout, n=4, n_classes=2, seed=29)
    with pytest.raises(SingularityError, match="object-weight system"):
        fit(ds, SolverConfig(lambda1=0.1, lambda2=0.0))


def test_fit_with_one_zero_weight_descends_to_the_tight_objective():
    """(lambda, 0) and (0, lambda) leave one side unregularised inside the
    CG step: the trace still never rises, and the default tol 1e-6 stops
    within 1e-4 (relative) of a tol 1e-12 fit's objective."""
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))
    for k in range(3):
        ds = build_dataset(layout, n=60, n_classes=3, seed=700 + k)
        for lam1, lam2 in ((2.0, 0.0), (0.0, 2.0)):
            _, report = fit(ds, SolverConfig(lambda1=lam1, lambda2=lam2))
            _, tight = fit(
                ds, SolverConfig(lambda1=lam1, lambda2=lam2, tol=1e-12, max_iters=5000)
            )
            assert report.converged and tight.converged
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
            best = tight.objective_trace[-1]
            assert abs(trace[-1] - best) <= 1e-4 * best


def test_fit_model_carries_dataset_metadata():
    ds = build_dataset(
        FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(2,)),
        n=20,
        n_classes=2,
        seed=31,
    )
    cfg = SolverConfig(max_iters=10)
    model, _ = fit(ds, cfg)
    assert model.class_names == ds.class_names
    assert model.hyperparams == cfg
    assert model.names == ds.names
    assert model.standardizer is None


def reference_fit(ds, cfg, per_class=False):
    """The fit loop with nothing shared between its parts, class-major as fit
    runs it: the weights, residuals, directions and diagonals are C x d,
    one row per class, and every Gram product is a C x d by d x d product.
    Each step rebuilds the diagonals from a fresh pass over the block norms
    and takes _CG_STEPS Jacobi-PCG steps from XY' - (X'G + shift X'); X'G
    comes from one direct product at the start weights and is then carried
    through the CG recurrence, X'G + alpha P'G per step, and the penalty
    takes its own block norms (with both weights zero the step is the exact
    solve of G X = XY, and X'G a direct product at it).

    By default the CG steps are one recurrence on the joint system of all
    classes: every dot product sums over the whole C x d array, each step
    length is one scalar, and a step stops early once the summed r'M^-1 r
    is at most tol times its value at the start of the step.  fit shares
    the block norms between the parts and must match this loop bit for
    bit.  per_class=True runs the loop fit ran before, one recurrence per
    class side by side: per-class dot products and step lengths, stopping
    once every class's r'M^-1 r is at most tol times its own start value.
    The weights come back d x C, with the traces and the CG steps taken."""
    layout, blocks = ds.layout, ds.normal_equations
    gram, rhs, d_t = blocks.gram, np.ascontiguousarray(blocks.xy.T), layout.d_t
    lam1, lam2, eps = cfg.lambda1, cfg.lambda2, cfg.epsilon
    dims, joints = layout.joint_dims + layout.object_block_dims, layout.n_joints
    lam = np.concatenate([np.full(d_t, lam1), np.full(layout.d_o, lam2)])
    diagonal = np.diag(gram)

    if per_class:

        def dot(a, b):
            return np.einsum("ij,ij->i", a, b)

        def ratio(num, den):
            return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)[:, None]

        def solved(rz, rz_start):
            return all(rz[c] <= cfg.tol * rz_start[c] for c in range(rz.size))

    else:
        dot = np.vdot

        def ratio(num, den):
            return 0.0 if den == 0.0 else num / den

        def solved(rz, rz_start):
            return rz <= cfg.tol * rz_start

    def loss_and_objective(x, gram_x):
        loss_val = max(0.0, float(np.sum(x * (gram_x - 2.0 * rhs)) + np.sum(blocks.yy)))
        norms = np.sqrt(block_sums(x * x, dims, axis=1))
        penalty = lam1 * float(np.sum(norms[:, :joints])) + lam2 * float(
            np.sum(norms[:, joints:])
        )
        return loss_val, loss_val + penalty

    def step(x, gram_x):
        if lam1 == lam2 == 0.0:
            factor = np.linalg.cholesky(gram)
            exact = np.linalg.solve(factor.T, np.linalg.solve(factor, blocks.xy))
            exact = np.ascontiguousarray(exact.T)
            return exact, exact @ gram, 0
        norms = np.sqrt(block_sums(x * x, dims, axis=1))
        shift = lam * np.repeat(0.5 / np.maximum(norms, eps), dims, axis=1)
        precond = 1.0 / (diagonal + shift)
        r = rhs - (gram_x + shift * x)
        p = precond * r
        rz = rz_start = dot(r, p)
        for taken in range(1, _CG_STEPS + 1):
            gram_p = p @ gram
            q = gram_p + shift * p
            alpha = ratio(rz, dot(p, q))
            x = x + alpha * p
            gram_x = gram_x + alpha * gram_p
            r = r - alpha * q
            z = precond * r
            rz_next = dot(r, z)
            p = z + ratio(rz_next, rz) * p
            rz = rz_next
            if solved(rz, rz_start):
                break
        return x, gram_x, taken

    x = 0.01 * np.random.default_rng(cfg.seed).standard_normal(blocks.xy.shape)
    x = np.ascontiguousarray(x.T)
    gram_x = x @ gram
    prev_obj = loss_and_objective(x, gram_x)[1]
    losses, objectives, cg_steps = [], [], []
    for _ in range(cfg.max_iters):
        x, gram_x, taken = step(x, gram_x)
        loss_val, obj = loss_and_objective(x, gram_x)
        losses.append(loss_val)
        objectives.append(obj)
        cg_steps.append(taken)
        if abs(prev_obj - obj) / max(1.0, prev_obj) < cfg.tol:
            break
        prev_obj = obj
    return x.T, tuple(losses), tuple(objectives), tuple(cg_steps)


def per_class_reference_fit(ds, cfg):
    """reference_fit as fit ran before its CG steps became one recurrence:
    one recurrence per class, side by side."""
    return reference_fit(ds, cfg, per_class=True)


def reference_problems():
    small = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2,))
    problems = [
        (build_dataset(small, n=n, n_classes=3, seed=700 + n), lams, 1e-9)
        for n in (20, 45)
        for lams in ((0.3, 0.25), (0.3, 0.0), (0.0, 0.25), (0.0, 0.0))
    ]
    paper = build_dataset(PAPER_LAYOUT, n=500, n_classes=6, seed=709)
    # at lambda 300 and the default tol the inner solves end early
    return problems + [(paper, (0.5, 0.5), 1e-9), (paper, (300.0, 300.0), SolverConfig().tol)]


def test_fit_matches_the_reference_loop_bit_for_bit():
    for ds, (lam1, lam2), tol in reference_problems():
        cfg = SolverConfig(lambda1=lam1, lambda2=lam2, tol=tol, max_iters=40, seed=3)
        model, report = fit(ds, cfg)
        x, losses, objectives, cg_steps = reference_fit(ds, cfg)
        assert np.array_equal(model.weights, x)
        assert np.array_equal(model.w, x[: ds.layout.d_t])
        assert np.array_equal(model.u, x[ds.layout.d_t :])
        assert report.objective_trace == objectives
        assert report.loss_trace == losses
        assert report.iterations_run == len(objectives)
        assert report.cg_steps == cg_steps
    assert min(report.cg_steps) < _CG_STEPS


def test_fit_reaches_the_optimum_of_the_per_class_loop():
    """One recurrence over all classes takes other CG steps than one
    recurrence per class, so the iterates part at rounding level from the
    first penalised step on; what must agree is where they end.  Run to tol
    1e-14 on the same problems, fit's final objective is within 1e-13
    relative of the per-class loop's (both converge within 30 iterations)."""
    for ds, (lam1, lam2), _ in reference_problems():
        cfg = SolverConfig(lambda1=lam1, lambda2=lam2, tol=1e-14, max_iters=200, seed=3)
        _, report = fit(ds, cfg)
        _, _, objectives, _ = per_class_reference_fit(ds, cfg)
        assert report.converged and len(objectives) < cfg.max_iters
        assert report.objective_trace[-1] == pytest.approx(objectives[-1], rel=1e-13, abs=0.0)


def test_joint_recurrence_on_conditioned_data_stays_near_the_per_class_loop():
    """A per-class recurrence solves its d unknowns in d steps; the joint
    one may need C d, and at cond(G) >= 1e4 five steps are far from either.
    On the paper shape mixed to cond(G) about 1e4 and 1e6 the default fit
    at lambda 0.1 and 1 stops unconverged after 100 iterations on both
    loops, and its final objective is within 2e-4 relative of the per-class
    loop's (measured: 1.9e-5 to 6.2e-5, where both loops stop 1.9e-3 to
    3.8e-2 above the optimum); at lambda 300 both converge after as many
    iterations."""
    base = build_dataset(PAPER_LAYOUT, n=2000, n_classes=6, seed=727)
    for decay in (1e-2, 1e-3):
        ds = conditioned(base, decay)
        for lam in (0.1, 1.0, 300.0):
            cfg = SolverConfig(lambda1=lam, lambda2=lam)
            _, report = fit(ds, cfg)
            _, _, objectives, _ = per_class_reference_fit(ds, cfg)
            assert report.objective_trace[-1] == pytest.approx(objectives[-1], rel=2e-4, abs=0.0)
            if lam == 300.0:
                assert report.converged and report.iterations_run == len(objectives)


class CountingGram(np.ndarray):
    """A view of the Gram that counts the products it is a factor of, on
    either side."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += sum(a is self for a in inputs)
        inputs = tuple(np.asarray(a) if isinstance(a, CountingGram) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_fit_makes_one_gram_product_per_cg_step_and_one_per_iteration():
    """One product at the start weights, then each CG step's P'G, which also
    carries X'G to the new weights: 1 + sum(cg_steps) products for a
    penalised fit, whose iterations take 1 to _CG_STEPS CG steps each.  The
    exact path with both weights zero takes no CG step and forms X'G at its
    solution once per iteration: 1 + iterations_run products."""
    small = build_dataset(
        FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2,)),
        n=40,
        n_classes=3,
        seed=719,
    )
    paper = build_dataset(PAPER_LAYOUT, n=500, n_classes=6, seed=709)
    cases = ((small, 0.3, 0.25), (small, 0.0, 0.0), (paper, 300.0, 300.0))
    for ds, lam1, lam2 in cases:
        blocks = ds.normal_equations
        gram = blocks.gram.view(CountingGram)
        gram.products = 0
        ds.__dict__["normal_equations"] = blocks._replace(gram=gram)
        _, report = fit(ds, SolverConfig(lambda1=lam1, lambda2=lam2, max_iters=40))
        ds.__dict__["normal_equations"] = blocks
        assert report.iterations_run > 1
        assert len(report.cg_steps) == report.iterations_run
        if lam1 == lam2 == 0.0:
            assert set(report.cg_steps) == {0}
            assert gram.products == 1 + report.iterations_run
        else:
            assert 1 <= min(report.cg_steps) and max(report.cg_steps) <= _CG_STEPS
            assert gram.products == 1 + sum(report.cg_steps)
    # the last case ends some inner solves early
    assert min(report.cg_steps) < _CG_STEPS


def test_iteration_update_never_raises_objective():
    """One step of the stacked weights (diagonals from the pre-update
    weights) must not increase loss + both penalties, also when one weight
    is zero."""
    rng = np.random.default_rng(137)
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2,))
    dims = layout.joint_dims + layout.object_block_dims
    for k in range(20):
        ds = build_dataset(layout, n=int(rng.integers(15, 50)), n_classes=2, seed=500 + k)
        x = 0.5 * rng.standard_normal((10, 2))
        for lam1, lam2 in ((0.3, 0.25), (0.3, 0.0), (0.0, 0.25)):
            before = objective(ds, x, lam1, lam2)
            x_new = joint_step(ds, lam1, lam2, reweights(x, dims, 1e-8), x)
            after = objective(ds, x_new, lam1, lam2)
            assert after <= before + 1e-9 * max(1.0, before)


def test_inexact_steps_at_paper_shape():
    """At 45 + 297 features, where 5 CG steps are far from an exact solve:
    every step from the current weights lowers loss + penalty, whether it
    runs all _CG_STEPS steps (tol 0) or ends early at the default tol, and
    an exact solve of the surrogate is a fixed point of the step.  Some
    blocks start at zero, so their diagonals sit at 0.5 / epsilon."""
    layout = PAPER_LAYOUT
    dims = layout.joint_dims + layout.object_block_dims
    rng = np.random.default_rng(149)
    for k, n in enumerate((150, 300, 600)):
        ds = build_dataset(layout, n=n, n_classes=6, seed=600 + k)
        blocks = ds.normal_equations
        for lam, tol in ((1e-3, 0.0), (0.1, 0.0), (10.0, 0.0), (300.0, SolverConfig().tol)):
            step = _irls_step(blocks, layout, lam, lam, tol)
            x = 0.5 * rng.standard_normal((342, 6))
            x[:9] = 0.0
            x[45:93] = 0.0
            x = np.ascontiguousarray(x.T)  # class-major, as fit holds it
            for _ in range(10):
                d = _reweights(_group_norms(x, dims, axis=-1), dims, 1e-8)
                before = objective(ds, x.T, lam, lam)
                x = step(x, x @ blocks.gram, d)[0]
                after = objective(ds, x.T, lam, lam)
                assert after <= before + 1e-12 * max(1.0, before)
            exact = np.vstack(
                [
                    np.linalg.solve(blocks.gram + lam * np.diag(d[c]), blocks.xy[:, c])
                    for c in range(6)
                ]
            )
            again = step(exact, exact @ blocks.gram, d)[0]
            assert np.linalg.norm(again - exact) <= 1e-12 * np.linalg.norm(exact)
        # a class with no instances has nothing to solve: from zero it stays
        # exactly zero, without a 0/0
        labels = np.column_stack([ds.labels, np.zeros(n)])
        empty = Dataset(layout=layout, features=ds.features, labels=labels)
        assert not joint_step(empty, 0.1, 0.1, np.ones((342, 7)))[:, 6].any()


def test_step_is_invariant_under_scaling_the_problem():
    """(2G, 2XY, 2 lambda) is the same problem as (G, XY, lambda) with the
    loss doubled.  Doubling is exact in floating point, and the early exit
    compares r'M^-1 r with its own starting value, so from the same x the
    step returns the same x after the same number of CG steps, and the
    x G it carries comes back exactly doubled."""
    layout = PAPER_LAYOUT
    dims = layout.joint_dims + layout.object_block_dims
    ds = build_dataset(layout, n=500, n_classes=6, seed=709)
    blocks = ds.normal_equations
    doubled = blocks._replace(gram=2.0 * blocks.gram, xy=2.0 * blocks.xy, yy=2.0 * blocks.yy)
    x = 0.01 * np.random.default_rng(151).standard_normal(blocks.xy.shape)
    x = np.ascontiguousarray(x.T)  # class-major, as fit holds it
    steps_seen = set()
    for lam in (0.5, 300.0, 1000.0):
        d = _reweights(_group_norms(x, dims, axis=-1), dims, 1e-8)
        for tol in (SolverConfig().tol, 1e-3):
            once, gram_once, steps = _irls_step(blocks, layout, lam, lam, tol)(
                x, x @ blocks.gram, d
            )
            twice, gram_twice, steps_twice = _irls_step(doubled, layout, 2 * lam, 2 * lam, tol)(
                x, x @ doubled.gram, d
            )
            assert np.array_equal(once, twice)
            assert np.array_equal(2.0 * gram_once, gram_twice)
            assert steps == steps_twice
            steps_seen.add(steps)
    assert min(steps_seen) < _CG_STEPS


def zero_row_dataset(layout, n, seed, row):
    """build_dataset with feature row set to 0 in every instance."""
    ds = build_dataset(layout, n=n, n_classes=3, seed=seed)
    features = ds.features.copy()
    features[row] = 0.0
    return Dataset(layout=layout, features=features, labels=ds.labels)


def test_fit_holds_the_weights_of_an_all_zero_feature_at_zero():
    """A feature that is 0 in every instance gives G a zero row, column and
    diagonal entry.  Its weight is 0 at every optimum, so fit holds it at
    exactly 0 in every variant: the unpenalised side's check leaves the row
    out instead of failing, its preconditioner entry is 0, not 1 / 0, and
    the exact path solves on the other rows.  With both weights zero the
    fit is the minimum-norm least-squares solution."""
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))
    for row in (1, layout.d_t + 2):
        ds = zero_row_dataset(layout, n=60, seed=721, row=row)
        for lam1, lam2 in ((0.3, 0.25), (0.3, 0.0), (0.0, 0.25), (0.0, 0.0)):
            model, report = fit(ds, SolverConfig(lambda1=lam1, lambda2=lam2))
            assert report.converged
            assert np.all(np.isfinite(model.weights))
            assert not model.weights[row].any()
            assert model.weights[np.arange(layout.d_t + layout.d_o) != row].all()
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
        oracle, *_ = np.linalg.lstsq(ds.features.T, ds.labels, rcond=None)
        assert np.allclose(model.weights, oracle, atol=1e-9)
    # a side that is rank deficient on its other rows still fails
    thin = FeatureLayout(joint_dims=(4, 3), object_count=1, modality_dims=(1,))
    ds = zero_row_dataset(thin, n=3, seed=29, row=0)
    with pytest.raises(SingularityError, match="skeleton-weight system"):
        fit(ds, SolverConfig(lambda1=0.0, lambda2=0.1))


def test_a_feature_whose_squares_underflow_counts_as_zero():
    """A feature is zero when its Gram diagonal entry is 0 in float64, so one
    scaled below about 1.5e-162 counts although its row of G is not all
    zero: its weight is held at 0 in every variant, and lambda1 = 0 raises
    no SingularityError."""
    layout = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))
    ds = build_dataset(layout, n=60, n_classes=3, seed=721)
    features = ds.features.copy()
    features[1] *= 1e-170
    ds = Dataset(layout=layout, features=features, labels=ds.labels)
    blocks = ds.normal_equations
    assert blocks.gram[1, 1] == 0.0 and blocks.gram[1].any() and blocks.xy[1].any()
    for lam1, lam2 in ((0.3, 0.25), (0.3, 0.0), (0.0, 0.25), (0.0, 0.0), (0.1, 0.1)):
        model, _ = fit(ds, SolverConfig(lambda1=lam1, lambda2=lam2))
        assert np.all(np.isfinite(model.weights))
        assert not model.weights[1].any()


# --- the scalar inequality behind the reweighting scheme ----------------------


def test_inequality_equality_case():
    assert check_reweighting_inequality(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_inequality_zero_candidate():
    assert check_reweighting_inequality(np.array([2.0, 0.0]), np.array([0.0, 0.0]))


def test_inequality_rejects_zero_reference():
    with pytest.raises(ValidationError):
        check_reweighting_inequality(np.zeros(3), np.ones(3))


def test_inequality_rejects_non_numeric_and_ragged_vectors():
    with pytest.raises(ValidationError, match="reference vector must hold real numbers"):
        check_reweighting_inequality(["1", "2"], ["0.5", "0"])
    with pytest.raises(ValidationError, match="candidate vector must hold real numbers"):
        check_reweighting_inequality([1.0, 2.0], [True, False])
    with pytest.raises(ValidationError, match="candidate vector must be a rectangular array"):
        check_reweighting_inequality([1.0, 2.0], [[1.0, 2.0], [3.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="^reference vector contains non-finite values$"):
            check_reweighting_inequality([bad, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError, match="^candidate vector contains non-finite values$"):
            check_reweighting_inequality([1.0, 0.0], [1.0, bad])
    # integers are numbers
    assert check_reweighting_inequality([2, 0], [1, 0])


def test_inequality_holds_on_random_pairs():
    rng = np.random.default_rng(139)
    for _ in range(2000):
        dim = int(rng.integers(1, 20))
        v = rng.standard_normal(dim)
        while np.linalg.norm(v) < 1e-6:
            v = rng.standard_normal(dim)
        v_tilde = rng.standard_normal(dim) * float(rng.uniform(0, 3))
        assert check_reweighting_inequality(v, v_tilde)


# --- stationarity residual -----------------------------------------------------


def square_interpolating_fixture(seed=211):
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(3,))
    rng = np.random.default_rng(seed)
    n = 6
    skeleton = rng.standard_normal((3, n))
    objects = rng.standard_normal((3, n))
    labels = np.zeros((n, 2))
    labels[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
    ds = Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)
    stacked = np.vstack([skeleton, objects])
    coef = np.linalg.solve(stacked.T, labels)
    return ds, coef[:3], coef[3:]


def test_residual_is_zero_at_exact_unpenalized_solution():
    ds, w, u = square_interpolating_fixture()
    from poseact import Model

    model = Model(
        layout=ds.layout,
        weights=np.vstack((w, u)),
        class_names=ds.class_names,
        hyperparams=SolverConfig(),
    )
    assert stationarity_residual(ds, model, 0.0, 0.0, 1e-8) < 1e-8


def test_residual_is_small_after_tightly_converged_fit():
    layout = FeatureLayout(joint_dims=(2, 2, 2, 2), object_count=2, modality_dims=(2, 2))
    spec = SynthSpec(
        layout=layout,
        n_classes=3,
        n_instances=200,
        noise_sigma=0.1,
        planted_joints=((0,), (1,), (2,)),
        planted_blocks=(((0, 0),), ((0, 1),), ((1, 0),)),
        seed=1,
    )
    ds = generate(spec).dataset
    model, report = fit(ds, SolverConfig(tol=1e-10, max_iters=500, seed=1))
    assert report.converged
    assert stationarity_residual(ds, model, 0.1, 0.1, 1e-8) < 1e-4


def test_residual_matches_per_class_loop_oracle(small_dataset):
    # the residual read from the normal equations, against one pass over the
    # data per class with per-block diagonals
    rng = np.random.default_rng(163)
    layout = small_dataset.layout
    t, o, y = small_dataset.skeleton, small_dataset.objects, small_dataset.labels
    for lam1, lam2 in ((0.0, 0.0), (0.3, 0.7)):
        w = rng.standard_normal((layout.d_t, 3))
        u = rng.standard_normal((layout.d_o, 3))
        w[layout.joint_slices[1], 0] = 0.0  # a block on the epsilon floor
        model = Model(
            layout=layout, weights=np.vstack((w, u)), class_names=small_dataset.class_names,
            hyperparams=SolverConfig(),
        )
        worst = 0.0
        for c in range(3):
            dw, du = np.empty(layout.d_t), np.empty(layout.d_o)
            for sl in layout.joint_slices:
                dw[sl] = 0.5 / max(np.linalg.norm(w[sl, c]), 1e-8)
            for sl in layout.object_block_slices:
                du[sl] = 0.5 / max(np.linalg.norm(u[sl, c]), 1e-8)
            misfit = t.T @ w[:, c] + o.T @ u[:, c] - y[:, c]
            res_w = t @ misfit + lam1 * dw * w[:, c]
            res_u = o @ misfit + lam2 * du * u[:, c]
            worst = max(
                worst,
                np.linalg.norm(res_w) / (1.0 + np.linalg.norm(w[:, c])),
                np.linalg.norm(res_u) / (1.0 + np.linalg.norm(u[:, c])),
            )
        got = stationarity_residual(small_dataset, model, lam1, lam2, 1e-8)
        assert got == pytest.approx(worst, rel=1e-12)


def test_residual_normalizes_each_side_by_its_own_weights(small_dataset):
    """Skeleton rows of the residual are scaled by 1 / (1 + ||w_c||) and
    object rows by 1 / (1 + ||u_c||), not the stacked residual by
    1 / (1 + ||[w_c; u_c]||); test_04's bound is read this way."""
    rng = np.random.default_rng(167)
    layout = small_dataset.layout
    t, o, y = small_dataset.skeleton, small_dataset.objects, small_dataset.labels
    lam1, lam2, eps = 0.3, 0.7, 1e-8

    def side_residual(data, mat, lam, slices, misfit):
        diag = np.empty_like(mat)
        for sl in slices:
            diag[sl] = 0.5 / np.maximum(np.linalg.norm(mat[sl], axis=0), eps)
        return data @ misfit + lam * diag * mat

    for scale_w, scale_u in ((1.0, 1.0), (100.0, 0.01), (0.01, 100.0)):
        w = scale_w * rng.standard_normal((layout.d_t, 3))
        u = scale_u * rng.standard_normal((layout.d_o, 3))
        misfit = t.T @ w + o.T @ u - y
        res_w = side_residual(t, w, lam1, layout.joint_slices, misfit)
        res_u = side_residual(o, u, lam2, layout.object_block_slices, misfit)
        per_side = max(
            np.max(np.linalg.norm(res_w, axis=0) / (1.0 + np.linalg.norm(w, axis=0))),
            np.max(np.linalg.norm(res_u, axis=0) / (1.0 + np.linalg.norm(u, axis=0))),
        )
        model = Model(
            layout=layout, weights=np.vstack((w, u)), class_names=small_dataset.class_names,
            hyperparams=SolverConfig(),
        )
        got = stationarity_residual(small_dataset, model, lam1, lam2, eps)
        assert got == pytest.approx(per_side, rel=1e-10)
        if scale_w != scale_u:
            stacked = np.max(
                np.linalg.norm(np.vstack([res_w, res_u]), axis=0)
                / (1.0 + np.linalg.norm(np.vstack([w, u]), axis=0))
            )
            assert abs(got - stacked) > 0.1 * got


def test_residual_rejects_a_model_of_another_layout():
    """The layouts are compared before the weights are read: a model whose
    d_t differs, or whose d_t and d_o match under another block split, gets
    the layout message."""
    data = build_dataset(FeatureLayout((2,), 1, (1,)), n=10, n_classes=2, seed=173)
    for layout in (FeatureLayout((1,), 1, (2,)), FeatureLayout((1, 1), 1, (1,))):
        model = Model(
            layout=layout, weights=np.zeros((3, 2)), class_names=data.class_names,
            hyperparams=SolverConfig(),
        )
        with pytest.raises(LayoutError, match="^dataset layout does not match model layout$"):
            stationarity_residual(data, model, 0.1, 0.1, 1e-8)


def test_residual_rejects_a_model_of_other_classes(small_dataset):
    """Class columns are matched by name, not position: a model whose classes
    come in another order gets predict_batch's message."""
    model, _ = fit(small_dataset, SolverConfig(lambda1=0.1, lambda2=0.1, max_iters=5))
    reordered = Model(
        layout=model.layout,
        weights=model.weights,
        class_names=tuple(reversed(model.class_names)),
        hyperparams=model.hyperparams,
    )
    message = (
        f"dataset classes {small_dataset.class_names} do not match "
        f"model classes {reordered.class_names}"
    )
    with pytest.raises(ValidationError) as batch_error:
        predict_batch(reordered, small_dataset)
    with pytest.raises(ValidationError) as residual_error:
        stationarity_residual(small_dataset, reordered, 0.1, 0.1, 1e-8)
    assert str(batch_error.value) == str(residual_error.value) == message
    assert stationarity_residual(small_dataset, model, 0.1, 0.1, 1e-8) >= 0.0


def test_residual_positive_for_unfitted_weights(small_dataset):
    from poseact import Model

    rng = np.random.default_rng(149)
    model = Model(
        layout=small_dataset.layout,
        weights=np.vstack(
            (
                rng.standard_normal((small_dataset.layout.d_t, 3)),
                rng.standard_normal((small_dataset.layout.d_o, 3)),
            )
        ),
        class_names=small_dataset.class_names,
        hyperparams=SolverConfig(),
    )
    assert stationarity_residual(small_dataset, model, 0.1, 0.1, 1e-8) > 1e-3


# --- smoothed objective / gradients ---------------------------------------------


def test_smoothed_objective_approaches_true_objective(small_dataset):
    rng = np.random.default_rng(151)
    layout = small_dataset.layout
    x = np.vstack((rng.standard_normal((layout.d_t, 3)), rng.standard_normal((layout.d_o, 3))))
    exact = objective(small_dataset, x, 0.1, 0.2)
    smooth = smoothed_objective(small_dataset, x, 0.1, 0.2, 1e-9)
    assert smooth == pytest.approx(exact, rel=1e-9)
    # smoothing only ever adds to each block norm
    assert smoothed_objective(small_dataset, x, 0.1, 0.2, 1e-2) >= exact


def test_smoothed_gradients_match_central_differences(small_dataset):
    rng = np.random.default_rng(157)
    layout = small_dataset.layout
    h = 1e-5
    for _ in range(20):
        x = np.vstack((rng.standard_normal((layout.d_t, 3)), rng.standard_normal((layout.d_o, 3))))
        grad = smoothed_gradients(small_dataset, x, 0.1, 0.2, 1e-3)
        assert grad.shape == x.shape
        # one entry of the skeleton rows, then one of the object rows
        for first, rows in ((0, layout.d_t), (layout.d_t, layout.d_o)):
            i = first + int(rng.integers(rows))
            c = int(rng.integers(3))
            orig = x[i, c]
            x[i, c] = orig + h
            up = smoothed_objective(small_dataset, x, 0.1, 0.2, 1e-3)
            x[i, c] = orig - h
            down = smoothed_objective(small_dataset, x, 0.1, 0.2, 1e-3)
            x[i, c] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - grad[i, c]) <= 1e-5 * max(1.0, abs(fd))
