"""Reweighting diagonals, the all-classes joint step, the reweighted fit
loop, and the first-order diagnostics around it."""

from __future__ import annotations

import numpy as np
import pytest

from poseact import (
    ConfigError,
    Dataset,
    FeatureLayout,
    Model,
    SingularityError,
    SolverConfig,
    SynthSpec,
    ValidationError,
    check_reweighting_inequality,
    fit,
    generate,
    loss,
    objective,
    smoothed_gradients,
    smoothed_objective,
    split,
    standardize,
    stationarity_residual,
)
from poseact.solver import _irls_step, _reweights

from conftest import build_dataset


def joint_step(ds, lam1, lam2, d, start=None):
    """fit's step on the stacked weights [W; U] with diagonals d (d x C), from
    start (zero by default); with both weights zero it is the exact solve."""
    blocks = ds.normal_equations
    step = _irls_step(blocks, ds.layout, lam1, lam2)
    return step(np.zeros_like(blocks.xy) if start is None else start, d)


def stacked_objective(ds, x, lam1, lam2):
    d_t = ds.layout.d_t
    return objective(ds, x[:d_t], x[d_t:], lam1, lam2)


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
    diag = _reweights(w_c, layout.joint_dims, 1e-8)
    assert np.allclose(diag, [1 / 10, 1 / 10, 1 / 26, 1 / 26], rtol=1e-12)


def test_skeletal_reweights_zero_block_hits_floor():
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(1,))
    w_c = np.array([0.0, 0.0, 3.0, 4.0])
    diag = _reweights(w_c, layout.joint_dims, 1e-8)
    assert np.allclose(diag[:2], 1.0 / 2e-8)
    assert np.allclose(diag[2:], 1.0 / 10.0)


def test_attribute_reweights_hand_example():
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(3,))
    diag = _reweights(np.array([0.0, 3.0, 4.0]), layout.object_block_dims, 1e-8)
    assert np.allclose(diag, 1.0 / 10.0)
    all_zero = _reweights(np.zeros(3), layout.object_block_dims, 1e-8)
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
        dw = _reweights(w_c, layout.joint_dims, 1e-8)
        du = _reweights(u_c, layout.object_block_dims, 1e-8)
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
            at_once = _reweights(mat, dims, 1e-8)
            for c in range(3):
                assert np.array_equal(at_once[:, c], _reweights(mat[:, c], dims, 1e-8))


# --- the joint step ------------------------------------------------------------


def test_update_skeleton_identity_design_returns_labels():
    # T is the 4x4 identity and O is zero, so the system is diagonal: with no
    # skeletal penalty W must equal Y, and the penalised zero-feature U stays 0
    layout = FeatureLayout(joint_dims=(2, 2), object_count=1, modality_dims=(2,))
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, skeleton=np.eye(4), objects=np.zeros((2, 4)), labels=labels)
    x = joint_step(ds, 0.0, 1.0, np.ones((6, 2)))
    assert np.allclose(x[:4], labels, atol=1e-12)
    assert not x[4:].any()


def test_update_object_identity_design_returns_labels():
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(1, 2))
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    ds = Dataset(layout=layout, skeleton=np.zeros((2, 3)), objects=np.eye(3), labels=labels)
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
    # the stacked system couples W and U through T O'; with d = 5 unknowns
    # per class the 5 CG steps solve it, so check against a dense solve
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(2,))
    ds = build_dataset(layout, n=25, n_classes=2, seed=300)
    rng = np.random.default_rng(301)
    d = _reweights(rng.standard_normal((5, 2)), layout.joint_dims + layout.object_block_dims, 1e-8)
    x = joint_step(ds, 0.7, 0.4, d)
    stacked = np.vstack([ds.skeleton, ds.objects])
    lam = np.array([0.7, 0.7, 0.7, 0.4, 0.4])
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
    ds_a = Dataset(layout=layout_a, skeleton=skeleton, objects=objects, labels=labels)
    ds_b = Dataset(layout=layout_b, skeleton=objects, objects=skeleton, labels=labels)
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
        skeleton=rng.standard_normal((5, 3)),
        objects=rng.standard_normal((1, 3)),
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
    unlabeled = Dataset(layout=small_layout, skeleton=ds.skeleton, objects=ds.objects)
    with pytest.raises(ValidationError, match="labeled"):
        unlabeled.normal_equations


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
    d_t, (t, o, y) = small_layout.d_t, (ds.skeleton, ds.objects, ds.labels)
    assert blocks._fields == ("gram", "xy", "yy")
    # the diagonal blocks are the plain products, bit for bit
    assert np.array_equal(blocks.gram[:d_t, :d_t], t @ t.T)
    assert np.array_equal(blocks.gram[d_t:, d_t:], o @ o.T)
    assert np.array_equal(blocks.gram, blocks.gram.T)
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
        d_t, (t, o, y) = small_layout.d_t, (derived.skeleton, derived.objects, derived.labels)
        assert np.array_equal(blocks.gram[:d_t, :d_t], t @ t.T)
        assert np.array_equal(blocks.gram[d_t:, d_t:], o @ o.T)
        assert np.array_equal(blocks.gram, blocks.gram.T)
        assert np.array_equal(blocks.xy[:d_t], t @ y)


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
    return Dataset(layout=layout, skeleton=skeleton, objects=objects, labels=labels)


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
    # the trace and the public functions share one loss computation
    assert report.objective_trace[-1] == objective(ds, model.w, model.u, 0.3, 0.2)
    assert report.loss_trace[-1] == loss(ds, model.w, model.u)


def square_system(seed):
    """d_t + d_o = N = 6 with a nonsingular stacked design, so the unpenalized
    minimum is exact interpolation; returns the dataset and its lstsq weights."""
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(3,))
    rng = np.random.default_rng(seed)
    n = 6
    skeleton = rng.standard_normal((3, n))
    objects = rng.standard_normal((3, n))
    stacked = np.vstack([skeleton, objects])
    assert np.linalg.matrix_rank(stacked) == n
    labels = np.zeros((n, 2))
    labels[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
    ds = Dataset(layout=layout, skeleton=skeleton, objects=objects, labels=labels)
    coef, *_ = np.linalg.lstsq(stacked.T, labels, rcond=None)
    return ds, coef[:3], coef[3:]


def test_fit_unpenalized_square_system_reaches_least_squares_loss():
    # the alternation must approach the exact interpolant
    ds, w_ls, u_ls = square_system(131)
    model, report = fit(
        ds, SolverConfig(lambda1=0.0, lambda2=0.0, tol=1e-15, max_iters=20000)
    )
    stacked = np.vstack([ds.skeleton, ds.objects])
    oracle = float(np.sum((stacked.T @ np.vstack([w_ls, u_ls]) - ds.labels) ** 2))
    assert loss(ds, model.w, model.u) <= oracle + 1e-6


def test_loss_near_zero_is_never_negative():
    # the loss expanded over the normal equations rounds with an absolute
    # error of about eps * ||Y||^2, so near an interpolant it must be clamped
    ds, w_ls, u_ls = square_system(131)
    y_sq = float(np.sum(ds.labels * ds.labels))
    _, report = fit(ds, SolverConfig(lambda1=0.0, lambda2=0.0, tol=1e-15, max_iters=20000))
    assert min(report.loss_trace) >= 0.0
    assert report.loss_trace[-1] <= 1e-12 * y_sq
    # at these interpolants the unclamped expansion comes out below zero
    for seed in (131, 1, 2, 4, 6, 8, 9):
        ds, w_ls, u_ls = square_system(seed)
        assert 0.0 <= loss(ds, w_ls, u_ls) <= 1e-12 * float(np.sum(ds.labels * ds.labels))


def test_fit_and_diagnostics_never_touch_the_data_after_the_gram_build():
    layout = FeatureLayout(joint_dims=(2, 3), object_count=2, modality_dims=(1, 2))
    intact = build_dataset(layout, n=50, n_classes=3, seed=331)
    stripped = build_dataset(layout, n=50, n_classes=3, seed=331)
    stripped.normal_equations
    object.__setattr__(stripped, "skeleton", None)
    object.__setattr__(stripped, "objects", None)
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
    w, u = model_a.w, model_a.u
    assert loss(intact, w, u) == loss(stripped, w, u)
    assert smoothed_objective(intact, w, u, 0.2, 0.3, 1e-3) == smoothed_objective(
        stripped, w, u, 0.2, 0.3, 1e-3
    )
    for a, b in zip(
        smoothed_gradients(intact, w, u, 0.2, 0.3, 1e-3),
        smoothed_gradients(stripped, w, u, 0.2, 0.3, 1e-3),
    ):
        assert np.array_equal(a, b)


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
        skeleton=rng.standard_normal((small_layout.d_t, 5)),
        objects=rng.standard_normal((small_layout.d_o, 5)),
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
            before = stacked_objective(ds, x, lam1, lam2)
            x_new = joint_step(ds, lam1, lam2, _reweights(x, dims, 1e-8), x)
            after = stacked_objective(ds, x_new, lam1, lam2)
            assert after <= before + 1e-9 * max(1.0, before)


def test_inexact_steps_at_paper_shape():
    """At 45 + 297 features, where 5 CG steps are far from an exact solve:
    every step from the current weights lowers loss + penalty, and an exact
    solve of the surrogate is a fixed point of the step.  Some blocks start
    at zero, so their diagonals sit at 0.5 / epsilon."""
    layout = FeatureLayout(joint_dims=(3,) * 15, object_count=3, modality_dims=(48, 36, 15))
    dims = layout.joint_dims + layout.object_block_dims
    rng = np.random.default_rng(149)
    for k, n in enumerate((150, 300, 600)):
        ds = build_dataset(layout, n=n, n_classes=6, seed=600 + k)
        blocks = ds.normal_equations
        for lam in (1e-3, 0.1, 10.0):
            step = _irls_step(blocks, layout, lam, lam)
            x = 0.5 * rng.standard_normal((342, 6))
            x[:9] = 0.0
            x[45:93] = 0.0
            for _ in range(10):
                d = _reweights(x, dims, 1e-8)
                before = stacked_objective(ds, x, lam, lam)
                x = step(x, d)
                after = stacked_objective(ds, x, lam, lam)
                assert after <= before + 1e-12 * max(1.0, before)
            exact = np.column_stack(
                [
                    np.linalg.solve(blocks.gram + lam * np.diag(d[:, c]), blocks.xy[:, c])
                    for c in range(6)
                ]
            )
            again = step(exact, d)
            assert np.linalg.norm(again - exact) <= 1e-12 * np.linalg.norm(exact)
        # a class with no instances has nothing to solve: from zero it stays
        # exactly zero, without a 0/0
        labels = np.column_stack([ds.labels, np.zeros(n)])
        empty = Dataset(layout=layout, skeleton=ds.skeleton, objects=ds.objects, labels=labels)
        assert not joint_step(empty, 0.1, 0.1, np.ones((342, 7)))[:, 6].any()


# --- the scalar inequality behind the reweighting scheme ----------------------


def test_inequality_equality_case():
    assert check_reweighting_inequality(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_inequality_zero_candidate():
    assert check_reweighting_inequality(np.array([2.0, 0.0]), np.array([0.0, 0.0]))


def test_inequality_rejects_zero_reference():
    with pytest.raises(ValidationError):
        check_reweighting_inequality(np.zeros(3), np.ones(3))


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
    ds = Dataset(layout=layout, skeleton=skeleton, objects=objects, labels=labels)
    stacked = np.vstack([skeleton, objects])
    coef = np.linalg.solve(stacked.T, labels)
    return ds, coef[:3], coef[3:]


def test_residual_is_zero_at_exact_unpenalized_solution():
    ds, w, u = square_interpolating_fixture()
    from poseact import Model

    model = Model(
        layout=ds.layout, w=w, u=u, class_names=ds.class_names, hyperparams=SolverConfig()
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
            layout=layout, w=w, u=u, class_names=small_dataset.class_names,
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
            layout=layout, w=w, u=u, class_names=small_dataset.class_names,
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


def test_residual_positive_for_unfitted_weights(small_dataset):
    from poseact import Model

    rng = np.random.default_rng(149)
    model = Model(
        layout=small_dataset.layout,
        w=rng.standard_normal((small_dataset.layout.d_t, 3)),
        u=rng.standard_normal((small_dataset.layout.d_o, 3)),
        class_names=small_dataset.class_names,
        hyperparams=SolverConfig(),
    )
    assert stationarity_residual(small_dataset, model, 0.1, 0.1, 1e-8) > 1e-3


# --- smoothed objective / gradients ---------------------------------------------


def test_smoothed_objective_approaches_true_objective(small_dataset):
    rng = np.random.default_rng(151)
    layout = small_dataset.layout
    w = rng.standard_normal((layout.d_t, 3))
    u = rng.standard_normal((layout.d_o, 3))
    exact = objective(small_dataset, w, u, 0.1, 0.2)
    smooth = smoothed_objective(small_dataset, w, u, 0.1, 0.2, 1e-9)
    assert smooth == pytest.approx(exact, rel=1e-9)
    # smoothing only ever adds to each block norm
    assert smoothed_objective(small_dataset, w, u, 0.1, 0.2, 1e-2) >= exact


def test_smoothed_gradients_match_central_differences(small_dataset):
    rng = np.random.default_rng(157)
    layout = small_dataset.layout
    h = 1e-5
    for _ in range(20):
        w = rng.standard_normal((layout.d_t, 3))
        u = rng.standard_normal((layout.d_o, 3))
        gw, gu = smoothed_gradients(small_dataset, w, u, 0.1, 0.2, 1e-3)
        for arr, grad in ((w, gw), (u, gu)):
            i = int(rng.integers(arr.shape[0]))
            c = int(rng.integers(3))
            orig = arr[i, c]
            arr[i, c] = orig + h
            up = smoothed_objective(small_dataset, w, u, 0.1, 0.2, 1e-3)
            arr[i, c] = orig - h
            down = smoothed_objective(small_dataset, w, u, 0.1, 0.2, 1e-3)
            arr[i, c] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - grad[i, c]) <= 1e-5 * max(1.0, abs(fd))
