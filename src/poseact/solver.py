"""Alternating reweighted least-squares solver for the group-sparse model.

Each iteration rebuilds per-class diagonal reweighting vectors from the
current weights, then refreshes every class column of W with U held at its
previous value, then every column of U against the just-updated W.  Both
refreshes are closed-form symmetric positive definite solves, so the
objective never moves uphill; a floor on block norms keeps the diagonals
finite when a block collapses toward zero, at the price of optimizing a
smoothed objective whose minimizers approach the exact ones as the floor
shrinks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    SEED_RANGE,
    Dataset,
    FeatureLayout,
    Model,
    _block_norm_sum,
    _check_weight_matrix,
    _residual,
    check_int,
    check_number,
)
from .errors import LayoutError, SingularityError, ValidationError

__all__ = [
    "SolverConfig",
    "FitReport",
    "skeletal_reweights",
    "attribute_reweights",
    "update_skeleton_weights",
    "update_object_weights",
    "fit",
    "check_reweighting_inequality",
    "stationarity_residual",
    "smoothed_objective",
    "smoothed_gradients",
]

# absolute slack allowed when checking the surrogate-decrease inequality
_INEQUALITY_SLACK = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for fit.

    lambda1 weighs the skeletal norm, lambda2 the attribute norm.  The solver
    stops once the relative objective decrease falls below tol or after
    max_iters iterations.  epsilon floors block norms inside the reweighting
    diagonals; seed drives the random initialization.
    """

    lambda1: float = 0.1
    lambda2: float = 0.1
    tol: float = 1e-6
    max_iters: int = 100
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lambda1", check_number(self.lambda1, "lambda1"))
        object.__setattr__(self, "lambda2", check_number(self.lambda2, "lambda2"))
        object.__setattr__(self, "tol", check_number(self.tol, "tol", strict=True))
        object.__setattr__(self, "epsilon", check_number(self.epsilon, "epsilon", strict=True))
        object.__setattr__(self, "max_iters", check_int(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", *SEED_RANGE))


@dataclass(frozen=True)
class FitReport:
    """What happened during one fit call."""

    objective_trace: tuple[float, ...]
    loss_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    wall_time: float


def _check_column(vec, length, what):
    arr = np.asarray(vec, dtype=np.float64)
    if arr.shape != (length,):
        raise LayoutError(f"{what} has shape {arr.shape}, expected ({length},)")
    return arr


def _reweight_into(diag, vec, slices, epsilon):
    for sl in slices:
        diag[sl] = 0.5 / max(float(np.linalg.norm(vec[sl])), epsilon)
    return diag


def skeletal_reweights(w_c, layout: FeatureLayout, epsilon: float) -> np.ndarray:
    """Diagonal of the skeleton reweighting matrix for one class column.

    Every coordinate of joint block j gets 1 / (2 * max(||w_c block j||, epsilon)),
    so shrinking blocks are penalized ever harder on the next solve.
    """
    epsilon = check_number(epsilon, "epsilon", strict=True)
    w = _check_column(w_c, layout.d_t, "weight column")
    return _reweight_into(np.empty(layout.d_t), w, layout.joint_slices, epsilon)


def attribute_reweights(u_c, layout: FeatureLayout, epsilon: float) -> np.ndarray:
    """Object-side analog of skeletal_reweights, one value per (object, modality) block."""
    epsilon = check_number(epsilon, "epsilon", strict=True)
    u = _check_column(u_c, layout.d_o, "weight column")
    return _reweight_into(np.empty(layout.d_o), u, layout.object_block_slices, epsilon)


def _solve_spd(system, rhs, describe):
    """Cholesky solve; the system matrix is consumed in place."""
    try:
        factor = scipy.linalg.cho_factor(system, lower=False, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"{describe} is not positive definite (Cholesky failed: {exc}); "
            "with a zero penalty weight this means the Gram matrix is rank deficient"
        ) from exc
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _penalized_gram_solve(gram, diag_scale, diag, rhs, describe):
    system = gram.copy()
    if diag_scale != 0.0:
        system[np.diag_indices_from(system)] += diag_scale * diag
    return _solve_spd(system, rhs, describe)


def update_skeleton_weights(dataset: Dataset, u_c, y_c, reweights, lambda1: float) -> np.ndarray:
    """Closed-form refresh of one class column of W with the object side fixed.

    Solves (T T' + lambda1 diag(reweights)) w = T (y - O' u) where T and O are
    the dataset's skeleton and object matrices.
    """
    lambda1 = check_number(lambda1, "lambda1")
    t_mat = dataset.skeleton
    u = _check_column(u_c, dataset.layout.d_o, "object weight column")
    y = _check_column(y_c, dataset.n_instances, "label column")
    d = _check_column(reweights, dataset.layout.d_t, "reweighting diagonal")
    rhs = t_mat @ (y - dataset.objects.T @ u)
    return _penalized_gram_solve(
        t_mat @ t_mat.T, lambda1, d, rhs, "skeleton-weight system (T T' + lambda1 D)"
    )


def update_object_weights(dataset: Dataset, w_c, y_c, reweights, lambda2: float) -> np.ndarray:
    """Closed-form refresh of one class column of U with the skeleton side fixed.

    Solves (O O' + lambda2 diag(reweights)) u = O (y - T' w).
    """
    lambda2 = check_number(lambda2, "lambda2")
    o_mat = dataset.objects
    w = _check_column(w_c, dataset.layout.d_t, "skeleton weight column")
    y = _check_column(y_c, dataset.n_instances, "label column")
    d = _check_column(reweights, dataset.layout.d_o, "reweighting diagonal")
    rhs = o_mat @ (y - dataset.skeleton.T @ w)
    return _penalized_gram_solve(
        o_mat @ o_mat.T, lambda2, d, rhs, "object-weight system (O O' + lambda2 D)"
    )


def _gram_blocks(dataset: Dataset):
    """TT', OO', TO', TY and OY: everything the normal equations need from the data."""
    t_mat, o_mat, y_mat = dataset.skeleton, dataset.objects, dataset.labels
    return t_mat @ t_mat.T, o_mat @ o_mat.T, t_mat @ o_mat.T, t_mat @ y_mat, o_mat @ y_mat


def fit(dataset: Dataset, config: SolverConfig) -> tuple[Model, FitReport]:
    """Run the alternating solver until the objective stalls or max_iters.

    Weights start at 0.01 times seeded standard-normal draws (W first, then
    U).  Hitting max_iters without stalling is reported, not raised.  Given
    the same dataset and config the result is bit-for-bit reproducible.
    """
    if dataset.labels is None:
        raise ValidationError("fit needs a labeled dataset")
    layout = dataset.layout
    lam1, lam2 = config.lambda1, config.lambda2
    eps = config.epsilon
    n_classes = dataset.labels.shape[1]
    jt_slices = layout.joint_slices
    ob_slices = layout.object_block_slices

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    w_cur = 0.01 * rng.standard_normal((layout.d_t, n_classes))
    u_cur = 0.01 * rng.standard_normal((layout.d_o, n_classes))

    gram_t, gram_o, cross, ty, oy = _gram_blocks(dataset)
    cross_t = np.ascontiguousarray(cross.T)

    def current_loss(w, u):
        r = _residual(dataset, w, u)
        return float(np.sum(r * r))

    def current_objective(w, u, loss_val):
        return loss_val + lam1 * _block_norm_sum(w, jt_slices) + lam2 * _block_norm_sum(u, ob_slices)

    prev_obj = current_objective(w_cur, u_cur, current_loss(w_cur, u_cur))
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    converged = False
    w_next = np.empty_like(w_cur)

    for _ in range(config.max_iters):
        # both reweighting diagonals come from the pre-update iterate
        sk_diags = [
            _reweight_into(np.empty(layout.d_t), w_cur[:, c], jt_slices, eps)
            for c in range(n_classes)
        ]
        at_diags = [
            _reweight_into(np.empty(layout.d_o), u_cur[:, c], ob_slices, eps)
            for c in range(n_classes)
        ]
        for c in range(n_classes):
            rhs = ty[:, c] - cross @ u_cur[:, c]
            w_next[:, c] = _penalized_gram_solve(
                gram_t, lam1, sk_diags[c], rhs,
                f"skeleton-weight system (T T' + lambda1 D) for class {c}",
            )
        w_cur, w_next = w_next, w_cur
        for c in range(n_classes):
            rhs = oy[:, c] - cross_t @ w_cur[:, c]
            u_cur[:, c] = _penalized_gram_solve(
                gram_o, lam2, at_diags[c], rhs,
                f"object-weight system (O O' + lambda2 D) for class {c}",
            )
        loss_val = current_loss(w_cur, u_cur)
        obj = current_objective(w_cur, u_cur, loss_val)
        loss_trace.append(loss_val)
        objective_trace.append(obj)
        if abs(prev_obj - obj) / max(1.0, prev_obj) < config.tol:
            converged = True
            break
        prev_obj = obj

    wall = time.perf_counter() - start
    model = Model(
        layout=layout,
        w=w_cur,
        u=u_cur,
        class_names=dataset.class_names,
        hyperparams=config,
        names=dataset.names,
    )
    report = FitReport(
        objective_trace=tuple(objective_trace),
        loss_trace=tuple(loss_trace),
        iterations_run=len(objective_trace),
        converged=converged,
        wall_time=wall,
    )
    return model, report


def check_reweighting_inequality(v, v_tilde) -> bool:
    """Verify the surrogate-decrease inequality behind the reweighting scheme.

    With n = ||v|| and m = ||v_tilde||, checks
    m - m^2 / (2n) <= n - n^2 / (2n), up to 1e-12 absolute slack.  Requires
    n > 0 since the reference norm sits in a denominator.
    """
    v = np.asarray(v, dtype=np.float64)
    v_tilde = np.asarray(v_tilde, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValidationError("reference vector must have positive norm")
    m = float(np.linalg.norm(v_tilde))
    lhs = m - m * m / (2.0 * n)
    rhs = n - n * n / (2.0 * n)
    return lhs <= rhs + _INEQUALITY_SLACK


def stationarity_residual(
    dataset: Dataset, model: Model, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """Worst normalized first-order residual over all classes and both sides.

    For each class the skeleton residual is
    T T' w + T O' u - T y + lambda1 D w with D rebuilt from the current w,
    scaled by 1 / (1 + ||w||); the object side mirrors it.  Near a fixed
    point of the alternating updates this goes to zero.
    """
    if dataset.labels is None:
        raise ValidationError("stationarity_residual needs a labeled dataset")
    if dataset.layout != model.layout:
        raise LayoutError("dataset layout does not match model layout")
    if dataset.labels.shape[1] != model.n_classes:
        raise LayoutError(
            f"dataset has {dataset.labels.shape[1]} classes, model has {model.n_classes}"
        )
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    epsilon = check_number(epsilon, "epsilon", strict=True)
    layout = dataset.layout
    gram_t, gram_o, cross, ty, oy = _gram_blocks(dataset)
    worst = 0.0
    for c in range(model.n_classes):
        w = model.w[:, c]
        u = model.u[:, c]
        dw = _reweight_into(np.empty(layout.d_t), w, layout.joint_slices, epsilon)
        du = _reweight_into(np.empty(layout.d_o), u, layout.object_block_slices, epsilon)
        res_w = gram_t @ w + cross @ u - ty[:, c] + lambda1 * dw * w
        res_u = gram_o @ u + cross.T @ w - oy[:, c] + lambda2 * du * u
        worst = max(worst, float(np.linalg.norm(res_w)) / (1.0 + float(np.linalg.norm(w))))
        worst = max(worst, float(np.linalg.norm(res_u)) / (1.0 + float(np.linalg.norm(u))))
    return worst


def _smoothed_block_sum(mat, slices, epsilon):
    total = 0.0
    for sl in slices:
        norms_sq = np.sum(mat[sl] * mat[sl], axis=0)
        total += float(np.sum(np.sqrt(norms_sq + epsilon * epsilon)))
    return total


def _smoothed_inputs(dataset: Dataset, w, u, lambda1, lambda2, epsilon, what):
    if dataset.labels is None:
        raise ValidationError(f"{what} needs a labeled dataset")
    return (
        _check_weight_matrix(w, dataset.layout.d_t, "skeleton weight matrix"),
        _check_weight_matrix(u, dataset.layout.d_o, "object weight matrix"),
        check_number(lambda1, "lambda1"),
        check_number(lambda2, "lambda2"),
        check_number(epsilon, "epsilon", strict=True),
    )


def smoothed_objective(
    dataset: Dataset, w, u, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """Objective with every block norm replaced by sqrt(||block||^2 + epsilon^2).

    Everywhere differentiable, which makes finite-difference checks of
    smoothed_gradients meaningful.
    """
    w, u, lambda1, lambda2, epsilon = _smoothed_inputs(
        dataset, w, u, lambda1, lambda2, epsilon, "smoothed_objective"
    )
    layout = dataset.layout
    r = _residual(dataset, w, u)
    return (
        float(np.sum(r * r))
        + lambda1 * _smoothed_block_sum(w, layout.joint_slices, epsilon)
        + lambda2 * _smoothed_block_sum(u, layout.object_block_slices, epsilon)
    )


def smoothed_gradients(
    dataset: Dataset, w, u, lambda1: float, lambda2: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of smoothed_objective with respect to W and U."""
    w, u, lambda1, lambda2, epsilon = _smoothed_inputs(
        dataset, w, u, lambda1, lambda2, epsilon, "smoothed_gradients"
    )
    layout = dataset.layout
    r = _residual(dataset, w, u)
    grad_w = 2.0 * (dataset.skeleton @ r)
    grad_u = 2.0 * (dataset.objects @ r)
    for sl in layout.joint_slices:
        scale = np.sqrt(np.sum(w[sl] * w[sl], axis=0) + epsilon * epsilon)
        grad_w[sl] += lambda1 * w[sl] / scale
    for sl in layout.object_block_slices:
        scale = np.sqrt(np.sum(u[sl] * u[sl], axis=0) + epsilon * epsilon)
        grad_u[sl] += lambda2 * u[sl] / scale
    return grad_w, grad_u
