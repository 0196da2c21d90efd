"""Alternating reweighted least-squares solver for the group-sparse model.

Each iteration rebuilds per-class diagonal reweighting vectors from the
current weights, then refreshes every class column of W with U held at its
previous value, then every column of U against the just-updated W.  Both
refreshes are closed-form symmetric positive definite solves on the
dataset's cached normal equations, so the objective never moves uphill; a
floor on block norms keeps the diagonals finite when a block collapses
toward zero, at the price of optimizing a smoothed objective whose
minimizers approach the exact ones as the floor shrinks.

The solves, the loss and objective behind the stopping test, the
stationarity residual and the smoothed diagnostics all read those cached
blocks, so an iteration makes no pass over the N instances: it costs
O(C d^3) whatever N is.  The first call on a fresh dataset builds and
caches the blocks, which is one O(N d^2) pass.
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
    _gram_loss,
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


def _reweights(vec, length, slices, epsilon):
    epsilon = check_number(epsilon, "epsilon", strict=True)
    vec = _check_column(vec, length, "weight column")
    diag = np.empty(length)
    for sl in slices:
        diag[sl] = 0.5 / max(float(np.linalg.norm(vec[sl])), epsilon)
    return diag


def skeletal_reweights(w_c, layout: FeatureLayout, epsilon: float) -> np.ndarray:
    """Diagonal of the skeleton reweighting matrix for one class column.

    Every coordinate of joint block j gets 1 / (2 * max(||w_c block j||, epsilon)),
    so shrinking blocks are penalized ever harder on the next solve.
    """
    return _reweights(w_c, layout.d_t, layout.joint_slices, epsilon)


def attribute_reweights(u_c, layout: FeatureLayout, epsilon: float) -> np.ndarray:
    """Object-side analog of skeletal_reweights, one value per (object, modality) block."""
    return _reweights(u_c, layout.d_o, layout.object_block_slices, epsilon)


def _penalized_solve(gram, lam, reweights, rhs, describe):
    """Cholesky solve of (gram + lam diag(reweights)) x = rhs; gram is not modified."""
    system = gram.copy()
    if lam != 0.0:
        system[np.diag_indices_from(system)] += lam * reweights
    try:
        factor = scipy.linalg.cho_factor(system, lower=False, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"{describe} is not positive definite (Cholesky failed: {exc}); "
            "with a zero penalty weight this means the Gram matrix is rank deficient"
        ) from exc
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _class_blocks(dataset: Dataset, c):
    """The dataset's normal equations and a checked class index into them."""
    blocks = dataset.normal_equations  # ValidationError on unlabeled data
    return blocks, check_int(c, "class index", 0, blocks.ty.shape[1], error=LayoutError)


def update_skeleton_weights(dataset: Dataset, u_c, c: int, reweights, lambda1: float) -> np.ndarray:
    """Closed-form refresh of class column c of W with the object side fixed at u_c.

    Solves (T T' + lambda1 diag(reweights)) w = T y_c - T O' u_c, where y_c is
    label column c; every block comes from dataset.normal_equations.
    """
    blocks, c = _class_blocks(dataset, c)
    u = _check_column(u_c, dataset.layout.d_o, "object weight column")
    d = _check_column(reweights, dataset.layout.d_t, "reweighting diagonal")
    return _penalized_solve(
        blocks.gram_t, check_number(lambda1, "lambda1"), d, blocks.ty[:, c] - blocks.cross @ u,
        f"skeleton-weight system (T T' + lambda1 D) for class {c}",
    )


def update_object_weights(dataset: Dataset, w_c, c: int, reweights, lambda2: float) -> np.ndarray:
    """Closed-form refresh of class column c of U with the skeleton side fixed at w_c.

    Solves (O O' + lambda2 diag(reweights)) u = O y_c - O T' w_c.
    """
    blocks, c = _class_blocks(dataset, c)
    w = _check_column(w_c, dataset.layout.d_t, "skeleton weight column")
    d = _check_column(reweights, dataset.layout.d_o, "reweighting diagonal")
    return _penalized_solve(
        blocks.gram_o, check_number(lambda2, "lambda2"), d, blocks.oy[:, c] - blocks.cross_t @ w,
        f"object-weight system (O O' + lambda2 D) for class {c}",
    )


def fit(dataset: Dataset, config: SolverConfig) -> tuple[Model, FitReport]:
    """Run the alternating solver until the objective stalls or max_iters.

    Weights start at 0.01 times seeded standard-normal draws (W first, then
    U).  Hitting max_iters without stalling is reported, not raised.  Given
    the same dataset and config the result is bit-for-bit reproducible.

    Every iteration, its loss and objective included, works on
    dataset.normal_equations and makes no pass over the N instances; on a
    fresh dataset the first use builds and caches them (O(N d^2)), and that
    build counts towards wall_time.
    """
    if dataset.labels is None:
        raise ValidationError("fit needs a labeled dataset")
    layout = dataset.layout
    lam1, lam2, eps = config.lambda1, config.lambda2, config.epsilon
    n_classes = dataset.labels.shape[1]

    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    w_cur = 0.01 * rng.standard_normal((layout.d_t, n_classes))
    u_cur = 0.01 * rng.standard_normal((layout.d_o, n_classes))

    def loss_and_objective(w, u):
        loss_val = _gram_loss(dataset.normal_equations, w, u)
        return loss_val, (
            loss_val
            + lam1 * _block_norm_sum(w, layout.joint_slices)
            + lam2 * _block_norm_sum(u, layout.object_block_slices)
        )

    prev_obj = loss_and_objective(w_cur, u_cur)[1]
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    converged = False

    for _ in range(config.max_iters):
        # column c is overwritten only after its own reweighting diagonal is
        # built, so both diagonals come from the pre-update iterate
        for c in range(n_classes):
            d = skeletal_reweights(w_cur[:, c], layout, eps)
            w_cur[:, c] = update_skeleton_weights(dataset, u_cur[:, c], c, d, lam1)
        for c in range(n_classes):
            d = attribute_reweights(u_cur[:, c], layout, eps)
            u_cur[:, c] = update_object_weights(dataset, w_cur[:, c], c, d, lam2)
        loss_val, obj = loss_and_objective(w_cur, u_cur)
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
    layout = dataset.layout
    # cross.T @ w runs the transposed BLAS kernel; the cached contiguous
    # cross_t would sum in another order and move the result's last bits
    gram_t, gram_o, cross, _, ty, oy, _ = dataset.normal_equations
    worst = 0.0
    for c in range(model.n_classes):
        w = model.w[:, c]
        u = model.u[:, c]
        dw = skeletal_reweights(w, layout, epsilon)
        du = attribute_reweights(u, layout, epsilon)
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
    return (
        _gram_loss(dataset.normal_equations, w, u)
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
    blocks = dataset.normal_equations
    grad_w = 2.0 * (blocks.gram_t @ w + blocks.cross @ u - blocks.ty)
    grad_u = 2.0 * (blocks.gram_o @ u + blocks.cross_t @ w - blocks.oy)
    for sl in layout.joint_slices:
        scale = np.sqrt(np.sum(w[sl] * w[sl], axis=0) + epsilon * epsilon)
        grad_w[sl] += lambda1 * w[sl] / scale
    for sl in layout.object_block_slices:
        scale = np.sqrt(np.sum(u[sl] * u[sl], axis=0) + epsilon * epsilon)
        grad_u[sl] += lambda2 * u[sl] / scale
    return grad_w, grad_u
