"""Alternating reweighted least-squares solver for the group-sparse model.

Each iteration builds the diagonal reweighting vectors of every class at
once from the pre-update weights, then makes two half-steps: one update of
all class columns of W with U held at its previous value, then one of all
columns of U against the new W.  A penalised side (lambda > 0) takes a few
Jacobi-preconditioned conjugate-gradient steps on its symmetric positive
definite system, started from the current weights; CG never raises the
quadratic surrogate above its value at the start, so the objective never
moves uphill, and an exact solve of the surrogate is a fixed point of the
step.  An unpenalised side (lambda = 0) has the same constant system in
every iteration, so it is factored once per fit and solved exactly.  A
floor on block norms keeps the diagonals finite when a block collapses
toward zero, at the price of optimizing a smoothed objective whose
minimizers approach the exact ones as the floor shrinks.

The updates, the loss and objective behind the stopping test, the
stationarity residual and the smoothed diagnostics all read the dataset's
cached normal equations, so an iteration makes no pass over the N
instances: it costs O(d^2 C) whatever N is, plus one O(d^3) factorization
per fit for each unpenalised side.  The first call on a fresh dataset
builds and caches the blocks, which is one O(N d^2) pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    SEED_RANGE,
    Dataset,
    Model,
    _gram_loss,
    _labeled_weights,
    _penalty,
    block_sums,
    check_int,
    check_number,
)
from .errors import LayoutError, SingularityError, ValidationError

__all__ = [
    "SolverConfig",
    "FitReport",
    "fit",
    "check_reweighting_inequality",
    "stationarity_residual",
    "smoothed_objective",
    "smoothed_gradients",
]

# absolute slack allowed when checking the surrogate-decrease inequality
_INEQUALITY_SLACK = 1e-12

# preconditioned CG steps per half-step on a penalised side
_CG_STEPS = 5


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


def _reweights(mat, dims, epsilon):
    """Reweighting diagonals of every column of mat (a vector or a d x C matrix).

    Every coordinate of block k in column c gets
    1 / (2 * max(||block k of column c||, epsilon)), so shrinking blocks are
    penalized ever harder on the next solve.
    """
    norms = np.sqrt(block_sums(mat * mat, dims))
    return np.repeat(0.5 / np.maximum(norms, epsilon), dims, axis=0)


def _inverse_factor(gram, describe):
    """Inverse of the Cholesky factor L of gram (gram = L L'), computed once.

    An unpenalised half-step solves gram x = b as x = M' (M b) with M = L^-1.
    describe names the system in the SingularityError raised when gram is
    not positive definite.
    """
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"{describe} is not positive definite (Cholesky failed: {exc}); "
            "with a zero penalty weight this means the Gram matrix is rank deficient"
        ) from exc
    return np.linalg.inv(factor)


def _columnwise_ratio(num, den):
    """num / den per column, 0 where den is 0 (a column CG has already solved)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _half_step(gram, lam, reweights, rhs, start, inv_factor):
    """Update every class column c of (gram + lam diag(reweights[:, c])) x_c = rhs[:, c].

    With inv_factor (from _inverse_factor, for lam = 0) the solve is exact.
    Otherwise the system is positive definite and the update is _CG_STEPS
    conjugate-gradient steps from start, preconditioned by its diagonal, for
    all columns at once.  gram is not modified.
    """
    if inv_factor is not None:
        return inv_factor.T @ (inv_factor @ rhs)
    shift = lam * reweights

    def apply(p):
        return gram @ p + shift * p

    precond = 1.0 / (np.diag(gram)[:, None] + shift)
    x = start
    r = rhs - apply(x)
    p = precond * r
    rz = np.sum(r * p, axis=0)
    for _ in range(_CG_STEPS):
        q = apply(p)
        alpha = _columnwise_ratio(rz, np.sum(p * q, axis=0))
        x = x + alpha * p
        r = r - alpha * q
        z = precond * r
        rz_next = np.sum(r * z, axis=0)
        p = z + _columnwise_ratio(rz_next, rz) * p
        rz = rz_next
    return x


def fit(dataset: Dataset, config: SolverConfig) -> tuple[Model, FitReport]:
    """Run the alternating solver until the objective stalls or max_iters.

    Weights start at 0.01 times seeded standard-normal draws (W first, then
    U).  Hitting max_iters without stalling is reported, not raised.  Given
    the same dataset and config the result is bit-for-bit reproducible.

    An iteration is two half-steps, each one all-classes update: W for
    (T T' + lambda1 D_W) W = T Y - T O' U, then U for
    (O O' + lambda2 D_U) U = O Y - O T' W with the new W.  A penalised side
    takes a fixed number of preconditioned CG steps from its current
    weights; an unpenalised side is solved exactly with a factorization made
    once, before the first iteration, which raises SingularityError when
    that side's Gram matrix is rank deficient.  Every iteration,
    its loss and objective included, works on dataset.normal_equations and
    makes no pass over the N instances; on a fresh dataset the first use
    builds and caches them (O(N d^2)), and that build counts towards
    wall_time.
    """
    if dataset.labels is None:
        raise ValidationError("fit needs a labeled dataset")
    layout = dataset.layout
    lam1, lam2, eps = config.lambda1, config.lambda2, config.epsilon
    n_classes = dataset.labels.shape[1]

    start = time.perf_counter()
    blocks = dataset.normal_equations
    inv_t = (
        _inverse_factor(blocks.gram_t, "skeleton-weight system (T T')") if lam1 == 0.0 else None
    )
    inv_o = (
        _inverse_factor(blocks.gram_o, "object-weight system (O O')") if lam2 == 0.0 else None
    )
    rng = np.random.default_rng(config.seed)
    w_cur = 0.01 * rng.standard_normal((layout.d_t, n_classes))
    u_cur = 0.01 * rng.standard_normal((layout.d_o, n_classes))

    def loss_and_objective(w, u):
        loss_val = _gram_loss(blocks, w, u)
        return loss_val, loss_val + _penalty(layout, w, u, lam1, lam2)

    prev_obj = loss_and_objective(w_cur, u_cur)[1]
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    converged = False

    for _ in range(config.max_iters):
        d_w = _reweights(w_cur, layout.joint_dims, eps)
        d_u = _reweights(u_cur, layout.object_block_dims, eps)
        w_cur = _half_step(
            blocks.gram_t, lam1, d_w, blocks.ty - blocks.cross @ u_cur, w_cur, inv_t
        )
        u_cur = _half_step(
            blocks.gram_o, lam2, d_u, blocks.oy - blocks.cross_t @ w_cur, u_cur, inv_o
        )
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


def _half_gradients(blocks, w, u):
    """T T'W + T O'U - T Y and O O'U + O T'W - O Y: half the loss gradients."""
    return (
        blocks.gram_t @ w + blocks.cross @ u - blocks.ty,
        blocks.gram_o @ u + blocks.cross_t @ w - blocks.oy,
    )


def stationarity_residual(
    dataset: Dataset, model: Model, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """Worst normalized first-order residual over all classes and both sides.

    For each class the skeleton residual is
    T T' w + T O' u - T y + lambda1 D w with D rebuilt from the current w,
    scaled by 1 / (1 + ||w||); the object side mirrors it.  Near a fixed
    point of the alternating updates this goes to zero.
    """
    w, u = _labeled_weights(dataset, model.w, model.u, "stationarity_residual")
    if dataset.layout != model.layout:
        raise LayoutError("dataset layout does not match model layout")
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    epsilon = check_number(epsilon, "epsilon", strict=True)
    layout = dataset.layout
    half_w, half_u = _half_gradients(dataset.normal_equations, w, u)
    res_w = half_w + lambda1 * _reweights(w, layout.joint_dims, epsilon) * w
    res_u = half_u + lambda2 * _reweights(u, layout.object_block_dims, epsilon) * u
    return max(
        float(np.max(np.linalg.norm(res, axis=0) / (1.0 + np.linalg.norm(mat, axis=0))))
        for res, mat in ((res_w, w), (res_u, u))
    )


def _smoothed_inputs(dataset: Dataset, w, u, lambda1, lambda2, epsilon, what):
    return (
        *_labeled_weights(dataset, w, u, what),
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
    return _gram_loss(dataset.normal_equations, w, u) + _penalty(
        dataset.layout, w, u, lambda1, lambda2, epsilon
    )


def smoothed_gradients(
    dataset: Dataset, w, u, lambda1: float, lambda2: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of smoothed_objective with respect to W and U."""
    w, u, lambda1, lambda2, epsilon = _smoothed_inputs(
        dataset, w, u, lambda1, lambda2, epsilon, "smoothed_gradients"
    )
    layout = dataset.layout

    def smoothed_norms(mat, dims):
        return np.repeat(np.sqrt(block_sums(mat * mat, dims) + epsilon * epsilon), dims, axis=0)

    half_w, half_u = _half_gradients(dataset.normal_equations, w, u)
    return (
        2.0 * half_w + lambda1 * w / smoothed_norms(w, layout.joint_dims),
        2.0 * half_u + lambda2 * u / smoothed_norms(u, layout.object_block_dims),
    )
