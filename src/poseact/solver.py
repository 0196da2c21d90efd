"""Reweighted least-squares solver for the group-sparse model.

The model is one joint problem over the stacked weights X = [W; U]: the
loss ||[T; O]'X - Y||^2 plus one group norm per joint and per (object,
modality) block.  Each iteration builds the reweighting diagonals D of
every block and every class at once from the current X and makes one
all-classes step on (G + diag(lambda * D)) X = XY, where G = [T; O][T; O]'
and lambda is lambda1 on skeleton rows and lambda2 on object rows.  The
step is a few Jacobi-preconditioned conjugate-gradient steps started from
the current weights; CG never raises the quadratic surrogate above its
value at the start, so the objective never moves uphill, and an exact
solve of the surrogate is a fixed point of the step.  With both weights
zero the system is the same in every iteration, so it is factored once
per fit and solved exactly.  A floor on block norms keeps the diagonals
finite when a block collapses toward zero, at the price of optimizing a
smoothed objective whose minimizers approach the exact ones as the floor
shrinks.

The updates, the loss and objective behind the stopping test, the
stationarity residual and the smoothed diagnostics all read the dataset's
cached normal equations, so an iteration makes no pass over the N
instances: it costs O(d^2 C) whatever N is, plus one O(d^3) factorization
per fit when a weight is zero.  The first call on a fresh dataset builds
and caches the normal equations, which is one O(N d^2) pass.
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

# preconditioned CG steps per iteration
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


def _cholesky(gram, describe):
    """Cholesky factor L of gram (gram = L L').

    describe names the system in the SingularityError raised when gram is
    not positive definite.
    """
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"{describe} is not positive definite (Cholesky failed: {exc}); "
            "with a zero penalty weight this means the Gram matrix is rank deficient"
        ) from exc


def _joint_terms(layout, lam1, lam2):
    """Block sizes of the stacked weights [W; U] and the d x 1 column of
    per-row penalty weights (lam1 on skeleton rows, lam2 on object rows)."""
    lam = np.repeat([lam1, lam2], [layout.d_t, layout.d_o])[:, None]
    return layout.joint_dims + layout.object_block_dims, lam


def _columnwise_ratio(num, den):
    """num / den per column, 0 where den is 0 (a column CG has already solved)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _irls_step(blocks, layout, lam1, lam2):
    """fit's update step(x, reweights) of the stacked weights x = [W; U].

    For every class column c it moves x_c towards the solution of
    (G + diag(lam * reweights[:, c])) x_c = XY[:, c].  With both weights
    zero that system is G X = XY in every iteration, so it is factored here
    once and step returns its exact solution.  Otherwise step takes
    _CG_STEPS conjugate-gradient steps from x, preconditioned by the
    system's diagonal, for all columns at once.  The system is positive
    definite when the side of every zero weight has a positive definite
    Gram block; that is checked here, and SingularityError names the
    system that fails.
    """
    gram, rhs, d_t = blocks.gram, blocks.xy, layout.d_t
    if lam1 == lam2 == 0.0:
        factor = _cholesky(gram, "joint system (G = [T; O][T; O]')")
        exact = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
        return lambda x, reweights: exact
    if lam1 == 0.0:
        _cholesky(gram[:d_t, :d_t], "skeleton-weight system (T T')")
    if lam2 == 0.0:
        _cholesky(gram[d_t:, d_t:], "object-weight system (O O')")
    lam = _joint_terms(layout, lam1, lam2)[1]
    diagonal = np.diag(gram)[:, None]

    def step(x, reweights):
        shift = lam * reweights
        precond = 1.0 / (diagonal + shift)
        r = rhs - (gram @ x + shift * x)
        p = precond * r
        rz = np.sum(r * p, axis=0)
        for _ in range(_CG_STEPS):
            q = gram @ p + shift * p
            alpha = _columnwise_ratio(rz, np.sum(p * q, axis=0))
            x = x + alpha * p
            r = r - alpha * q
            z = precond * r
            rz_next = np.sum(r * z, axis=0)
            p = z + _columnwise_ratio(rz_next, rz) * p
            rz = rz_next
        return x

    return step


def fit(dataset: Dataset, config: SolverConfig) -> tuple[Model, FitReport]:
    """Run the reweighted least-squares solver until the objective stalls or max_iters.

    Weights start at 0.01 times seeded standard-normal draws (W first, then
    U).  Hitting max_iters without stalling is reported, not raised.  Given
    the same dataset and config the result is bit-for-bit reproducible.

    An iteration is one all-classes update of the stacked weights X = [W; U]
    for (G + diag(lambda * D)) X = XY, with the diagonals D rebuilt from the
    current X.  It takes a fixed number of preconditioned CG steps from the
    current weights, or, with both weights zero, solves exactly with a
    factorization made once, before the first iteration.  A zero weight
    whose side has a rank-deficient Gram block (T T' or O O', or G itself
    when both are zero) raises SingularityError.  Every iteration, its loss
    and objective included, works on dataset.normal_equations and makes no
    pass over the N instances; on a fresh dataset the first use builds and
    caches them (O(N d^2)), and that build counts towards wall_time.
    """
    if dataset.labels is None:
        raise ValidationError("fit needs a labeled dataset")
    layout = dataset.layout
    lam1, lam2, eps = config.lambda1, config.lambda2, config.epsilon
    d_t, dims = layout.d_t, _joint_terms(layout, lam1, lam2)[0]

    start = time.perf_counter()
    blocks = dataset.normal_equations
    step = _irls_step(blocks, layout, lam1, lam2)
    rng = np.random.default_rng(config.seed)
    x = 0.01 * rng.standard_normal(blocks.xy.shape)

    def loss_and_objective(x):
        loss_val = _gram_loss(blocks, x)
        return loss_val, loss_val + _penalty(layout, x[:d_t], x[d_t:], lam1, lam2)

    prev_obj = loss_and_objective(x)[1]
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    converged = False

    for _ in range(config.max_iters):
        x = step(x, _reweights(x, dims, eps))
        loss_val, obj = loss_and_objective(x)
        loss_trace.append(loss_val)
        objective_trace.append(obj)
        if abs(prev_obj - obj) / max(1.0, prev_obj) < config.tol:
            converged = True
            break
        prev_obj = obj

    wall = time.perf_counter() - start
    model = Model(
        layout=layout,
        w=x[:d_t],
        u=x[d_t:],
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

    For each class the residual of the stacked weights x = [w; u] is
    G x - XY + lambda * D x, with D rebuilt from the current x and lambda
    being lambda1 on skeleton rows and lambda2 on object rows.  Its skeleton
    rows are scaled by 1 / (1 + ||w||) and its object rows by
    1 / (1 + ||u||).  Near a fixed point of the reweighted updates this
    goes to zero.
    """
    w, u = _labeled_weights(dataset, model.w, model.u, "stationarity_residual")
    if dataset.layout != model.layout:
        raise LayoutError("dataset layout does not match model layout")
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    epsilon = check_number(epsilon, "epsilon", strict=True)
    blocks, d_t = dataset.normal_equations, dataset.layout.d_t
    dims, lam = _joint_terms(dataset.layout, lambda1, lambda2)
    x = np.vstack([w, u])
    res = blocks.gram @ x - blocks.xy + lam * _reweights(x, dims, epsilon) * x
    return max(
        float(np.max(np.linalg.norm(side, axis=0) / (1.0 + np.linalg.norm(mat, axis=0))))
        for side, mat in ((res[:d_t], w), (res[d_t:], u))
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
    return _gram_loss(dataset.normal_equations, np.vstack([w, u])) + _penalty(
        dataset.layout, w, u, lambda1, lambda2, epsilon
    )


def smoothed_gradients(
    dataset: Dataset, w, u, lambda1: float, lambda2: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of smoothed_objective with respect to W and U."""
    w, u, lambda1, lambda2, epsilon = _smoothed_inputs(
        dataset, w, u, lambda1, lambda2, epsilon, "smoothed_gradients"
    )
    blocks, d_t = dataset.normal_equations, dataset.layout.d_t
    dims, lam = _joint_terms(dataset.layout, lambda1, lambda2)
    x = np.vstack([w, u])
    smoothed_norms = np.repeat(np.sqrt(block_sums(x * x, dims) + epsilon * epsilon), dims, axis=0)
    grad = 2.0 * (blocks.gram @ x - blocks.xy) + lam * x / smoothed_norms
    return grad[:d_t], grad[d_t:]
