"""Reweighted least-squares solver for the group-sparse model.

The model is one joint problem over the stacked weights X = [W; U]: the
loss ||[T; O]'X - Y||^2 plus one group norm per joint and per (object,
modality) block.  Each iteration builds the reweighting diagonals D of
every block and every class at once from the current X and makes one
all-classes step on (G + diag(lambda * D)) X = XY, where G = [T; O][T; O]'
and lambda is lambda1 on skeleton rows and lambda2 on object rows.  Those
C systems are one block-diagonal SPD system in all the weights, and the
step is at most _CG_STEPS Jacobi-preconditioned conjugate-gradient steps
on it, one recurrence shared by every class, started from the current
weights; tol, which also ends the outer loop, ends each inner solve once
the preconditioned residual energy r'M^-1 r, summed over the classes, is
at most tol times its value at the start of the step.  CG never raises
the quadratic surrogate above its value at the start, so the objective
never moves uphill however early it stops, and an exact solve of the
surrogate is a fixed point of the step.  With both weights zero the
system is the same in every iteration, so it is factored once per fit
and solved exactly.  A floor on block norms keeps the diagonals finite
when a block collapses toward zero, at the price of optimizing a smoothed
objective whose minimizers approach the exact ones as the floor shrinks.
A feature counts as zero when its diagonal entry of G is 0 in float64:
one that is 0 in every instance, which adds nothing to the loss, and also
one whose entries all lie below about 1.5e-162 in magnitude, whose squares
underflow although G and XY may be nonzero elsewhere in its row.  The
weight of a zero feature is held at exactly 0.

The updates, the loss and objective behind the stopping test, the
stationarity residual and the smoothed diagnostics all read the dataset's
cached normal equations, so an iteration makes no pass over the N
instances: it costs O(d^2 C) whatever N is, plus one O(d^3) factorization
per fit when a weight is zero.  Each quantity is computed once per
iteration: one product with the d x d Gram per CG step taken, at most
_CG_STEPS, and one pass over the block norms of X (which serves both the
penalty and the next reweighting diagonals).  Each CG step's product G P
also carries G X to the new weights (G X + alpha G P), where it serves
both the loss and the next step's starting residual, so a penalised fit
makes 1 + sum(cg_steps) Gram products in all; with both weights zero G X
is formed directly at the exact solution, once per iteration.  The first
call on a fresh dataset builds and caches the normal equations, which is
one O(N d^2) pass.

The solver and every diagnostic here work class-major: the weights,
residuals, search directions and reweighting diagonals are C x d arrays,
C-ordered, one contiguous row of d values per class, which is
Model.weights' transpose.  Every elementwise product and block reduction
then runs along a class's contiguous row, every CG dot product is one
np.vdot over the whole C x d array, so each step length is a scalar, and
every Gram product is X'G = (G X)', G being symmetric.  The public
functions take and return d x C arrays.
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
    _group_norms,
    _labeled_weights,
    _objective,
    _paired_weights,
    _penalty,
    _real_array,
    _require_finite,
    check_int,
    check_number,
)
from .errors import SingularityError, ValidationError

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

# the cap on preconditioned CG steps per iteration
_CG_STEPS = 5


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for fit.

    lambda1 weighs the skeletal norm, lambda2 the attribute norm.  The solver
    stops once the relative objective decrease falls below tol or after
    max_iters iterations; tol also ends each inner solve, once the
    preconditioned residual energy, summed over the classes, has fallen to
    tol times its value at the start of the step (one Gram product per CG
    step, at most _CG_STEPS per iteration).  epsilon floors block norms
    inside the reweighting diagonals; seed drives the random
    initialization.
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
    """What happened during one fit call.

    cg_steps holds the conjugate-gradient steps each iteration took (0 on
    the exact path with both weights zero), one entry per iteration.
    """

    objective_trace: tuple[float, ...]
    loss_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    wall_time: float
    cg_steps: tuple[int, ...]


def _reweights(norms, dims, epsilon):
    """Reweighting diagonals from norms, the block norms of every class
    (_group_norms over dims with one entry per block along the last axis: a
    vector, or the class-major C x blocks matrix fit works in).

    Every coordinate of block k of class c gets
    1 / (2 * max(norms[c, k], epsilon)), so shrinking blocks are penalized
    ever harder on the next solve.
    """
    return (0.5 / np.maximum(norms, epsilon)).repeat(dims, axis=-1)


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


def _penalty_weights(layout, lam1, lam2):
    """The per-coordinate penalty weights of the stacked weights [W; U], one
    entry per row of [W; U] (a row of the class-major X'): lam1 on skeleton
    coordinates, lam2 on object coordinates."""
    return np.repeat([lam1, lam2], [layout.d_t, layout.d_o])


def _irls_step(blocks, layout, lam1, lam2, tol):
    """fit's update step(x, gram_x, reweights) of the class-major weights
    x = [W; U]' (C x d, C-ordered: one contiguous row per class).

    For every class c it moves x_c towards the solution of
    (G + diag(lam * reweights[c])) x_c = XY[:, c] and returns the new x,
    x G at the new x, and the number of CG steps it took.  gram_x is x G,
    which fit already holds for the loss at x; G is symmetric, so x G is
    (G X)' and every Gram product is one C x d by d x d product.  With both
    weights zero that system is G X = XY in every iteration, so it is
    factored here once and step returns its exact solution after 0 CG
    steps, with x G formed directly.  Otherwise the C systems are one
    block-diagonal SPD system in all of x, and step takes conjugate-gradient
    steps on it from x, preconditioned by its diagonal: one recurrence, whose
    dot products sum over every class, so the step length alpha and the
    direction update beta are scalars.  Each CG step makes one product with G, p G, which also
    moves x G along with x (x G + alpha p G), so no further product is
    needed at the new x.  It stops after _CG_STEPS steps, or earlier once
    r'M^-1 r summed over the classes is at most tol times its value at x:
    that compares a quantity with itself, so the rule depends on neither N
    nor the scale of the loss.  A start with r'M^-1 r = 0 (x already solves
    the system) has a zero search direction: its step length is 0 and it
    stops after one step with x unchanged.

    A row whose diagonal entry of G is 0 belongs to a feature that is zero
    in every instance, so its row and column of G and its row of XY are 0
    too.  Its weight is held where it is (fit starts it at 0): its
    preconditioner entry is 0, and it is left out of the exact solve and
    of the positive-definiteness check.  The system is positive definite
    on the other rows when the side of every zero weight has a positive
    definite Gram block there; that is checked here, and SingularityError
    names the system that fails.
    """
    gram, d_t = blocks.gram, layout.d_t
    rhs = np.ascontiguousarray(blocks.xy.T)
    diagonal = np.diag(gram)
    live = np.flatnonzero(diagonal)
    if lam1 == lam2 == 0.0:
        factor = _cholesky(gram[np.ix_(live, live)], "joint system (G = [T; O][T; O]')")
        exact = np.zeros_like(rhs)
        exact[:, live] = np.linalg.solve(factor.T, np.linalg.solve(factor, blocks.xy[live])).T
        return lambda x, gram_x, reweights: (exact, exact @ gram, 0)
    if lam1 == 0.0:
        rows = live[live < d_t]
        _cholesky(gram[np.ix_(rows, rows)], "skeleton-weight system (T T')")
    if lam2 == 0.0:
        rows = live[live >= d_t]
        _cholesky(gram[np.ix_(rows, rows)], "object-weight system (O O')")
    lam = _penalty_weights(layout, lam1, lam2)
    # 1 / (inf + shift) is exactly 0: the preconditioner entry of a zero row
    diagonal = np.where(diagonal == 0.0, np.inf, diagonal)

    def step(x, gram_x, reweights):
        shift = lam * reweights
        precond = 1.0 / (diagonal + shift)
        r = rhs - (gram_x + shift * x)
        p = precond * r
        # one recurrence over every class: each dot product runs over the
        # whole C x d array, so every step length is one scalar
        rz = np.vdot(r, p)
        target = tol * rz
        for taken in range(1, _CG_STEPS + 1):
            gram_p = p @ gram
            q = gram_p + shift * p
            pq = np.vdot(p, q)
            # p'q is 0 only at p = 0, which needs r'z = 0: nothing to move
            alpha = rz / pq if pq else 0.0
            x = x + alpha * p
            gram_x = gram_x + alpha * gram_p
            if taken == _CG_STEPS:
                break
            r = r - alpha * q
            z = precond * r
            rz_next = np.vdot(r, z)
            # a zero rz (p = 0 left r as it was) stops here, and every later
            # rz passed this test, so the ratio below never divides by 0
            if rz_next <= target:
                break
            p = z + (rz_next / rz) * p
            rz = rz_next
        return x, gram_x, taken

    return step


def fit(dataset: Dataset, config: SolverConfig) -> tuple[Model, FitReport]:
    """Run the reweighted least-squares solver until the objective stalls or max_iters.

    Weights start at 0.01 times seeded standard-normal draws (W first, then
    U).  Hitting max_iters without stalling is reported, not raised.  Given
    the same dataset and config the result is bit-for-bit reproducible.

    An iteration is one all-classes update of the stacked weights X = [W; U]
    for (G + diag(lambda * D)) X = XY, with the diagonals D rebuilt from the
    current X.  It takes at most _CG_STEPS preconditioned CG steps from the
    current weights, one Gram product each, which also carry G X to the new
    weights for the loss; with the one product at the start weights, a fit
    makes 1 + sum(cg_steps) Gram products.  The CG steps are one recurrence
    over every class, with scalar step lengths.  tol also ends the inner
    solve, once the preconditioned residual energy summed over the classes
    is at most tol times its value at the start of the step; the report's
    cg_steps lists the steps taken.  With both weights zero it solves
    exactly with a factorization made once, before the first iteration,
    and forms G X at that solution in each iteration.  The solver holds X
    class-major (C x d, see the module docstring); the report's losses and
    objectives come from the carried G X, so they agree with loss and
    objective at model.weights at rounding level, not bit for bit.

    The weights of a zero feature, one whose diagonal entry of G is 0 in
    float64 (entries below about 1.5e-162 in magnitude count, their
    squares underflowing), start and stay at exactly 0.  A zero weight
    whose side has a rank-deficient Gram block (T T' or O O', or G itself
    when both are zero) on its other features raises SingularityError.
    Every iteration, its loss and objective included, works on
    dataset.normal_equations and makes no pass over the N instances; on a
    fresh dataset the first use builds and caches them (O(N d^2)), and
    that build counts towards wall_time.
    """
    if dataset.labels is None:
        raise ValidationError("fit needs a labeled dataset")
    layout = dataset.layout
    lam1, lam2, eps = config.lambda1, config.lambda2, config.epsilon
    dims = layout.block_dims

    start = time.perf_counter()
    blocks = dataset.normal_equations
    step = _irls_step(blocks, layout, lam1, lam2, config.tol)
    rhs = np.ascontiguousarray(blocks.xy.T)
    rng = np.random.default_rng(config.seed)
    # class-major, C x d: the d x C draws transposed, so the start is the same
    x = np.ascontiguousarray(0.01 * rng.standard_normal(blocks.xy.shape).T)
    x[:, np.diag(blocks.gram) == 0.0] = 0.0  # zero features: step holds these

    def evaluate(x, gram_x):
        """The block norms, the loss and the objective at x, given x G."""
        norms = _group_norms(x, dims, axis=-1)
        loss_val = _gram_loss(x, gram_x, rhs, blocks.yy)
        return norms, loss_val, loss_val + _penalty(layout, norms, lam1, lam2)

    gram_x = x @ blocks.gram
    norms, _, prev_obj = evaluate(x, gram_x)
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    cg_steps: list[int] = []
    converged = False

    for _ in range(config.max_iters):
        x, gram_x, taken = step(x, gram_x, _reweights(norms, dims, eps))
        cg_steps.append(taken)
        norms, loss_val, obj = evaluate(x, gram_x)
        loss_trace.append(loss_val)
        objective_trace.append(obj)
        if abs(prev_obj - obj) / max(1.0, prev_obj) < config.tol:
            converged = True
            break
        prev_obj = obj

    wall = time.perf_counter() - start
    model = Model(
        layout=layout,
        weights=x.T,
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
        cg_steps=tuple(cg_steps),
    )
    return model, report


def check_reweighting_inequality(v, v_tilde) -> bool:
    """Verify the surrogate-decrease inequality behind the reweighting scheme.

    With n = ||v|| and m = ||v_tilde||, checks
    m - m^2 / (2n) <= n - n^2 / (2n), up to 1e-12 absolute slack.  Requires
    finite entries, and n > 0 since the reference norm sits in a denominator.
    """
    v = _real_array(v, "reference vector", ndim=None)
    v_tilde = _real_array(v_tilde, "candidate vector", ndim=None)
    _require_finite(v, "reference vector")
    _require_finite(v_tilde, "candidate vector")
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
    goes to zero.  The model must match the dataset's layout and class
    names, as in predict_batch.
    """
    x = _paired_weights(model, dataset, "stationarity_residual").T
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    epsilon = check_number(epsilon, "epsilon", strict=True)
    blocks, d_t = dataset.normal_equations, dataset.layout.d_t
    dims, lam = dataset.layout.block_dims, _penalty_weights(dataset.layout, lambda1, lambda2)
    diag = _reweights(_group_norms(x, dims, axis=-1), dims, epsilon)
    res = x @ blocks.gram - blocks.xy.T + lam * diag * x
    return max(
        float(np.max(np.linalg.norm(side, axis=1) / (1.0 + np.linalg.norm(mat, axis=1))))
        for side, mat in ((res[:, :d_t], x[:, :d_t]), (res[:, d_t:], x[:, d_t:]))
    )


def smoothed_objective(
    dataset: Dataset, weights, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """Objective with every block norm replaced by sqrt(||block||^2 + epsilon^2).

    Everywhere differentiable, which makes finite-difference checks of
    smoothed_gradients meaningful.
    """
    epsilon = check_number(epsilon, "epsilon", strict=True)
    return _objective(dataset, weights, lambda1, lambda2, epsilon, "smoothed_objective")


def smoothed_gradients(
    dataset: Dataset, weights, lambda1: float, lambda2: float, epsilon: float
) -> np.ndarray:
    """Analytic gradient of smoothed_objective, one array shaped like the weights [W; U]."""
    x = _labeled_weights(dataset, weights, "smoothed_gradients").T
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    epsilon = check_number(epsilon, "epsilon", strict=True)
    blocks = dataset.normal_equations
    dims, lam = dataset.layout.block_dims, _penalty_weights(dataset.layout, lambda1, lambda2)
    smoothed_norms = np.repeat(_group_norms(x, dims, epsilon, axis=-1), dims, axis=-1)
    return (2.0 * (x @ blocks.gram - blocks.xy.T) + lam * x / smoothed_norms).T
