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
weights.  Each inner solve ends once the preconditioned residual energy
r'M^-1 r, summed over the classes, is at most a stop ratio times its
value rz0 at the start of the solve.  The first two solves of a fit use
tol, which also ends the outer loop; solve k >= 3 uses
max(tol, eta^2) with eta = _FORCING * min(1, rz0_{k-1} / rz0_{k-2}), the
forcing term of Eisenstat and Walker (choice 2, alpha = 2 on energies),
so an inner solve is only as precise as the outer progress warrants: the
next reweighting replaces the system anyway.  That rule is a ratio of
energies, so it depends on neither N nor the scale of the loss.  CG never
raises the quadratic surrogate above its value at the start, so the
objective never moves uphill however early it stops, and an exact solve of
the surrogate is a fixed point of the step.  With both weights zero the
system is the same in every iteration, so it is factored once per fit
and solved exactly.  A floor epsilon on block norms keeps the diagonals
finite when a block collapses toward zero.  The iteration then minimises
the smoothed objective F_eps (smoothed_objective), which penalises each
block norm t as h_epsilon(t): t from epsilon up, (t^2 + epsilon^2) /
(2 epsilon) below.  Each step's quadratic surrogate lies on or above F_eps
and touches it at the current weights, so F_eps never rises along the
iterates, and the fixed point is F_eps's minimiser, where
smoothed_gradients and stationarity_residual vanish.
F <= F_eps <= F + (epsilon / 2) * sum_g lambda_g, so those minimizers
approach the exact ones as the floor shrinks.
A feature counts as zero when its diagonal entry of G is 0 in float64:
one that is 0 in every instance, which adds nothing to the loss, and also
one whose entries all lie below about 1.5e-162 in magnitude, whose squares
underflow although G and XY may be nonzero elsewhere in its row.  The
weight of a zero feature is held at exactly 0.

The solver core reads only the normal equations (G, XY and the per-class
||y_c||^2, core.NormalEquations) and the layout, never a Dataset: the
iterations (_fit), the loss and objective behind the stopping test
(core._objective) and the half gradient behind the stationarity residual
and smoothed_gradients (_half_gradient).  fit, stationarity_residual and
the smoothed diagnostics are thin wrappers that check their arguments and
pass dataset.normal_equations and dataset.layout.  Derived normal
equations therefore cost d x d, not a d x N copy: zeroing a side's rows
and columns of G and rows of XY masks that cue out, and the whole set's
blocks minus a fold's are the fold's complement.  An iteration makes no
pass over the N instances: it costs O(d^2 C) whatever N is, plus one
O(d^3) factorization per fit when a weight is zero.  Each quantity is computed once per
iteration: one product with the d x d Gram per CG step taken, at most
_CG_STEPS, and one pass over the block norms of X (which serves both the
penalty and the next reweighting diagonals).  Each CG step's product G P
also carries G X to the new weights, where it serves both the loss and
the next step's starting residual, so a penalised fit makes
1 + sum(cg_steps) Gram products in all; with both weights zero G X is
formed directly at the exact solution, once per iteration.  Apart from
its Gram product a CG step only makes in-place passes over C x d arrays,
with no allocation: the scratch is allocated once per fit, and each solve
copies X and G X once and moves the copies in place.  The loss is one
np.vdot over constants (XY', sum ||y_c||^2, core._class_major) built once
per fit, XY' being also the right-hand side of every step.  The first call
on a fresh dataset builds and caches the normal equations, which is one
O(N d^2) pass.

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
    FeatureLayout,
    Model,
    NormalEquations,
    _class_major,
    _dataset_objective,
    _group_norms,
    _labeled_weights,
    _objective,
    _paired_weights,
    _penalty_args,
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

# the forcing term's factor and cap (Eisenstat and Walker's gamma = eta_max):
# an inner solve after the second must at least halve sqrt(r'M^-1 r), unless
# it reaches _CG_STEPS first.  Their 0.9 also ends solves early at lambda <= 1
# on ill-conditioned data, where the joint recurrence's objective then lands
# up to 8.5e-4 relative away from the per-class loop's; at 0.6 and below
# those fits are as before, and large-lambda fits take about as few CG steps
_FORCING = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for fit.

    lambda1 weighs the skeletal norm, lambda2 the attribute norm.  The solver
    stops once the relative objective decrease falls below tol or after
    max_iters iterations.  tol is also the tightest inner stop: an inner
    solve ends once the preconditioned residual energy, summed over the
    classes, has fallen to a stop ratio times its value at the start of the
    solve, where the ratio is tol for the first two solves and
    max(tol, eta^2) after them, eta following the outer progress (see the
    module docstring); each CG step is one Gram product, at most _CG_STEPS
    per iteration.  epsilon floors block norms inside the reweighting
    diagonals, which makes it also the smoothing radius of F_eps
    (smoothed_objective), the objective the iterations minimise; seed drives
    the random initialization.
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
    the exact path with both weights zero), one entry per iteration, and
    cg_stop_ratios the stop ratio its inner solve was given: tol for the
    first two, max(tol, eta^2) after them (tol throughout on the exact
    path, which has no inner solve to stop).
    """

    objective_trace: tuple[float, ...]
    loss_trace: tuple[float, ...]
    iterations_run: int
    converged: bool
    wall_time: float
    cg_steps: tuple[int, ...]
    cg_stop_ratios: tuple[float, ...]


def _reweights(norms, dims, epsilon):
    """Reweighting diagonals from norms, the block norms of every class
    (_group_norms over dims with one entry per block along the last axis: a
    vector, or the class-major C x blocks matrix fit works in).

    Every coordinate of block k of class c gets
    1 / (2 * max(norms[c, k], epsilon)), so shrinking blocks are penalized
    ever harder on the next solve.
    """
    return (0.5 / np.maximum(norms, epsilon)).repeat(dims, axis=-1)


# the system that zero penalty weights leave unpenalised, by
# (lambda1 == 0, lambda2 == 0): it must be positive definite on its live rows
_UNPENALISED = {
    (True, True): "joint system (G = [T; O][T; O]')",
    (True, False): "skeleton-weight system (T T')",
    (False, True): "object-weight system (O O')",
}


def _penalty_weights(layout, lam1, lam2):
    """The per-coordinate penalty weights of the stacked weights [W; U], one
    entry per row of [W; U] (a row of the class-major X'): lam1 on skeleton
    coordinates, lam2 on object coordinates."""
    return np.repeat([lam1, lam2], [layout.d_t, layout.d_o])


def _irls_step(gram, rhs, layout, lam1, lam2, zero):
    """fit's update step(x, gram_x, reweights, ratio) of the class-major
    weights x = [W; U]' (C x d, C-ordered: one contiguous row per class).

    For every class c it moves x_c towards the solution of
    (G + diag(lam * reweights[c])) x_c = XY[:, c] and returns the new x,
    x G at the new x, the number of CG steps it took and rz0, the summed
    r'M^-1 r at x, from which fit sets the stop ratio of later solves.
    gram_x is x G, which fit already holds for the loss at x; G is
    symmetric, so x G is (G X)' and every Gram product is one C x d by
    d x d product.  With both weights zero that system is G X = XY in every
    iteration, so it is factored here once and step returns its exact
    solution after 0 CG steps and with rz0 = 0, with x G formed directly.
    Otherwise the C systems are one block-diagonal SPD system in all of x,
    and step takes conjugate-gradient steps on it from x, preconditioned by
    its diagonal: one recurrence, whose dot products sum over every class,
    so the step length alpha and the direction update beta are scalars.
    It stops after _CG_STEPS steps, or earlier once r'M^-1 r summed over
    the classes is at most ratio times rz0: that compares a quantity with
    itself, so the rule depends on neither N nor the scale of the loss.
    step keeps no state between calls; fit chooses each ratio.  A start
    with r'M^-1 r = 0 (x already solves the system) has a zero search
    direction: its step length is 0 and it stops after one step with x
    unchanged.

    The work per CG step is one Gram product plus in-place passes over
    C x d arrays, with no allocation: the scratch (p, p G, r, q, z, the
    shift and the preconditioner) is allocated here, once per fit, and
    every step of every solve writes into it.  A solve copies x and x G
    once at its start, and each CG step moves the copies in place
    (x + alpha p, x G + alpha p G).  So step returns fresh arrays, never
    views of its scratch: a later call changes nothing it returned, and
    two fits never share scratch.

    zero marks the rows whose diagonal entry of G is 0 (fit computes it
    once, for this and for its start weights).  Such a row belongs to a
    feature that is zero in every instance, so its row and column of G and
    its row of XY are 0 too.  Its weight is held where it is (fit starts it
    at 0): its preconditioner entry is 0, and it is left out of the exact
    solve and of the positive-definiteness check.  The system is positive
    definite on the other rows when the Gram block of the unpenalised rows
    (the side of every zero weight) is positive definite on its live rows;
    that is checked here with a Cholesky factorization, and
    SingularityError names the system (_UNPENALISED) that fails.
    """
    lam = _penalty_weights(layout, lam1, lam2)
    live = np.flatnonzero(~zero)
    system = _UNPENALISED.get((lam1 == 0.0, lam2 == 0.0))
    if system is not None:
        rows = live[lam[live] == 0.0]
        try:
            factor = np.linalg.cholesky(gram[np.ix_(rows, rows)])
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"{system} is not positive definite (Cholesky failed: {exc}); "
                "with a zero penalty weight this means the Gram matrix is rank deficient"
            ) from exc
    if lam1 == lam2 == 0.0:
        exact = np.zeros_like(rhs)
        exact[:, live] = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs[:, live].T)).T
        return lambda x, gram_x, reweights, ratio: (exact, exact @ gram, 0, 0.0)
    # 1 / (inf + shift) is exactly 0: the preconditioner entry of a zero row
    diagonal = np.where(zero, np.inf, np.diag(gram))
    # the scratch of every solve, each C x d and C-ordered, so each Gram
    # product reads a C-ordered direction
    p, gram_p, r, q, z, shift, precond = np.empty((7,) + rhs.shape)

    def step(x, gram_x, reweights, ratio):
        np.multiply(lam, reweights, out=shift)
        np.add(diagonal, shift, out=precond)
        np.divide(1.0, precond, out=precond)
        # r = XY' - (x G + shift x)
        np.multiply(shift, x, out=r)
        np.add(r, gram_x, out=r)
        np.subtract(rhs, r, out=r)
        np.multiply(precond, r, out=p)
        # one recurrence over every class: each dot product runs over the
        # whole C x d array, so every step length is one scalar
        rz = rz0 = float(np.vdot(r, p))
        target = ratio * rz0
        # the new x and x G: fresh arrays, moved in place by every CG step
        x, gram_x = x.copy(), gram_x.copy()
        for taken in range(1, _CG_STEPS + 1):
            np.matmul(p, gram, out=gram_p)
            np.multiply(shift, p, out=q)
            np.add(q, gram_p, out=q)
            pq = float(np.vdot(p, q))
            # p'q is 0 only at p = 0, which needs r'z = 0: nothing to move
            alpha = rz / pq if pq else 0.0
            np.multiply(p, alpha, out=z)
            np.add(x, z, out=x)
            np.multiply(gram_p, alpha, out=z)
            np.add(gram_x, z, out=gram_x)
            if taken == _CG_STEPS:
                break
            np.multiply(q, alpha, out=q)
            np.subtract(r, q, out=r)
            np.multiply(precond, r, out=z)
            rz_next = float(np.vdot(r, z))
            # a zero rz (p = 0 left r as it was) stops here, and every later
            # rz passed this test, so the ratio below never divides by 0
            if rz_next <= target:
                break
            np.multiply(p, rz_next / rz, out=p)
            np.add(p, z, out=p)
            rz = rz_next
        return x, gram_x, taken, rz0

    return step


def _stop_ratio(rz0_older, rz0_last, tol):
    """The stop ratio of the next inner solve, from the starting energies
    rz0 of the two solves before it: max(tol, eta^2) with
    eta = _FORCING * min(1, rz0_last / rz0_older), Eisenstat and Walker's
    choice 2 on energies, lagged by one solve.  rz0_older = 0 gives tol:
    before the third solve (fit passes 0 for a solve that has not run),
    and on the exact path, whose rz0 is always 0.  A penalised solve with
    rz0 = 0 leaves x as it was, which ends the fit, so it is never an
    older solve."""
    if rz0_older == 0.0:
        return tol
    eta = _FORCING * min(1.0, rz0_last / rz0_older)
    return max(tol, eta * eta)


def _fit(
    blocks: NormalEquations, layout: FeatureLayout, config: SolverConfig, start=None
) -> tuple[np.ndarray, FitReport]:
    """fit's iterations on the normal equations blocks of data laid out as
    layout: the class-major weights X' = [W; U]' (C x d) and the FitReport.

    It reads only blocks and layout, so it fits derived blocks as it fits a
    dataset's: a cue mask (one side's rows and columns of G and rows of XY
    zeroed), or a fold's complement (the whole set's blocks minus the
    fold's).  wall_time counts from start, a time.perf_counter() reading
    (the call itself by default).
    """
    start = time.perf_counter() if start is None else start
    lam1, lam2, eps = config.lambda1, config.lambda2, config.epsilon
    dims = layout.block_dims
    terms = _class_major(blocks)
    zero = np.diag(blocks.gram) == 0.0  # the zero features: step holds these at 0
    step = _irls_step(blocks.gram, terms[0], layout, lam1, lam2, zero)
    rng = np.random.default_rng(config.seed)
    # class-major, C x d: the d x C draws transposed, so the start is the same
    x = np.ascontiguousarray(0.01 * rng.standard_normal(blocks.xy.shape).T)
    x[:, zero] = 0.0

    gram_x = x @ blocks.gram
    norms, _, prev_obj = _objective(layout, x, gram_x, terms, lam1, lam2)
    objective_trace: list[float] = []
    loss_trace: list[float] = []
    cg_steps: list[int] = []
    stop_ratios: list[float] = []
    converged = False
    # the starting energies of the last two solves (0 for one not yet run)
    rz0_older = rz0_last = 0.0

    for _ in range(config.max_iters):
        ratio = _stop_ratio(rz0_older, rz0_last, config.tol)
        x, gram_x, taken, rz0 = step(x, gram_x, _reweights(norms, dims, eps), ratio)
        rz0_older, rz0_last = rz0_last, rz0
        cg_steps.append(taken)
        stop_ratios.append(ratio)
        norms, loss_val, obj = _objective(layout, x, gram_x, terms, lam1, lam2)
        loss_trace.append(loss_val)
        objective_trace.append(obj)
        if abs(prev_obj - obj) / max(1.0, prev_obj) < config.tol:
            converged = True
            break
        prev_obj = obj

    report = FitReport(
        objective_trace=tuple(objective_trace),
        loss_trace=tuple(loss_trace),
        iterations_run=len(objective_trace),
        converged=converged,
        wall_time=time.perf_counter() - start,
        cg_steps=tuple(cg_steps),
        cg_stop_ratios=tuple(stop_ratios),
    )
    return x, report


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
    over every class, with scalar step lengths; each is its Gram product
    plus in-place passes over scratch allocated once per fit (see
    _irls_step).  XY' and sum_c ||y_c||^2 are built once per fit
    (_class_major), and each iteration's loss is one np.vdot (_gram_loss).
    The inner solve ends once the preconditioned residual energy summed over
    the classes is at most a stop ratio times its value rz0 at the start of
    the solve: tol for the first two solves, then max(tol, eta^2) with
    eta = _FORCING * min(1, rz0_{k-1} / rz0_{k-2}) for solve k
    (_stop_ratio), so the inner precision follows the outer progress.  The
    report's cg_steps lists the steps taken and cg_stop_ratios the ratio
    each solve was given.  With both weights zero it solves exactly with a
    factorization made once, before the first iteration, and forms G X at
    that solution in each iteration.  The solver
    holds X class-major (C x d, see the module docstring); the report's
    losses and objectives come from the carried G X, so they agree with loss
    and objective at model.weights at rounding level, not bit for bit.

    The weights of a zero feature, one whose diagonal entry of G is 0 in
    float64 (entries below about 1.5e-162 in magnitude count, their
    squares underflowing), start and stay at exactly 0.  A zero weight
    whose side has a rank-deficient Gram block (T T' or O O', or G itself
    when both are zero) on its other features raises SingularityError.

    fit is a thin wrapper: the iterations (_fit) read only
    dataset.normal_equations and dataset.layout, and make no pass over the
    N instances.  On a fresh dataset the first use builds and caches the
    normal equations (O(N d^2)), which raises ValidationError for
    unlabeled data, and that build counts towards wall_time.
    """
    start = time.perf_counter()
    x, report = _fit(dataset.normal_equations, dataset.layout, config, start)
    model = Model(
        layout=dataset.layout,
        weights=x.T,
        class_names=dataset.class_names,
        hyperparams=config,
        names=dataset.names,
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


def _half_gradient(blocks: NormalEquations, layout: FeatureLayout, x, lam1, lam2, epsilon):
    """x G - XY' + lambda * D x at the class-major weights x = [W; U]' (C x d),
    half the gradient of F_eps, read from blocks and layout only; the caller
    checks the arguments.  lambda is lam1 on skeleton rows and lam2 on
    object rows, and D is fit's reweighting diagonals (_reweights),
    h_epsilon'(t) / (2 t) for a block of norm t (core._huber)."""
    lam, dims = _penalty_weights(layout, lam1, lam2), layout.block_dims
    diag = _reweights(_group_norms(x, dims, axis=-1), dims, epsilon)
    return x @ blocks.gram - blocks.xy.T + lam * diag * x


def stationarity_residual(
    dataset: Dataset, model: Model, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """Worst normalized first-order residual over all classes and both sides.

    For each class the residual of the stacked weights x = [w; u] is
    G x - XY + lambda * D x, with D rebuilt from the current x and lambda
    being lambda1 on skeleton rows and lambda2 on object rows: half of
    smoothed_gradients, the gradient of F_eps.  Its skeleton rows are scaled
    by 1 / (1 + ||w||) and its object rows by 1 / (1 + ||u||).  At a fixed
    point of the reweighted updates, the minimiser of F_eps, it is zero.
    The model must match the dataset's layout and class names, as in
    predict_batch.
    """
    x = _paired_weights(model, dataset, labeled=True).T
    res = _half_gradient(
        dataset.normal_equations, dataset.layout, x, *_penalty_args(lambda1, lambda2, epsilon)
    )
    d_t = dataset.layout.d_t
    return max(
        float(np.max(np.linalg.norm(side, axis=1) / (1.0 + np.linalg.norm(mat, axis=1))))
        for side, mat in ((res[:, :d_t], x[:, :d_t]), (res[:, d_t:], x[:, d_t:]))
    )


def smoothed_objective(
    dataset: Dataset, weights, lambda1: float, lambda2: float, epsilon: float
) -> float:
    """F_eps, the objective fit minimises: objective with every block norm t
    replaced by h_epsilon(t), which is t from epsilon up and
    (t^2 + epsilon^2) / (2 epsilon) below.

    F_eps is C^1, which makes finite-difference checks of smoothed_gradients
    meaningful.  F <= F_eps <= F + (epsilon / 2) * sum_g lambda_g, the sum
    over every block of every class, with equality on the right at 0.
    """
    return _dataset_objective(dataset, weights, lambda1, lambda2, epsilon)[2]


def smoothed_gradients(
    dataset: Dataset, weights, lambda1: float, lambda2: float, epsilon: float
) -> np.ndarray:
    """Analytic gradient of smoothed_objective, one array shaped like the weights [W; U]:
    twice the vector whose rows stationarity_residual scales."""
    x, penalty = _labeled_weights(dataset, weights).T, _penalty_args(lambda1, lambda2, epsilon)
    return (2.0 * _half_gradient(dataset.normal_equations, dataset.layout, x, *penalty)).T
