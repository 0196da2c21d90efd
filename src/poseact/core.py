"""Block-structured linear activity models.

An instance pairs a skeleton feature vector t (one block per body joint)
with an object feature vector o (one block per tracked object and attribute
modality).  A model keeps one weight column per activity class and scores an
instance as t'w_c + o'u_c; the class with the largest raw score wins, ties
going to the lowest class index.  Instances sit in the *columns* of the data
matrices: a dataset of N instances stores one d x N feature matrix [T; O],
skeleton rows first, with one-hot labels as rows of an N x C matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, LayoutError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycles broken at runtime
    from .data import Standardizer
    from .solver import SolverConfig

__all__ = [
    "FeatureLayout",
    "GroupNames",
    "Dataset",
    "NormalEquations",
    "Model",
    "default_names",
    "block_sums",
    "loss",
    "objective",
    "predict",
    "predict_batch",
]


# seeds feed numpy's generators, which take any unsigned 64-bit integer
SEED_RANGE = (0, 2**64)


def check_number(value, name, low=0.0, strict=False, high=None):
    """float(value) when value is a finite number in range, else raise ConfigError.

    The range is [low, inf), or (low, inf) when strict; high, when given,
    makes it the open interval (low, high).
    """
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):  # float() takes these too
            raise TypeError
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if high is not None:
        ok, bound = low < out < high, f"strictly between {low:g} and {high:g}"
    elif strict:
        ok, bound = out > low, f"> {low:g}"
    else:
        ok, bound = out >= low, f">= {low:g}"
    if not (ok and math.isfinite(out)):
        raise ConfigError(f"{name} must be finite and {bound}, got {value!r}")
    return out


def check_int(value, name, low, high=None, error=ConfigError):
    """int(value) when value is an integer (not a bool) in [low, high), else raise error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value >= high):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} out of range: must be {bound}, got {value}")
    return int(value)


def check_sequence(values, name, error=ConfigError):
    """tuple(values) when values is iterable, else raise error."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None


def _positive_int_tuple(values, what):
    items = check_sequence(values, what, LayoutError)
    if not items:
        raise LayoutError(f"{what} must not be empty")
    return tuple(check_int(v, f"every entry of {what}", 1, error=LayoutError) for v in items)


def _block_slices(dims):
    return tuple(slice(stop - dim, stop) for dim, stop in zip(dims, itertools.accumulate(dims)))


def _str_tuple(values, what):
    items = check_sequence(values, what, ValidationError)
    for v in items:
        if not isinstance(v, str) or not v:
            raise ValidationError(f"{what} must be non-empty strings, got {v!r}")
        try:  # a lone surrogate cannot be written to a UTF-8 file
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"{what} must be encodable as UTF-8, got {v!r}") from None
    return items


@dataclass(frozen=True)
class FeatureLayout:
    """Block structure shared by datasets and models.

    joint_dims[j] is the feature dimension of body joint j.  Each of the
    object_count objects carries one block per attribute modality, of size
    modality_dims[m], laid out object-major: all M modality blocks of object
    0 first, then object 1, and so on.
    """

    joint_dims: tuple[int, ...]
    object_count: int
    modality_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "joint_dims", _positive_int_tuple(self.joint_dims, "joint_dims")
        )
        object.__setattr__(
            self, "modality_dims", _positive_int_tuple(self.modality_dims, "modality_dims")
        )
        object.__setattr__(
            self, "object_count", check_int(self.object_count, "object_count", 1, error=LayoutError)
        )

    @property
    def n_joints(self) -> int:
        return len(self.joint_dims)

    @property
    def n_modalities(self) -> int:
        return len(self.modality_dims)

    @cached_property
    def d_t(self) -> int:
        """Total skeleton feature dimension."""
        return sum(self.joint_dims)

    @cached_property
    def d_o(self) -> int:
        """Total object feature dimension."""
        return self.object_count * sum(self.modality_dims)

    @cached_property
    def object_block_dims(self) -> tuple[int, ...]:
        """Row count of every (object, modality) block, object-major."""
        return self.modality_dims * self.object_count

    @cached_property
    def block_dims(self) -> tuple[int, ...]:
        """Row count of every block of the stacked weights [W; U]: the joints,
        then the (object, modality) blocks."""
        return self.joint_dims + self.object_block_dims

    @cached_property
    def joint_slices(self) -> tuple[slice, ...]:
        """One slice into the skeleton axis per joint."""
        return _block_slices(self.joint_dims)

    @cached_property
    def object_block_slices(self) -> tuple[slice, ...]:
        """One slice into the object axis per (object, modality) block, object-major."""
        return _block_slices(self.object_block_dims)

    def object_block_index(self, obj: int, modality: int) -> int:
        """Flat index of object obj's block for the given modality."""
        obj = check_int(obj, "object index", 0, self.object_count, error=LayoutError)
        modality = check_int(modality, "modality index", 0, self.n_modalities, error=LayoutError)
        return obj * self.n_modalities + modality


@dataclass(frozen=True)
class GroupNames:
    """Human-readable labels for joints, objects, and modalities."""

    joints: tuple[str, ...]
    objects: tuple[str, ...]
    modalities: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "joints", _str_tuple(self.joints, "joint names"))
        object.__setattr__(self, "objects", _str_tuple(self.objects, "object names"))
        object.__setattr__(self, "modalities", _str_tuple(self.modalities, "modality names"))

    def check_against(self, layout: FeatureLayout) -> None:
        for names, count, noun, plural in (
            (self.joints, layout.n_joints, "joint", "joints"),
            (self.objects, layout.object_count, "object", "objects"),
            (self.modalities, layout.n_modalities, "modality", "modalities"),
        ):
            if len(names) != count:
                raise LayoutError(f"{len(names)} {noun} names for {count} {plural}")


def default_names(layout: FeatureLayout) -> GroupNames:
    """Placeholder names used when a producer supplies none."""
    return GroupNames(
        joints=tuple(f"joint_{j}" for j in range(layout.n_joints)),
        objects=tuple(f"object_{o}" for o in range(layout.object_count)),
        modalities=tuple(f"modality_{m}" for m in range(layout.n_modalities)),
    )


def _real_array(value, what, ndim=2):
    """value as an uncopied array of real numbers of rank ndim (None: any rank)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape" for ragged nesting
        raise ValidationError(f"{what} must be a rectangular array, got ragged nesting") from None
    if arr.dtype.kind not in "fiu":  # bool, str, bytes, object, complex
        raise ValidationError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise LayoutError(f"{what} must be a {ndim}-d array, got shape {arr.shape}")
    return arr


class _Fresh(NamedTuple):
    """A matrix that a producer in this package built for one Dataset and
    drops: Dataset keeps it instead of copying it.  The producer hands it over
    laid out as a copy would be, so the dataset is the same either way."""

    array: np.ndarray


def _frozen_array(value, what, ndim=2):
    """value as a read-only float64 array: a copy, unless value is _Fresh.

    A _Fresh array is kept as it is, and it and every array behind it (its
    base chain) are made read-only, so no view its producer made can write
    into it.
    """
    if isinstance(value, _Fresh):
        owner = value.array
        while isinstance(owner, np.ndarray):
            owner.setflags(write=False)
            owner = owner.base
        return value.array
    arr = np.array(_real_array(value, what, ndim), dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")


class NormalEquations(NamedTuple):
    """The stacked Gram G = [T; O][T; O]' (d x d, d = d_t + d_o), XY = [T Y; O Y]
    and the per-class ||y_c||^2; read-only."""

    gram: np.ndarray
    xy: np.ndarray
    yy: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable paired observations with optional one-hot labels.

    features is the d x N matrix [skeleton; objects], instance i in column
    i, stored as a read-only copy in the memory order it was given;
    skeleton (d_t x N) and objects (d_o x N) are its row views.  Only the
    producers in data (generate, split, standardize, Standardizer.apply,
    load_dataset) skip that copy: each hands over the one d x N matrix it
    built, which the dataset keeps, read-only, as it would a copy.  labels,
    when present, is N x C with exactly one 1.0 per row and 0.0 elsewhere,
    and class_names gives the string behind each column.
    """

    layout: FeatureLayout
    features: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)
    class_names: tuple[str, ...] | None = None
    names: GroupNames | None = None

    def __post_init__(self):
        features = _frozen_array(self.features, "feature matrix")
        rows = self.layout.d_t + self.layout.d_o
        if features.shape[0] != rows:
            raise LayoutError(f"feature matrix has {features.shape[0]} rows, layout expects {rows}")
        if features.shape[1] < 1:
            raise ValidationError("a dataset needs at least one instance")
        _require_finite(features, "feature matrix")
        object.__setattr__(self, "features", features)

        if self.labels is not None:
            labels = _frozen_array(self.labels, "label matrix")
            if labels.shape[0] != features.shape[1]:
                raise LayoutError(
                    f"label matrix has {labels.shape[0]} rows for {features.shape[1]} instances"
                )
            if labels.shape[1] < 2:
                raise ValidationError("labeled data needs at least two classes")
            is_one = labels == 1.0
            if not np.all(is_one | (labels == 0.0)) or not np.all(is_one.sum(axis=1) == 1):
                raise ValidationError(
                    "labels must be one-hot rows: exactly one 1.0, all other entries 0.0"
                )
            object.__setattr__(self, "labels", labels)
            class_names = self.class_names
            if class_names is None:
                class_names = tuple(f"class_{c}" for c in range(labels.shape[1]))
            class_names = _str_tuple(class_names, "class names")
            if len(class_names) != labels.shape[1]:
                raise LayoutError(
                    f"{len(class_names)} class names for {labels.shape[1]} label columns"
                )
            if len(set(class_names)) != len(class_names):
                raise ValidationError("class names must be unique")
            object.__setattr__(self, "class_names", class_names)
        elif self.class_names is not None:
            object.__setattr__(self, "class_names", _str_tuple(self.class_names, "class names"))

        names = self.names if self.names is not None else default_names(self.layout)
        names.check_against(self.layout)
        object.__setattr__(self, "names", names)

    @property
    def skeleton(self) -> np.ndarray:
        return self.features[: self.layout.d_t]

    @property
    def objects(self) -> np.ndarray:
        return self.features[self.layout.d_t :]

    @property
    def n_instances(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int | None:
        return None if self.labels is None else self.labels.shape[1]

    @cached_property
    def normal_equations(self) -> NormalEquations:
        """Everything the loss and the solver need from the data, built on first use.

        G = [T; O][T; O]' and XY = [T; O] Y are one product each over
        features, one O(N d^2) pass; nothing after it depends on N.  G comes
        from a symmetric rank-k update, so it is exactly symmetric.  The data
        arrays are read-only, so the cached blocks cannot go stale; a dataset
        made by standardize, split or Standardizer.apply builds its own.
        fit, loss, objective, stationarity_residual and the smoothed
        diagnostics read the data only through these blocks and the layout,
        and their check for labels is the one here: unlabeled data raises.
        """
        if self.labels is None:
            raise ValidationError("the normal equations need a labeled dataset")
        f_mat, y_mat = self.features, self.labels
        blocks = NormalEquations(f_mat @ f_mat.T, f_mat @ y_mat, np.sum(y_mat * y_mat, axis=0))
        for block in blocks:
            block.setflags(write=False)
        return blocks

    @cached_property
    def label_indices(self) -> np.ndarray | None:
        """The class index of every instance, the argmax of its one-hot label
        row (N entries, read-only, built on first use); None for unlabeled
        data.  The labels are read-only, so it cannot go stale."""
        if self.labels is None:
            return None
        indices = np.argmax(self.labels, axis=1)
        indices.setflags(write=False)
        return indices

    def class_counts(self) -> dict[str, int] | None:
        """Instances per class, or None for unlabeled data."""
        if self.labels is None:
            return None
        counts = self.labels.sum(axis=0).astype(int)
        return {name: int(n) for name, n in zip(self.class_names, counts)}


@dataclass(frozen=True, eq=False)
class Model:
    """Per-class weight columns over skeleton (w) and object (u) features.

    weights is the (d_t + d_o) x C matrix [w; u], stored as a read-only
    column-major copy, one contiguous column per class, whatever order it
    was given in: x'weights for one frame x = [t; o] is then one dot product
    per column, which OpenBLAS runs in about half the time it takes on a
    row-major copy.  w and u are its first d_t and last d_o rows (views, not
    copies), so one frame scores as [t; o]'weights.  names
    and standardizer are optional metadata carried along so reports can
    label blocks and so raw inputs can be re-scaled the way the training
    data was; both must match the layout.  Scoring itself never touches
    either.
    """

    layout: FeatureLayout
    weights: np.ndarray = field(repr=False)
    class_names: tuple[str, ...]
    hyperparams: "SolverConfig"
    names: GroupNames | None = None
    standardizer: "Standardizer | None" = field(default=None, repr=False)

    def __post_init__(self):
        class_names = _str_tuple(self.class_names, "class names")
        if not class_names:
            raise ValidationError("a model needs at least one class")
        if len(set(class_names)) != len(class_names):
            raise ValidationError("class names must be unique")
        weights = _weight_matrix(self.weights, self.layout, len(class_names)).copy(order="F")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "class_names", class_names)
        names = self.names if self.names is not None else default_names(self.layout)
        names.check_against(self.layout)
        object.__setattr__(self, "names", names)
        if self.standardizer is not None and self.standardizer.layout != self.layout:
            raise LayoutError("standardizer layout does not match model layout")

    @property
    def w(self) -> np.ndarray:
        return self.weights[: self.layout.d_t]

    @property
    def u(self) -> np.ndarray:
        return self.weights[self.layout.d_t :]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


# --- norms, loss, scoring -------------------------------------------------


def _weight_matrix(weights, layout: FeatureLayout, n_classes) -> np.ndarray:
    """The stacked [W; U], real, finite and d x n_classes, as a float array (uncopied if
    it is one); Model and every function that reads the whole matrix check it here."""
    arr = _real_array(weights, "weight matrix")
    expected = (layout.d_t + layout.d_o, n_classes)
    if arr.shape != expected:
        raise LayoutError(f"weight matrix has shape {arr.shape}, expected {expected}")
    _require_finite(arr, "weight matrix")
    return arr.astype(np.float64, copy=False)


@functools.lru_cache(maxsize=64)
def _block_starts(dims) -> np.ndarray:
    """The offset of every block of dims, read-only and cached per dims tuple:
    np.cumsum on a tuple costs as much as the reduction it feeds."""
    starts = np.cumsum(dims) - dims
    starts.setflags(write=False)
    return starts


def block_sums(mat, dims, axis=0) -> np.ndarray:
    """Sums of mat over consecutive blocks of dims[k] entries along axis, all classes at once.

    mat is a vector or a d x C matrix with d == sum(dims) along axis: 0 for
    the stacked weights [W; U] as they are shown, -1 for their class-major
    transpose (C x d, C-ordered, one contiguous row per class), which the
    solver and every diagnostic work in.  The result has one entry per
    block along that axis, and both layouts give the same bits.  Every
    block quantity goes through here, the group norms of _group_norms
    included.
    """
    return np.add.reduceat(mat, _block_starts(tuple(dims)), axis=axis)


def _group_norms(mat, dims, axis=0) -> np.ndarray:
    """Euclidean norm of every block of every class of mat, one entry per block
    along axis (as in block_sums)."""
    return np.sqrt(block_sums(mat * mat, dims, axis))


def _huber(norms, epsilon) -> np.ndarray:
    """h_epsilon of every block norm t in norms: t from epsilon up and
    (t^2 + epsilon^2) / (2 epsilon) below, the Huber function plus epsilon / 2.
    It is C^1, with h_epsilon'(t) / t = 1 / max(t, epsilon): twice fit's
    reweighting diagonal, so fit minimises the penalty over h_epsilon."""
    return np.where(norms < epsilon, (norms * norms + epsilon * epsilon) / (2.0 * epsilon), norms)


def _penalty(layout: FeatureLayout, norms, lam1, lam2) -> float:
    """lam1 times the skeletal norm plus lam2 times the attribute norm, summed from
    norms, the block norms of the stacked weights [W; U] over layout.block_dims,
    class-major: one entry per block along the last axis (C x blocks).

    The skeletal norm sums the joint-block norms over all classes, an l1 norm
    across joints and an l2 norm inside each, which is what drives whole
    joints to zero; the attribute norm does the same over the (object,
    modality) blocks.
    """
    joints = layout.n_joints
    return lam1 * float(norms[..., :joints].sum()) + lam2 * float(norms[..., joints:].sum())


def _class_major(blocks: NormalEquations):
    """XY' (C x d, C-ordered) and sum_c ||y_c||^2 of the normal equations
    blocks: the class-major constants of the loss (_gram_loss), XY' being
    also the solver's right-hand side.  fit builds them once per fit."""
    return np.ascontiguousarray(blocks.xy.T), float(blocks.yy.sum())


def _gram_loss(x, gram_x, xy, yy) -> float:
    """||[T; O]'X - Y||^2 for the stacked weights X = [W; U], expanded over the
    normal equations in O(C d^2) as one np.vdot: x'(x G - 2 XY') + yy.
    Class-major: x is X' (C x d), gram_x is X'G, which the caller computes
    (the solver carries it through its CG steps), and xy and yy are the
    constants of _class_major.

    The expansion rounds with an absolute error of about
    eps * (||Y||^2 + ||T'W + O'U||^2), not eps * loss, so a near-zero loss
    can come out slightly negative; it is clamped at 0.
    """
    return max(0.0, float(np.vdot(x, gram_x - 2.0 * xy) + yy))


def _objective(layout: FeatureLayout, x, gram_x, terms, lam1, lam2, epsilon=None):
    """(block norms, loss, F) at the class-major x = [W; U]' (C x d), given
    gram_x = x G and terms = _class_major(blocks); given epsilon, F_eps, whose
    penalty reads h_epsilon (_huber) of every block norm.  The one route to F
    and F_eps: every iteration of fit, objective and smoothed_objective.  It
    reads only the normal equations' constants and the layout and checks no
    argument."""
    norms = _group_norms(x, layout.block_dims, axis=-1)
    loss_val = _gram_loss(x, gram_x, *terms)
    smoothed = norms if epsilon is None else _huber(norms, epsilon)
    return norms, loss_val, loss_val + _penalty(layout, smoothed, lam1, lam2)


def _penalty_args(lambda1, lambda2, *epsilon):
    """lambda1, lambda2 and, when given, epsilon, checked as SolverConfig
    checks them; the argument check of every diagnostic."""
    lambdas = check_number(lambda1, "lambda1"), check_number(lambda2, "lambda2")
    return lambdas + tuple(check_number(eps, "epsilon", strict=True) for eps in epsilon)


def _labeled_weights(dataset: Dataset, weights):
    """The stacked weights [W; U] as a float array, checked against the
    dataset's layout and class count.  dataset.normal_equations, which every
    caller reads next, holds the one label check: unlabeled data raises."""
    return _weight_matrix(weights, dataset.layout, dataset.normal_equations.xy.shape[1])


def loss(dataset: Dataset, weights) -> float:
    """Squared Frobenius residual of the joint linear fit [T; O]'[W; U] against the labels.

    Read from dataset.normal_equations with no pass over the N instances;
    the first call on a fresh dataset builds and caches those blocks
    (O(N d^2)).
    """
    return _dataset_objective(dataset, weights, 0.0, 0.0)[1]


def _dataset_objective(dataset: Dataset, weights, *penalty):
    """_objective's (block norms, loss, F) of weights on dataset, or F_eps when
    penalty (lambda1, lambda2[, epsilon]) carries epsilon, after every
    argument is checked: the wrapper of loss, objective and
    smoothed_objective, which passes dataset.normal_equations and layout."""
    penalty = _penalty_args(*penalty)
    x, blocks = _labeled_weights(dataset, weights).T, dataset.normal_equations
    return _objective(dataset.layout, x, x @ blocks.gram, _class_major(blocks), *penalty)


def objective(dataset: Dataset, weights, lambda1: float, lambda2: float) -> float:
    """Loss plus lambda1 times the skeletal norm plus lambda2 times the attribute norm."""
    return _dataset_objective(dataset, weights, lambda1, lambda2)[2]


_FLOAT64 = np.dtype(np.float64)


def _frame_part(value, what):
    """value as a float64 array of any rank, for predict to check the shape: a
    float64 ndarray as it is, anything else through _real_array
    (ValidationError for bool, str, object or complex entries and for ragged
    nesting) and then cast."""
    if type(value) is np.ndarray and value.dtype is _FLOAT64:  # about 0.04 us a frame
        return value
    return _real_array(value, what, ndim=None).astype(np.float64, copy=False)


def predict(model: Model, skeleton_vec, object_vec) -> tuple[int, np.ndarray]:
    """Score one instance and return (class index, raw per-class scores).

    Scores are plain affine responses t'w_c + o'u_c with no squashing; exact
    ties resolve to the lowest class index.  The vectors must hold real
    numbers (a bool, string, object or complex frame raises
    ValidationError); a float64 array is used as it is, anything else is
    checked and cast.  The frame is stacked as x = [t; o] and scored with
    the one product x'[W; U] against the column-major model.weights.

    Before the product, x is screened with one dot product: a finite x'x
    proves every entry finite, since a NaN or an infinity makes it NaN or
    inf.  Only a frame whose x'x is not finite gets the exact per-entry
    check, so a frame too large to square in float64 still scores, and NaN
    or +-inf raises ValidationError.  Neither step warns: np.vdot, unlike
    ndarray.dot, does not report an overflow.
    """
    t = _frame_part(skeleton_vec, "skeleton vector")
    o = _frame_part(object_vec, "object vector")
    if t.shape != (model.layout.d_t,):
        raise LayoutError(
            f"skeleton vector has shape {t.shape}, expected ({model.layout.d_t},)"
        )
    if o.shape != (model.layout.d_o,):
        raise LayoutError(
            f"object vector has shape {o.shape}, expected ({model.layout.d_o},)"
        )
    x = np.concatenate((t, o))
    # before the product: inf * 0 there would raise a RuntimeWarning
    if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
        raise ValidationError("input vectors contain non-finite values")
    scores = x.dot(model.weights)  # ndarray.dot dispatches faster than @ on one frame
    return int(scores.argmax()), scores


def _paired_weights(model: Model, dataset: Dataset, labeled=False) -> np.ndarray:
    """model.weights, once model is checked against dataset: the same layout
    and, for labeled data, the same class names in the same order.  labeled
    marks a caller that needs labeled data; its weights are checked against
    the dataset's class count before the names are compared."""
    if dataset.layout != model.layout:
        raise LayoutError("dataset layout does not match model layout")
    x = _labeled_weights(dataset, model.weights) if labeled else model.weights
    if dataset.labels is not None and dataset.class_names != model.class_names:
        raise ValidationError(
            f"dataset classes {dataset.class_names} do not match "
            f"model classes {model.class_names}"
        )
    return x


def predict_batch(model: Model, dataset: Dataset) -> tuple[np.ndarray, float | None]:
    """Predicted class indices for every instance, plus accuracy when labeled."""
    weights = _paired_weights(model, dataset)
    # C x N: [W; U]' X runs several times faster than X'[W; U] on a C-order X
    predicted = np.argmax(weights.T @ dataset.features, axis=0)
    if dataset.labels is None:
        return predicted, None
    return predicted, float(np.mean(predicted == dataset.label_indices))
