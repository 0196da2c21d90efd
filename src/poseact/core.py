"""Block-structured linear activity models.

An instance pairs a skeleton feature vector t (one block per body joint)
with an object feature vector o (one block per tracked object and attribute
modality).  A model keeps one weight column per activity class and scores an
instance as t'w_c + o'u_c; the class with the largest raw score wins, ties
going to the lowest class index.  Instances sit in the *columns* of the data
matrices, so a dataset of N instances stores skeleton as d_t x N and objects
as d_o x N, with one-hot labels as rows of an N x C matrix.
"""

from __future__ import annotations

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
    "skeletal_norm",
    "attribute_norm",
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

    @property
    def n_object_blocks(self) -> int:
        return self.object_count * len(self.modality_dims)

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
    def joint_slices(self) -> tuple[slice, ...]:
        """One slice into the skeleton axis per joint."""
        return _block_slices(self.joint_dims)

    @cached_property
    def object_block_slices(self) -> tuple[slice, ...]:
        """One slice into the object axis per (object, modality) block, object-major."""
        return _block_slices(self.object_block_dims)

    def object_block_index(self, obj: int, modality: int) -> int:
        """Flat index of object obj's block for the given modality."""
        if not 0 <= obj < self.object_count:
            raise LayoutError(f"object index {obj} out of range [0, {self.object_count})")
        if not 0 <= modality < self.n_modalities:
            raise LayoutError(
                f"modality index {modality} out of range [0, {self.n_modalities})"
            )
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


def _frozen_array(value, what, ndim=2):
    arr = np.asarray(value)
    if arr.dtype.kind not in "fiu":  # bool, str, bytes, object, complex
        raise ValidationError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=np.float64, copy=True)
    if arr.ndim != ndim:
        raise LayoutError(f"{what} must be a {ndim}-d array, got shape {arr.shape}")
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

    skeleton is d_t x N and objects is d_o x N; instance i occupies column i
    of both.  labels, when present, is N x C with exactly one 1.0 per row and
    0.0 elsewhere, and class_names gives the string behind each column.
    """

    layout: FeatureLayout
    skeleton: np.ndarray = field(repr=False)
    objects: np.ndarray = field(repr=False)
    labels: np.ndarray | None = field(default=None, repr=False)
    class_names: tuple[str, ...] | None = None
    names: GroupNames | None = None

    def __post_init__(self):
        skeleton = _frozen_array(self.skeleton, "skeleton matrix")
        objects = _frozen_array(self.objects, "object matrix")
        if skeleton.shape[0] != self.layout.d_t:
            raise LayoutError(
                f"skeleton matrix has {skeleton.shape[0]} rows, layout expects {self.layout.d_t}"
            )
        if objects.shape[0] != self.layout.d_o:
            raise LayoutError(
                f"object matrix has {objects.shape[0]} rows, layout expects {self.layout.d_o}"
            )
        if skeleton.shape[1] != objects.shape[1]:
            raise LayoutError(
                f"skeleton holds {skeleton.shape[1]} instances but objects holds {objects.shape[1]}"
            )
        if skeleton.shape[1] < 1:
            raise ValidationError("a dataset needs at least one instance")
        _require_finite(skeleton, "skeleton matrix")
        _require_finite(objects, "object matrix")
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "objects", objects)

        if self.labels is not None:
            labels = _frozen_array(self.labels, "label matrix")
            if labels.shape[0] != skeleton.shape[1]:
                raise LayoutError(
                    f"label matrix has {labels.shape[0]} rows for {skeleton.shape[1]} instances"
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
            object.__setattr__(
                self, "class_names", _str_tuple(self.class_names, "class names")
            )

        names = self.names if self.names is not None else default_names(self.layout)
        names.check_against(self.layout)
        object.__setattr__(self, "names", names)

    @property
    def n_instances(self) -> int:
        return self.skeleton.shape[1]

    @property
    def n_classes(self) -> int | None:
        return None if self.labels is None else self.labels.shape[1]

    @cached_property
    def normal_equations(self) -> NormalEquations:
        """Everything the loss and the solver need from the data, built on first use.

        The build is one O(N d^2) pass over the instances; nothing after it
        depends on N.  The data arrays are read-only, so the cached blocks
        cannot go stale; a copy made by standardize, split or
        Standardizer.apply builds its own.
        """
        if self.labels is None:
            raise ValidationError("the normal equations need a labeled dataset")
        t_mat, o_mat, y_mat = self.skeleton, self.objects, self.labels
        # G is filled block by block: stacking T and O would copy N x d floats
        d_t = self.layout.d_t
        gram = np.empty((d_t + self.layout.d_o,) * 2)
        gram[:d_t, :d_t] = t_mat @ t_mat.T
        gram[:d_t, d_t:] = t_mat @ o_mat.T
        gram[d_t:, :d_t] = gram[:d_t, d_t:].T
        gram[d_t:, d_t:] = o_mat @ o_mat.T
        blocks = NormalEquations(
            gram,
            np.concatenate([t_mat @ y_mat, o_mat @ y_mat]),
            np.sum(y_mat * y_mat, axis=0),
        )
        for block in blocks:
            block.setflags(write=False)
        return blocks

    def instance(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Skeleton and object feature vectors of instance i (read-only views)."""
        if not 0 <= i < self.n_instances:
            raise LayoutError(f"instance index {i} out of range [0, {self.n_instances})")
        return self.skeleton[:, i], self.objects[:, i]

    def class_counts(self) -> dict[str, int] | None:
        """Instances per class, or None for unlabeled data."""
        if self.labels is None:
            return None
        counts = self.labels.sum(axis=0).astype(int)
        return {name: int(n) for name, n in zip(self.class_names, counts)}


@dataclass(frozen=True, eq=False)
class Model:
    """Per-class weight columns over skeleton (w) and object (u) features.

    names and standardizer are optional metadata carried along so reports
    can label blocks and so raw inputs can be re-scaled the way the training
    data was; both must match the layout.  Scoring itself never touches either.
    """

    layout: FeatureLayout
    w: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    class_names: tuple[str, ...]
    hyperparams: "SolverConfig"
    names: GroupNames | None = None
    standardizer: "Standardizer | None" = field(default=None, repr=False)

    def __post_init__(self):
        w = _frozen_array(self.w, "skeleton weight matrix")
        u = _frozen_array(self.u, "object weight matrix")
        class_names = _str_tuple(self.class_names, "class names")
        if not class_names:
            raise ValidationError("a model needs at least one class")
        if len(set(class_names)) != len(class_names):
            raise ValidationError("class names must be unique")
        if w.shape != (self.layout.d_t, len(class_names)):
            raise LayoutError(
                f"skeleton weights have shape {w.shape}, expected "
                f"({self.layout.d_t}, {len(class_names)})"
            )
        if u.shape != (self.layout.d_o, len(class_names)):
            raise LayoutError(
                f"object weights have shape {u.shape}, expected "
                f"({self.layout.d_o}, {len(class_names)})"
            )
        _require_finite(w, "skeleton weight matrix")
        _require_finite(u, "object weight matrix")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "class_names", class_names)
        names = self.names if self.names is not None else default_names(self.layout)
        names.check_against(self.layout)
        object.__setattr__(self, "names", names)
        transform = self.standardizer
        sides = () if transform is None else (
            ("skeleton", self.layout.d_t, transform.skeleton_mean, transform.skeleton_constant),
            ("object", self.layout.d_o, transform.object_mean, transform.object_constant),
        )
        for side, dim, mean, constant in sides:
            if mean.shape[0] != dim:
                raise LayoutError(
                    f"standardizer has {mean.shape[0]} {side} features, layout has {dim}"
                )
            if any(not 0 <= i < dim for i in constant):
                raise LayoutError(f"standardizer {side}_constant indices outside [0, {dim})")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


# --- norms, loss, scoring -------------------------------------------------


def _check_weight_matrix(mat, rows, what):
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != rows:
        raise LayoutError(
            f"{what} must have {rows} rows, got shape {getattr(arr, 'shape', None)}"
        )
    return arr


def block_sums(mat, dims) -> np.ndarray:
    """Row sums of mat over consecutive blocks of dims[k] rows, all columns at once.

    mat is a vector or a d x C matrix with d == sum(dims); the result has
    one row per block (len(dims), or len(dims) x C).  Every block quantity
    goes through here: group norms are sqrt(block_sums(mat * mat, dims)).
    """
    return np.add.reduceat(mat, np.cumsum(dims) - dims, axis=0)


def _block_norm_sum(mat, dims, epsilon=0.0) -> float:
    """Sum over blocks and columns of sqrt(||block||^2 + epsilon^2)."""
    return float(np.sum(np.sqrt(block_sums(mat * mat, dims) + epsilon * epsilon)))


def _penalty(layout: FeatureLayout, w, u, lam1, lam2, epsilon=0.0) -> float:
    """lam1 times the skeletal norm plus lam2 times the attribute norm of W and U.

    With epsilon > 0 every block norm is smoothed to sqrt(||block||^2 + epsilon^2).
    """
    return lam1 * _block_norm_sum(w, layout.joint_dims, epsilon) + lam2 * _block_norm_sum(
        u, layout.object_block_dims, epsilon
    )


def skeletal_norm(w, layout: FeatureLayout) -> float:
    """Sum over classes and joints of the Euclidean norm of each joint block.

    Behaves like an l1 norm across joints and an l2 norm inside each joint,
    which is what drives whole joints to zero under regularization.
    """
    w = _check_weight_matrix(w, layout.d_t, "skeleton weight matrix")
    return _block_norm_sum(w, layout.joint_dims)


def attribute_norm(u, layout: FeatureLayout) -> float:
    """Sum over classes, objects, and modalities of per-block Euclidean norms."""
    u = _check_weight_matrix(u, layout.d_o, "object weight matrix")
    return _block_norm_sum(u, layout.object_block_dims)


def _gram_loss(blocks: NormalEquations, x) -> float:
    """||[T; O]'X - Y||^2 for the stacked weights X = [W; U], expanded over the
    normal equations in O(C d^2).

    The expansion rounds with an absolute error of about
    eps * (||Y||^2 + ||T'W + O'U||^2), not eps * loss, so a near-zero loss
    can come out slightly negative; it is clamped at 0.
    """
    total = np.sum(x * (blocks.gram @ x - 2.0 * blocks.xy)) + np.sum(blocks.yy)
    return max(0.0, float(total))


def _labeled_weights(dataset: Dataset, w, u, what):
    """W and U as float arrays, checked against the dataset's layout and class count."""
    if dataset.labels is None:
        raise ValidationError(f"{what} needs a labeled dataset")
    w = _check_weight_matrix(w, dataset.layout.d_t, "skeleton weight matrix")
    u = _check_weight_matrix(u, dataset.layout.d_o, "object weight matrix")
    if w.shape[1] != dataset.labels.shape[1] or u.shape[1] != dataset.labels.shape[1]:
        raise LayoutError(
            f"weight matrices have {w.shape[1]} and {u.shape[1]} columns "
            f"for {dataset.labels.shape[1]} classes"
        )
    return w, u


def loss(dataset: Dataset, w, u) -> float:
    """Squared Frobenius residual of the joint linear fit against the labels.

    Read from dataset.normal_equations with no pass over the N instances;
    the first call on a fresh dataset builds and caches those blocks
    (O(N d^2)).
    """
    w, u = _labeled_weights(dataset, w, u, "loss")
    return _gram_loss(dataset.normal_equations, np.vstack([w, u]))


def objective(dataset: Dataset, w, u, lambda1: float, lambda2: float) -> float:
    """Loss plus lambda1 times the skeletal norm plus lambda2 times the attribute norm."""
    lambda1 = check_number(lambda1, "lambda1")
    lambda2 = check_number(lambda2, "lambda2")
    w, u = _labeled_weights(dataset, w, u, "objective")
    return _gram_loss(dataset.normal_equations, np.vstack([w, u])) + _penalty(
        dataset.layout, w, u, lambda1, lambda2
    )


def predict(model: Model, skeleton_vec, object_vec) -> tuple[int, np.ndarray]:
    """Score one instance and return (class index, raw per-class scores).

    Scores are plain affine responses t'w_c + o'u_c with no squashing; exact
    ties resolve to the lowest class index.
    """
    t = np.asarray(skeleton_vec, dtype=np.float64)
    o = np.asarray(object_vec, dtype=np.float64)
    if t.shape != (model.layout.d_t,):
        raise LayoutError(
            f"skeleton vector has shape {t.shape}, expected ({model.layout.d_t},)"
        )
    if o.shape != (model.layout.d_o,):
        raise LayoutError(
            f"object vector has shape {o.shape}, expected ({model.layout.d_o},)"
        )
    if not np.isfinite(t).all() or not np.isfinite(o).all():
        raise ValidationError("input vectors contain non-finite values")
    scores = t @ model.w + o @ model.u
    return int(np.argmax(scores)), scores


def predict_batch(model: Model, dataset: Dataset) -> tuple[np.ndarray, float | None]:
    """Predicted class indices for every instance, plus accuracy when labeled."""
    if dataset.layout != model.layout:
        raise LayoutError("dataset layout does not match model layout")
    scores = dataset.skeleton.T @ model.w + dataset.objects.T @ model.u
    predicted = np.argmax(scores, axis=1)
    if dataset.labels is None:
        return predicted, None
    if dataset.class_names != model.class_names:
        raise ValidationError(
            f"dataset classes {dataset.class_names} do not match "
            f"model classes {model.class_names}"
        )
    truth = np.argmax(dataset.labels, axis=1)
    return predicted, float(np.mean(predicted == truth))
