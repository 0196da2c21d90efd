"""Dataset and model files, planted synthetic data, splits, standardization.

Dataset files are UTF-8 text: a JSON header object on line 1 (block layout,
class list, group names) followed by one JSON array per line per instance,
skeleton features first, then object features, then the label string for
labeled data.  Model files are a single JSON document.  Both writers are
atomic and durable (fsynced temp file plus rename), create files the way
open() does under the current umask, and are byte-deterministic, so saving
what load returned reproduces the file exactly.  Both readers turn every
malformed input, including bytes that are not UTF-8, into DataFormatError.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .core import (
    SEED_RANGE,
    Dataset,
    FeatureLayout,
    GroupNames,
    Model,
    _frozen_array,
    _require_finite,
    check_int,
    check_number,
)
from .errors import ConfigError, DataFormatError, LayoutError, ValidationError
from .solver import SolverConfig

__all__ = [
    "DATASET_FORMAT",
    "MODEL_FORMAT",
    "FORMAT_VERSION",
    "Standardizer",
    "SynthSpec",
    "GeneratedData",
    "load_dataset",
    "save_dataset",
    "load_model",
    "save_model",
    "generate",
    "split",
    "standardize",
]

DATASET_FORMAT = "poseact-dataset"
MODEL_FORMAT = "poseact-model"
FORMAT_VERSION = 1


# --- standardization --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature centering and scaling fitted on one training set.

    Zero-variance features are centered but kept at scale 1; their indices
    are recorded in skeleton_constant / object_constant so downstream
    reports can flag them.
    """

    skeleton_mean: np.ndarray = field(repr=False)
    skeleton_scale: np.ndarray = field(repr=False)
    object_mean: np.ndarray = field(repr=False)
    object_scale: np.ndarray = field(repr=False)
    skeleton_constant: tuple[int, ...] = ()
    object_constant: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("skeleton_mean", "skeleton_scale", "object_mean", "object_scale"):
            vector = _frozen_array(getattr(self, name), name, ndim=1)
            _require_finite(vector, name)
            object.__setattr__(self, name, vector)
        if self.skeleton_mean.shape != self.skeleton_scale.shape:
            raise LayoutError("skeleton mean and scale lengths disagree")
        if self.object_mean.shape != self.object_scale.shape:
            raise LayoutError("object mean and scale lengths disagree")
        if np.any(self.skeleton_scale <= 0) or np.any(self.object_scale <= 0):
            raise ValidationError("scales must be strictly positive")
        for name in ("skeleton_constant", "object_constant"):
            # integers only; Model checks their range against its layout
            indices = (
                check_int(i, f"{name} entry", -math.inf, error=LayoutError)
                for i in getattr(self, name)
            )
            object.__setattr__(self, name, tuple(indices))

    def apply(self, dataset: Dataset) -> Dataset:
        """Transform a dataset exactly the way the training set was transformed."""
        for side, dim, mean in (
            ("skeleton", dataset.layout.d_t, self.skeleton_mean),
            ("object", dataset.layout.d_o, self.object_mean),
        ):
            if dim != mean.shape[0]:
                raise LayoutError(
                    f"dataset has {dim} {side} features, transform expects {mean.shape[0]}"
                )
        skeleton = (dataset.skeleton - self.skeleton_mean[:, None]) / self.skeleton_scale[:, None]
        objects = (dataset.objects - self.object_mean[:, None]) / self.object_scale[:, None]
        return replace(dataset, skeleton=skeleton, objects=objects)


def standardize(dataset: Dataset) -> tuple[Dataset, Standardizer]:
    """Center every feature and scale it to unit variance across instances.

    Needs at least two instances.  Returns the transformed dataset and the
    transform itself, for replaying on held-out data.
    """
    if dataset.n_instances < 2:
        raise ValidationError("standardize needs at least two instances")

    def stats(mat):
        mean = mat.mean(axis=1)
        scale = mat.std(axis=1)
        constant = tuple(int(i) for i in np.flatnonzero(scale == 0.0))
        scale = np.where(scale == 0.0, 1.0, scale)
        return mean, scale, constant

    t_mean, t_scale, t_const = stats(dataset.skeleton)
    o_mean, o_scale, o_const = stats(dataset.objects)
    transform = Standardizer(
        skeleton_mean=t_mean,
        skeleton_scale=t_scale,
        object_mean=o_mean,
        object_scale=o_scale,
        skeleton_constant=t_const,
        object_constant=o_const,
    )
    return transform.apply(dataset), transform


# --- synthetic data ----------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for synthetic data with known discriminative structure.

    planted_joints[c] lists the joint indices whose ground-truth skeleton
    weights are nonzero for class c; planted_blocks[c] lists (object,
    modality) pairs likewise.  Everything outside those blocks is exactly
    zero in the ground truth.
    """

    layout: FeatureLayout
    n_classes: int
    n_instances: int
    noise_sigma: float
    planted_joints: tuple[tuple[int, ...], ...]
    planted_blocks: tuple[tuple[tuple[int, int], ...], ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_classes", check_int(self.n_classes, "n_classes", 2))
        object.__setattr__(self, "n_instances", check_int(self.n_instances, "n_instances", 1))
        object.__setattr__(self, "noise_sigma", check_number(self.noise_sigma, "noise_sigma"))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", *SEED_RANGE))

        joints = tuple(self.planted_joints)
        if len(joints) != self.n_classes:
            raise ConfigError(
                f"planted_joints lists {len(joints)} classes, expected {self.n_classes}"
            )
        cleaned_joints = []
        for c, entry in enumerate(joints):
            idx = sorted({int(j) for j in entry})
            if not idx:
                raise ConfigError(f"planted_joints for class {c} is empty")
            if idx[0] < 0 or idx[-1] >= self.layout.n_joints:
                raise ConfigError(
                    f"planted_joints for class {c} outside [0, {self.layout.n_joints})"
                )
            cleaned_joints.append(tuple(idx))
        object.__setattr__(self, "planted_joints", tuple(cleaned_joints))

        blocks = tuple(self.planted_blocks)
        if len(blocks) != self.n_classes:
            raise ConfigError(
                f"planted_blocks lists {len(blocks)} classes, expected {self.n_classes}"
            )
        cleaned_blocks = []
        for c, entry in enumerate(blocks):
            pairs = sorted({(int(o), int(m)) for o, m in entry})
            if not pairs:
                raise ConfigError(f"planted_blocks for class {c} is empty")
            for o, m in pairs:
                if not 0 <= o < self.layout.object_count:
                    raise ConfigError(
                        f"planted object {o} for class {c} outside [0, {self.layout.object_count})"
                    )
                if not 0 <= m < self.layout.n_modalities:
                    raise ConfigError(
                        f"planted modality {m} for class {c} outside [0, {self.layout.n_modalities})"
                    )
            cleaned_blocks.append(tuple(pairs))
        object.__setattr__(self, "planted_blocks", tuple(cleaned_blocks))


@dataclass(frozen=True, eq=False)
class GeneratedData:
    """A synthetic dataset together with the weights that produced its labels."""

    dataset: Dataset
    true_w: np.ndarray = field(repr=False)
    true_u: np.ndarray = field(repr=False)


def generate(spec: SynthSpec) -> GeneratedData:
    """Draw a dataset whose labels come from planted ground-truth weights.

    Ground-truth entries on the planted blocks, then the feature matrices,
    are standard-normal draws from one seeded generator.  Labels are the
    argmax of the noiseless ground-truth scores; noise_sigma-scaled noise is
    then added to the features only, so the labels stay clean.
    """
    layout = spec.layout
    rng = np.random.default_rng(spec.seed)
    true_w = np.zeros((layout.d_t, spec.n_classes))
    true_u = np.zeros((layout.d_o, spec.n_classes))
    for c in range(spec.n_classes):
        for j in spec.planted_joints[c]:
            sl = layout.joint_slices[j]
            true_w[sl, c] = rng.standard_normal(sl.stop - sl.start)
    for c in range(spec.n_classes):
        for o, m in spec.planted_blocks[c]:
            sl = layout.object_block_slices[layout.object_block_index(o, m)]
            true_u[sl, c] = rng.standard_normal(sl.stop - sl.start)

    skeleton = rng.standard_normal((layout.d_t, spec.n_instances))
    objects = rng.standard_normal((layout.d_o, spec.n_instances))
    scores = skeleton.T @ true_w + objects.T @ true_u
    winners = np.argmax(scores, axis=1)
    labels = np.zeros((spec.n_instances, spec.n_classes))
    labels[np.arange(spec.n_instances), winners] = 1.0
    if spec.noise_sigma > 0:
        skeleton = skeleton + spec.noise_sigma * rng.standard_normal(skeleton.shape)
        objects = objects + spec.noise_sigma * rng.standard_normal(objects.shape)

    dataset = Dataset(
        layout=layout,
        skeleton=skeleton,
        objects=objects,
        labels=labels,
        class_names=tuple(f"class_{c}" for c in range(spec.n_classes)),
    )
    true_w.setflags(write=False)
    true_u.setflags(write=False)
    return GeneratedData(dataset=dataset, true_w=true_w, true_u=true_u)


# --- splitting ---------------------------------------------------------------


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle instances with the seed and cut them into train and test parts.

    Both sides keep the full layout, class list, and names; either side
    coming out empty is an error.
    """
    frac = check_number(train_fraction, "train_fraction", high=1.0)
    seed = check_int(seed, "seed", *SEED_RANGE)
    n = dataset.n_instances
    n_train = int(round(frac * n))
    if n_train == 0 or n_train == n:
        raise ConfigError(
            f"train_fraction {frac} leaves an empty side for {n} instances"
        )
    order = np.random.default_rng(seed).permutation(n)

    def take(idx):
        return replace(
            dataset,
            skeleton=dataset.skeleton[:, idx],
            objects=dataset.objects[:, idx],
            labels=None if dataset.labels is None else dataset.labels[idx],
        )

    return take(order[:n_train]), take(order[n_train:])


# --- files -------------------------------------------------------------------


def _atomic_write(path, text, overwrite):
    """Write text through a temp file in the same directory, then rename it over path.

    The temp file is created with mode 0o666, so the umask applies as it
    does to open().  The data is fsynced before the rename and the
    directory after it: a crash leaves the old file or the new one, whole.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} already exists; pass overwrite=True to replace it")
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_text(path) -> str:
    """A file's contents as text; bytes that are not UTF-8 are a format error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text (bad byte at {exc.start})") from None


def _parse_json(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise DataFormatError(f"{what} is not valid JSON ({getattr(exc, 'msg', exc)})") from exc


def _encode_header(layout: FeatureLayout, names: GroupNames) -> tuple[dict, dict]:
    """The layout and group-name objects both file kinds store; see _decode_header."""
    return (
        {
            "joint_dims": list(layout.joint_dims),
            "object_count": layout.object_count,
            "modality_dims": list(layout.modality_dims),
        },
        {
            "joints": list(names.joints),
            "objects": list(names.objects),
            "modalities": list(names.modalities),
        },
    )


def _decode_header(doc, expected_format, layout_raw, where):
    """Check a file's format and version, then rebuild its layout and group names.

    layout_raw holds the three layout keys: the dataset header itself, or
    the model's "layout" object.  Absent names decode to None.  where
    prefixes every message.
    """
    if doc.get("format") != expected_format:
        raise DataFormatError(
            f"{where}format is {doc.get('format')!r}, expected {expected_format!r}"
        )
    if doc.get("version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{where}unsupported version {doc.get('version')!r}, expected {FORMAT_VERSION}"
        )
    if not isinstance(layout_raw, dict):
        raise DataFormatError(f"{where}layout must be an object")
    try:
        layout = FeatureLayout(
            joint_dims=tuple(layout_raw["joint_dims"]),
            object_count=layout_raw["object_count"],
            modality_dims=tuple(layout_raw["modality_dims"]),
        )
    except KeyError as exc:
        raise DataFormatError(f"{where}layout is missing {exc}") from None
    except (LayoutError, TypeError) as exc:
        raise DataFormatError(f"{where}bad layout ({exc})") from exc
    names_raw = doc.get("names")
    if names_raw is None:
        return layout, None
    if not isinstance(names_raw, dict):
        raise DataFormatError(f"{where}names must be an object or null")
    groups = [names_raw.get(key) for key in ("joints", "objects", "modalities")]
    if not all(isinstance(group, list) for group in groups):
        raise DataFormatError(f"{where}bad names (joints, objects and modalities must be lists)")
    try:
        names = GroupNames(*map(tuple, groups))
        names.check_against(layout)
    except (LayoutError, ValidationError) as exc:
        raise DataFormatError(f"{where}bad names ({exc})") from exc
    return layout, names


# --- dataset files -----------------------------------------------------------


def save_dataset(dataset: Dataset, path, overwrite: bool = False) -> None:
    """Write a dataset file; see the module docstring for the format."""
    layout, names = _encode_header(dataset.layout, dataset.names)
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        **layout,
        "classes": list(dataset.class_names) if dataset.class_names else [],
        "names": names,
    }
    lines = [json.dumps(header)]
    labeled = dataset.labels is not None
    if labeled:
        winners = np.argmax(dataset.labels, axis=1)
    for i in range(dataset.n_instances):
        row: list = dataset.skeleton[:, i].tolist() + dataset.objects[:, i].tolist()
        if labeled:
            row.append(dataset.class_names[int(winners[i])])
        lines.append(json.dumps(row))
    lines.append("")  # the final newline, without a second copy of the whole text
    _atomic_write(path, "\n".join(lines), overwrite)


def _parse_header(line):
    header = _parse_json(line, "line 1: header")
    if not isinstance(header, dict):
        raise DataFormatError("line 1: header must be a JSON object")
    layout, names = _decode_header(header, DATASET_FORMAT, header, "line 1: ")
    classes = header.get("classes")
    if not isinstance(classes, list) or not all(isinstance(c, str) and c for c in classes):
        raise DataFormatError("line 1: classes must be a list of non-empty strings")
    if len(set(classes)) != len(classes):
        raise DataFormatError("line 1: classes contains duplicates")
    return layout, tuple(classes), names


def _row_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(values, where):
    """Raise DataFormatError unless every entry is a finite int or float."""
    try:
        for k, v in enumerate(values):
            if not _row_number(v):
                raise DataFormatError(f"{where}: entry {k} is not a number ({v!r})")
            if not math.isfinite(v):
                raise DataFormatError(f"{where}: entry {k} is not finite ({v!r})")
    except OverflowError:  # isfinite on an integer literal beyond the float range
        raise DataFormatError(f"{where}: entry {k} is too large for a float") from None


def load_dataset(path) -> Dataset:
    """Read a dataset file back into memory; inverse of save_dataset."""
    lines = _read_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError("file is empty")
    layout, classes, names = _parse_header(lines[0])
    width = layout.d_t + layout.d_o
    features = []
    label_indices: list[int] = []
    labeled = None
    class_index = {name: c for c, name in enumerate(classes)}
    for offset, raw in enumerate(lines[1:]):
        row_id = f"row {offset} (line {offset + 2})"
        row = _parse_json(raw, row_id)
        if not isinstance(row, list):
            raise DataFormatError(f"{row_id}: expected a JSON array")
        has_label = len(row) == width + 1
        if not has_label and len(row) != width:
            raise DataFormatError(
                f"{row_id}: {len(row)} entries, expected {width} features"
                f" plus an optional label"
            )
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise DataFormatError(f"{row_id}: mixes labeled and unlabeled rows")
        values = row[:width]
        _check_numbers(values, row_id)
        if has_label:
            label = row[width]
            if not isinstance(label, str):
                raise DataFormatError(f"{row_id}: label must be a string, got {label!r}")
            if label not in class_index:
                raise DataFormatError(f"{row_id}: unknown label {label!r}")
            label_indices.append(class_index[label])
        features.append(values)
    if not features:
        raise DataFormatError("file has a header but no instance rows")
    data = np.array(features, dtype=np.float64).T
    labels = None
    if labeled:
        if len(classes) < 2:
            raise DataFormatError(
                "rows carry labels but the header declares fewer than two classes"
            )
        labels = np.zeros((len(features), len(classes)))
        labels[np.arange(len(features)), label_indices] = 1.0
    return Dataset(
        layout=layout,
        skeleton=data[: layout.d_t],
        objects=data[layout.d_t :],
        labels=labels,
        class_names=classes if classes else None,
        names=names,
    )


# --- model files -------------------------------------------------------------


def _standardizer_to_dict(transform: Standardizer | None):
    if transform is None:
        return None
    return {f.name: np.asarray(getattr(transform, f.name)).tolist() for f in fields(Standardizer)}


def _standardizer_from_dict(raw):
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise DataFormatError("standardizer must be an object or null")
    try:
        return Standardizer(
            skeleton_mean=raw["skeleton_mean"],
            skeleton_scale=raw["skeleton_scale"],
            object_mean=raw["object_mean"],
            object_scale=raw["object_scale"],
            skeleton_constant=tuple(raw.get("skeleton_constant", ())),
            object_constant=tuple(raw.get("object_constant", ())),
        )
    except (KeyError, LayoutError, ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad standardizer ({exc})") from exc


def save_model(model: Model, path, overwrite: bool = False) -> None:
    """Write a model as one JSON document with row-major weight arrays."""
    layout, names = _encode_header(model.layout, model.names)
    doc = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "layout": layout,
        "classes": list(model.class_names),
        "names": names,
        "hyperparams": asdict(model.hyperparams),
        "w": model.w.ravel(order="C").tolist(),
        "u": model.u.ravel(order="C").tolist(),
        "standardizer": _standardizer_to_dict(model.standardizer),
    }
    _atomic_write(path, json.dumps(doc, indent=2) + "\n", overwrite)


def load_model(path) -> Model:
    """Read a model file back into memory; inverse of save_model.

    A hyperparameter missing from the file takes its SolverConfig default;
    unknown hyperparameter keys are ignored.
    """
    doc = _parse_json(_read_text(path), "model file")
    if not isinstance(doc, dict):
        raise DataFormatError("model file must hold a JSON object")
    layout, names = _decode_header(doc, MODEL_FORMAT, doc.get("layout"), "")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        raise DataFormatError("classes must be a non-empty list")
    hp = doc.get("hyperparams")
    if not isinstance(hp, dict):
        raise DataFormatError("hyperparams must be an object")
    try:
        config = SolverConfig(**{f.name: hp.get(f.name, f.default) for f in fields(SolverConfig)})
    except ConfigError as exc:
        raise DataFormatError(f"bad hyperparams ({exc})") from exc
    n_classes = len(classes)
    w_flat = doc.get("w")
    u_flat = doc.get("u")
    if not isinstance(w_flat, list) or len(w_flat) != layout.d_t * n_classes:
        raise DataFormatError(
            f"w must hold {layout.d_t * n_classes} values for this layout and class count"
        )
    if not isinstance(u_flat, list) or len(u_flat) != layout.d_o * n_classes:
        raise DataFormatError(
            f"u must hold {layout.d_o * n_classes} values for this layout and class count"
        )
    for label, flat in (("w", w_flat), ("u", u_flat)):
        _check_numbers(flat, f"{label} has a non-finite or non-numeric entry")
    try:
        return Model(
            layout=layout,
            w=np.array(w_flat, dtype=np.float64).reshape(layout.d_t, n_classes),
            u=np.array(u_flat, dtype=np.float64).reshape(layout.d_o, n_classes),
            class_names=tuple(classes),
            hyperparams=config,
            names=names,
            standardizer=_standardizer_from_dict(doc.get("standardizer")),
        )
    except (LayoutError, ValidationError) as exc:
        raise DataFormatError(f"bad model content ({exc})") from exc
