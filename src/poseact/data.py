"""Dataset and model files, planted synthetic data, splits, standardization.

Dataset files are UTF-8 text: a JSON header object on line 1 (block layout,
class list, group names) followed by one JSON array per line per instance,
skeleton features first, then object features, then the label string for
labeled data.  Model files are a single JSON document.  Both writers are
atomic and durable (fsynced temp file plus rename), create files the way
open() does under the current umask, and are byte-deterministic, so saving
what load returned reproduces the file exactly.  Both readers turn every
malformed input, including bytes that are not UTF-8, into DataFormatError.
The dataset writer encodes the header and rows with orjson.dumps: compact,
names as raw UTF-8, floats in their shortest round-trip spelling ("1e-7"),
read back bit-exact by json and orjson alike; files that earlier versions
wrote with json.dumps load unchanged.  Model files go through json alone.
The dataset writer streams: it encodes _CHUNK_ROWS rows at a time, each
row by orjson straight from its float64 values, and writes each chunk as it
goes, so it never holds the file or a Python float per value; at the
paper's shape (5000 rows of 342 features) its tracemalloc peak is about
0.08x the feature matrix.

Every dataset producer here (generate, split, standardize, Standardizer.apply
and load_dataset) allocates one d x N matrix for its result and hands it to
Dataset, which keeps it rather than copying it as it copies a caller's array.
At 342 features the tracemalloc peaks are about 1.06x the output matrix for
split, 1.13x for standardize and Standardizer.apply (the finiteness check's
boolean scratch is the rest) and 1.16x for generate, which draws its noise
one feature row at a time.

The dataset reader streams too: it reads the file line by line in text
mode (UTF-8, universal newlines, so "\r\n" and a lone "\r" end a line as
"\n" does) and packs each parsed row into one float64 matrix sized from
the file's length, so it never holds the file's text and holds Python
floats for one row only; at the same shape its peak is about 1.14x the
feature matrix (the matrix Dataset keeps and its headroom).  When a file
fails, by a byte that is not UTF-8 or by any DataFormatError, its whole
encoding is checked before anything is raised: a bad byte anywhere is named
first, at its offset in the file, as a reader of the whole text would.
Only a failing file pays for that second read.

It parses each row with orjson.loads, which reads float text about five
times faster than json.loads, and checks the rows in file order, so the
first error is the one named, by row and line.  A row that orjson rejects
is parsed again with json.loads.  json accepts NaN, Infinity and integer
literals past the float range, so the checks below can name such entries,
and it writes every "is not valid JSON" message.  Both parsers give
bit-identical doubles.  What reaches a message differs in two cases only:
an integer literal outside [-2**63, 2**64) where no number belongs is
shown as orjson's float, and a row nested deeper than json's recursion
limit but within orjson's 1024 levels gets a width or type message.  The
header is read with json alone.

A row's numbers are checked by the one C call that packs them into the
matrix: struct stores an int or a float as the double numpy would, and
refuses a string, null, a list, an object or an integer past the float
range.  It takes true and false, as 1.0 and 0.0, but no number's text
holds a "t" or an "f", so a row orjson parsed is searched for those two
letters before its first quote, the label's opening one.  orjson yields no
non-finite number, so a row it parsed whose pack succeeds and whose text
shows no bool is valid.  Any other row, and every row json parsed, is
checked by _check_numbers, which names the first bad entry, so a valid
file never runs a Python loop per value.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import orjson

from .core import (
    SEED_RANGE,
    Dataset,
    FeatureLayout,
    GroupNames,
    Model,
    _Fresh,
    _frozen_array,
    _require_finite,
    _str_tuple,
    check_int,
    check_number,
    check_sequence,
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

# rows the dataset writer encodes per chunk, which bounds the Python objects it
# holds at once; also the reader's spare rows when it sizes its matrix
_CHUNK_ROWS = 64


# --- standardization --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-feature centering and scaling fitted on one training set.

    mean and scale are d-vectors over the rows of Dataset.features, [T; O]
    for layout.  Zero-variance features are centered but kept at scale 1;
    their row indices are recorded in constant so downstream reports can
    flag them.  constant is metadata only: fit finds the all-zero rows
    these become on its own and holds their weights at 0.
    """

    layout: FeatureLayout
    mean: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    constant: tuple[int, ...] = ()

    def __post_init__(self):
        rows = self.layout.d_t + self.layout.d_o
        for name in ("mean", "scale"):
            vector = _frozen_array(getattr(self, name), name, ndim=1)
            if vector.shape[0] != rows:
                raise LayoutError(f"{name} has {vector.shape[0]} entries, layout expects {rows}")
            _require_finite(vector, name)
            object.__setattr__(self, name, vector)
        if np.any(self.scale <= 0):
            raise ValidationError("scales must be strictly positive")
        indices = check_sequence(self.constant, "constant", LayoutError)
        checked = [check_int(i, "constant entry", 0, rows, error=LayoutError) for i in indices]
        object.__setattr__(self, "constant", tuple(checked))

    def apply(self, dataset: Dataset) -> Dataset:
        """Transform a dataset exactly the way the training set was transformed.

        The features are centered and scaled in place in the one d x N array
        that the new dataset keeps.  A value that leaves the float64 range on
        the way is a ValidationError naming its feature.
        """
        if dataset.layout != self.layout:
            raise LayoutError("dataset layout does not match standardizer layout")
        mean, scale = self.mean[:, None], self.scale[:, None]
        try:
            with np.errstate(over="raise"):
                features = dataset.features - mean
                features /= scale
        except FloatingPointError:
            with np.errstate(over="ignore"):  # failing input only: find the feature
                finite = np.isfinite((dataset.features - mean) / scale).all(axis=1)
            raise ValidationError(
                f"standardizing overflows float64 at feature {np.argmin(finite)}: "
                f"a value lies too far from the training mean for the training scale"
            ) from None
        return replace(dataset, features=_Fresh(features))


def standardize(dataset: Dataset) -> tuple[Dataset, Standardizer]:
    """Center every feature and scale it to unit variance across instances.

    Needs at least two instances.  Returns the transformed dataset and the
    transform itself, for replaying on held-out data.  A constant feature
    (row max == row min) is centered on its own value, so it maps to exactly
    0, and keeps scale 1; its rounded mean could miss the value and leave a
    std of about 1e-17 that would blow held-out values up.  A feature whose
    mean or variance leaves the float64 range is a ValidationError naming it.
    """
    if dataset.n_instances < 2:
        raise ValidationError("standardize needs at least two instances")
    features = dataset.features
    # an overflow leaves an inf, or a nan where infs of both signs meet: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = features.mean(axis=1)
        scale = features.std(axis=1)
    constant = features.max(axis=1) == features.min(axis=1)
    mean[constant] = features[constant, 0]
    # a spread too small to square (std underflows to 0) keeps scale 1 too
    scale[constant | (scale == 0.0)] = 1.0
    finite = np.isfinite(mean) & np.isfinite(scale)
    if not finite.all():
        raise ValidationError(
            f"standardize overflows float64 at feature {np.argmin(finite)}: "
            f"its mean or variance is too large to represent"
        )
    transform = Standardizer(
        layout=dataset.layout,
        mean=mean,
        scale=scale,
        constant=tuple(np.flatnonzero(constant).tolist()),
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

        joints = check_sequence(self.planted_joints, "planted_joints")
        if len(joints) != self.n_classes:
            raise ConfigError(
                f"planted_joints lists {len(joints)} classes, expected {self.n_classes}"
            )
        layout = self.layout
        cleaned_joints = []
        for c, entry in enumerate(joints):
            what = f"planted joint for class {c}"
            idx = {check_int(j, what, 0, layout.n_joints) for j in check_sequence(entry, what)}
            if not idx:
                raise ConfigError(f"planted_joints for class {c} is empty")
            cleaned_joints.append(tuple(sorted(idx)))
        object.__setattr__(self, "planted_joints", tuple(cleaned_joints))

        blocks = check_sequence(self.planted_blocks, "planted_blocks")
        if len(blocks) != self.n_classes:
            raise ConfigError(
                f"planted_blocks lists {len(blocks)} classes, expected {self.n_classes}"
            )
        cleaned_blocks = []
        for c, entry in enumerate(blocks):
            what = f"planted block for class {c}"
            pairs = set()
            for pair in check_sequence(entry, what):
                pair = check_sequence(pair, what)
                if len(pair) != 2:
                    raise ConfigError(f"{what} must be an (object, modality) pair, got {pair!r}")
                o, m = pair
                o = check_int(o, f"planted object for class {c}", 0, layout.object_count)
                m = check_int(m, f"planted modality for class {c}", 0, layout.n_modalities)
                pairs.add((o, m))
            if not pairs:
                raise ConfigError(f"planted_blocks for class {c} is empty")
            cleaned_blocks.append(tuple(sorted(pairs)))
        object.__setattr__(self, "planted_blocks", tuple(cleaned_blocks))


@dataclass(frozen=True, eq=False)
class GeneratedData:
    """A synthetic dataset and the stacked weights [W; U] (read-only) behind its labels."""

    dataset: Dataset
    true_weights: np.ndarray = field(repr=False)


def generate(spec: SynthSpec) -> GeneratedData:
    """Draw a dataset whose labels come from planted ground-truth weights.

    Ground-truth entries on the planted blocks, then the d x N features
    [T; O], are standard-normal draws from one seeded generator.  Labels are
    the argmax of the noiseless ground-truth scores; noise_sigma-scaled noise
    is then added to the features only, so the labels stay clean.
    """
    layout = spec.layout
    rng = np.random.default_rng(spec.seed)
    true_weights = np.zeros((layout.d_t + layout.d_o, spec.n_classes))
    true_w, true_u = true_weights[: layout.d_t], true_weights[layout.d_t :]
    for c in range(spec.n_classes):
        for j in spec.planted_joints[c]:
            sl = layout.joint_slices[j]
            true_w[sl, c] = rng.standard_normal(sl.stop - sl.start)
    for c in range(spec.n_classes):
        for o, m in spec.planted_blocks[c]:
            sl = layout.object_block_slices[layout.object_block_index(o, m)]
            true_u[sl, c] = rng.standard_normal(sl.stop - sl.start)

    features = rng.standard_normal((layout.d_t + layout.d_o, spec.n_instances))
    skeleton, objects = features[: layout.d_t], features[layout.d_t :]
    # two products, not one over [T; O]: a rounding change could flip a near-tie label.
    # Each is taken as C x d times the C-ordered d x N block and transposed: with
    # the block transposed instead (N x d), OpenBLAS at 2 threads keeps a
    # workspace about that block's size for the life of the process.  The scores
    # are bit-identical either way.
    scores = (true_w.T @ skeleton + true_u.T @ objects).T
    winners = np.argmax(scores, axis=1)
    labels = np.zeros((spec.n_instances, spec.n_classes))
    labels[np.arange(spec.n_instances), winners] = 1.0
    if spec.noise_sigma > 0:
        # one feature row at a time: the same draws as one d x N call, without
        # a second d x N array
        for row in features:
            row += spec.noise_sigma * rng.standard_normal(row.shape)

    dataset = Dataset(
        layout=layout,
        features=_Fresh(features),
        labels=labels,
        class_names=tuple(f"class_{c}" for c in range(spec.n_classes)),
    )
    true_weights.setflags(write=False)
    return GeneratedData(dataset=dataset, true_weights=true_weights)


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

    def part(cols):
        # one gather per side, which the side keeps: take is several times faster
        # than features[:, cols] and, like Dataset's copy would, gives C order
        return replace(
            dataset,
            features=_Fresh(dataset.features.take(cols, axis=1)),
            labels=None if dataset.labels is None else dataset.labels[cols],
        )

    return part(order[:n_train]), part(order[n_train:])


# --- files -------------------------------------------------------------------


def _write_json(path, doc, overwrite: bool) -> None:
    """Write doc atomically as indented JSON plus a newline: models, reports, predictions."""
    _atomic_write(path, [(json.dumps(doc, indent=2) + "\n").encode()], overwrite)


def _atomic_write(path, chunks: Iterable[bytes], overwrite):
    """Write the byte chunks, in order, through a temp file in the same
    directory, then rename it over path.

    The temp file is created with mode 0o666, so the umask applies as it
    does to open().  The data is fsynced before the rename and the
    directory after it: a crash leaves the old file or the new one, whole.
    The temp file is removed on any error, one raised by chunks included.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} already exists; pass overwrite=True to replace it")
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
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
    # JSONDecodeError, an integer past the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
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
    # what follows a row's numbers: its label, each class's encoded once, and
    # the closing bracket
    if dataset.labels is None:
        ends = [b"]\n"] * dataset.n_instances
    else:
        label_ends = [b"," + orjson.dumps(name) + b"]\n" for name in dataset.class_names]
        ends = [label_ends[c] for c in dataset.label_indices.tolist()]

    def chunks():
        yield orjson.dumps(header, option=orjson.OPT_APPEND_NEWLINE)
        rows = dataset.features.T
        for start in range(0, dataset.n_instances, _CHUNK_ROWS):
            # orjson spells a C-contiguous float64 row as it spells the same
            # Python floats, without making them
            block = np.ascontiguousarray(rows[start : start + _CHUNK_ROWS])
            yield b"".join(
                orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[:-1] + end
                for x, end in zip(block, ends[start : start + _CHUNK_ROWS])
            )

    _atomic_write(path, chunks(), overwrite)


def _parse_header(line):
    header = _parse_json(line, "line 1: header")
    if not isinstance(header, dict):
        raise DataFormatError("line 1: header must be a JSON object")
    layout, names = _decode_header(header, DATASET_FORMAT, header, "line 1: ")
    classes = header.get("classes")
    if not isinstance(classes, list):
        raise DataFormatError("line 1: classes must be a list of non-empty strings")
    try:
        classes = _str_tuple(classes, "classes")
    except ValidationError as exc:
        raise DataFormatError(f"line 1: bad classes ({exc})") from exc
    if len(set(classes)) != len(classes):
        raise DataFormatError("line 1: classes contains duplicates")
    return layout, classes, names


def _shown(value):
    """repr(value) for a message; orjson parses rows nested deeper than repr can go."""
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"


def _row_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(values, where):
    """Raise DataFormatError unless every entry is a finite int or float.

    The whole list is checked first with no Python loop per value; only when
    that fails does the loop below run, to name the first bad entry.
    """
    try:  # exact types: JSON gives int or float, never a subclass, and a bool is neither
        if set(map(type, values)) <= {int, float} and all(map(math.isfinite, values)):
            return
    except OverflowError:  # an integer literal beyond the float range
        pass
    try:
        for k, v in enumerate(values):
            if not _row_number(v):
                raise DataFormatError(f"{where}: entry {k} is not a number ({_shown(v)})")
            if not math.isfinite(v):
                raise DataFormatError(f"{where}: entry {k} is not finite ({v!r})")
    except OverflowError:  # isfinite on an integer literal beyond the float range
        raise DataFormatError(f"{where}: entry {k} is too large for a float") from None


def _checked_rows(lines, width, classes, remaining_bytes):
    """Parse and check the instance rows in file order, raising the first error.

    Returns the width x N feature matrix and the one-hot labels (None for
    unlabeled rows).  Each row's values are packed straight into one N x
    width float64 matrix, so only the row being read is held as Python
    floats.  The matrix is sized at the first row, as remaining_bytes (the
    file's bytes after the header) over that row's length plus 1/16 and
    _CHUNK_ROWS rows of headroom, so no second pass counts the rows; it
    grows by half if the rows run short and is trimmed in place at the end.
    It is the one matrix the reader allocates: Dataset keeps it, as its
    transpose.
    """
    matrix = None
    n = 0
    row_format = struct.Struct(f"{width}d")
    label_indices: list[int] = []
    labeled = None
    class_index = {name: c for c, name in enumerate(classes)}
    for offset, raw in enumerate(lines):
        row_id = f"row {offset} (line {offset + 2})"
        try:
            row, by_orjson = orjson.loads(raw), True
        except orjson.JSONDecodeError:
            row, by_orjson = _parse_json(raw, row_id), False
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
        label = row.pop() if has_label else None
        if matrix is None:
            expected = remaining_bytes // (len(raw) + 1)
            matrix = np.empty((expected + expected // 16 + _CHUNK_ROWS, width))
        elif n == len(matrix):
            matrix.resize((len(matrix) * 3 // 2, width), refcheck=False)
        # the pack is the type check, bools aside; see the module docstring
        try:
            row_format.pack_into(matrix, n * row_format.size, *row)
        except (struct.error, OverflowError):
            suspect = True
        else:
            # with every value packed, a quote can only open the label
            end = raw.find('"')
            end = end if end >= 0 else len(raw)
            suspect = not by_orjson or raw.find("t", 0, end) >= 0 or raw.find("f", 0, end) >= 0
        if suspect:
            _check_numbers(row, row_id)  # names the first bad entry
        if has_label:
            if not isinstance(label, str):
                raise DataFormatError(f"{row_id}: label must be a string, got {_shown(label)}")
            if label not in class_index:
                raise DataFormatError(f"{row_id}: unknown label {label!r}")
            label_indices.append(class_index[label])
        n += 1
    if matrix is None:
        raise DataFormatError("file has a header but no instance rows")
    matrix.resize((n, width), refcheck=False)
    # width x N in F order; a lone row becomes a C-ordered column, as a copy of
    # the transpose would be
    data = matrix.T if n > 1 else matrix.reshape(width, 1)
    labels = None
    if labeled:
        if len(classes) < 2:
            raise DataFormatError(
                "rows carry labels but the header declares fewer than two classes"
            )
        labels = np.zeros((data.shape[1], len(classes)))
        labels[np.arange(data.shape[1]), label_indices] = 1.0
    return data, labels


def load_dataset(path) -> Dataset:
    """Read a dataset file back into memory; inverse of save_dataset.

    Streams the file; see the module docstring for how a failing file's
    encoding is checked first.
    """
    try:
        with Path(path).open(encoding="utf-8") as handle:
            header = handle.readline()
            if not header:
                raise DataFormatError("file is empty")
            layout, classes, names = _parse_header(header.removesuffix("\n"))
            lines = (line.removesuffix("\n") for line in handle)
            remaining = max(os.fstat(handle.fileno()).st_size - len(header.encode()), 0)
            data, labels = _checked_rows(lines, layout.d_t + layout.d_o, classes, remaining)
    except (UnicodeDecodeError, DataFormatError) as exc:
        _read_text(path)  # a bad byte anywhere wins, named at its offset in the file
        if isinstance(exc, UnicodeDecodeError):  # gone now: the file changed since
            raise DataFormatError(f"{path} is not UTF-8 text") from None
        raise
    return Dataset(
        layout=layout,
        features=_Fresh(data),
        labels=labels,
        class_names=classes if classes else None,
        names=names,
    )


# --- model files -------------------------------------------------------------


def _standardizer_to_dict(transform: Standardizer | None):
    """The file's standardizer object: the stacked vectors and row indices cut
    at d_t into the format's per-side skeleton_* and object_* keys."""
    if transform is None:
        return None
    d_t = transform.layout.d_t
    return {
        "skeleton_mean": transform.mean[:d_t].tolist(),
        "skeleton_scale": transform.scale[:d_t].tolist(),
        "object_mean": transform.mean[d_t:].tolist(),
        "object_scale": transform.scale[d_t:].tolist(),
        "skeleton_constant": [i for i in transform.constant if i < d_t],
        "object_constant": [i - d_t for i in transform.constant if i >= d_t],
    }


def _standardizer_from_dict(raw, layout: FeatureLayout):
    """Inverse of _standardizer_to_dict.  Each side's keys are checked against
    layout before the halves are stacked, so a message names the key at fault."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise DataFormatError("standardizer must be an object or null")
    stacked = {"mean": [], "scale": [], "constant": []}
    try:
        for side, dim, offset in (("skeleton", layout.d_t, 0), ("object", layout.d_o, layout.d_t)):
            for stat in ("mean", "scale"):
                name = f"{side}_{stat}"
                vector = raw[name]
                if not isinstance(vector, list):
                    raise ValidationError(f"{name} must be a list of numbers")
                _check_numbers(vector, f"bad standardizer ({name})")
                if len(vector) != dim:
                    raise LayoutError(
                        f"standardizer has {len(vector)} {side} features, layout has {dim}"
                    )
                stacked[stat] += vector
            name = f"{side}_constant"
            indices = [
                check_int(i, f"{name} entry", -math.inf, error=LayoutError)
                for i in raw.get(name, ())
            ]
            if any(not 0 <= i < dim for i in indices):
                raise LayoutError(f"standardizer {name} indices outside [0, {dim})")
            stacked["constant"] += [offset + i for i in indices]
        return Standardizer(layout, **stacked)
    except (KeyError, LayoutError, ValidationError, TypeError) as exc:
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
    _write_json(path, doc, overwrite)


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
    flat = []  # row-major W then row-major U is row-major [W; U]
    for key, rows in (("w", layout.d_t), ("u", layout.d_o)):
        values = doc.get(key)
        if not isinstance(values, list) or len(values) != rows * n_classes:
            raise DataFormatError(
                f"{key} must hold {rows * n_classes} values for this layout and class count"
            )
        _check_numbers(values, f"{key} has a non-finite or non-numeric entry")
        flat += values
    try:
        return Model(
            layout=layout,
            weights=np.array(flat, dtype=np.float64).reshape(-1, n_classes),
            class_names=tuple(classes),
            hyperparams=config,
            names=names,
            standardizer=_standardizer_from_dict(doc.get("standardizer"), layout),
        )
    except (LayoutError, ValidationError) as exc:
        raise DataFormatError(f"bad model content ({exc})") from exc
