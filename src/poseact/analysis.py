"""Importance scores read off fitted weight blocks, plus report shaping.

A joint matters for a class when its weight block has appreciable magnitude,
so the default score for joint j under class c is the Euclidean norm of that
block; objects score the same way per (object, modality) block.  Column
normalization turns raw scores into shares of each class's total mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Model, block_sums
from .errors import ValidationError

__all__ = [
    "ImportanceReport",
    "joint_importance",
    "object_importance",
    "normalize_columns",
    "importance_report",
    "report_to_dict",
    "format_report_table",
]


def _block_scores(mat, dims, signed):
    return block_sums(mat, dims) if signed else np.sqrt(block_sums(mat * mat, dims))


def joint_importance(model: Model, signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-class scores (n_joints x C) and overall per-joint scores.

    Scores default to block Euclidean norms.  signed=True sums raw block
    entries instead, which can cancel to zero on a block that clearly
    matters; it exists for sign inspection, not ranking.
    """
    by_class = _block_scores(model.w, model.layout.joint_dims, signed)
    return by_class, by_class.sum(axis=1)


def object_importance(model: Model, signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-class block scores ((O*M) x C) and per-object totals (O x C)."""
    by_class = _block_scores(model.u, model.layout.object_block_dims, signed)
    n_mod = model.layout.n_modalities
    per_object = by_class.reshape(model.layout.object_count, n_mod, -1).sum(axis=1)
    return by_class, per_object


def normalize_columns(matrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Scale each column of a nonnegative matrix to sum to 1.

    All-zero columns pass through unchanged and their indices are returned
    as flags rather than manufacturing NaNs.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {mat.shape}")
    if np.any(mat < 0):
        raise ValidationError("normalize_columns needs nonnegative entries")
    return _column_shares(mat)


def _column_shares(mat):
    # share of each column's total absolute mass, keeping signs readable;
    # all-zero columns pass through and are flagged
    sums = np.abs(mat).sum(axis=0)
    zero = sums == 0.0
    return mat / np.where(zero, 1.0, sums), tuple(int(i) for i in np.flatnonzero(zero))


@dataclass(frozen=True, eq=False)
class ImportanceReport:
    """Raw and column-normalized importance scores for one model."""

    joint_by_class: np.ndarray = field(repr=False)
    joint_overall: np.ndarray = field(repr=False)
    object_modality_by_class: np.ndarray = field(repr=False)
    object_by_class: np.ndarray = field(repr=False)
    joint_normalized: np.ndarray = field(repr=False)
    object_modality_normalized: np.ndarray = field(repr=False)
    joint_zero_classes: tuple[int, ...]
    object_zero_classes: tuple[int, ...]
    signed: bool

    def __post_init__(self):
        for name in (
            "joint_by_class",
            "joint_overall",
            "object_modality_by_class",
            "object_by_class",
            "joint_normalized",
            "object_modality_normalized",
        ):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not self.signed:
            if np.any(self.joint_by_class < 0) or np.any(self.object_modality_by_class < 0):
                raise ValidationError("unsigned importance scores must be nonnegative")


def importance_report(model: Model, signed: bool = False) -> ImportanceReport:
    """Bundle joint and object importance, normalized per class column."""
    joint_by_class, joint_overall = joint_importance(model, signed=signed)
    object_by_block, object_totals = object_importance(model, signed=signed)
    if signed:
        joint_norm, joint_zero = _column_shares(joint_by_class)
        object_norm, object_zero = _column_shares(object_by_block)
    else:
        joint_norm, joint_zero = normalize_columns(joint_by_class)
        object_norm, object_zero = normalize_columns(object_by_block)
    return ImportanceReport(
        joint_by_class=joint_by_class,
        joint_overall=joint_overall,
        object_modality_by_class=object_by_block,
        object_by_class=object_totals,
        joint_normalized=joint_norm,
        object_modality_normalized=object_norm,
        joint_zero_classes=joint_zero,
        object_zero_classes=object_zero,
        signed=signed,
    )


def _block_labels(model: Model):
    names = model.names
    labels = []
    for o in range(model.layout.object_count):
        for m in range(model.layout.n_modalities):
            labels.append(f"{names.objects[o]}:{names.modalities[m]}")
    return labels


def report_to_dict(report: ImportanceReport, model: Model) -> dict:
    """JSON-ready view of a report, with names resolved."""
    return {
        "schema_version": 1,
        "signed": report.signed,
        "classes": list(model.class_names),
        "joints": {
            "names": list(model.names.joints),
            "by_class": report.joint_by_class.tolist(),
            "overall": report.joint_overall.tolist(),
            "normalized": report.joint_normalized.tolist(),
            "zero_classes": list(report.joint_zero_classes),
        },
        "objects": {
            "block_names": _block_labels(model),
            "by_class": report.object_modality_by_class.tolist(),
            "per_object": report.object_by_class.tolist(),
            "normalized": report.object_modality_normalized.tolist(),
            "zero_classes": list(report.object_zero_classes),
        },
    }


def _table(title, row_labels, columns, matrix, extra=None):
    width = max(12, max(len(r) for r in row_labels) + 2)
    head = title + "\n" + "".ljust(width) + "".join(c.rjust(12) for c in columns)
    if extra is not None:
        head += extra[0].rjust(12)
    lines = [head]
    for i, label in enumerate(row_labels):
        cells = "".join(f"{matrix[i, j]:12.4f}" for j in range(matrix.shape[1]))
        if extra is not None:
            cells += f"{extra[1][i]:12.4f}"
        lines.append(label.ljust(width) + cells)
    return "\n".join(lines)


def format_report_table(
    report: ImportanceReport,
    model: Model,
    joints: tuple[int, ...] | None = None,
    classes: tuple[int, ...] | None = None,
) -> str:
    """Aligned text tables for the joint and object sides.

    joints / classes restrict which rows and class columns appear; both
    default to everything.
    """
    joint_rows = list(range(model.layout.n_joints)) if joints is None else list(joints)
    class_cols = list(range(model.n_classes)) if classes is None else list(classes)
    for j in joint_rows:
        if not 0 <= j < model.layout.n_joints:
            raise ValidationError(f"joint selection {j} out of range")
    for c in class_cols:
        if not 0 <= c < model.n_classes:
            raise ValidationError(f"class selection {c} out of range")
    joint_labels = [model.names.joints[j] for j in joint_rows]
    class_labels = [model.class_names[c] for c in class_cols]
    kind = "signed sums" if report.signed else "block norms"
    blocks = [
        _table(
            f"Joint importance ({kind})",
            joint_labels,
            class_labels,
            report.joint_by_class[np.ix_(joint_rows, class_cols)],
            ("overall", [report.joint_overall[j] for j in joint_rows]),
        ),
        _table(
            "Joint importance, class-normalized",
            joint_labels,
            class_labels,
            report.joint_normalized[np.ix_(joint_rows, class_cols)],
        ),
        _table(
            f"Object-modality importance ({kind})",
            _block_labels(model),
            class_labels,
            report.object_modality_by_class[:, class_cols],
        ),
        _table(
            "Object-modality importance, class-normalized",
            _block_labels(model),
            class_labels,
            report.object_modality_normalized[:, class_cols],
        ),
    ]
    notes = [
        f"all-zero {side} columns left unnormalized for classes "
        + ", ".join(str(c) for c in zero_classes)
        for side, zero_classes in (
            ("joint", report.joint_zero_classes),
            ("object", report.object_zero_classes),
        )
        if zero_classes
    ]
    text = "\n\n".join(blocks)
    if notes:
        text += "\n\n" + "\n".join("note: " + n for n in notes)
    return text
