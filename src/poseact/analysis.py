"""Importance scores read off fitted weight blocks, plus report shaping.

A joint matters for a class when its weight block has appreciable magnitude,
so the default score for joint j under class c is the Euclidean norm of that
block; objects score the same way per (object, modality) block.  Column
normalization turns raw scores into shares of each class's total mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Model, _group_norms, block_sums, check_int, check_sequence
from .errors import ValidationError

__all__ = [
    "ImportanceReport",
    "importance_report",
    "report_to_dict",
    "format_report_table",
]


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
    """Joint and object importance, raw and normalized per class column.

    One pass over the blocks of the stacked weights [W; U] scores every block
    of every class, cut at the last joint: the joint rows (n_joints x C) with
    their overall sums across classes, and the (object, modality) rows
    ((O*M) x C, object-major) with their per-object totals (O x C).  Scores
    default to block Euclidean norms.  signed=True sums raw block entries
    instead, which can cancel to zero on a block that clearly matters; it
    exists for sign inspection, not ranking.
    """
    layout = model.layout
    score = block_sums if signed else _group_norms
    # class-major, as the solver works: one contiguous row per class
    scores = score(model.weights.T, layout.block_dims, axis=-1).T
    joint_by_class, object_by_block = scores[: layout.n_joints], scores[layout.n_joints :]
    per_object = object_by_block.reshape(layout.object_count, layout.n_modalities, -1)
    # unsigned scores are block norms, never negative; __post_init__ checks them
    joint_norm, joint_zero = _column_shares(joint_by_class)
    object_norm, object_zero = _column_shares(object_by_block)
    return ImportanceReport(
        joint_by_class=joint_by_class,
        joint_overall=joint_by_class.sum(axis=1),
        object_modality_by_class=object_by_block,
        object_by_class=per_object.sum(axis=1),
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
    width = max(12, max((len(r) for r in row_labels), default=0) + 2)
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
    default to everything, and an empty selection leaves its tables with no
    joint rows or no class columns.
    """
    n_joints, n_classes = model.layout.n_joints, model.n_classes

    def selection(chosen, what, count):
        if chosen is None:
            return list(range(count))
        chosen = check_sequence(chosen, what, ValidationError)
        return [check_int(i, what, 0, count, error=ValidationError) for i in chosen]

    joint_rows = selection(joints, "joint selection", n_joints)
    class_cols = selection(classes, "class selection", n_classes)
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
