"""Importance scoring and report formatting."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from poseact import FeatureLayout, Model, SolverConfig, importance_report
from poseact.analysis import format_report_table, report_to_dict
from poseact.core import GroupNames, _group_norms, block_sums
from poseact.errors import ValidationError

LAYOUT = FeatureLayout(joint_dims=(2, 3), object_count=2, modality_dims=(2, 1))


def make_model(w=None, u=None, n_classes=2, names=None):
    rng = np.random.default_rng(0)
    if w is None:
        w = rng.standard_normal((LAYOUT.d_t, n_classes))
    if u is None:
        u = rng.standard_normal((LAYOUT.d_o, n_classes))
    return Model(
        layout=LAYOUT,
        weights=np.vstack((w, u)),
        class_names=tuple(f"class_{c}" for c in range(n_classes)),
        hyperparams=SolverConfig(),
        names=names,
    )


def test_joint_importance_hand_example():
    # class 0: joint 0 block (3, 4) -> norm 5; joint 1 block (0, 0, 12) -> 12
    w = np.array(
        [
            [3.0, 1.0],
            [4.0, 0.0],
            [0.0, 2.0],
            [0.0, 2.0],
            [12.0, 1.0],
        ]
    )
    report = importance_report(make_model(w=w))
    by_class, overall = report.joint_by_class, report.joint_overall
    assert by_class.shape == (2, 2)
    assert by_class[0, 0] == pytest.approx(5.0)
    assert by_class[1, 0] == pytest.approx(12.0)
    assert by_class[0, 1] == pytest.approx(1.0)
    assert by_class[1, 1] == pytest.approx(3.0)
    assert overall[0] == pytest.approx(6.0)
    assert overall[1] == pytest.approx(15.0)


def test_joint_importance_matches_loop_oracle():
    model = make_model(n_classes=3)
    report = importance_report(model)
    by_class, overall = report.joint_by_class, report.joint_overall
    for j, sl in enumerate(LAYOUT.joint_slices):
        for c in range(3):
            expected = float(np.sqrt(np.sum(model.w[sl, c] ** 2)))
            assert by_class[j, c] == pytest.approx(expected)
    assert np.allclose(overall, by_class.sum(axis=1))


def test_object_importance_matches_loop_oracle():
    model = make_model(n_classes=3)
    report = importance_report(model)
    by_block, per_object = report.object_modality_by_class, report.object_by_class
    assert by_block.shape == (len(LAYOUT.object_block_dims), 3)
    assert per_object.shape == (LAYOUT.object_count, 3)
    for o in range(LAYOUT.object_count):
        for m in range(LAYOUT.n_modalities):
            b = LAYOUT.object_block_index(o, m)
            sl = LAYOUT.object_block_slices[b]
            for c in range(3):
                expected = float(np.sqrt(np.sum(model.u[sl, c] ** 2)))
                assert by_block[b, c] == pytest.approx(expected)
    # per-object totals collapse the modality axis
    for o in range(LAYOUT.object_count):
        rows = [LAYOUT.object_block_index(o, m) for m in range(LAYOUT.n_modalities)]
        assert np.allclose(per_object[o], by_block[rows].sum(axis=0))


def test_signed_scores_sum_raw_entries():
    w = np.zeros((LAYOUT.d_t, 2))
    w[0, 0] = 3.0
    w[1, 0] = -3.0  # cancels under summation, not under the norm
    model = make_model(w=w)
    signed = importance_report(model, signed=True).joint_by_class
    unsigned = importance_report(model).joint_by_class
    assert signed[0, 0] == pytest.approx(0.0)
    assert unsigned[0, 0] == pytest.approx(np.sqrt(18.0))


def test_report_rejects_negative_unsigned_scores():
    # unsigned scores are block norms; signed ones may be negative
    good = importance_report(make_model())
    for name in ("joint_by_class", "object_modality_by_class"):
        flipped = {name: -getattr(good, name)}
        with pytest.raises(
            ValidationError, match="^unsigned importance scores must be nonnegative$"
        ):
            replace(good, **flipped)
        assert replace(good, signed=True, **flipped).signed


def test_report_normalized_columns_sum_to_one():
    model = make_model(n_classes=4)
    report = importance_report(model)
    assert np.allclose(report.joint_normalized.sum(axis=0), 1.0)
    assert np.allclose(report.object_modality_normalized.sum(axis=0), 1.0)
    assert report.joint_zero_classes == ()
    assert report.object_zero_classes == ()
    assert np.array_equal(report.joint_by_class, _group_norms(model.w, LAYOUT.joint_dims))


@pytest.mark.parametrize("signed", [False, True])
def test_report_scores_equal_per_half_block_scores_bit_for_bit(signed):
    """The one pass over the stacked [W; U], cut at the last joint, gives the
    same bits as scoring W over the joints and U over the object blocks."""
    score = block_sums if signed else _group_norms
    rng = np.random.default_rng(11)
    for n_classes in (1, 2, 6):
        w = rng.standard_normal((LAYOUT.d_t, n_classes)) * 1e3
        u = rng.standard_normal((LAYOUT.d_o, n_classes)) * 1e-3
        model = make_model(w=w, u=u, n_classes=n_classes)
        report = importance_report(model, signed=signed)
        joints = score(model.w, LAYOUT.joint_dims)
        blocks = score(model.u, LAYOUT.object_block_dims)
        assert report.joint_by_class.tobytes() == joints.tobytes()
        assert report.joint_overall.tobytes() == joints.sum(axis=1).tobytes()
        assert report.object_modality_by_class.tobytes() == blocks.tobytes()
        per_object = blocks.reshape(LAYOUT.object_count, LAYOUT.n_modalities, -1).sum(axis=1)
        assert report.object_by_class.tobytes() == per_object.tobytes()


def test_report_flags_all_zero_classes():
    w = np.zeros((LAYOUT.d_t, 2))
    u = np.zeros((LAYOUT.d_o, 2))
    w[0, 0] = 1.0  # class 1 skeleton column stays empty
    u[0, 1] = 1.0  # class 0 object column stays empty
    report = importance_report(make_model(w=w, u=u))
    assert report.joint_zero_classes == (1,)
    assert report.object_zero_classes == (0,)
    assert np.allclose(report.joint_normalized[:, 1], 0.0)


def test_signed_report_normalizes_by_absolute_mass():
    w = np.zeros((LAYOUT.d_t, 2))
    w[0, 0] = 3.0
    w[2, 0] = -1.0  # joint 1 contributes -1, total |mass| = 3 + 1
    model = make_model(w=w)
    report = importance_report(model, signed=True)
    assert report.signed
    assert report.joint_normalized[0, 0] == pytest.approx(0.75)
    assert report.joint_normalized[1, 0] == pytest.approx(-0.25)
    assert np.allclose(np.abs(report.joint_normalized[:, 0]).sum(), 1.0)


def test_report_to_dict_shape_and_names():
    names = GroupNames(
        joints=("elbow", "knee"),
        objects=("cup", "ball"),
        modalities=("pos", "size"),
    )
    model = make_model(names=names)
    payload = report_to_dict(importance_report(model), model)
    assert payload["schema_version"] == 1
    assert payload["signed"] is False
    assert payload["classes"] == ["class_0", "class_1"]
    assert payload["joints"]["names"] == ["elbow", "knee"]
    assert payload["objects"]["block_names"] == [
        "cup:pos",
        "cup:size",
        "ball:pos",
        "ball:size",
    ]
    assert len(payload["joints"]["by_class"]) == LAYOUT.n_joints
    assert len(payload["objects"]["by_class"]) == len(LAYOUT.object_block_dims)
    assert len(payload["objects"]["per_object"]) == LAYOUT.object_count
    json.dumps(payload)  # must be JSON-serializable as-is


def test_format_report_table_contents():
    names = GroupNames(
        joints=("elbow", "knee"),
        objects=("cup", "ball"),
        modalities=("pos", "size"),
    )
    model = make_model(names=names)
    text = format_report_table(importance_report(model), model)
    assert "Joint importance (block norms)" in text
    assert "Joint importance, class-normalized" in text
    assert "Object-modality importance" in text
    assert "elbow" in text and "knee" in text
    assert "cup:pos" in text and "ball:size" in text
    assert "class_0" in text and "class_1" in text
    assert "overall" in text


def test_format_report_table_selection_and_validation():
    model = make_model(n_classes=3)
    report = importance_report(model)
    text = format_report_table(report, model, joints=(1,), classes=(0, 2))
    assert "joint_1" in text
    assert "joint_0" not in text
    assert "class_1" not in text
    # an empty selection leaves its rows or columns out, on either axis
    no_joints = format_report_table(report, model, joints=())
    assert "joint_0" not in no_joints and "joint_1" not in no_joints
    assert "object_1:modality_1" in no_joints and "class_2" in no_joints
    no_classes = format_report_table(report, model, classes=())
    assert "joint_1" in no_classes and "class_0" not in no_classes
    neither = format_report_table(report, model, joints=(), classes=())
    assert "joint_0" not in neither and "class_0" not in neither
    with pytest.raises(ValidationError, match="joint selection"):
        format_report_table(report, model, joints=(5,))
    with pytest.raises(ValidationError, match="class selection"):
        format_report_table(report, model, classes=(-1,))
    # a float or a bool is not an index, even when it compares in range
    with pytest.raises(ValidationError, match="class selection"):
        format_report_table(report, model, classes=(0.0,))
    with pytest.raises(ValidationError, match="joint selection"):
        format_report_table(report, model, joints=(True,))
    # a bare index is not a selection
    with pytest.raises(ValidationError, match="joint selection must be a sequence"):
        format_report_table(report, model, joints=1)
    with pytest.raises(ValidationError, match="class selection must be a sequence"):
        format_report_table(report, model, classes=0)


def test_format_report_table_notes_zero_columns():
    model = make_model(w=np.zeros((LAYOUT.d_t, 2)))
    text = format_report_table(importance_report(model), model)
    assert "left unnormalized" in text
    assert "0, 1" in text
