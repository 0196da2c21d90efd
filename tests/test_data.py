"""Standardization, synthetic generation, splits, and file round-trips."""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poseact.data
from poseact import (
    Dataset,
    FeatureLayout,
    GroupNames,
    LayoutError,
    Model,
    SolverConfig,
    Standardizer,
    SynthSpec,
    ValidationError,
    generate,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    split,
    standardize,
)
from poseact.data import DATASET_FORMAT, FORMAT_VERSION, MODEL_FORMAT
from poseact.errors import ConfigError, DataFormatError

from conftest import build_dataset


# --- standardize --------------------------------------------------------------


def test_standardize_hand_example():
    layout = FeatureLayout(joint_dims=(1,), object_count=1, modality_dims=(1,))
    dataset = Dataset(
        layout=layout,
        skeleton=np.array([[1.0, 3.0]]),
        objects=np.array([[10.0, 10.0]]),
    )
    out, transform = standardize(dataset)
    # mean 2, population std 1 -> values land on -1 and +1
    assert np.allclose(out.skeleton, [[-1.0, 1.0]])
    assert transform.skeleton_mean[0] == 2.0
    assert transform.skeleton_scale[0] == 1.0
    # the object feature is constant: centered, scale left at 1, and flagged
    assert np.allclose(out.objects, [[0.0, 0.0]])
    assert transform.object_scale[0] == 1.0
    assert transform.object_constant == (0,)
    assert transform.skeleton_constant == ()


def test_standardize_output_has_zero_mean_unit_variance(small_dataset):
    out, transform = standardize(small_dataset)
    for mat in (out.skeleton, out.objects):
        assert np.allclose(mat.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(mat.std(axis=1), 1.0, atol=1e-12)
    # population (not sample) statistics
    assert np.allclose(transform.skeleton_mean, small_dataset.skeleton.mean(axis=1))
    assert np.allclose(transform.skeleton_scale, small_dataset.skeleton.std(axis=1))


def test_standardize_requires_two_instances(small_layout):
    dataset = Dataset(
        layout=small_layout,
        skeleton=np.zeros((small_layout.d_t, 1)),
        objects=np.zeros((small_layout.d_o, 1)),
    )
    with pytest.raises(ValidationError, match="two instances"):
        standardize(dataset)


def test_standardize_keeps_labels_and_names(small_layout):
    dataset = build_dataset(small_layout, n=25, n_classes=3, seed=3)
    out, _ = standardize(dataset)
    assert np.array_equal(out.labels, dataset.labels)
    assert out.class_names == dataset.class_names
    assert out.names == dataset.names


def test_standardizer_apply_replays_training_transform(small_dataset):
    out, transform = standardize(small_dataset)
    replayed = transform.apply(small_dataset)
    assert np.array_equal(replayed.skeleton, out.skeleton)
    assert np.array_equal(replayed.objects, out.objects)


def test_standardizer_apply_uses_training_statistics(small_layout):
    train = build_dataset(small_layout, n=30, n_classes=2, seed=11)
    held_out = build_dataset(small_layout, n=12, n_classes=2, seed=12)
    _, transform = standardize(train)
    out = transform.apply(held_out)
    expected = (held_out.skeleton - transform.skeleton_mean[:, None]) / (
        transform.skeleton_scale[:, None]
    )
    assert np.allclose(out.skeleton, expected)
    # held-out data is generally not centered by the training statistics
    assert not np.allclose(out.skeleton.mean(axis=1), 0.0, atol=1e-3)


def test_standardizer_apply_rejects_wrong_width(small_dataset):
    _, transform = standardize(small_dataset)
    other_layout = FeatureLayout(joint_dims=(4,), object_count=1, modality_dims=(2,))
    other = build_dataset(other_layout, n=9, n_classes=2, seed=0)
    with pytest.raises(LayoutError, match="skeleton features"):
        transform.apply(other)


def test_standardizer_validates_its_fields():
    good = dict(
        skeleton_mean=[0.0, 0.0],
        skeleton_scale=[1.0, 1.0],
        object_mean=[0.0],
        object_scale=[1.0],
    )
    Standardizer(**good)
    with pytest.raises(ValidationError, match="strictly positive"):
        Standardizer(**{**good, "skeleton_scale": [1.0, 0.0]})
    with pytest.raises(ValidationError, match="strictly positive"):
        Standardizer(**{**good, "object_scale": [-1.0]})
    with pytest.raises(LayoutError, match="lengths disagree"):
        Standardizer(**{**good, "skeleton_mean": [0.0, 0.0, 0.0]})
    with pytest.raises(ValidationError, match="non-finite"):
        Standardizer(**{**good, "object_mean": [np.nan]})
    # numeric strings and booleans are not numbers
    with pytest.raises(ValidationError, match="skeleton_mean must hold real numbers"):
        Standardizer(**{**good, "skeleton_mean": ["0.5", "1"], "skeleton_scale": [True, True]})
    with pytest.raises(ValidationError, match="skeleton_scale must hold real numbers"):
        Standardizer(**{**good, "skeleton_scale": [True, True]})


# --- synthetic data -----------------------------------------------------------


LAYOUT = FeatureLayout(joint_dims=(2, 3, 1), object_count=2, modality_dims=(2, 1))


def make_spec(**overrides):
    base = dict(
        layout=LAYOUT,
        n_classes=2,
        n_instances=50,
        noise_sigma=0.1,
        planted_joints=((0,), (1,)),
        planted_blocks=(((0, 0),), ((1, 1),)),
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_synth_spec_rejects_bad_values():
    bad = [
        dict(n_classes=1),
        dict(n_classes=2.0),
        dict(n_instances=0),
        dict(noise_sigma=-0.1),
        dict(noise_sigma=float("nan")),
        dict(seed=-1),
        dict(planted_joints=((0,),)),  # one class listed, two declared
        dict(planted_joints=((0,), ())),  # empty support
        dict(planted_joints=((0,), (3,))),  # joint index out of range
        dict(planted_blocks=(((0, 0),),)),
        dict(planted_blocks=(((0, 0),), ())),
        dict(planted_blocks=(((0, 0),), ((2, 0),))),  # object out of range
        dict(planted_blocks=(((0, 0),), ((0, 2),))),  # modality out of range
        # non-integer indices are rejected, not truncated or read as 0/1
        dict(planted_joints=((0.7,), (1,))),
        dict(planted_joints=((0,), ("1",))),
        dict(planted_joints=((True,), (1,))),
        dict(planted_blocks=(((0, True),), ((0, 0),))),
        dict(planted_blocks=(((0, 0),), ((0.9, 0),))),
        dict(planted_blocks=(((0, 0),), ((0, "1"),))),
        # the nesting is checked too: flat lists, and pairs that are not pairs
        dict(planted_joints=(0, 1)),
        dict(planted_joints=3),
        dict(planted_blocks=((0, 0), (0, 1))),
        dict(planted_blocks=(((0,),), ((0, 0),))),
        dict(planted_blocks=(((0, 0, 0),), ((0, 0),))),
    ]
    for overrides in bad:
        with pytest.raises(ConfigError):
            make_spec(**overrides)


def test_synth_spec_sorts_and_deduplicates_support():
    spec = make_spec(
        planted_joints=((2, 0, 2), (1,)),
        planted_blocks=(((1, 0), (0, 0), (1, 0)), ((0, 1),)),
    )
    assert spec.planted_joints == ((0, 2), (1,))
    assert spec.planted_blocks == (((0, 0), (1, 0)), ((0, 1),))


def test_generate_shapes_and_one_hot_labels():
    spec = make_spec(n_instances=40)
    made = generate(spec)
    dataset = made.dataset
    assert dataset.skeleton.shape == (LAYOUT.d_t, 40)
    assert dataset.objects.shape == (LAYOUT.d_o, 40)
    assert dataset.labels.shape == (40, 2)
    assert np.array_equal(np.sort(np.unique(dataset.labels)), [0.0, 1.0])
    assert np.array_equal(dataset.labels.sum(axis=1), np.ones(40))
    assert dataset.class_names == ("class_0", "class_1")
    assert made.true_w.shape == (LAYOUT.d_t, 2)
    assert made.true_u.shape == (LAYOUT.d_o, 2)


def test_generate_is_deterministic():
    a = generate(make_spec())
    b = generate(make_spec())
    assert np.array_equal(a.dataset.skeleton, b.dataset.skeleton)
    assert np.array_equal(a.dataset.objects, b.dataset.objects)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    assert np.array_equal(a.true_w, b.true_w)
    c = generate(make_spec(seed=6))
    assert not np.array_equal(a.dataset.skeleton, c.dataset.skeleton)


def test_generate_puts_weight_only_on_planted_support():
    spec = make_spec(
        planted_joints=((0, 2), (1,)),
        planted_blocks=(((0, 1),), ((1, 0), (0, 0))),
    )
    made = generate(spec)
    for c in range(spec.n_classes):
        planted = set(spec.planted_joints[c])
        for j, sl in enumerate(LAYOUT.joint_slices):
            block = made.true_w[sl, c]
            if j in planted:
                assert np.all(block != 0.0)
            else:
                assert np.all(block == 0.0)
        planted_idx = {LAYOUT.object_block_index(o, m) for o, m in spec.planted_blocks[c]}
        for b, sl in enumerate(LAYOUT.object_block_slices):
            block = made.true_u[sl, c]
            if b in planted_idx:
                assert np.all(block != 0.0)
            else:
                assert np.all(block == 0.0)


def test_generate_labels_are_argmax_of_clean_scores():
    # with no feature noise the returned features ARE the clean features,
    # so the labels must be recomputable from the planted weights
    spec = make_spec(noise_sigma=0.0, n_instances=80, seed=13)
    made = generate(spec)
    dataset = made.dataset
    for i in range(dataset.n_instances):
        scores = made.true_w.T @ dataset.skeleton[:, i] + made.true_u.T @ dataset.objects[:, i]
        assert dataset.labels[i, int(np.argmax(scores))] == 1.0


def test_generate_noise_perturbs_features_but_not_labels():
    clean = generate(make_spec(noise_sigma=0.0, seed=21))
    noisy = generate(make_spec(noise_sigma=0.5, seed=21))
    assert np.array_equal(clean.dataset.labels, noisy.dataset.labels)
    assert np.array_equal(clean.true_w, noisy.true_w)
    assert not np.array_equal(clean.dataset.skeleton, noisy.dataset.skeleton)
    spread = np.abs(noisy.dataset.skeleton - clean.dataset.skeleton)
    assert spread.mean() < 1.0  # sigma 0.5 jitter, not a resample


# --- split ----------------------------------------------------------------------


def test_split_sizes_follow_rounding(small_layout):
    dataset = build_dataset(small_layout, n=10, n_classes=2, seed=1)
    train, test = split(dataset, train_fraction=0.73, seed=0)
    assert train.n_instances == 7
    assert test.n_instances == 3


def test_split_partitions_the_instances(small_layout):
    dataset = build_dataset(small_layout, n=37, n_classes=3, seed=8)
    train, test = split(dataset, train_fraction=0.7, seed=4)
    # fingerprint each instance by its (almost surely unique) first feature
    fingerprint = {dataset.skeleton[0, i]: i for i in range(37)}
    assert len(fingerprint) == 37
    seen = []
    for part in (train, test):
        for i in range(part.n_instances):
            j = fingerprint[part.skeleton[0, i]]
            seen.append(j)
            assert np.array_equal(part.skeleton[:, i], dataset.skeleton[:, j])
            assert np.array_equal(part.objects[:, i], dataset.objects[:, j])
            assert np.array_equal(part.labels[i], dataset.labels[j])
    assert sorted(seen) == list(range(37))
    for part in (train, test):
        assert part.layout == dataset.layout
        assert part.class_names == dataset.class_names
        assert part.names == dataset.names


def test_split_is_seed_deterministic(small_layout):
    dataset = build_dataset(small_layout, n=50, n_classes=2, seed=2)
    a_train, a_test = split(dataset, 0.6, seed=9)
    b_train, b_test = split(dataset, 0.6, seed=9)
    assert np.array_equal(a_train.skeleton, b_train.skeleton)
    assert np.array_equal(a_test.objects, b_test.objects)
    c_train, _ = split(dataset, 0.6, seed=10)
    assert not np.array_equal(a_train.skeleton, c_train.skeleton)


def test_split_rejects_bad_fractions(small_layout):
    dataset = build_dataset(small_layout, n=8, n_classes=2, seed=0)
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ConfigError, match="between 0 and 1"):
            split(dataset, frac, seed=0)
    with pytest.raises(ConfigError, match="empty side"):
        split(dataset, 0.01, seed=0)
    with pytest.raises(ConfigError, match="empty side"):
        split(dataset, 0.99, seed=0)


def test_split_handles_unlabeled_data(small_layout):
    rng = np.random.default_rng(0)
    dataset = Dataset(
        layout=small_layout,
        skeleton=rng.standard_normal((small_layout.d_t, 20)),
        objects=rng.standard_normal((small_layout.d_o, 20)),
    )
    train, test = split(dataset, 0.5, seed=1)
    assert train.labels is None and test.labels is None
    assert train.n_instances == 10 and test.n_instances == 10


# --- dataset files ---------------------------------------------------------------


def named_dataset(n=12, seed=3):
    layout = FeatureLayout(joint_dims=(2, 1), object_count=2, modality_dims=(1, 2))
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, 3))
    labels[np.arange(n), rng.integers(0, 3, size=n)] = 1.0
    return Dataset(
        layout=layout,
        skeleton=rng.standard_normal((layout.d_t, n)),
        objects=rng.standard_normal((layout.d_o, n)),
        labels=labels,
        class_names=("walk", "drink", "wave"),
        names=GroupNames(
            joints=("hip", "wrist"),
            objects=("cup", "phone"),
            modalities=("pos", "size"),
        ),
    )


def test_dataset_file_round_trip(tmp_path):
    dataset = named_dataset()
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert back.layout == dataset.layout
    assert np.array_equal(back.skeleton, dataset.skeleton)
    assert np.array_equal(back.objects, dataset.objects)
    assert np.array_equal(back.labels, dataset.labels)
    assert back.class_names == dataset.class_names
    assert back.names == dataset.names


def test_dataset_file_round_trip_unlabeled(tmp_path):
    layout = FeatureLayout(joint_dims=(3,), object_count=1, modality_dims=(2,))
    rng = np.random.default_rng(7)
    dataset = Dataset(
        layout=layout,
        skeleton=rng.standard_normal((3, 5)),
        objects=rng.standard_normal((2, 5)),
    )
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert back.labels is None
    assert back.class_names is None
    assert np.array_equal(back.skeleton, dataset.skeleton)


def test_dataset_file_bytes_are_stable(tmp_path):
    dataset = named_dataset(seed=9)
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    save_dataset(dataset, first)
    save_dataset(load_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_dataset_refuses_silent_overwrite(tmp_path):
    dataset = named_dataset()
    path = tmp_path / "data.txt"
    save_dataset(dataset, path)
    with pytest.raises(FileExistsError, match="overwrite"):
        save_dataset(dataset, path)
    save_dataset(dataset, path, overwrite=True)  # explicit is fine


def write_lines(tmp_path, *lines):
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def good_header(**overrides):
    header = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "joint_dims": [1],
        "object_count": 1,
        "modality_dims": [1],
        "classes": ["a", "b"],
    }
    header.update(overrides)
    return json.dumps(header)


def test_load_dataset_header_errors(tmp_path):
    cases = [
        ("{not json", "line 1"),
        (json.dumps([1, 2]), "must be a JSON object"),
        (good_header(format="something-else"), "format"),
        (good_header(version=99), "version"),
        (json.dumps({"format": DATASET_FORMAT, "version": FORMAT_VERSION}), "missing"),
        (good_header(joint_dims=[0]), "bad layout"),
        (good_header(classes=["a", "a"]), "duplicates"),
        (good_header(classes=["a", ""]), "non-empty strings"),
        # a string is not split into one-character names
        (good_header(names={"joints": "a", "objects": ["o"], "modalities": ["m"]}), "lists"),
    ]
    for header, fragment in cases:
        path = write_lines(tmp_path, header, '[0.0, 0.0, "a"]')
        with pytest.raises(DataFormatError, match=fragment):
            load_dataset(path)


def test_load_dataset_row_errors(tmp_path):
    header = good_header()
    cases = [
        ("[0.0, 0.0", r"row 0 \(line 2\)"),
        ('{"a": 1}', "expected a JSON array"),
        ('[0.0, "a"]', "entry 1 is not a number"),
        ('[0.0, true, "a"]', "entry 1 is not a number"),
        ('[0.0, NaN, "a"]', "entry 1 is not finite"),
        ('[0.0, 0.0, 0.0, "a"]', "expected 2 features"),
        ('[0.0, 0.0, "zzz"]', "unknown label"),
        ("[0.0, 0.0, 17]", "label must be a string"),
        # one past the float range: isfinite would overflow converting it
        ("[0.0, " + "9" * 401 + ', "a"]', "entry 1 is too large for a float"),
        # past the interpreter's digit limit for integer literals
        ("[0.0, " + "9" * 5000 + ', "a"]', r"row 0 \(line 2\) is not valid JSON"),
        # nested past the interpreter's recursion limit
        ("[" * 100_000, r"row 0 \(line 2\) is not valid JSON \(maximum recursion depth"),
    ]
    for row, fragment in cases:
        path = write_lines(tmp_path, header, row)
        with pytest.raises(DataFormatError, match=fragment):
            load_dataset(path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(header.encode() + b'\n[0.0, 0.0, "\xe9"]\n')
    with pytest.raises(DataFormatError, match="not UTF-8"):
        load_dataset(path)


def test_load_dataset_rejects_mixed_labeled_rows(tmp_path):
    path = write_lines(tmp_path, good_header(), '[0.0, 0.0, "a"]', "[0.0, 0.0]")
    with pytest.raises(DataFormatError, match=r"row 1 \(line 3\).*mixes"):
        load_dataset(path)


def test_load_dataset_empty_and_headerless_files(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        load_dataset(path)
    path = write_lines(tmp_path, good_header())
    with pytest.raises(DataFormatError, match="no instance rows"):
        load_dataset(path)


def test_load_dataset_labeled_rows_need_two_classes(tmp_path):
    path = write_lines(tmp_path, good_header(classes=["only"]), '[0.0, 0.0, "only"]')
    with pytest.raises(DataFormatError, match="fewer than two classes"):
        load_dataset(path)


JSON_VALUES = (
    st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
    | st.text(max_size=2)
)


def first_bad_entry(values):
    """The message _check_numbers must give for values, or None: the spec, value by value."""
    for k, v in enumerate(values):
        if type(v) not in (int, float):
            return f"entry {k} is not a number ({v!r})"
        try:
            if not math.isfinite(float(v)):
                return f"entry {k} is not finite ({v!r})"
        except OverflowError:
            return f"entry {k} is too large for a float"
    return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    values=st.lists(st.floats(-1e9, 1e9) | st.integers(-(10**6), 10**6), max_size=8),
    bad=st.data(),
)
def test_check_numbers_matches_the_spec(values, bad):
    """The whole-row check never accepts what the value-by-value loop would reject."""
    if values and bad.draw(st.booleans(), label="corrupt"):
        values[bad.draw(st.integers(0, len(values) - 1), label="at")] = bad.draw(JSON_VALUES)
    expected = first_bad_entry(values)
    if expected is None:
        poseact.data._check_numbers(values, "row 0")
    else:
        with pytest.raises(DataFormatError) as caught:
            poseact.data._check_numbers(values, "row 0")
        assert str(caught.value) == f"row 0: {expected}"


@pytest.fixture
def file_of_300_rows(tmp_path):
    path = tmp_path / "rows.txt"
    save_dataset(named_dataset(n=300, seed=4), path)
    return path


def test_valid_file_skips_the_per_value_loop(file_of_300_rows, monkeypatch):
    calls = []
    check = poseact.data._row_number
    monkeypatch.setattr(poseact.data, "_row_number", lambda v: calls.append(v) or check(v))
    back = load_dataset(file_of_300_rows)
    assert back.n_instances == 300
    assert calls == []


@pytest.mark.parametrize(
    "k, value, message",
    [
        (0, "NaN", "entry 0 is not finite (nan)"),
        (4, "true", "entry 4 is not a number (True)"),
        (8, "9" * 401, "entry 8 is too large for a float"),
    ],
)
def test_bad_value_in_the_last_row_is_named(file_of_300_rows, k, value, message):
    lines = file_of_300_rows.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[-2])
    assert len(row) == 10  # nine features and a label
    row[k] = value
    lines[-2] = "[" + ", ".join(v if i == k else json.dumps(v) for i, v in enumerate(row)) + "]"
    file_of_300_rows.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DataFormatError) as caught:
        load_dataset(file_of_300_rows)
    assert str(caught.value) == f"row 299 (line 301): {message}"


# --- the row parser: orjson first, json for the rows orjson rejects ------------------


def reject(text):
    raise orjson.JSONDecodeError("rejected", text, 0)


def load_outcome(path, json_only=False):
    """load_dataset's arrays as bytes, or its DataFormatError message."""
    with pytest.MonkeyPatch.context() as patch:
        if json_only:
            patch.setattr(poseact.data.orjson, "loads", reject)
        try:
            back = load_dataset(path)
        except DataFormatError as exc:
            return str(exc)
    labels = None if back.labels is None else back.labels.tobytes()
    return back.skeleton.tobytes(), back.objects.tobytes(), labels


WIDE_HEADER = good_header(joint_dims=[3], modality_dims=[2])  # five features a row
DIGITS = st.integers(1, 9).map(str)
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-(2**63), 2**64 - 1).map(str),
    # decimal strings with 15-40 significant digits, down to the subnormals
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        DIGITS,
        st.integers(10**13, 10**39),
        st.integers(-340, 310),
    ),
    # 30-digit integer literals, past 64 bits
    st.builds("{}{}{}".format, st.sampled_from(["", "-"]), DIGITS, st.integers(10**28, 10**29 - 1)),
    st.sampled_from(["-0", "-0.0", "1E5", "1e-400", "5e-324", "2.4703282292062328e-324"]),
)
# past the float range, past the interpreter's digit limit, or not finite
NOT_FINITE = st.sampled_from(
    ["9" * 401, "-" + "9" * 401, "1" + "0" * 4999, "1e400", "-1e400", "NaN", "Infinity", "-Infinity"]
)
SMALL_NUMBERS = st.floats(-1e6, 1e6).map(repr) | st.integers(-99, 99).map(str)
OTHERS = st.one_of(
    st.sampled_from(["true", "false", "null", '"zzz"', '"\\u00e9"', '"\\ud800"', '"é"']),
    st.sampled_from(['"\\ud800\\udc00"', '"a\\"b"', "[]", "{}", '{"a": 1, "a": 2}']),
    st.text(max_size=3).map(json.dumps),
    st.lists(SMALL_NUMBERS | st.just('"a"'), max_size=3).map(lambda v: "[" + ", ".join(v) + "]"),
    st.builds('{{"k": [{}]}}'.format, SMALL_NUMBERS),
)
LABELS = st.sampled_from(['"a"', '"b"', '"\\u0061"']) | OTHERS | SMALL_NUMBERS
SPACE = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def json_rows(draw, labeled):
    """One row's text: five features and maybe a label, now and then spoiled.

    Integer literals past 64 bits go only where a number belongs: orjson reads
    them as floats, so elsewhere they would show up in a message differently
    (pinned in test_known_parser_divergences).
    """
    entries = draw(st.lists(FINITE, min_size=5, max_size=5))
    if labeled:
        entries.append(draw(LABELS))
    for spoiler in (NOT_FINITE, OTHERS):
        if draw(st.integers(0, 5)) == 5:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(spoiler)
    if draw(st.integers(0, 9)) == 9:  # a wrong width
        entries = entries[: draw(st.integers(0, 4))]
    text = ",".join(draw(SPACE) + entry + draw(SPACE) for entry in entries)
    return draw(SPACE) + "[" + text + "]" + draw(SPACE)


@pytest.fixture(scope="module")
def rows_path(tmp_path_factory):
    return tmp_path_factory.mktemp("rows") / "rows.txt"


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(rows=st.booleans().flatmap(lambda labeled: st.lists(json_rows(labeled), min_size=1, max_size=3)))
def test_orjson_rows_load_as_json_rows_do(rows, rows_path):
    """Every row loads to bit-equal arrays, or fails with the same message, either way."""
    rows_path.write_text("\n".join([WIDE_HEADER, *rows]) + "\n", encoding="utf-8")
    assert load_outcome(rows_path) == load_outcome(rows_path, json_only=True)


DEEP = 1020  # past json's recursion limit, within orjson's 1024 levels


@pytest.mark.parametrize(
    "row, shipped, json_only",
    [
        # (a) an integer literal outside [-2**63, 2**64) where no number belongs
        (
            "[0.0, 0.0, 1" + "0" * 29 + "]",
            ": label must be a string, got 1e+29",
            ": label must be a string, got 1" + "0" * 29,
        ),
        (
            "[0.0, [18446744073709551616], 0.0]",
            ": entry 1 is not a number ([1.8446744073709552e+19])",
            ": entry 1 is not a number ([18446744073709551616])",
        ),
        (
            '[0.0, 0.0, [-9223372036854775809, "a"]]',
            ": label must be a string, got [-9.223372036854776e+18, 'a']",
            ": label must be a string, got [-9223372036854775809, 'a']",
        ),
        # (b) nesting deeper than json's recursion limit and repr's
        (
            "[" * DEEP + "]" * DEEP,
            ": 1 entries, expected 2 features plus an optional label",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
        (
            "[0.0, " + "[" * DEEP + "]" * DEEP + ', "a"]',
            ": entry 1 is not a number (a list nested too deeply to show)",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
        (
            '[0.0, 0.0, {"k": ' + "[" * DEEP + "]" * DEEP + "}]",
            ": label must be a string, got a dict nested too deeply to show",
            " is not valid JSON (maximum recursion depth exceeded",
        ),
    ],
    ids=["a-label", "a-nested", "a-nested-label", "b-row", "b-entry", "b-label"],
)
def test_known_parser_divergences(tmp_path, row, shipped, json_only):
    """The only two ways a row's message depends on which parser read it."""
    path = write_lines(tmp_path, good_header(), row)
    assert load_outcome(path) == "row 0 (line 2)" + shipped
    # the recursion message goes on in the interpreter's own words
    assert load_outcome(path, json_only=True).startswith("row 0 (line 2)" + json_only)


# --- model files ------------------------------------------------------------------


def small_model(with_standardizer=False):
    layout = FeatureLayout(joint_dims=(2, 1), object_count=1, modality_dims=(2,))
    rng = np.random.default_rng(17)
    transform = None
    if with_standardizer:
        transform = Standardizer(
            skeleton_mean=rng.standard_normal(layout.d_t),
            skeleton_scale=np.full(layout.d_t, 2.0),
            object_mean=rng.standard_normal(layout.d_o),
            object_scale=np.full(layout.d_o, 0.5),
            skeleton_constant=(1,),
        )
    return Model(
        layout=layout,
        w=rng.standard_normal((layout.d_t, 2)),
        u=rng.standard_normal((layout.d_o, 2)),
        class_names=("sit", "stand"),
        hyperparams=SolverConfig(lambda1=0.3, lambda2=0.05, tol=1e-7, max_iters=40, seed=3),
        names=GroupNames(joints=("knee", "ankle"), objects=("chair",), modalities=("pos",)),
        standardizer=transform,
    )


def test_model_rejects_standardizer_for_another_layout():
    transform = small_model(with_standardizer=True).standardizer
    wider = replace(transform, object_mean=np.zeros(3), object_scale=np.ones(3))
    with pytest.raises(LayoutError, match="standardizer has 3 object features, layout has 2"):
        replace(small_model(), standardizer=wider)
    outside = replace(transform, skeleton_constant=(3,))
    with pytest.raises(LayoutError, match="skeleton_constant indices outside \\[0, 3\\)"):
        replace(small_model(), standardizer=outside)


def test_model_file_round_trip(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.layout == model.layout
    assert np.array_equal(back.w, model.w)
    assert np.array_equal(back.u, model.u)
    assert back.class_names == model.class_names
    assert back.hyperparams == model.hyperparams
    assert back.names == model.names
    assert back.standardizer is None


def test_model_file_round_trip_with_standardizer(tmp_path):
    model = small_model(with_standardizer=True)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.standardizer.skeleton_mean, model.standardizer.skeleton_mean)
    assert np.array_equal(back.standardizer.object_scale, model.standardizer.object_scale)
    assert back.standardizer.skeleton_constant == (1,)
    assert back.standardizer.object_constant == ()


def test_model_file_bytes_are_stable(tmp_path):
    model = small_model(with_standardizer=True)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_save_model_refuses_silent_overwrite(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(FileExistsError, match="overwrite"):
        save_model(model, path)
    save_model(model, path, overwrite=True)


def test_load_model_errors(tmp_path):
    model = small_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())

    def mutated(**changes):
        out = {**doc, **changes}
        target = tmp_path / "mutated.json"
        target.write_text(json.dumps(out), encoding="utf-8")
        return target

    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_model(bad)
    bad.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        load_model(bad)
    with pytest.raises(DataFormatError, match="format"):
        load_model(mutated(format="other"))
    with pytest.raises(DataFormatError, match="version"):
        load_model(mutated(version=2))
    with pytest.raises(DataFormatError, match="classes"):
        load_model(mutated(classes=[]))
    with pytest.raises(DataFormatError, match="w must hold"):
        load_model(mutated(w=doc["w"][:-1]))
    with pytest.raises(DataFormatError, match="non-finite"):
        load_model(mutated(u=[None] + doc["u"][1:]))
    with pytest.raises(DataFormatError, match="bad hyperparams"):
        load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": -1.0}))
    with pytest.raises(DataFormatError, match="bad standardizer"):
        load_model(mutated(standardizer={"skeleton_mean": [0.0]}))
    with pytest.raises(DataFormatError, match="bad names"):
        load_model(mutated(names={"joints": ["only-one"]}))
    with pytest.raises(DataFormatError, match="must be lists"):
        load_model(mutated(names={**doc["names"], "joints": "ab"}))
    # integer literals one past the float range overflow a float conversion
    huge = int("9" * 401)
    with pytest.raises(DataFormatError, match="w has a non-finite.*too large for a float"):
        load_model(mutated(w=[huge] + doc["w"][1:]))
    with pytest.raises(DataFormatError, match="bad hyperparams"):
        load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": huge}))
    scaling = {"skeleton_scale": [1.0] * 3, "object_mean": [0.0] * 2, "object_scale": [1.0] * 2}
    with pytest.raises(DataFormatError, match="bad standardizer"):
        load_model(mutated(standardizer={**scaling, "skeleton_mean": [huge, 0.0, 0.0]}))
    fitted = {**scaling, "skeleton_mean": [0.0] * 3}
    short = {**fitted, "skeleton_mean": [0.0] * 2, "skeleton_scale": [1.0] * 2}
    with pytest.raises(DataFormatError, match="standardizer has 2 skeleton features, layout has 3"):
        load_model(mutated(standardizer=short))
    with pytest.raises(DataFormatError, match="object_constant indices outside"):
        load_model(mutated(standardizer={**fitted, "object_constant": [2]}))
    with pytest.raises(DataFormatError, match="skeleton_constant indices outside"):
        load_model(mutated(standardizer={**fitted, "skeleton_constant": [-1]}))
    assert load_model(mutated(standardizer={**fitted, "skeleton_constant": [2]})).standardizer
    for index in (0.5, "1", True):
        with pytest.raises(DataFormatError, match="skeleton_constant entry must be an integer"):
            load_model(mutated(standardizer={**fitted, "skeleton_constant": [index]}))
    # strings and booleans are not numbers, in any standardizer vector
    for name, vector, shown in (
        ("skeleton_mean", ["0.5", "1", "2"], "'0.5'"),
        ("object_scale", [True, False], "True"),
        ("object_mean", [0.0, "2"], "'2'"),
    ):
        with pytest.raises(
            DataFormatError,
            match=rf"bad standardizer \({name}\): entry \d is not a number \({shown}\)",
        ):
            load_model(mutated(standardizer={**fitted, name: vector}))
    for value in ("0.5", True):
        with pytest.raises(DataFormatError, match=rf"lambda1 must be a number, got {value!r}"):
            load_model(mutated(hyperparams={**doc["hyperparams"], "lambda1": value}))
    with pytest.raises(DataFormatError, match="layout is missing 'object_count'"):
        load_model(mutated(layout={"joint_dims": [2, 1], "modality_dims": [2]}))
    bad.write_bytes(path.read_bytes().replace(b"sit", b"s\xffs"))
    with pytest.raises(DataFormatError, match="not UTF-8"):
        load_model(bad)


def test_load_model_fills_missing_hyperparams_from_solver_defaults(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(), path)
    doc = json.loads(path.read_text())
    doc["hyperparams"] = {"lambda1": 0.3, "seed": 5, "not_a_hyperparameter": "ignored"}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).hyperparams == SolverConfig(lambda1=0.3, seed=5)
    doc["hyperparams"] = {}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).hyperparams == SolverConfig()


def test_written_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        save_dataset(named_dataset(), tmp_path / "data.txt")
        save_model(small_model(), tmp_path / "model.json")
    finally:
        os.umask(old)
    # the temp files are renamed into place, none is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "model.json"]
    for name in ("data.txt", "model.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644
