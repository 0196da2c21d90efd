"""End-to-end command-line flows against real files in tmp_path."""

from __future__ import annotations

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poseact import Dataset, FeatureLayout, SolverConfig, load_dataset, load_model, save_dataset
from poseact.cli import main


def synth_args(out, instances=120, joint_dims="2,2", noise="0.1"):
    return [
        "synth",
        "--out",
        str(out),
        "--joint-dims",
        joint_dims,
        "--object-count",
        "2",
        "--modality-dims",
        "2",
        "--classes",
        "2",
        "--instances",
        str(instances),
        "--noise-sigma",
        noise,
        "--planted-joints",
        "0;1",
        "--planted-blocks",
        "0:0;1:0",
        "--seed",
        "0",
    ]


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    assert main(synth_args(path)) == 0
    return path


@pytest.fixture
def model_file(tmp_path, data_file):
    path = tmp_path / "model.json"
    code = main(
        ["train", "--data", str(data_file), "--model", str(path), "--max-iters", "60"]
    )
    assert code == 0
    return path


def test_synth_writes_loadable_dataset(tmp_path, capsys):
    path = tmp_path / "synth.txt"
    assert main(synth_args(path, instances=30)) == 0
    out = capsys.readouterr().out
    assert "wrote 30 instances" in out
    assert "instances per class:" in out
    dataset = load_dataset(path)
    assert dataset.n_instances == 30
    assert dataset.labels is not None


def test_synth_rejects_malformed_planted_flags(tmp_path, capsys):
    args = synth_args(tmp_path / "x.txt")
    bad_blocks = list(args)
    bad_blocks[bad_blocks.index("0:0;1:0")] = "0:0:9;1:0"
    assert main(bad_blocks) == 1
    assert "--planted-blocks" in capsys.readouterr().err
    bad_joints = list(args)
    bad_joints[bad_joints.index("0;1")] = "a;1"
    assert main(bad_joints) == 1
    assert "--planted-joints" in capsys.readouterr().err


def test_train_writes_model_and_report(tmp_path, data_file, capsys):
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", str(data_file), "--model", str(model_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "instances per class:" in out
    assert f"model written to {model_path}" in out
    model = load_model(model_path)
    assert model.w.shape[1] == 2
    # no solver flags: every hyperparameter is the SolverConfig default
    assert model.hyperparams == SolverConfig()
    report = json.loads((tmp_path / "model.report.json").read_text())
    assert report["schema_version"] == 1
    assert isinstance(report["converged"], bool)
    assert report["iterations_run"] == len(report["objective_trace"])
    assert report["final_objective"] == report["objective_trace"][-1]
    assert len(report["cg_steps"]) == report["iterations_run"]
    assert all(1 <= k <= 5 for k in report["cg_steps"])
    # the inner stop ratio of each iteration: tol for the first two solves
    assert len(report["cg_stop_ratios"]) == report["iterations_run"]
    assert report["cg_stop_ratios"][:2] == [SolverConfig().tol] * min(2, report["iterations_run"])
    assert all(r >= SolverConfig().tol for r in report["cg_stop_ratios"])


def test_train_zero_lambda2_flag_zeroes_one_weight(tmp_path, data_file):
    """A skeletal-only fit is --lambda2 0; train has no separate ablation flag."""
    model_path = tmp_path / "skel.json"
    args = ["train", "--data", str(data_file), "--model", str(model_path), "--max-iters", "20"]
    assert main(args + ["--lambda2", "0"]) == 0
    model = load_model(model_path)
    assert model.hyperparams.lambda2 == 0.0
    assert model.hyperparams.lambda1 == pytest.approx(0.1)
    assert "ablation" not in json.loads((tmp_path / "skel.report.json").read_text())
    assert main(args + ["--ablation", "skeletal-only"]) == 1


def test_train_non_convergence_warns_but_succeeds(tmp_path, data_file, capsys):
    model_path = tmp_path / "short.json"
    code = main(
        ["train", "--data", str(data_file), "--model", str(model_path), "--max-iters", "1"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "still moving" in captured.err
    assert model_path.exists()
    report = json.loads((tmp_path / "short.report.json").read_text())
    assert report["converged"] is False


def test_train_rejects_unlabeled_data(tmp_path, capsys):
    layout = FeatureLayout(joint_dims=(2,), object_count=1, modality_dims=(1,))
    rng = np.random.default_rng(0)
    dataset = Dataset(
        layout=layout,
        features=np.vstack((rng.standard_normal((2, 6)), rng.standard_normal((1, 6)))),
    )
    path = tmp_path / "unlabeled.txt"
    save_dataset(dataset, path)
    assert main(["train", "--data", str(path), "--model", str(tmp_path / "m.json")]) == 1
    assert "labeled" in capsys.readouterr().err


def test_predict_writes_json_with_accuracy(tmp_path, data_file, model_file, capsys):
    out_path = tmp_path / "pred.json"
    code = main(
        ["predict", "--data", str(data_file), "--model", str(model_file), "--out", str(out_path)]
    )
    assert code == 0
    assert "predictions written" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["classes"] == ["class_0", "class_1"]
    assert len(doc["indices"]) == 120
    assert doc["predictions"] == [doc["classes"][i] for i in doc["indices"]]
    # planted data with mild noise, scored in-sample: much better than chance
    assert doc["accuracy"] > 0.8


def test_predict_prints_json_without_out_flag(data_file, model_file, capsys):
    assert main(["predict", "--data", str(data_file), "--model", str(model_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema_version", "classes", "indices", "predictions", "accuracy"}


def test_predict_omits_accuracy_for_unlabeled_data(tmp_path, model_file, capsys):
    labeled = load_dataset(tmp_path / "data.txt")
    bare = Dataset(
        layout=labeled.layout,
        features=labeled.features,
        class_names=labeled.class_names,
    )
    path = tmp_path / "bare.txt"
    save_dataset(bare, path)
    assert main(["predict", "--data", str(path), "--model", str(model_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "accuracy" not in doc
    assert len(doc["indices"]) == 120


def test_analyze_prints_tables_and_writes_json(tmp_path, model_file, capsys):
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--model", str(model_file), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Joint importance (block norms)" in out
    assert "class-normalized" in out
    assert "Object-modality importance" in out
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["joints"]["names"] == ["joint_0", "joint_1"]
    assert doc["selected_joints"] is None


def test_analyze_selection_and_signed_flags(model_file, capsys):
    code = main(
        ["analyze", "--model", str(model_file), "--signed", "--joints", "1", "--classes", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "signed sums" in out
    assert "selected joints: 1" in out
    assert "selected classes: 0" in out
    assert main(["analyze", "--model", str(model_file), "--joints", "7"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_bench_predict_table_and_json(tmp_path, data_file, model_file, capsys):
    out_path = tmp_path / "bench.json"
    code = main(
        [
            "bench",
            "--data",
            str(data_file),
            "--model",
            str(model_file),
            "--min-duration",
            "0.05",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Processing Speed (Hz)" in out
    assert "Time Per Frame (sec)" in out
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["predictions_per_second"] > 0


def test_bench_and_predict_reject_a_dataset_of_another_block_split(tmp_path, model_file, capsys):
    # joints (1, 3) against the model's (2, 2): the same d_t and d_o
    other = tmp_path / "other.txt"
    assert main(synth_args(other, joint_dims="1,3")) == 0
    capsys.readouterr()
    for command in (["bench", "--min-duration", "0.01"], ["predict"]):
        args = command + ["--data", str(other), "--model", str(model_file)]
        assert main(args) == 1
        assert "dataset layout does not match model layout" in capsys.readouterr().err


def test_bench_predict_requires_model(data_file, capsys):
    assert main(["bench", "--data", str(data_file), "--min-duration", "0.01"]) == 1
    assert "--model" in capsys.readouterr().err


def test_ablate_writes_three_models_and_comparison(tmp_path, data_file, capsys):
    prefix = tmp_path / "ablation"
    code = main(
        [
            "ablate",
            "--data",
            str(data_file),
            "--out",
            str(prefix),
            "--max-iters",
            "40",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "split 120 instances into 84 train / 36 test" in out
    assert "variant" in out and "skeletal-only" in out and "attribute-only" in out
    for suffix, lam1, lam2 in (
        ("full", 0.1, 0.1),
        ("skeletal_only", 0.1, 0.0),
        ("attribute_only", 0.0, 0.1),
    ):
        model = load_model(f"{prefix}.{suffix}.json")
        assert model.hyperparams.lambda1 == pytest.approx(lam1)
        assert model.hyperparams.lambda2 == pytest.approx(lam2)
    comparison = json.loads((tmp_path / "ablation.comparison.json").read_text())
    assert comparison["schema_version"] == 1
    assert [row["variant"] for row in comparison["results"]] == [
        "full",
        "skeletal-only",
        "attribute-only",
    ]
    for row in comparison["results"]:
        assert 0.0 <= row["test_accuracy"] <= 1.0


def test_standardize_flag_flows_into_model_and_predict(tmp_path, data_file, capsys):
    model_path = tmp_path / "standardized.json"
    code = main(
        [
            "train",
            "--data",
            str(data_file),
            "--model",
            str(model_path),
            "--standardize",
            "--max-iters",
            "60",
        ]
    )
    assert code == 0
    model = load_model(model_path)
    assert model.standardizer is not None
    # predict applies the stored transform to the raw file automatically
    capsys.readouterr()
    assert main(["predict", "--data", str(data_file), "--model", str(model_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy"] > 0.8
    report = json.loads((tmp_path / "standardized.report.json").read_text())
    assert report["standardized"] is True


def test_standardize_overflow_exits_1_without_a_warning(tmp_path, data_file, capsys):
    """A value that leaves the float64 range when standardized is named as an
    overflow, in train and in predict, and no numpy warning leaks."""
    model_path = tmp_path / "standardized.json"
    train = ["train", "--data", str(data_file), "--model", str(model_path), "--standardize"]
    assert main(train + ["--max-iters", "5"]) == 0
    scale = load_model(model_path).standardizer.scale
    feature = int(np.argmin(scale))
    assert scale[feature] < 1.0
    lines = data_file.read_text(encoding="utf-8").split("\n")
    huge_value = float(np.finfo(np.float64).max)  # over the range once divided by a scale < 1
    for k, value in ((1, huge_value), (2, -huge_value)):
        row = json.loads(lines[k])
        row[feature] = value
        lines[k] = json.dumps(row)
    huge = tmp_path / "huge.txt"
    huge.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    cases = [
        (["train", "--data", str(huge), "--model", str(tmp_path / "m.json"), "--standardize"],
         "standardize"),
        (["predict", "--data", str(huge), "--model", str(model_path)], "standardizing"),
    ]
    for argv, verb in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert f"{verb} overflows float64 at feature {feature}" in err, (argv, err)


def test_exit_code_1_for_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["train", "--data", missing, "--model", str(tmp_path / "m.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["predict", "--data", missing, "--model", missing]) == 1
    assert main(["analyze", "--model", str(tmp_path / "ghost.json")]) == 1


def test_exit_code_1_for_bad_flag_values(tmp_path, data_file, model_file, capsys):
    model_path = str(tmp_path / "m.json")
    cases = [
        (["train", "--data", str(data_file), "--model", model_path, "--lambda1", "-0.5"], "--lambda1"),
        (["train", "--data", str(data_file), "--model", model_path, "--tol", "0"], "--tol"),
        (["train", "--data", str(data_file), "--model", model_path, "--max-iters", "0"], "--max-iters"),
        (["train", "--data", str(data_file), "--model", model_path, "--seed", "-2"], "--seed"),
        (
            [
                "ablate",
                "--data",
                str(data_file),
                "--train-fraction",
                "1.5",
            ],
            "--train-fraction",
        ),
        (
            [
                "bench",
                "--data",
                str(data_file),
                "--model",
                str(model_file),
                "--min-duration",
                "0",
            ],
            "--min-duration",
        ),
    ]
    for argv, flag in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert flag in err, (argv, err)


def test_exit_code_1_for_malformed_files(tmp_path, data_file, model_file, capsys):
    huge = "9" * 401  # an integer literal one past the float range
    lines = data_file.read_text().split("\n")
    lines[1] = "[" + huge + lines[1][lines[1].index(",") :]
    overflow_data = tmp_path / "overflow.txt"
    overflow_data.write_text("\n".join(lines))
    doc = json.loads(model_file.read_text())
    overflow_model = tmp_path / "overflow.json"
    overflow_model.write_text(json.dumps(doc).replace(json.dumps(doc["w"][0]), huge, 1))
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(data_file.read_bytes().replace(b"class_1", b"class_\xe9", 1))
    model_out = str(tmp_path / "m.json")
    standardized = tmp_path / "standardized.json"
    train = ["train", "--data", str(data_file), "--model", str(standardized), "--standardize"]
    assert main(train + ["--max-iters", "5"]) == 0
    doc = json.loads(standardized.read_text())
    for key in ("skeleton_mean", "skeleton_scale"):
        doc["standardizer"][key] = doc["standardizer"][key][:-1]
    short_standardizer = tmp_path / "short_standardizer.json"
    short_standardizer.write_text(json.dumps(doc))
    cases = [
        (["train", "--data", str(overflow_data), "--model", model_out], "too large"),
        (["predict", "--data", str(data_file), "--model", str(overflow_model)], "too large"),
        (["predict", "--data", str(latin1), "--model", str(model_file)], "not UTF-8"),
        (["analyze", "--model", str(short_standardizer)], "standardizer has"),
        (["predict", "--data", str(data_file), "--model", str(short_standardizer)], "standardizer has"),
    ]
    for argv, fragment in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert fragment in err, (argv, err)


def test_exit_code_1_for_a_class_name_utf8_cannot_hold(tmp_path, data_file, capsys):
    lines = data_file.read_text(encoding="utf-8").split("\n")
    header = json.loads(lines[0])
    header["classes"][0] = "\ud800"  # json escapes the lone surrogate as \ud800
    lines[0] = json.dumps(header)
    surrogate = tmp_path / "surrogate.txt"
    surrogate.write_text("\n".join(lines), encoding="utf-8")
    assert main(["train", "--data", str(surrogate), "--model", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert "line 1: bad classes" in err and "UTF-8" in err, err


@pytest.fixture(scope="module")
def scoring_files(tmp_path_factory):
    """A small valid dataset file and a standardized model trained on it, as bytes."""
    root = tmp_path_factory.mktemp("scoring")
    data, model = root / "data.txt", root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(synth_args(data, instances=8)) == 0
        assert main(["train", "--data", str(data), "--model", str(model), "--standardize"]) == 0
    return root, {"data": data.read_bytes(), "model": model.read_bytes()}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(draw=st.data())
def test_predict_on_corrupted_files_exits_0_or_1(scoring_files, draw):
    root, originals = scoring_files
    which = draw.draw(st.sampled_from(sorted(originals)), label="file")
    original = originals[which]
    cut = draw.draw(st.integers(0, len(original) - 1), label="byte offset")
    if draw.draw(st.booleans(), label="truncate"):
        corrupted = original[:cut]
    else:
        byte = draw.draw(st.integers(0, 255), label="replacement byte")
        corrupted = original[:cut] + bytes([byte]) + original[cut + 1 :]
    paths = {}
    for name, content in originals.items():
        paths[name] = root / f"corrupted.{name}"
        paths[name].write_bytes(corrupted if name == which else content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["predict", "--data", str(paths["data"]), "--model", str(paths["model"])])
    assert code in (0, 1)


def test_exit_code_1_for_usage_errors(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--no-such-flag"]) == 1


def test_exit_code_2_for_singular_systems(tmp_path, capsys):
    # more skeleton features than instances with no skeletal penalty:
    # the normal equations cannot be factored
    path = tmp_path / "thin.txt"
    args = synth_args(path, instances=4, joint_dims="4,3", noise="0.0")
    assert main(args) == 0
    code = main(
        [
            "train",
            "--data",
            str(path),
            "--model",
            str(tmp_path / "m.json"),
            "--lambda1",
            "0",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_constant_feature_on_an_unpenalised_side_trains(tmp_path, data_file, capsys):
    """standardize maps a constant feature to an all-zero row, which adds
    nothing to the loss: training with no penalty on its side succeeds and
    holds its weight at exactly 0, in every ablation variant too."""
    dataset = load_dataset(data_file)
    features = dataset.features.copy()
    features[1] = 0.1
    path = tmp_path / "constant.txt"
    save_dataset(
        Dataset(layout=dataset.layout, features=features, labels=dataset.labels), path
    )
    prefix = tmp_path / "ablation"
    model_path = tmp_path / "m.json"
    assert main(["ablate", "--data", str(path), "--out", str(prefix), "--standardize"]) == 0
    args = ["train", "--data", str(path), "--model", str(model_path), "--standardize"]
    assert main(args + ["--lambda1", "0"]) == 0
    for model_file in (
        f"{prefix}.full.json",
        f"{prefix}.skeletal_only.json",
        f"{prefix}.attribute_only.json",
        model_path,
    ):
        model = load_model(model_file)
        assert model.standardizer.constant == (1,)
        assert not model.weights[1].any()
    report = json.loads((tmp_path / "m.report.json").read_text())
    assert report["converged"] is True
    assert "error:" not in capsys.readouterr().err


def test_exit_code_2_for_singular_object_system(tmp_path, capsys):
    # 4 object features from 3 instances with no attribute penalty
    path = tmp_path / "thin.txt"
    assert main(synth_args(path, instances=3, noise="0.0")) == 0
    model = tmp_path / "m.json"
    code = main(["train", "--data", str(path), "--model", str(model), "--lambda2", "0"])
    assert code == 2
    assert "object-weight system" in capsys.readouterr().err
