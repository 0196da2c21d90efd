"""Command-line front end.

Subcommands: train, predict, analyze, synth, bench, ablate.  Human-facing
output goes to stdout as aligned text; machine-facing output is
schema-versioned JSON written atomically.  Exit codes: 0 on success (a fit
that merely fails to converge still succeeds, with a warning on stderr),
1 for input, file, or flag problems, 2 when a linear system turns out
singular.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .analysis import format_report_table, importance_report, report_to_dict
from .bench import bench_predict, format_result_table, result_to_dict
from .core import SEED_RANGE, FeatureLayout, check_int, check_number, predict_batch
from .data import (
    SynthSpec,
    _write_json,
    generate,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    split,
    standardize,
)
from .errors import ConfigError, PoseactError, SingularityError, ValidationError
from .solver import SolverConfig, fit

__all__ = ["main", "run"]

ABLATION_MODES = ("full", "skeletal-only", "attribute-only")


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on usage problems; route them through the
    # same error path as every other bad input instead
    def error(self, message):
        raise ConfigError(message)


def _flag_type(check, parse, *bounds, **options):
    """argparse type= callable: parse the text, then apply a shared range check.

    Failures surface as ArgumentTypeError, so argparse names the flag.
    """

    def convert(text):
        try:
            return check(parse(text), "value", *bounds, **options)
        except ValueError as exc:  # a parse failure or a ConfigError
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_NON_NEGATIVE = _flag_type(check_number, float)
_POSITIVE = _flag_type(check_number, float, strict=True)
_FRACTION = _flag_type(check_number, float, high=1.0)
_COUNT = _flag_type(check_int, int, 1)
_SEED = _flag_type(check_int, int, *SEED_RANGE)


def _solver_config(args: argparse.Namespace, ablation: str = "full") -> SolverConfig:
    """The solver flags as a SolverConfig, with one norm's weight zeroed for
    ablate's single-norm variants."""
    config = SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})
    # dropping a norm means zeroing its weight; the loss always sees both sides
    if ablation == "skeletal-only":
        return replace(config, lambda2=0.0)
    if ablation == "attribute-only":
        return replace(config, lambda1=0.0)
    return config


def _parse_int_tuple(text, flag):
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_planted_joints(text, flag):
    return tuple(_parse_int_tuple(chunk, flag) for chunk in str(text).split(";"))


def _parse_planted_blocks(text, flag):
    groups = []
    for chunk in str(text).split(";"):
        pairs = []
        for item in chunk.split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ConfigError(f"{flag} entries look like object:modality, got {item!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ConfigError(f"{flag} entries must be integer pairs, got {item!r}") from None
        groups.append(tuple(pairs))
    return tuple(groups)


def _load_labeled(path, what):
    dataset = load_dataset(path)
    if dataset.labels is None:
        raise ValidationError(f"{what} needs labeled data, {path} has no labels")
    return dataset


def _counts_line(dataset):
    counts = dataset.class_counts()
    return "instances per class: " + ", ".join(f"{k}={v}" for k, v in counts.items())


# --- subcommands ------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    dataset = _load_labeled(args.data, "train")
    print(_counts_line(dataset))
    transform = None
    if args.standardize:
        dataset, transform = standardize(dataset)
    model, report = fit(dataset, _solver_config(args))
    if transform is not None:
        model = replace(model, standardizer=transform)
    save_model(model, args.model, overwrite=True)
    report_path = args.report
    if report_path is None:
        model_path = Path(args.model)
        report_path = str(model_path.with_name(model_path.stem + ".report.json"))
    _write_json(
        report_path,
        {
            "schema_version": 1,
            "converged": report.converged,
            "iterations_run": report.iterations_run,
            "wall_time": report.wall_time,
            "final_objective": report.objective_trace[-1],
            "final_loss": report.loss_trace[-1],
            "objective_trace": list(report.objective_trace),
            "loss_trace": list(report.loss_trace),
            "cg_steps": list(report.cg_steps),
            "standardized": args.standardize,
            "class_counts": dataset.class_counts(),
        },
        overwrite=True,
    )
    if not report.converged:
        print(
            f"warning: objective still moving after {report.iterations_run} iterations "
            f"(tol {args.tol}); model saved anyway",
            file=sys.stderr,
        )
    print(
        f"fit {'converged' if report.converged else 'stopped'} after "
        f"{report.iterations_run} iterations, objective {report.objective_trace[-1]:.6g}"
    )
    print(f"model written to {args.model}, report to {report_path}")
    return 0


def _load_for_scoring(args):
    """The saved model and the data file, scaled the way the training data was."""
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    if model.standardizer is not None:
        dataset = model.standardizer.apply(dataset)
    return model, dataset


def cmd_predict(args: argparse.Namespace) -> int:
    model, dataset = _load_for_scoring(args)
    predicted, accuracy = predict_batch(model, dataset)
    doc = {
        "schema_version": 1,
        "classes": list(model.class_names),
        "indices": [int(i) for i in predicted],
        "predictions": [model.class_names[int(i)] for i in predicted],
    }
    if accuracy is not None:
        doc["accuracy"] = accuracy
    if args.out is not None:
        _write_json(args.out, doc, overwrite=True)
        line = f"{len(predicted)} predictions written to {args.out}"
        if accuracy is not None:
            line += f", accuracy {accuracy:.4f}"
        print(line)
    else:
        print(json.dumps(doc, indent=2))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    report = importance_report(model, signed=args.signed)
    joints = None if args.joints is None else _parse_int_tuple(args.joints, "--joints")
    classes = None if args.classes is None else _parse_int_tuple(args.classes, "--classes")
    try:
        print(format_report_table(report, model, joints=joints, classes=classes))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if joints is not None:
        print(f"selected joints: {', '.join(str(j) for j in joints)}")
    if classes is not None:
        print(f"selected classes: {', '.join(str(c) for c in classes)}")
    if args.out is not None:
        doc = report_to_dict(report, model)
        doc["selected_joints"] = None if joints is None else list(joints)
        doc["selected_classes"] = None if classes is None else list(classes)
        _write_json(args.out, doc, overwrite=True)
        print(f"report written to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    layout = FeatureLayout(
        joint_dims=_parse_int_tuple(args.joint_dims, "--joint-dims"),
        object_count=args.object_count,
        modality_dims=_parse_int_tuple(args.modality_dims, "--modality-dims"),
    )
    spec = SynthSpec(
        layout=layout,
        n_classes=args.classes,
        n_instances=args.instances,
        noise_sigma=args.noise_sigma,
        planted_joints=_parse_planted_joints(args.planted_joints, "--planted-joints"),
        planted_blocks=_parse_planted_blocks(args.planted_blocks, "--planted-blocks"),
        seed=args.seed,
    )
    generated = generate(spec)
    save_dataset(generated.dataset, args.out, overwrite=True)
    print(
        f"wrote {spec.n_instances} instances "
        f"(d_t={layout.d_t}, d_o={layout.d_o}, classes={spec.n_classes}) to {args.out}"
    )
    print(_counts_line(generated.dataset))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    model, dataset = _load_for_scoring(args)
    result = bench_predict(model, dataset, min_duration_seconds=args.min_duration)
    print(format_result_table(result))
    if args.out is not None:
        _write_json(args.out, result_to_dict(result), overwrite=True)
        print(f"result written to {args.out}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    dataset = _load_labeled(args.data, "ablate")
    train_set, test_set = split(dataset, args.train_fraction, args.seed)
    print(
        f"split {dataset.n_instances} instances into {train_set.n_instances} train / "
        f"{test_set.n_instances} test (seed {args.seed})"
    )
    transform = None
    if args.standardize:
        train_set, transform = standardize(train_set)
        test_set = transform.apply(test_set)
    rows = []
    for mode in ABLATION_MODES:
        config = _solver_config(args, mode)
        model, report = fit(train_set, config)
        if transform is not None:
            model = replace(model, standardizer=transform)
        _, accuracy = predict_batch(model, test_set)
        if args.out is not None:
            path = f"{args.out}.{mode.replace('-', '_')}.json"
            save_model(model, path, overwrite=True)
        rows.append(
            {
                "variant": mode,
                "lambda1": config.lambda1,
                "lambda2": config.lambda2,
                "iterations_run": report.iterations_run,
                "converged": report.converged,
                "test_accuracy": accuracy,
            }
        )
    header = f"{'variant':<18}{'lambda1':>10}{'lambda2':>10}{'iters':>8}{'converged':>11}{'accuracy':>10}"
    print(header)
    for row in rows:
        print(
            f"{row['variant']:<18}{row['lambda1']:>10.4g}{row['lambda2']:>10.4g}"
            f"{row['iterations_run']:>8}{str(row['converged']):>11}{row['test_accuracy']:>10.4f}"
        )
    if args.out is not None:
        _write_json(
            f"{args.out}.comparison.json",
            {
                "schema_version": 1,
                "train_fraction": args.train_fraction,
                "seed": args.seed,
                "standardized": args.standardize,
                "results": rows,
            },
            overwrite=True,
        )
        print(f"models and comparison written with prefix {args.out}")
    return 0


# --- wiring -----------------------------------------------------------------


def _add_solver_flags(parser):
    defaults = SolverConfig()
    parser.add_argument(
        "--lambda1", type=_NON_NEGATIVE, default=defaults.lambda1, help="skeletal norm weight"
    )
    parser.add_argument(
        "--lambda2", type=_NON_NEGATIVE, default=defaults.lambda2, help="attribute norm weight"
    )
    parser.add_argument(
        "--tol",
        type=_POSITIVE,
        default=defaults.tol,
        help="relative objective-decrease stop; also the tightest inner CG stop: "
        "the first two inner solves end once their residual energy has fallen by "
        "this factor, later ones by 1e-2 (or by this factor, if it is larger)",
    )
    parser.add_argument("--max-iters", type=_COUNT, default=defaults.max_iters, dest="max_iters")
    parser.add_argument(
        "--epsilon",
        type=_POSITIVE,
        default=defaults.epsilon,
        help="block-norm floor, also the smoothing radius of the objective the fit minimises",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poseact", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("train", help="fit a model on a labeled dataset file")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--model", required=True, help="where to write the model")
    p.add_argument("--report", default=None, help="fit report path (default <model>.report.json)")
    p.add_argument("--standardize", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="score a dataset file with a saved model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="write predictions JSON here instead of stdout")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("analyze", help="joint and object importance of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--signed", action="store_true", help="sum raw block entries instead of norms")
    p.add_argument("--joints", default=None, help="comma-separated joint rows to show")
    p.add_argument("--classes", default=None, help="comma-separated class columns to show")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset file")
    p.add_argument("--out", required=True)
    p.add_argument("--joint-dims", required=True, dest="joint_dims")
    p.add_argument("--object-count", required=True, type=int, dest="object_count")
    p.add_argument("--modality-dims", required=True, dest="modality_dims")
    p.add_argument("--classes", required=True, type=int)
    p.add_argument("--instances", required=True, type=int)
    p.add_argument("--noise-sigma", type=_NON_NEGATIVE, default=0.0, dest="noise_sigma")
    p.add_argument(
        "--planted-joints",
        required=True,
        dest="planted_joints",
        help="per-class joint indices, ';' between classes, ',' within (e.g. '0;1;2,3')",
    )
    p.add_argument(
        "--planted-blocks",
        required=True,
        dest="planted_blocks",
        help="per-class object:modality pairs (e.g. '0:0;0:1;1:0,1:1')",
    )
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("bench", help="measure single-frame prediction throughput")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--min-duration", type=_POSITIVE, default=2.0, dest="min_duration")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("ablate", help="compare full vs single-norm training on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="path prefix for the three model files")
    p.add_argument("--train-fraction", type=_FRACTION, default=0.7, dest="train_fraction")
    p.add_argument("--seed", type=_SEED, default=0, help="split seed")
    p.add_argument("--standardize", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(handler=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ConfigError("a subcommand is required (train, predict, analyze, synth, bench, ablate)")
        return args.handler(args)
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoseactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
