"""poseact benchmark: three workloads at the paper's feature shape.

    python3 perfbench/run.py --workload cli_walkthrough --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; poseact is imported from ./src and
nothing else, and the metric names, units and workload reasons come from
./BENCHMARK.json.  A run builds its inputs from --seed with the program's
own functions (several times over the run: setup_s), repeats the
workload's op in a closed loop with one caller until the ops have taken
--seconds, checks every output it timed, and prints one JSON object as its
last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with nothing traced; timings
that a calibration kernel follows closely are taken relative to it (see
Kernel), the others are the run's fastest sample.  --trace 1
reports per-layer self times and counts instead: every other op
of the loop runs with the layers' entry points wrapped (spans.py), the rest
run plain, and every span is written to .perfbench_out/.  The line before the
result holds the run's metadata.  README.md in this directory lists what
each metric means on each workload and a measured baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

sys.dont_write_bytecode = True  # leave no caches behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# --- the paper's feature shape ------------------------------------------------

JOINT_DIMS = (3,) * 15  # 15 joints x 3 coordinates = 45 skeleton features
OBJECT_COUNT = 3
MODALITY_DIMS = (48, 36, 15)  # 3 objects x 99 = 297 object features
N_CLASSES = 6
NOISE_SIGMA = 0.5
# one planted joint and one planted (object, modality) block per class
PLANTED_JOINTS = tuple((2 * c + 1,) for c in range(N_CLASSES))
PLANTED_BLOCKS = tuple(((c % 3, c // 2),) for c in range(N_CLASSES))

LAMBDA_GRID = (1.0, 100.0, 300.0, 1000.0, 3000.0)
PEAK_LAMBDA = 300.0  # the grid point where held-out accuracy peaks
DEFAULT_LAMBDA = 0.1  # poseact train's default for both weights
EPSILON = 1e-8  # poseact train's default block-norm floor
SETTLE_S = 0.2  # pause before a calibration sample that follows BLAS work
REFIT_EVERY = 16  # stream_score refits and batch-scores after every 16th pass
MONOTONE_SLACK = 1e-9  # relative slack of the descent guarantee (test_01)

# Sizes and repeat counts.  setups: set-up repeats behind setup_s (more
# where one set-up is short).  residual_draws: models behind the residual
# median, see _residual.  calibrated: the timing metrics taken relative to
# a calibration kernel (see Kernel), the others being raw fast levels;
# kernel: which one; cal_every: ops per calibrated op; op_settle_s: pause
# before an op's calibration sample (none after single-frame passes, which
# call no multi-threaded BLAS).
WORKLOADS = {
    "cli_walkthrough": {"n_instances": 7000, "n_train": 5000, "setups": 5,
                        "lambda": DEFAULT_LAMBDA, "residual_draws": 12,
                        "calibrated": ("setup_s", "train_s", "predict_s", "path_s"),
                        "kernel": "text", "cal_every": 1, "op_settle_s": SETTLE_S},
    "lambda_path": {"n_instances": 20000, "n_train": 14000, "setups": 9,
                    "lambda": PEAK_LAMBDA, "residual_draws": 5, "calibrated": ()},
    "stream_score": {"n_instances": 7000, "n_train": 5000, "setups": 16,
                     "lambda": DEFAULT_LAMBDA, "residual_draws": 12,
                     "calibrated": ("path_s",),
                     "kernel": "frames", "cal_every": 4, "op_settle_s": 0.0},
}  # fmt: skip

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "data.generate_s": ("data.generate",),
    "data.split_s": ("data.split",),
    "data.standardize_s": ("data.standardize",),
    "data.standardizer_apply_s": ("data.standardizer_apply",),
    "data.save_dataset_s": ("data.save_dataset",),
    "data.load_dataset_s": ("data.load_dataset",),
    "data.save_model_s": ("data.save_model",),
    "data.load_model_s": ("data.load_model",),
    "solver.fit_s": ("solver.fit",),
    "core.predict_batch_s": ("core.predict_batch",),
    "analysis.importance_report_s": ("analysis.importance_report",),
    "analysis.report_format_s": ("analysis.format_report_table", "analysis.report_to_dict"),
    "cli.train_self_s": ("cli.train",),
    "cli.analyze_self_s": ("cli.analyze",),
    "cli.predict_self_s": ("cli.predict",),
}


class BenchError(Exception):
    """A run that cannot produce a result."""


P = None  # the poseact package, bound in main()


def _import_poseact():
    if not os.path.isfile(os.path.join(SRC, "poseact", "__init__.py")):
        raise BenchError(f"no poseact sources under {SRC}")
    sys.path.insert(0, SRC)
    import poseact
    import poseact.cli  # not imported by the package itself

    if not os.path.abspath(poseact.__file__).startswith(SRC + os.sep):
        raise BenchError(f"poseact imported from {poseact.__file__}, not from {SRC}")
    return poseact


def _load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _fast_level(values):
    """The run's fastest sample.

    On a shared host a sample is slowed by whatever else runs at that
    moment: single samples are up to 3x the fastest, and slow spells last
    from a fraction of a second to minutes.  A mean or a median moves with
    how much of the run such spells take; the fastest sample stays at the
    speed of the program itself as long as the host is quiet once in the
    run.  README.md has the measurements.
    """
    return min(values)


class Kernel:
    """Fixed reference work, timed next to the program's to factor out host speed.

    On a shared host the same code runs up to 1.7x slower while the other
    hardware thread of its core is busy, in spells that last from a
    fraction of a second to minutes, often a whole run.  A kernel built
    from the same kind of interpreter and numpy work as a workload's op
    slows by nearly the same factor: timed right after it, the ratio of op
    to kernel held within 2% (single frames) and 13% (text parsing) across
    spells that moved the op's own time by 45%.  A timing metric is that
    ratio (median over the run's pairs) times ref_s, the kernel's time on
    an idle 2-vCPU host: seconds at that host's speed.  The kernels use
    neither poseact nor multi-threaded BLAS, and a kernel sample that
    follows BLAS work waits SETTLE_S first, so a change to the program,
    its BLAS threading included, does not move them.

    "frames": 1 000 single frames at the paper's shape, each checked and
    scored with two small matrix-vector products, as core.predict does.
    "text": 150 dataset-style JSON rows, parsed, checked value by value and
    stacked, as data.load_dataset does.
    """

    REF_S = {"frames": 0.0104, "text": 0.0224}

    def __init__(self, name):
        rng = np.random.default_rng(0)
        d_t, d_o = sum(JOINT_DIMS), OBJECT_COUNT * sum(MODALITY_DIMS)
        self.name, self.ref_s = name, self.REF_S[name]
        self.w = rng.standard_normal((d_t, N_CLASSES))
        self.u = rng.standard_normal((d_o, N_CLASSES))
        if name == "frames":
            self.frames = [(rng.standard_normal(d_t), rng.standard_normal(d_o)) for _ in range(1000)]
        else:
            self.rows = [json.dumps(rng.standard_normal(d_t + d_o).tolist() + ["c0"]) for _ in range(150)]

    def _frames(self):
        hits = 0
        for t, o in self.frames:
            t, o = np.asarray(t, dtype=np.float64), np.asarray(o, dtype=np.float64)
            if t.ndim != 1 or o.ndim != 1 or not (np.isfinite(t).all() and np.isfinite(o).all()):
                raise BenchError("calibration frame is not finite")
            hits += int(np.argmax(t @ self.w + o @ self.u))
        return hits

    def _text(self):
        features = []
        for line in self.rows:
            values = json.loads(line)[:-1]
            for v in values:
                if not isinstance(v, float) or not math.isfinite(v):
                    raise BenchError("calibration row is not finite")
            features.append(values)
        return np.array(features).T

    def time(self):
        start = time.perf_counter()
        self._frames() if self.name == "frames" else self._text()
        return time.perf_counter() - start


def _spec(n_instances, seed):
    layout = P.FeatureLayout(
        joint_dims=JOINT_DIMS, object_count=OBJECT_COUNT, modality_dims=MODALITY_DIMS
    )
    return P.SynthSpec(
        layout=layout,
        n_classes=N_CLASSES,
        n_instances=n_instances,
        noise_sigma=NOISE_SIGMA,
        planted_joints=PLANTED_JOINTS,
        planted_blocks=PLANTED_BLOCKS,
        seed=seed,
    )


def _draw_split(cfg, seed):
    dataset = P.data.generate(_spec(cfg["n_instances"], seed)).dataset
    return P.data.split(dataset, cfg["n_train"] / cfg["n_instances"], seed)


def _descends(trace):
    return all(b <= a + MONOTONE_SLACK * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def _finite(model):
    return bool(np.isfinite(model.w).all() and np.isfinite(model.u).all())


def _latency_metrics(passes):
    """p50 and p99 of the calls within each 2000-frame pass, at the passes' fast level.

    p99 leaves 20 calls beyond it in each pass.  A p99 pooled over the whole
    run swings by a third between runs, because a few interrupted passes
    own the tail.
    """
    if not passes:  # workloads that score no single frames
        return {"core.score_us_p50": 0.0, "core.score_us_p99": 0.0}
    p50, p99 = np.percentile(np.stack(passes), [50, 99], axis=1) / 1e3
    return {"core.score_us_p50": _fast_level(p50.tolist()), "core.score_us_p99": _fast_level(p99.tolist())}


def _residual(cfg, seed, train, model):
    """Median stationarity residual over the workload's model and fresh draws.

    The residual at the stopping point moves by a third from one data draw
    to the next, so one draw cannot carry a bound.  Draw 0 is the model the
    workload trained on its own training data; draws 1.. fit the same
    settings on new training sets of the same size, seeded from `seed`.
    Returns (median residual, whether every extra fit passed its checks).
    """
    lam = cfg["lambda"]
    residuals = [P.solver.stationarity_residual(train, model, lam, lam, EPSILON)]
    ok = True
    for k in range(1, cfg["residual_draws"]):
        sub_seed = int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])
        draw, _ = P.data.standardize(P.data.generate(_spec(cfg["n_train"], sub_seed)).dataset)
        fitted, report = P.solver.fit(draw, P.SolverConfig(lambda1=lam, lambda2=lam))
        ok = ok and _finite(fitted) and _descends(report.objective_trace)
        residuals.append(P.solver.stationarity_residual(draw, fitted, lam, lam, EPSILON))
    return statistics.median(residuals), ok


# --- workloads ----------------------------------------------------------------
#
# Each workload has setup() (timed and repeated; each repeat rebuilds the
# same state), after_setup(), op() (the timed unit of the closed loop,
# returning its timings), check() (the outputs of the op just run, untimed)
# and finish() (the remaining metrics, outside every timed region).


class CliWalkthrough:
    def __init__(self, cfg, seed, workdir):
        self.cfg, self.seed = cfg, seed
        self.train_path = os.path.join(workdir, "train.txt")
        self.test_path = os.path.join(workdir, "test.txt")
        self.model_path = os.path.join(workdir, "model.json")
        self.report_path = os.path.join(workdir, "model.report.json")
        self.importance_path = os.path.join(workdir, "importance.json")
        self.pred_path = os.path.join(workdir, "pred.json")

    def setup(self):
        train, test = _draw_split(self.cfg, self.seed)
        P.data.save_dataset(train, self.train_path, overwrite=True)
        P.data.save_dataset(test, self.test_path, overwrite=True)
        return {}

    def after_setup(self):
        # reference copy of the test file for the output checks, read once
        self.test = P.data.load_dataset(self.test_path)

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = P.cli.main(argv)
        if code != 0:
            raise BenchError(f"poseact {' '.join(argv)} exited {code}")

    def op(self):
        clock = time.perf_counter
        t0 = clock()
        self._cli(["train", "--data", self.train_path, "--model", self.model_path, "--standardize"])
        t1 = clock()
        self._cli(["analyze", "--model", self.model_path, "--out", self.importance_path])
        t2 = clock()
        self._cli(["predict", "--data", self.test_path, "--model", self.model_path, "--out", self.pred_path])
        t3 = clock()
        return {"train_s": t1 - t0, "predict_s": t3 - t2, "path_s": t3 - t0}

    def check(self):
        with open(self.pred_path, encoding="utf-8") as handle:
            pred = json.load(handle)
        with open(self.importance_path, encoding="utf-8") as handle:
            importance = json.load(handle)
        self.model = P.data.load_model(self.model_path)
        indices, accuracy = P.core.predict_batch(self.model, self.model.standardizer.apply(self.test))
        self.accuracy = pred.get("accuracy")
        return (
            pred.get("indices") == indices.tolist()
            and len(indices) == self.test.n_instances
            and self.accuracy == accuracy
            and importance.get("schema_version") == 1
        )

    def finish(self):
        # the model the CLI wrote must be what the library fits on the same file
        train, _ = P.data.standardize(P.data.load_dataset(self.train_path))
        model, report = P.solver.fit(train, P.SolverConfig())
        with open(self.report_path, encoding="utf-8") as handle:
            report_doc = json.load(handle)
        objective = report.objective_trace[-1]
        ok = (
            _descends(report.objective_trace)
            and np.array_equal(model.w, self.model.w)
            and np.array_equal(model.u, self.model.u)
            and report_doc["final_objective"] == objective
        )
        residual, draws_ok = _residual(self.cfg, self.seed, train, self.model)
        metrics = {
            "accuracy": self.accuracy,
            "residual": residual,
            "objective": objective,
        }
        return metrics, bool(ok and draws_ok)


class LambdaPath:
    def __init__(self, cfg, seed, workdir):
        self.cfg, self.seed = cfg, seed
        self.first = None

    def setup(self):
        self.train = self.test = None  # a repeat set-up must not hold two copies
        train, test = _draw_split(self.cfg, self.seed)
        self.train, transform = P.data.standardize(train)
        self.test = transform.apply(test)
        return {}

    def after_setup(self):
        pass

    def op(self):
        clock = time.perf_counter
        fit_s = predict_s = 0.0
        points = []
        start = clock()
        for lam in LAMBDA_GRID:
            t0 = clock()
            model, report = P.solver.fit(self.train, P.SolverConfig(lambda1=lam, lambda2=lam))
            t1 = clock()
            _, accuracy = P.core.predict_batch(model, self.test)
            t2 = clock()
            fit_s += t1 - t0
            predict_s += t2 - t1
            points.append((lam, model, report, accuracy))
        path_s = clock() - start
        self.points = points
        return {"train_s": fit_s, "predict_s": predict_s, "path_s": path_s}

    def check(self):
        ok = all(_finite(m) and _descends(r.objective_trace) for _, m, r, _ in self.points)
        # fits are deterministic: every op must repeat the first one bit for bit
        signature = [(r.objective_trace, acc) for _, _, r, acc in self.points]
        if self.first is None:
            self.first = signature
        return ok and signature == self.first

    def finish(self):
        peak = next(m for lam, m, _, _ in self.points if lam == PEAK_LAMBDA)
        residual, ok = _residual(self.cfg, self.seed, self.train, peak)
        metrics = {
            "accuracy": max(p[3] for p in self.points),
            "residual": residual,
            "objective": math.fsum(r.objective_trace[-1] for _, _, r, _ in self.points),
        }
        return metrics, ok


class StreamScore:
    def __init__(self, cfg, seed, workdir):
        self.cfg, self.seed = cfg, seed
        self.passes = 0
        self.per_call = False  # time each call too (traced runs only)

    def setup(self):
        self.train = self.test = None  # a repeat set-up must not hold two copies
        train, test = _draw_split(self.cfg, self.seed)
        self.train, transform = P.data.standardize(train)
        self.test = transform.apply(test)
        start = time.perf_counter()
        self.model, self.report = P.solver.fit(self.train, P.SolverConfig())
        return {"train_s": time.perf_counter() - start}

    def after_setup(self):
        # held-out frames as the contiguous vectors a live feed would hand over
        test = self.test
        self.frames = [
            (np.ascontiguousarray(test.skeleton[:, i]), np.ascontiguousarray(test.objects[:, i]))
            for i in range(test.n_instances)
        ]
        self.truth = np.argmax(test.labels, axis=1)
        self.batch, _ = P.core.predict_batch(self.model, test)

    def op(self):
        predict, model = P.core.predict, self.model
        clock = time.perf_counter_ns
        result = {}
        if self.per_call:
            lat = np.empty(len(self.frames), dtype=np.int64)
            idx = []
            start = clock()
            for i, (t, o) in enumerate(self.frames):
                t0 = clock()
                idx.append(predict(model, t, o)[0])
                lat[i] = clock() - t0
            result["latency_ns"] = lat
        else:
            start = clock()
            idx = [predict(model, t, o)[0] for t, o in self.frames]
        result["path_s"] = (clock() - start) / 1e9
        self.idx = np.array(idx)
        # the model is refitted and the frames batch-scored after only some
        # passes: short multi-threaded BLAS calls vary widely in time and
        # need many samples, and they leave the BLAS worker threads spinning
        # on the other core into the passes that follow
        self.passes += 1
        self.refit = None
        if self.passes % REFIT_EVERY == 0:
            t0 = time.perf_counter()
            model, _ = P.solver.fit(self.train, P.SolverConfig())
            t1 = time.perf_counter()
            indices, _ = P.core.predict_batch(model, self.test)
            result.update(train_s=t1 - t0, predict_s=time.perf_counter() - t1)
            self.refit = (model, indices)
        return result

    def check(self):
        ok = np.array_equal(self.idx, self.batch)
        if self.refit is not None:  # fits are deterministic
            model, indices = self.refit
            ok = ok and np.array_equal(model.w, self.model.w) and np.array_equal(indices, self.batch)
        return bool(ok)

    def finish(self):
        residual, ok = _residual(self.cfg, self.seed, self.train, self.model)
        metrics = {
            "accuracy": float(np.mean(self.idx == self.truth)),
            "residual": residual,
            "objective": self.report.objective_trace[-1],
        }
        ok = ok and _finite(self.model) and _descends(self.report.objective_trace)
        return metrics, ok


CLASSES = {"cli_walkthrough": CliWalkthrough, "lambda_path": LambdaPath, "stream_score": StreamScore}


# --- the loop -----------------------------------------------------------------


def _run_loop(work, seconds, tracer=None, hooks=None, between=None):
    """Closed loop: run ops until they have taken `seconds`; failed ops are not timed.

    With a tracer, every other op runs with the tracer installed, so traced
    and plain ops interleave and their difference is the tracing overhead.
    between(spent, timings), when given, runs after each successful op,
    outside the op budget.
    """
    timings, attempted, failed = [], 0, 0
    spent = 0.0
    while attempted < (2 if tracer else 1) or spent < seconds:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install(P, hooks)
            root = tracer.begin_op("op")
        start = time.perf_counter()
        try:
            result = work.op()
        except (P.PoseactError, BenchError, OSError) as exc:
            print(f"op {attempted} failed: {exc}", file=sys.stderr)
            result = None
        finally:
            spent += time.perf_counter() - start
            if traced:
                tracer.end_op(root)
                tracer.uninstall()
        if result is None or not work.check():
            failed += 1
            continue
        result["op_index"] = tracer.op if traced else None
        timings.append(result)
        if between:
            between(spent, result)
    if not timings:
        raise BenchError("every op failed")
    return timings, attempted, failed


def _result(correct, attempted, failed, values, declared):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    correct = correct and failed == 0 and all(math.isfinite(values[m["name"]]) for m in declared)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def _timed_setup(work):
    start = time.perf_counter()
    sample = work.setup()
    sample["setup_s"] = time.perf_counter() - start
    return sample


TIMINGS = ("setup_s", "train_s", "predict_s", "path_s")


def _timing_values(samples, cfg, kernel):
    """Each timing metric from the run's samples (dicts of timings).

    A calibrated metric is the median, over the samples paired with a
    kernel time, of timing over kernel time, in seconds at the kernel's
    reference speed.  Any other is the fast level of its raw samples.  Also
    returns the raw fast levels, for the metadata.
    """
    values, raw = {}, {}
    for key in TIMINGS:
        found = [s for s in samples if key in s]
        if not found:
            continue
        raw[key] = values[key] = _fast_level([s[key] for s in found])
        if key in cfg["calibrated"]:
            ratios = [s[key] / s["cal_s"] for s in found if "cal_s" in s]
            values[key] = statistics.median(ratios) * kernel.ref_s
    return values, raw


def run_untraced(work, cfg, seconds, declared):
    kernel = Kernel(cfg["kernel"]) if cfg["calibrated"] else None

    def calibrate(sample, settle_s):
        # let BLAS worker threads left spinning by the timed work go idle
        time.sleep(settle_s)
        sample["cal_s"] = kernel.time()

    # the set-up repeats are spread over the whole run, so that they sample
    # the host's speed levels the way the ops do; each rebuilds the same state
    setups = []

    def add_setup():
        setups.append(_timed_setup(work))
        if "setup_s" in cfg["calibrated"]:
            calibrate(setups[-1], SETTLE_S)

    add_setup()
    work.after_setup()
    ops = 0

    def between(spent, timings):
        nonlocal ops
        ops += 1
        if kernel and ops % cfg["cal_every"] == 0:
            calibrate(timings, cfg["op_settle_s"])
        due = 1 + int((cfg["setups"] - 1) * min(spent / seconds, 1.0))
        while len(setups) < due:
            add_setup()

    timings, attempted, failed = _run_loop(work, seconds, between=between)
    while len(setups) < cfg["setups"]:
        add_setup()
    values, ok = work.finish()
    timing_values, raw = _timing_values(setups + timings, cfg, kernel)
    values.update(timing_values)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _result(ok, attempted, failed, values, declared), raw


def _fit_hook(counts, args, result):
    counts["solver.fit_iters"] += result[1].iterations_run


def _load_hook(counts, args, result):
    counts["load_bytes"] += os.path.getsize(args[0])


def _save_hook(counts, args, result):
    counts["save_bytes"] += os.path.getsize(args[1])


def run_traced(work, cfg, seconds, declared, dump_path):
    """Per-layer self times and counts of one set-up plus one op (medians over repeats)."""
    from spans import Tracer

    tracer = Tracer()
    if isinstance(work, StreamScore):
        work.per_call = True
    hooks = {"solver.fit": _fit_hook, "data.load_dataset": _load_hook, "data.save_dataset": _save_hook}
    setup_ops = []
    tracer.install(P, hooks)
    try:
        for _ in range(cfg["setups"]):
            root = tracer.begin_op("setup")
            work.setup()
            tracer.end_op(root)
            setup_ops.append(tracer.op)
    finally:
        tracer.uninstall()
    work.after_setup()
    timings, attempted, failed = _run_loop(work, seconds, tracer, hooks)
    traced = [t for t in timings if t["op_index"] is not None]
    plain = [t for t in timings if t["op_index"] is None]
    if not traced or not plain:
        raise BenchError("no traced and plain op pair succeeded")
    op_ids = [t["op_index"] for t in traced]

    def coverage(i):
        # share of the op's wall time spent inside the program's layers
        # (data, solver, core, analysis), outside the CLI's own code
        inside = sum(v for k, v in tracer.op_self[i].items() if not k.startswith("cli."))
        return inside / tracer.op_wall[i]

    def layer(names, counter):
        def median_over(ids):
            return statistics.median([sum(counter[i].get(n, 0.0) for n in names) for i in ids])

        return median_over(setup_ops) + median_over(op_ids)

    values = {m: layer(spans, tracer.op_self) for m, spans in LAYER_TIMES.items()}
    count = lambda key: layer((key,), tracer.op_counts)  # noqa: E731
    load_mb, save_mb = count("load_bytes") / 1e6, count("save_bytes") / 1e6
    fit_iters = count("solver.fit_iters")
    predict_calls = count("core.predict.calls")
    values.update(
        {
            "data.load_dataset_mb_per_s": _rate(load_mb, values["data.load_dataset_s"]),
            "data.save_dataset_mb_per_s": _rate(save_mb, values["data.save_dataset_s"]),
            "data.dataset_file_mb": save_mb,
            "solver.fit_calls": count("solver.fit.calls"),
            "solver.fit_iters": fit_iters,
            "solver.fit_s_per_iter": _rate(values["solver.fit_s"], fit_iters),
            "core.predict_calls": predict_calls,
            "core.predict_us": _rate(layer(("core.predict",), tracer.op_self) * 1e6, predict_calls),
            # single-frame latency of the plain (untraced) passes
            **_latency_metrics([t["latency_ns"] for t in plain if "latency_ns" in t]),
            "trace.coverage": statistics.median([coverage(i) for i in op_ids]),
            "trace.overhead_s": statistics.median([t["path_s"] for t in traced])
            - statistics.median([t["path_s"] for t in plain]),
        }
    )
    tracer.dump(dump_path, {"setup_ops": setup_ops, "timed_ops": op_ids, "values": values})
    return _result(True, attempted, failed, values, declared)


def _rate(num, den):
    return num / den if den else 0.0


# --- metadata -----------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def _metadata(args, why):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **WORKLOADS[args.workload],
        "shape": {
            "joint_dims": list(JOINT_DIMS),
            "object_count": OBJECT_COUNT,
            "modality_dims": list(MODALITY_DIMS),
            "d_t": sum(JOINT_DIMS),
            "d_o": OBJECT_COUNT * sum(MODALITY_DIMS),
            "classes": N_CLASSES,
            "noise_sigma": NOISE_SIGMA,
        },
        "loop": "closed, 1 caller",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def main(argv=None):
    global P
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = _load_spec()
        P = _import_poseact()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    cfg = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        work = CLASSES[args.workload](cfg, args.seed, workdir)
        if args.trace:
            dump = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            result, raw = run_traced(work, cfg, args.seconds, spec["per_layer"], dump), None
        else:
            result, raw = run_untraced(work, cfg, args.seconds, spec["end_to_end"])
    except (P.PoseactError, BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    meta = _metadata(args, why)
    if raw is not None:
        meta["raw_wall_s"] = raw  # fast level of the uncalibrated timings
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
