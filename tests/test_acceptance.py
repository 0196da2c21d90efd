"""End-to-end checks of the guarantees this package ships with.

One test per guarantee.  Each test prints a single summary line with its
measured numbers and a PASS/FAIL verdict before asserting, so a plain
``pytest -v tests/test_acceptance.py`` shows one result line per guarantee
and failures carry the measurements in their message.

The heavy 100-problem population is built once at module scope and shared
by the convergence and first-order-residual tests.
"""

from __future__ import annotations

import time

import numpy as np

from poseact import (
    Dataset,
    FeatureLayout,
    Model,
    SolverConfig,
    SynthSpec,
    bench_predict,
    check_reweighting_inequality,
    fit,
    generate,
    importance_report,
    load_dataset,
    load_model,
    loss,
    predict_batch,
    save_dataset,
    save_model,
    smoothed_gradients,
    smoothed_objective,
    split,
    stationarity_residual,
)


def _verdict(ok: bool, label: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


# --- shared 100-problem population (used by tests 01 and 04) -----------------

_POPULATION: dict | None = None


def population_runs() -> dict:
    """100 seeded planted problems, every joint and modality one-dimensional.

    Counts: N in [20, 100], joints in [3, 15], objects in [1, 3], modality
    groups in [1, 3] (replicated per object by the layout), classes in
    [2, 6]; lambda1 = lambda2 = 0.1, tol 1e-6, at most 100 iterations.
    """
    global _POPULATION
    if _POPULATION is not None:
        return _POPULATION
    rng = np.random.default_rng(5)
    runs = []
    start = time.perf_counter()
    for k in range(100):
        n = int(rng.integers(20, 101))
        j = int(rng.integers(3, 16))
        o = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        c = int(rng.integers(2, 7))
        layout = FeatureLayout((1,) * j, o, (1,) * (o * m))
        seed = int(rng.integers(0, 2**31))
        planted_joints = tuple((int(rng.integers(0, j)),) for _ in range(c))
        planted_blocks = tuple(
            ((int(rng.integers(0, o)), int(rng.integers(0, m))),) for _ in range(c)
        )
        dataset = generate(
            SynthSpec(
                layout=layout,
                n_classes=c,
                n_instances=n,
                noise_sigma=0.1,
                planted_joints=planted_joints,
                planted_blocks=planted_blocks,
                seed=seed,
            )
        ).dataset
        model, report = fit(
            dataset,
            SolverConfig(lambda1=0.1, lambda2=0.1, tol=1e-6, max_iters=100, seed=k),
        )
        runs.append((dataset, model, report))
    _POPULATION = {"runs": runs, "seconds": time.perf_counter() - start}
    return _POPULATION


def test_01_objective_descends_and_converges():
    pop = population_runs()
    runs, seconds = pop["runs"], pop["seconds"]
    slack_violations = 0
    for _, _, report in runs:
        trace = report.objective_trace
        for a, b in zip(trace, trace[1:]):
            if b > a + 1e-9 * max(1.0, abs(a)):
                slack_violations += 1
    converged = sum(report.converged for _, _, report in runs)
    ok = slack_violations == 0 and converged >= 95 and seconds < 60.0
    line = _verdict(
        ok,
        "monotone descent and convergence rate",
        f"monotone 100/100 with {slack_violations} slack violations, "
        f"converged {converged}/100 (need >= 95), {seconds:.1f}s (limit 60s)",
    )
    assert ok, line


def test_02_norm_surrogate_inequality():
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    checked = 0
    while checked < 10_000:
        dim = int(rng.integers(1, 51))
        v = rng.standard_normal(dim)
        if float(np.linalg.norm(v)) < 1e-6:
            continue
        v_tilde = rng.standard_normal(dim)
        assert check_reweighting_inequality(v, v_tilde)
        checked += 1
    seconds = time.perf_counter() - start
    ok = seconds < 1.0
    line = _verdict(
        ok,
        "surrogate-decrease inequality",
        f"{checked} random pairs all satisfied it in {seconds:.2f}s (limit 1s)",
    )
    assert ok, line


def test_03_unpenalized_fit_matches_least_squares():
    rng = np.random.default_rng(7)
    worst = 0.0
    start = time.perf_counter()
    for k in range(20):
        j = int(rng.integers(3, 8))
        o = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        c = int(rng.integers(2, 5))
        joint_dims = tuple(int(rng.integers(1, 4)) for _ in range(j))
        modality_dims = tuple(int(rng.integers(1, 4)) for _ in range(o * m))
        layout = FeatureLayout(joint_dims, o, modality_dims)
        d = layout.d_t + layout.d_o
        n = 3 * d + int(rng.integers(5, 20))
        g = np.random.default_rng(int(rng.integers(0, 2**31)))
        skeleton = g.standard_normal((layout.d_t, n))
        objects = g.standard_normal((layout.d_o, n))
        labels = np.zeros((n, c))
        labels[np.arange(n), g.integers(0, c, size=n)] = 1.0
        dataset = Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)
        model, _ = fit(
            dataset,
            SolverConfig(lambda1=0.0, lambda2=0.0, tol=1e-14, max_iters=3000, seed=k),
        )
        stacked = np.vstack([skeleton, objects])
        coef, *_ = np.linalg.lstsq(stacked.T, labels, rcond=None)
        oracle = float(np.sum((stacked.T @ coef - labels) ** 2))
        mine = loss(dataset, model.weights)
        worst = max(worst, abs(mine - oracle) / max(oracle, 1e-30))
    seconds = time.perf_counter() - start
    ok = worst < 1e-6 and seconds < 10.0
    line = _verdict(
        ok,
        "unpenalized fit equals joint least squares",
        f"worst relative loss gap {worst:.2e} over 20 problems "
        f"(limit 1e-6) in {seconds:.1f}s (limit 10s)",
    )
    assert ok, line


def test_04_first_order_residual_after_convergence():
    runs = population_runs()["runs"]
    residuals = [
        stationarity_residual(dataset, model, 0.1, 0.1, 1e-8)
        for dataset, model, report in runs
        if report.converged
    ]
    arr = np.asarray(residuals)
    over = int(np.sum(arr >= 1e-4))
    ok = over == 0
    line = _verdict(
        ok,
        "first-order residual at the stopping point",
        f"{len(arr)} converged runs, residual min {arr.min():.2e} / "
        f"median {np.median(arr):.2e} / max {arr.max():.2e}; "
        f"{over} runs at or above the 1e-4 bound. The stopping rule halts on "
        f"relative objective decrease, which at tol 1e-6 strands the iterate "
        f"roughly sqrt(tol) from the fixed point, two orders of magnitude "
        f"short of this bound; see the repository notes for the measured "
        f"tolerance law.",
    )
    assert ok, line


def test_05_smoothed_gradient_matches_finite_differences():
    layout = FeatureLayout((2, 3, 1), 2, (2, 1, 3, 2))
    n, c, h, eps = 12, 3, 1e-5, 1e-3
    worst = 0.0
    for k in range(50):
        g = np.random.default_rng(11_000 + k)
        skeleton = g.standard_normal((layout.d_t, n))
        objects = g.standard_normal((layout.d_o, n))
        labels = np.zeros((n, c))
        labels[np.arange(n), g.integers(0, c, size=n)] = 1.0
        dataset = Dataset(layout=layout, features=np.vstack((skeleton, objects)), labels=labels)
        x = np.vstack((g.standard_normal((layout.d_t, c)), g.standard_normal((layout.d_o, c))))
        grad = smoothed_gradients(dataset, x, 0.1, 0.1, eps)
        # one entry of the skeleton rows, then one of the object rows
        for first, rows in ((0, layout.d_t), (layout.d_t, layout.d_o)):
            idx = (first + int(g.integers(rows)), int(g.integers(c)))
            orig = x[idx]
            x[idx] = orig + h
            up = smoothed_objective(dataset, x, 0.1, 0.1, eps)
            x[idx] = orig - h
            down = smoothed_objective(dataset, x, 0.1, 0.1, eps)
            x[idx] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - grad[idx]) / max(abs(fd), 1e-12))
    ok = worst < 1e-5
    line = _verdict(
        ok,
        "analytic gradient vs central differences",
        f"worst relative error {worst:.2e} over 50 random points (limit 1e-5)",
    )
    assert ok, line


# --- planted fixture shared by tests 06 and 07 --------------------------------

_FIXTURE: dict | None = None

FIXTURE_LAYOUT = FeatureLayout((3,) * 5, 2, (3, 2))
FIXTURE_JOINTS = ((0,), (1,))
FIXTURE_BLOCKS = (((0, 0),), ((1, 1),))
FIXTURE_SEED = 9


def fixture_results() -> dict:
    """One discriminative joint and one (object, modality) block per class."""
    global _FIXTURE
    if _FIXTURE is not None:
        return _FIXTURE
    spec = SynthSpec(
        layout=FIXTURE_LAYOUT,
        n_classes=2,
        n_instances=10_000,
        noise_sigma=0.1,
        planted_joints=FIXTURE_JOINTS,
        planted_blocks=FIXTURE_BLOCKS,
        seed=FIXTURE_SEED,
    )
    dataset = generate(spec).dataset
    train, test = split(dataset, 0.7, seed=FIXTURE_SEED)
    out = {}
    for tag, lam1, lam2 in (("full", 0.1, 0.1), ("skeletal", 0.1, 0.0), ("attribute", 0.0, 0.1)):
        model, report = fit(
            train,
            SolverConfig(lambda1=lam1, lambda2=lam2, tol=1e-6, max_iters=100, seed=FIXTURE_SEED),
        )
        _, accuracy = predict_batch(model, test)
        out[tag] = {"model": model, "report": report, "accuracy": accuracy}
    _FIXTURE = out
    return out


def test_06_planted_support_recovery_and_accuracy():
    full = fixture_results()["full"]
    report = importance_report(full["model"])
    joint_support = sorted({j for entry in FIXTURE_JOINTS for j in entry})
    block_support = sorted(
        {FIXTURE_LAYOUT.object_block_index(o, m) for entry in FIXTURE_BLOCKS for (o, m) in entry}
    )
    joint_mass = float(report.joint_normalized[joint_support, :].sum(axis=0).min())
    block_mass = float(report.object_modality_normalized[block_support, :].sum(axis=0).min())
    accuracy = full["accuracy"]
    ok = joint_mass >= 0.90 and block_mass >= 0.90 and accuracy >= 0.95
    line = _verdict(
        ok,
        "planted support recovery",
        f"importance mass on planted joints {joint_mass:.3f} and planted "
        f"object blocks {block_mass:.3f} (both need >= 0.90), held-out "
        f"accuracy {accuracy:.4f} (need >= 0.95)",
    )
    assert ok, line


def test_07_dual_penalty_beats_single_penalty():
    results = fixture_results()
    full = results["full"]["accuracy"]
    skeletal = results["skeletal"]["accuracy"]
    attribute = results["attribute"]["accuracy"]
    ok = full >= skeletal and full >= attribute
    line = _verdict(
        ok,
        "both penalties together never lose",
        f"accuracy full {full:.4f} vs skeletal-only {skeletal:.4f} "
        f"and attribute-only {attribute:.4f}",
    )
    assert ok, line


def test_08_prediction_throughput():
    layout = FeatureLayout((3,) * 15, 3, (48, 36, 15))
    assert layout.d_t == 45 and layout.d_o == 297
    rng = np.random.default_rng(0)
    model = Model(
        layout=layout,
        weights=np.vstack(
            (rng.standard_normal((layout.d_t, 6)), rng.standard_normal((layout.d_o, 6)))
        ),
        class_names=tuple(f"class_{c}" for c in range(6)),
        hyperparams=SolverConfig(),
    )
    dataset = Dataset(
        layout=layout,
        features=np.vstack(
            (rng.standard_normal((layout.d_t, 512)), rng.standard_normal((layout.d_o, 512)))
        ),
    )
    result = bench_predict(model, dataset, min_duration_seconds=2.0)
    timed = result.seconds_per_frame * 512 * result.repetitions
    ok = result.predictions_per_second >= 1e4 and timed >= 2.0
    line = _verdict(
        ok,
        "single-frame scoring throughput",
        f"{result.predictions_per_second:.3e} frames/s at 45+297 features, "
        f"6 classes (need >= 1e4) over {timed:.1f}s of timed work (need >= 2s)",
    )
    assert ok, line


def test_09_files_and_fits_are_deterministic(tmp_path):
    spec = SynthSpec(
        layout=FeatureLayout((2, 2), 2, (2, 1)),
        n_classes=3,
        n_instances=60,
        noise_sigma=0.2,
        planted_joints=((0,), (1,), (0, 1)),
        planted_blocks=(((0, 0),), ((1, 1),), ((0, 1),)),
        seed=3,
    )
    dataset = generate(spec).dataset
    config = SolverConfig(max_iters=30, seed=4)

    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    save_dataset(dataset, first)
    save_dataset(load_dataset(first), second)
    dataset_exact = first.read_bytes() == second.read_bytes()

    model_a, _ = fit(dataset, config)
    model_b, _ = fit(dataset, config)
    fits_identical = np.array_equal(model_a.w, model_b.w) and np.array_equal(
        model_a.u, model_b.u
    )

    model_first = tmp_path / "a.json"
    model_second = tmp_path / "b.json"
    save_model(model_a, model_first)
    save_model(load_model(model_first), model_second)
    model_exact = model_first.read_bytes() == model_second.read_bytes()

    reloaded = load_model(model_first)
    reload_exact = np.array_equal(reloaded.w, model_a.w) and np.array_equal(
        reloaded.u, model_a.u
    )

    ok = dataset_exact and fits_identical and model_exact and reload_exact
    line = _verdict(
        ok,
        "bit-exact files and seeded fits",
        f"dataset file round-trip exact: {dataset_exact}, model file "
        f"round-trip exact: {model_exact}, weights reload exactly: "
        f"{reload_exact}, same-seed fits identical: {fits_identical} "
        "(both fits in one process at one BLAS thread count)",
    )
    assert ok, line
