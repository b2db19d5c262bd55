"""Acceptance suite: ten release-gate checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL (...)" line with the
measured quantities. The training-based criteria share one module-scoped
grid: each of five variants trained once per seed 0..4 for 10,000 steps on
the synthetic gamma=10 task (3 classes, 60 labeled / 2,000 unlabeled,
48-dim blobs). Criteria 2 and 10 read the first 2,000 steps of the full
and no_calibration runs. The whole module takes a few minutes on one core,
nearly all of it in the grid.
"""

import json
import math
import time

import conftest
import numpy as np
import pytest

from qamatch.calibration import EPS_DIV, calibrate, sharpen
from qamatch.cli import _sha256, main
from qamatch.data import (
    DatasetHeader,
    Split,
    SynthConfig,
    labeled_matrix,
    load_dataset,
    load_truth,
    longtail_counts,
    synth_generate,
)
from qamatch.metrics import evaluate_model
from qamatch.numerics import EPS_LOG, MlpClassifier, weighted_ce_gradient
from qamatch.rebalance import effective_number_weight
from qamatch.trainer import TrainConfig, build_trainer

SEEDS = (0, 1, 2, 3, 4)

# The synthetic task every training criterion runs on. Geometry chosen so
# sixty labels are scarce but the blobs are learnable from consistency
# signal; the full labeled batch plus a wide unlabeled batch keep gradient
# noise low enough for the rebalanced equilibrium to hold.
DIM = 48
SEPARATION = 2.8
NOISE_SIGMA = 1.0
AUG_SIGMA = 0.35
LR = 0.002
LABELED_BATCH = 60
UNLABELED_BATCH = 256
HIDDEN = (64,)
LONG_ITERS = 10000
SHORT_ITERS = 2000
EVAL_INTERVAL = 100

# effective-number weight (1-b)/(1-b^n) at b=0.9999, n=100, evaluated at
# 50-digit precision and rounded to double
W_100 = 0.010049583329027618

VARIANTS = {
    "full": {},
    "supervised": {"use_softmix": False, "use_anchor": False},
    "no_rebalance": {"use_rebalance": False},
    "no_calibration": {"use_calibration": False},
    "no_softmix": {"use_softmix": False},
}


def verdict(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {number}: {detail}"


def task_config(seed):
    # validation and test reuse the labeled gamma
    return SynthConfig(
        num_classes=3,
        dim=DIM,
        separation=SEPARATION,
        noise_sigma=NOISE_SIGMA,
        aug_sigma=AUG_SIGMA,
        seed=seed,
        labeled_counts=longtail_counts(43, 10.0, 3),
        unlabeled_counts=longtail_counts(1413, 10.0, 3),
        valid_counts=longtail_counts(60, 10.0, 3),
        test_counts=longtail_counts(200, 10.0, 3),
    )


def train_config(seed, iterations, **overrides):
    kw = dict(
        lr=LR,
        labeled_batch=LABELED_BATCH,
        unlabeled_batch=UNLABELED_BATCH,
        iterations=iterations,
        seed=seed,
        hidden_dims=HIDDEN,
        eval_interval=EVAL_INTERVAL,
    )
    kw.update(overrides)
    return TrainConfig(**kw)


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """One generated dataset directory per seed, loaded once."""
    loaded = []
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"seed{seed}")
        synth_generate(task_config(seed), out)
        header, labeled, unlabeled = load_dataset(out / "train.jsonl")
        truth = load_truth(out / "unlabeled-truth.tsv")
        test_header, test_records, _ = load_dataset(out / "test.jsonl")
        test_X, test_y = labeled_matrix(test_records)
        loaded.append(
            {
                "header": header,
                "labeled": labeled,
                "unlabeled": unlabeled,
                "truth": truth,
                "test_X": test_X,
                "test_y": test_y,
            }
        )
    return loaded


def run_job(task, seed, name):
    """One grid run: variant ``name`` on seed ``seed``'s task for LONG_ITERS
    steps. Returns the test-split record, the report, the run's wall seconds
    and the seconds until step SHORT_ITERS ended.

    A wrapper on the trainer's ``step`` (as in benchmarks/harness.py) reads
    the clock at step SHORT_ITERS; it makes no draws, so the model and the
    report are those of an unwrapped run."""
    start = time.monotonic()
    trainer = build_trainer(
        train_config(seed, LONG_ITERS, **VARIANTS[name]), task["header"],
        task["labeled"], task["unlabeled"], None, None, task["truth"],
    )
    inner = trainer.step
    short = []

    def step():
        result = inner()
        if trainer.iteration == SHORT_ITERS:
            short.append(time.monotonic() - start)
        return result

    trainer.step = step
    report = trainer.run()
    record = evaluate_model(trainer.model, task["test_X"], task["test_y"], 3)
    return {
        "test": record,
        "report": report,
        "seconds": time.monotonic() - start,
        "short_seconds": short[0],
    }


def short_prefix(report):
    """The records of the first SHORT_ITERS steps. A step never reads
    ``iterations`` and the grid runs without validation, so these are the
    report of a SHORT_ITERS-step run (test_trainer.py guards this)."""
    prefix = report[: SHORT_ITERS // EVAL_INTERVAL]
    assert prefix[-1]["iteration"] == SHORT_ITERS
    return prefix


@pytest.fixture(scope="module")
def grid(datasets):
    """Every variant on every seed at LONG_ITERS steps, each run once:
    criteria 7 and 8 read the test-split records, criteria 2 and 10 the
    SHORT_ITERS-step prefixes of the full and no_calibration runs."""
    runs = {name: [] for name in VARIANTS}
    for seed, task in zip(SEEDS, datasets):
        for name in VARIANTS:
            runs[name].append(run_job(task, seed, name))
    return runs


# ---------------------------------------------------------------------------


def test_criterion_01_effective_number_closed_form():
    start = time.monotonic()
    exact_at_zero = all(effective_number_weight(n, 0.0) == 1.0 for n in (1, 7, 100))
    near_one = max(
        abs(effective_number_weight(n, 1.0 - 1e-12) - 1.0 / n) * n
        for n in (1, 2, 10, 100, 1000)
    )
    mid = abs(effective_number_weight(100, 0.9999) - W_100)
    elapsed = time.monotonic() - start
    verdict(
        1,
        exact_at_zero and near_one <= 1e-6 and mid <= 1e-7 and elapsed < 1.0,
        f"b=0 exact {exact_at_zero}, b->1 rel err {near_one:.2e} <= 1e-6, "
        f"b=0.9999 n=100 abs err {mid:.2e} <= 1e-7, {elapsed:.3f}s",
    )


@pytest.mark.slow
def test_criterion_02_calibration_identity_and_alignment(grid):
    rng = np.random.default_rng(2)
    identity_err = 0.0
    for _ in range(50):
        p = rng.dirichlet(np.full(3, 2.0))
        q = rng.dirichlet(np.full(3, 3.0))
        identity_err = max(identity_err, np.abs(calibrate(p, q, q) - p).max())
    final_kl = {
        name: [short_prefix(run["report"])[-1]["kl_prior_pseudo"] for run in grid[name]]
        for name in ("full", "no_calibration")
    }
    mean_with = float(np.mean(final_kl["full"]))
    mean_without = float(np.mean(final_kl["no_calibration"]))
    # the 10 x SHORT_ITERS steps these KL values come from
    elapsed = sum(run["short_seconds"] for name in final_kl for run in grid[name])
    ok = (
        identity_err <= 1e-12
        and mean_with <= mean_without / 3.0
        and elapsed < 300.0
    )
    verdict(
        2,
        ok,
        f"identity err {identity_err:.2e} <= 1e-12, final KL {mean_with:.4f} vs "
        f"{mean_without:.4f} uncalibrated (ratio {mean_with / mean_without:.3f} "
        f"<= 1/3), {elapsed:.0f}s",
    )


def test_criterion_03_sharpening_contract():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    dists = rng.dirichlet(np.full(4, 1.5), size=1000)
    argmax_ok = all(
        np.array_equal(
            sharpen(dists, temperature).argmax(axis=1), dists.argmax(axis=1)
        )
        for temperature in (2.0, 1.0, 0.5, 0.1, 0.01)
    )
    uniform = np.full(4, 0.25)
    fixed_ok = all(
        np.allclose(sharpen(uniform, temperature), uniform, atol=1e-15)
        for temperature in (1.0, 0.5, 0.1)
    )

    def entropy(P):
        logs = np.where(P > 0, np.log(np.maximum(P, 1e-300)), 0.0)
        return -(P * logs).sum(axis=1)

    previous = entropy(sharpen(dists, 1.0))
    monotone_ok = True
    for temperature in (0.5, 0.25, 0.1):
        current = entropy(sharpen(dists, temperature))
        monotone_ok = monotone_ok and bool(np.all(current <= previous + 1e-12))
        previous = current
    elapsed = time.monotonic() - start
    verdict(
        3,
        argmax_ok and fixed_ok and monotone_ok and elapsed < 1.0,
        f"argmax preserved {argmax_ok}, uniform fixed point {fixed_ok}, "
        f"entropy monotone {monotone_ok}, {elapsed:.3f}s",
    )


def _tiny_trainer(rng, labeled_n=(3, 2, 2), unl_n=7, data_dim=3, hidden=5,
                  labeled_batch=4, unlabeled_batch=4, **overrides):
    """A trainer over random vectors, built as loaded data is: each record's
    halves are sliced out of one (n, 2 * data_dim) draw per view, so the
    question and context views share a half with the original view."""
    counts = list(labeled_n)
    y = np.repeat(np.arange(3), counts)
    d_in = 2 * data_dim
    cfg = TrainConfig(
        labeled_batch=labeled_batch,
        unlabeled_batch=unlabeled_batch,
        hidden_dims=(hidden,),
        seed=int(rng.integers(1 << 30)),
        **overrides,
    )
    header = DatasetHeader(data_dim, ["a", "b", "c"], counts)
    lab = rng.normal(size=(len(y), d_in))
    orig, qview, cview = (rng.normal(size=(unl_n, d_in)) for _ in range(3))
    labeled = Split([f"l{i}" for i in range(len(y))], y, lab[:, :data_dim], lab[:, data_dim:])
    unlabeled = Split(
        [f"u{i}" for i in range(unl_n)], None,
        orig[:, :data_dim], orig[:, data_dim:], qview[:, :data_dim], cview[:, data_dim:],
    )
    return build_trainer(cfg, header, labeled, unlabeled)


def test_criterion_04_gradient_check_full_objective():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    t = _tiny_trainer(rng)
    weights0 = [w.copy() for w in t.model.weights]
    biases0 = [b.copy() for b in t.model.biases]
    res = t.step()

    model = MlpClassifier(t.model.layer_dims, weights0, biases0)
    X_sup = t.labeled_X[res.sup_indices]
    y_sup = t.labeled_y[res.sup_indices]
    sup_targets = np.eye(3)[y_sup]
    sup_w = t.weight_vector[y_sup]
    pseudo = res.pseudo_targets
    streams = [
        (X_sup, sup_targets, sup_w, 4),
        (res.mixed.original, pseudo, 1.0, 4),
        (res.mixed.question, pseudo, 1.0, 4),
        (res.mixed.context, pseudo, 1.0, 4),
        (t.unl_question[res.unl_indices], pseudo, 1.0, 4),
    ]

    def objective():
        return math.fsum(
            weighted_ce_gradient(model, X, targets, w, denom=denom)[0]
            for X, targets, w, denom in streams
        )

    grads = None
    for X, targets, w, denom in streams:
        _, g = weighted_ce_gradient(model, X, targets, w, denom=denom)
        grads = g if grads is None else grads.add_scaled(g)

    h = 1e-5
    worst = 0.0
    for analytic, param in zip(
        grads.weight_grads + grads.bias_grads, model.weights + model.biases
    ):
        flat = param.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = objective()
            flat[i] = keep - h
            down = objective()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            err = abs(analytic.ravel()[i] - fd) / max(abs(fd), 1e-3)
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    verdict(
        4,
        worst <= 1e-6 and elapsed < 10.0,
        f"worst relative gradient error {worst:.2e} <= 1e-6 over "
        f"{sum(p.size for p in model.weights + model.biases)} parameters, "
        f"{elapsed:.2f}s",
    )


def scalar_step_total(trainer, weights0, biases0, res):
    """Pure-Python recomputation of one step's total loss at the pre-step
    parameters, mirroring the loss definitions with scalar arithmetic."""
    cfg = trainer.config

    def forward(row):
        h = [float(v) for v in row]
        last = len(weights0) - 1
        for li, (W, b) in enumerate(zip(weights0, biases0)):
            z = [
                math.fsum(h[i] * W[i, j] for i in range(len(h))) + b[j]
                for j in range(W.shape[1])
            ]
            h = z if li == last else [max(0.0, v) for v in z]
        m = max(h)
        e = [math.exp(v - m) for v in h]
        s = math.fsum(e)
        return [v / s for v in e]

    def ce(target, pred):
        return -math.fsum(
            t * math.log(max(p, EPS_LOG)) for t, p in zip(target, pred)
        )

    eye = np.eye(3)
    sup = math.fsum(
        trainer.weight_vector[trainer.labeled_y[i]]
        * cfg.scale_supervised
        * ce(eye[trainer.labeled_y[i]], forward(trainer.labeled_X[i]))
        for i in res.sup_indices
    ) / cfg.labeled_batch

    prior = trainer.prior
    pseudo_rows = []
    for i in res.unl_indices:
        p_dot = forward(trainer.unl_original[i])
        numer = [
            p_dot[j] * prior[j] / max(1.0 / 3.0, EPS_DIV) for j in range(3)
        ]
        total = math.fsum(numer)
        cal = [v / total for v in numer]
        logs = [
            (math.log(v) if v > 0 else float("-inf")) / cfg.temperature
            for v in cal
        ]
        m = max(logs)
        es = [math.exp(v - m) for v in logs]
        pseudo_rows.append([v / math.fsum(es) for v in es])

    views = (trainer.unl_original, trainer.unl_question, trainer.unl_context)
    mix_parts = []
    for v_idx in range(3):
        rows = []
        for pos, i in enumerate(res.unl_indices):
            lam = float(res.mixed.lambdas[pos])
            src_idx = int(res.mixed.sources[pos])
            if v_idx == src_idx:
                blended = views[v_idx][i]
            else:
                blended = lam * views[v_idx][i] + (1 - lam) * views[src_idx][i]
            rows.append(cfg.scale_mix * ce(pseudo_rows[pos], forward(blended)))
        mix_parts.append(math.fsum(rows) / cfg.unlabeled_batch)

    anchor = math.fsum(
        cfg.scale_anchor * ce(pseudo_rows[pos], forward(trainer.unl_question[i]))
        for pos, i in enumerate(res.unl_indices)
    ) / cfg.unlabeled_batch

    return math.fsum([sup, *mix_parts, anchor])


def test_criterion_05_one_step_scalar_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        t = _tiny_trainer(
            rng,
            labeled_n=tuple(int(v) for v in rng.integers(1, 4, size=3)),
            unl_n=int(rng.integers(3, 9)),
            data_dim=int(rng.integers(3, 5)),
            hidden=int(rng.integers(3, 7)),
            labeled_batch=int(rng.integers(2, 6)),
            unlabeled_batch=int(rng.integers(2, 6)),
            temperature=float(rng.uniform(0.3, 1.5)),
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.choice([0.0, 0.99, 0.9999])),
            scale_supervised=float(rng.uniform(0.5, 2.0)),
            scale_mix=float(rng.uniform(0.5, 2.0)),
            scale_anchor=float(rng.uniform(0.5, 2.0)),
        )
        weights0 = [w.copy() for w in t.model.weights]
        biases0 = [b.copy() for b in t.model.biases]
        res = t.step()
        oracle = scalar_step_total(t, weights0, biases0, res)
        worst = max(worst, abs(res.loss_total - oracle))
    elapsed = time.monotonic() - start
    verdict(
        5,
        worst <= 1e-10 and elapsed < 10.0,
        f"worst |total - scalar oracle| {worst:.2e} <= 1e-10 over 20 random "
        f"instances, {elapsed:.2f}s",
    )


def test_criterion_06_longtail_profiles_exact():
    start = time.monotonic()
    small = longtail_counts(40, 5.0, 4)
    large = longtail_counts(200, 5.0, 4)
    elapsed = time.monotonic() - start
    verdict(
        6,
        small == [40, 23, 13, 8] and large == [200, 116, 68, 40] and elapsed < 1.0,
        f"longtail(40,5,4)={small}, longtail(200,5,4)={large}, {elapsed:.3f}s",
    )


@pytest.mark.slow
def test_criterion_07_minority_recovery(grid):
    full = [run["test"] for run in grid["full"]]
    sup = [run["test"] for run in grid["supervised"]]
    minority_gap = 100.0 * (
        np.mean([r["per_class_accuracy"][2] for r in full])
        - np.mean([r["per_class_accuracy"][2] for r in sup])
    )
    f1_gap = 100.0 * (
        np.mean([r["weighted_f1"] for r in full])
        - np.mean([r["weighted_f1"] for r in sup])
    )
    elapsed = sum(run["seconds"] for name in ("full", "supervised") for run in grid[name])
    verdict(
        7,
        minority_gap >= 5.0 and f1_gap >= 2.0 and elapsed < 600.0,
        f"minority accuracy gap +{minority_gap:.1f} pts >= 5, weighted F1 gap "
        f"+{f1_gap:.2f} pts >= 2 over {len(SEEDS)} seeds, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_ablation_ordering(grid):
    results = {name: [run["test"] for run in runs] for name, runs in grid.items()}
    full_mean = np.mean([r["weighted_f1"] for r in results["full"]])
    deltas = {}
    for name in ("no_rebalance", "no_calibration", "no_softmix"):
        deltas[name] = 100.0 * (
            np.mean([r["weighted_f1"] for r in results[name]]) - full_mean
        )
    elapsed = sum(run["seconds"] for runs in grid.values() for run in runs)
    never_improves = all(d <= 0.5 for d in deltas.values())
    one_degrades = min(deltas.values()) <= -1.0
    detail = ", ".join(f"{k} {v:+.2f}" for k, v in deltas.items())
    verdict(
        8,
        never_improves and one_degrades and elapsed < 1800.0,
        f"weighted F1 deltas in pts: {detail} (all <= +0.5, min <= -1.0), "
        f"{elapsed:.0f}s grid",
    )


def test_criterion_09_cli_runs_are_byte_identical(tmp_path):
    start = time.monotonic()
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--seed", "0"]) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        f"lr = {LR}\nlabeled_batch = {LABELED_BATCH}\n"
        f"unlabeled_batch = {UNLABELED_BATCH}\niterations = 500\n"
        f"hidden_dims = 64\nseed = 7\n"
    )
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = main(["train", "--data", str(data), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 0
        digests.append(
            (_sha256(out / "model.qam"), _sha256(out / "report.jsonl"))
        )
    elapsed = time.monotonic() - start
    verdict(
        9,
        digests[0] == digests[1] and elapsed < 120.0,
        f"model and report digests identical across two runs "
        f"({digests[0][0][:12]}.., {digests[0][1][:12]}..), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_10_pseudo_label_accuracy_trend(grid):
    firsts, lasts = [], []
    for run in grid["full"]:
        accs = [r["pseudo_label_accuracy"] for r in short_prefix(run["report"])]
        firsts.append(float(np.mean(accs[:5])))
        lasts.append(float(np.mean(accs[-5:])))
    rising = all(last > first for first, last in zip(firsts, lasts))
    pairs = ", ".join(f"{f:.2f}->{l:.2f}" for f, l in zip(firsts, lasts))
    verdict(
        10,
        rising,
        f"first vs last 500-step pseudo-label accuracy per seed: {pairs}",
    )
