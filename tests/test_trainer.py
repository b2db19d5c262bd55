"""Training-loop tests: toggles, determinism, loss bookkeeping, reports."""

import json
import math
import os
import tracemalloc
import warnings

import data_oracle
import numpy as np
import pytest

from qamatch.calibration import EPS_DIV
from qamatch.data import (
    DatasetHeader,
    Split,
    SynthConfig,
    labeled_matrix,
    load_dataset,
    load_truth,
    synth_generate,
)
from qamatch.errors import DataFormatError, DivergenceError
from qamatch.metrics import evaluate_model
from qamatch.numerics import EPS_LOG, MlpClassifier, sgd_step, weighted_ce_gradient
from qamatch.rebalance import class_weights
from qamatch.trainer import (
    REPORT_KEYS,
    TrainConfig,
    _Cycler,
    build_trainer,
    read_report,
    write_report,
)


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    """Small imbalanced blob task shared read-only by the tests here."""
    out = tmp_path_factory.mktemp("task")
    cfg = SynthConfig(
        num_classes=3,
        dim=6,
        separation=2.5,
        noise_sigma=0.8,
        aug_sigma=0.3,
        seed=7,
        labeled_counts=[12, 5, 2],
        unlabeled_counts=[40, 16, 8],
        valid_counts=[8, 4, 2],
        test_counts=[20, 8, 4],
    )
    synth_generate(cfg, out)
    return out


def load_task(task_dir):
    header, labeled, unlabeled = load_dataset(task_dir / "train.jsonl")
    valid_header, valid_records, _ = load_dataset(task_dir / "valid.jsonl")
    truth = load_truth(task_dir / "unlabeled-truth.tsv")
    return header, labeled, unlabeled, valid_header, valid_records, truth


def base_config(**overrides):
    kw = dict(
        temperature=0.5,
        alpha=0.75,
        beta=0.9999,
        window=8,
        lr=0.05,
        momentum=0.9,
        labeled_batch=6,
        unlabeled_batch=12,
        iterations=40,
        seed=3,
        hidden_dims=(8,),
        eval_interval=10,
    )
    kw.update(overrides)
    return TrainConfig(**kw)


def make_trainer(task_dir, **overrides):
    header, labeled, unlabeled, vh, vr, truth = load_task(task_dir)
    return build_trainer(base_config(**overrides), header, labeled, unlabeled, vh, vr, truth)


# ---------------------------------------------------------------------------
# component toggles change exactly their own loss term at step 1


class LoopCycler:
    """The index stream's reference form: one slice per pass it touches."""

    def __init__(self, size, rng):
        self.size, self.rng, self.order, self.pos = size, rng, None, 0

    def take(self, k):
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if self.order is None or self.pos >= self.size:
                self.order = self.rng.permutation(self.size)
                self.pos = 0
            n = min(k - filled, self.size - self.pos)
            out[filled : filled + n] = self.order[self.pos : self.pos + n]
            self.pos += n
            filled += n
        return out


def test_cycler_matches_the_reference_stream_and_rng_use():
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    fast, ref = _Cycler(7, rng_a), LoopCycler(7, rng_b)
    sizes = [1, 3, 7, 10]
    for k in sizes * 6 + sizes[::-1] * 6 + [0, 7, 0, 3, 10, 10, 1]:
        got = fast.take(k)
        assert got.dtype == np.int64
        assert got.tobytes() == ref.take(k).tobytes()
        assert fast.pos == ref.pos
        # both generators have drawn the same numbers so far
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # a returned batch owns its memory, it is not a view of the permutation
    assert not np.shares_memory(fast.take(3), fast.order)


def test_softmix_toggle_changes_only_mix_loss(task_dir):
    full = make_trainer(task_dir).step()
    off = make_trainer(task_dir, use_softmix=False).step()
    assert off.loss_mix == 0.0 and full.loss_mix > 0.0
    assert off.loss_supervised == full.loss_supervised
    assert off.loss_anchor == full.loss_anchor
    np.testing.assert_array_equal(off.pseudo_targets, full.pseudo_targets)


def test_anchor_toggle_changes_only_anchor_loss(task_dir):
    full = make_trainer(task_dir).step()
    off = make_trainer(task_dir, use_anchor=False).step()
    assert off.loss_anchor == 0.0 and full.loss_anchor > 0.0
    assert off.loss_supervised == full.loss_supervised
    assert off.loss_mix == full.loss_mix
    np.testing.assert_array_equal(off.mixed.lambdas, full.mixed.lambdas)


def test_rebalance_toggle_changes_only_supervised_loss(task_dir):
    full = make_trainer(task_dir).step()
    off = make_trainer(task_dir, use_rebalance=False).step()
    assert off.loss_supervised != full.loss_supervised
    assert off.loss_mix == full.loss_mix
    assert off.loss_anchor == full.loss_anchor
    # the toggle must not shift any random draw
    np.testing.assert_array_equal(off.sup_indices, full.sup_indices)
    np.testing.assert_array_equal(off.mixed.lambdas, full.mixed.lambdas)
    np.testing.assert_array_equal(off.mixed.sources, full.mixed.sources)


def test_calibration_toggle_leaves_supervised_loss(task_dir):
    # with a skewed prior and a cold (uniform) marginal, calibration moves
    # the pseudo-labels, so both unlabeled terms change; nothing else does
    full = make_trainer(task_dir).step()
    off = make_trainer(task_dir, use_calibration=False).step()
    assert off.loss_supervised == full.loss_supervised
    assert not np.array_equal(off.pseudo_targets, full.pseudo_targets)
    assert off.loss_mix != full.loss_mix
    assert off.loss_anchor != full.loss_anchor
    np.testing.assert_array_equal(off.raw_preds, full.raw_preds)
    np.testing.assert_array_equal(off.mixed.lambdas, full.mixed.lambdas)


def test_beta_zero_matches_rebalance_off_bitwise(task_dir):
    a = make_trainer(task_dir, beta=0.0, use_rebalance=True)
    b = make_trainer(task_dir, beta=0.0, use_rebalance=False)
    for _ in range(25):
        ra, rb = a.step(), b.step()
        assert ra.loss_total == rb.loss_total
    for wa, wb in zip(a.model.weights, b.model.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.model.biases, b.model.biases):
        np.testing.assert_array_equal(ba, bb)


# ---------------------------------------------------------------------------
# supervised-only collapses to a plain supervised loop


def test_empty_unlabeled_matches_unlabeled_toggles_off(task_dir):
    header, labeled, unlabeled, vh, vr, truth = load_task(task_dir)
    cfg = base_config(use_rebalance=False)
    # the empty Split is what load_dataset returns for a file without
    # unlabeled records, and what `qamatch train` then passes
    empty_split = load_dataset(task_dir / "valid.jsonl")[2]
    assert len(empty_split) == 0
    for no_unlabeled in (None, empty_split):
        a = build_trainer(cfg, header, labeled, no_unlabeled, vh, vr, truth)
        assert data_oracle.trainer_views(a)[0].shape == (0, 2 * header.dim)
        b = build_trainer(cfg, header, labeled, unlabeled, vh, vr, truth)
        b.config = base_config(use_rebalance=False, use_softmix=False, use_anchor=False)
        for _ in range(20):
            ra, rb = a.step(), b.step()
            assert ra.loss_total == rb.loss_total
            assert ra.unl_indices is None and rb.unl_indices is None
        for wa, wb in zip(a.model.weights, b.model.weights):
            np.testing.assert_array_equal(wa, wb)


def test_build_trainer_keeps_the_unlabeled_columns_without_a_copy(tmp_path):
    cfg = SynthConfig(num_classes=3, dim=32, separation=2.5, noise_sigma=0.8, aug_sigma=0.3,
                      seed=7, labeled_counts=[12, 5, 2], unlabeled_counts=[700, 700, 600],
                      valid_counts=[1, 1, 1], test_counts=[1, 1, 1])
    synth_generate(cfg, tmp_path)
    header, labeled, unlabeled = load_dataset(tmp_path / "train.jsonl")
    keys = ("q", "c", "q_aug", "c_aug")
    columns = sum(getattr(unlabeled, key).nbytes for key in keys)
    tracemalloc.start()
    try:
        t = build_trainer(base_config(), header, labeled, unlabeled)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < columns / 4
    assert all(getattr(t.unlabeled, key) is getattr(unlabeled, key) for key in keys)
    for got, want in zip(t.unlabeled.take(np.arange(2000)), data_oracle.hstacked_views(unlabeled), strict=True):
        assert got.tobytes() == want.tobytes()


def test_supervised_trajectory_matches_handrolled_loop(task_dir):
    header, labeled, _, _, _, _ = load_task(task_dir)
    cfg = base_config(use_softmix=False, use_anchor=False)
    t = build_trainer(cfg, header, labeled, None, None, None, None)

    X, y = labeled_matrix(labeled)
    rng = np.random.default_rng(cfg.seed)
    model = MlpClassifier.initialized((X.shape[1], 8, 3), rng)
    weights = class_weights(header.labeled_counts, cfg.beta)
    eye = np.eye(3)
    order, pos = None, 0
    velocity = None
    for _ in range(30):
        idx = np.empty(cfg.labeled_batch, dtype=np.int64)
        filled = 0
        while filled < cfg.labeled_batch:
            if order is None or pos >= X.shape[0]:
                order, pos = rng.permutation(X.shape[0]), 0
            n = min(cfg.labeled_batch - filled, X.shape[0] - pos)
            idx[filled : filled + n] = order[pos : pos + n]
            pos += n
            filled += n
        loss, grads = weighted_ce_gradient(
            model, X[idx], eye[y[idx]], weights[y[idx]], denom=cfg.labeled_batch
        )
        velocity = sgd_step(model, grads, cfg.lr, cfg.momentum, velocity)
        res = t.step()
        assert res.loss_total == loss
    for wa, wb in zip(t.model.weights, model.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(t.model.biases, model.biases):
        np.testing.assert_array_equal(ba, bb)


# ---------------------------------------------------------------------------
# loss bookkeeping


def test_loss_components_sum_to_total(task_dir):
    t = make_trainer(task_dir)
    for _ in range(30):
        res = t.step()
        parts = res.loss_supervised + res.loss_mix + res.loss_anchor
        assert abs(res.loss_total - parts) <= 1e-10


def test_marginal_updated_after_pseudo_labels(task_dir):
    t = make_trainer(task_dir)
    res = t.step()
    # step 1 calibrates against the cold-start uniform marginal ...
    np.testing.assert_array_equal(res.marginal_used, np.full(3, 1.0 / 3.0))
    # ... and only afterwards records the batch mean it produced
    np.testing.assert_allclose(
        t.estimator.marginal(), res.raw_preds.mean(axis=0), rtol=0, atol=1e-15
    )


def test_single_step_scalar_oracle_on_handset_model(task_dir):
    header, labeled, unlabeled, _, _, _ = load_task(task_dir)
    cfg = base_config(labeled_batch=2, unlabeled_batch=1, seed=11)
    t = build_trainer(cfg, header, labeled, unlabeled, None, None, None)
    # hand-set tiny parameters so the oracle sees fixed, harmless values
    for k, w in enumerate(t.model.weights):
        w[:] = 0.03 * (np.arange(w.size).reshape(w.shape) % 7) - 0.05 * k
    for k, b in enumerate(t.model.biases):
        b[:] = 0.01 * (np.arange(b.size) % 3) + 0.02 * k
    Ws = [w.copy() for w in t.model.weights]
    bs = [b.copy() for b in t.model.biases]

    res = t.step()

    def forward_row(row):
        h = [float(v) for v in row]
        last = len(Ws) - 1
        for li, (W, b) in enumerate(zip(Ws, bs)):
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
            target[j] * math.log(max(pred[j], EPS_LOG)) for j in range(len(pred))
        )

    X, y = labeled_matrix(labeled)
    wvec = class_weights(header.labeled_counts, cfg.beta)
    sup = math.fsum(
        wvec[y[i]] * ce(np.eye(3)[y[i]], forward_row(X[i])) for i in res.sup_indices
    ) / cfg.labeled_batch

    prior = np.asarray(header.labeled_counts, float)
    prior = prior / prior.sum()
    i = int(res.unl_indices[0])
    unl_original, unl_question, unl_context = data_oracle.trainer_views(t)
    p_dot = forward_row(unl_original[i])
    numer = [p_dot[j] * prior[j] / max(1.0 / 3.0, EPS_DIV) for j in range(3)]
    cal = [v / math.fsum(numer) for v in numer]
    logs = [
        (math.log(v) if v > 0 else float("-inf")) / cfg.temperature for v in cal
    ]
    m = max(logs)
    es = [math.exp(v - m) for v in logs]
    pseudo = [v / math.fsum(es) for v in es]
    np.testing.assert_allclose(res.pseudo_targets[0], pseudo, rtol=0, atol=1e-12)

    views = [unl_original[i], unl_question[i], unl_context[i]]
    lam = float(res.mixed.lambdas[0])
    src = views[int(res.mixed.sources[0])]
    mix_losses = []
    for v_idx, view in enumerate(views):
        blended = view if v_idx == int(res.mixed.sources[0]) else lam * view + (1 - lam) * src
        mix_losses.append(ce(pseudo, forward_row(blended)) / cfg.unlabeled_batch)
    anchor = ce(pseudo, forward_row(unl_question[i])) / cfg.unlabeled_batch

    total = math.fsum([sup, *mix_losses, anchor])
    assert abs(res.loss_total - total) <= 1e-10


# ---------------------------------------------------------------------------
# divergence handling


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_snapshot(task_dir):
    t = make_trainer(task_dir, lr=1e12)
    with pytest.raises(DivergenceError) as exc:
        for _ in range(50):
            t.step()
    snap = exc.value.snapshot
    assert snap["iteration"] >= 1
    for key in ("loss_total", "loss_supervised", "loss_mix", "loss_anchor", "lambdas", "sources"):
        assert key in snap


# ---------------------------------------------------------------------------
# reports


def test_report_cadence_includes_trailing_partial(task_dir):
    t = make_trainer(task_dir, iterations=25, eval_interval=10)
    records = t.run()
    assert [r["iteration"] for r in records] == [10, 20, 25]
    iters = [r["iteration"] for r in records]
    assert all(a < b for a, b in zip(iters, iters[1:]))


def test_report_fields_populated_with_truth_and_validation(task_dir):
    t = make_trainer(task_dir, iterations=20, eval_interval=10)
    records = t.run()
    for rec in records:
        assert tuple(rec) == REPORT_KEYS
        assert 0.0 <= rec["pseudo_label_accuracy"] <= 1.0
        assert 0.0 <= rec["val_accuracy"] <= 1.0
        assert rec["kl_prior_pseudo"] >= 0.0


def test_report_fields_none_when_sources_missing(task_dir):
    header, labeled, _, _, _, _ = load_task(task_dir)
    cfg = base_config(iterations=10, eval_interval=5)
    t = build_trainer(cfg, header, labeled, None, None, None, None)
    for rec in t.run():
        assert rec["pseudo_label_accuracy"] is None
        assert rec["val_accuracy"] is None
        assert rec["kl_prior_pseudo"] is None


def run_keeping_steps(trainer):
    """``run()`` with every StepResult kept, and the validation evaluation
    after every step, through a hook on the instance's ``step``."""
    steps, evals = [], []
    inner = trainer.step

    def step():
        res = inner()
        steps.append(res)
        if trainer.valid_X is not None:
            evals.append(evaluate_model(trainer.model, trainer.valid_X, trainer.valid_y, 3))
        return res

    trainer.step = step
    return trainer.run(), steps, evals


def recompute_record(steps, prior, truth_of_row, evaluation):
    """One report record from its interval's steps, in plain Python."""
    n = len(steps)
    hits = seen = 0
    pseudo_rows = []
    for res in steps:
        if res.pseudo_targets is None:
            continue
        for idx, row in zip(res.unl_indices.tolist(), res.pseudo_targets.tolist()):
            pseudo_rows.append(row)
            label = truth_of_row(idx)
            if label is not None:
                seen += 1
                hits += max(range(len(row)), key=row.__getitem__) == label
    kl = None
    if pseudo_rows:
        mean = [math.fsum(col) / len(pseudo_rows) for col in zip(*pseudo_rows)]
        kl = math.fsum(p * math.log(p / max(q, EPS_DIV)) for p, q in zip(prior, mean) if p > 0)
    return {
        "iteration": steps[-1].iteration,
        "loss_rebalanced": math.fsum(r.loss_supervised for r in steps) / n,
        "loss_mix": math.fsum(r.loss_mix for r in steps) / n,
        "loss_anchor": math.fsum(r.loss_anchor for r in steps) / n,
        "pseudo_label_accuracy": hits / seen if seen else None,
        "val_accuracy": None if evaluation is None else evaluation["accuracy"],
        "val_weighted_f1": None if evaluation is None else evaluation["weighted_f1"],
        "kl_prior_pseudo": kl,
    }


@pytest.mark.parametrize("overrides, with_sources", [
    (dict(iterations=25, eval_interval=7), True),  # a trailing partial interval
    (dict(iterations=30, eval_interval=10), True),
    (dict(iterations=30, eval_interval=10), False),
    (dict(iterations=30, eval_interval=10, use_softmix=False, use_anchor=False), True),
], ids=["trailing-partial", "truth-and-validation", "neither", "supervised-only"])
def test_report_records_equal_their_recomputation(task_dir, overrides, with_sources):
    header, labeled, unlabeled, vh, vr, truth = load_task(task_dir)
    # every third unlabeled row loses its truth label, so rows go unscored
    truth = {rid: name for i, (rid, name) in enumerate(truth.items()) if i % 3}
    if not with_sources:
        vh = vr = truth = None
    cfg = base_config(**overrides)
    t = build_trainer(cfg, header, labeled, unlabeled, vh, vr, truth)
    records, steps, evals = run_keeping_steps(t)

    ends = [i for i in range(1, cfg.iterations + 1)
            if i % cfg.eval_interval == 0 or i == cfg.iterations]
    assert [rec["iteration"] for rec in records] == ends
    labels = labeled.labels.tolist()
    prior = [labels.count(k) / len(labels) for k in range(3)]

    def truth_of_row(idx):
        name = None if truth is None else truth.get(unlabeled.ids[idx])
        return None if name is None else header.class_names.index(name)

    for rec, start, end in zip(records, [0, *ends], ends):
        evaluation = evals[end - 1] if evals else None
        want = recompute_record(steps[start:end], prior, truth_of_row, evaluation)
        assert tuple(rec) == REPORT_KEYS
        got = dict(rec)
        kl, want_kl = got.pop("kl_prior_pseudo"), want.pop("kl_prior_pseudo")
        assert got == want
        if want_kl is None:
            assert kl is None
        else:
            assert abs(kl - want_kl) <= 1e-12
    unlabeled_pass = cfg.use_softmix or cfg.use_anchor
    first = records[0]
    assert (first["pseudo_label_accuracy"] is not None) == (with_sources and unlabeled_pass)
    assert (first["kl_prior_pseudo"] is not None) == unlabeled_pass
    assert (first["val_accuracy"] is not None) == with_sources


def test_report_roundtrip(task_dir, tmp_path):
    t = make_trainer(task_dir, iterations=20, eval_interval=10)
    records = t.run()
    path = tmp_path / "report.jsonl"
    write_report(records, path)
    assert read_report(path) == records


def test_failed_report_write_leaves_no_file(task_dir, tmp_path):
    records = make_trainer(task_dir, iterations=20, eval_interval=10).run()
    broken = [records[0], {**records[1], "loss_mix": object()}]  # json.dumps raises on it
    path = tmp_path / "report.jsonl"
    with pytest.raises(TypeError):
        write_report(broken, path)
    assert os.listdir(tmp_path) == []

    write_report(records, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_report(broken, path)
    assert os.listdir(tmp_path) == ["report.jsonl"]
    assert path.read_bytes() == before
    # written through a plain open: the same mode as any new file
    (tmp_path / "plain").write_text("")
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode


def test_report_rejects_malformed_and_misordered(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_report(path)
    rec = {k: 1 for k in REPORT_KEYS}
    shuffled = dict(reversed(list(rec.items())))
    path.write_text(json.dumps(shuffled) + "\n")
    with pytest.raises(DataFormatError, match="schema"):
        read_report(path)
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        read_report(path)


def test_same_seed_same_report_and_model(task_dir):
    header, labeled, unlabeled, vh, vr, truth = load_task(task_dir)
    cfg = base_config(iterations=30)
    t1 = build_trainer(cfg, header, labeled, unlabeled, vh, vr, truth)
    t2 = build_trainer(cfg, header, labeled, unlabeled, vh, vr, truth)
    assert json.dumps(t1.run()) == json.dumps(t2.run())
    for wa, wb in zip(t1.model.weights, t2.model.weights):
        np.testing.assert_array_equal(wa, wb)


@pytest.mark.parametrize("overrides", [{}, {"use_calibration": False}], ids=["full", "no_calibration"])
def test_short_run_reports_the_prefix_of_a_longer_run(task_dir, overrides):
    # the acceptance grid reads criteria 2 and 10 off the first records of
    # its longer runs; this fails once a step depends on the run's length,
    # as a learning-rate schedule over ``iterations`` would make it
    short = make_trainer(task_dir, iterations=20, eval_interval=5, **overrides).run()
    long = make_trainer(task_dir, iterations=40, eval_interval=5, **overrides).run()
    assert len(short) == 4 and len(long) == 8
    assert json.dumps(short) == json.dumps(long[:4])


# ---------------------------------------------------------------------------
# construction errors


def test_build_trainer_rejects_unknown_truth_label(task_dir):
    header, labeled, unlabeled, _, _, _ = load_task(task_dir)
    truth = {unlabeled.ids[0]: "nonexistent-class"}
    with pytest.raises(DataFormatError, match="unknown label"):
        build_trainer(base_config(), header, labeled, unlabeled, None, None, truth)
    # with two unknown labels, the first in split order is named
    truth = {unlabeled.ids[5]: "second", unlabeled.ids[2]: "first"}
    with pytest.raises(DataFormatError) as err:
        build_trainer(base_config(), header, labeled, unlabeled, None, None, truth)
    assert str(err.value) == "truth sidecar has unknown label 'first'"
    with pytest.raises(DataFormatError) as oracle:
        data_oracle.truth_indices(header.class_names, unlabeled.ids, truth)
    assert str(oracle.value) == str(err.value)
    # an id missing from the sidecar maps to -1; an unknown label on an id
    # outside the split is ignored
    names = header.class_names
    truth = {"not-in-split": "nonexistent-class",
             **{rid: names[i % len(names)] for i, rid in enumerate(unlabeled.ids) if i % 4}}
    t = build_trainer(base_config(), header, labeled, unlabeled, None, None, truth)
    expected = data_oracle.truth_indices(names, unlabeled.ids, truth)
    assert t.unl_truth.dtype == expected.dtype and t.unl_truth.tolist() == expected.tolist()
    assert t.unl_truth[0] == -1 and t.unl_truth[1] == 1 % len(names)


def test_build_trainer_rejects_disagreeing_validation_header(task_dir):
    header, labeled, unlabeled, vh, vr, truth = load_task(task_dir)
    for bad in (
        DatasetHeader(vh.dim, ["x", "y", "z"], vh.labeled_counts),
        DatasetHeader(vh.dim + 1, vh.class_names, vh.labeled_counts),
    ):
        with pytest.raises(DataFormatError, match="disagrees"):
            build_trainer(base_config(), header, labeled, unlabeled, bad, vr, truth)


# ---------------------------------------------------------------------------
# the synthetic task is learnable before any semi-supervised claim is made


def test_build_trainer_counts_classes_from_the_labels():
    # a hand-built header whose labeled_counts disagree with the labels
    header = DatasetHeader(2, ["a", "b", "c"], [0, 0, 0])
    rng = np.random.default_rng(0)
    labeled = Split(["l0", "l1", "l2", "l3"], np.array([0, 1, 2, 0]),
                    rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trainer = build_trainer(base_config(), header, labeled, None)
        assert math.isfinite(trainer.step().loss_total)
    assert trainer.prior.tolist() == [0.5, 0.25, 0.25]
    np.testing.assert_array_equal(trainer.weight_vector, class_weights([2, 1, 1], 0.9999))


def test_separated_blobs_are_learnable_supervised(tmp_path):
    cfg = SynthConfig(
        num_classes=3,
        dim=6,
        separation=4.0,
        noise_sigma=0.5,
        aug_sigma=0.3,
        seed=0,
        labeled_counts=[40, 20, 10],
        unlabeled_counts=[0, 0, 0],
        valid_counts=[8, 4, 2],
        test_counts=[40, 20, 10],
    )
    synth_generate(cfg, tmp_path)
    header, labeled, _ = load_dataset(tmp_path / "train.jsonl")
    tcfg = TrainConfig(
        iterations=300, labeled_batch=16, lr=0.05, seed=0,
        use_softmix=False, use_anchor=False, eval_interval=100,
    )
    t = build_trainer(tcfg, header, labeled, None, None, None, None)
    t.run()
    model = t.model
    test_header, test_records, _ = load_dataset(tmp_path / "test.jsonl")
    X, y = labeled_matrix(test_records)
    record = evaluate_model(model, X, y, test_header.num_classes)
    assert record["accuracy"] > 0.95
