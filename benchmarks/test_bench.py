"""Fast tests of the benchmark's own checks and tracing.

Run from the repository root:

    python3 -m pytest -q benchmarks
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
from qamatch import cli, data, metrics, trainer  # noqa: E402
from workloads import Workload, config_text  # noqa: E402

SMALL = Workload(
    name="small",
    generate={
        "num_classes": 3,
        "dim": 6,
        "class_names": ["a", "b", "c"],
        "separation": 2.5,
        "noise_sigma": 0.8,
        "aug_sigma": 0.3,
        "labeled_counts": [12, 5, 3],
        "unlabeled_counts": [30, 12, 6],
        "valid_counts": [6, 3, 2],
        "test_counts": [10, 5, 3],
    },
    train={"hidden_dims": [8], "labeled_batch": 6, "unlabeled_batch": 12,
           "eval_interval": 10, "iterations": 25},
    supervised_only=False,
    window_steps=5,
)
SEED = 7


def small_config():
    return trainer.TrainConfig(**SMALL.train, seed=SEED)


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    (root / "gen.cfg").write_text(config_text(SMALL.generate))
    (root / "train.cfg").write_text(config_text(SMALL.train))
    data_dir, out_dir = root / "data", root / "run"
    assert cli.main(["generate", "--out", str(data_dir), "--config", str(root / "gen.cfg"),
                     "--seed", str(SEED)]) == 0
    assert cli.main(["train", "--data", str(data_dir), "--out", str(out_dir), "--config",
                     str(root / "train.cfg"), "--seed", str(SEED)]) == 0
    return data_dir, out_dir


def eval_record(model_path, test_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", "--model", str(model_path), "--data", str(test_path)]) == 0
    return json.loads(out.getvalue())


def library_session(data_dir, config):
    header, labeled, unlabeled = data.load_dataset(str(data_dir / "train.jsonl"))
    valid_header, valid_records, _ = data.load_dataset(str(data_dir / "valid.jsonl"))
    truth = data.load_truth(str(data_dir / "unlabeled-truth.tsv"))
    session = trainer.build_trainer(config, header, labeled, unlabeled,
                                    valid_header, valid_records, truth)
    return session, session.run()


def test_checks_hold_on_program_outputs(dirs):
    data_dir, out_dir = dirs
    checks.verify_manifest(data_dir, ["train.jsonl", "valid.jsonl", "test.jsonl",
                                      "unlabeled-truth.tsv"])
    checks.check_splits(data_dir, SMALL)
    checks.verify_manifest(out_dir, ["model.qam", "report.jsonl"])
    report = checks.read_report(out_dir / "report.jsonl")
    checks.check_report(report, 25, 10, supervised=False)
    blob = (out_dir / "model.qam").read_bytes()
    checks.check_eval(blob, data_dir / "test.jsonl",
                      eval_record(out_dir / "model.qam", data_dir / "test.jsonl"), 3)
    session, records = library_session(data_dir, small_config())
    assert checks.encode_model(session.model.weights, session.model.biases) == blob
    assert records == report


def test_flipped_model_byte_fails_the_checks(dirs, tmp_path):
    data_dir, out_dir = dirs
    run = tmp_path / "run"
    shutil.copytree(out_dir, run)
    blob = bytearray((run / "model.qam").read_bytes())
    record = eval_record(run / "model.qam", data_dir / "test.jsonl")
    blob[-1] ^= 0x01  # last byte of the output bias
    (run / "model.qam").write_bytes(bytes(blob))
    with pytest.raises(checks.CheckFailed, match="sha256"):
        checks.verify_manifest(run, ["model.qam", "report.jsonl"])
    blob[0] ^= 0x01  # the magic
    with pytest.raises(checks.CheckFailed, match="magic"):
        checks.check_eval(bytes(blob), data_dir / "test.jsonl", record, 3)


def test_changed_prediction_fails_the_eval_check(dirs):
    data_dir, out_dir = dirs
    blob = (out_dir / "model.qam").read_bytes()
    record = eval_record(out_dir / "model.qam", data_dir / "test.jsonl")
    record["confusion_matrix"][0][0] -= 1
    record["confusion_matrix"][0][1] += 1
    with pytest.raises(checks.CheckFailed, match="confusion"):
        checks.check_eval(blob, data_dir / "test.jsonl", record, 3)


def test_corrupted_manifest_digest_fails_the_check(dirs, tmp_path):
    _, out_dir = dirs
    run = tmp_path / "run"
    shutil.copytree(out_dir, run)
    manifest = json.loads((run / "manifest.json").read_text())
    digest = manifest["outputs"]["report.jsonl"]
    manifest["outputs"]["report.jsonl"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    (run / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed, match="report.jsonl: sha256"):
        checks.verify_manifest(run, ["model.qam", "report.jsonl"])


@pytest.mark.parametrize("mutate, supervised", [
    (lambda rs: rs.pop(), False),
    (lambda rs: rs.reverse(), False),
    (lambda rs: rs[0].update(loss_rebalanced=-1.0), False),
    (lambda rs: rs[1].update(loss_mix=float("nan")), False),
    (lambda rs: rs[0].update(pseudo_label_accuracy=1.5), False),
    (lambda rs: rs[0].update(kl_prior_pseudo=None), False),
    (lambda rs: rs[0].update(loss_anchor=1e-9), True),
    (lambda rs: rs[0].update(pseudo_label_accuracy=0.5), True),
])
def test_report_checks_catch_broken_properties(mutate, supervised):
    base = {"loss_rebalanced": 1.0, "loss_mix": 0.0, "loss_anchor": 0.0,
            "pseudo_label_accuracy": None, "val_accuracy": 0.5,
            "val_weighted_f1": 0.5, "kl_prior_pseudo": None}
    if not supervised:
        base.update(loss_mix=0.5, loss_anchor=0.2, pseudo_label_accuracy=0.7, kl_prior_pseudo=0.1)
    records = [dict(base, iteration=i) for i in (10, 20, 25)]
    checks.check_report(records, 25, 10, supervised)
    mutate(records)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(records, 25, 10, supervised)


def test_scores_agree_with_the_program_metrics():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 4, size=200)
    pred = np.where(rng.random(200) < 0.6, y, rng.integers(0, 4, size=200))
    pred[pred == 3] = 2  # a class that is never predicted
    acc, f1, cm = checks.scores(y, pred, 4)
    program_cm = metrics.confusion_matrix(y, pred, 4)
    assert cm == program_cm.tolist()
    assert acc == pytest.approx(metrics.accuracy(program_cm), abs=1e-12)
    assert f1 == pytest.approx(metrics.weighted_f1(program_cm), abs=1e-12)


def test_self_times_add_up_to_the_root_spans():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("leaf", leaf, None)
    root = tracer.wrap("root", lambda: [traced_leaf() for _ in range(3)], None)
    root()
    root()
    roots = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    totals = tracing.LayerTotals()
    tracer.fold(totals)
    assert totals.calls_of("leaf", "root") == 6
    assert totals.calls_of("root") == 2
    assert round(totals.total_self_seconds() * 1e9) == roots
    assert totals.self_seconds("root") == pytest.approx(
        totals.seconds("root") - totals.seconds("leaf"), abs=1e-12)


def test_tracing_leaves_the_model_unchanged_and_counts_the_work(dirs):
    data_dir, _ = dirs
    plain, _ = library_session(data_dir, small_config())
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, _ = library_session(data_dir, small_config())
    assert checks.encode_model(traced.model.weights, traced.model.biases) == \
        checks.encode_model(plain.model.weights, plain.model.biases)
    totals = tracing.LayerTotals()
    tracer.fold(totals)
    assert totals.calls_of("trainer.step") == 25
    assert totals.calls_of("numerics.weighted_ce_gradient") == 25 * 5
    assert totals.work_of("numerics.weighted_ce_gradient") == 25 * (6 + 4 * 12)
    assert totals.work_of("softmix.mix_views") == 25 * 12
    assert totals.calls_of("metrics.evaluate_model", "trainer.run") == 3
    assert totals.work_of("data.load_dataset") == 20 + 48 + 11
    # the originals are back
    assert trainer.mix_views.__module__ == "qamatch.softmix"
    assert trainer.QAMatchTrainer.step.__qualname__ == "QAMatchTrainer.step"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no qamatch sources" in proc.stderr
