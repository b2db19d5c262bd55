"""Command-line interface tests: exit codes, precedence, manifests, reports."""

import inspect
import json
import math
import os
import re
import shutil
import statistics
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qamatch
from qamatch import data as data_mod
from qamatch import errors
from qamatch.cli import (
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_USAGE,
    GENERATE_PRESETS,
    GENERATE_SCHEMA,
    TRAIN_SCHEMA,
    build_parser,
    main,
    resolve_train_config,
)
from qamatch.data import labeled_matrix, load_dataset, sha256_file
from qamatch.errors import DataFormatError
from qamatch.metrics import evaluate_model
from qamatch.numerics import MlpClassifier, load_model, save_model
from qamatch.trainer import REPORT_KEYS, TrainConfig, write_report


def format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def write_cfg(path, **entries):
    lines = [f"{key} = {format_value(value)}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


GEN_KW = dict(
    num_classes=3,
    dim=6,
    separation=2.5,
    noise_sigma=0.8,
    aug_sigma=0.3,
    seed=5,
    labeled_counts=[12, 5, 2],
    unlabeled_counts=[30, 12, 6],
    valid_counts=[6, 3, 2],
    test_counts=[10, 5, 3],
)

TRAIN_KW = dict(
    iterations=30,
    eval_interval=10,
    labeled_batch=6,
    unlabeled_batch=12,
    window=8,
    hidden_dims=[8],
    seed=3,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    cfg = write_cfg(root / "gen.cfg", **GEN_KW)
    out = root / "dataset"
    assert main(["generate", "--out", str(out), "--config", cfg]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("cli-run")
    cfg = write_cfg(root / "train.cfg", **TRAIN_KW)
    out = root / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", cfg]) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# happy paths and output layout


def test_generate_writes_expected_files(data_dir):
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "unlabeled-truth.tsv", "manifest.json"):
        assert (data_dir / name).exists()
    # each dataset file has a column file beside it, which no manifest lists
    outputs = json.loads((data_dir / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == ["test.jsonl", "train.jsonl", "unlabeled-truth.tsv", "valid.jsonl"]
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
        assert (data_dir / f"{name}.cols").exists()


def test_train_writes_expected_files(run_dir):
    for name in ("model.qam", "report.jsonl", "manifest.json"):
        assert (run_dir / name).exists()


def test_eval_matches_evaluate_model(data_dir, run_dir, capsys):
    rc = main([
        "eval", "--model", str(run_dir / "model.qam"),
        "--data", str(data_dir / "train.jsonl"),
    ])
    assert rc == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    header, labeled, _ = load_dataset(data_dir / "train.jsonl")
    X, y = labeled_matrix(labeled)
    direct = evaluate_model(load_model(run_dir / "model.qam"), X, y, header.num_classes)
    assert printed == json.loads(json.dumps(direct))
    assert 0.0 <= printed["accuracy"] <= 1.0
    assert 0.0 <= printed["weighted_f1"] <= 1.0


def test_eval_runs_the_forward_pass_once(data_dir, run_dir, monkeypatch, capsys):
    # the finiteness check and the evaluation share one pass over the data
    calls = []
    real = MlpClassifier.forward_batch
    monkeypatch.setattr(MlpClassifier, "forward_batch", lambda self, X: calls.append(X.shape) or real(self, X))
    data = data_dir / "test.jsonl"
    assert main(["eval", "--model", str(run_dir / "model.qam"), "--data", str(data)]) == EXIT_OK
    header, labeled, _ = load_dataset(data)
    assert calls == [labeled_matrix(labeled)[0].shape]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes


def test_refuses_overwrite_without_force(data_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "gen.cfg", **GEN_KW)
    assert main(["generate", "--out", str(data_dir), "--config", cfg]) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err
    fresh = tmp_path / "fresh"
    assert main(["generate", "--out", str(fresh), "--config", cfg]) == EXIT_OK
    assert main(["generate", "--out", str(fresh), "--config", cfg, "--force"]) == EXIT_OK


def test_train_refuses_an_existing_run_before_loading_data(data_dir, run_dir, monkeypatch, capsys):
    loads = []
    real = data_mod.load_dataset
    monkeypatch.setattr(data_mod, "load_dataset", lambda *args: loads.append(args) or real(*args))
    assert main(["train", "--data", str(data_dir), "--out", str(run_dir)]) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err
    assert loads == []


def test_unknown_config_key_is_usage_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("iterations = 5\nlearning_rate = 0.1\n")
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err


def test_duplicate_config_key_is_usage_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("iterations = 5\niterations = 6\n")
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "duplicate" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(data_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("iterations = many\n")
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == EXIT_USAGE


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    rc = main(["generate", "--out", str(tmp_path / "o"), "--config",
               write_cfg(tmp_path / "g.cfg", preset="no-such-shape")])
    assert rc == EXIT_USAGE
    assert "preset" in capsys.readouterr().err


def test_dim_below_class_count_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", **{**GEN_KW, "dim": 2})
    assert main(["generate", "--out", str(tmp_path / "o"), "--config", cfg]) == EXIT_USAGE


def test_missing_data_is_data_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_DATA


def test_tampered_model_is_data_error(run_dir, data_dir, tmp_path, capsys):
    raw = bytearray((run_dir / "model.qam").read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "model.qam"
    bad.write_bytes(bytes(raw))
    rc = main(["eval", "--model", str(bad), "--data", str(data_dir / "train.jsonl")])
    assert rc == EXIT_DATA
    assert "error" in capsys.readouterr().err


def test_eval_width_mismatch_is_data_error(run_dir, tmp_path):
    kw = {**GEN_KW, "dim": 4, "unlabeled_counts": [0, 0, 0]}
    cfg = write_cfg(tmp_path / "g.cfg", **kw)
    out = tmp_path / "narrow"
    assert main(["generate", "--out", str(out), "--config", cfg]) == EXIT_OK
    rc = main(["eval", "--model", str(run_dir / "model.qam"), "--data", str(out / "train.jsonl")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("classes", [2, 4])
def test_eval_class_count_mismatch_is_data_error(data_dir, tmp_path, capsys, classes):
    # the test file has 3 classes and rows of width 2 * 6; the bias makes a
    # 4-output model predict its extra class on every row
    bias = np.zeros(classes)
    bias[-1] = 100.0
    model = tmp_path / "model.qam"
    save_model(MlpClassifier((12, classes), [np.zeros((12, classes))], [bias]), model)
    rc = main(["eval", "--model", str(model), "--data", str(data_dir / "test.jsonl")])
    assert rc == EXIT_DATA
    assert f"dataset has 3 classes, model outputs {classes}" in capsys.readouterr().err


def test_divergence_exit_code_and_snapshot(data_dir, tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, "lr": 1e12, "iterations": 60})
    out = tmp_path / "diverged"
    rc = main(["train", "--data", str(data_dir), "--out", str(out), "--config", cfg])
    assert rc == EXIT_DIVERGED
    snap = json.loads((out / "snapshot.json").read_text())
    assert snap["iteration"] >= 1 and "loss_total" in snap


# alpha = 0.001: both Gamma variates of a lambda draw underflow to 0.0;
# scale_mix = 1e308: the sum over a view's rows overflows a float, and with
# one row per batch the sum of the three views' finite losses does;
# lr = 1e12: the parameters overflow, and numpy warns on the way there
@pytest.mark.parametrize("override", [
    {"alpha": 0.001},
    {"scale_mix": 1e308},
    {"scale_mix": 1e308, "unlabeled_batch": 1},
    {"lr": 1e12, "iterations": 60},
])
def test_non_finite_loss_exits_diverged_without_traceback(data_dir, tmp_path, override):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, **override})
    out = tmp_path / "diverged"
    proc = subprocess.run(
        [sys.executable, "-m", "qamatch.cli", "train",
         "--data", str(data_dir), "--out", str(out), "--config", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_DIVERGED, proc.stderr
    assert (out / "snapshot.json").exists()
    # no traceback and no numpy warning: the error line is all there is
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_validation_class_names_mismatch_is_data_error(data_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    valid = data / "valid.jsonl"
    valid.write_text(valid.read_text().replace('"class2"', '"other"'))
    out = tmp_path / "o"
    rc = main(["train", "--data", str(data), "--out", str(out)])
    assert rc == EXIT_DATA
    assert "disagrees" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# hostile input: every row exits with a documented code and no traceback


def put(path, blob):
    path.write_bytes(blob)
    return str(path)


def train_with(**override):
    def setup(tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, **override})
        return ["train", "--data", str(data_dir), "--out", str(tmp_path / "o"), "--config", cfg]
    return setup


def generate_with(**override):
    def setup(tmp_path, data_dir):
        cfg = write_cfg(tmp_path / "g.cfg", **{**GEN_KW, **override})
        return ["generate", "--out", str(tmp_path / "o"), "--config", cfg]
    return setup


def train_on_edited(name, edit):
    """Train on a copy of the dataset whose file ``name`` is rewritten by ``edit``."""
    def setup(tmp_path, data_dir):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        blob = (data / name).read_bytes()
        edited = edit(blob)
        assert edited != blob
        put(data / name, edited)
        return ["train", "--data", str(data), "--out", str(tmp_path / "o"),
                "--config", write_cfg(tmp_path / "t.cfg", **TRAIN_KW)]
    return setup


def eval_model_file(blob):
    def setup(tmp_path, data_dir):
        model = put(tmp_path / "model.qam", blob)
        return ["eval", "--model", model, "--data", str(data_dir / "test.jsonl")]
    return setup


def eval_data_file(blob):
    def setup(tmp_path, data_dir):
        model = put(tmp_path / "model.qam", HUGE_MODEL)
        return ["eval", "--model", model, "--data", put(tmp_path / "data.jsonl", blob)]
    return setup


def train_with_config_at(config_path):
    """Train with ``--config`` set to ``config_path(tmp_path)``."""
    def setup(tmp_path, data_dir):
        return ["train", "--data", str(data_dir), "--out", str(tmp_path / "o"),
                "--config", config_path(tmp_path)]
    return setup


def report_of(*blobs):
    return lambda tmp_path, data_dir: [
        "report", *(put(tmp_path / f"r{i}.jsonl", blob) for i, blob in enumerate(blobs))
    ]


REPORT_RECORD = {**dict.fromkeys(REPORT_KEYS, 0.5), "iteration": 10}

# a 12 -> 3 model (GEN_KW's dim 6) whose finite parameters overflow every output
HUGE_MODEL = b"QAM1" + struct.pack("<3I", 2, 12, 3) + struct.pack("<39d", *[1e308] * 39)

HOSTILE_INPUTS = [
    pytest.param(train_with(alpha=math.inf), EXIT_USAGE, id="alpha-inf"),
    pytest.param(train_with(lr=math.inf), EXIT_USAGE, id="lr-inf"),
    pytest.param(train_with(temperature=math.inf), EXIT_USAGE, id="temperature-inf"),
    pytest.param(generate_with(separation=math.inf), EXIT_USAGE, id="separation-inf"),
    pytest.param(generate_with(noise_sigma=math.inf), EXIT_USAGE, id="noise_sigma-inf"),
    pytest.param(generate_with(aug_sigma=math.nan), EXIT_USAGE, id="aug_sigma-nan"),
    # "unlabeled" is the loader's sentinel: the train file would not load back
    pytest.param(generate_with(class_names=["unlabeled", "b", "c"]), EXIT_USAGE,
                 id="class_names-sentinel"),
    pytest.param(generate_with(class_names=["a", "a", "b"]), EXIT_USAGE,
                 id="class_names-duplicate"),
    # the truth sidecar is tab-separated: train would refuse the generated data
    pytest.param(generate_with(class_names=["a\tb", "c", "d"]), EXIT_USAGE,
                 id="class_names-tab"),
    pytest.param(train_with_config_at(lambda tmp: put(tmp / "t.cfg", b"seed = \xff\n")), EXIT_USAGE,
                 id="config-not-utf8"),
    pytest.param(train_with_config_at(lambda tmp: put(tmp / "t.cfg", b"# seed\n\nseed 3\n")), EXIT_USAGE,
                 id="config-line-without-equals"),
    pytest.param(train_with_config_at(lambda tmp: str(tmp)), EXIT_USAGE, id="config-is-a-directory"),
    pytest.param(train_with(use_softmix="maybe"), EXIT_USAGE, id="bool-maybe"),
    # each TrainConfig check, at the first value it rejects
    *(pytest.param(train_with(**{key: value}), EXIT_USAGE, id=f"{key}-{value}") for key, value in [
        ("temperature", 0), ("alpha", 0), ("beta", 1), ("window", 0), ("lr", 0), ("momentum", 1),
        ("labeled_batch", 0), ("iterations", 0), ("eval_interval", 0), ("hidden_dims", [0]),
        ("scale_mix", -1),
    ]),
    pytest.param(generate_with(class_names=["a", "b"]), EXIT_USAGE, id="class_names-two-of-three"),
    # GEN_KW gives all four count lists, so no long-tail profile is drawn first
    pytest.param(generate_with(num_classes=1), EXIT_USAGE, id="num_classes-1"),
    # finite scales whose draws overflow: nothing is written
    pytest.param(generate_with(noise_sigma=1e308), EXIT_USAGE, id="noise_sigma-1e308"),
    pytest.param(generate_with(separation=1e308, aug_sigma=1e308), EXIT_USAGE,
                 id="separation-and-aug_sigma-1e308"),
    # a dim past what a dataset header may hold, and one whose draw numpy
    # cannot address: nothing is drawn or written
    pytest.param(generate_with(dim=10**20), EXIT_USAGE, id="generate-dim-1e20"),
    pytest.param(generate_with(dim=2**58), EXIT_USAGE, id="generate-dim-2**58"),
    # one record per class would fit at this dim, but not the labeled split
    pytest.param(generate_with(dim=2**55), EXIT_USAGE, id="generate-dim-2**55"),
    # numpy seeds only from non-negative integers
    pytest.param(train_with(seed=-1), EXIT_USAGE, id="train-seed--1"),
    pytest.param(generate_with(seed=-1), EXIT_USAGE, id="generate-seed--1"),
    # sizes past what numpy can address, and long-tail inputs past the float
    # range, each caught before anything is drawn or written
    pytest.param(train_with(labeled_batch=10**20), EXIT_USAGE, id="labeled_batch-1e20"),
    pytest.param(train_with(hidden_dims=[8, 10**20]), EXIT_USAGE, id="hidden_dims-1e20"),
    pytest.param(generate_with(labeled_counts=[], n_max_labeled=10**4000), EXIT_USAGE,
                 id="n_max_labeled-1e4000"),
    pytest.param(generate_with(labeled_counts=[], gamma_labeled=math.inf), EXIT_USAGE, id="gamma_labeled-inf"),
    pytest.param(generate_with(labeled_counts=[], num_classes=10**20), EXIT_USAGE, id="num_classes-1e20"),
    # the class count is checked against dim before a long-tail profile of
    # one count per class is filled
    pytest.param(generate_with(labeled_counts=[], num_classes=10**9), EXIT_USAGE, id="num_classes-1e9"),
    pytest.param(generate_with(labeled_counts=[], num_classes=10**9, dim=10**9), EXIT_USAGE,
                 id="num_classes-and-dim-1e9"),
    # per-step loss_mix stays near 1.4e307, so the 20-step interval sum overflows
    pytest.param(
        train_with(scale_mix=5e306, unlabeled_batch=2, lr=1e-315,
                   iterations=20, eval_interval=20),
        EXIT_OK, id="interval-mean-overflow",
    ),
    pytest.param(
        lambda tmp_path, data_dir: ["generate", "--out", put(tmp_path / "taken", b""),
                                    "--config", write_cfg(tmp_path / "g.cfg", **GEN_KW)],
        EXIT_DATA, id="out-is-a-file",
    ),
    pytest.param(lambda tmp_path, data_dir: ["report", str(tmp_path)], EXIT_DATA,
                 id="report-is-a-directory"),
    pytest.param(train_on_edited("train.jsonl", lambda b: b + b"\xff\n"), EXIT_DATA,
                 id="train-not-utf8"),
    pytest.param(train_on_edited("unlabeled-truth.tsv", lambda b: b + b"\xff\tclass0\n"),
                 EXIT_DATA, id="truth-not-utf8"),
    pytest.param(report_of(json.dumps(REPORT_RECORD).encode() + b"\n\xff\n"), EXIT_DATA,
                 id="report-not-utf8"),
    pytest.param(train_on_edited("train.jsonl", lambda b: b.replace(b'"dim":6', b'"dim":"x"')),
                 EXIT_DATA, id="header-dim-string"),
    pytest.param(train_on_edited("train.jsonl", lambda b: b.replace(b'"dim":6', b'"dim":1e400')),
                 EXIT_DATA, id="header-dim-1e400"),
    pytest.param(
        train_on_edited("train.jsonl",
                        lambda b: re.sub(rb'"class_names":\[[^]]*\]', b'"class_names":5', b, 1)),
        EXIT_DATA, id="header-class_names-int",
    ),
    pytest.param(
        train_on_edited("train.jsonl",
                        lambda b: re.sub(rb'"q":\[[^,]*', b'"q":[1' + b"0" * 400, b, 1)),
        EXIT_DATA, id="vector-entry-huge-int",
    ),
    pytest.param(report_of(json.dumps({**REPORT_RECORD, "val_accuracy": "x"}).encode()),
                 EXIT_DATA, id="report-metric-string"),
    pytest.param(eval_model_file(b"QAM1"), EXIT_DATA, id="model-magic-only"),
    pytest.param(eval_model_file(b"QAM1" + struct.pack("<I", 65)), EXIT_DATA, id="model-65-layers"),
    pytest.param(eval_model_file(b"QAM1" + struct.pack("<3I", 3, 12, 8)), EXIT_DATA,
                 id="model-header-cut-in-dims"),
    pytest.param(eval_data_file(b""), EXIT_DATA, id="eval-empty-dataset"),
    pytest.param(
        eval_data_file(json.dumps({"dim": 6, "class_names": ["a", "b", "c"], "labeled_counts": [1, 0, 0]}).encode()
                       + b'\n{"id":"x","label":"a","q":' + b"[" * 1500 + b"]" * 1500 + b',"c":[]}\n'),
        EXIT_DATA, id="eval-deeply-nested-record",
    ),
    pytest.param(report_of(b'{"iteration":' + b"[" * 1500 + b"]" * 1500 + b"}\n"), EXIT_DATA,
                 id="report-deeply-nested-record"),
    # blank lines are skipped
    pytest.param(train_on_edited("unlabeled-truth.tsv", lambda b: b + b"\n"), EXIT_OK, id="truth-blank-line"),
    pytest.param(report_of(b"\n" + json.dumps(REPORT_RECORD).encode() + b"\n\n"), EXIT_OK,
                 id="report-blank-lines"),
    pytest.param(eval_model_file(b"QAM1" + struct.pack("<4I", 3, 12, 0, 3) + bytes(8 * 3)),
                 EXIT_DATA, id="model-zero-layer-dim"),
    pytest.param(report_of(json.dumps(REPORT_RECORD).replace("0.5", "1" + "0" * 400, 1).encode()),
                 EXIT_DATA, id="report-metric-huge-int"),
    # past the interpreter's 4300-digit limit json.loads raises a plain ValueError
    pytest.param(report_of(json.dumps(REPORT_RECORD).replace("0.5", "1" + "0" * 5000, 1).encode()),
                 EXIT_DATA, id="report-metric-5001-digit-int"),
    pytest.param(
        train_on_edited("train.jsonl",
                        lambda b: re.sub(rb'"q":\[[^,]*', b'"q":[1' + b"0" * 5000, b, 1)),
        EXIT_DATA, id="vector-entry-5001-digit-int",
    ),
    pytest.param(
        train_on_edited("train.jsonl", lambda b: re.sub(rb'"q":\[[^,]*', b'"q":["1e3"', b, 1)),
        EXIT_DATA, id="vector-entry-string",
    ),
    pytest.param(eval_model_file(HUGE_MODEL), EXIT_DATA, id="model-huge-parameters"),
    pytest.param(
        eval_model_file(b"QAM1" + struct.pack("<3I", 2, 12, 3) + struct.pack("<39d", *[math.nan] * 39)),
        EXIT_DATA, id="model-nan-parameters",
    ),
    pytest.param(
        train_on_edited(
            "train.jsonl",
            lambda b: b"\n".join(
                re.sub(rb'"labeled_counts":\[[^]]*\]', b'"labeled_counts":[0,0,0]', line)
                for line in b.split(b"\n") if not line.startswith(b'{"id":"lab-')
            ),
        ),
        EXIT_DATA, id="train-without-labeled-records",
    ),
    # a header-only file holds no vector, so nothing but the header bounds dim
    *(pytest.param(
        train_on_edited("train.jsonl", lambda b, dim=dim: json.dumps(
            {**json.loads(b.split(b"\n")[0]), "dim": dim, "labeled_counts": [0, 0, 0]}
        ).encode() + b"\n"),
        EXIT_DATA, id=f"header-only-dim-{name}",
    ) for name, dim in [("1e20", 10**20), ("2**62", 2**62)]),
    pytest.param(
        train_on_edited("valid.jsonl", lambda b: b + json.dumps(
            {"id": "extra", "label": "unlabeled", **dict.fromkeys(["q", "c", "q_aug", "c_aug"], [0.0] * 6)}
        ).encode() + b"\n"),
        EXIT_DATA, id="valid-holds-an-unlabeled-record",
    ),
    pytest.param(
        eval_data_file(json.dumps({"dim": 6, "class_names": ["a", "b", "c"], "labeled_counts": [0, 0, 0]}).encode()
                       + b"\n"),
        EXIT_DATA, id="eval-without-labeled-records",
    ),
    # the mean is 0.0, but the sample std is past the float range
    pytest.param(
        report_of(*(json.dumps({**REPORT_RECORD, "loss_mix": v}).encode() for v in (1.5e308, -1.5e308))),
        EXIT_DATA, id="report-std-overflow",
    ),
]


@pytest.mark.parametrize("setup,expected", HOSTILE_INPUTS)
def test_hostile_input_exit_code_without_traceback(setup, expected, data_dir, tmp_path, capsys):
    argv = setup(tmp_path, data_dir)
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err
    out = tmp_path / "o"
    if expected in (EXIT_USAGE, EXIT_DATA):
        # a usage, config or data error is caught before anything is written
        assert not out.exists() or not any(out.iterdir())


# what a hostile config holds: each key's checks at and past their limits,
# numbers past the int digit limit, the float range and every size numpy
# can address, empty lists, bad booleans and class names the loader or the
# truth file cannot hold
CONFIG_VALUES = [
    "0", "-1", "1", "2", "3", "0.5", "-0.0", "1e-320", "1e308", "-1e308", "1e400", "inf", "-inf", "nan",
    "1" + "0" * 20, str(2**63), "1" + "0" * 4000, "1" + "0" * 5000, "", " ", ",", "1,,2", "2,0", "0x10",
    "1_0", "٣", "true", "FALSE", "maybe", "x, y, z", "x, x, y", "unlabeled, y, z", "x\ty, y, z",
]
# what a hostile edit does to the bytes of a config file
CONFIG_ENCODINGS = [
    lambda text: text.encode("utf-8"),
    lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),  # a byte order mark
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-8").replace(b"\n", b"\r\n"),
    lambda text: text.encode("utf-8") + b"seed = \xff\n",
    lambda text: text.encode("utf-8") + b"seed\x00 = 1\n",
]
# a valid run of each command, kept short; an entry for a key already
# here repeats it
TRAIN_BASE = {**TRAIN_KW, "iterations": 2, "eval_interval": 1}
HOSTILE_CONFIGS = {
    "train": (TRAIN_SCHEMA, TRAIN_BASE),
    "generate": (GENERATE_SCHEMA, {"seed": 1}),
}


@pytest.mark.parametrize("command", sorted(HOSTILE_CONFIGS))
def test_hostile_config_exits_with_a_documented_code(command, data_dir, tmp_path, capsys):
    schema, base = HOSTILE_CONFIGS[command]
    keys = st.sampled_from(sorted(schema) + ["bogus", "Seed", "é"])
    # (key, value, whether the entry is a line of its own or takes the
    # place of the base's line for its key)
    entries = st.lists(st.tuples(keys, st.sampled_from(CONFIG_VALUES), st.booleans()), min_size=1, max_size=4)
    codes = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(entries, st.one_of(st.just(CONFIG_ENCODINGS[0]), st.sampled_from(CONFIG_ENCODINGS[1:])))
    def run(entries, encode):
        config = {key: format_value(value) for key, value in base.items()}
        extra = []
        for key, value, own_line in entries:
            if own_line or key not in config:
                extra.append((key, value))
            else:
                config[key] = value
        # a valid iteration count runs that many steps: the suite keeps runs short
        iterations = config.get("iterations", "").strip()
        assume(not iterations.isdecimal() or int(iterations) <= 10)
        lines = [f"{key} = {value}" for key, value in [*config.items(), *extra]]
        cfg = put(tmp_path / "c.cfg", encode("\n".join(lines) + "\n"))
        out = tmp_path / "o"
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--out", str(out), "--config", cfg]
        if command == "train":
            argv += ["--data", str(data_dir)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DIVERGED), err
        assert "Traceback" not in err
        if code in (EXIT_USAGE, EXIT_DATA):
            assert not out.exists() or not any(out.iterdir())
        codes.add(code)

    run()
    assert {EXIT_OK, EXIT_USAGE} <= codes


def test_out_of_memory_is_a_usage_error(tmp_path, monkeypatch, capsys):
    def draw(cfg, out_dir):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr("qamatch.data.synth_generate", draw)
    out = tmp_path / "o"
    assert main(["generate", "--out", str(out), "--config", write_cfg(tmp_path / "g.cfg", **GEN_KW)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 7.11 PiB for an array\n"
    assert not any(out.iterdir())


def test_eval_rejects_non_finite_outputs_without_warnings(data_dir, tmp_path, capsys):
    model = put(tmp_path / "huge.qam", HUGE_MODEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eval", "--model", model, "--data", str(data_dir / "test.jsonl")])
    assert rc == EXIT_DATA
    captured = capsys.readouterr()
    assert model in captured.err and captured.out == ""


# what an edit does to a model file: XOR a byte with a mask, cut the file
# at a length, append bytes, or rewrite the layer count or one layer dim
MODEL_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 16)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("count"), st.sampled_from([0, 1, 2, 3, 4, 64, 65, 1000, 2**32 - 1])),
    st.tuples(st.just("dim"), st.integers(0, 3),
              st.sampled_from([0, 1, 2, 3, 8, 12, 13, 2**16, 2**31, 2**32 - 1])),
)


def edit_model(blob: bytes, edits) -> bytes:
    blob = bytearray(blob)
    for kind, *args in edits:
        if kind == "flip" and blob:
            blob[args[0] % len(blob)] ^= args[1]
        elif kind == "cut":
            del blob[args[0] % (len(blob) + 1):]
        elif kind == "append":
            blob += args[0]
        elif kind == "count" and len(blob) >= 8:
            blob[4:8] = struct.pack("<I", args[0])
        elif kind == "dim" and len(blob) >= 12 + 4 * args[0]:
            blob[8 + 4 * args[0]:12 + 4 * args[0]] = struct.pack("<I", args[1])
    return bytes(blob)


def test_mutated_model_loads_as_declared_or_is_a_data_error(run_dir, data_dir, tmp_path, capsys):
    base = (run_dir / "model.qam").read_bytes()
    path = tmp_path / "mutated.qam"
    exits, past_64 = set(), []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(MODEL_EDITS, min_size=1, max_size=3))
    def load_and_eval(edits):
        blob = edit_model(base, edits)
        path.write_bytes(blob)
        past_64.append(len(blob) >= 8 and struct.unpack_from("<I", blob, 4)[0] > 64)
        try:
            model = load_model(path)
        except DataFormatError:
            model = None
        else:
            # the dims the file declares, and parameters of exactly those shapes
            (count,) = struct.unpack_from("<I", blob, 4)
            dims = struct.unpack_from(f"<{count}I", blob, 8)
            assert model.layer_dims == dims
            for (fan_in, fan_out), w, b in zip(zip(dims, dims[1:]), model.weights, model.biases, strict=True):
                assert w.shape == (fan_in, fan_out) and b.shape == (fan_out,)
                assert np.isfinite(w).all() and np.isfinite(b).all()
        code = main(["eval", "--model", str(path), "--data", str(data_dir / "test.jsonl")])
        assert code in (EXIT_OK, EXIT_DATA) and (model is not None or code == EXIT_DATA)
        assert "Traceback" not in capsys.readouterr().err
        exits.add(code)

    load_and_eval()
    assert exits == {EXIT_OK, EXIT_DATA} and any(past_64)


# ---------------------------------------------------------------------------
# config precedence: defaults < preset < config file < flags


PRECEDENCE_VALUES = {
    "temperature": ("0.4", 0.4),
    "alpha": ("0.9", 0.9),
    "beta": ("0.5", 0.5),
    "window": ("16", 16),
    "lr": ("0.01", 0.01),
    "momentum": ("0.5", 0.5),
    "labeled_batch": ("5", 5),
    "unlabeled_batch": ("7", 7),
    "iterations": ("9", 9),
    "seed": ("123", 123),
    "hidden_dims": ("12,6", (12, 6)),
    "eval_interval": ("25", 25),
    "use_rebalance": ("false", False),
    "use_calibration": ("false", False),
    "use_softmix": ("false", False),
    "use_anchor": ("false", False),
    "rescale_weights": ("true", True),
    "scale_supervised": ("0.5", 0.5),
    "scale_mix": ("2.0", 2.0),
    "scale_anchor": ("3.0", 3.0),
}


@pytest.mark.parametrize("field", sorted(TRAIN_SCHEMA))
def test_config_file_overrides_default_per_field(field, tmp_path):
    raw, expected = PRECEDENCE_VALUES[field]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{field} = {raw}\n")
    args = build_parser().parse_args(
        ["train", "--data", "d", "--out", "o", "--config", str(cfg)]
    )
    resolved = resolve_train_config(args)
    assert getattr(resolved, field) == expected
    default = getattr(TrainConfig(), field)
    assert getattr(resolved, field) != default


def test_seed_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("seed = 123\n")
    args = build_parser().parse_args(
        ["train", "--data", "d", "--out", "o", "--config", str(cfg), "--seed", "9"]
    )
    assert resolve_train_config(args).seed == 9


# (file value, manifest config key, value written there); the n_max/gamma
# keys show up in the long-tail counts they derive, n_k = floor(n_max *
# gamma^(-k/2)) over the default three classes (n_max 43/1413/60/200, gamma 10)
GENERATE_VALUES = {
    "preset": ("agnews-shape", "preset", "agnews-shape"),
    "num_classes": ("4", "num_classes", 4),
    "dim": ("6", "dim", 6),
    "class_names": ("x, y, z", "class_names", ["x", "y", "z"]),
    "separation": ("1.5", "separation", 1.5),
    "noise_sigma": ("0.5", "noise_sigma", 0.5),
    "aug_sigma": ("0", "aug_sigma", 0.0),
    "seed": ("7", "seed", 7),
    "n_max_labeled": ("20", "labeled_counts", [20, 6, 2]),
    "gamma_labeled": ("4", "labeled_counts", [43, 21, 10]),
    "n_max_unlabeled": ("100", "unlabeled_counts", [100, 31, 10]),
    "gamma_unlabeled": ("4", "unlabeled_counts", [1413, 706, 353]),
    "n_max_valid": ("30", "valid_counts", [30, 9, 3]),
    "n_max_test": ("50", "test_counts", [50, 15, 5]),
    "labeled_counts": ("5,3,2", "labeled_counts", [5, 3, 2]),
    "unlabeled_counts": ("9,0,1", "unlabeled_counts", [9, 0, 1]),
    "valid_counts": ("3,2,1", "valid_counts", [3, 2, 1]),
    "test_counts": ("4,2,1", "test_counts", [4, 2, 1]),
}


@pytest.fixture(scope="module")
def default_generate_config(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-generate")
    assert main(["generate", "--out", str(out)]) == EXIT_OK
    return json.loads((out / "manifest.json").read_text())["config"]


@pytest.mark.parametrize("field", sorted(GENERATE_SCHEMA))
def test_generate_config_file_overrides_default_per_field(field, tmp_path, default_generate_config):
    raw, target, expected = GENERATE_VALUES[field]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{field} = {raw}\n")
    out = tmp_path / "o"
    assert main(["generate", "--out", str(out), "--config", str(cfg)]) == EXIT_OK
    resolved = json.loads((out / "manifest.json").read_text())["config"]
    assert resolved[target] == expected
    assert default_generate_config[target] != expected


def test_preset_layered_between_defaults_and_config(tmp_path):
    # the preset supplies class names; the file overrides its counts
    cfg = write_cfg(
        tmp_path / "g.cfg",
        preset="scholarchemqa-shape",
        dim=6,
        labeled_counts=[4, 2, 1],
        unlabeled_counts=[6, 3, 2],
        valid_counts=[2, 1, 1],
        test_counts=[4, 2, 1],
    )
    out = tmp_path / "preset-run"
    assert main(["generate", "--out", str(out), "--config", cfg]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["class_names"] == ["yes", "no", "maybe"]
    assert manifest["config"]["labeled_counts"] == [4, 2, 1]
    assert manifest["config"]["preset"] == "scholarchemqa-shape"


def test_preset_defaults_match_table(tmp_path):
    preset = GENERATE_PRESETS["scholarchemqa-shape"]
    assert preset["labeled_counts"] == [329, 106, 65]
    assert sum(preset["unlabeled_counts"]) == 2000
    args = build_parser().parse_args(["generate", "--out", "o", "--preset", "agnews-shape"])
    assert args.preset == "agnews-shape"


def test_generate_seed_flag_changes_data(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", **GEN_KW)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["generate", "--out", str(a), "--config", cfg, "--seed", "1"]) == EXIT_OK
    assert main(["generate", "--out", str(b), "--config", cfg, "--seed", "2"]) == EXIT_OK
    assert main(["generate", "--out", str(c), "--config", cfg, "--seed", "1"]) == EXIT_OK
    assert sha256_file(a / "train.jsonl") != sha256_file(b / "train.jsonl")
    assert sha256_file(a / "train.jsonl") == sha256_file(c / "train.jsonl")


# ---------------------------------------------------------------------------
# manifests replay runs bit-for-bit


def test_generate_manifest_replays_identically(data_dir, tmp_path):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    conf = dict(manifest["config"])
    conf.pop("preset")
    cfg = write_cfg(tmp_path / "replay.cfg", **conf)
    out = tmp_path / "replayed"
    assert main(["generate", "--out", str(out), "--config", cfg]) == EXIT_OK
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest, name


def test_train_manifest_replays_identically(data_dir, run_dir, tmp_path):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = write_cfg(tmp_path / "replay.cfg", **manifest["config"])
    out = tmp_path / "replayed"
    rc = main(["train", "--data", str(data_dir), "--out", str(out), "--config", cfg])
    assert rc == EXIT_OK
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest, name


def replay_train(manifest, out):
    """Replay a train run from its manifest alone: first compare the digests
    of the data files it read, and train only when none of them changed.
    Returns the names of the changed inputs."""
    data = os.path.dirname(manifest["data"]["train"])
    changed = []
    for name, digest in manifest["inputs"].items():
        path = os.path.join(data, name)
        if (sha256_file(path) if os.path.exists(path) else None) != digest:
            changed.append(name)
    if not changed:
        cfg = write_cfg(out.parent / "replay.cfg", **manifest["config"])
        assert main(["train", "--data", data, "--out", str(out), "--config", cfg]) == EXIT_OK
    return changed


def test_empty_hidden_dims_trains_and_replays_a_linear_model(data_dir, tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, "hidden_dims": []})
    assert "hidden_dims = \n" in (tmp_path / "t.cfg").read_text()
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out), "--config", cfg]) == EXIT_OK
    assert load_model(out / "model.qam").layer_dims == (2 * GEN_KW["dim"], GEN_KW["num_classes"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["hidden_dims"] == []
    assert replay_train(manifest, tmp_path / "replay") == []
    assert sha256_file(tmp_path / "replay" / "model.qam") == sha256_file(out / "model.qam")


def test_train_manifest_input_digests_replay_and_catch_changed_data(data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    cfg = write_cfg(tmp_path / "train.cfg", **TRAIN_KW)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--config", cfg]) == EXIT_OK
    manifest = json.loads((run / "manifest.json").read_text())
    assert list(manifest) == ["command", "config", "data", "inputs", "outputs"]
    generated = json.loads((data / "manifest.json").read_text())["outputs"]
    names = ["train.jsonl", "valid.jsonl", "unlabeled-truth.tsv"]
    assert manifest["inputs"] == {name: generated[name] for name in names}

    assert replay_train(manifest, tmp_path / "replayed") == []
    for name, digest in manifest["outputs"].items():
        assert sha256_file(tmp_path / "replayed" / name) == digest, name

    lines = (data / "train.jsonl").read_text().splitlines(keepends=True)
    (data / "train.jsonl").write_text("".join(lines[:-1]))
    assert replay_train(manifest, tmp_path / "stale") == ["train.jsonl"]
    assert not (tmp_path / "stale").exists()


def test_train_manifest_inputs_are_null_for_absent_files(data_dir, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(data_dir / "train.jsonl", data / "train.jsonl")
    cfg = write_cfg(tmp_path / "train.cfg", **TRAIN_KW)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--config", cfg]) == EXIT_OK
    inputs = json.loads((run / "manifest.json").read_text())["inputs"]
    assert inputs == {
        "train.jsonl": sha256_file(data_dir / "train.jsonl"),
        "valid.jsonl": None,
        "unlabeled-truth.tsv": None,
    }


# ---------------------------------------------------------------------------
# training-mode flags


def test_supervised_only_flag_disables_unlabeled_losses(data_dir, tmp_path):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, "iterations": 10})
    out = tmp_path / "sup"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--config", cfg, "--supervised-only"])
    assert rc == EXIT_OK
    conf = json.loads((out / "manifest.json").read_text())["config"]
    assert conf["use_softmix"] is False and conf["use_anchor"] is False
    assert conf["use_rebalance"] is True
    with open(out / "report.jsonl") as fh:
        rec = json.loads(fh.readline())
    assert rec["pseudo_label_accuracy"] is None


@pytest.mark.parametrize("name,toggle", [
    ("rebalance", "use_rebalance"),
    ("calibration", "use_calibration"),
    ("softmix", "use_softmix"),
    ("anchor", "use_anchor"),
])
def test_ablate_flag_disables_one_toggle(data_dir, tmp_path, name, toggle):
    cfg = write_cfg(tmp_path / "t.cfg", **{**TRAIN_KW, "iterations": 5})
    out = tmp_path / f"ablate-{name}"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--config", cfg, "--ablate", name])
    assert rc == EXIT_OK
    conf = json.loads((out / "manifest.json").read_text())["config"]
    toggles = {k: v for k, v in conf.items() if k.startswith("use_")}
    assert toggles.pop(toggle) is False
    assert all(toggles.values())


def test_ablate_rejects_unknown_component():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["train", "--data", "d", "--out", "o", "--ablate", "dropout"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# report aggregation


def make_report(path, val_accuracy):
    record = {
        "iteration": 100,
        "loss_rebalanced": 0.5,
        "loss_mix": 1.0,
        "loss_anchor": 0.25,
        "pseudo_label_accuracy": 0.9,
        "val_accuracy": val_accuracy,
        "val_weighted_f1": val_accuracy,
        "kl_prior_pseudo": 0.01,
    }
    assert tuple(record) == REPORT_KEYS
    write_report([record], path)
    return str(path)


def test_report_mean_and_std_hand_values(tmp_path, capsys):
    p1 = make_report(tmp_path / "r1.jsonl", 0.7)
    p2 = make_report(tmp_path / "r2.jsonl", 0.8)
    assert main(["report", p1, p2]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    acc = summary["metrics"]["val_accuracy"]
    assert acc["mean"] == pytest.approx(0.75, abs=1e-15)
    assert acc["std"] == pytest.approx(0.1 / math.sqrt(2), abs=1e-15)
    assert acc["count"] == 2 and summary["runs"] == 2


def test_report_single_run_has_zero_std(tmp_path, capsys):
    p1 = make_report(tmp_path / "r1.jsonl", 0.7)
    assert main(["report", p1]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["val_accuracy"] == {"mean": 0.7, "std": 0.0, "count": 1}


def test_report_identical_runs_have_zero_std(tmp_path, capsys):
    paths = [make_report(tmp_path / f"r{i}.jsonl", 0.66) for i in range(5)]
    assert main(["report", *paths]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    acc = summary["metrics"]["val_accuracy"]
    assert acc["mean"] == pytest.approx(0.66) and acc["std"] == 0.0


def test_report_counts_no_values_where_a_metric_is_null_in_every_file(tmp_path, capsys):
    paths = []
    for i in range(3):
        write_report([{**REPORT_RECORD, "pseudo_label_accuracy": None}], tmp_path / f"r{i}.jsonl")
        paths.append(str(tmp_path / f"r{i}.jsonl"))
    assert main(["report", *paths]) == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["pseudo_label_accuracy"] == {"mean": None, "std": None, "count": 0}
    assert metrics["loss_mix"] == {"mean": 0.5, "std": 0.0, "count": 3}


def test_report_stays_finite_when_the_sum_overflows(tmp_path, capsys):
    values = [4.452e307, 4.0e307, 4.452e307, 3.9e307, 4.452e307]
    paths = []
    for i, value in enumerate(values):
        write_report([{**REPORT_RECORD, "loss_mix": value}], tmp_path / f"r{i}.jsonl")
        paths.append(str(tmp_path / f"r{i}.jsonl"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", *paths]) == EXIT_OK

    def refuse(literal):
        raise AssertionError(f"{literal} in the report summary")

    mix = json.loads(capsys.readouterr().out, parse_constant=refuse)["metrics"]["loss_mix"]
    assert mix["mean"] == pytest.approx(statistics.mean(values), rel=1e-12)
    assert mix["std"] == pytest.approx(statistics.stdev(values), rel=1e-12)


def test_report_rejects_a_std_past_the_float_range(tmp_path, capsys):
    paths = []
    for i, value in enumerate((1.5e308, -1.5e308)):
        write_report([{**REPORT_RECORD, "loss_mix": value}], tmp_path / f"r{i}.jsonl")
        paths.append(str(tmp_path / f"r{i}.jsonl"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["report", *paths]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == "" and "loss_mix" in captured.err


def test_report_rejects_mismatched_schema(tmp_path, capsys):
    p1 = make_report(tmp_path / "r1.jsonl", 0.7)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"iteration": 1, "something_else": 2}\n')
    assert main(["report", p1, str(bad)]) == EXIT_DATA
    assert "schema" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point and logging env var


def test_console_script_logs_at_info_level(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", **GEN_KW)
    env = dict(os.environ, QAMATCH_LOG="info")
    proc = subprocess.run(
        [sys.executable, "-m", "qamatch.cli", "generate",
         "--out", str(tmp_path / "o"), "--config", cfg],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_OK
    assert "generated" in proc.stderr


# ---------------------------------------------------------------------------
# docs


def readme_section(title):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_config_tables():
    """The keys named in the first column of each table under Configuration."""
    tables = []
    for block in re.split(r"\n(?!\|)", readme_section("Configuration")):
        rows = [line.split("|")[1] for line in block.splitlines() if line.startswith("| `")]
        if rows:
            tables.append({key for cell in rows for key in re.findall(r"`(\w+)`", cell)})
    return tables


def test_readme_configuration_table_names_every_training_key():
    assert readme_config_tables()[0] == set(TRAIN_SCHEMA)


def test_readme_configuration_table_names_every_generate_key():
    tables = readme_config_tables()
    assert len(tables) == 2
    assert tables[1] == set(GENERATE_SCHEMA)


def test_package_root_exports_the_documented_library_names():
    block = re.search(r"^from qamatch import \(.*?\)$", readme_section("Library"), re.M | re.S)
    documented = {}
    exec(block.group(0), documented)
    documented.pop("__builtins__")
    error_classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    exported = {
        name for name, obj in vars(qamatch).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == set(documented) | error_classes
