"""Command-line entry point: generate | train | eval | report.

Config files are flat "key = value" text with '#' comments. Every key has
a documented default, unknown keys are errors (they are how ablation-grid
typos die loudly), and command-line flags override config values. Each
generate/train run writes a manifest.json holding the fully resolved
configuration plus sha256 checksums of the artifacts (and, for train, of
the data files it read), which is enough to replay the run bit-for-bit and
to tell when the data changed since.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 training
divergence. The QAMATCH_LOG environment variable (debug/info/warning)
controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import data as data_mod
from . import trainer as trainer_mod
from .errors import DataFormatError, DivergenceError, ParameterError, QAMatchError, ShapeError
from .metrics import evaluate_model
from .numerics import load_model, save_model
from .trainer import REPORT_KEYS, TrainConfig

logger = logging.getLogger("qamatch.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


# ---------------------------------------------------------------- config --

def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_str_list(raw: str) -> list:
    if not raw.strip():
        return []
    return [part.strip() for part in raw.split(",")]


def _parse_int_list(raw: str) -> list:
    return [int(part) for part in _parse_str_list(raw)]


def read_config_file(path) -> dict:
    """Flat key = value lines; comments with '#'; duplicate keys rejected."""
    entries = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ParameterError(f"cannot read config file {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ParameterError(f"cannot read config file {path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ParameterError(f"{path}: line {lineno}: expected 'key = value'")
        if key in entries:
            raise ParameterError(f"{path}: line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def resolve_config(args, schema: dict, defaults: dict, presets=None) -> dict:
    """Layer defaults < preset (generate only) < config file < --seed,
    coercing file values per the schema."""
    entries = read_config_file(args.config) if args.config else {}
    resolved = dict(defaults)
    if presets is not None:
        preset = args.preset or entries.get("preset", "")
        if preset and preset not in presets:
            raise ParameterError(f"unknown preset {preset!r}; choose from {sorted(presets)}")
        resolved.update(presets.get(preset, {}))
    where = args.config or "defaults"
    for key, raw in entries.items():
        if key not in schema:
            raise ParameterError(f"{where}: unknown config key {key!r}")
        try:
            resolved[key] = schema[key](raw)
        except ValueError as e:
            raise ParameterError(f"{where}: bad value for {key!r}: {e}") from None
    if presets is not None:
        resolved["preset"] = preset
    if args.seed is not None:
        resolved["seed"] = args.seed
    return resolved


# A key's parser follows the type of its default; class_names is the one
# list of strings.
_PARSERS = {
    bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_int_list, list: _parse_int_list,
}


def _schema(defaults: dict) -> dict:
    return {key: _PARSERS[type(value)] for key, value in defaults.items()}


# Every TrainConfig field is a training key.
TRAIN_DEFAULTS = dataclasses.asdict(TrainConfig())
TRAIN_SCHEMA = _schema(TRAIN_DEFAULTS)

# Defaults describe the gamma=10 three-class task the analysis experiments
# run on: 60 labeled / 2000 unlabeled, Gaussian blobs in R^48.
GENERATE_DEFAULTS = {
    "preset": "",
    "num_classes": 3,
    "dim": 48,
    "class_names": [],
    "separation": 2.8,
    "noise_sigma": 1.0,
    "aug_sigma": 0.35,
    "seed": 0,
    "n_max_labeled": 43,
    "gamma_labeled": 10.0,
    "n_max_unlabeled": 1413,
    "gamma_unlabeled": 10.0,
    "n_max_valid": 60,
    "n_max_test": 200,
    "labeled_counts": [],
    "unlabeled_counts": [],
    "valid_counts": [],
    "test_counts": [],
}

GENERATE_SCHEMA = {**_schema(GENERATE_DEFAULTS), "class_names": _parse_str_list}

# Table-proportion preset (65.8 / 21.2 / 13.0 over yes/no/maybe) with the
# 500 train / 50 validation / 500 test split shape, and a four-class
# long-tail preset (labeled ratio 5, unlabeled ratio 150).
GENERATE_PRESETS = {
    "scholarchemqa-shape": {
        "num_classes": 3,
        "class_names": ["yes", "no", "maybe"],
        "labeled_counts": [329, 106, 65],
        "unlabeled_counts": [1316, 424, 260],
        "valid_counts": [33, 11, 6],
        "test_counts": [329, 106, 65],
    },
    "agnews-shape": {
        "num_classes": 4,
        "dim": 8,
        "class_names": ["world", "sports", "business", "scitech"],
        "n_max_labeled": 40,
        "gamma_labeled": 5.0,
        "n_max_unlabeled": 1500,
        "gamma_unlabeled": 150.0,
        "n_max_valid": 60,
        "n_max_test": 200,
    },
}


# ----------------------------------------------------------------- utils --

def _refuse_overwrite(out, filenames, force: bool):
    if force:
        return
    clashes = [n for n in filenames if os.path.exists(os.path.join(out, n))]
    if clashes:
        raise ParameterError(
            f"refusing to overwrite {', '.join(clashes)} in {out}; pass --force"
        )


def _write_json(path, payload: dict) -> None:
    with data_mod.atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# -------------------------------------------------------------- commands --

def cmd_generate(args) -> int:
    resolved = resolve_config(args, GENERATE_SCHEMA, GENERATE_DEFAULTS, GENERATE_PRESETS)
    # an empty count list takes the n_max/gamma long-tail profile, one count
    # per class, so the class count is checked first; valid and test use the
    # labeled gamma
    data_mod.check_class_axes(resolved["num_classes"], resolved["dim"])
    for split in ("labeled", "unlabeled", "valid", "test"):
        if not resolved[f"{split}_counts"]:
            gamma = resolved["gamma_unlabeled" if split == "unlabeled" else "gamma_labeled"]
            resolved[f"{split}_counts"] = data_mod.longtail_counts(
                resolved[f"n_max_{split}"], gamma, resolved["num_classes"]
            )
    cfg = data_mod.SynthConfig(
        **{f.name: resolved[f.name] for f in dataclasses.fields(data_mod.SynthConfig)}
    )
    filenames = ["train.jsonl", "valid.jsonl", "test.jsonl", "unlabeled-truth.tsv", "manifest.json"]
    _refuse_overwrite(args.out, filenames, args.force)
    os.makedirs(args.out, exist_ok=True)
    digests = data_mod.synth_generate(cfg, args.out)
    logger.info(
        "generated %s labeled / %s unlabeled train examples into %s",
        sum(cfg.labeled_counts), sum(cfg.unlabeled_counts), args.out,
    )
    manifest = {
        "command": "generate",
        "config": {"preset": resolved["preset"], **dataclasses.asdict(cfg)},
        "outputs": dict(sorted(digests.items())),
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return EXIT_OK


def resolve_train_config(args) -> TrainConfig:
    resolved = resolve_config(args, TRAIN_SCHEMA, TRAIN_DEFAULTS)
    if args.supervised_only:
        resolved["use_softmix"] = False
        resolved["use_anchor"] = False
    if args.ablate:
        resolved["use_" + args.ablate] = False
    return TrainConfig(**resolved)


def cmd_train(args) -> int:
    config = resolve_train_config(args)
    # a clash is refused before any input is hashed or loaded
    _refuse_overwrite(args.out, ["model.qam", "report.jsonl", "manifest.json"], args.force)
    train_path = os.path.join(args.data, "train.jsonl")
    valid_path = os.path.join(args.data, "valid.jsonl")
    truth_path = os.path.join(args.data, "unlabeled-truth.tsv")
    # each input is hashed once, for the manifest and the column file check
    inputs = {"train.jsonl": data_mod.sha256_file(train_path), "valid.jsonl": None}
    header, labeled, unlabeled = data_mod.load_dataset(train_path, inputs["train.jsonl"])
    valid_header = valid_records = None
    if os.path.exists(valid_path):
        inputs["valid.jsonl"] = data_mod.sha256_file(valid_path)
        valid_header, valid_records, valid_unlabeled = data_mod.load_dataset(
            valid_path, inputs["valid.jsonl"]
        )
        if valid_unlabeled:
            raise DataFormatError("validation file must not contain unlabeled records")
    truth = data_mod.load_truth(truth_path) if os.path.exists(truth_path) else None
    inputs["unlabeled-truth.tsv"] = data_mod.sha256_file(truth_path) if truth is not None else None
    session = trainer_mod.build_trainer(
        config, header, labeled, unlabeled, valid_header, valid_records, truth
    )

    # created only once the data have loaded, so a data error leaves no directory
    os.makedirs(args.out, exist_ok=True)
    logger.info(
        "training on %d labeled / %d unlabeled examples for %d iterations",
        len(labeled), len(unlabeled), config.iterations,
    )
    try:
        records = session.run()
    except DivergenceError as e:
        snap_path = os.path.join(args.out, "snapshot.json")
        _write_json(snap_path, e.snapshot)
        print(f"error: {e}; snapshot written to {snap_path}", file=sys.stderr)
        return EXIT_DIVERGED

    model_path = os.path.join(args.out, "model.qam")
    report_path = os.path.join(args.out, "report.jsonl")
    save_model(session.model, model_path)
    trainer_mod.write_report(records, report_path)
    manifest = {
        "command": "train",
        "config": dataclasses.asdict(config),
        "data": {
            "train": train_path,
            "valid": valid_path if valid_records is not None else None,
            "truth": truth_path if truth is not None else None,
        },
        "inputs": inputs,
        "outputs": {
            "model.qam": data_mod.sha256_file(model_path),
            "report.jsonl": data_mod.sha256_file(report_path),
        },
    }
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    final = records[-1]
    if final["val_accuracy"] is not None:
        logger.info(
            "final validation accuracy %.4f, weighted F1 %.4f",
            final["val_accuracy"], final["val_weighted_f1"],
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    header, labeled, _unlabeled = data_mod.load_dataset(args.data)
    if not labeled:
        raise DataFormatError(f"{args.data}: no labeled records to evaluate")
    X, y = data_mod.labeled_matrix(labeled)
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"dataset width {X.shape[1]} does not match model input {model.input_dim}"
        )
    if model.num_classes != header.num_classes:
        raise ShapeError(
            f"dataset has {header.num_classes} classes, model outputs {model.num_classes}"
        )
    probs = model.forward_batch(X)
    if not np.isfinite(probs).all():
        raise DataFormatError(f"{args.model}: model outputs are not finite on {args.data}")
    record = evaluate_model(model, X, y, header.num_classes, probs=probs)
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _mean_std(arr):
    """Mean and sample std (0 for one value). Only where that overflows are
    the values divided by their largest magnitude first; the divided values
    lie in [-1, 1], so the recursion stops there. The mean then stays
    finite; a std past the float range comes back as inf."""
    mean = arr.mean()
    std = arr.std(ddof=1) if arr.size > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        scale = float(np.abs(arr).max())
        mean, std = _mean_std(arr / scale)
        return mean * scale, std * scale
    return float(mean), float(std)


def aggregate_reports(paths) -> dict:
    """Mean and sample standard deviation of final-record metrics per path."""
    finals = [trainer_mod.read_report(p)[-1] for p in paths]
    metrics = {}
    for key in REPORT_KEYS:
        if key == "iteration":
            continue
        values = [rec[key] for rec in finals if rec[key] is not None]
        if not values:
            metrics[key] = {"mean": None, "std": None, "count": 0}
            continue
        mean, std = _mean_std(np.asarray(values, dtype=np.float64))
        if not math.isfinite(std):
            raise DataFormatError(f"{key}: sample std over the reports exceeds the float range")
        metrics[key] = {"mean": mean, "std": std, "count": len(values)}
    return {"runs": len(paths), "metrics": metrics}


def cmd_report(args) -> int:
    summary = aggregate_reports(args.reports)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


# ------------------------------------------------------------ entry point --

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamatch",
        description="Imbalanced semi-supervised classification over dense features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a synthetic long-tail dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--config", help="generation config file")
    g.add_argument("--preset", choices=sorted(GENERATE_PRESETS), help="named dataset shape")
    g.add_argument("--seed", type=int, help="override the config seed")
    g.add_argument("--force", action="store_true", help="overwrite existing outputs")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", required=True, help="dataset directory (train/valid files)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--config", help="training config file")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--force", action="store_true", help="overwrite existing outputs")
    t.add_argument(
        "--supervised-only", action="store_true",
        help="disable both unlabeled losses (labeled data only)",
    )
    t.add_argument(
        "--ablate", choices=sorted(k[4:] for k in TRAIN_SCHEMA if k.startswith("use_")),
        help="disable one component for ablation runs",
    )
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a model file on a dataset file")
    e.add_argument("--model", required=True, help="model file (model.qam)")
    e.add_argument("--data", required=True, help="dataset file with labeled records")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="aggregate training reports across seeds")
    r.add_argument("reports", nargs="+", help="report.jsonl files")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QAMATCH_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    # every non-finite value the commands act on is checked and mapped to an
    # exit code, so numpy's floating-point warnings would only clutter stderr
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # numpy names the array it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        where = f"{e.filename}: " if e.filename else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return EXIT_DATA
    except QAMatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
