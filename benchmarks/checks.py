"""Correctness checks that recompute the program's outputs apart from it.

Nothing here imports qamatch. Files are read through their documented
formats: JSON lines for datasets and reports, the ``QAM1`` byte layout for
models, and sha256 for manifest digests. Every check raises CheckFailed
with a message naming the file and the property that does not hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MODEL_MAGIC = b"QAM1"


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's recomputation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verify_manifest(out_dir, expected_outputs) -> dict:
    """Recompute every digest the manifest lists; return {name: digest}."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    require(
        sorted(outputs) == sorted(expected_outputs),
        f"{out_dir}: manifest lists {sorted(outputs)}, expected {sorted(expected_outputs)}",
    )
    for name, digest in outputs.items():
        actual = sha256_file(os.path.join(out_dir, name))
        require(actual == digest, f"{out_dir}/{name}: sha256 {actual} != manifest {digest}")
    return dict(outputs)


# ------------------------------------------------------------------ data --

def read_dataset(path, field=None) -> tuple:
    """(header, records) of a dataset file, or (header, one field of each
    record) when ``field`` is given; the file is read a line at a time."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        records = (json.loads(line) for line in fh if line.strip())
        return header, [r if field is None else r[field] for r in records]


def check_splits(data_dir, workload) -> None:
    """Every split holds the configured number of records per class."""
    names = workload.class_names
    for split, filename in (("labeled", "train.jsonl"), ("valid", "valid.jsonl"), ("test", "test.jsonl")):
        path = os.path.join(data_dir, filename)
        header, labels = read_dataset(path, "label")
        counts = [labels.count(n) for n in names]
        want = workload.counts(split)
        require(counts == want, f"{path}: labeled counts {counts} != configured {want}")
        require(header["labeled_counts"] == want, f"{path}: header counts {header['labeled_counts']} != {want}")
        require(header["dim"] == workload.generate["dim"], f"{path}: header dim {header['dim']}")
        want_unl = sum(workload.counts("unlabeled")) if split == "labeled" else 0
        unlabeled = labels.count("unlabeled")
        require(unlabeled == want_unl, f"{path}: {unlabeled} unlabeled records != {want_unl}")
        require(len(labels) == sum(want) + want_unl, f"{path}: {len(labels)} records in all")
    with open(os.path.join(data_dir, "unlabeled-truth.tsv"), encoding="utf-8") as fh:
        truth = [line.rstrip("\n").split("\t")[1] for line in fh]
    got = [truth.count(n) for n in names]
    require(got == workload.counts("unlabeled"), f"{data_dir}: truth sidecar counts {got}")


def read_labeled(path):
    """(X, y) of a labeled dataset file, X rows = [q, c] as the model reads them."""
    header, records = read_dataset(path)
    X = np.asarray([r["q"] + r["c"] for r in records], dtype=np.float64)
    y = np.asarray([header["class_names"].index(r["label"]) for r in records], dtype=np.int64)
    return X, y


# ----------------------------------------------------------------- model --

def parse_model(blob: bytes) -> list:
    """Decode ``QAM1``: magic, uint32 count, uint32 dims, then per layer the
    row-major weight matrix and the bias, little-endian float64."""
    require(blob[:4] == MODEL_MAGIC, "model: bad magic")
    (ndims,) = struct.unpack_from("<I", blob, 4)
    require(2 <= ndims <= 64, f"model: implausible layer count {ndims}")
    dims = struct.unpack_from(f"<{ndims}I", blob, 8)
    off = 8 + 4 * ndims
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        need = 8 * (fan_in * fan_out + fan_out)
        require(off + need <= len(blob), "model: truncated parameters")
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, off).reshape(fan_in, fan_out)
        b = np.frombuffer(blob, "<f8", fan_out, off + 8 * fan_in * fan_out)
        layers.append((w, b))
        off += need
    require(off == len(blob), f"model: {len(blob) - off} trailing bytes")
    return layers


def encode_model(weights, biases) -> bytes:
    """The ``QAM1`` bytes of a parameter set, for the replay comparison."""
    dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    parts = [MODEL_MAGIC, struct.pack("<I", len(dims)), struct.pack(f"<{len(dims)}I", *dims)]
    for w, b in zip(weights, biases):
        parts.append(np.ascontiguousarray(w, "<f8").tobytes())
        parts.append(np.ascontiguousarray(b, "<f8").tobytes())
    return b"".join(parts)


def predict(layers, X) -> np.ndarray:
    """Arg-max class of the ReLU MLP; softmax is monotone, so logits suffice."""
    h = X
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h.argmax(axis=1)


def scores(y, pred, num_classes) -> tuple:
    """(accuracy, support-weighted F1, confusion matrix) in plain Python."""
    cm = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(y.tolist(), pred.tolist()):
        cm[t][p] += 1
    total = len(y)
    f1_terms = []
    for k in range(num_classes):
        tp = cm[k][k]
        support = sum(cm[k])
        predicted = sum(row[k] for row in cm)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1_terms.append(support / total * f1)
    return sum(cm[k][k] for k in range(num_classes)) / total, math.fsum(f1_terms), cm


def check_eval(model_blob: bytes, test_path, record: dict, num_classes: int) -> None:
    """Accuracy, weighted F1 and confusion matrix of ``qamatch eval`` match
    the benchmark's own forward pass over the test split."""
    X, y = read_labeled(test_path)
    acc, f1, cm = scores(y, predict(parse_model(model_blob), X), num_classes)
    require(record["confusion_matrix"] == cm, f"eval: confusion {record['confusion_matrix']} != {cm}")
    require(abs(record["accuracy"] - acc) <= 1e-12, f"eval: accuracy {record['accuracy']} != {acc}")
    require(abs(record["weighted_f1"] - f1) <= 1e-12, f"eval: weighted F1 {record['weighted_f1']} != {f1}")


# ---------------------------------------------------------------- report --

def read_report(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_report(records, iterations: int, eval_interval: int, supervised: bool) -> None:
    """Properties every training report must have."""
    want = math.ceil(iterations / eval_interval)
    require(len(records) == want, f"report: {len(records)} records, expected {want}")
    its = [r["iteration"] for r in records]
    require(all(a < b for a, b in zip(its, its[1:])), f"report: iterations not rising {its}")
    require(its[-1] == iterations, f"report: last iteration {its[-1]} != {iterations}")
    for r in records:
        for key in ("loss_rebalanced", "loss_mix", "loss_anchor"):
            v = r[key]
            require(math.isfinite(v) and v >= 0, f"report: iteration {r['iteration']}: {key} = {v}")
        pla, kl = r["pseudo_label_accuracy"], r["kl_prior_pseudo"]
        if supervised:
            require(r["loss_mix"] == 0 and r["loss_anchor"] == 0,
                    f"report: supervised run has unlabeled loss at {r['iteration']}")
            require(pla is None and kl is None,
                    f"report: supervised run has pseudo fields at {r['iteration']}")
        else:
            require(pla is not None and 0.0 <= pla <= 1.0,
                    f"report: pseudo_label_accuracy {pla} at {r['iteration']}")
            require(kl is not None and kl >= 0.0, f"report: kl_prior_pseudo {kl} at {r['iteration']}")
