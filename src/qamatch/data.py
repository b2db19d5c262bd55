"""Dataset ingestion and synthetic long-tail generation.

File format: one JSON object per line. The first line is a header
{"dim": d, "class_names": [...], "labeled_counts": [...]} and every
following line is a record {"id", "label", "q", "c", "q_aug", "c_aug"}.
Labels are class names on disk; the sentinel "unlabeled" marks records
without one. The augmented vectors are required for unlabeled records
(consistency training needs them) and optional for labeled ones.

A record's model input is the concatenation question-then-context, so the
classifier sees vectors of width 2 * dim:

    original view  = [q, c]
    question view  = [q_aug, c]
    context view   = [q, c_aug]

The synthetic generator places the class means at separation * e_k on the
first C coordinate axes (hence dim >= num_classes), draws q and c as mean
plus isotropic Gaussian noise, and emits augmented copies as the same
vector plus smaller jitter. Ground-truth labels of unlabeled records go
to a tab-separated sidecar file so pseudo-label accuracy can be scored
without leaking labels into training.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ParameterError

UNLABELED_SENTINEL = "unlabeled"
HEADER_KEYS = ("dim", "class_names", "labeled_counts")
RECORD_KEYS = ("id", "label", "q", "c", "q_aug", "c_aug")

# Nudge added before flooring long-tail counts so ratios that are exact in
# real arithmetic (say gamma ** (-1/2) with gamma = 4) do not floor one
# short after a last-ulp rounding down.
_FLOOR_GUARD = 1e-9


@dataclass
class DatasetHeader:
    dim: int
    class_names: list
    labeled_counts: list

    def __post_init__(self):
        self.dim = int(self.dim)
        self.class_names = [str(n) for n in self.class_names]
        self.labeled_counts = [int(c) for c in self.labeled_counts]
        if self.dim < 1:
            raise DataFormatError(f"dim must be >= 1, got {self.dim}")
        if len(self.class_names) < 2:
            raise DataFormatError("need at least two class names")
        if len(set(self.class_names)) != len(self.class_names):
            raise DataFormatError("class names must be unique")
        if len(self.labeled_counts) != len(self.class_names):
            raise DataFormatError("labeled_counts length must equal class count")
        if any(c < 0 for c in self.labeled_counts):
            raise DataFormatError("labeled_counts must be non-negative")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class Example:
    example_id: str
    label: int | None
    question: np.ndarray
    context: np.ndarray
    question_aug: np.ndarray | None = None
    context_aug: np.ndarray | None = None

    def original_view(self) -> np.ndarray:
        return np.concatenate([self.question, self.context])

    def question_view(self) -> np.ndarray:
        return np.concatenate([self.question_aug, self.context])

    def context_view(self) -> np.ndarray:
        return np.concatenate([self.question, self.context_aug])


def _parse_vector(raw, dim, what, rid, lineno):
    if not isinstance(raw, list) or len(raw) != dim:
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} must be a list of {dim} numbers"
        )
    try:
        vec = np.array([float(v) for v in raw], dtype=np.float64)
    except (TypeError, ValueError):
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} has a non-numeric entry"
        ) from None
    if not np.all(np.isfinite(vec)):
        raise DataFormatError(f"line {lineno}: record {rid!r}: {what} is not finite")
    return vec


def load_dataset(path):
    """Parse a dataset file into (header, labeled records, unlabeled records).

    Every violation is reported with the line number, and with the record
    id once one is known. Labeled per-class counts are checked against the
    header at the end.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file, expected a header line")

    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: line 1: malformed header JSON ({e.msg})") from None
    if not isinstance(head, dict) or sorted(head) != sorted(HEADER_KEYS):
        raise DataFormatError(
            f"{path}: line 1: header must have exactly the keys {list(HEADER_KEYS)}"
        )
    header = DatasetHeader(**head)
    name_to_index = {n: i for i, n in enumerate(header.class_names)}

    labeled, unlabeled = [], []
    seen_ids = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}: line {lineno}: malformed JSON ({e.msg})") from None
        if not isinstance(obj, dict) or "id" not in obj or "label" not in obj:
            raise DataFormatError(f"{path}: line {lineno}: record needs id and label")
        unknown = set(obj) - set(RECORD_KEYS)
        if unknown:
            raise DataFormatError(
                f"{path}: line {lineno}: unknown record keys {sorted(unknown)}"
            )
        rid = str(obj["id"])
        if not rid:
            raise DataFormatError(f"{path}: line {lineno}: empty record id")
        if rid in seen_ids:
            raise DataFormatError(f"{path}: line {lineno}: duplicate record id {rid!r}")
        seen_ids.add(rid)

        raw_label = obj["label"]
        if raw_label == UNLABELED_SENTINEL:
            label = None
        elif isinstance(raw_label, bool):
            raise DataFormatError(f"{path}: line {lineno}: record {rid!r}: bad label")
        elif isinstance(raw_label, int):
            if not 0 <= raw_label < header.num_classes:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: label index "
                    f"{raw_label} outside [0, {header.num_classes})"
                )
            label = raw_label
        elif isinstance(raw_label, str):
            if raw_label not in name_to_index:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: unknown label name "
                    f"{raw_label!r}"
                )
            label = name_to_index[raw_label]
        else:
            raise DataFormatError(f"{path}: line {lineno}: record {rid!r}: bad label")

        for key in ("q", "c"):
            if key not in obj:
                raise DataFormatError(
                    f"{path}: line {lineno}: record {rid!r}: missing vector {key!r}"
                )
        q = _parse_vector(obj["q"], header.dim, "q", rid, lineno)
        c = _parse_vector(obj["c"], header.dim, "c", rid, lineno)
        q_aug = c_aug = None
        if label is None:
            for key in ("q_aug", "c_aug"):
                if key not in obj:
                    raise DataFormatError(
                        f"{path}: line {lineno}: record {rid!r}: unlabeled records "
                        f"require {key!r}"
                    )
        if "q_aug" in obj:
            q_aug = _parse_vector(obj["q_aug"], header.dim, "q_aug", rid, lineno)
        if "c_aug" in obj:
            c_aug = _parse_vector(obj["c_aug"], header.dim, "c_aug", rid, lineno)

        rec = Example(rid, label, q, c, q_aug, c_aug)
        (unlabeled if label is None else labeled).append(rec)

    actual = [0] * header.num_classes
    for rec in labeled:
        actual[rec.label] += 1
    if actual != header.labeled_counts:
        raise DataFormatError(
            f"{path}: header labeled_counts {header.labeled_counts} do not match "
            f"the records ({actual})"
        )
    return header, labeled, unlabeled


def _vector_json(vec) -> list:
    return [float(v) for v in vec]


def write_dataset(path, header: DatasetHeader, records) -> None:
    """Emit header + records; floats round-trip exactly through JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "dim": header.dim,
                    "class_names": header.class_names,
                    "labeled_counts": header.labeled_counts,
                },
                separators=(",", ":"),
            )
        )
        fh.write("\n")
        for rec in records:
            obj = {
                "id": rec.example_id,
                "label": UNLABELED_SENTINEL
                if rec.label is None
                else header.class_names[rec.label],
                "q": _vector_json(rec.question),
                "c": _vector_json(rec.context),
            }
            if rec.question_aug is not None:
                obj["q_aug"] = _vector_json(rec.question_aug)
            if rec.context_aug is not None:
                obj["c_aug"] = _vector_json(rec.context_aug)
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")


def load_truth(path) -> dict:
    """Sidecar parser: one "id<TAB>class_name" line per unlabeled record."""
    truth = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise DataFormatError(f"{path}: line {lineno}: expected 'id<TAB>label'")
            if parts[0] in truth:
                raise DataFormatError(f"{path}: line {lineno}: duplicate id {parts[0]!r}")
            truth[parts[0]] = parts[1]
    return truth


def longtail_counts(n_max: int, gamma: float, num_classes: int) -> list:
    """Geometric decay n_k = floor(n_max * gamma^(-k/(C-1))), k = 0..C-1."""
    n_max = int(n_max)
    num_classes = int(num_classes)
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if not gamma >= 1:
        raise ParameterError(f"gamma must be >= 1, got {gamma}")
    if num_classes < 2:
        raise ParameterError(f"need at least two classes, got {num_classes}")
    counts = [
        math.floor(n_max * gamma ** (-k / (num_classes - 1)) + _FLOOR_GUARD)
        for k in range(num_classes)
    ]
    if counts[-1] < 1:
        raise ParameterError(
            f"smallest class count is 0 for n_max={n_max}, gamma={gamma}; "
            f"increase n_max to at least {math.ceil(gamma)}"
        )
    return counts


@dataclass
class SynthConfig:
    """Resolved generation plan: explicit per-class counts for every split.

    Long-tail profiles come from ``longtail_counts``; ``qamatch generate``
    builds validation and test with the labeled gamma so evaluation sees
    the deployment class mix.
    """

    num_classes: int
    dim: int
    separation: float
    noise_sigma: float
    aug_sigma: float
    seed: int
    labeled_counts: list
    unlabeled_counts: list
    valid_counts: list
    test_counts: list
    class_names: list = field(default_factory=list)

    def __post_init__(self):
        self.num_classes = int(self.num_classes)
        self.dim = int(self.dim)
        if self.num_classes < 2:
            raise ParameterError("need at least two classes")
        if self.dim < self.num_classes:
            raise ParameterError(
                f"dim {self.dim} < num_classes {self.num_classes}: orthogonal "
                f"class means need one axis per class"
            )
        if not self.separation > 0:
            raise ParameterError("separation must be positive")
        if not self.noise_sigma > 0:
            raise ParameterError("noise_sigma must be positive")
        if self.aug_sigma < 0:
            raise ParameterError("aug_sigma must be non-negative")
        if not self.class_names:
            self.class_names = [f"class{k}" for k in range(self.num_classes)]
        if len(self.class_names) != self.num_classes:
            raise ParameterError("class_names length must equal num_classes")
        for name, counts, low in (
            ("labeled_counts", self.labeled_counts, 1),
            ("unlabeled_counts", self.unlabeled_counts, 0),
            ("valid_counts", self.valid_counts, 1),
            ("test_counts", self.test_counts, 1),
        ):
            counts = [int(c) for c in counts]
            setattr(self, name, counts)
            if len(counts) != self.num_classes:
                raise ParameterError(f"{name} must list one count per class")
            if any(c < low for c in counts):
                raise ParameterError(f"{name} entries must be >= {low}")


def _draw_split(cfg, rng, counts, prefix, augmented, labeled):
    """Draw one split; per example the order is q, c, then optionally
    q_aug, c_aug. Classes are laid out in index order."""
    means = np.zeros((cfg.num_classes, cfg.dim))
    for k in range(cfg.num_classes):
        means[k, k] = cfg.separation
    records = []
    serial = 0
    for k, n in enumerate(counts):
        for _ in range(n):
            q = means[k] + cfg.noise_sigma * rng.standard_normal(cfg.dim)
            c = means[k] + cfg.noise_sigma * rng.standard_normal(cfg.dim)
            q_aug = c_aug = None
            if augmented:
                q_aug = q + cfg.aug_sigma * rng.standard_normal(cfg.dim)
                c_aug = c + cfg.aug_sigma * rng.standard_normal(cfg.dim)
            records.append(
                Example(
                    example_id=f"{prefix}-{serial:05d}",
                    label=k if labeled else None,
                    question=q,
                    context=c,
                    question_aug=q_aug,
                    context_aug=c_aug,
                )
            )
            serial += 1
    return records


def synth_generate(cfg: SynthConfig, out_dir) -> dict:
    """Write train/valid/test files plus the unlabeled-truth sidecar.

    Splits are drawn in a fixed order (labeled train, unlabeled train,
    validation, test) from one generator seeded with cfg.seed, so the
    whole dataset is a pure function of the config. Returns the emitted
    paths keyed by role.
    """
    rng = np.random.default_rng(cfg.seed)
    labeled = _draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False, labeled=True)
    unlabeled = _draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True, labeled=False)
    valid = _draw_split(cfg, rng, cfg.valid_counts, "val", augmented=False, labeled=True)
    test = _draw_split(cfg, rng, cfg.test_counts, "tst", augmented=False, labeled=True)

    # truth is recorded before the labels are stripped for the train file
    truth_lines = []
    serial = 0
    for k, n in enumerate(cfg.unlabeled_counts):
        for _ in range(n):
            truth_lines.append(f"unl-{serial:05d}\t{cfg.class_names[k]}\n")
            serial += 1

    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "valid": os.path.join(out_dir, "valid.jsonl"),
        "test": os.path.join(out_dir, "test.jsonl"),
        "truth": os.path.join(out_dir, "unlabeled-truth.tsv"),
    }
    write_dataset(
        paths["train"],
        DatasetHeader(cfg.dim, cfg.class_names, cfg.labeled_counts),
        labeled + unlabeled,
    )
    write_dataset(
        paths["valid"], DatasetHeader(cfg.dim, cfg.class_names, cfg.valid_counts), valid
    )
    write_dataset(
        paths["test"], DatasetHeader(cfg.dim, cfg.class_names, cfg.test_counts), test
    )
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        fh.writelines(truth_lines)
    return paths


def labeled_matrix(records):
    """Stack labeled records into (X, y) with X rows = [q, c]."""
    if not records:
        raise ParameterError("need at least one labeled record")
    X = np.stack([r.original_view() for r in records])
    y = np.array([r.label for r in records], dtype=np.int64)
    return X, y


def unlabeled_matrices(records):
    """Stack unlabeled records into (ids, original, question view, context view)."""
    ids = [r.example_id for r in records]
    if not records:
        empty = np.zeros((0, 0))
        return ids, empty, empty, empty
    orig = np.stack([r.original_view() for r in records])
    qview = np.stack([r.question_view() for r in records])
    cview = np.stack([r.context_view() for r in records])
    return ids, orig, qview, cview
