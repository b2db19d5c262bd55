"""Dataset ingestion and synthetic long-tail generation.

File format: one JSON object per line. The first line is a header
{"dim": d, "class_names": [...], "labeled_counts": [...]} and every
following line is a record {"id", "label", "q", "c", "q_aug", "c_aug"}.
Labels are class names on disk; the sentinel "unlabeled" marks records
without one. Vector entries must be JSON numbers. The augmented vectors
are required for unlabeled records (consistency training needs them) and
optional for labeled ones, whose are checked but not kept.

In memory each kind of record is one ``Split`` of (n, dim) columns. A
record's model input is the concatenation question-then-context, so the
classifier sees rows of width 2 * dim, built only by ``labeled_matrix``
and ``unlabeled_matrices``:

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
from array import array
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataFormatError, ParameterError

UNLABELED_SENTINEL = "unlabeled"
HEADER_KEYS = ("dim", "class_names", "labeled_counts")
RECORD_KEYS = ("id", "label", "q", "c", "q_aug", "c_aug")
# the types json.loads gives JSON numbers; float() would also take str and bool
_JSON_NUMBERS = frozenset((int, float))

# Nudge added before flooring long-tail counts so ratios that are exact in
# real arithmetic (say gamma ** (-1/2) with gamma = 4) do not floor one
# short after a last-ulp rounding down.
_FLOOR_GUARD = 1e-9


def _is_int(value) -> bool:
    # JSON bools are not integers, as for record labels
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class DatasetHeader:
    dim: int
    class_names: list
    labeled_counts: list

    def __post_init__(self):
        if not _is_int(self.dim):
            raise DataFormatError(f"dim must be an integer, got {self.dim!r}")
        names, counts = self.class_names, self.labeled_counts
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise DataFormatError(f"class_names must be a list of strings, got {names!r}")
        if not isinstance(counts, (list, tuple)) or not all(_is_int(c) for c in counts):
            raise DataFormatError(f"labeled_counts must be a list of integers, got {counts!r}")
        self.dim = int(self.dim)
        self.class_names = list(names)
        self.labeled_counts = [int(c) for c in counts]
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
class Split:
    """One kind of record as columns: row i of each (n, dim) matrix is
    record ids[i]. ``labels`` (class indices) is None for unlabeled
    records; ``q_aug`` and ``c_aug`` are None for labeled ones."""

    ids: list
    labels: np.ndarray | None
    q: np.ndarray
    c: np.ndarray
    q_aug: np.ndarray | None = None
    c_aug: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.ids)


def _append_vector(column, raw, dim, what, rid, lineno):
    """Check one record vector and append its entries to ``column``."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} must be a list of {dim} numbers"
        )
    try:
        if not _JSON_NUMBERS.issuperset(map(type, raw)):
            raise TypeError
        column.extend(raw)  # OverflowError for an integer past the float range
    except (TypeError, OverflowError):
        raise DataFormatError(
            f"line {lineno}: record {rid!r}: {what} has a non-numeric entry"
        ) from None
    if not all(map(math.isfinite, raw)):
        raise DataFormatError(f"line {lineno}: record {rid!r}: {what} is not finite")


def read_lines(path):
    """Yield (lineno, line) for each line of a UTF-8 text file, without its
    line feed. Lines end only at a line feed (as JSON Lines records do) once
    universal newlines have turned CRLF and CR into one, and only one line
    is held at a time. Undecodable bytes are a DataFormatError naming the
    path (a UnicodeDecodeError does not carry it), raised when the reader
    reaches them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


@contextmanager
def atomic_open(path, mode, **kwargs):
    """Open ``<path>.partial`` for writing and move it onto ``path`` once the
    block completes, so ``path`` is never left half written. If the block
    or the move fails, the partial file is removed. A plain ``open`` keeps
    the usual mode and umask."""
    partial = f"{path}.partial"
    fh = open(partial, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def parse_json_line(path, lineno: int, line: str, what: str = "JSON"):
    """One JSON value; malformed JSON, or an integer past Python's digit
    limit for int conversion (a plain ValueError), is a DataFormatError."""
    try:
        return json.loads(line)
    except ValueError as e:
        raise DataFormatError(
            f"{path}: line {lineno}: malformed {what} ({getattr(e, 'msg', e)})"
        ) from None


def _matrices(columns: dict, dim: int) -> dict:
    """View each array('d') column as an (n, dim) matrix, without a copy."""
    return {k: np.frombuffer(col, dtype=np.float64).reshape(-1, dim) for k, col in columns.items()}


def load_dataset(path):
    """Parse a dataset file into (header, labeled Split, unlabeled Split).

    Every violation is reported with the line number, and with the record
    id once one is known. Labeled per-class counts are checked against the
    header at the end.
    """
    lines = read_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, expected a header line")

    head = parse_json_line(path, 1, first[1], "header JSON")
    if not isinstance(head, dict) or sorted(head) != sorted(HEADER_KEYS):
        raise DataFormatError(
            f"{path}: line 1: header must have exactly the keys {list(HEADER_KEYS)}"
        )
    header = DatasetHeader(**head)
    name_to_index = {n: i for i, n in enumerate(header.class_names)}

    # one column per vector; labeled records' q_aug/c_aug go to a throwaway
    labeled_ids, labels, unlabeled_ids = [], [], []
    labeled_cols = {"q": array("d"), "c": array("d")}
    unlabeled_cols = {key: array("d") for key in ("q", "c", "q_aug", "c_aug")}
    seen_ids = set()
    for lineno, line in lines:
        if not line.strip():
            continue
        obj = parse_json_line(path, lineno, line)
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
        cols = unlabeled_cols if label is None else labeled_cols
        _append_vector(cols["q"], obj["q"], header.dim, "q", rid, lineno)
        _append_vector(cols["c"], obj["c"], header.dim, "c", rid, lineno)
        if label is None:
            unlabeled_ids.append(rid)
            for key in ("q_aug", "c_aug"):
                if key not in obj:
                    raise DataFormatError(
                        f"{path}: line {lineno}: record {rid!r}: unlabeled records "
                        f"require {key!r}"
                    )
        else:
            labeled_ids.append(rid)
            labels.append(label)
        for key in ("q_aug", "c_aug"):
            if key in obj:
                column = cols[key] if key in cols else array("d")
                _append_vector(column, obj[key], header.dim, key, rid, lineno)

    labels = np.array(labels, dtype=np.int64)
    actual = np.bincount(labels, minlength=header.num_classes).tolist()
    if actual != header.labeled_counts:
        raise DataFormatError(
            f"{path}: header labeled_counts {header.labeled_counts} do not match "
            f"the records ({actual})"
        )
    labeled = Split(labeled_ids, labels, **_matrices(labeled_cols, header.dim))
    unlabeled = Split(unlabeled_ids, None, **_matrices(unlabeled_cols, header.dim))
    return header, labeled, unlabeled


def write_dataset(path, header: DatasetHeader, *splits) -> None:
    """Emit header + every split's records in order; floats round-trip
    exactly through JSON."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(header), separators=(",", ":")))
        fh.write("\n")
        for split in splits:
            for i, rid in enumerate(split.ids):
                obj = {
                    "id": rid,
                    "label": UNLABELED_SENTINEL
                    if split.labels is None
                    else header.class_names[split.labels[i]],
                    "q": split.q[i].tolist(),
                    "c": split.c[i].tolist(),
                }
                if split.q_aug is not None:
                    obj["q_aug"] = split.q_aug[i].tolist()
                    obj["c_aug"] = split.c_aug[i].tolist()
                fh.write(json.dumps(obj, separators=(",", ":")))
                fh.write("\n")


def load_truth(path) -> dict:
    """Sidecar parser: one "id<TAB>class_name" line per unlabeled record."""
    truth = {}
    for lineno, line in read_lines(path):
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
        if not 0 < self.separation < math.inf:
            raise ParameterError("separation must be positive and finite")
        if not 0 < self.noise_sigma < math.inf:
            raise ParameterError("noise_sigma must be positive and finite")
        if not 0 <= self.aug_sigma < math.inf:
            raise ParameterError("aug_sigma must be non-negative and finite")
        if not self.class_names:
            self.class_names = [f"class{k}" for k in range(self.num_classes)]
        if len(self.class_names) != self.num_classes:
            raise ParameterError("class_names length must equal num_classes")
        if len(set(self.class_names)) != self.num_classes:
            raise ParameterError("class_names must be unique")
        if UNLABELED_SENTINEL in self.class_names:
            raise ParameterError(f"class name {UNLABELED_SENTINEL!r} marks unlabeled records")
        for name in self.class_names:
            # the truth sidecar is one "id<TAB>name" line per record
            if any(ch in name for ch in "\t\n\r"):
                raise ParameterError(f"class name {name!r} contains a tab or line break")
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


def _draw_split(cfg, rng, counts, prefix, augmented) -> Split:
    """Draw one split, every record labeled with its class. Classes are laid
    out in index order; per record the draws are q, c, then optionally
    q_aug, c_aug, which is the order one standard_normal call fills them."""
    labels = np.repeat(np.arange(cfg.num_classes), counts)
    z = rng.standard_normal((len(labels), 4 if augmented else 2, cfg.dim))
    means = cfg.separation * np.eye(cfg.num_classes, cfg.dim)[labels]
    q = means + cfg.noise_sigma * z[:, 0]
    c = means + cfg.noise_sigma * z[:, 1]
    split = Split([f"{prefix}-{i:05d}" for i in range(len(labels))], labels, q, c)
    if augmented:
        split.q_aug = q + cfg.aug_sigma * z[:, 2]
        split.c_aug = c + cfg.aug_sigma * z[:, 3]
    return split


def synth_generate(cfg: SynthConfig, out_dir) -> dict:
    """Write train/valid/test files plus the unlabeled-truth sidecar.

    Splits are drawn in a fixed order (labeled train, unlabeled train,
    validation, test) from one generator seeded with cfg.seed, so the
    whole dataset is a pure function of the config. Returns the emitted
    paths keyed by role.
    """
    rng = np.random.default_rng(cfg.seed)
    labeled = _draw_split(cfg, rng, cfg.labeled_counts, "lab", augmented=False)
    unlabeled = _draw_split(cfg, rng, cfg.unlabeled_counts, "unl", augmented=True)
    valid = _draw_split(cfg, rng, cfg.valid_counts, "val", augmented=False)
    test = _draw_split(cfg, rng, cfg.test_counts, "tst", augmented=False)

    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "valid": os.path.join(out_dir, "valid.jsonl"),
        "test": os.path.join(out_dir, "test.jsonl"),
        "truth": os.path.join(out_dir, "unlabeled-truth.tsv"),
    }
    # the truth sidecar keeps the labels the train file strips
    with atomic_open(paths["truth"], "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{rid}\t{cfg.class_names[k]}\n" for rid, k in zip(unlabeled.ids, unlabeled.labels)
        )
    unlabeled.labels = None
    write_dataset(
        paths["train"],
        DatasetHeader(cfg.dim, cfg.class_names, cfg.labeled_counts),
        labeled,
        unlabeled,
    )
    write_dataset(
        paths["valid"], DatasetHeader(cfg.dim, cfg.class_names, cfg.valid_counts), valid
    )
    write_dataset(
        paths["test"], DatasetHeader(cfg.dim, cfg.class_names, cfg.test_counts), test
    )
    return paths


def labeled_matrix(split: Split):
    """(X, y) with X rows = [q, c]."""
    if not split:
        raise ParameterError("need at least one labeled record")
    return np.hstack([split.q, split.c]), split.labels


def unlabeled_matrices(split: Split):
    """(ids, original, question view, context view) of an unlabeled split."""
    return (
        split.ids,
        np.hstack([split.q, split.c]),
        np.hstack([split.q_aug, split.c]),
        np.hstack([split.q, split.c_aug]),
    )
