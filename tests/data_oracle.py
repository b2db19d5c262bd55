"""Reference forms of the unlabeled views, the synthetic draw and the
truth sidecar reader.

``qamatch.data`` builds an unlabeled batch's three views from the split's
four columns one batch at a time, and derives a synthetic split's columns
in place in its draw. These are the same computations written the way
they once ran, one whole-split matrix or temporary per operation, with
the same operands in the same order; the tests assert that both give the
same bytes.

``write_dataset`` encodes every record from ``orjson``'s column blocks.
``json_lines`` is the file written with ``json.dumps`` alone, one record
at a time, from splits ``write_dataset`` accepts; the tests assert that
both give the same bytes, and the same error for a non-finite entry.

It reads text a block of lines at a time, the truth sidecar into one dict
per block, and ``build_trainer`` maps truth names to class indices in one
pass. ``read_lines``, ``load_truth`` and ``truth_indices`` are those jobs
done one line or one id at a time, through ``io.TextIOWrapper``; the
tests assert that both give the same values and the same errors.
"""

import json
from dataclasses import asdict

import numpy as np

from qamatch.data import UNLABELED_SENTINEL, Split
from qamatch.errors import DataFormatError, ParameterError


def hstacked_views(split):
    """(original, question view, context view) of every row of ``split`` (a
    Split or the columns a trainer holds), each an (n, 2 * dim) matrix."""
    return (
        np.hstack([split.q, split.c]),
        np.hstack([split.q_aug, split.c]),
        np.hstack([split.q, split.c_aug]),
    )


def trainer_views(trainer):
    """The views of every unlabeled row a trainer was built with."""
    return hstacked_views(trainer.unlabeled)


def draw_split(cfg, rng, counts, prefix, augmented):
    """``data._draw_split`` with a mean matrix and one new array per column."""
    labels = np.repeat(np.arange(cfg.num_classes), counts)
    z = rng.standard_normal((len(labels), 4 if augmented else 2, cfg.dim))
    means = cfg.separation * np.eye(cfg.num_classes, cfg.dim)[labels]
    with np.errstate(over="ignore", invalid="ignore"):
        q = means + cfg.noise_sigma * z[:, 0]
        c = means + cfg.noise_sigma * z[:, 1]
        split = Split([f"{prefix}-{i:05d}" for i in range(len(labels))], labels, q, c)
        if augmented:
            split.q_aug = q + cfg.aug_sigma * z[:, 2]
            split.c_aug = c + cfg.aug_sigma * z[:, 3]
    for key in ("q", "c", "q_aug", "c_aug"):
        column = getattr(split, key)
        if column is not None and not np.isfinite(column).all():
            raise ParameterError(
                f"a drawn {key} vector is not finite; lower separation, noise_sigma or aug_sigma"
            )
    return split


def json_lines(header, *splits) -> bytes:
    """The dataset file ``write_dataset`` writes from ``splits``: the header,
    then one ``json.dumps`` line per record, in order. A non-finite vector
    entry is the DataFormatError that ``write_dataset`` raises."""

    def line(obj):
        return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"

    lines = [line(asdict(header))]
    for split in splits:
        for i in range(len(split)):
            label = UNLABELED_SENTINEL if split.labels is None else header.class_names[split.labels[i]]
            record = {"id": split.ids[i], "label": label, "q": split.q[i].tolist(), "c": split.c[i].tolist()}
            if split.q_aug is not None:
                record.update(q_aug=split.q_aug[i].tolist(), c_aug=split.c_aug[i].tolist())
            try:
                lines.append(line(record))
            except ValueError:
                raise DataFormatError(f"record {split.ids[i]!r}: a vector entry is not finite") from None
    return "".join(lines).encode()


def read_lines(path):
    """(lineno, line) for each line of a UTF-8 text file, one at a time."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_truth(path):
    """``data.load_truth`` checked one line at a time."""
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


def truth_indices(class_names, ids, truth):
    """The class index of each id's truth name, -1 where ``truth`` has none,
    as ``build_trainer`` gives it, one id at a time."""
    name_to_index = {n: i for i, n in enumerate(class_names)}
    indices = np.full(len(ids), -1, dtype=np.int64)
    for i, rid in enumerate(ids):
        if rid in truth:
            name = truth[rid]
            if name not in name_to_index:
                raise DataFormatError(f"truth sidecar has unknown label {name!r}")
            indices[i] = name_to_index[name]
    return indices
