"""Out-of-place reference forms of the unlabeled views and the synthetic draw.

``qamatch.data`` builds an unlabeled batch's three views from the split's
four columns one batch at a time, and derives a synthetic split's columns
in place in its draw. These are the same computations written the way
they once ran, one whole-split matrix or temporary per operation, with
the same operands in the same order; the tests assert that both give the
same bytes.
"""

import numpy as np

from qamatch.data import Split
from qamatch.errors import ParameterError


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
