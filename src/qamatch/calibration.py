"""Pseudo-label calibration against the labeled prior, plus sharpening.

The model's average prediction on unlabeled data drifts toward the head
classes of a skewed training set. Calibration multiplies each raw prediction
by (labeled prior / running prediction marginal) elementwise and
renormalizes, pulling the pseudo-label distribution back toward the prior.
Sharpening then lowers the temperature of the calibrated distribution.

The running marginal is the mean over a sliding window of recent batch-mean
prediction vectors (most recent ``window`` batches). Before any batch has
been observed the marginal is uniform, which makes the very first
calibration a pure prior reweighting. The estimator is updated *after* the
current batch's pseudo-labels are computed, so a batch never calibrates
against itself.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import softmax

# Floor used inside divisions so a vanishing marginal entry cannot produce
# inf/nan. Distinct from the log floor in numerics: this one guards ratios.
EPS_DIV = 1e-8

DEFAULT_WINDOW = 128


class MarginalEstimator:
    """Sliding-window mean of batch-average prediction vectors.

    The window is a ring buffer of rows: update ``k`` (counting from 0)
    writes row ``k % window``, so the first ``len(self)`` rows always hold
    the most recent batch means. The buffer grows to ``window`` rows as
    they are written, so a large window costs memory only when it fills.
    """

    def __init__(self, num_classes: int, window: int = DEFAULT_WINDOW):
        if num_classes < 2:
            raise ParameterError(f"need at least two classes, got {num_classes}")
        if window < 1:
            raise ParameterError(f"window must be positive, got {window}")
        self.num_classes = int(num_classes)
        self.window = int(window)
        self._rows = np.empty((0, self.num_classes))
        self._written = 0

    def __len__(self) -> int:
        return min(self._written, self.window)

    def update(self, batch_preds: np.ndarray) -> None:
        """Record one batch of predicted distributions.

        Accepts either a (B, C) batch, whose row mean is buffered, or a
        single length-C vector that is already a batch mean.
        """
        P = np.asarray(batch_preds, dtype=np.float64)
        if P.ndim == 1 and P.shape[0] == self.num_classes:
            mean = P
        elif P.ndim != 2 or P.shape[1] != self.num_classes:
            raise ShapeError(
                f"expected (B, {self.num_classes}) predictions, got {P.shape}"
            )
        elif P.shape[0] == 0:
            raise ParameterError("cannot update the marginal with an empty batch")
        else:
            mean = P.mean(axis=0)
        slot = self._written % self.window
        if slot == len(self._rows):
            grown = np.empty((min(2 * slot + 1, self.window), self.num_classes))
            grown[:slot] = self._rows
            self._rows = grown
        self._rows[slot] = mean
        self._written += 1

    def marginal(self) -> np.ndarray:
        """Current running marginal; uniform until the first update."""
        if not self._written:
            return np.full(self.num_classes, 1.0 / self.num_classes)
        return self._rows[: len(self)].mean(axis=0)


def calibrate(
    raw_pred: np.ndarray,
    prior: np.ndarray,
    marginal: np.ndarray,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Normalize(raw * prior / marginal), rows independently.

    Accepts a single distribution or a (B, C) batch. When ``marginal``
    equals ``prior`` this is the identity up to renormalization noise.
    A row whose rescaled numerator sums to zero (possible only when the
    prior has zero mass everywhere the prediction does) falls back to the
    raw prediction; such rows are tallied under ``diagnostics
    ["calibration_fallbacks"]`` when a dict is supplied.
    """
    p = np.asarray(raw_pred, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    marginal = np.asarray(marginal, dtype=np.float64)
    if prior.shape != marginal.shape or p.shape[-1] != prior.shape[0]:
        raise ShapeError(
            f"shape mismatch: pred {p.shape}, prior {prior.shape}, marginal {marginal.shape}"
        )
    single = p.ndim == 1
    rows = p[None, :] if single else p
    scaled = rows * (prior / np.maximum(marginal, EPS_DIV))
    sums = scaled.sum(axis=-1, keepdims=True)
    dead = sums.ravel() <= 0.0
    if np.any(dead):
        scaled[dead] = rows[dead]
        sums[dead] = rows[dead].sum(axis=-1, keepdims=True)
        if diagnostics is not None:
            diagnostics["calibration_fallbacks"] = diagnostics.get(
                "calibration_fallbacks", 0
            ) + int(dead.sum())
    out = scaled / sums
    return out[0] if single else out


def sharpen(dist: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature sharpening: p_i^(1/T) / sum_j p_j^(1/T), rows independently.

    T = 1 returns the input unchanged (bit-exact, not merely within
    rounding). T < 1 sharpens toward the argmax; exact ties stay tied.
    Computed through logs so small temperatures keep their accuracy when
    entries near 1 sit next to entries near 0.
    """
    if not temperature > 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    p = np.asarray(dist, dtype=np.float64)
    if temperature == 1.0:
        return p.copy()
    # log-space: exponent * log p, with -inf for exact zeros, then softmax
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    return softmax(logp * (1.0 / temperature))
