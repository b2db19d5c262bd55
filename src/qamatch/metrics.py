"""Evaluation metrics: confusion matrix, accuracy, weighted F1, per-class
recall, and KL divergence between class distributions.

Conventions for degenerate cases are fixed here once: a class with zero
true examples gets a None (undefined) per-class accuracy and contributes
nothing to weighted F1 (zero support weight); a class that is never
predicted has precision 0; F1 is 0 whenever precision + recall is 0.
An entirely empty evaluation raises UndefinedMetricError.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import EPS_DIV
from .errors import ParameterError, ShapeError, UndefinedMetricError

# Documented key order for one evaluation record (also the JSON field
# order emitted by the CLI and the training report).
RECORD_KEYS = (
    "accuracy",
    "weighted_f1",
    "per_class_accuracy",
    "kl_alignment",
    "confusion_matrix",
)


def confusion_matrix(true_labels, pred_labels, num_classes: int) -> np.ndarray:
    """Cell (i, j) counts examples of true class i predicted as class j."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ShapeError(f"label vectors must match, got {t.shape} and {p.shape}")
    if num_classes < 2:
        raise ParameterError(f"need at least two classes, got {num_classes}")
    if t.size and (t.min() < 0 or t.max() >= num_classes):
        raise ParameterError("true label outside [0, num_classes)")
    if p.size and (p.min() < 0 or p.max() >= num_classes):
        raise ParameterError("predicted label outside [0, num_classes)")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def _validated(cm) -> np.ndarray:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ShapeError(f"confusion matrix must be square, got {cm.shape}")
    if cm.min() < 0:
        raise ParameterError("confusion matrix has negative cells")
    return cm.astype(np.float64)


def accuracy(cm) -> float:
    cm = _validated(cm)
    total = cm.sum()
    if total == 0:
        raise UndefinedMetricError("accuracy undefined on an empty evaluation")
    return float(np.trace(cm) / total)


def per_class_accuracy(cm) -> list:
    """Recall per class (diagonal over row sum); None where support is 0."""
    _, recall, _ = precision_recall_f1(cm)
    support = np.asarray(cm).sum(axis=1)
    return [float(r) if n > 0 else None for r, n in zip(recall, support)]


def precision_recall_f1(cm):
    """Per-class (precision, recall, f1) arrays with the zero conventions."""
    cm = _validated(cm)
    diag = np.diag(cm)
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    precision = np.where(col > 0, diag / np.maximum(col, 1), 0.0)
    recall = np.where(row > 0, diag / np.maximum(row, 1), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.maximum(pr, 1e-300), 0.0)
    return precision, recall, f1


def weighted_f1(cm) -> float:
    """Support-weighted mean of per-class F1 scores."""
    cm = _validated(cm)
    total = cm.sum()
    if total == 0:
        raise UndefinedMetricError("weighted F1 undefined on an empty evaluation")
    _, _, f1 = precision_recall_f1(cm)
    support = cm.sum(axis=1)
    return float(math.fsum((support / total * f1).tolist()))


def kl_divergence(p, q) -> float:
    """sum_i p_i * ln(p_i / max(q_i, eps)); terms with p_i = 0 contribute 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ShapeError(f"distributions must match, got {p.shape} and {q.shape}")
    terms = []
    for pi, qi in zip(p, q):
        if pi > 0.0:
            terms.append(pi * math.log(pi / max(qi, EPS_DIV)))
    return math.fsum(terms)


def evaluate_model(model, X, labels, num_classes=None) -> dict:
    """Full evaluation record for a labeled set, keys in RECORD_KEYS order.

    ``kl_alignment`` is KL(empirical label distribution || mean predicted
    distribution): how far the model's average prediction drifts from the
    true class mix of the evaluated data.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise UndefinedMetricError("cannot evaluate on an empty dataset")
    C = int(num_classes) if num_classes is not None else model.num_classes
    probs = model.forward_batch(X)
    preds = probs.argmax(axis=1)
    cm = confusion_matrix(labels, preds, C)
    label_dist = np.bincount(labels, minlength=C) / labels.size
    return {
        "accuracy": accuracy(cm),
        "weighted_f1": weighted_f1(cm),
        "per_class_accuracy": per_class_accuracy(cm),
        "kl_alignment": kl_divergence(label_dist, probs.mean(axis=0)),
        "confusion_matrix": cm.tolist(),
    }
