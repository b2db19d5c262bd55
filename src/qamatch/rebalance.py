"""Effective-number class weighting for the labeled loss.

Each class is weighted by (1 - beta) / (1 - beta^n) where n is that class's
labeled count. As beta -> 1 the weight approaches 1/n (inverse frequency);
at beta = 0 all classes get weight 1. The denominator is evaluated as
-expm1(n * log1p(-(1 - beta))) so the weights stay accurate when beta is
within float ulps of 1 and n is large, where the naive power underflows
to 0/0 noise. The trainer applies the weight of each labeled example's
class inside its fused loss-and-gradient pass (numerics.weighted_ce_gradient).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ParameterError

# Weight assigned to a class with zero labeled examples. Such a class
# contributes no terms to the labeled loss anyway, so any finite value works;
# 1.0 keeps downstream reductions finite and is easy to reason about.
ZERO_COUNT_WEIGHT = 1.0


def effective_number_weight(count: int, beta: float) -> float:
    """Scalar weight (1 - beta) / (1 - beta^count) for one class."""
    if not 0.0 <= beta < 1.0:
        raise ParameterError(f"beta must lie in [0, 1), got {beta}")
    n = int(count)
    if n < 0:
        raise ParameterError(f"class count must be non-negative, got {count}")
    if n == 0:
        warnings.warn(
            "class has zero labeled examples; assigning weight 1.0",
            RuntimeWarning,
            stacklevel=2,
        )
        return ZERO_COUNT_WEIGHT
    if beta == 0.0:
        return 1.0
    omb = 1.0 - beta  # exact when beta in [0.5, 1); close enough below
    return omb / -math.expm1(n * math.log1p(-omb))


def class_weights(counts, beta: float, rescale: bool = False) -> np.ndarray:
    """Per-class weight vector for labeled counts.

    With ``rescale`` the raw weights are scaled so they sum to the number of
    classes, which keeps the labeled-loss magnitude comparable across beta
    settings. Off by default: the raw weights are what the loss definition
    uses, and downstream tests pin their closed-form values.
    """
    counts = [int(c) for c in counts]
    if not counts:
        raise ParameterError("need at least one class count")
    w = np.array([effective_number_weight(c, beta) for c in counts], dtype=np.float64)
    if rescale:
        w = w * (len(counts) / float(w.sum()))
    return w
