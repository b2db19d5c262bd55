"""Latent-space mixing for consistency training.

Each unlabeled example carries three views of the same underlying input:
the original representation, a question-augmented one, and a
context-augmented one. Mixing picks ONE of those three views as the
perturbation source (uniformly at random, per example), draws a blend
coefficient lambda ~ Beta(alpha, alpha), and replaces every view v with

    mixed_v = lambda * v + (1 - lambda) * source

The source's own mixed copy is the degenerate combination and equals the
source exactly; it is assigned, not recomputed, so the equality holds
bit-for-bit. Targets are never mixed: all three blended inputs train
against the example's single pseudo-label. The trainer computes that
consistency loss, with its gradient, through numerics.weighted_ce_gradient.

Draw order per example is fixed: source index first, then lambda. The
Beta draw is realized from two standard Gamma variates, g1 / (g1 + g2),
which keeps the stream layout explicit and easy to replay. When both
variates underflow to zero (tiny alpha) the coefficient is NaN, so the
step's loss is non-finite and the trainer stops with a divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

# Index order for the perturbation-source draw: 0 = original,
# 1 = question-augmented view, 2 = context-augmented view.
VIEW_NAMES = ("original", "question", "context")


def draw_lambda(alpha: float, rng: np.random.Generator) -> float:
    """One Beta(alpha, alpha) variate via two standard Gamma draws."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    g1 = rng.standard_gamma(alpha)
    g2 = rng.standard_gamma(alpha)
    total = g1 + g2
    return g1 / total if total > 0 else math.nan


@dataclass
class MixedViews:
    """Blended view matrices plus the per-example draws that produced them.

    The three mixed arrays share the unlabeled batch's shape. ``sources``
    holds indices into VIEW_NAMES; row i of every mixed array was blended
    against view ``sources[i]`` of example i with coefficient ``lambdas[i]``.
    """

    original: np.ndarray
    question: np.ndarray
    context: np.ndarray
    lambdas: np.ndarray
    sources: np.ndarray

    def source_names(self) -> list:
        return [VIEW_NAMES[s] for s in self.sources]


def mix_views(
    original: np.ndarray,
    question: np.ndarray,
    context: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
) -> MixedViews:
    """Blend each example's three views against one of its own views.

    Accepts (B, d) matrices; a single example can be mixed by passing
    1-row matrices. Per-example draws happen in row order.
    """
    vo = np.asarray(original, dtype=np.float64)
    vq = np.asarray(question, dtype=np.float64)
    vc = np.asarray(context, dtype=np.float64)
    if not (vo.shape == vq.shape == vc.shape):
        raise ShapeError(
            f"views must share a shape, got {vo.shape}/{vq.shape}/{vc.shape}"
        )
    if vo.ndim != 2:
        raise ShapeError(f"expected (B, d) view matrices, got shape {vo.shape}")
    if vo.shape[0] == 0:
        raise ParameterError("cannot mix an empty batch")

    n = vo.shape[0]
    lambdas = np.empty(n)
    sources = np.empty(n, dtype=np.int64)
    for i in range(n):
        sources[i] = int(rng.integers(0, len(VIEW_NAMES)))
        lambdas[i] = draw_lambda(alpha, rng)

    views = (vo, vq, vc)
    src_rows = np.empty_like(vo)
    for s, view in enumerate(views):
        mask = sources == s
        src_rows[mask] = view[mask]

    lam = lambdas[:, None]
    mixed = [lam * v + (1.0 - lam) * src_rows for v in views]
    # the source view's own blend is the identity combination; assign it
    # exactly so the equality is bitwise, not merely within rounding
    for s in range(len(views)):
        mask = sources == s
        mixed[s][mask] = views[s][mask]
    return MixedViews(
        original=mixed[0],
        question=mixed[1],
        context=mixed[2],
        lambdas=lambdas,
        sources=sources,
    )
