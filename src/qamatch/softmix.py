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

Draw order per batch of B examples is fixed: all B source indices first,
then B x 2 standard Gamma variates, row i giving lambda_i = g1 / (g1 + g2)
(a Beta(alpha, alpha) draw), which keeps the stream layout explicit and
easy to replay. When both variates of a row underflow to zero (tiny alpha)
its coefficient is NaN, so the step's loss is non-finite and the trainer
stops with a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError

# Index order for the perturbation-source draw: 0 = original,
# 1 = question-augmented view, 2 = context-augmented view.
VIEW_NAMES = ("original", "question", "context")


def draw_lambda(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Beta(alpha, alpha) variates from one (size, 2) standard Gamma draw."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    g = rng.standard_gamma(alpha, size=(size, 2))
    with np.errstate(invalid="ignore"):
        return g[:, 0] / (g[:, 0] + g[:, 1])


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
    1-row matrices. The draws are made for the whole batch at once.
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
    sources = rng.integers(0, len(VIEW_NAMES), size=n)
    lambdas = draw_lambda(alpha, rng, n)

    rows = np.arange(n)
    mixed = np.stack((vo, vq, vc))
    src_rows = mixed[sources, rows]
    # (v - src) * lambda + src, in place over the stacked views
    mixed -= src_rows
    mixed *= lambdas[:, None]
    mixed += src_rows
    # the source view's own blend is the identity combination; assign it
    # exactly so the equality is bitwise, not merely within rounding
    mixed[sources, rows] = src_rows
    return MixedViews(
        original=mixed[0],
        question=mixed[1],
        context=mixed[2],
        lambdas=lambdas,
        sources=sources,
    )
