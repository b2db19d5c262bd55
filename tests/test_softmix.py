"""Latent-space mixing tests: blend geometry, draw statistics, and the
consistency losses as the trainer computes them with weighted_ce_gradient."""

import math

import numpy as np
import pytest

from qamatch.errors import ParameterError, ShapeError
from qamatch.numerics import MlpClassifier, weighted_ce_gradient
from qamatch.softmix import VIEW_NAMES, draw_lambda, mix_views


def three_views(n, d, seed=0, jitter=0.3):
    """An original batch plus two jittered copies of it."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, d))
    return base, base + jitter * rng.normal(size=(n, d)), base + jitter * rng.normal(size=(n, d))


# ---------------------------------------------------------------------------
# lambda draws


def test_lambda_in_unit_interval_and_deterministic():
    draws = [draw_lambda(0.75, np.random.default_rng(1)) for _ in range(3)]
    assert draws[0] == draws[1] == draws[2]
    rng = np.random.default_rng(2)
    for _ in range(1000):
        lam = draw_lambda(0.75, rng)
        assert 0.0 <= lam <= 1.0


def test_lambda_symmetric_mean_at_alpha_three_quarters():
    rng = np.random.default_rng(3)
    draws = np.array([draw_lambda(0.75, rng) for _ in range(10_000)])
    assert abs(float(draws.mean()) - 0.5) < 0.02


def test_lambda_alpha_one_is_uniform():
    # Kolmogorov-Smirnov distance of the empirical CDF against U(0,1)
    rng = np.random.default_rng(4)
    draws = np.sort([draw_lambda(1.0, rng) for _ in range(10_000)])
    n = draws.size
    grid = np.arange(1, n + 1) / n
    ks = float(np.maximum(np.abs(grid - draws), np.abs(draws - (grid - 1.0 / n))).max())
    assert ks < 0.02


def test_lambda_rejects_nonpositive_alpha():
    for alpha in (0.0, -0.75):
        with pytest.raises(ParameterError):
            draw_lambda(alpha, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# mixing geometry


def test_source_view_copy_is_bitwise_exact():
    vo, vq, vc = three_views(64, 6, seed=5)
    mixed = mix_views(vo, vq, vc, 0.75, np.random.default_rng(6))
    views = (vo, vq, vc)
    blended = (mixed.original, mixed.question, mixed.context)
    for i, s in enumerate(mixed.sources):
        np.testing.assert_array_equal(blended[s][i], views[s][i])


def test_mixed_rows_lie_on_the_segment():
    vo, vq, vc = three_views(50, 4, seed=7)
    mixed = mix_views(vo, vq, vc, 0.75, np.random.default_rng(8))
    views = (vo, vq, vc)
    blended = (mixed.original, mixed.question, mixed.context)
    for i, s in enumerate(mixed.sources):
        src = views[s][i]
        for v, bl in zip(views, blended):
            lo = np.minimum(v[i], src) - 1e-12
            hi = np.maximum(v[i], src) + 1e-12
            assert np.all(bl[i] >= lo) and np.all(bl[i] <= hi)


def test_mixed_rows_match_the_convex_formula():
    vo, vq, vc = three_views(32, 5, seed=9)
    mixed = mix_views(vo, vq, vc, 0.75, np.random.default_rng(10))
    views = (vo, vq, vc)
    for i, (s, lam) in enumerate(zip(mixed.sources, mixed.lambdas)):
        src = views[s][i]
        np.testing.assert_allclose(
            mixed.question[i], lam * vq[i] + (1 - lam) * src, atol=1e-12
        )
        np.testing.assert_allclose(
            mixed.context[i], lam * vc[i] + (1 - lam) * src, atol=1e-12
        )


def test_identical_views_are_a_fixed_point():
    base = np.random.default_rng(11).normal(size=(8, 3))
    mixed = mix_views(base, base, base, 0.75, np.random.default_rng(12))
    for blended in (mixed.original, mixed.question, mixed.context):
        np.testing.assert_allclose(blended, base, atol=1e-12)


def test_source_frequencies_near_uniform():
    vo, vq, vc = three_views(10_000, 2, seed=13)
    mixed = mix_views(vo, vq, vc, 0.75, np.random.default_rng(14))
    freq = np.bincount(mixed.sources, minlength=3) / 10_000
    assert np.all(np.abs(freq - 1.0 / 3.0) < 0.02)
    assert set(mixed.source_names()) == set(VIEW_NAMES)


def test_mixing_spreads_points_beyond_the_unmixed_pair():
    # The pool of three blended views disperses more than the pool of
    # {original, question-augmented} alone: cross-view blends visit points
    # the raw views never occupy. Tight base cluster so jitter dominates.
    rng = np.random.default_rng(15)
    n, d, jitter = 6000, 8, 0.5
    base = 0.1 * rng.normal(size=(n, d))
    vq = base + jitter * rng.normal(size=(n, d))
    vc = base + jitter * rng.normal(size=(n, d))
    mixed = mix_views(base, vq, vc, 0.75, np.random.default_rng(115))

    def mean_pairwise_sq(pool):
        # over random pairs, E||a-b||^2 = 2 * mean sq deviation from centroid
        mu = pool.mean(axis=0)
        return 2.0 * float(((pool - mu) ** 2).sum(axis=1).mean())

    unmixed_pair = mean_pairwise_sq(np.concatenate([base, vq]))
    blended = mean_pairwise_sq(
        np.concatenate([mixed.original, mixed.question, mixed.context])
    )
    assert blended > 1.02 * unmixed_pair


def test_mix_views_determinism_and_validation():
    vo, vq, vc = three_views(16, 4, seed=17)
    a = mix_views(vo, vq, vc, 0.75, np.random.default_rng(18))
    b = mix_views(vo, vq, vc, 0.75, np.random.default_rng(18))
    np.testing.assert_array_equal(a.question, b.question)
    np.testing.assert_array_equal(a.lambdas, b.lambdas)
    with pytest.raises(ShapeError):
        mix_views(vo, vq[:, :3], vc, 0.75, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        mix_views(vo[0], vq[0], vc[0], 0.75, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        mix_views(vo[:0], vq[:0], vc[:0], 0.75, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# consistency losses


def anchor_loss(model, view, targets):
    return weighted_ce_gradient(model, view, targets, 1.0)[0]


def mix_loss(model, mixed, targets):
    views = (mixed.original, mixed.question, mixed.context)
    return math.fsum(anchor_loss(model, view, targets) for view in views)


def test_mix_loss_is_three_entropies_at_the_fixed_point():
    # zero model predicts uniformly; uniform pseudo-targets give H(u, u)
    d, C = 4, 3
    model = MlpClassifier((d, C), [np.zeros((d, C))], [np.zeros(C)])
    base = np.random.default_rng(19).normal(size=(6, d))
    mixed = mix_views(base, base, base, 0.75, np.random.default_rng(20))
    targets = np.full((6, C), 1.0 / C)
    loss = mix_loss(model, mixed, targets)
    assert loss == pytest.approx(3.0 * math.log(C), rel=1e-12)


def test_anchor_loss_uniform_case():
    d, C = 5, 3
    model = MlpClassifier((d, C), [np.zeros((d, C))], [np.zeros(C)])
    X = np.random.default_rng(21).normal(size=(4, d))
    targets = np.full((4, C), 1.0 / C)
    assert anchor_loss(model, X, targets) == pytest.approx(
        math.log(C), rel=1e-12
    )


def test_losses_match_scalar_recomputation():
    rng = np.random.default_rng(22)
    model = MlpClassifier.initialized((4, 6, 3), rng)
    vo, vq, vc = three_views(5, 4, seed=23)
    mixed = mix_views(vo, vq, vc, 0.75, np.random.default_rng(24))
    targets = rng.dirichlet(np.ones(3), size=5)

    def ce(t, p):
        return -sum(ti * math.log(max(pi, 1e-12)) for ti, pi in zip(t, p))

    expected_m = 0.0
    for view in (mixed.original, mixed.question, mixed.context):
        expected_m += sum(ce(t, model.forward(x)) for t, x in zip(targets, view)) / 5
    assert mix_loss(model, mixed, targets) == pytest.approx(
        expected_m, abs=1e-10
    )
    expected_c = sum(ce(t, model.forward(x)) for t, x in zip(targets, vq)) / 5
    assert anchor_loss(model, vq, targets) == pytest.approx(
        expected_c, abs=1e-10
    )


def test_losses_nonnegative_and_zero_at_matching_one_hot():
    d, C = 3, 2
    # drive the model to a near-one-hot prediction with a big bias
    model = MlpClassifier((d, C), [np.zeros((d, C))], [np.array([50.0, -50.0])])
    X = np.zeros((2, d))
    targets = np.array([[1.0, 0.0], [1.0, 0.0]])
    mixed = mix_views(X, X, X, 0.75, np.random.default_rng(25))
    assert mix_loss(model, mixed, targets) == pytest.approx(0.0, abs=1e-12)
    assert anchor_loss(model, X, targets) == pytest.approx(0.0, abs=1e-12)
