"""Effective-number weighting tests.

Closed-form targets were frozen from a 50-digit mpmath evaluation of
(1 - beta) / (1 - beta^n); the implementation must reproduce them in
float64 through the expm1/log1p formulation.
"""

import math

import numpy as np
import pytest

from qamatch.errors import ParameterError
from qamatch.numerics import MlpClassifier, weighted_ce_gradient
from qamatch.rebalance import class_weights, effective_number_weight


def balanced_loss(logits, targets, labels, weight_vector):
    """The trainer's labeled loss, mean_i w[y_i] H(t_i, p_i), for a one-layer
    model whose logits on row i of the identity are ``logits[i]``."""
    logits = np.asarray(logits, dtype=np.float64)
    model = MlpClassifier(logits.shape, [logits], [np.zeros(logits.shape[1])])
    weights = np.asarray(weight_vector)[np.asarray(labels)]
    loss, _ = weighted_ce_gradient(model, np.eye(logits.shape[0]), targets, weights)
    return loss


def test_beta_zero_means_no_reweighting():
    assert effective_number_weight(1, 0.0) == 1.0
    assert effective_number_weight(10_000, 0.0) == 1.0
    np.testing.assert_array_equal(class_weights([5, 50, 500], 0.0), np.ones(3))


def test_high_precision_value_at_beta_0_9999():
    # frozen oracle: (1-b)/(1-b^100) at b = 0.9999
    assert effective_number_weight(100, 0.9999) == pytest.approx(
        0.010049583329027618, abs=1e-15
    )


def test_beta_near_one_approaches_inverse_frequency():
    beta = 1.0 - 1e-12
    for n in (1, 4, 43, 1000):
        w = effective_number_weight(n, beta)
        assert w == pytest.approx(1.0 / n, rel=1e-6)


def test_beta_one_half_small_counts():
    # (1-0.5)/(1-0.5^3) = 0.5/0.875 = 4/7
    assert effective_number_weight(3, 0.5) == pytest.approx(4.0 / 7.0, rel=1e-15)
    np.testing.assert_allclose(
        class_weights([3, 1], 0.5), [4.0 / 7.0, 1.0], rtol=1e-15
    )


def test_weight_bounds_and_monotonicity():
    rng = np.random.default_rng(0)
    for beta in (0.1, 0.9, 0.999, 0.999999):
        counts = np.sort(rng.integers(1, 5000, size=20))
        w = class_weights(counts, beta)
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(w >= 1.0 / counts - 1e-12)
        # non-increasing in the class count
        assert np.all(np.diff(w) <= 1e-15)


def test_minority_keeps_largest_weight_under_count_scaling():
    counts = [40, 23, 13, 8]
    for scale in (1, 3, 10):
        w = class_weights([scale * c for c in counts], 0.99)
        assert int(np.argmax(w)) == 3


def test_zero_count_class_warns_and_gets_weight_one():
    with pytest.warns(RuntimeWarning):
        assert effective_number_weight(0, 0.9) == 1.0


def test_invalid_beta_rejected():
    for beta in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterError):
            effective_number_weight(10, beta)
    with pytest.raises(ParameterError):
        effective_number_weight(-1, 0.5)
    with pytest.raises(ParameterError):
        class_weights([], 0.5)


def test_rescaled_weights_sum_to_class_count():
    w = class_weights([43, 13, 4], 0.9999, rescale=True)
    assert float(w.sum()) == pytest.approx(3.0, rel=1e-12)
    raw = class_weights([43, 13, 4], 0.9999)
    # rescaling preserves ratios
    np.testing.assert_allclose(w / w[0], raw / raw[0], rtol=1e-12)


def test_balanced_loss_frozen_example():
    # counts [3,1], beta 0.5 -> weights [4/7, 1]; preds [0.8,0.2] / [0.4,0.6]
    # with labels 0 and 1; frozen 50-digit oracle for the weighted mean
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    preds = np.array([[0.8, 0.2], [0.4, 0.6]])
    loss = balanced_loss(np.log(preds), targets, [0, 1], class_weights([3, 1], 0.5))
    assert loss == pytest.approx(0.3191681122584838, abs=1e-14)


def test_balanced_loss_uniform_weights_is_plain_ce():
    rng = np.random.default_rng(1)
    preds = rng.dirichlet(np.ones(3), size=8)
    labels = rng.integers(0, 3, size=8)
    targets = np.eye(3)[labels]
    weighted = balanced_loss(np.log(preds), targets, labels, np.ones(3))
    plain = np.mean([-math.log(p[y]) for p, y in zip(preds, labels)])
    assert weighted == pytest.approx(plain, rel=1e-12)


def test_balanced_loss_zero_for_perfect_one_hot_predictions():
    # logits 1000 apart give exactly one-hot predictions
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = balanced_loss(1000.0 * targets, targets, [0, 1], np.array([2.0, 5.0]))
    assert loss == 0.0
