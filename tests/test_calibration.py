"""Calibration, sharpening, and running-marginal estimator tests."""

from collections import deque

import numpy as np
import pytest

from qamatch.calibration import DEFAULT_WINDOW, MarginalEstimator, calibrate, sharpen
from qamatch.errors import ParameterError, ShapeError

# frozen 50-digit oracle: [0.5,0.3,0.2] * [0.658,0.212,0.130] normalized
CALIBRATED = np.array([0.785953177257525, 0.151935021500239, 0.062111801242236])
# frozen oracle for sharpen(CALIBRATED, T=0.5)
PIPELINE = np.array([0.95820752401959, 0.035808160552455, 0.00598431542795468])


# ---------------------------------------------------------------------------
# running marginal estimator


def test_estimator_uniform_before_first_update():
    est = MarginalEstimator(4)
    np.testing.assert_array_equal(est.marginal(), np.full(4, 0.25))
    assert len(est) == 0
    assert est.window == DEFAULT_WINDOW


def test_estimator_single_push_returns_it():
    est = MarginalEstimator(2, window=8)
    est.update(np.array([0.9, 0.1]))
    np.testing.assert_array_equal(est.marginal(), [0.9, 0.1])


def test_estimator_ring_buffer_eviction():
    est = MarginalEstimator(2, window=2)
    est.update(np.array([1.0, 0.0]))
    est.update(np.array([0.0, 1.0]))
    np.testing.assert_allclose(est.marginal(), [0.5, 0.5], atol=1e-15)
    est.update(np.array([0.0, 1.0]))  # evicts the first entry
    np.testing.assert_allclose(est.marginal(), [0.0, 1.0], atol=1e-15)
    assert len(est) == 2


def test_estimator_matches_a_deque_of_the_last_window_batch_means():
    rng = np.random.default_rng(30)
    est = MarginalEstimator(3, window=7)
    recent = deque(maxlen=7)
    for k in range(1, 301):
        if k % 3:
            batch = rng.dirichlet(np.ones(3), size=int(rng.integers(1, 6)))
            recent.append(batch.mean(axis=0))
        else:
            batch = rng.dirichlet(np.ones(3))
            recent.append(batch)
        est.update(batch)
        assert len(est) == min(k, 7)
        np.testing.assert_allclose(
            est.marginal(), np.mean(np.stack(recent), axis=0), rtol=0, atol=1e-15
        )


def test_estimator_memory_follows_updates_not_window():
    # a window far past any run length must not allocate its rows up front
    est = MarginalEstimator(3, window=10**12)
    est.update(np.array([0.5, 0.25, 0.25]))
    est.update(np.array([[0.0, 0.5, 0.5]]))
    np.testing.assert_allclose(est.marginal(), [0.25, 0.375, 0.375], atol=1e-15)
    assert len(est) == 2


def test_estimator_averages_two_dim_batches():
    est = MarginalEstimator(2, window=4)
    est.update(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(est.marginal(), [0.5, 0.5], atol=1e-15)


def test_estimator_rejects_bad_input():
    est = MarginalEstimator(3)
    with pytest.raises(ShapeError):
        est.update(np.ones((2, 2)))
    with pytest.raises(ParameterError):
        est.update(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        MarginalEstimator(1)
    with pytest.raises(ParameterError):
        MarginalEstimator(3, window=0)


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_identity_when_prior_equals_marginal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        shared = rng.dirichlet(np.ones(4) * 2)
        np.testing.assert_allclose(calibrate(p, shared, shared), p, atol=1e-12)


def test_calibrate_frozen_example():
    prior = np.array([0.658, 0.212, 0.130])
    uniform = np.full(3, 1.0 / 3.0)
    out = calibrate(np.array([0.5, 0.3, 0.2]), prior, uniform)
    np.testing.assert_allclose(out, CALIBRATED, atol=1e-12)
    np.testing.assert_allclose(out, [0.7860, 0.1519, 0.0621], atol=1e-4)


def test_calibrate_preserves_one_hot():
    prior = np.array([0.2, 0.5, 0.3])
    marginal = np.array([0.6, 0.3, 0.1])
    out = calibrate(np.array([0.0, 1.0, 0.0]), prior, marginal)
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)


def test_calibrate_scale_invariance():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(3))
    prior = rng.dirichlet(np.ones(3))
    marginal = rng.dirichlet(np.ones(3))
    base = calibrate(p, prior, marginal)
    np.testing.assert_allclose(calibrate(p, prior * 7.0, marginal), base, atol=1e-12)
    np.testing.assert_allclose(calibrate(p, prior, marginal * 0.2), base, atol=1e-12)


def test_calibrate_batch_rows_independent():
    rng = np.random.default_rng(4)
    P = rng.dirichlet(np.ones(3), size=6)
    prior = rng.dirichlet(np.ones(3))
    marginal = rng.dirichlet(np.ones(3))
    batch = calibrate(P, prior, marginal)
    for i in range(6):
        np.testing.assert_allclose(batch[i], calibrate(P[i], prior, marginal), atol=1e-15)


def test_calibrate_dead_numerator_falls_back_to_raw():
    diagnostics = {}
    out = calibrate(
        np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]), diagnostics
    )
    np.testing.assert_array_equal(out, [1.0, 0.0])
    assert diagnostics["calibration_fallbacks"] == 1


def test_calibrate_shape_mismatch():
    with pytest.raises(ShapeError):
        calibrate(np.ones(3) / 3, np.ones(2) / 2, np.ones(2) / 2)


def test_calibrate_output_rows_are_distributions():
    rng = np.random.default_rng(5)
    for _ in range(100):
        out = calibrate(
            rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        )
        assert abs(out.sum() - 1.0) < 1e-12 and out.min() >= 0.0


# ---------------------------------------------------------------------------
# sharpening


def test_sharpen_t1_is_identity():
    p = np.array([0.3, 0.25, 0.45])
    out = sharpen(p, 1.0)
    np.testing.assert_array_equal(out, p)
    assert out is not p  # a copy, not the same array


def test_sharpen_uniform_fixed_point():
    u = np.full(5, 0.2)
    for T in (1.0, 0.5, 0.25, 0.1):
        np.testing.assert_allclose(sharpen(u, T), u, atol=1e-12)


def test_sharpen_frozen_two_class_value():
    # squares [0.49, 0.09] normalized: exactly [49/58, 9/58]
    out = sharpen(np.array([0.7, 0.3]), 0.5)
    np.testing.assert_allclose(out, [49.0 / 58.0, 9.0 / 58.0], atol=1e-12)
    np.testing.assert_allclose(out, [0.8448, 0.1552], atol=1e-4)


def test_sharpen_argmax_preserved():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        for T in (2.0, 1.0, 0.5, 0.1, 0.01):
            assert int(np.argmax(sharpen(p, T))) == int(np.argmax(p))


def test_sharpen_entropy_monotone_in_temperature():
    rng = np.random.default_rng(7)

    def entropy(q):
        nz = q[q > 0]
        return float(-(nz * np.log(nz)).sum())

    for _ in range(200):
        p = rng.dirichlet(np.ones(3))
        ents = [entropy(sharpen(p, T)) for T in (1.0, 0.5, 0.25, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(ents, ents[1:]))


def test_sharpen_near_zero_temperature_approaches_one_hot():
    out = sharpen(np.array([0.5, 0.3, 0.2]), 1e-3)
    assert out[0] >= 1.0 - 1e-6


def test_sharpen_handles_exact_zeros():
    out = sharpen(np.array([0.0, 1.0]), 0.5)
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_sharpen_rejects_nonpositive_temperature():
    for T in (0.0, -1.0):
        with pytest.raises(ParameterError):
            sharpen(np.array([0.5, 0.5]), T)


# ---------------------------------------------------------------------------
# composed pipeline: the trainer's pseudo-labels are sharpen(calibrate(...))


def test_pseudo_label_composition_frozen_value():
    prior = np.array([0.658, 0.212, 0.130])
    uniform = np.full(3, 1.0 / 3.0)
    out = sharpen(calibrate(np.array([0.5, 0.3, 0.2]), prior, uniform), 0.5)
    np.testing.assert_allclose(out, PIPELINE, atol=1e-12)


def test_pseudo_label_uniform_inputs_stay_uniform():
    u = np.full(3, 1.0 / 3.0)
    np.testing.assert_allclose(sharpen(calibrate(u, u, u), 0.5), u, atol=1e-12)
