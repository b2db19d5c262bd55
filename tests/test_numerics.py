"""Classifier forward/backward, optimizer, and model serialization tests.

The gradient checks compare every analytic partial derivative against
central finite differences on small random models; loss values are checked
for exact batch-order invariance (the reductions use exact summation).
"""

import math

import numpy as np
import numerics_oracle as oracle
import pytest
from conftest import forward_one

from qamatch.errors import (
    DataFormatError,
    DivergenceError,
    ParameterError,
    ShapeError,
)
from qamatch.numerics import (
    EPS_LOG,
    GradientSet,
    MlpClassifier,
    load_model,
    save_model,
    softmax,
    sgd_step,
    weighted_ce_gradient,
)


def tiny_model(seed=0, dims=(4, 5, 3)):
    return MlpClassifier.initialized(dims, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forward pass


def test_zero_parameters_give_uniform_output():
    dims = (6, 4, 3)
    model = MlpClassifier(
        dims,
        [np.zeros((6, 4)), np.zeros((4, 3))],
        [np.zeros(4), np.zeros(3)],
    )
    p = forward_one(model, np.random.default_rng(0).normal(size=6))
    np.testing.assert_allclose(p, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_of_known_logits():
    np.testing.assert_allclose(
        softmax(np.array([0.0, 0.0, 0.0])), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
    )
    # single linear layer with logits [ln 2, 0] -> exactly [2/3, 1/3]
    model = MlpClassifier(
        (1, 2), [np.array([[0.0, 0.0]])], [np.array([math.log(2.0), 0.0])]
    )
    np.testing.assert_allclose(forward_one(model, np.array([1.0])), [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_shift_invariance_in_final_bias():
    model = tiny_model(3)
    x = np.random.default_rng(4).normal(size=model.input_dim)
    before = forward_one(model, x)
    model.biases[-1] += 17.5
    np.testing.assert_allclose(forward_one(model, x), before, atol=1e-12)


def test_forward_rejects_wrong_width():
    model = tiny_model()
    with pytest.raises(ShapeError):
        forward_one(model, np.zeros(model.input_dim + 1))
    with pytest.raises(ShapeError):
        model.forward_batch(np.zeros((2, model.input_dim + 2)))


def test_forward_output_is_valid_distribution():
    model = tiny_model(7, dims=(8, 6, 4))
    X = np.random.default_rng(8).normal(scale=30.0, size=(64, 8))
    P = model.forward_batch(X)
    assert np.all(np.isfinite(P))
    assert P.min() >= 0.0 and P.max() <= 1.0
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-9)


def test_constructor_validates_shapes():
    with pytest.raises(ShapeError):
        MlpClassifier((2, 3), [np.zeros((2, 4))], [np.zeros(3)])
    with pytest.raises(ParameterError):
        MlpClassifier((2,), [], [])


def test_initialized_respects_uniform_bounds():
    dims = (10, 7, 3)
    model = MlpClassifier.initialized(dims, np.random.default_rng(11))
    for fan_in, fan_out, w, b in zip(dims[:-1], dims[1:], model.weights, model.biases):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= s
        assert np.abs(b).max() <= s


# ---------------------------------------------------------------------------
# loss and gradients


def test_cross_entropy_handles_hard_zeros():
    # a confident wrong prediction hits the log floor instead of -inf
    model = MlpClassifier((1, 2), [np.zeros((1, 2))], [np.array([0.0, 1000.0])])
    assert forward_one(model, np.zeros(1))[0] == 0.0
    val, _ = weighted_ce_gradient(model, np.zeros((1, 1)), np.array([[1.0, 0.0]]), 1.0)
    assert val == pytest.approx(-math.log(EPS_LOG))


def test_loss_is_entropy_when_prediction_matches_target():
    model = tiny_model(1)
    x = np.random.default_rng(2).normal(size=model.input_dim)
    p = forward_one(model, x)
    loss, grads = weighted_ce_gradient(model, x[None, :], p[None, :], np.ones(1))
    entropy = -float(np.sum(p * np.log(p)))
    assert loss == pytest.approx(entropy, rel=1e-12)
    # softmax-CE gradient at the logits is (pred - target) = 0
    assert float(np.abs(grads.bias_grads[-1]).max()) < 1e-15


def test_zero_weights_zero_everything():
    model = tiny_model(5)
    X = np.random.default_rng(6).normal(size=(3, model.input_dim))
    T = np.tile(np.array([1.0, 0.0, 0.0]), (3, 1))
    loss, grads = weighted_ce_gradient(model, X, T, np.zeros(3))
    assert loss == 0.0
    for g in grads.weight_grads + grads.bias_grads:
        assert not np.any(g)


def finite_difference_grads(model, X, T, w, denom=None, step=1e-5):
    """Central finite differences of the same loss, parameter by parameter."""
    fd = GradientSet.zeros_like(model)
    for params, grads in (
        (model.weights, fd.weight_grads),
        (model.biases, fd.bias_grads),
    ):
        for arr, garr in zip(params, grads):
            flat = arr.ravel()
            gflat = garr.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi, _ = weighted_ce_gradient(model, X, T, w, denom)
                flat[j] = orig - step
                lo, _ = weighted_ce_gradient(model, X, T, w, denom)
                flat[j] = orig
                gflat[j] = (hi - lo) / (2.0 * step)
    return fd


def assert_grads_close(analytic, fd, rel=1e-6):
    for ga, gf in zip(
        analytic.weight_grads + analytic.bias_grads,
        fd.weight_grads + fd.bias_grads,
    ):
        denom = np.maximum(np.abs(gf), 1e-3)
        worst = float((np.abs(ga - gf) / denom).max())
        assert worst < rel, f"gradient mismatch, worst relative error {worst}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = MlpClassifier.initialized((5, 6, 3), rng)
    X = rng.normal(size=(4, 5))
    T = rng.dirichlet(np.ones(3), size=4)  # soft targets
    w = rng.uniform(0.1, 2.0, size=4)
    _, analytic = weighted_ce_gradient(model, X, T, w, denom=7.0)
    fd = finite_difference_grads(model, X, T, w, denom=7.0)
    assert_grads_close(analytic, fd)


def test_gradient_batch_weights_must_be_nonnegative():
    model = tiny_model()
    X = np.zeros((1, model.input_dim))
    T = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ParameterError):
        weighted_ce_gradient(model, X, T, np.array([-0.5]))
    with pytest.raises(ShapeError):
        weighted_ce_gradient(model, X, T, np.ones(2))


def test_loss_invariant_under_batch_permutation():
    model = tiny_model(9, dims=(6, 8, 4))
    rng = np.random.default_rng(10)
    X = rng.normal(size=(32, 6))
    T = rng.dirichlet(np.ones(4), size=32)
    w = rng.uniform(0.0, 3.0, size=32)
    loss, _ = weighted_ce_gradient(model, X, T, w)
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(32)
        loss_p, _ = weighted_ce_gradient(model, X[perm], T[perm], w[perm])
        assert loss_p == loss  # bitwise, thanks to exact summation


# ---------------------------------------------------------------------------
# in-place hot path against its out-of-place oracle, byte for byte


def _oracle_case(hidden, batch, soft, per_row, poison=None):
    rng = np.random.default_rng(1000 * len(hidden) + batch)
    model = MlpClassifier.initialized((16, *hidden, 3), rng)
    X = rng.normal(scale=2.0, size=(batch, 16))
    if soft:
        T = rng.dirichlet(np.full(3, 0.5), size=batch)
    else:
        T = np.eye(3)[rng.integers(0, 3, size=batch)]
    w = rng.uniform(0.1, 3.0, size=batch) if per_row else 0.75
    if poison is not None:
        X[0, 3] = poison
        X[-1, 0] = -poison
    return model, X, T, w


def _bytes(arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@pytest.mark.parametrize("poison", [None, np.inf, np.nan])
@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("batch", [1, 60, 256])
@pytest.mark.parametrize("hidden", [(64,), (32, 16), ()])
def test_hot_path_is_bitwise_equal_to_the_out_of_place_oracle(hidden, batch, soft, per_row, poison):
    model, X, T, w = _oracle_case(hidden, batch, soft, per_row, poison)
    X_before = X.tobytes()
    with np.errstate(invalid="ignore"):
        want_loss, want_probs, want_gw, want_gb = oracle.weighted_ce_gradient(
            model, X, T, w, denom=batch + 4
        )
        loss, grads = weighted_ce_gradient(model, X, T, w, denom=batch + 4)
        probs = model.forward_batch(X)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert probs.tobytes() == want_probs.tobytes()
    assert _bytes(grads.weight_grads) == _bytes(want_gw)
    assert _bytes(grads.bias_grads) == _bytes(want_gb)
    assert X.tobytes() == X_before
    if poison is not None:
        assert np.isnan(probs).any() and np.isnan(want_probs).any()


def test_softmax_matches_the_oracle_on_vectors_and_matrices():
    rng = np.random.default_rng(31)
    for z in (
        rng.normal(scale=5.0, size=3),
        rng.normal(scale=5.0, size=(7, 3)),
        rng.normal(scale=5.0, size=(5, 11)),
        np.array([-np.inf, 0.0, -2.0]),
        np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [np.nan, 1.0, 2.0]]),
    ):
        with np.errstate(invalid="ignore"):
            got, want = softmax(z), oracle.softmax(z)
        assert got.shape == z.shape
        assert got.tobytes() == want.tobytes()
    z = rng.normal(size=(4, 3))
    before = z.tobytes()
    softmax(z)
    assert z.tobytes() == before


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_plain_step():
    model = MlpClassifier((1, 2), [np.array([[1.0, 1.0]])], [np.zeros(2)])
    grads = GradientSet([np.array([[0.5, 0.0]])], [np.zeros(2)])
    sgd_step(model, grads, lr=1.0, momentum=0.0)
    np.testing.assert_allclose(model.weights[0], [[0.5, 1.0]], atol=1e-15)


def test_sgd_momentum_two_step_hand_values():
    # v1 = 1, p1 = -0.1; v2 = 0.9 + 1 = 1.9, p2 = -0.1 - 0.19 = -0.29
    model = MlpClassifier((1, 2), [np.zeros((1, 2))], [np.zeros(2)])
    grads = GradientSet([np.ones((1, 2))], [np.zeros(2)])
    vel = sgd_step(model, grads, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(model.weights[0], [[-0.1, -0.1]], atol=1e-15)
    sgd_step(model, grads, lr=0.1, momentum=0.9, velocity=vel)
    np.testing.assert_allclose(vel.weight_grads[0], [[1.9, 1.9]], atol=1e-15)
    np.testing.assert_allclose(model.weights[0], [[-0.29, -0.29]], atol=1e-15)


def test_sgd_zero_gradient_is_identity():
    model = tiny_model(12)
    before = [w.copy() for w in model.weights]
    sgd_step(model, GradientSet.zeros_like(model), lr=0.5, momentum=0.9)
    for w, pre in zip(model.weights, before):
        np.testing.assert_array_equal(w, pre)


def test_sgd_rejects_bad_hyperparameters_and_nan_grads():
    model = tiny_model()
    grads = GradientSet.zeros_like(model)
    with pytest.raises(ParameterError):
        sgd_step(model, grads, lr=0.0, momentum=0.9)
    with pytest.raises(ParameterError):
        sgd_step(model, grads, lr=0.1, momentum=1.0)
    grads.weight_grads[0][0, 0] = np.nan
    with pytest.raises(DivergenceError) as err:
        sgd_step(model, grads, lr=0.1, momentum=0.0)
    assert "layer 0" in str(err.value)


def test_check_finite_accepts_finite_gradients_whose_sum_overflows():
    model = tiny_model()
    grads = GradientSet.zeros_like(model)
    grads.weight_grads[0][0, 0] = 1e308
    grads.weight_grads[0][1, 2] = 1e308
    grads.bias_grads[1][:2] = 1e308
    with np.errstate(over="ignore"):
        grads.check_finite()


@pytest.mark.parametrize(
    "poisoned, message",
    [
        ([("bias", 0, np.nan), ("weight", 1, np.inf)], "layer 0 biases"),
        ([("weight", 1, np.inf), ("bias", 1, np.nan)], "layer 1 weights"),
        ([("weight", 1, -np.inf), ("bias", 0, np.nan), ("weight", 0, np.inf)], "layer 0 weights"),
        ([("bias", 1, np.nan)], "layer 1 biases"),
    ],
)
def test_check_finite_names_the_lowest_layer_weights_first(poisoned, message):
    model = tiny_model()
    grads = GradientSet.zeros_like(model)
    for kind, layer, value in poisoned:
        target = grads.weight_grads if kind == "weight" else grads.bias_grads
        target[layer].flat[-1] = value
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
        grads.check_finite()
    assert str(err.value) == f"non-finite gradient in {message}"


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip_is_bitwise(tmp_path):
    model = tiny_model(21, dims=(7, 5, 4, 3))
    path = tmp_path / "model.qam"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_dims == model.layer_dims
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


def test_load_rejects_corrupted_files(tmp_path):
    model = tiny_model(22)
    path = tmp_path / "model.qam"
    save_model(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.qam"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError):
        load_model(bad_magic)

    truncated = tmp_path / "trunc.qam"
    truncated.write_bytes(blob[:-9])
    with pytest.raises(DataFormatError):
        load_model(truncated)

    trailing = tmp_path / "trail.qam"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataFormatError):
        load_model(trailing)
