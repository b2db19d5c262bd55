"""Dense feed-forward classifier with hand-derived gradients.

Everything is plain NumPy in float64. The classifier is a small MLP with
rectifier hidden layers and a softmax head; the gradient of the weighted
soft-target cross-entropy collapses to ``weight * (pred - target)`` at the
logits, which keeps the whole stack checkable against central finite
differences.

Scalar loss values are reduced with ``math.fsum`` (exact summation), so
permuting a batch cannot change the reported loss even in the last bit.
All randomness comes from a caller-supplied ``numpy.random.Generator``;
nothing here seeds or owns RNG state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DivergenceError, ParameterError, ShapeError

# Floor applied to predicted probabilities before taking logs. Guards the
# loss value on confident wrong predictions; gradients use the exact
# softmax-CE form (the floor is unreachable in any gradient test regime).
EPS_LOG = 1e-12

MODEL_MAGIC = b"QAM1"


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a single vector or a (B, C) matrix."""
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def fsum_nonneg(values) -> float:
    """``math.fsum`` of non-negative terms, +inf where the sum overflows.

    A non-finite loss stops training as a divergence; fsum itself raises
    OverflowError when finite terms add up past the float range.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


class MlpClassifier:
    """Fully-connected network: rectifier hidden layers, softmax output.

    ``weights[i]`` has shape (fan_in, fan_out) so the forward pass is
    ``x @ W + b``. ``layer_dims`` is (d_in, hidden..., num_classes).
    """

    def __init__(self, layer_dims, weights, biases):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ParameterError(f"bad layer dims {dims}")
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ShapeError(
                    f"layer {i}: weight {w.shape} / bias {b.shape} inconsistent "
                    f"with dims {dims[i]}->{dims[i + 1]}"
                )
        self.layer_dims = tuple(dims)
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]

    @classmethod
    def initialized(cls, layer_dims, rng: np.random.Generator) -> "MlpClassifier":
        """Uniform init in [-s, s], s = sqrt(6 / (fan_in + fan_out))."""
        dims = [int(d) for d in layer_dims]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            s = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-s, s, size=(fan_out,)))
        return cls(dims, weights, biases)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    def _forward_cached(self, X: np.ndarray):
        """Returns (activations, probs); activations[0] is the input batch."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeError(
                f"input batch shape {X.shape} does not match input dim {self.input_dim}"
            )
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else relu(z)
            acts.append(h)
        return acts, softmax(acts[-1])

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """(B, d_in) -> (B, C) rows of class probabilities."""
        return self._forward_cached(X)[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Single representation -> class probability vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.input_dim:
            raise ShapeError(
                f"input of length {x.shape} does not match input dim {self.input_dim}"
            )
        return self.forward_batch(x[None, :])[0]


@dataclass
class GradientSet:
    """One gradient array per parameter array, shape-congruent with the model."""

    weight_grads: list
    bias_grads: list

    @classmethod
    def zeros_like(cls, model: MlpClassifier) -> "GradientSet":
        return cls(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
        )

    def add_scaled(self, other: "GradientSet", factor: float = 1.0) -> "GradientSet":
        for gw, ow in zip(self.weight_grads, other.weight_grads):
            gw += factor * ow
        for gb, ob in zip(self.bias_grads, other.bias_grads):
            gb += factor * ob
        return self

    def check_finite(self) -> None:
        for i, (gw, gb) in enumerate(zip(self.weight_grads, self.bias_grads)):
            if not np.all(np.isfinite(gw)):
                raise DivergenceError(f"non-finite gradient in layer {i} weights")
            if not np.all(np.isfinite(gb)):
                raise DivergenceError(f"non-finite gradient in layer {i} biases")


def weighted_ce_gradient(model, X, targets, weights, denom=None):
    """Weighted soft-target cross-entropy and its exact gradients.

    loss = (1 / denom) * sum_i weights[i] * H(targets[i], forward(X[i]))
    with ``denom`` defaulting to the batch size (plain weighted mean).
    Targets may be soft distributions; they are treated as constants.
    """
    X = np.asarray(X, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 0:
        w = np.full(X.shape[0], float(w))
    if X.shape[0] != T.shape[0] or X.shape[0] != w.shape[0]:
        raise ShapeError("batch, targets and weights must have equal length")
    if w.size and w.min() < 0:
        raise ParameterError("example weights must be non-negative")
    n = X.shape[0]
    denom = float(n if denom is None else denom)

    acts, probs = model._forward_cached(X)
    logp = np.log(np.maximum(probs, EPS_LOG))
    per_example = -(T * logp).sum(axis=1)
    loss = fsum_nonneg((w * per_example).tolist()) / denom

    # d loss / d logits for softmax + cross-entropy with constant targets
    grad_z = (w / denom)[:, None] * (probs - T)
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        weight_grads[i] = acts[i].T @ grad_z
        bias_grads[i] = grad_z.sum(axis=0)
        if i > 0:
            grad_h = grad_z @ model.weights[i].T
            grad_z = grad_h * (acts[i] > 0)  # rectifier mask
    return loss, GradientSet(weight_grads, bias_grads)


def sgd_step(model, grads, lr, momentum, velocity=None):
    """Momentum SGD: v <- momentum*v + g; p <- p - lr*v. Mutates the model.

    Returns the updated velocity (created on first call). Raises if any
    gradient entry is non-finite, naming the offending parameter tensor.
    """
    if not lr > 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must lie in [0, 1), got {momentum}")
    grads.check_finite()
    if velocity is None:
        velocity = GradientSet.zeros_like(model)
    for w, b, gw, gb, vw, vb in zip(
        model.weights,
        model.biases,
        grads.weight_grads,
        grads.bias_grads,
        velocity.weight_grads,
        velocity.bias_grads,
    ):
        vw *= momentum
        vw += gw
        w -= lr * vw
        vb *= momentum
        vb += gb
        b -= lr * vb
    return velocity


def save_model(model: MlpClassifier, path) -> None:
    """Versioned binary format: magic, uint32 dim count, uint32 dims, then
    per layer the weight matrix (row-major) and bias as little-endian f64."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(model.layer_dims)))
        fh.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path) -> MlpClassifier:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: bad magic bytes, not a model file")
    off = 4
    (ndims,) = struct.unpack_from("<I", blob, off)
    off += 4
    if ndims < 2 or ndims > 64:
        raise DataFormatError(f"{path}: implausible layer count {ndims}")
    dims = struct.unpack_from(f"<{ndims}I", blob, off)
    off += 4 * ndims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        need = 8 * (fan_in * fan_out + fan_out)
        if off + need > len(blob):
            raise DataFormatError(f"{path}: truncated parameter data")
        w = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=off)
        off += 8 * fan_in * fan_out
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    if off != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - off} trailing bytes")
    return MlpClassifier(dims, weights, biases)
