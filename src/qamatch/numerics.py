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

from .data import atomic_open
from .errors import DataFormatError, DivergenceError, ParameterError, ShapeError

# Floor applied to predicted probabilities before taking logs. Guards the
# loss value on confident wrong predictions; gradients use the exact
# softmax-CE form (the floor is unreachable in any gradient test regime).
EPS_LOG = 1e-12

MODEL_MAGIC = b"QAM1"


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts a single vector or a (B, C) matrix.

    The row max is taken column by column: exact like ``max(axis=-1)``, and
    cheaper than numpy's reduction over a short last axis.
    """
    z = np.asarray(logits, dtype=np.float64)
    m = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(m, z[..., j : j + 1], out=m)
    e = z - m
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)  # rectifier
            acts.append(h)
        return acts, softmax(acts[-1])

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        """(B, d_in) -> (B, C) rows of class probabilities."""
        return self._forward_cached(X)[1]


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

    def add_scaled(self, other: "GradientSet") -> "GradientSet":
        for gw, ow in zip(self.weight_grads, other.weight_grads):
            gw += ow
        for gb, ob in zip(self.bias_grads, other.bias_grads):
            gb += ob
        return self

    def check_finite(self) -> None:
        for i, (gw, gb) in enumerate(zip(self.weight_grads, self.bias_grads)):
            # a finite sum means finite entries; only a non-finite one (which
            # may also come from finite entries that overflow) needs the scan
            if math.isfinite(gw.sum()) and math.isfinite(gb.sum()):
                continue
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
    n = X.shape[0]
    if n != T.shape[0] or (w.ndim and n != w.shape[0]):
        raise ShapeError("batch, targets and weights must have equal length")
    if n and w.min() < 0:
        raise ParameterError("example weights must be non-negative")
    denom = float(n if denom is None else denom)

    # Every elementwise step below runs in place on a buffer this call owns,
    # with the operands in the order of the out-of-place formulas in the
    # comments, so the results match them bit for bit.
    acts, probs = model._forward_cached(X)
    # per_example = -(T * log(max(probs, EPS_LOG))).sum(axis=1)
    terms = np.maximum(probs, EPS_LOG)
    np.log(terms, out=terms)
    np.multiply(T, terms, out=terms)
    per_example = terms.sum(axis=1)
    np.negative(per_example, out=per_example)
    loss = fsum_nonneg((w * per_example).tolist()) / denom

    # d loss / d logits for softmax + cross-entropy with constant targets:
    # grad_z = (w / denom)[:, None] * (probs - T)
    grad_z = probs
    grad_z -= T
    np.multiply((w / denom)[..., None], grad_z, out=grad_z)
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        weight_grads[i] = acts[i].T @ grad_z
        bias_grads[i] = grad_z.sum(axis=0)
        if i > 0:
            grad_z = grad_z @ model.weights[i].T
            grad_z *= acts[i] > 0  # rectifier mask
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
    with atomic_open(path, "wb") as fh:
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
    if len(blob) < 8:
        raise DataFormatError(f"{path}: truncated header")
    (ndims,) = struct.unpack_from("<I", blob, 4)
    if ndims < 2 or ndims > 64:
        raise DataFormatError(f"{path}: implausible layer count {ndims}")
    off = 8 + 4 * ndims
    if len(blob) < off:
        raise DataFormatError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{ndims}I", blob, 8)
    if 0 in dims:
        raise DataFormatError(f"{path}: zero layer dimension in {list(dims)}")
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
    if not all(np.isfinite(p).all() for p in (*weights, *biases)):
        raise DataFormatError(f"{path}: non-finite model parameters")
    return MlpClassifier(dims, weights, biases)
