"""Out-of-place reference forms of the classifier's hot path.

``qamatch.numerics`` computes the softmax, the forward pass and the
weighted cross-entropy gradient in place on buffers each call owns. These
are the same computations written one temporary per operation, with the
same operands in the same order and the same reductions; the tests assert
that both give the same bytes.
"""

import numpy as np

from qamatch.numerics import EPS_LOG, fsum_nonneg


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def forward_cached(model, X):
    """Returns (activations, probs); activations[0] is the input batch."""
    X = np.asarray(X, dtype=np.float64)
    acts = [X]
    h = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    return acts, softmax(acts[-1])


def weighted_ce_gradient(model, X, targets, weights, denom=None):
    """(loss, probs, weight_grads, bias_grads) of the weighted soft-target CE."""
    X = np.asarray(X, dtype=np.float64)
    T = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 0:
        w = np.full(X.shape[0], float(w))
    n = X.shape[0]
    denom = float(n if denom is None else denom)

    acts, probs = forward_cached(model, X)
    logp = np.log(np.maximum(probs, EPS_LOG))
    per_example = -(T * logp).sum(axis=1)
    loss = fsum_nonneg((w * per_example).tolist()) / denom

    grad_z = (w / denom)[:, None] * (probs - T)
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        weight_grads[i] = acts[i].T @ grad_z
        bias_grads[i] = grad_z.sum(axis=0)
        if i > 0:
            grad_h = grad_z @ model.weights[i].T
            grad_z = grad_h * (acts[i] > 0)
    return loss, probs, weight_grads, bias_grads
