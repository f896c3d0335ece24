"""Cross-entropy and surrogate losses with closed-form network gradients.

The gradient of the network output with respect to layer l is rank one,

    grad_{W_l} f(x) = s_l * outer(x_{l-1}, g_l ⊙ sigma_l),
    g_l = vᵀ H_{l+1}^{L+1},   s_l = theta on layers 2..L, 1 at the ends,

so batch gradients are sums of rank-one terms, accumulated here by a single
matmul per layer in fixed sample order.  Each masked backward row block
g_l ⊙ sigma_l is formed once and serves both the backward recursion and
the layer gradient.  Only the dense layer gradients are kept, not their
factors; the spectral norms behind ``h_k`` are taken on them by the lab's
one spectral-norm routine, ``numkit.spectral_norm``.  A central
finite-difference oracle (with a pattern-flip detector, since the output is
only piecewise linear in each weight) provides the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .model import BatchTrace, NetworkParams, forward_batch


class DataError(ValueError):
    """Labels or samples violate the loss contract."""


def xent(z):
    """Cross-entropy loss log(1 + exp(-z)), overflow-safe for any float z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(out) if out.ndim == 0 else out

def xent_deriv(z):
    """Derivative of the cross-entropy loss: -1 / (1 + exp(z)), in (-1, 0)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    ez = np.exp(-np.abs(z))
    out[pos] = -ez[pos] / (1.0 + ez[pos])
    out[~pos] = -1.0 / (1.0 + ez[~pos])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GradientSet:
    """Per-layer gradient matrices matching the weight shapes."""
    layers: tuple

    def frobenius_norms(self) -> tuple:
        return tuple(numkit.frobenius_norm(g) for g in self.layers)

    def spectral_norms(self) -> tuple:
        """Per-layer spectral norms (the ``h_k`` terms), from
        ``numkit.spectral_norm``: exact to rounding unless a layer's top
        singular values cluster.

        The only place ``h_k``'s norms are taken, so that timing this
        method accounts for all of their cost.
        """
        return tuple(numkit.spectral_norm(g) for g in self.layers)


def _backward_rows(params: NetworkParams, bt: BatchTrace) -> tuple:
    """Per-sample backward rows g_l = vᵀ H_{l+1}^{L+1}, masked by the
    activation patterns: masked[l] = g_l ⊙ sigma_l for l = 1..L+1
    (masked[0] unused), and the unmasked g_1."""
    L = params.depth
    masked = [None] * (L + 2)
    g = np.broadcast_to(params.v, (bt.n, params.m_last))
    for l in range(L + 1, 1, -1):
        masked[l] = g * bt.pattern(l)
        back = masked[l] @ params.weights[l - 1].T
        g = g + params.theta * back if params.arch == "residual" and l <= L else back
    masked[1] = g * bt.pattern(1)
    return masked, g


def output_gradient(params: NetworkParams, trace: BatchTrace, l: int) -> np.ndarray:
    """Analytic gradient of the network output with respect to W_l at the
    input of a one-row trace."""
    L = params.depth
    if not 1 <= l <= L + 1:
        raise IndexError(f"layer {l} out of range 1..{L + 1}")
    b = _backward_rows(params, trace)[0][l][0]
    a = trace.activations[l - 1][0]
    return params.layer_scale(l) * np.outer(a, b)


def batch_output_grad(params: NetworkParams, bt: BatchTrace,
                      weights: np.ndarray) -> GradientSet:
    """Weighted sum over samples of output gradients: sum_i w_i grad f(x_i)."""
    masked = _backward_rows(params, bt)[0]
    layers = []
    w = np.asarray(weights, dtype=np.float64)
    for l in range(1, params.depth + 2):
        a = params.layer_scale(l) * (w[:, None] * bt.activations[l - 1])
        layers.append(a.T @ masked[l])
    return GradientSet(tuple(layers))


def _as_xy(dataset):
    if hasattr(dataset, "xs") and hasattr(dataset, "ys"):
        return np.asarray(dataset.xs, dtype=np.float64), np.asarray(dataset.ys, dtype=np.float64)
    xs, ys = dataset
    return np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)


def loss_from_trace(bt: BatchTrace, ys: np.ndarray) -> float:
    """Empirical cross-entropy loss (the mean over samples) of an existing
    forward trace.

    The one place the loss is computed: ``loss_grad_from_trace`` calls it,
    and callers that need only the loss call it alone, with no backward
    pass.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape != (bt.n,):
        raise DataError(f"labels have shape {ys.shape}, expected ({bt.n},)")
    if not np.all(np.abs(ys) == 1.0):
        raise DataError("labels must be +1 or -1")
    return numkit.pairwise_sum(xent(ys * bt.outputs)) / bt.n


def loss_grad_from_trace(params: NetworkParams, bt: BatchTrace, ys: np.ndarray):
    """Loss, surrogate, and loss gradient reusing an existing forward trace.

    The loss comes from ``loss_from_trace``; the surrogate, the mean of
    -l'(y f) and always inside (0, 1), and the gradient add the loss
    derivative and one ``batch_output_grad``.
    """
    loss = loss_from_trace(bt, ys)
    ys = np.asarray(ys, dtype=np.float64)
    z = ys * bt.outputs
    n = bt.n
    lderiv = xent_deriv(z)
    surrogate = -numkit.pairwise_sum(lderiv) / n
    grads = batch_output_grad(params, bt, lderiv * ys / n)
    return loss, surrogate, grads


def batch_loss_grad(params: NetworkParams, dataset):
    """Empirical loss, surrogate, and full loss gradient over a dataset."""
    xs, ys = _as_xy(dataset)
    if xs.shape[0] == 0:
        raise DataError("empty dataset")
    bt = forward_batch(params, xs)
    return loss_grad_from_trace(params, bt, ys)


def _perturbed(params: NetworkParams, l: int, i: int, j: int, delta: float) -> NetworkParams:
    w = [wl.copy() if k == l - 1 else wl for k, wl in enumerate(params.weights)]
    w[l - 1][i, j] += delta
    return params.with_weights(w)


def finite_diff_oracle(params: NetworkParams, x: np.ndarray, l: int,
                       i: int, j: int, h: float) -> float:
    """Central difference of the output along weight entry (i, j) of layer l."""
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    f_plus = forward_batch(_perturbed(params, l, i, j, +h), x[None, :]).outputs[0]
    f_minus = forward_batch(_perturbed(params, l, i, j, -h), x[None, :]).outputs[0]
    return float(f_plus - f_minus) / (2.0 * h)


def perturbation_flips(params: NetworkParams, x: np.ndarray, l: int,
                       i: int, j: int, h: float) -> bool:
    """True if the ±h probes of entry (i, j) flip any activation pattern bit.

    Flipped entries sit on a kink of the piecewise-linear output, where the
    central difference no longer matches the one-sided analytic gradient.
    """
    base = forward_batch(params, x[None, :])
    for delta in (+h, -h):
        pert = forward_batch(_perturbed(params, l, i, j, delta), x[None, :])
        if not all(map(np.array_equal, base.patterns, pert.patterns)):
            return True
    return False
