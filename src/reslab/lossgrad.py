"""Cross-entropy and surrogate losses with closed-form network gradients.

The gradient of the network output with respect to layer l is rank one,

    grad_{W_l} f(x) = s_l * outer(x_{l-1}, g_l ⊙ sigma_l),
    g_l = vᵀ H_{l+1}^{L+1},   s_l = theta on layers 2..L, 1 at the ends,

so batch gradients are sums of rank-one terms, accumulated here by a single
matmul per layer in fixed sample order.  The backward recursion is one
stream that hands out each masked row block g_l ⊙ sigma_l as it forms it,
so a block serves the recursion and its layer's product and is dropped.
On it sits the gradient stream, which hands out each dense layer gradient
once the recursion has read that layer's weight: a GD or ascent step
finishes each layer as it arrives (its norms, then its update, which may
be written over the weight) and holds no gradient set.
``batch_output_grad`` keeps the stream's layers for the callers that need
them all.  The spectral norms behind ``h_k`` are taken on the layers by
the lab's one spectral-norm routine, ``numkit.spectral_norm``.  The loss, the
surrogate loss and the 0-1 error are defined here once, as functions of
the network outputs, so a caller that needs no gradient needs no trace
(``model.forward_outputs``).  A central
finite-difference oracle, which reports entries whose probes flip an
activation pattern (the output is only piecewise linear in each weight),
provides the independent check, and ``gradient_check`` is the one gate
built on it, run on the gradient stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .model import BatchTrace, NetworkParams, forward_batch, init_gaussian


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

    def spectral_norms(self) -> tuple:
        """Per-layer spectral norms (the ``h_k`` terms), from
        ``numkit.spectral_norm``: exact to rounding unless a layer's top
        singular values cluster.

        The only place ``h_k``'s norms are taken: ``bench/run.py`` wraps it
        to take them out of ``depth-sweep``'s ``ms_per_iter``, which a direct
        ``numkit.spectral_norm`` call would undo and deleting it would crash.
        """
        return tuple(numkit.spectral_norm(g) for g in self.layers)


def _backward_rows(params: NetworkParams, bt: BatchTrace):
    """Yields (l, g_l, g_l ⊙ sigma_l) for l = L+1 down to 1, with g_l =
    vᵀ H_{l+1}^{L+1} the per-sample backward rows; the last item carries
    the unmasked g_1."""
    g = np.broadcast_to(params.v, (bt.n, params.m_last))
    for l in range(params.depth + 1, 0, -1):
        masked = g * bt.pattern(l)
        yield l, g, masked
        if l > 1:
            back = masked @ params.weights[l - 1].T
            g = g + params.theta * back if params.skip(l) else back
            del back  # not held through the next yield


def _layer_gradients(params: NetworkParams, bt: BatchTrace, weights):
    """The gradient stream: yields (l, G_l) for l = L+1 down to 1, G_l =
    sum_i weights_i grad_{W_l} f(x_i), each in a fresh buffer the caller
    owns.  Layer l is yielded only once the backward pass has taken its
    back product with W_l, so the caller may overwrite W_l as it arrives."""
    w = np.asarray(weights, dtype=np.float64)
    done = []  # the layer above, held until its back product is taken
    for l, _, masked in _backward_rows(params, bt):
        if done:
            yield done.pop()  # W_{l+1} has been read
        a = w[:, None] * bt.activations[l - 1]
        if params.skip(l):  # the layer scale; 1.0 * a would be a, bit for bit
            a *= params.theta
        done.append((l, a.T @ masked))
        del a  # not held while the stream forms the next block
    yield done.pop()


def batch_output_grad(params: NetworkParams, bt: BatchTrace,
                      weights: np.ndarray) -> GradientSet:
    """Weighted sum over samples of output gradients: sum_i w_i grad f(x_i),
    the gradient stream's layers kept."""
    layers = [None] * (params.depth + 1)
    for l, g in _layer_gradients(params, bt, weights):
        layers[l - 1] = g
    return GradientSet(tuple(layers))


def empirical_loss(outputs: np.ndarray, ys: np.ndarray) -> float:
    """Empirical cross-entropy loss (the mean over samples) of the network
    outputs f(x_i).

    The one place the loss is computed: ``loss_terms`` calls it on a
    trace's outputs, and callers that need only the loss call it
    alone, with no backward pass and, through ``model.forward_outputs``,
    no trace.
    """
    ys = np.asarray(ys, dtype=np.float64)
    n = outputs.shape[0]
    if ys.shape != (n,):
        raise DataError(f"labels have shape {ys.shape}, expected ({n},)")
    if n == 0:
        raise DataError("empty batch")
    if not np.all(np.abs(ys) == 1.0):
        raise DataError("labels must be +1 or -1")
    return numkit.pairwise_sum(xent(ys * outputs)) / n


def surrogate(outputs: np.ndarray, ys: np.ndarray) -> tuple:
    """The surrogate loss of the outputs f(x_i), the mean of -l'(y f)
    through ``numkit.pairwise_sum`` and always inside (0, 1), with its
    per-sample terms -l'(y_i f(x_i)).  The lab's one definition of the
    surrogate."""
    terms = -xent_deriv(ys * outputs)
    return numkit.pairwise_sum(terms) / outputs.shape[0], terms


def zero_one_error(outputs: np.ndarray, ys: np.ndarray) -> float:
    """Fraction of samples with y f(x) <= 0: a tie at zero is an error."""
    return float(np.mean(ys * outputs <= 0.0))


def loss_terms(outputs: np.ndarray, ys: np.ndarray) -> tuple:
    """Everything a loss-gradient step needs from the outputs f(x_i): the
    loss from ``empirical_loss``, the surrogate from ``surrogate``, and the
    sample weights -l'(y_i f(x_i)) y_i / n whose weighted output gradients
    sum to the loss gradient."""
    loss = empirical_loss(outputs, ys)
    value, terms = surrogate(outputs, ys)
    return loss, value, -terms * ys / outputs.shape[0]


def loss_grad_from_trace(params: NetworkParams, bt: BatchTrace, ys: np.ndarray):
    """Loss, surrogate, and loss gradient reusing an existing forward trace:
    ``loss_terms`` weighting the one ``batch_output_grad``."""
    loss, value, weights = loss_terms(bt.outputs, ys)
    return loss, value, batch_output_grad(params, bt, weights)


def _perturbed(params: NetworkParams, l: int, i: int, j: int, delta: float) -> NetworkParams:
    w = [wl.copy() if k == l - 1 else wl for k, wl in enumerate(params.weights)]
    w[l - 1][i, j] += delta
    return params.with_weights(w)


def finite_diff_oracle(params: NetworkParams, x: np.ndarray, l: int,
                       i: int, j: int, h: float):
    """Central difference of the output along weight entry (i, j) of layer
    l, or None if either ±h probe flips an activation pattern bit.

    Flipped entries sit on a kink of the piecewise-linear output, where the
    central difference no longer matches the one-sided analytic gradient.
    A flip-free entry costs three forward passes: the base and the two
    probes.
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    base = forward_batch(params, x[None, :]).patterns
    outputs = []
    for delta in (+h, -h):
        probe = forward_batch(_perturbed(params, l, i, j, delta), x[None, :])
        if not all(map(np.array_equal, base, probe.patterns)):
            return None
        outputs.append(probe.outputs[0])
    return float(outputs[0] - outputs[1]) / (2.0 * h)


def gradient_check(rng: numkit.RngState) -> tuple:
    """The lab's gradient gate: the gradient stream GD takes, on a one-row
    trace with weight 1, against ``finite_diff_oracle`` (step 1e-4) at 4
    random entries of every layer of 20 small nets (d=4, L=6, m=16,
    theta=0.1/6), each at one unit input.  Net t is residual for even t
    and plain for odd t, with output width m_last = (16, 10, 24)[(t // 2)
    % 3]; it, its input and its entries come from ``rng``'s substreams
    ``net/{t}``, ``x/{t}`` and ``e/{t}``, the entries layer by layer from
    1 to L+1.

    Returns (checked, skipped, worst, passed): the flip-free entries
    compared, the entries skipped because a probe flipped a pattern, the
    worst relative error |fd - g| / max(|fd|, |g|, 1e-12) over the compared
    entries, and whether it is at most 1e-5 over at least 300 entries.
    """
    worst, checked, skipped = 0.0, 0, 0
    for t in range(20):
        params = init_gaussian(rng.substream(f"net/{t}"), 4, 6, 16,
                               (16, 10, 24)[(t // 2) % 3], 0.1 / 6,
                               ("residual", "plain")[t % 2])
        x = rng.substream(f"x/{t}").standard_normal(4)
        x /= np.linalg.norm(x)
        trace = forward_batch(params, x[None, :])
        entries = rng.substream(f"e/{t}")
        layers = dict(_layer_gradients(params, trace, np.ones(1)))
        for l in range(1, params.depth + 2):
            g = layers[l]
            for _ in range(4):
                i = int(entries.integers(0, g.shape[0]))
                j = int(entries.integers(0, g.shape[1]))
                fd = finite_diff_oracle(params, x, l, i, j, 1e-4)
                if fd is None:
                    skipped += 1
                    continue
                denom = max(abs(fd), abs(g[i, j]), 1e-12)
                worst = max(worst, abs(fd - g[i, j]) / denom)
                checked += 1
    return checked, skipped, float(worst), worst <= 1e-5 and checked >= 300
