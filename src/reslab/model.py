"""Scaled-skip residual ReLU network and a plain (no-skip) baseline.

Architecture, for input x on the unit sphere:

    x_1     = relu(W_1ᵀ x)
    x_l     = x_{l-1} + theta * relu(W_lᵀ x_{l-1})     l = 2..L   (residual)
    x_{L+1} = relu(W_{L+1}ᵀ x_L)
    f(x)    = vᵀ x_{L+1}

with v a fixed ±1 vector (first half +1, second half −1).  The plain
baseline replaces every layer by x_l = relu(W_lᵀ x_{l-1}).

Forward evaluation is one stream over the layers that hands out each
layer's activations with its binary activation pattern sigma_l(x) (bit j
set iff the pre-activation of unit j is strictly positive).  A trace keeps
every layer and holds no weight, so every consumer takes the net beside
it; a caller that reads only outputs, or one layer at a time, holds two.
One layer's step, ``_forward_step``, is the forward arithmetic, and a
caller whose weights arrive one layer at a time runs it itself.
``interlayer_norms`` takes the spectral norms of the frozen-pattern
interlayer operators H_l^{l'}, the linearization the patterns define from
layer l to layer l'.  Their rows vᵀ H_l^{L+1} are ``lossgrad``'s backward
rows.  Checkpoint files keep their fields, layer order and content checks
here, and their framing in ``data``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import data, numkit
from .numkit import RngState, Vector

ARCH_RESIDUAL = "residual"
ARCH_PLAIN = "plain"


class ConfigError(ValueError):
    """A network, training or probe hyperparameter outside its valid range."""


class ShapeError(ValueError):
    """Operand dimensions inconsistent with the network."""


def output_vector(m_last: int) -> Vector:
    """The fixed top vector: first half +1, second half −1."""
    if m_last <= 0 or m_last % 2 != 0:
        raise ConfigError(f"output width must be positive and even, got {m_last}")
    v = np.ones(m_last)
    v[m_last // 2:] = -1.0
    return v


@dataclass(frozen=True)
class NetworkParams:
    """All layer weights plus architectural constants.

    ``weights[i]`` is W_{i+1} with shape (m_i, m_{i+1}) where m_0 = d.
    Hidden widths m_1..m_L must be equal; the output width m_{L+1} is even.
    """

    weights: tuple
    theta: float
    v: Vector
    arch: str = ARCH_RESIDUAL

    def __post_init__(self):
        if self.arch not in (ARCH_RESIDUAL, ARCH_PLAIN):
            raise ConfigError(f"unknown arch {self.arch!r}")
        if len(self.weights) < 2:
            raise ConfigError("depth must be >= 1: need at least W_1 and W_{L+1}")
        widths = [w.shape[1] for w in self.weights]
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[0] != widths[i - 1]:
                raise ConfigError(
                    f"layer {i + 1} expects {widths[i - 1]} inputs, "
                    f"weight has {self.weights[i].shape[0]} rows")
        hidden = widths[:-1]
        if any(m != hidden[0] for m in hidden):
            raise ConfigError(f"hidden widths must all match, got {hidden}")
        if widths[-1] % 2 != 0:
            raise ConfigError(f"output width must be even, got {widths[-1]}")
        if self.v.shape != (widths[-1],):
            raise ConfigError("output vector length does not match last width")
        if not self.theta >= 0:  # a NaN theta fails too
            raise ConfigError(f"theta must be nonnegative, got {self.theta}")
        if self.arch == ARCH_RESIDUAL and self.theta * self.depth > 1.0 + 1e-12:
            raise ConfigError(
                f"residual scaling too large: theta*L = {self.theta * self.depth:.4g} > 1")

    @property
    def depth(self) -> int:
        """L: number of layers before the final fully connected one."""
        return len(self.weights) - 1

    @property
    def d(self) -> int:
        return self.weights[0].shape[0]

    @cached_property
    def widths(self) -> tuple:
        """(m_1, ..., m_{L+1})."""
        return tuple(w.shape[1] for w in self.weights)

    @property
    def m(self) -> int:
        """Network width: min of the last two layer widths."""
        return min(self.widths[-2], self.widths[-1])

    @property
    def m_last(self) -> int:
        return self.widths[-1]

    def dim_at(self, l: int) -> int:
        """Activation dimension at layer l (layer 0 is the input)."""
        return self.d if l == 0 else self.widths[l - 1]

    def skip(self, l: int) -> bool:
        """Whether layer l carries the theta-scaled skip: residual nets on
        layers 2..L, never at the two ends or in the plain baseline."""
        return self.arch == ARCH_RESIDUAL and 2 <= l <= self.depth

    def layer_scale(self, l: int) -> float:
        """Gradient scale factor for layer l: theta where it skips, else 1."""
        return self.theta if self.skip(l) else 1.0

    def with_weights(self, weights) -> "NetworkParams":
        return replace(self, weights=tuple(weights))


def init_gaussian(rng: RngState, d: int, L: int, m: int, m_last: int,
                  theta: float, arch: str = ARCH_RESIDUAL) -> NetworkParams:
    """Gaussian-initialized network: W_l entries ~ N(0, 2/m_l).

    Requires m_last within [m/4, 4m] so the two final widths are of the
    same order; ``output_vector`` and ``NetworkParams`` reject the rest
    (m_last odd or nonpositive, L < 1, theta < 0, theta * L > 1 residual).
    """
    if not (m / 4 <= m_last <= 4 * m):
        raise ConfigError(f"m_last={m_last} not within [m/4, 4m] of m={m}")
    v = output_vector(m_last)
    dims = [d] + [m] * L + [m_last]
    weights = []
    for l in range(1, L + 2):
        weights.append(numkit.gaussian_matrix(rng, dims[l - 1], dims[l], 2.0 / dims[l]))
    return NetworkParams(tuple(weights), float(theta), v, arch)


def _check_unit_rows(x: np.ndarray) -> None:
    norms = np.linalg.norm(x, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= data.NORM_TOL):  # NaN rows fail too
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"inputs must lie on the unit sphere "
                         f"(|‖x‖−1| ≤ {data.NORM_TOL}); worst deviation {worst:.3g}")


@dataclass(frozen=True)
class BatchTrace:
    """Forward record of a batch; row i of every array belongs to input i.

    ``activations[l]`` is x_l (so activations[0] holds the inputs) and
    ``pattern(l)`` is the boolean activation pattern sigma_l for
    l = 1..L+1.  One input is a one-row batch.  A trace is data only: it
    holds none of the weights it was made from.
    """

    activations: tuple  # activations[l] has shape (n, m_l)
    patterns: tuple     # patterns[l-1] has shape (n, m_l), boolean
    outputs: np.ndarray

    @property
    def n(self) -> int:
        return self.outputs.shape[0]

    def pattern(self, l: int) -> np.ndarray:
        if not 1 <= l <= len(self.patterns):
            raise ShapeError(f"layer {l} out of range 1..{len(self.patterns)}")
        return self.patterns[l - 1]


def _forward_step(params: NetworkParams, l: int, h: np.ndarray, w: np.ndarray) -> tuple:
    """One layer of the forward pass: (x_l, sigma_l) from h = x_{l-1} and
    ``w``, layer l's weight, with ``params``' skip rule and theta.  x_l is
    formed in the buffer of its own pre-activations and sigma_l is their
    strict pattern."""
    pre = h @ w
    pat = pre > 0.0  # strict: ties at exactly zero count as inactive
    np.maximum(pre, 0.0, out=pre)
    pre += 0.0  # -0.0 becomes +0.0; a NaN pre-activation stays NaN
    if params.skip(l):
        pre *= params.theta
        pre += h  # h + theta * relu(pre), bit for bit: + and * commute
    return pre, pat


def _forward_layers(params: NetworkParams, xs: np.ndarray):
    """The forward stream: yields (l, x_l, sigma_l) for l = 0..L+1, x_0 the
    checked inputs (with no pattern, None) and the rest from
    ``_forward_step``.  Nothing is written after it is yielded, so a caller
    that keeps every item holds a trace and one that keeps none holds two
    layers."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != params.d:
        raise ShapeError(f"inputs have dim {xs.shape[1]}, network expects {params.d}")
    _check_unit_rows(xs)
    yield 0, xs, None
    h = xs
    for l in range(1, params.depth + 2):
        h, pat = _forward_step(params, l, h, params.weights[l - 1])
        yield l, h, pat


def forward_batch(params: NetworkParams, xs: np.ndarray) -> BatchTrace:
    """Forward pass over a batch of unit-norm rows: every item of the
    forward stream, kept."""
    acts, pats = [], []
    for _, h, pat in _forward_layers(params, xs):
        acts.append(h)
        pats.append(pat)
    return BatchTrace(tuple(acts), tuple(pats[1:]), acts[-1] @ params.v)


def forward_outputs(params: NetworkParams, xs: np.ndarray) -> np.ndarray:
    """f(x) for each row of ``xs``, bit for bit ``forward_batch(params,
    xs).outputs``, holding two layers of the stream instead of a trace."""
    for _, h, _ in _forward_layers(params, xs):
        pass
    return h @ params.v


def _factor_apply(params, pattern, w, r, a):
    masked = pattern * (w.T @ a)
    if params.skip(r):
        return a + params.theta * masked
    return masked


def interlayer_norms(params: NetworkParams, trace: BatchTrace, row: int, pairs) -> list:
    """Spectral norms of H_l^{l'} of ``params`` at row ``row`` of its trace
    ``trace``, for each (l, l') in ``pairs``, in order.

    For 2 <= l <= l' <= L, H_l^{l'} is the product of (I + theta*sigma_r W_rᵀ)
    over r = l..l'.  Boundary conventions: the r = 1 factor is sigma_1 W_1ᵀ
    and the r = L+1 factor is sigma_{L+1} W_{L+1}ᵀ; the plain baseline uses
    sigma_r W_rᵀ throughout.  Patterns come from the trace and are never
    recomputed, so the operator is linear even though the network is not.

    Each start layer's operator is formed once, from the identity, applying
    each factor to every column at once; its top singular value is taken
    by ``numkit.spectral_norm`` at every requested end on the way, so
    pairs that share a start layer share their prefix product.  One
    operator is held at a time.  An empty range (l > l') is the identity.
    """
    ends = {}
    for i, (l, lp) in enumerate(pairs):
        if not (1 <= l <= params.depth + 2) or not (0 <= lp <= params.depth + 1):
            raise ShapeError(f"interlayer range ({l}, {lp}) out of bounds for "
                             f"L={params.depth}")
        ends.setdefault(l, []).append((lp, i))
    norms = [None] * len(pairs)
    for l, wanted in ends.items():
        h = np.eye(params.dim_at(l - 1))
        r = l  # the next factor to apply
        for lp, i in sorted(wanted):
            while r <= lp:
                h = _factor_apply(params, trace.pattern(r)[row, :, None],
                                  params.weights[r - 1], r, h)
                r += 1
            norms[i] = numkit.spectral_norm(h)
    return norms


# --- checkpoint file: W_1 .. W_{L+1} in order, shaped by d and the widths -----

CHECKPOINT_KIND = "reslab-checkpoint"


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file."""


def save_checkpoint(params: NetworkParams, path, seed=None) -> None:
    data.write_framed(path, CHECKPOINT_KIND, {
        "d": params.d, "L": params.depth, "widths": list(params.widths),
        "theta": params.theta, "arch": params.arch,
        "seed": list(seed) if seed is not None else None,
    }, [np.asarray(w, dtype="<f8") for w in params.weights])


def load_checkpoint(path) -> NetworkParams:
    header, weights = data.read_framed(
        path, CHECKPOINT_KIND, {"d": data.SIZE, "L": data.SIZE, "widths": data.SIZES,
                                "theta": data.AMOUNT, "arch": data.TEXT},
        lambda h: [(f"layer {l} row", np.dtype(("<f8", (m,))), rows) for l, (rows, m)
                   in enumerate(zip([h["d"]] + h["widths"], h["widths"]), 1)],
        CheckpointFormatError)
    widths = header["widths"]
    if header["L"] != len(widths) - 1:
        raise CheckpointFormatError(f"{path}: header L={header['L']} but "
                                    f"{len(widths)} widths")
    for l, w in enumerate(weights, 1):
        if not np.all(np.isfinite(w)):
            raise CheckpointFormatError(f"{path}: non-finite weight in layer {l}")
    try:
        return NetworkParams(tuple(weights), float(header["theta"]),
                             output_vector(widths[-1]), header["arch"])
    except ConfigError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
