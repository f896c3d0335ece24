"""Deterministic dense linear algebra and random sampling substrate.

Everything is float64.  Explicit sums that feed reported numbers go through
a fixed pairwise tree (``pairwise_sum``) so the result is a function of the
input order only, never of thread count or chunking.  Spectral norms of
dense matrices are the square root of the top eigenvalue of the smaller
Gram matrix and are exact to rounding (``spectral_norm``); the layer
gradient norms behind ``h_k``, taken on every training step, use a blocked
power iteration instead (``power_spectral_norm``), which is cheaper than
any exact method measured at the lab's shapes.  All sampling flows
through :class:`RngState`, which wraps a counter-based generator keyed by
``(seed, stream)`` so identical keys replay identical draws on any platform.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

# Semantic aliases: a Matrix is a 2-d float64 ndarray, a Vector is 1-d.
Matrix = np.ndarray
Vector = np.ndarray


class EmptyShapeError(ValueError):
    """A matrix or vector operand has a zero dimension."""


class NumericDomainError(ValueError):
    """An operand contains non-finite entries."""


def _derive_stream(stream: int, label) -> int:
    """Stable 64-bit substream id from a parent stream and a label."""
    digest = hashlib.blake2b(
        f"{stream}/{label}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


class RngState:
    """Seeded random stream handle.

    Identical ``(seed, stream)`` pairs yield identical sample sequences;
    drawing from the same instance twice advances it, so consecutive draws
    are disjoint.  Named substreams are derived by hashing the label, which
    keeps component-level reproducibility when the call order changes.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) % 2**64
        self.stream = int(stream) % 2**64
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self):
        return f"RngState(seed={self.seed}, stream={self.stream})"

    def substream(self, label) -> "RngState":
        """Fresh stream keyed by (seed, hash(stream, label))."""
        return RngState(self.seed, _derive_stream(self.stream, label))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, shape)

    def signs(self, shape) -> np.ndarray:
        """Uniform ±1 floats."""
        return 1.0 - 2.0 * self._gen.integers(0, 2, shape).astype(np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def gaussian_matrix(rng: RngState, rows: int, cols: int, variance: float) -> Matrix:
    """i.i.d. N(0, variance) matrix of shape (rows, cols)."""
    if rows <= 0 or cols <= 0:
        raise EmptyShapeError(f"empty shape ({rows}, {cols})")
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    return rng.standard_normal((rows, cols)) * np.sqrt(float(variance))


def _pairwise_tree(a: np.ndarray) -> np.ndarray:
    """Adjacent-pair binary tree down axis 0 of a nonempty array."""
    while a.shape[0] > 1:
        half = a.shape[0] // 2
        tail = a[2 * half:]  # odd leftover joins the next level unchanged
        a = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if tail.shape[0]:
            a = np.concatenate([a, tail])
    return a[0]


def pairwise_sum(values) -> float:
    """Sum via a fixed adjacent-pair binary tree.

    The tree shape depends only on the element count, so the result is
    bit-reproducible for a given input order regardless of how callers
    chunk or parallelize the surrounding work.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    return float(_pairwise_tree(a))


def frobenius_norm(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(pairwise_sum(a * a)))


# Fixed entropy for the power-iteration restarts; a constant keeps
# power_spectral_norm a pure function of its arguments.
_RESTART_ENTROPY = 0x5EEDF00D


def spectral_norm(a: Matrix) -> float:
    """Largest singular value of ``a``, exact to rounding.

    It is the square root of the top eigenvalue of the smaller Gram matrix
    (aᵀa for tall or square ``a``, aaᵀ for wide).  The top eigenvalue of a
    Gram matrix is accurate to rounding relative to itself, so only the
    small singular values, which are not used, lose accuracy.  ``a`` is
    first divided by the power of two at or below max|a|, which is exact
    and keeps the Gram matrix from overflowing or underflowing.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise EmptyShapeError(f"spectral_norm needs a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericDomainError("spectral_norm: non-finite entries")
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    x = a / scale
    if x.shape[0] < x.shape[1]:
        x = x.T
    top = float(np.linalg.eigvalsh(x.T @ x)[-1])
    return math.sqrt(max(top, 0.0)) * scale


def _column_l2(x: Matrix) -> np.ndarray:
    """Per-column l2 norms; each column's sum of squares is bit for bit
    its ``pairwise_sum``, since the same tree runs down the columns."""
    return np.sqrt(_pairwise_tree(x * x))


def power_spectral_norm(g: Matrix, iters: int = 200, tol: float = 1e-8) -> float:
    """Largest singular value of ``g`` by power iteration on gᵀg.

    Three starts run side by side as the columns of one block: the
    normalized all-ones vector plus two seeded Gaussian restarts (a guard against a start orthogonal to the top singular space).  Each
    column stops on its own, when σ changes by at most ``tol`` relative to
    itself or when its iterate vanishes, and is then frozen; the largest
    column σ is returned.  When that column stopped at ``iters`` without
    meeting ``tol`` a RuntimeWarning is raised, and the estimate is a lower
    bound.  The estimate never exceeds the true value beyond rounding.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] == 0 or g.shape[1] == 0:
        raise EmptyShapeError(f"power_spectral_norm needs a nonempty matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise NumericDomainError("power_spectral_norm: non-finite entries")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    q = g.shape[1]
    v = np.empty((q, 3))
    v[:, 0] = np.ones(q) / np.sqrt(q)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=_RESTART_ENTROPY, spawn_key=(q,))))
    for j in (1, 2):
        r = rng.standard_normal(q)
        v[:, j] = r / np.linalg.norm(r)

    sigma = np.zeros(3)
    sigma_prev = np.full(3, -1.0)
    converged = np.zeros(3, dtype=bool)
    live = np.arange(3)
    for _ in range(iters):
        u = g @ v
        s = _column_l2(u)
        sigma[live] = s
        done = s == 0.0  # v in the null space: this start is done
        w = g.T @ (u / np.where(done, 1.0, s))
        wn = _column_l2(w)
        done |= wn == 0.0
        v = w / np.where(done, 1.0, wn)
        done |= np.abs(s - sigma_prev[live]) <= tol * np.maximum(s, 1e-300)
        sigma_prev[live] = s
        converged[live[done]] = True
        live, v = live[~done], v[:, ~done]
        if live.size == 0:
            break

    best = float(sigma.max())
    if not converged[sigma == best].any():  # no start reaching it converged
        warnings.warn(
            f"power_spectral_norm: power iteration on a {g.shape} matrix "
            f"stopped at {iters} iterations without reaching tol {tol:g}; "
            f"the estimate {best!r} is a lower bound",
            RuntimeWarning, stacklevel=2)
    return best
