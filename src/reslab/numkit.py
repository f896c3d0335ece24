"""Deterministic dense linear algebra and random sampling substrate.

Everything is float64.  Explicit sums that feed reported numbers go through
a fixed pairwise tree (``pairwise_sum``) so the result is a function of the
input order only, never of thread count or chunking.  Spectral norms of
dense matrices are the square root of the top eigenvalue of the smaller
Gram matrix and are exact to rounding; power iteration (``operator_norm``)
remains only for the factored gradient norms AᵀB (``h_k``), where it is
cheaper than any exact method at the lab's shapes.  All sampling flows
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


def pairwise_sum(values) -> float:
    """Sum via a fixed adjacent-pair binary tree.

    The tree shape depends only on the element count, so the result is
    bit-reproducible for a given input order regardless of how callers
    chunk or parallelize the surrounding work.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        half = a.size // 2
        tail = a[2 * half:]  # odd leftover joins the next level unchanged
        a = a[0 : 2 * half : 2] + a[1 : 2 * half : 2]
        if tail.size:
            a = np.concatenate([a, tail])
    return float(a[0])


def frobenius_norm(a) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(pairwise_sum(a * a)))


def _l2(x: np.ndarray) -> float:
    return float(np.sqrt(pairwise_sum(x * x)))


# Fixed entropy for power-iteration restarts; a constant keeps operator_norm
# a pure function of its arguments.
_RESTART_ENTROPY = 0x5EEDF00D


def operator_norm(apply, apply_t, dim_in: int, iters: int = 500,
                  tol: float = 1e-10, restarts: int = 2):
    """Largest singular value of a linear operator, matrix-free.

    Power iteration on AᵀA with a deterministic all-ones start plus
    ``restarts`` seeded random restarts (guards against a start vector
    orthogonal to the top singular space).  Returns ``(estimate, converged)``;
    the estimate is always a lower bound on the true value.
    """
    if dim_in <= 0:
        raise EmptyShapeError("operator with empty input dimension")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    starts = [np.ones(dim_in) / np.sqrt(dim_in)]
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=_RESTART_ENTROPY, spawn_key=(dim_in,))))
    for _ in range(restarts):
        g = rng.standard_normal(dim_in)
        starts.append(g / np.linalg.norm(g))

    best = 0.0
    best_converged = False
    for v in starts:
        sigma_prev = -1.0
        converged = False
        for _ in range(iters):
            u = apply(v)
            sigma = _l2(u)
            if sigma == 0.0:  # v in the null space; this start is done
                converged = True
                break
            w = apply_t(u / sigma)
            wn = _l2(w)
            if wn == 0.0:
                converged = True
                break
            v = w / wn
            if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
                converged = True
                break
            sigma_prev = sigma
        else:
            sigma = sigma_prev if sigma_prev > sigma else sigma
        if sigma > best:
            best = sigma
            best_converged = converged
        elif sigma == best:
            best_converged = best_converged or converged
    return best, best_converged


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


def factored_spectral_norm(a: Matrix, b: Matrix, iters: int = 200,
                           tol: float = 1e-8) -> float:
    """Spectral norm of AᵀB without materializing the product.

    A is (n, p) and B is (n, q); useful when the product is a sum of n
    rank-one terms with n much smaller than p, q.  Power iteration that
    stops at ``iters`` without meeting ``tol`` raises a RuntimeWarning; its
    estimate is then a lower bound.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise EmptyShapeError(f"factored_spectral_norm: {a.shape} vs {b.shape}")
    est, converged = operator_norm(
        lambda v: a.T @ (b @ v), lambda u: b.T @ (a @ u), b.shape[1], iters, tol)
    if not converged:
        warnings.warn(
            f"factored_spectral_norm: power iteration on AᵀB with A {a.shape}, "
            f"B {b.shape} stopped at {iters} iterations without reaching "
            f"tol {tol:g}; the estimate {est!r} is a lower bound",
            RuntimeWarning, stacklevel=2)
    return est
