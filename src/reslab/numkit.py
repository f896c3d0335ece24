"""Deterministic dense linear algebra and random sampling substrate.

Everything is float64.  The sums behind the loss, the surrogate, every
Frobenius norm and the Rademacher estimate go through a fixed pairwise tree
(``pairwise_sum``), so each is a function of the input order only, never
of thread count or chunking.  Every spectral norm in the lab, of layer
gradients (``h_k``), weight differences and interlayer operators alike,
comes from one routine, ``spectral_norm``:
Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization, which
needs only a few matrix-vector products per norm and is exact to rounding
unless the top singular values cluster.  It takes its Ritz value, an SVD
of a small bidiagonal matrix, at every one of its first few steps and then
only at pairs of steps placed by the measured convergence rate, where its
stop rule can fire.  All sampling flows through
:class:`RngState`, which wraps a counter-based generator keyed by
``(seed, stream)`` so identical keys replay identical draws on any
platform.
"""

from __future__ import annotations

import hashlib
import math

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


def _peak(a) -> float:
    """max |a_ij| with no |a| temporary; NaN reaches both ends, so it stays."""
    return float(max(a.max(), -a.min()))


def frobenius_finite(a) -> bool:
    """Whether ``frobenius_norm(a)`` is finite, mostly without the tree.

    With peak = max |a_ij| finite and peak² · size <= 1e300, no square and
    no partial sum of the tree can overflow, so the norm is finite; only
    when that bound fails (a non-finite entry, or entries near 1e150) is
    the norm taken.  The peak takes two passes over ``a`` and makes no
    temporary.
    """
    a = np.asarray(a, dtype=np.float64)
    peak = _peak(a)
    return peak * peak * a.size <= 1e300 or bool(np.isfinite(frobenius_norm(a)))


# Fixed entropy for the Lanczos restarts; a constant keeps spectral_norm a
# pure function of its argument.
_RESTART_ENTROPY = 0x5EEDF00D
# The solver stops once its Ritz value moves by at most this much, relative
# to itself, in one step.  When the Ritz values close in by a factor r per
# step, the error left is about r / (1 - r) times the last move, so below it
# for r < 1/2: a dense Gaussian 256x256 matrix (r near 0.4) kept 1.4e-13
# after a stop at 1e-12, 1.1e-14 after one at 1e-13, and a few 1e-15 after
# one at 1e-14.
_RITZ_TOL = 1e-14
# The Ritz value is taken at every step up to _RITZ_DENSE, then only at the
# ends of chosen pairs of steps: from the last two measured moves the solver
# takes their geometric rate per step and the steps left until a move falls
# to _RITZ_TOL, and places the next pair at most _RITZ_SHARE of those steps
# and at most j / _RITZ_CAP steps after step j.  A rate that speeds up after
# a plateau can carry a pair past the stop; the steps skipped before it are
# then taken backwards.  Replayed over the Ritz values of one probe-ball
# round's 281 differences at 256x256 (36 steps on average), this took 18
# Ritz values a norm instead of 36, and 3 Lanczos steps past the stop in
# all; share 1/2 with a cap of j/3 took 22.
_RITZ_DENSE = 6
_RITZ_SHARE = 0.5
_RITZ_CAP = 2


def _orthogonalize(x: Vector, basis: Matrix) -> Vector:
    """``x`` minus its projection on the orthonormal rows of ``basis``,
    removed twice (classical Gram-Schmidt, twice is enough)."""
    if basis.shape[0]:
        for _ in range(2):
            x = x - (basis @ x) @ basis
    return x


def _norm(x: Vector) -> float:
    return math.sqrt(float(x @ x))


def _ritz(bidiag: Matrix, j: int) -> float:
    """Top singular value of the leading j x (j+1) block: the Ritz value
    after step j."""
    return float(np.linalg.svd(bidiag[:j, :j + 1], compute_uv=False)[0])


def _ritz_jump(j: int, sigma: float, t1: int, d1: float, t2: int, d2: float) -> int:
    """Steps from step j to the next Ritz value, given the moves d1 and d2
    measured at steps t1 < t2 <= j (see _RITZ_SHARE)."""
    rate = (d2 / d1) ** (1.0 / (t2 - t1))
    if not rate < 1.0:
        return 1
    left = math.log(_RITZ_TOL * sigma / d2) / math.log(rate)
    return max(1, min(math.ceil(_RITZ_SHARE * left), j // _RITZ_CAP))


def spectral_norm(a: Matrix) -> float:
    """Largest singular value of ``a`` (p x q) by Golub-Kahan-Lanczos
    bidiagonalization with full reorthogonalization.

    From the normalized all-ones start v_1, step j sets u_j = a v_j and
    v_{j+1} = aᵀu_j, each orthogonalized against every stored u (or v) and
    normalized by its length α_j (or β_j).  Then U_jᵀ a V_{j+1} is the
    j x (j+1) upper bidiagonal matrix with the α on its diagonal and the β
    above it, and its top singular value (the Ritz value) rises towards
    ‖a‖₂ without exceeding it beyond rounding.  The solver stops when one
    step moves the Ritz value by at most ``_RITZ_TOL`` relative, or after
    min(p, q) steps, where U or V spans its whole space and the value is
    exact.  Each step costs two matrix-vector products and the
    reorthogonalization; each Ritz value costs an SVD of the bidiagonal
    matrix, which at 256x256 outweighs the step from about 30 steps on.

    So the Ritz value is taken only where the stop can fire: at every step
    up to ``_RITZ_DENSE``, then at pairs of consecutive steps
    (t-1, t), with t placed by the rate the moves shrink at (see
    ``_RITZ_SHARE``), and at a breakdown or step min(p, q).  When a pair's
    move fires, the skipped steps before it are taken backwards while
    their moves are within the tolerance too, and the earliest is the
    stop.  So the stop falls on the step that testing every step would
    give, unless the moves rise back above the tolerance after falling
    below it; a skipped test can only make the stop later, never earlier.
    The layer gradients behind h_k stop within 5-9 steps at the golden
    shape, where the rate leaves no step untaken.

    The value is exact to rounding unless the top singular values cluster:
    on 256x256 matrices, 2-5 top values within 4e-4 relative of each other
    still gave errors below 1e-15.  In a tighter or larger cluster the stop
    rule can fire while the Ritz value is still inside the cluster, and
    the value is then a lower estimate whose error is at most the
    cluster's spread: 20 top values within 1e-3 gave relative errors up to
    7e-13, 5 within 1e-6 up to 2.5e-7.

    A zero α or β (breakdown) means the block built so far spans an
    invariant subspace, whose top singular value is then exact.  The
    solver restarts from a seeded Gaussian vector orthogonalized against
    every stored v, and returns the largest value over the blocks.  A zero
    matrix gives 0.0.  Entries are rescaled by a power of two, which is
    exact, when they are so large or small that the squared lengths could
    overflow or underflow.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise EmptyShapeError(f"spectral_norm needs a nonempty matrix, got shape {a.shape}")
    peak = _peak(a)
    if not math.isfinite(peak):
        raise NumericDomainError("spectral_norm: non-finite entries")
    if peak == 0.0:
        return 0.0
    if not 2.0 ** -256 <= peak <= 2.0 ** 256:
        scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)
        return spectral_norm(a / scale) * scale

    p, q = a.shape
    exact_at = min(p, q)
    us = np.empty((exact_at, p))  # the stored u and v, one per row
    vs = np.empty((q, q))
    ku = kv = 0
    best = 0.0
    v = np.full(q, 1.0 / math.sqrt(q))
    rng = None
    while True:  # one pass per block
        vs[kv] = v
        kv += 1
        bidiag = np.empty((exact_at - ku, exact_at - ku + 1))  # rows zeroed as used
        j = taken = 0  # the last step, and the last whose Ritz value is sigma
        due = 1
        sigma = 0.0
        moves = ()  # (step, move) of the last two measured moves
        while True:
            u = _orthogonalize(a @ v, us[:ku])
            alpha = _norm(u)
            if alpha == 0.0:
                break
            us[ku] = u = u / alpha
            ku += 1
            bidiag[j] = 0.0
            bidiag[j, j] = alpha
            beta = 0.0
            if kv < q:  # otherwise V spans R^q and aᵀu lies in it
                w = _orthogonalize(a.T @ u, vs[:kv])
                beta = bidiag[j, j + 1] = _norm(w)
            j += 1
            if j >= due or ku == exact_at or beta == 0.0:
                last, taken = taken, j
                if last < j - 1:  # step j - 1 was skipped
                    sigma = _ritz(bidiag, j - 1)
                prev, sigma = sigma, _ritz(bidiag, j)
                move = abs(sigma - prev)
                if move <= _RITZ_TOL * sigma:
                    # the stop may have come among the skipped steps: walk
                    # back while the move one step earlier is small too
                    s = j - 1
                    while s - 1 > last:
                        lower = _ritz(bidiag, s - 1)
                        if abs(prev - lower) > _RITZ_TOL * prev:
                            break
                        sigma, prev, s = prev, lower, s - 1
                    return max(best, sigma)
                if ku == exact_at:
                    return max(best, sigma)
                if beta == 0.0:
                    break
                moves = moves[-2:] + (j, move)
                due = j + 1 if j < _RITZ_DENSE else j + _ritz_jump(j, sigma, *moves)
            vs[kv] = v = w / beta
            kv += 1
        if taken < j:  # a zero α after skipped steps
            sigma = _ritz(bidiag, j)
        best = max(best, sigma)
        if kv == q:  # V spans R^q: every block is exact
            return best
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=_RESTART_ENTROPY, spawn_key=(q,))))
        v = _orthogonalize(rng.standard_normal(q), vs[:kv])
        v = v / _norm(v)
