import warnings

import numpy as np
import pytest

from reslab import numkit
from reslab.numkit import RngState


class TestRngState:
    def test_same_key_replays_identical_samples(self):
        a = RngState(12, 3).standard_normal((16, 16))
        b = RngState(12, 3).standard_normal((16, 16))
        np.testing.assert_array_equal(a, b)

    def test_advancing_gives_disjoint_samples(self):
        rng = RngState(12, 3)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        assert not np.array_equal(a, b)

    def test_substreams_are_stable_and_distinct(self):
        root = RngState(5)
        s1 = root.substream("data").standard_normal(10)
        s2 = root.substream("data").standard_normal(10)
        s3 = root.substream("init").standard_normal(10)
        np.testing.assert_array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_substream_independent_of_parent_draws(self):
        root = RngState(5)
        root.standard_normal(100)  # advancing the parent must not move children
        s1 = root.substream("data").standard_normal(10)
        s2 = RngState(5).substream("data").standard_normal(10)
        np.testing.assert_array_equal(s1, s2)


class TestGaussianMatrix:
    def test_rejects_empty_shapes(self):
        with pytest.raises(numkit.EmptyShapeError):
            numkit.gaussian_matrix(RngState(0), 0, 4, 1.0)
        with pytest.raises(numkit.EmptyShapeError):
            numkit.gaussian_matrix(RngState(0), 4, 0, 1.0)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            numkit.gaussian_matrix(RngState(0), 2, 2, 0.0)

    def test_small_variance_gives_small_norm(self):
        a = numkit.gaussian_matrix(RngState(0), 32, 32, 1e-20)
        assert numkit.frobenius_norm(a) < 1e-8

    def test_entry_mean_concentrates(self):
        # sample mean of m*m entries is within 4 sigma/m for every seed
        m = 256
        var = 2.0 / m
        bound = 4.0 * np.sqrt(var) / m
        for seed in range(10):
            a = numkit.gaussian_matrix(RngState(seed), m, m, var)
            assert abs(float(np.mean(a))) < bound

    def test_determinism_bitwise(self):
        a = numkit.gaussian_matrix(RngState(7, 1), 16, 8, 0.5)
        b = numkit.gaussian_matrix(RngState(7, 1), 16, 8, 0.5)
        assert a.tobytes() == b.tobytes()


class TestSums:
    def test_pairwise_tree_matches_naive_sum(self):
        rng = RngState(3)
        for size in (1, 2, 3, 7, 64, 1000):
            x = rng.standard_normal(size) * 100.0
            naive = 0.0
            for v in x:
                naive += v
            assert numkit.pairwise_sum(x) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_empty_sum_is_zero(self):
        assert numkit.pairwise_sum([]) == 0.0

    def test_column_norms_are_the_tree_of_each_column(self):
        rng = RngState(3)
        for shape in ((1, 2), (7, 3), (256, 3), (10, 1)):
            x = rng.standard_normal(shape)
            norms = numkit._column_l2(x)
            assert norms.shape == (shape[1],)
            for j in range(shape[1]):  # bit for bit
                assert norms[j] == np.sqrt(numkit.pairwise_sum(x[:, j] * x[:, j]))

    def test_frobenius_norm_values(self):
        assert numkit.frobenius_norm(np.zeros((3, 4))) == 0.0
        assert numkit.frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_frobenius_matches_naive(self):
        x = RngState(9).standard_normal((37, 11))
        naive = float(np.sqrt(sum(v * v for v in x.ravel())))
        assert numkit.frobenius_norm(x) == pytest.approx(naive, rel=1e-12)


class TestSpectralNorm:
    def test_diagonal(self):
        assert numkit.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    def test_identity(self):
        assert numkit.spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert numkit.spectral_norm(np.zeros((4, 4))) == 0.0

    def test_matches_svd_oracle(self):
        for seed in range(3):
            a = numkit.gaussian_matrix(RngState(seed), 256, 256, 2.0 / 256)
            svd_top = float(np.linalg.svd(a, compute_uv=False)[0])
            est = numkit.spectral_norm(a)
            assert est == pytest.approx(svd_top, rel=1e-6)
            assert est <= svd_top * (1 + 1e-9)  # never overshoots

    def test_rectangular_matches_svd(self):
        a = RngState(2).standard_normal((40, 90))
        svd_top = float(np.linalg.svd(a, compute_uv=False)[0])
        assert numkit.spectral_norm(a) == pytest.approx(svd_top, rel=1e-8)

    def test_exact_against_oracles(self):
        rng = RngState(7)
        # U diag(s) Vᵀ with orthonormal U, V has top singular value max(s)
        u, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        s = np.linspace(0.5, 3.0, 40)
        assert numkit.spectral_norm(u[:, :40] * s @ v.T) == pytest.approx(3.0, rel=1e-10)
        x, y = rng.standard_normal(30), rng.standard_normal(50)
        assert numkit.spectral_norm(np.outer(x, y)) == pytest.approx(
            np.linalg.norm(x) * np.linalg.norm(y), rel=1e-10)
        for shape in ((64, 64), (17, 90), (90, 17), (1, 9)):
            a = rng.standard_normal(shape)
            oracle = float(np.linalg.svd(a, compute_uv=False)[0])
            assert numkit.spectral_norm(a) == pytest.approx(oracle, rel=1e-10)
        # a rank-deficient gradient-shaped product (rank 20 of 50) and a
        # near-identity 256x256 matrix shaped like an interlayer operator,
        # each also scaled far up and down: the Gram matrix of the raw
        # 2^±600 matrix overflows or underflows
        aa = rng.standard_normal((20, 50))
        bb = rng.standard_normal((20, 70))
        near_eye = np.eye(256) + 0.05 * rng.standard_normal((256, 256)) / 16.0
        for a in (aa.T @ bb, near_eye):
            oracle = float(np.linalg.svd(a, compute_uv=False)[0])
            assert numkit.spectral_norm(a) == pytest.approx(oracle, rel=1e-10)
            for scale in (2.0 ** 600, 2.0 ** -600):
                assert numkit.spectral_norm(a * scale) == pytest.approx(
                    oracle * scale, rel=1e-10)

    def test_within_rounding_of_svd_at_lab_shapes(self):
        # weight differences and interlayer operators (256x256), input-layer
        # weights (10x256) and their transposes
        rng = RngState(8)
        for shape in ((256, 256), (10, 256), (256, 10)):
            for _ in range(3):
                a = rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
                oracle = float(np.linalg.svd(a, compute_uv=False)[0])
                assert abs(numkit.spectral_norm(a) - oracle) <= 1e-13 * oracle

    def test_spectral_at_most_frobenius(self):
        rng = RngState(4)
        for _ in range(10):
            a = rng.standard_normal((20, 30))
            assert numkit.spectral_norm(a) <= numkit.frobenius_norm(a) * (1 + 1e-12)

    def test_nonfinite_rejected(self):
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(numkit.NumericDomainError):
            numkit.spectral_norm(a)

    def test_empty_rejected(self):
        with pytest.raises(numkit.EmptyShapeError):
            numkit.spectral_norm(np.zeros((0, 3)))


def _per_start_reference(g, iters, tol):
    """One start at a time: the scalar power iteration that the blocked
    solver runs column by column."""
    q = g.shape[1]
    starts = [np.ones(q) / np.sqrt(q)]
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=numkit._RESTART_ENTROPY, spawn_key=(q,))))
    for _ in range(2):
        r = rng.standard_normal(q)
        starts.append(r / np.linalg.norm(r))

    def l2(x):
        return float(np.sqrt(numkit.pairwise_sum(x * x)))

    best, best_converged = 0.0, False
    for v in starts:
        sigma_prev = -1.0
        converged = False
        for _ in range(iters):
            u = g @ v
            sigma = l2(u)
            if sigma == 0.0:
                converged = True
                break
            w = g.T @ (u / sigma)
            wn = l2(w)
            if wn == 0.0:
                converged = True
                break
            v = w / wn
            if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
                converged = True
                break
            sigma_prev = sigma
        if sigma > best:
            best, best_converged = sigma, converged
        elif sigma == best:
            best_converged = best_converged or converged
    return best, best_converged


class TestPowerSpectralNorm:
    def cases(self):
        rng = RngState(6)
        A = rng.standard_normal((20, 50))
        B = rng.standard_normal((20, 70))
        # integer rows summing to zero, 64 columns: the all-ones start
        # (entries 1/8) is mapped to an exact zero, so its column stops at
        # once while the restarts run on
        dead_start = np.round(3.0 * rng.standard_normal((30, 64)))
        dead_start[:, -1] -= dead_start.sum(axis=1)
        return {
            "rank-deficient AᵀB": A.T @ B,
            "gaussian 256x256": rng.standard_normal((256, 256)) / 16.0,
            "input layer 10x256": rng.standard_normal((10, 256)) / 16.0,
            "rank one": np.outer(rng.standard_normal(30), rng.standard_normal(40)),
            "ones in the null space": dead_start,
        }

    def test_matches_lapack_when_converged(self):
        for name, g in self.cases().items():
            dense = float(np.linalg.svd(g, compute_uv=False)[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = numkit.power_spectral_norm(g, iters=2000, tol=1e-12)
            assert est == pytest.approx(dense, rel=1e-7), name
            assert est <= dense * (1 + 1e-12), name

    def test_warns_with_the_shape_unless_converged(self):
        g = self.cases()["rank-deficient AᵀB"]
        with pytest.warns(RuntimeWarning, match=r"\(50, 70\) matrix"):
            capped = numkit.power_spectral_norm(g, iters=2)
        dense = float(np.linalg.svd(g, compute_uv=False)[0])
        assert capped <= dense * (1 + 1e-12)

    def test_zero_matrix_is_zero_without_any_warning(self):
        # a dead layer's gradient: no start moves, and nothing divides by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numkit.power_spectral_norm(np.zeros((256, 256))) == 0.0
            assert numkit.power_spectral_norm(np.zeros((10, 256)), iters=1) == 0.0

    def test_agrees_with_per_start_reference(self):
        for name, g in self.cases().items():
            for iters, tol in ((1, 1e-8), (2, 1e-8), (5, 1e-8), (200, 1e-8),
                               (2000, 1e-12)):
                ref, ref_converged = _per_start_reference(g, iters, tol)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    est = numkit.power_spectral_norm(g, iters, tol)
                assert abs(est - ref) <= 1e-12 * ref, (name, iters)
                assert (len(caught) == 0) == ref_converged, (name, iters)

    def test_rejects_bad_operands(self):
        with pytest.raises(numkit.EmptyShapeError):
            numkit.power_spectral_norm(np.zeros((0, 3)))
        g = np.ones((3, 3))
        g[1, 1] = np.inf
        with pytest.raises(numkit.NumericDomainError):
            numkit.power_spectral_norm(g)
