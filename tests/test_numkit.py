import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from reslab import numkit, trainer
from reslab.data import make_dataset
from reslab.lossgrad import loss_grad
from reslab.model import init_gaussian
from reslab.numkit import RngState
from reslab.probes import PerturbationBall

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


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

    def test_frobenius_norm_values(self):
        assert numkit.frobenius_norm(np.zeros((3, 4))) == 0.0
        assert numkit.frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_frobenius_matches_naive(self):
        x = RngState(9).standard_normal((37, 11))
        naive = float(np.sqrt(sum(v * v for v in x.ravel())))
        assert numkit.frobenius_norm(x) == pytest.approx(naive, rel=1e-12)


def _with_entry(shape, at, value, sign=1.0):
    a = sign * RngState(10).standard_normal(shape)
    a[at] = value
    return a


FINITENESS_CASES = {
    "gradient": lambda: 1e-3 * RngState(11).standard_normal((128, 128)),
    "zero": lambda: np.zeros((4, 5)),
    "nan_first": lambda: _with_entry((128, 128), (0, 0), np.nan),
    "nan_last": lambda: _with_entry((10, 128), (9, 127), np.nan, -1.0),
    "inf_first": lambda: _with_entry((128, 128), (0, 0), np.inf),
    "inf_last": lambda: _with_entry((128, 128), (127, 127), np.inf, -1.0),
    "minus_inf_first": lambda: _with_entry((10, 128), (0, 0), -np.inf, -1.0),
    "minus_inf_last": lambda: _with_entry((128, 128), (127, 127), -np.inf),
    # every square overflows, one entry or all
    "one_1e160": lambda: _with_entry((128, 128), (5, 7), 1e160),
    "all_1e160": lambda: np.full((3, 3), -1e160),
    # each square is finite, their sum is not
    "all_1e153": lambda: np.full((256, 256), 1e153),
    # past the bound, yet the norm is finite
    "past_the_bound": lambda: np.full((256, 256), 1e150),
}


class TestFrobeniusFinite:
    @pytest.mark.parametrize("case", FINITENESS_CASES)
    def test_agrees_with_the_tree(self, case):
        a = FINITENESS_CASES[case]()
        with np.errstate(over="ignore", invalid="ignore"):
            assert numkit.frobenius_finite(a) == bool(
                np.isfinite(numkit.frobenius_norm(a)))

    def test_ordinary_gradient_takes_no_tree(self, monkeypatch):
        taken = []
        monkeypatch.setattr(numkit, "pairwise_sum", taken.append)
        assert numkit.frobenius_finite(FINITENESS_CASES["gradient"]())
        assert taken == []


class TestSpectralNorm:
    """``spectral_norm``: Golub-Kahan-Lanczos bidiagonalization."""

    def cases(self):
        rng = RngState(6)
        A = rng.standard_normal((20, 50))
        B = rng.standard_normal((20, 70))
        # integer rows summing to zero, 64 columns: the all-ones start
        # (entries 1/8) is mapped to an exact zero, a breakdown at the
        # first step that only a restart gets past
        dead_start = np.round(3.0 * rng.standard_normal((30, 64)))
        dead_start[:, -1] -= dead_start.sum(axis=1)
        return {
            "rank-deficient AᵀB": A.T @ B,
            "gaussian 256x256": rng.standard_normal((256, 256)) / 16.0,
            "input layer 10x256": rng.standard_normal((10, 256)) / 16.0,
            "rank one": np.outer(rng.standard_normal(30), rng.standard_normal(40)),
            "ones in the null space": dead_start,
        }

    def assert_exact(self, est, g, name):
        dense = float(np.linalg.svd(g, compute_uv=False)[0])
        assert abs(est - dense) <= 1e-13 * dense, name
        assert est <= dense * (1 + 1e-12), name

    def clustered(self, seed, top):
        """256x256 U diag(s) Vᵀ whose top singular values are ``top``, the
        rest spread over [0.1, 1]."""
        rng = RngState(seed)
        u, _ = np.linalg.qr(rng.standard_normal((256, 256)))
        v, _ = np.linalg.qr(rng.standard_normal((256, 256)))
        s = np.linspace(1.0, 0.1, 256)
        s[:len(top)] = top
        return (u * s) @ v.T

    def test_diagonal(self):
        assert numkit.spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    def test_identity(self):
        assert numkit.spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert numkit.spectral_norm(np.zeros((4, 4))) == 0.0

    def test_zero_matrix_is_zero_without_any_warning(self):
        # a dead layer's gradient: nothing divides by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shape in ((256, 256), (10, 256)):
                assert numkit.spectral_norm(np.zeros(shape)) == 0.0

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
        # each also scaled far up and down, where squared lengths of the
        # raw 2^±600 matrix overflow or underflow
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
        # weights (10x256) and their transposes.  A stop at a Ritz move of
        # 1e-13 left up to 2.2e-14 here, the stop at 1e-14 1.6e-15
        rng = RngState(8)
        for shape in ((256, 256), (10, 256), (256, 10)):
            for _ in range(3):
                a = rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
                oracle = float(np.linalg.svd(a, compute_uv=False)[0])
                assert abs(numkit.spectral_norm(a) - oracle) <= 1e-14 * oracle

    def test_matches_lapack(self):
        cases = self.cases()
        # transposes, and the AᵀB case scaled where its squared lengths
        # would overflow or underflow
        cases.update({f"{name}, transposed": g.T for name, g in self.cases().items()})
        for scale in (2.0 ** 600, 2.0 ** -600):
            cases[f"AᵀB * {scale:g}"] = cases["rank-deficient AᵀB"] * scale
        # a few top values clustered within 1e-2 or 4e-4: the Ritz value
        # still settles on the largest
        for seed in (13, 14):
            for k in (2, 3, 5):
                for spread in (1e-2, 4e-4):
                    cases[f"top {k} within {spread:g}, seed {seed}"] = self.clustered(
                        seed, 2.0 - spread * np.linspace(0.0, 2.0, k))
        for name, g in cases.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = numkit.spectral_norm(g)
            self.assert_exact(est, g, name)

    def test_inside_a_tight_top_cluster(self):
        # where the top values cluster tightly the stop rule may fire on a
        # Ritz value still inside the cluster: a lower estimate, never
        # below the cluster's bottom value and never above the top one
        for seed in (13, 14):
            for k, spread in ((20, 1e-3), (20, 1e-5), (5, 1e-6), (2, 1e-8),
                              (5, 1e-9), (20, 1e-10)):
                a = self.clustered(seed, 2.0 - spread * np.linspace(0.0, 2.0, k))
                dense = np.linalg.svd(a, compute_uv=False)
                est = numkit.spectral_norm(a)
                assert dense[k - 1] * (1 - 1e-14) <= est <= dense[0] * (1 + 1e-12), (
                    seed, k, spread)

    def test_restarts_past_an_invariant_start(self):
        # ones/4 spans an exact invariant pair of singular value 1 (β = 0
        # after one step), while the top value, 3, lies along e_1 - e_2
        q = 16
        d = np.zeros(q)
        d[:2] = (1.0, -1.0)
        g = np.full((q, q), 1.0 / q) + 1.5 * np.outer(d, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numkit.spectral_norm(g) == pytest.approx(3.0, rel=1e-14)
        assert numkit.spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-15)

    def ritz_count(self, monkeypatch, a, **schedule):
        """spectral_norm(a) and the Ritz values it took, counted as the
        np.linalg.svd calls numkit makes, with the schedule's constants
        set from ``schedule``.  With _RITZ_DENSE huge it takes one at
        every step, so the count is its number of steps."""
        calls = [0]
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls[0] += 1
            return svd(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(numkit.np.linalg, "svd", counted)
            for name, value in schedule.items():
                mp.setattr(numkit, name, value)
            value = numkit.spectral_norm(a)
        return value, calls[0]

    def test_ritz_values_at_chosen_steps_on_a_ball_difference(self, monkeypatch):
        # a 256x256 difference of two points of a Frobenius ball takes about
        # 35 steps; past _RITZ_DENSE the Ritz value is taken in pairs of
        # steps, and the stop falls on the same step as with one every step.
        # Jumping the whole predicted distance lands pairs past the stop,
        # and the walk back over the skipped steps still finds it
        params = init_gaussian(RngState(30), 10, 16, 256, 256, 0.1 / 16)
        drawn = PerturbationBall(params, 0.1, RngState(31)).draw()
        for w, w0 in list(zip(drawn.weights, params.weights))[1:5]:
            d = w - w0
            every, steps = self.ritz_count(monkeypatch, d, _RITZ_DENSE=10 ** 9)
            value, taken = self.ritz_count(monkeypatch, d)
            assert value == every
            assert steps >= 20 and taken <= 0.65 * steps, (steps, taken)
            far, _ = self.ritz_count(monkeypatch, d, _RITZ_SHARE=1.0, _RITZ_CAP=1)
            assert far == every

    def test_every_ritz_value_of_a_golden_gradient(self, monkeypatch):
        # layer gradients at the golden shape stop in 5-6 steps at the
        # initialization and in 7-9 after 20 GD steps: the Ritz value is
        # taken at every one, past _RITZ_DENSE too, as for h_k
        root = RngState(0)
        ds = make_dataset(root, 10, 64, 0.1, 200)
        params = init_gaussian(root.substream("init"), 10, 16, 256, 256, 0.1 / 16)
        trained = trainer.train(params, ds, trainer.TrainConfig(
            eta=10.0 / 256, steps=20, record_every=20)).params
        lengths = set()
        for p in (params, trained):
            _, _, grads = loss_grad(p, ds.xs, ds.ys)
            for g in grads.layers:
                every, steps = self.ritz_count(monkeypatch, g, _RITZ_DENSE=10 ** 9)
                value, taken = self.ritz_count(monkeypatch, g)
                assert value == every and taken == steps
                lengths.add(steps)
        assert max(lengths) > numkit._RITZ_DENSE, lengths

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

    def test_rejects_bad_operands(self):
        with pytest.raises(numkit.EmptyShapeError):
            numkit.spectral_norm(np.ones(3))
        for bad in (np.inf, -np.inf):
            a = np.ones((3, 3))
            a[1, 1] = bad
            with pytest.raises(numkit.NumericDomainError):
                numkit.spectral_norm(a)
        # at either end of the lab's shapes, whatever the other entries' sign
        rng = numkit.RngState(8)
        for shape in ((256, 256), (10, 256)):
            base = rng.standard_normal(shape)
            for bad in (np.nan, np.inf, -np.inf):
                for at in ((0, 0), (shape[0] - 1, shape[1] - 1)):
                    for sign in (1.0, -1.0):
                        a = sign * base
                        a[at] = bad
                        with pytest.raises(numkit.NumericDomainError):
                            numkit.spectral_norm(a)

    def test_does_not_depend_on_thread_count(self):
        # at 256x256 OpenBLAS runs gemv on every thread it is given; the
        # shapes are those every spectral norm in the lab takes: a Gaussian
        # matrix, a rank-deficient layer gradient, a near-identity
        # interlayer operator, a layer-1 operator (256x10) and the
        # difference of two points of a Frobenius ball
        script = (
            "import reslab.cli\n"  # applies LAB_THREADS before numpy loads
            "import numpy as np\n"
            "from reslab import numkit\n"
            "rng = numkit.RngState(21)\n"
            "w = rng.standard_normal((256, 256)) / 16.0\n"
            "d1, d2 = rng.standard_normal((2, 256, 256))\n"
            "mask = rng.uniform(shape=(256, 1)) > 0.5\n"
            "for g in (rng.standard_normal((256, 256)) / 16.0,\n"
            "          rng.standard_normal((40, 256)).T @ rng.standard_normal((40, 256)),\n"
            "          np.eye(256) + 0.05 * w,\n"
            "          mask * rng.standard_normal((10, 256)).T / 16.0,\n"
            "          (w + 0.1 * d1 / numkit.frobenius_norm(d1))\n"
            "          - (w + 0.1 * d2 / numkit.frobenius_norm(d2))):\n"
            "    print(numkit.spectral_norm(g).hex())\n")
        src = str(Path(numkit.__file__).resolve().parents[1])
        printed = {}
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
            env.update(LAB_THREADS=threads, PYTHONPATH=src)
            printed[threads] = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout
        assert len(printed["1"].split()) == 5
        assert printed["1"] == printed["2"]
