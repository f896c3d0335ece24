import weakref

import numpy as np
import pytest

from reslab import lossgrad, model, numkit
from reslab.model import (BatchTrace, forward_batch, init_gaussian, interlayer_norms,
                          load_checkpoint, output_vector, save_checkpoint)
from reslab.numkit import RngState


def unit(v):
    return v / np.linalg.norm(v)


def forward(p, x):
    """One-row trace of a single input."""
    return forward_batch(p, np.asarray(x)[None, :])


def small_net(seed=0, d=4, L=3, m=8, m_last=8, theta=None, arch="residual"):
    theta = 0.1 / L if theta is None else theta
    return init_gaussian(RngState(seed).substream("init"), d, L, m, m_last, theta, arch)


class TestInit:
    def test_shapes(self):
        p = small_net(d=6, L=4, m=10, m_last=8)
        assert p.weights[0].shape == (6, 10)
        for w in p.weights[1:-1]:
            assert w.shape == (10, 10)
        assert p.weights[-1].shape == (10, 8)
        assert p.depth == 4 and p.d == 6 and p.m == 8

    def test_output_vector_layout(self):
        v = output_vector(6)
        np.testing.assert_array_equal(v, [1, 1, 1, -1, -1, -1])
        with pytest.raises(model.ConfigError):
            output_vector(5)

    def test_determinism(self):
        a = small_net(seed=3)
        b = small_net(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_infeasible_configs_rejected(self):
        with pytest.raises(model.ConfigError):
            small_net(m_last=7)  # odd output width
        with pytest.raises(model.ConfigError):
            small_net(theta=0.9, L=3)  # theta * L > 1 for residual
        with pytest.raises(model.ConfigError):
            init_gaussian(RngState(0), 4, 3, 64, 8, 0.01)  # widths not same order
        with pytest.raises(model.ConfigError):
            small_net(L=0, theta=0.1)  # no layer between W_1 and W_{L+1}
        with pytest.raises(model.ConfigError):
            small_net(theta=-0.01)
        with pytest.raises(model.ConfigError):
            init_gaussian(RngState(0), 4, 3, 0, 0, 0.01)  # empty output width

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_nan_theta_rejected(self, arch):
        # NaN fails both theta < 0 and theta * L > 1, so only theta >= 0 catches it
        with pytest.raises(model.ConfigError, match="theta"):
            small_net(theta=float("nan"), arch=arch)
        p = small_net(arch=arch)
        with pytest.raises(model.ConfigError, match="theta"):
            model.NetworkParams(p.weights, float("nan"), p.v, arch)

    def test_init_weight_spectral_norms_in_band(self):
        # square Gaussian layers with entry variance 2/m concentrate near 2*sqrt(2)
        lo, hi = np.inf, -np.inf
        for seed in range(10):
            p = init_gaussian(RngState(seed), 10, 8, 256, 256, 0.1 / 8)
            for w in p.weights[1:]:
                s = numkit.spectral_norm(w)
                lo, hi = min(lo, s), max(hi, s)
        assert 2.3 <= lo <= hi <= 3.4

    @pytest.mark.parametrize("L, skipped", [(1, []), (2, [2]), (5, [2, 3, 4, 5])])
    def test_skip_rule_and_layer_scale(self, L, skipped):
        # the skip sits on layers 2..L of a residual net, never at the two
        # ends; a layer scales its gradient by theta exactly where it skips
        for arch in ("residual", "plain"):
            p = small_net(L=L, arch=arch)
            want = skipped if arch == "residual" else []
            assert [l for l in range(1, L + 2) if p.skip(l)] == want
            assert [p.layer_scale(l) for l in range(1, L + 2)] == [
                p.theta if l in want else 1.0 for l in range(1, L + 2)]

    def test_plain_theta_not_constrained_by_depth(self):
        p = init_gaussian(RngState(0), 4, 8, 8, 8, 0.5, arch="plain")
        assert p.layer_scale(4) == 1.0


class TestForward:
    def test_zero_weights_give_zero_output(self):
        p = small_net()
        p = p.with_weights(np.zeros_like(w) for w in p.weights)
        t = forward(p, unit(np.ones(4)))
        assert t.outputs[0] == 0.0
        for l in range(1, p.depth + 2):
            assert np.all(t.activations[l] == 0.0)

    def test_hand_computed_example(self):
        # d=2, L=2, identity weights, theta=0.5, x=(1,0):
        # x1=(1,0), x2=(1.5,0), x3=(1.5,0), f = (1,-1)·x3 = 1.5
        eye = np.eye(2)
        p = model.NetworkParams((eye, eye.copy(), eye.copy()), 0.5,
                                output_vector(2), "residual")
        t = forward(p, np.array([1.0, 0.0]))
        np.testing.assert_allclose(t.activations[1][0], [1.0, 0.0])
        np.testing.assert_allclose(t.activations[2][0], [1.5, 0.0])
        np.testing.assert_allclose(t.activations[3][0], [1.5, 0.0])
        assert t.outputs[0] == pytest.approx(1.5)

    def test_rejects_off_sphere_input(self):
        p = small_net()
        with pytest.raises(ValueError):
            forward(p, np.ones(4))  # norm 2
        with pytest.raises(model.ShapeError):
            forward(p, unit(np.ones(5)))

    def test_rejects_nan_input_row(self):
        p = small_net()
        xs = np.tile(unit(np.ones(4)), (3, 1))
        xs[1] = np.nan
        with pytest.raises(ValueError):
            forward_batch(p, xs)

    def test_pattern_bits_match_strict_preactivation_sign(self):
        p = small_net(seed=5)
        x = unit(RngState(1).standard_normal(4))
        t = forward(p, x)
        h = x
        for l in range(1, p.depth + 2):
            pre = h @ p.weights[l - 1]
            np.testing.assert_array_equal(t.pattern(l)[0], pre > 0)
            inc = np.maximum(pre, 0.0)
            h = h + p.theta * inc if (2 <= l <= p.depth) else inc

    def test_pattern_rejects_layers_outside_one_to_l_plus_one(self):
        p = small_net(seed=5)
        t = forward(p, unit(RngState(1).standard_normal(4)))
        assert t.pattern(p.depth + 1) is t.patterns[-1]
        for l in (0, -1, p.depth + 2):
            with pytest.raises(model.ShapeError):
                t.pattern(l)

    def test_sign_flip_disjoint_first_layer_patterns(self):
        p = small_net(seed=2)
        x = unit(RngState(3).standard_normal(4))
        pa = forward(p, x).pattern(1)[0]
        pb = forward(p, -x).pattern(1)[0]
        assert not np.any(pa & pb)

    def test_batch_matches_single(self):
        p = small_net(seed=4)
        xs = RngState(5).standard_normal((6, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        bt = forward_batch(p, xs)
        for i in range(6):
            t = forward(p, xs[i])
            assert t.outputs[0] == pytest.approx(float(bt.outputs[i]), abs=1e-12)
            for l in range(1, p.depth + 2):
                np.testing.assert_array_equal(t.pattern(l)[0], bt.pattern(l)[i])

    def test_plain_forward_has_no_skip(self):
        p = small_net(seed=6, arch="plain")
        x = unit(RngState(7).standard_normal(4))
        t = forward(p, x)
        h = x
        for l in range(1, p.depth + 2):
            h = np.maximum(h @ p.weights[l - 1], 0.0)
            np.testing.assert_allclose(t.activations[l][0], h)

    def test_residual_coordinates_never_shrink_below_first_layer(self):
        # skip increments are nonnegative, so x_{l,j} >= x_{1,j} on layers 2..L
        p = small_net(seed=8, L=5, m=16, m_last=16)
        x = unit(RngState(9).standard_normal(4))
        t = forward(p, x)
        x1 = t.activations[1]
        for l in range(2, p.depth + 1):
            assert np.all(t.activations[l] >= x1 - 1e-15)

    def test_residual_theta_zero_matches_two_layer_pipeline(self):
        # with theta -> 0 the middle layers pass through; output equals the
        # plain two-layer pipeline built from W_1 and W_{L+1}
        p = small_net(seed=10, L=4, theta=0.0)
        x = unit(RngState(11).standard_normal(4))
        t = forward(p, x)
        x1 = np.maximum(x @ p.weights[0], 0.0)
        out = np.maximum(x1 @ p.weights[-1], 0.0) @ p.v
        assert t.outputs[0] == pytest.approx(float(out), abs=1e-12)


    def test_relu_matches_where_formula_bit_for_bit(self):
        # zero weight columns (+0.0 and -0.0) give zero pre-activations,
        # which must come out as +0.0 with a cleared pattern bit
        for arch in ("residual", "plain"):
            p = small_net(seed=12, d=5, L=3, m=16, m_last=16, arch=arch)
            weights = [w.copy() for w in p.weights]
            for w in weights:
                w[:, 2] = 0.0
                w[:, 5] = -0.0
            p = p.with_weights(weights)
            xs = np.array([unit(r) for r in RngState(13).standard_normal((9, 5))])
            bt = forward_batch(p, xs)
            h = xs
            for l in range(1, p.depth + 2):
                pre = h @ p.weights[l - 1]
                inc = np.where(pre > 0.0, pre, 0.0)
                h = h + p.theta * inc if arch == "residual" and 2 <= l <= p.depth else inc
                np.testing.assert_array_equal(bt.activations[l].view(np.uint64),
                                              h.view(np.uint64))
                np.testing.assert_array_equal(bt.pattern(l), pre > 0.0)
            np.testing.assert_array_equal(bt.outputs.view(np.uint64),
                                          (h @ p.v).view(np.uint64))

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_outputs_only_forward_matches_trace_bit_for_bit(self, arch):
        p = small_net(seed=14, d=6, L=5, m=32, m_last=24, arch=arch)
        xs = np.array([unit(r) for r in RngState(15).standard_normal((40, 6))])
        got = model.forward_outputs(p, xs)
        assert got.tobytes() == forward_batch(p, xs).outputs.tobytes()
        with pytest.raises(model.ShapeError):
            model.forward_outputs(p, xs[:, :5])
        with pytest.raises(ValueError):
            model.forward_outputs(p, 2.0 * xs)

    def test_outputs_only_forward_holds_two_layers(self, traced_peak):
        # a trace of 500 rows holds 18 layers of activations; the outputs
        # need the current layer, the next one and its pattern
        p = small_net(seed=16, d=10, L=16, m=64, m_last=64)
        xs = np.array([unit(r) for r in RngState(17).standard_normal((500, 10))])
        layer = xs.shape[0] * p.m * 8
        _, peak = traced_peak(lambda: model.forward_outputs(p, xs))
        assert peak <= 2.5 * layer
        _, peak = traced_peak(lambda: forward_batch(p, xs))
        assert peak >= 17 * layer

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_trace_holds_no_weight(self, arch):
        # a trace is data only: once its net is dropped, the net's weights
        # are freed while the trace lives on
        p = small_net(seed=18, L=4, m=16, m_last=12, arch=arch)
        t = forward(p, unit(RngState(19).standard_normal(4)))
        weights = [weakref.ref(w) for w in p.weights]
        del p
        assert all(w() is None for w in weights)
        assert t.n == 1 and len(t.activations) == len(weights) + 1


class TestInterlayer:
    @staticmethod
    def dense_h(p, t, l, lp):
        """H_l^{l'} multiplied out from the weights and the trace's patterns."""
        h = np.eye(p.dim_at(l - 1))
        for r in range(l, lp + 1):
            f = t.pattern(r)[0][:, None] * p.weights[r - 1].T
            if p.arch == "residual" and 2 <= r <= p.depth:
                f = np.eye(f.shape[0]) + p.theta * f
            h = f @ h
        return h

    def test_identity_when_range_is_empty(self):
        p = small_net()
        t = forward(p, unit(np.ones(4)))
        assert interlayer_norms(p, t, 0, [(3, 2), (p.depth + 2, p.depth + 1)]) == (
            pytest.approx([1.0, 1.0], abs=1e-12))
        # the top backward row is vᵀ H_{L+2}^{L+1} = v itself
        l, g, _ = next(lossgrad._backward_rows(p, t))
        assert l == p.depth + 1 and np.array_equal(g[0], p.v)

    def test_output_identity_at_every_split(self):
        for arch in ("residual", "plain"):
            p = small_net(seed=12, L=4, m=12, m_last=12, arch=arch)
            x = unit(RngState(13).standard_normal(4))
            t = forward(p, x)
            # vᵀ H_{l+1}^{L+1} x_l = f(x): the backward row g_l for l >= 1,
            # the dense product for l = 0
            for l, g, _ in lossgrad._backward_rows(p, t):
                out = g[0] @ t.activations[l][0]
                assert float(out) == pytest.approx(t.outputs[0], abs=1e-10)
            out = p.v @ self.dense_h(p, t, 1, p.depth + 1) @ x
            assert float(out) == pytest.approx(t.outputs[0], abs=1e-10)

    def test_theta_zero_middle_product_is_identity(self):
        p = small_net(seed=14, theta=0.0)
        t = forward(p, unit(RngState(15).standard_normal(4)))
        assert interlayer_norms(p, t, 0, [(2, p.depth)])[0] == pytest.approx(1.0, abs=1e-12)
        # the backward row passes the middle layers unchanged
        rows = {l: g[0] for l, g, _ in lossgrad._backward_rows(p, t)}
        for l in range(1, p.depth):
            np.testing.assert_array_equal(rows[l], rows[p.depth])

    def test_norm_matches_dense_oracle(self):
        p = small_net(seed=20, L=4, m=24, m_last=24)
        t = forward(p, unit(RngState(21).standard_normal(4)))
        for (l, lp) in ((2, 4), (1, 5), (2, 5)):
            oracle = float(np.linalg.svd(self.dense_h(p, t, l, lp), compute_uv=False)[0])
            assert interlayer_norms(p, t, 0, [(l, lp)])[0] == pytest.approx(
                oracle, rel=1e-8)

    def test_backward_rows_are_the_dense_rows(self):
        # g_l = vᵀ H_{l+1}^{L+1}, the rows the sparse-output probe reads
        L = 5
        for arch in ("residual", "plain"):
            p = small_net(seed=30, d=4, L=L, m=16, m_last=12, theta=0.2 / L, arch=arch)
            t = forward(p, unit(RngState(31).standard_normal(4)))
            for l, g, _ in lossgrad._backward_rows(p, t):
                np.testing.assert_allclose(g[0], p.v @ self.dense_h(p, t, l + 1, L + 1),
                                           rtol=1e-12, atol=1e-14)

    def test_norm_matches_svd_of_dense_product(self):
        L = 5
        for arch in ("residual", "plain"):
            p = small_net(seed=30, d=4, L=L, m=16, m_last=12, theta=0.2 / L, arch=arch)
            t = forward(p, unit(RngState(31).standard_normal(4)))
            for (l, lp) in ((1, L), (2, L + 1), (1, L + 1), (2, L), (3, 3),
                            (L + 1, L + 1), (3, 2), (L + 2, L + 1)):
                dense = self.dense_h(p, t, l, lp)
                oracle = float(np.linalg.svd(dense, compute_uv=False)[0])
                if l > lp:
                    assert oracle == 1.0
                assert interlayer_norms(p, t, 0, [(l, lp)])[0] == pytest.approx(
                    oracle, rel=1e-10)

    def test_chained_norms_match_each_pair_bit_for_bit(self):
        # one chain per start layer must give the bits of forming each pair's
        # operator from the identity on its own
        def formed(p, t, l, lp):
            h = np.eye(p.dim_at(l - 1))
            for r in range(l, lp + 1):
                masked = t.pattern(r)[0][:, None] * (p.weights[r - 1].T @ h)
                mid = p.arch == "residual" and 2 <= r <= p.depth
                h = h + p.theta * masked if mid else masked
            return numkit.spectral_norm(h)

        L = 6
        pairs = [(2, L + 1), (1, L), (2, 3), (L, L), (2, L), (3, L + 1), (1, 2),
                 (2, 3), (3, 2), (L + 2, L + 1), (1, L + 1), (4, L)]
        for arch in ("residual", "plain"):
            p = small_net(seed=40, d=4, L=L, m=16, m_last=12, theta=0.3 / L, arch=arch)
            t = forward(p, unit(RngState(41).standard_normal(4)))
            chained = interlayer_norms(p, t, 0, pairs)
            assert len(chained) == len(pairs)
            for (l, lp), hn in zip(pairs, chained):
                assert hn.hex() == interlayer_norms(p, t, 0, [(l, lp)])[0].hex()
                assert hn.hex() == formed(p, t, l, lp).hex()

    def test_chain_forms_each_start_layer_once(self, monkeypatch):
        calls = []
        apply = model._factor_apply

        def counted(params, pattern, w, r, a):
            calls.append(r)
            return apply(params, pattern, w, r, a)

        monkeypatch.setattr(model, "_factor_apply", counted)
        L = 6
        p = small_net(seed=42, L=L, m=16, m_last=16)
        t = forward(p, unit(RngState(43).standard_normal(4)))
        interlayer_norms(p, t, 0, [(2, L), (1, L), (2, 3), (3, 4), (2, L + 1), (3, L), (5, 4)])
        # start 2 runs to L+1, start 1 to L, start 3 to L; (5, 4) is empty
        assert sorted(calls) == sorted([*range(2, L + 2), *range(1, L + 1),
                                        *range(3, L + 1)])

    def test_chain_rejects_a_bad_range(self):
        p = small_net()
        t = forward(p, unit(np.ones(4)))
        with pytest.raises(model.ShapeError):
            interlayer_norms(p, t, 0, [(2, 3), (0, 2)])

    def test_submultiplicative_sanity(self):
        p = small_net(seed=22, L=6, m=16, m_last=16)
        t = forward(p, unit(RngState(23).standard_normal(4)))
        cap = 1.0
        for l in range(2, p.depth + 1):
            cap *= 1.0 + p.theta * numkit.spectral_norm(p.weights[l - 1])
        assert interlayer_norms(p, t, 0, [(2, p.depth)])[0] <= cap + 1e-9

    def test_range_validation(self):
        p = small_net()
        t = forward(p, unit(np.ones(4)))
        for bad in ((0, 2), (2, p.depth + 2), (p.depth + 3, p.depth + 1)):
            with pytest.raises(model.ShapeError):
                interlayer_norms(p, t, 0, [bad])

    def test_patterns_frozen_not_recomputed(self):
        # the operators and the backward rows read the trace's patterns and
        # never recompute them from its activations: on a trace whose
        # patterns are all flipped, they follow the flipped patterns
        p = small_net(seed=24)
        t = forward(p, unit(RngState(25).standard_normal(4)))
        flipped = BatchTrace(t.activations, tuple(~s for s in t.patterns), t.outputs)
        oracle = float(np.linalg.svd(self.dense_h(p, flipped, 2, 2), compute_uv=False)[0])
        assert interlayer_norms(p, flipped, 0, [(2, 2)])[0] == pytest.approx(oracle, rel=1e-10)
        assert interlayer_norms(p, t, 0, [(2, 2)])[0] != pytest.approx(oracle, rel=1e-6)
        *_, (l, g, _) = lossgrad._backward_rows(p, flipped)
        np.testing.assert_allclose(g[0], p.v @ self.dense_h(p, flipped, 2, p.depth + 1),
                                   rtol=1e-12, atol=1e-14)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = small_net(seed=27, d=5, L=3, m=6, m_last=4)
        path = tmp_path / "net.bin"
        save_checkpoint(p, path, seed=(27, 0))
        q = load_checkpoint(path)
        assert q.arch == p.arch and q.theta == p.theta
        for wa, wb in zip(p.weights, q.weights):
            assert wa.tobytes() == wb.tobytes()
        # save -> load -> save produces identical bytes
        path2 = tmp_path / "net2.bin"
        save_checkpoint(q, path2, seed=(27, 0))
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        p = small_net(seed=28)
        path = tmp_path / "net.bin"
        save_checkpoint(p, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(model.CheckpointFormatError):
            load_checkpoint(path)

    def test_nonfinite_weights_rejected(self, tmp_path):
        p = small_net(seed=29)
        for bad in (np.inf, -np.inf, np.nan):
            w = [wl.copy() for wl in p.weights]
            w[1][2, 3] = bad
            path = tmp_path / "bad.bin"
            save_checkpoint(p.with_weights(w), path)
            with pytest.raises(model.CheckpointFormatError, match="layer 2"):
                load_checkpoint(path)

    def test_invalid_network_is_a_format_error(self, tmp_path):
        # a header the network rejects (theta * L > 1) is a bad file, not a
        # bad hyperparameter
        path = tmp_path / "net.bin"
        save_checkpoint(small_net(seed=30), path)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        header = header.replace(b'"theta": 0.0333', b'"theta": 0.9333')
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(model.CheckpointFormatError, match="theta"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(model.CheckpointFormatError):
            load_checkpoint(path)
