import math

import numpy as np
import pytest

from reslab import lossgrad, model, numkit
from reslab.lossgrad import finite_diff_oracle, loss_grad, xent, xent_deriv
from reslab.model import forward_batch, init_gaussian
from reslab.numkit import RngState


def unit(v):
    return v / np.linalg.norm(v)


def forward(p, x):
    """One-row trace of a single input."""
    return forward_batch(p, x[None, :])


def output_gradients(p, t):
    """Each layer's output gradient at a one-row trace, indexed by layer,
    from the gradient stream GD takes, at weight 1."""
    return dict(lossgrad._layer_gradients(p, t, np.ones(1)))


def held_loss_grad(p, xs, ys):
    """The loss gradient on a trace the caller keeps: ``loss_terms``
    weighting the gradient stream, its layers in layer order."""
    bt = forward_batch(p, xs)
    loss, value, weights = lossgrad.loss_terms(bt.outputs, ys)
    layers = dict(lossgrad._layer_gradients(p, bt, weights))
    return loss, value, lossgrad.GradientSet(tuple(layers[l] for l in sorted(layers)))


def net(seed=0, d=4, L=6, m=16, m_last=16, arch="residual"):
    return init_gaussian(RngState(seed).substream("init"), d, L, m, m_last,
                         0.1 / L, arch)


class TestXent:
    def test_values_at_zero(self):
        assert xent(0.0) == pytest.approx(math.log(2.0))
        assert xent_deriv(0.0) == pytest.approx(-0.5)

    def test_overflow_safe_tails(self):
        assert xent(-1000.0) == pytest.approx(1000.0)
        assert xent(1000.0) == 0.0
        assert xent_deriv(1000.0) == pytest.approx(0.0, abs=1e-300)
        assert xent_deriv(-1000.0) == pytest.approx(-1.0)

    def test_deriv_matches_finite_difference(self):
        z = np.linspace(-30, 30, 301)
        h = 1e-6
        fd = (xent(z + h) - xent(z - h)) / (2 * h)
        np.testing.assert_allclose(xent_deriv(z), fd, atol=1e-7)

    def test_deriv_range(self):
        z = np.linspace(-35, 35, 1000)
        d = xent_deriv(z)
        assert np.all(d < 0) and np.all(d > -1)

    def test_loss_floor_on_mistakes(self):
        # per-sample loss is at least log 2 whenever the margin is nonpositive
        z = np.linspace(-5, 0, 50)
        assert np.all(xent(z) >= math.log(2.0) - 1e-15)


class TestOutputGradient:
    def test_matches_finite_differences_on_flip_free_entries(self):
        checked, skipped, worst, passed = lossgrad.gradient_check(RngState(17))
        assert passed and worst <= 1e-5
        assert checked >= 300 and checked + skipped == 20 * 7 * 4

    def test_gradient_check_fails_on_a_wrong_layer(self, monkeypatch):
        right = lossgrad._layer_gradients

        def wrong(p, t, w):
            for l, g in right(p, t, w):
                yield l, g * (1.0 + 1e-4 * (l == 3))

        monkeypatch.setattr(lossgrad, "_layer_gradients", wrong)
        checked, _, worst, passed = lossgrad.gradient_check(RngState(17))
        assert checked >= 300 and worst > 1e-5 and not passed

    @pytest.mark.parametrize("off", ["plain", "m_last"])
    def test_gradient_check_covers_plain_nets_and_other_output_widths(self, monkeypatch,
                                                                       off):
        # a stream wrong only on plain nets, or only where m_last != m,
        # fails the gate
        right = lossgrad._layer_gradients

        def wrong(p, t, w):
            bad = p.arch == "plain" if off == "plain" else p.m_last != p.m
            for l, g in right(p, t, w):
                yield l, g * (1.0 + 1e-4 * bad)

        monkeypatch.setattr(lossgrad, "_layer_gradients", wrong)
        checked, _, worst, passed = lossgrad.gradient_check(RngState(17))
        assert checked >= 300 and worst > 1e-5 and not passed

    def test_flip_free_entries_are_exactly_linear(self):
        # with frozen patterns the output is linear in any single weight
        # entry (each path uses a layer once), so flip-free central
        # differences are exact up to roundoff at any step size
        p = net(1)
        x = unit(RngState(7).standard_normal(4))
        g = output_gradients(p, forward(p, x))[2]
        checked = 0
        for i in range(0, 16, 5):
            for j in range(0, 16, 5):
                if finite_diff_oracle(p, x, 2, i, j, 1e-2) is None:
                    continue
                for h in (1e-2, 1e-3):
                    fd = finite_diff_oracle(p, x, 2, i, j, h)
                    assert fd == pytest.approx(g[i, j], abs=1e-9)
                checked += 1
        assert checked >= 3

    def test_directional_truncation_error_decays_quadratically(self):
        # along a full-weight direction the output is a depth-degree
        # polynomial, so directional central differences show the O(h^2)
        # truncation decay that single entries (linear) cannot
        p = net(1)
        x = unit(RngState(7).standard_normal(4))
        direction = [RngState(70 + k).standard_normal(w.shape)
                     for k, w in enumerate(p.weights)]
        grads = output_gradients(p, forward(p, x))
        grad_dot_d = sum(float(np.sum(grads[l] * direction[l - 1]))
                         for l in range(1, p.depth + 2))

        def f_along(tval):
            moved = p.with_weights(w + tval * d for w, d in zip(p.weights, direction))
            return float(forward(moved, x).outputs[0])

        base = forward(p, x)
        errs = []
        for h in (1e-3, 1e-4):
            for s in (+h, -h):
                moved = p.with_weights(w + s * d for w, d in zip(p.weights, direction))
                tr = forward(moved, x)
                for l in range(1, p.depth + 2):
                    if not np.array_equal(tr.pattern(l), base.pattern(l)):
                        pytest.skip("direction crosses a kink at this seed")
            errs.append(abs((f_along(h) - f_along(-h)) / (2 * h) - grad_dot_d))
        assert errs[0] > 1e-9  # curvature visible at the larger step
        assert errs[1] <= errs[0] / 20

    def test_zero_pattern_gives_zero_gradient(self):
        p = net(2)
        x = unit(RngState(8).standard_normal(4))
        dead = [w.copy() for w in p.weights]
        dead[2] = -np.abs(dead[2])  # all layer-3 preactivations nonpositive
        p2 = p.with_weights(dead)
        t2 = forward(p2, x)
        assert not np.any(t2.pattern(3))
        assert np.all(output_gradients(p2, t2)[3] == 0.0)

    def test_theta_linearity_with_frozen_trace(self):
        # with activations and patterns frozen, doubling theta exactly
        # doubles the layer-L gradient (its backward row is theta-free) and
        # leaves the output layer unchanged; the leading scale factor is
        # theta^{1(2<=l<=L)} at every layer
        L = 6
        base = net(3, L=L)
        doubled = model.NetworkParams(base.weights, 2 * base.theta, base.v, base.arch)
        x = unit(RngState(9).standard_normal(4))
        bt = forward_batch(base, x[None, :])
        w = np.array([1.0])
        g1 = dict(lossgrad._layer_gradients(base, bt, w))
        g2 = dict(lossgrad._layer_gradients(doubled, bt, w))
        np.testing.assert_allclose(g2[L], 2.0 * g1[L], rtol=1e-12)
        np.testing.assert_allclose(g2[L + 1], g1[L + 1], rtol=1e-12)
        for l in range(1, L + 2):
            expected = base.theta if 2 <= l <= L else 1.0
            assert base.layer_scale(l) == expected
            assert doubled.layer_scale(l) == (2 * expected if 2 <= l <= L else 1.0)

    def test_rank_one_norm_identity(self):
        # ||outer(a, b)||_F == ||a|| * ||b|| realized by the analytic gradient
        p = net(4)
        x = unit(RngState(10).standard_normal(4))
        t = forward(p, x)
        masked = {l: rows for l, _, rows in lossgrad._backward_rows(p, t)}
        grads = output_gradients(p, t)
        for l in range(1, p.depth + 2):
            g = grads[l]
            a = t.activations[l - 1][0]
            b = masked[l][0] * p.layer_scale(l)
            assert np.linalg.norm(g) == pytest.approx(
                np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)


class TestBatchLossGrad:
    def make_data(self, p, n, seed=0):
        xs = RngState(seed).standard_normal((n, p.d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        ys = np.where(RngState(seed + 1).uniform(shape=n) < 0.5, 1.0, -1.0)
        return xs, ys

    def test_single_sample_composition(self):
        p = net(6)
        xs, ys = self.make_data(p, 1, seed=20)
        loss, surr, grads = loss_grad(p, xs, ys)
        t = forward(p, xs[0])
        c = xent_deriv(ys[0] * t.outputs[0]) * ys[0]
        one = output_gradients(p, t)
        for l in range(1, p.depth + 2):
            np.testing.assert_allclose(grads.layers[l - 1], c * one[l], rtol=1e-12)

    def test_batch_is_mean_of_per_sample(self):
        p = net(7)
        xs, ys = self.make_data(p, 8, seed=30)
        _, _, grads = loss_grad(p, xs, ys)
        manual = [np.zeros_like(w) for w in p.weights]
        for i in range(8):
            t = forward(p, xs[i])
            c = xent_deriv(ys[i] * t.outputs[0]) * ys[i] / 8
            for l, g in output_gradients(p, t).items():
                manual[l - 1] += c * g
        for a, b in zip(manual, grads.layers):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_duplication_invariance(self):
        p = net(8)
        xs, ys = self.make_data(p, 5, seed=40)
        l1, s1, g1 = loss_grad(p, xs, ys)
        l2, s2, g2 = loss_grad(p, np.vstack([xs, xs]), np.hstack([ys, ys]))
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert s1 == pytest.approx(s2, rel=1e-12)
        for a, b in zip(g1.layers, g2.layers):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-15)

    def test_surrogate_near_half_at_small_outputs(self):
        # shrink the last layer so outputs are tiny; -l'(0) = 1/2
        p = net(9, m=64, m_last=64)
        scaled = [w.copy() for w in p.weights]
        scaled[-1] *= 1e-6
        p = p.with_weights(scaled)
        xs, ys = self.make_data(p, 50, seed=50)
        _, surr, _ = loss_grad(p, xs, ys)
        assert surr == pytest.approx(0.5, abs=1e-4)

    def test_surrogate_strictly_inside_unit_interval(self):
        p = net(10)
        xs, ys = self.make_data(p, 16, seed=60)
        _, surr, _ = loss_grad(p, xs, ys)
        assert 0.0 < surr < 1.0

    def test_label_validation(self):
        p = net(11)
        xs, _ = self.make_data(p, 3, seed=70)
        with pytest.raises(lossgrad.DataError):
            loss_grad(p, xs, np.array([1.0, 0.5, -1.0]))
        with pytest.raises(lossgrad.DataError):
            loss_grad(p, xs[:0], np.array([]))

    def test_loss_total_is_mean(self):
        p = net(12)
        xs, ys = self.make_data(p, 7, seed=80)
        loss, _, _ = loss_grad(p, xs, ys)
        per_sample = xent(ys * forward_batch(p, xs).outputs)
        assert loss == pytest.approx(float(np.mean(per_sample)), rel=1e-12)

    def test_loss_only_matches_loss_grad_bits(self):
        for arch in ("residual", "plain"):
            p = net(17, L=5, m=32, m_last=24, arch=arch)
            xs, ys = self.make_data(p, 40, seed=92)
            bt = forward_batch(p, xs)
            alone = lossgrad.empirical_loss(bt.outputs, ys)
            loss, _, _ = loss_grad(p, xs, ys)
            assert alone.hex() == loss.hex()
            want = numkit.pairwise_sum(xent(ys * bt.outputs)) / 40
            assert alone.hex() == want.hex()
        with pytest.raises(lossgrad.DataError):
            lossgrad.empirical_loss(bt.outputs, np.where(ys > 0, 1.0, 0.0))
        with pytest.raises(lossgrad.DataError):
            lossgrad.empirical_loss(bt.outputs, ys[:-1])

    def test_output_grad_bits_match_unshared_formula(self):
        # each masked block rows[l] * sigma_l is formed once and shared by
        # the backward recursion and the gradient; the result must be bit
        # for bit the formula that forms it twice
        def unshared(p, bt, w):
            L = p.depth
            rows = [None] * (L + 2)
            g = np.broadcast_to(p.v, (bt.n, p.m_last))
            rows[L + 1] = g
            for l in range(L + 1, 1, -1):
                back = (g * bt.pattern(l)) @ p.weights[l - 1].T
                g = g + p.theta * back if p.arch == "residual" and 2 <= l <= L else back
                rows[l - 1] = g
            return [(p.layer_scale(l) * (w[:, None] * bt.activations[l - 1])).T
                    @ (rows[l] * bt.pattern(l)) for l in range(1, L + 2)]

        for arch in ("residual", "plain"):
            p = net(16, L=5, m=32, m_last=24, arch=arch)
            xs, _ = self.make_data(p, 40, seed=90)
            bt = forward_batch(p, xs)
            w = RngState(91).standard_normal(40)
            got = dict(lossgrad._layer_gradients(p, bt, w))
            want = unshared(p, bt, w)
            assert sorted(got) == list(range(1, len(want) + 1))
            assert len(want) == p.depth + 1
            for a, b in zip((got[l] for l in sorted(got)), want):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_gradient_holds_few_row_blocks(self, arch, traced_peak):
        # each masked block serves its layer's product as it leaves the
        # stream and is dropped: beyond the returned layers, the traced peak
        # stays within six n x m row blocks (holding all L+1 measured 19)
        p = net(12, d=10, L=16, m=64, m_last=64, arch=arch)
        xs, _ = self.make_data(p, 50, seed=93)
        bt = forward_batch(p, xs)
        w = RngState(94).standard_normal(50)
        grads, peak = traced_peak(lambda: dict(lossgrad._layer_gradients(p, bt, w)))
        assert peak - sum(g.nbytes for g in grads.values()) <= 6 * 50 * 64 * 8

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_handed_over_trace_matches_a_held_one(self, arch):
        # loss_grad hands the trace it forms to the gradient stream: its
        # loss, surrogate and every layer are bit for bit those taken on a
        # trace the caller keeps
        p = net(18, L=5, m=32, m_last=24, arch=arch)
        xs, ys = self.make_data(p, 40, seed=97)
        loss, value, grads = loss_grad(p, xs, ys)
        want_loss, want_value, want = held_loss_grad(p, xs, ys)
        assert [loss.hex(), value.hex()] == [want_loss.hex(), want_value.hex()]
        assert [g.tobytes() for g in grads.layers] == [g.tobytes() for g in want.layers]

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_handed_over_trace_is_freed_as_the_gradient_grows(self, arch, traced_peak):
        # the stream drops each trace layer once its gradient is formed, so
        # a trace (0.92 of the gradient set here) that only the stream holds
        # shrinks as the gradient grows: beyond the returned layers the
        # peak stays within the stream's own six n x m row blocks (5.1
        # measured).  On a trace the caller keeps, the same gradient holds
        # both (24.3 blocks measured)
        p = net(12, d=10, L=16, m=64, m_last=64, arch=arch)
        xs, ys = self.make_data(p, 50, seed=93)
        bound = 6 * 50 * 64 * 8
        for run, within in ((loss_grad, True), (held_loss_grad, False)):
            (_, _, grads), peak = traced_peak(lambda: run(p, xs, ys))
            assert (peak - sum(g.nbytes for g in grads.layers) <= bound) == within

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_stream_yields_a_layer_once_its_weight_is_read(self, arch):
        # a caller may overwrite W_l as soon as layer l arrives: with each
        # yielded layer's weight set to NaN, every layer still has
        # the bytes of the stream left untouched, in the order l = L+1 down to 1
        p = net(16, d=10, L=6, m=32, m_last=24, arch=arch)
        xs, _ = self.make_data(p, 30, seed=95)
        bt = forward_batch(p, xs)
        w = RngState(96).standard_normal(30)
        want = dict(lossgrad._layer_gradients(p, bt, w))
        own = p.with_weights(wl.copy() for wl in p.weights)
        got = []
        for l, g in lossgrad._layer_gradients(own, bt, w):
            own.weights[l - 1].fill(np.nan)
            got.append((l, g.tobytes()))
        assert got == [(l, want[l].tobytes()) for l in range(p.depth + 1, 0, -1)]

    def test_oracle_reports_flips_itself_in_three_passes(self, monkeypatch):
        # a flip-free entry costs the base pass and the two probes; an entry
        # whose probes cross a kink gives None instead of a difference
        p = net(1)
        x = unit(RngState(7).standard_normal(4))
        passes = []

        def counted(*args):
            passes.append(1)
            return forward_batch(*args)

        monkeypatch.setattr(lossgrad, "forward_batch", counted)
        fd = finite_diff_oracle(p, x, 2, 0, 0, 1e-4)
        assert fd == pytest.approx(output_gradients(p, forward(p, x))[2][0, 0], abs=1e-9)
        assert len(passes) <= 3
        assert finite_diff_oracle(p, x, 1, int(np.argmax(np.abs(x))), 0, 10.0) is None

    def test_finite_diff_oracle_zero_net(self):
        p = net(14)
        p = p.with_weights(np.zeros_like(w) for w in p.weights)
        assert finite_diff_oracle(p, unit(np.ones(4)), 2, 0, 0, 1e-4) == 0.0

    def test_finite_diff_step_validation(self):
        p = net(15)
        with pytest.raises(ValueError):
            finite_diff_oracle(p, unit(np.ones(4)), 1, 0, 0, 0.0)
