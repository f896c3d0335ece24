import csv
import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from reslab import cli, lossgrad, model, numkit, probes, trainer
from reslab.data import Teacher, make_teacher, sample_dataset, unit_sphere_rows
from reslab.model import NetworkParams, forward_batch, init_gaussian, output_vector
from reslab.numkit import RngState
from reslab.probes import PerturbationBall


@pytest.fixture(scope="module")
def deep():
    """A net at the golden depth but width 64, with its parameter bytes."""
    rng = RngState(3)
    params = init_gaussian(rng.substream("i"), 10, 16, 64, 64, 0.1 / 16)
    return rng, params, sum(w.nbytes for w in params.weights)


@pytest.fixture(scope="module")
def toy():
    rng = RngState(31)
    teacher = make_teacher(rng.substream("teacher"), 6, 32, 0.05)
    ds = sample_dataset(teacher, rng.substream("data"), 60, pilot_draws=5000)
    params = init_gaussian(rng.substream("init"), 6, 4, 48, 48, 0.1 / 4)
    return rng, teacher, ds, params


class TestPerturbationBall:
    def test_zero_radius_returns_center(self, toy):
        rng, _, _, params = toy
        ball = PerturbationBall(params, 0.0, rng.substream("b0"))
        drawn = ball.draw()
        for a, b in zip(drawn.weights, params.weights):
            assert a.tobytes() == b.tobytes()

    def test_draws_respect_radius_exactly(self, toy):
        rng, _, _, params = toy
        tau = 0.2
        ball = PerturbationBall(params, tau, rng.substream("b1"))
        for _ in range(20):
            drawn = ball.draw()
            for a, b in zip(drawn.weights, params.weights):
                assert numkit.frobenius_norm(a - b) <= tau

    @pytest.mark.parametrize("tau", [0.0, 0.2])
    def test_layer_stream_is_the_draw(self, toy, tau):
        # the stream takes the ball's random numbers in draw()'s order: its
        # layers are a draw's bit for bit, and so is the draw after it
        rng, _, _, params = toy
        streamed = PerturbationBall(params, tau, rng.substream("b5"))
        drawn = PerturbationBall(params, tau, rng.substream("b5"))
        layers = list(streamed.layers())
        assert [l for l, _ in layers] == list(range(1, params.depth + 2))
        assert [w.tobytes() for _, w in layers] == [
            w.tobytes() for w in drawn.draw().weights]
        assert [w.tobytes() for w in streamed.draw().weights] == [
            w.tobytes() for w in drawn.draw().weights]

    def test_boundary_bias(self, toy):
        rng, _, _, params = toy
        tau = 0.2
        ball = PerturbationBall(params, tau, rng.substream("b2"))
        at_boundary = 0
        for _ in range(50):
            drawn = ball.draw()
            r = numkit.frobenius_norm(drawn.weights[0] - params.weights[0])
            if r > 0.99 * tau:
                at_boundary += 1
        assert at_boundary >= 25  # nominal 80 percent of draws

    def test_small_radii_draws_stay_within_tau(self):
        # at the golden shape the rounding noise of (w + delta) - w is far
        # above a 1e-12 shrink of tau once tau is this small
        params = init_gaussian(RngState(5), 10, 16, 256, 256, 0.1 / 16)
        for tau in (1e-6, 1e-9):
            ball = PerturbationBall(params, tau, RngState(5).substream("ball"))
            for _ in range(3):
                drawn = ball.draw()
                for a, b in zip(drawn.weights, params.weights):
                    assert numkit.frobenius_norm(a - b) <= tau

    def test_place_raises_when_rounding_keeps_the_difference_outside(self, toy):
        # around a center of ones a per-entry step above half an ulp of 1.0
        # is stored as a whole ulp, so no shrink brings the stored difference
        # within this tau; the check must raise, also under python -O
        rng, _, _, params = toy
        ones = params.with_weights([np.ones_like(w) for w in params.weights])
        w1 = ones.weights[0]
        tau = 1.5e-16 * np.sqrt(w1.size)
        ball = PerturbationBall(ones, tau, rng.substream("b3"))
        with pytest.raises(RuntimeError, match="exceeds tau"):
            ball.shifted([np.full(w1.shape, 1.5e-16)] + [None] * params.depth)

    @pytest.mark.parametrize("entry", [np.inf, np.nan, 1e200])
    def test_place_returns_nan_for_a_difference_of_non_finite_norm(self, toy, entry):
        # a diverged ascent step has no point of the ball: its layer comes
        # back as NaN, which the ascent drops, and not as a finite point
        # outside the ball (1e200 squared overflows the norm)
        rng, _, _, params = toy
        ball = PerturbationBall(params, 0.1, rng.substream("b4"))
        w1 = params.weights[0]
        with np.errstate(over="ignore"):
            moved = ball.shifted([np.full(w1.shape, entry)] + [None] * params.depth)
        assert np.isnan(moved.weights[0]).all()
        assert all(a is b for a, b in zip(moved.weights[1:], params.weights[1:]))


def _cell(text):
    """A details cell as the probe wrote it: an int, a float or a string."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _fit(rows, value, basis, empty=0.0):
    # the fit rule restated, so that the reports are checked against it
    c = max((r[value] / r[basis] for r in rows if r[basis] > 0), default=empty)
    return c, all(r[value] <= c * r[basis] + probes.FIT_SLACK or r[basis] == 0
                  for r in rows)


def _slope(xs, ys):
    keep = [(x, y) for x, y in zip(xs, ys) if y > 0]
    if len(keep) < 2:
        return math.nan
    return float(np.polyfit(np.log([x for x, _ in keep]), np.log([y for _, y in keep]),
                            1)[0])


def _activation_norms(rows, cfg, run, measured):
    xn = [r for r in rows if r["kind"] == "xnorm"]
    hn = [r["value_max"] for r in rows if r["kind"] == "hnorm"]
    mid = [r["value_max"] for r in rows
           if r["kind"] == "hnorm" and 2 <= r["l"] and r["lp"] <= cfg["L"]]
    limit = math.exp(3.0 * cfg["theta"] * cfg["L"]) if cfg["arch"] == "residual" else math.inf
    got = {"xnorm_min": min(r["value_min"] for r in xn),
           "xnorm_max": max(r["value_max"] for r in xn),
           "h_mid_max": max(mid, default=0.0), "h_all_max": max(hn, default=0.0)}
    ok = (cfg["norm_low"] <= got["xnorm_min"] and got["xnorm_max"] <= cfg["norm_high"]
          and all(h <= limit for h in mid))
    return got, limit, got["h_all_max"], ok


def _input_lipschitz(rows, cfg, run, measured):
    c = max((r["ratio_max"] for r in rows), default=0.0)
    return {"fitted_constant": c}, c, c, True


def _weight_lipschitz_flips(rows, cfg, run, measured):
    c2, ok = _fit(rows, "activation_dist", "weight_basis")
    c3, _ = _fit(rows, "flips", "flip_basis")
    means = [float(np.mean([r["flips"] for r in rows if r["tau"] == tau]))
             for tau in cfg["tau_grid"]]
    return ({"fitted_c2": c2, "fitted_c3": c3, "flip_slope": _slope(cfg["tau_grid"], means),
             "mean_flips_per_tau": {repr(t): f for t, f in zip(cfg["tau_grid"], means)}},
            c3, c2, ok)


def _semismoothness(rows, cfg, run, measured):
    c, _ = _fit(rows, "residual", "basis_f", empty=-math.inf)
    loss = max((r["loss_ratio"] for r in rows if not math.isnan(r["loss_ratio"])),
               default=-math.inf) if cfg["with_loss"] else math.nan
    return ({"fitted_cbar_f": c, "fitted_cbar_loss": loss}, max(c, 0.0), c,
            measured["control_residual"] <= 1e-12)


def _gradient_bounds(rows, cfg, run, measured):
    up = max((r["ratio_up_max"] for r in rows), default=-math.inf)
    low = min((r["ratio_low"] for r in rows), default=math.inf)
    return {"fitted_upper": up, "fitted_lower": low}, up, up, low > 0 and math.isfinite(up)


def _separability(rows, cfg, run, measured):
    margins = [r["margin"] for r in rows]
    control = rows[-1]["control_margin"]
    floor = cfg["gamma"] / 4.0
    return ({"margin_layer1": margins[0], "margin_layerL": margins[-1],
             "margin_min": min(margins), "control_margin_layerL": control},
            floor, margins[-1] / cfg["gamma"], margins[-1] >= floor and control < floor)


def _threshold_indices(rows, cfg, run, measured):
    c, ok = _fit(rows, "count_max", "basis")
    n = run["probe_inputs"]
    # each layer's count_mean is its integer count total over n inputs
    means = []
    for beta in cfg["beta_grid"]:
        layers = [r for r in rows if r["beta"] == beta]
        means.append(sum(round(r["count_mean"] * n) for r in layers) / (n * len(layers)))
    return {"fitted_cprime": c, "beta_slope": _slope(cfg["beta_grid"], means)}, c, c, ok


def _sparse_output(rows, cfg, run, measured):
    basis = (cfg["tau"] * math.sqrt(cfg["m"])
             + math.sqrt(cfg["sparsity"] * math.log(cfg["m"])))
    c, ok = _fit(rows, "max_output", "basis")
    return {"fitted_c1": c, "basis": basis}, c * basis, c, ok


def _loss_at_init(rows, cfg, run, measured):
    got = {r["quantity"]: r["value"] for r in rows}
    basis = math.sqrt(math.log(max(cfg["n"], 2)))
    c = max(got["loss"], got["max_abs_output"]) / basis
    return got, c * basis, c, got["loss"] <= c * basis + 1e-9


def _rademacher(rows, cfg, run, measured):
    values = [r["ascent_value"] for r in rows]
    estimate = numkit.pairwise_sum(values) / len(values) if values else 0.0
    tau, m, n = cfg["tau"], cfg["m"], cfg["n"]
    basis = tau ** (4.0 / 3.0) * math.sqrt(m * math.log(m)) + tau * math.sqrt(m / n)
    c = estimate / basis if basis > 0 else 0.0
    dropped = cfg["xi_draws"] - len(rows)
    return ({"estimate": estimate, "dropped": dropped, "basis": basis,
             "linearization_gap": max((r["linearization_gap"] for r in rows), default=0.0)},
            basis * c if basis > 0 else 0.0, c, dropped == 0)


def _surrogate_markov(rows, cfg, run, measured):
    got = {r["quantity"]: r["value"] for r in rows}
    err, surrogate = got.pop("test_error"), got.pop("test_surrogate")
    bound = 2.0 * surrogate + cfg["band"]
    return ({"test_error": err, "test_surrogate": surrogate}, bound,
            err / surrogate if surrogate > 0 else 0.0, err <= bound)


def _depth_sweep(rows, cfg, run, measured):
    steps = {(r["arch"], r["L"]): r["steps_to_threshold"] for r in rows}
    residual = [steps[("residual", L)] for L in cfg["L_grid"] if ("residual", L) in steps]
    ratio, ok = math.nan, all(s >= 0 for s in residual)
    if ok and residual:
        lo, hi = min(residual), max(residual)
        ratio = hi / lo if lo > 0 else (1.0 if hi == 0 else math.inf)
        ok = ratio <= probes.SWEEP_RATIO_LIMIT
    plain = math.nan
    if "plain" in cfg["arches"]:
        p, r = (steps.get((arch, max(cfg["L_grid"])), -1) for arch in ("plain", "residual"))
        if r > 0:
            plain = p / r if p >= 0 else math.inf
    return ({"residual_step_ratio": ratio, "plain_over_residual_at_max_depth": plain},
            probes.SWEEP_RATIO_LIMIT, ratio, ok)


# Each probe's report from its details rows, its own config and the run's
# config: (measured, bound_expr, constant_fit, verdict holds).
RECOMPUTE = {
    "activation_norms": _activation_norms, "input_lipschitz": _input_lipschitz,
    "weight_lipschitz_flips": _weight_lipschitz_flips,
    "semismoothness": _semismoothness, "gradient_bounds": _gradient_bounds,
    "separability": _separability, "threshold_indices": _threshold_indices,
    "sparse_output": _sparse_output, "loss_at_init": _loss_at_init,
    "rademacher": _rademacher, "surrogate_markov": _surrogate_markov,
    "depth_sweep": _depth_sweep,
}
# The measured values that only a report carries, which its rows cannot give.
REPORT_ONLY = {"semismoothness": {"control_residual"},
               "gradient_bounds": {"column_sets"},
               "input_lipschitz": {"pairs_used"}}
TOY_RUN = {"d": 4, "L": 3, "m": 16, "n": 40, "M": 16, "gamma": 0.05, "K": 200,
           "heldout_n": 100, "probe_inputs": 6, "probe_draws": 2, "trials": 4,
           "xi_draws": 2, "ascent_steps": 3, "sparsity": 4, "sweep_L": [2, 3],
           "sweep_m": 16, "steps_budget": 100}


class TestReportPlumbing:
    def test_every_report_recomputes_from_its_files(self, tmp_path):
        # the twelve reports of one run, read back from their two files:
        # each constant_fit, bound_expr, verdict and measured value follows
        # from the details rows and the configs, bit for bit
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(TOY_RUN))
        out = tmp_path / "out"
        assert cli.main(["probe", "--config", str(cfg_path), "--out", str(out),
                         "--probes", "all"]) == 0
        assert sorted(RECOMPUTE) == sorted(cli.PROBE_NAMES)
        verdicts = set()
        for name in cli.PROBE_NAMES:
            rep = json.loads((out / f"{name}.report.json").read_text())
            with open(out / rep["details_file"], newline="", encoding="utf-8") as fh:
                rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            measured, bound, fit, ok = RECOMPUTE[name](rows, rep["config"], TOY_RUN,
                                                       rep["measured"])
            only = REPORT_ONLY.get(name, set())
            assert only <= rep["measured"].keys()
            want = {"measured": measured, "bound_expr": bound, "constant_fit": fit,
                    "verdict": "hold" if ok else "violated"}
            got = {"measured": {k: v for k, v in rep["measured"].items() if k not in only},
                   **{k: rep[k] for k in ("bound_expr", "constant_fit", "verdict")}}
            # as JSON text, so a float matches only bit for bit, NaN included
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), name
            verdicts.add(rep["verdict"])
        assert verdicts == {"hold", "violated"}


class TestActivationNormProbe:
    def test_healthy_init_holds_at_moderate_width(self):
        # the [0.5, 1.5] window needs enough width to concentrate
        rng = RngState(33)
        params = init_gaussian(rng.substream("init"), 6, 4, 256, 256, 0.1 / 4)
        xs = unit_sphere_rows(rng.substream("xa"), 30, 6)
        rep = probes.probe_activation_norms(params, xs, h_inputs=2)
        assert rep.verdict == "hold"
        assert 0.5 <= rep.measured["xnorm_min"] <= rep.measured["xnorm_max"] <= 1.5
        assert rep.measured["h_mid_max"] <= rep.bound_expr

    def test_narrow_net_breaches_window(self, toy):
        # at width 48 the per-layer norms spread beyond the window, and the
        # probe must say so
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xa"), 30, params.d)
        rep = probes.probe_activation_norms(params, xs, h_inputs=1)
        assert rep.verdict == "violated"
        assert rep.measured["h_mid_max"] <= rep.bound_expr  # middle products still fine

    def test_one_chain_per_start_layer(self, toy, monkeypatch):
        # L = 4: pairs (1,4) (2,3) (2,4) (2,5) (3,4) (4,4) share the chains
        # from layers 1, 2, 3 and 4, 4 + 4 + 2 + 1 factors, not 16
        rng, _, _, params = toy
        calls = []
        apply = model._factor_apply

        def counted(*args):
            calls.append(args[3])
            return apply(*args)

        monkeypatch.setattr(model, "_factor_apply", counted)
        xs = unit_sphere_rows(rng.substream("chain"), 3, params.d)
        rep = probes.probe_activation_norms(params, xs, h_inputs=2)
        assert [r[1:3] for r in rep.details if r[0] == "hnorm"] == 2 * [
            [1, 4], [2, 3], [2, 4], [2, 5], [3, 4], [4, 4]]
        assert len(calls) == 2 * 11

    def test_batched_norms_match_one_row_passes(self, toy, monkeypatch):
        # interlayer norms read only the patterns and the weights, so the
        # rows of one batched trace give the bits of one-row passes: the
        # probe's hnorm rows, and sweep_cell's h2l at init and trained
        rng, _, ds, _ = toy

        def one_row_norms(net, x, pairs):
            return model.interlayer_norms(net, forward_batch(net, x[None, :]), 0, pairs)

        trained = []
        train = trainer.train
        monkeypatch.setattr(trainer, "train",
                            lambda *a: trained.append(train(*a)) or trained[-1])
        L = 4
        pairs = probes._default_layer_pairs(L)
        for arch in ("residual", "plain"):
            params = init_gaussian(rng.substream(f"batch/{arch}"), 6, L, 48, 48,
                                   0.1 / L, arch)
            xs = unit_sphere_rows(rng.substream(f"xb/{arch}"), 6, params.d)
            rep = probes.probe_activation_norms(params, xs, h_inputs=6)
            hnorms = [r[3] for r in rep.details if r[0] == "hnorm"]
            expected = [hn for x in xs for hn in one_row_norms(params, x, pairs)]
            assert [h.hex() for h in hnorms] == [h.hex() for h in expected]

            cell_rng = rng.substream(f"cell/{arch}")
            row = probes.sweep_cell(cell_rng, arch, L, ds, 48, theta_per_L=0.1,
                                    eta_scale=40.0, steps_budget=5,
                                    surrogate_target=0.01)
            init = init_gaussian(cell_rng.substream(f"init/{arch}/{L}"), 6, L, 48, 48,
                                 0.1 / L, arch)
            assert trained[-1].steps_run == 5
            for key, net in (("h2l_init", init), ("h2l_final", trained[-1].params)):
                one_row = max(one_row_norms(net, x, [(2, L)])[0] for x in ds.xs[:3])
                assert row[key].hex() == one_row.hex(), (arch, key)

    def test_rejects_off_sphere_inputs(self, toy):
        _, _, _, params = toy
        with pytest.raises(ValueError):
            probes.probe_activation_norms(params, np.ones((2, params.d)))


class TestInputLipschitz:
    def test_filters_coincident_pairs(self, toy):
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xl"), 8, params.d)
        rep = probes.probe_input_lipschitz(params, (xs, xs.copy()))
        assert rep.trials == 0  # every pair filtered by the min-distance gate

    def test_fitted_constant_is_max_ratio(self, toy):
        rng, _, _, params = toy
        a = unit_sphere_rows(rng.substream("xl1"), 20, params.d)
        b = unit_sphere_rows(rng.substream("xl2"), 20, params.d)
        rep = probes.probe_input_lipschitz(params, (a, b))
        assert rep.verdict == "hold"
        bta, btb = forward_batch(params, a), forward_batch(params, b)
        worst = 0.0
        base = np.linalg.norm(a - b, axis=1)
        for l in range(1, params.depth + 2):
            worst = max(worst, float(np.max(
                np.linalg.norm(bta.activations[l] - btb.activations[l], axis=1) / base)))
        assert rep.constant_fit == pytest.approx(worst, rel=1e-9)


class TestWeightLipschitzFlips:
    def test_coincident_weights_no_flips(self, toy):
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xf"), 5, params.d)
        bt = forward_batch(params, xs)
        flips = sum(int(np.count_nonzero(bt.pattern(l) != bt.pattern(l)))
                    for l in range(1, params.depth + 2))
        assert flips == 0

    def test_flip_counts_grow_with_radius(self, toy):
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xg"), 5, params.d)
        rep = probes.probe_weight_lipschitz_and_flips(
            params, rng.substream("ballg"), xs, (0.01, 0.1, 0.5), draws=4)
        flips = [rep.measured["mean_flips_per_tau"][repr(t)] for t in (0.01, 0.1, 0.5)]
        assert flips[0] <= flips[1] <= flips[2]
        assert rep.verdict == "hold"
        assert rep.measured["fitted_c2"] > 0

    def test_holds_one_pair_at_a_time(self, traced_peak, deep):
        # Wa and its trace, one layer of Wb and a layer's temporaries: below
        # 1.85 parameter sets (1.42 measured), which drawing Wb whole
        # exceeds (2.29 sets when it was; 4.5 when the last pair was also
        # held through the next draw)
        rng, params, size = deep
        xs = unit_sphere_rows(rng.substream("xw"), 4, params.d)
        rep, peak = traced_peak(lambda: probes.probe_weight_lipschitz_and_flips(
            params, rng.substream("bw"), xs, (0.1,), draws=3))
        assert rep.trials == 3
        assert peak < 1.85 * size

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_streamed_rows_match_list_formulas(self, toy, arch):
        # Wb arrives one layer at a time: every row is bit for bit the
        # formulas over whole draw() pairs and their two traces
        rng, _, _, params = toy
        params = replace(params, arch=arch)
        xs = unit_sphere_rows(rng.substream("xl"), 5, params.d)
        taus, draws = (0.01, 0.3), 2
        rep = probes.probe_weight_lipschitz_and_flips(
            params, rng.substream("bl"), xs, taus, draws)
        want = []
        for tau in taus:
            ball = PerturbationBall(params, tau, rng.substream("bl").substream(
                f"ball/{tau}"))
            for t in range(draws):
                wa, wb = ball.draw(), ball.draw()
                basis = probes._layered_weight_basis(params, [
                    numkit.spectral_norm(a - b) for a, b in zip(wa.weights, wb.weights)])
                bta, btb = forward_batch(wa, xs), forward_batch(wb, xs)
                for l in range(1, params.depth + 2):
                    dist = np.linalg.norm(bta.activations[l] - btb.activations[l], axis=1)
                    flips = np.count_nonzero(bta.pattern(l) != btb.pattern(l), axis=1)
                    want.append([tau, t, l, float(np.max(dist)), basis[l], int(np.max(flips)),
                                 params.widths[l - 1] * tau ** (2.0 / 3.0)])
        assert [[repr(v) for v in r] for r in rep.details] == [
            [repr(v) for v in r] for r in want]

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_basis_top_is_the_step_distance(self, arch):
        # the layered basis takes each layer's scale from the skip rule, so
        # its output layer is the pair's spectral step distance
        rng = RngState(33)
        params = init_gaussian(rng.substream("init"), 6, 5, 24, 24, 0.1 / 5, arch)
        ball = probes.PerturbationBall(params, 0.1, rng.substream("ball"))
        wa, wb = ball.draw(), ball.draw()
        norms = [numkit.spectral_norm(a - b) for a, b in zip(wa.weights, wb.weights)]
        basis = probes._layered_weight_basis(params, norms)
        h = trainer.step_distance(params, norms)
        assert basis[params.depth + 1] == pytest.approx(h, rel=1e-12)


class TestSemismoothness:
    def test_control_residual_exactly_zero(self, toy):
        rng, _, ds, params = toy
        xs = unit_sphere_rows(rng.substream("xs"), 8, params.d)
        rep = probes.probe_semismoothness(params, rng.substream("ssball"), xs,
                                          tau=0.1, draws=10, dataset=ds)
        assert rep.measured["control_residual"] <= 1e-12
        assert rep.verdict == "hold"
        assert np.isfinite(rep.measured["fitted_cbar_f"])
        assert np.isfinite(rep.measured["fitted_cbar_loss"])

    def test_loss_gradient_only_at_the_center(self, toy, monkeypatch):
        # trial points need only their loss: the one loss gradient is the
        # center's
        rng, _, ds, params = toy
        xs = unit_sphere_rows(rng.substream("xs"), 4, params.d)
        calls = []
        grad = lossgrad.loss_grad

        def counted(p, *args):
            calls.append(p)
            return grad(p, *args)

        monkeypatch.setattr(lossgrad, "loss_grad", counted)
        probes.probe_semismoothness(params, rng.substream("ssball"), xs,
                                    tau=0.1, draws=6, dataset=ds)
        assert calls == [params]

    def test_center_rows_formed_once_per_input(self, toy, monkeypatch):
        # 6 random trials cycle through 4 inputs and 4 targeted trials
        # revisit them: the center's one-row forward pass and backward rows
        # are formed once for each of the 4 inputs
        rng, _, ds, params = toy
        xs = unit_sphere_rows(rng.substream("xs"), 4, params.d)
        passes, rows = [], []
        fwd, back = probes.forward_batch, lossgrad._backward_rows

        def counted_forward(p, x):
            if p is params and np.atleast_2d(x).shape[0] == 1:
                passes.append(np.atleast_2d(x)[0].tobytes())
            return fwd(p, x)

        def counted_rows(p, bt):
            if p is params and bt.n == 1:
                rows.append(bt.activations[0][0].tobytes())
            return back(p, bt)

        monkeypatch.setattr(probes, "forward_batch", counted_forward)
        monkeypatch.setattr(lossgrad, "_backward_rows", counted_rows)
        probes.probe_semismoothness(params, rng.substream("ssball"), xs,
                                    tau=0.1, draws=6, dataset=ds)
        assert sorted(passes) == sorted(rows) == sorted(x.tobytes() for x in xs)

    def test_holds_one_draw_beyond_the_gradient(self, traced_peak, deep):
        # the center's loss gradient, the center rows, and one layer of a
        # draw with its temporaries: below 2.1 parameter sets (1.67
        # measured), which a whole draw beside the gradient, or a dataset
        # trace kept while the gradient is formed, exceeds (2.56 sets when
        # both were; 4.4 when the layer differences and the control's zero
        # matrices were held too)
        rng, params, size = deep
        teacher = make_teacher(rng.substream("t"), params.d, 32, 0.05)
        ds = sample_dataset(teacher, rng.substream("d"), 50, pilot_draws=5000)
        xs = unit_sphere_rows(rng.substream("xm"), 4, params.d)
        rep, peak = traced_peak(lambda: probes.probe_semismoothness(
            params, rng.substream("bm"), xs, tau=0.1, draws=4, dataset=ds))
        assert rep.measured["control_residual"] == 0.0
        assert peak < 2.1 * size

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_streamed_terms_match_list_formulas(self, toy, arch):
        # each trial takes its pair one layer at a time (a random one from
        # the ball's layer stream) and forms each difference once, in layer
        # order, for h, the linear term, the loss term and the forward
        # steps: bit for bit the formulas over whole draw() pairs and a list
        # of all their differences
        rng, _, ds, params = toy
        params = replace(params, arch=arch)
        xs = unit_sphere_rows(rng.substream("xt"), 3, params.d)
        tau, draws = 0.1, 4
        rep = probes.probe_semismoothness(params, rng.substream("bt"), xs,
                                          tau=tau, draws=draws, dataset=ds)
        ball = PerturbationBall(params, tau, rng.substream("bt").substream("ball"))
        lb, sb, gb = lossgrad.loss_grad(params, ds.xs, ds.ys)
        centers = [forward_batch(params, x[None, :]) for x in xs]
        pairs = [(ball.draw(), t % 3) for t in range(draws)]
        for i, bt in enumerate(centers):
            *_, (_, g, _) = lossgrad._backward_rows(params, bt)
            pairs.append((probes.flip_targeted_draw(ball, xs[i], g[0]), i))
        m = params.m
        coef_h = tau ** (1.0 / 3.0) * math.sqrt(m * math.log(m))
        assert len(rep.details) == len(pairs)
        for row, (wa, i) in zip(rep.details, pairs):
            deltas = [a - b for a, b in zip(wa.weights, params.weights)]
            h = 0.0
            for l, d in enumerate(deltas, 1):
                h += params.layer_scale(l) * numkit.spectral_norm(d)
            bt = centers[i]
            lin = probes._linearization_terms(
                params, bt, list(lossgrad._backward_rows(params, bt)), wa)
            resid = float(forward_batch(wa, xs[i][None, :]).outputs[0]
                          - bt.outputs[0] - lin[0])
            flips = int(np.count_nonzero(
                forward_batch(wa, xs[i][None, :]).pattern(1) != bt.pattern(1)))
            la = lossgrad.empirical_loss(forward_batch(wa, ds.xs).outputs, ds.ys)
            lin_loss = sum(float(np.sum(d * g)) for d, g in zip(deltas, gb.layers))
            loss_ratio = (la - lb - lin_loss) / (coef_h * h * sb + m * h * h)
            assert [row[2], row[3].hex(), row[4].hex(), row[6].hex()] == [
                flips, h.hex(), resid.hex(), loss_ratio.hex()]

    def test_targeted_pairs_stay_in_ball(self, toy):
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xs"), 8, params.d)
        for tau in (0.0, 0.001, 0.01, 0.1):
            ball = PerturbationBall(params, tau, rng.substream("ssball"))
            for x in xs:
                bt = forward_batch(params, x[None, :])
                *_, (_, g, _) = lossgrad._backward_rows(params, bt)  # ends with g_1
                wa = probes.flip_targeted_draw(ball, x, g[0])
                step = wa.weights[0] - params.weights[0]
                assert numkit.frobenius_norm(step) <= tau
                assert numkit.frobenius_norm(step) >= tau * (1.0 - 1e-9)
                assert np.linalg.matrix_rank(step) <= 1
                for a, b in zip(wa.weights[1:], params.weights[1:]):
                    assert a.tobytes() == b.tobytes()
                if tau == 0.001:
                    # no unit flips within this budget: all of it goes to
                    # the unit nearest its kink
                    assert np.count_nonzero(np.any(step != 0.0, axis=0)) == 1

    def test_targeted_pairs_flip_where_random_draws_do_not(self, toy, tmp_path):
        rng, _, ds, params = toy
        xs = unit_sphere_rows(rng.substream("xs"), 8, params.d)
        rep = probes.probe_semismoothness(params, rng.substream("ssball"), xs,
                                          tau=0.01, draws=16, dataset=ds)
        random = [r for r in rep.details if r[1] == "random"]
        targeted = [r for r in rep.details if r[1] == "targeted"]
        assert len(random) == 16 and len(targeted) == 8
        assert rep.trials == len(rep.details) == 24
        assert all(r[2] == 0 for r in random)
        assert any(r[2] >= 1 for r in targeted)

        def fit(rows):
            return max(r[4] / r[5] for r in rows if r[5] > 0)
        assert rep.measured["fitted_cbar_f"] == max(fit(random), fit(targeted))
        assert fit(targeted) > fit(random)
        assert rep.measured["fitted_cbar_loss"] == max(r[6] for r in rep.details)
        header = open(rep.write(tmp_path)["details"]).readline().strip()
        assert header.split(",")[:2] == ["trial", "pair"]


class TestGradientBounds:
    def test_ratios_normalized_and_positive(self, toy):
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=10))
        rep = probes.probe_gradient_bounds(params, ds, res)
        assert rep.verdict == "hold"
        assert rep.measured["fitted_lower"] > 0
        assert np.isfinite(rep.measured["fitted_upper"])

    def test_middle_layer_ratio_without_theta_is_larger(self, toy):
        # dropping the theta scale at a middle layer inflates the normalized
        # ratio by exactly 1/theta
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=2))
        rec = res.records[0]
        theta = params.theta
        l = 2
        with_theta = rec.grad_frob[l - 1] / (theta * np.sqrt(params.m) * rec.surrogate)
        without = rec.grad_frob[l - 1] / (np.sqrt(params.m) * rec.surrogate)
        assert with_theta == pytest.approx(without / theta, rel=1e-12)

    def test_needs_margin(self, toy):
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=2))
        with pytest.raises(ValueError):
            probes.probe_gradient_bounds(params, (ds.xs, ds.ys), res)

    def test_report_carries_the_column_sets(self, toy):
        # the probe adds the diagnostics of the trained network it is given
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=5))
        rep = probes.probe_gradient_bounds(params, ds, res)
        assert rep.measured["column_sets"] == probes.last_layer_column_sets(
            params, res.params, ds)

    def test_column_set_diagnostics(self, toy):
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=5))
        diag = probes.last_layer_column_sets(params, res.params, ds)
        assert 0 <= diag["A_prime"] <= params.m_last
        assert 0 <= diag["A_minus_A_prime"] <= diag["A"] <= params.m_last

    def test_column_sets_surrogate_is_the_lab_surrogate(self, toy):
        # the same trace gives the same bits as the trajectory's last record
        rng, _, ds, params = toy
        res = trainer.train(params, ds, trainer.TrainConfig(eta=0.05, steps=5))
        got = probes.last_layer_column_sets(params, res.params, ds)["surrogate"]
        want = lossgrad.surrogate(forward_batch(res.params, ds.xs).outputs, ds.ys)[0]
        assert got.hex() == want.hex() == res.records[-1].surrogate.hex()

    def test_column_sets_hold_less_than_a_trace(self, traced_peak, deep):
        # only the last layers of the two forward streams are kept: the
        # traced peak stays below one n-row trace (2.2 traces when it built
        # two whole ones)
        rng, params, _ = deep
        teacher = make_teacher(rng.substream("ct"), params.d, 32, 0.05)
        ds = sample_dataset(teacher, rng.substream("cd"), 50, pilot_draws=5000)
        cur = trainer.train(params, ds, trainer.TrainConfig(eta=1 / 64, steps=3)).params
        bt = forward_batch(params, ds.xs)
        trace = sum(a.nbytes for a in bt.activations + bt.patterns) + bt.outputs.nbytes
        del bt
        diag, peak = traced_peak(lambda: probes.last_layer_column_sets(params, cur, ds))
        assert diag["m_last"] == params.m_last
        assert peak < trace


class TestSeparability:
    def test_aligned_toy_fixture_reaches_half_margin(self):
        # teacher features on the axes, first layer the identity: every unit
        # reads one feature, alpha reproduces the teacher's coefficients
        # exactly, and the layer-1 margin equals the certified teacher margin
        d = 16
        rng = RngState(41)
        teacher = Teacher(np.eye(d) * np.sqrt(d), np.where(np.arange(d) % 2 == 0, 1.0, -1.0), 0.05)
        weights = (np.eye(d), np.eye(d), np.eye(d))
        params = NetworkParams(weights, 0.01, output_vector(d), "residual")
        ds = sample_dataset(teacher, rng.substream("d"), 40, pilot_draws=5000)
        rep = probes.probe_separability(teacher, params, ds, rng.substream("c"))
        assert rep.measured["margin_layer1"] >= teacher.gamma / 2
        # alpha_j = c_j / sqrt(d): x_1 = relu(x), margin = y * fhat >= gamma
        assert rep.measured["margin_layer1"] >= ds.realized_margin * 0.99

    def test_random_control_is_weak(self, toy):
        rng, teacher, ds, params = toy
        rep = probes.probe_separability(teacher, params, ds, rng.substream("ctl"))
        assert rep.measured["control_margin_layerL"] < rep.bound_expr


class TestThresholdIndices:
    def test_counts_monotone_in_beta(self, toy):
        rng, _, _, params = toy
        xs = unit_sphere_rows(rng.substream("xt"), 20, params.d)
        rep = probes.probe_threshold_indices(params, xs, (0.0, 0.01, 0.1, 0.5))
        by_beta = {}
        for beta, l, cmax, cmean, basis in rep.details:
            by_beta.setdefault(beta, 0.0)
            by_beta[beta] += cmean
        counts = [by_beta[b] for b in (0.0, 0.01, 0.1, 0.5)]
        assert counts == sorted(counts)
        assert by_beta[0.0] == 0.0  # exact zeros almost surely absent

    def test_scaling_with_width(self):
        # count/m at beta = m^(-1/2) is roughly width-independent
        rng = RngState(51)
        fractions = []
        for m in (64, 256):
            params = init_gaussian(rng.substream(f"i{m}"), 8, 3, m, m, 0.1 / 3)
            xs = unit_sphere_rows(rng.substream(f"x{m}"), 30, 8)
            beta = m ** -0.5
            rep = probes.probe_threshold_indices(params, xs, (beta,))
            mean_count = np.mean([row[3] for row in rep.details])
            fractions.append(mean_count / m)
        assert 0.3 <= fractions[0] / fractions[1] <= 3.0


class TestSparseOutput:
    def test_zero_direction_maps_to_zero(self, toy):
        rng, _, _, params = toy
        tr = forward_batch(params, unit_sphere_rows(rng.substream("xsp"), 1, params.d))
        for _, g, _ in lossgrad._backward_rows(params, tr):
            assert float(g[0] @ np.zeros(params.m)) == 0.0

    def test_matches_the_dense_interlayer_rows(self, toy):
        # each trial's max_output is max_l |vᵀ H_l^{L+1} a| with H multiplied
        # out from the draw's weights and its patterns at the trial's input,
        # replaying the probe's own draws
        _, _, _, params = toy
        L = params.depth
        rep = probes.probe_sparse_output(params, RngState(92), 0.1, 8, trials=4)
        rng = RngState(92)
        ball = probes.PerturbationBall(params, 0.1, rng.substream("ball"))
        for _, max_output, _ in rep.details:
            x = rng.standard_normal(params.d)
            x /= np.linalg.norm(x)
            wt = ball.draw()
            pats = forward_batch(wt, x[None, :]).patterns
            a = probes._sparse_unit(rng, params.m, 8)
            row, worst = params.v, 0.0
            for r in range(L + 1, 1, -1):  # row = vᵀ H_r^{L+1}
                f = pats[r - 1][0][:, None] * wt.weights[r - 1].T
                row = row @ (np.eye(f.shape[0]) + wt.theta * f if wt.skip(r) else f)
                worst = max(worst, abs(float(row @ a)))
            assert max_output == pytest.approx(worst, rel=1e-12)

    def test_runs_below_a_narrower_output_layer(self):
        # a lives at the hidden width even when m = m_last is smaller
        params = init_gaussian(RngState(93), 6, 3, 32, 16, 0.1 / 3)
        rep = probes.probe_sparse_output(params, RngState(94), 0.1, 4, trials=2)
        assert rep.trials == 2 and rep.config["m"] == 16

    def test_grows_with_sparsity(self, toy):
        rng, _, _, params = toy
        vals = []
        for s in (1, 16, 48):
            rep = probes.probe_sparse_output(params, rng.substream(f"sp{s}"),
                                             0.0, s, trials=10)
            vals.append(rep.measured["fitted_c1"] * rep.measured["basis"])
        assert vals[0] < vals[-1]

    def test_sparsity_validated(self, toy):
        rng, _, _, params = toy
        with pytest.raises(ValueError):
            probes.probe_sparse_output(params, rng, 0.1, params.m + 1, trials=20)

    def test_holds_one_draw_at_a_time(self, traced_peak, deep):
        # one draw, its one-row trace and a draw's temporaries: below two
        # parameter sets (2.3 when the last draw was held through the next)
        rng, params, size = deep
        rep, peak = traced_peak(lambda: probes.probe_sparse_output(
            params, rng.substream("bs"), 0.1, 8, trials=4))
        assert rep.trials == 4
        assert peak < 2 * size

    def test_fitted_constant_monotone_in_trials(self, toy):
        # a pointwise-max fit over a shared draw sequence can only grow as
        # trials accumulate
        _, _, _, params = toy
        fit5 = probes.probe_sparse_output(params, RngState(91), 0.1, 8,
                                          trials=5).constant_fit
        fit15 = probes.probe_sparse_output(params, RngState(91), 0.1, 8,
                                           trials=15).constant_fit
        assert fit15 >= fit5


class TestLossAtInit:
    def test_one_forward_pass_and_no_gradient(self, toy, monkeypatch):
        # one pass of the forward stream, read for its outputs: no trace
        _, _, ds, params = toy
        passes, traces, grads = [], [], []
        stream = model._forward_layers
        fwd, grad = probes.forward_batch, lossgrad._layer_gradients
        monkeypatch.setattr(model, "_forward_layers",
                            lambda *a: passes.append(a) or stream(*a))
        monkeypatch.setattr(probes, "forward_batch",
                            lambda *a: traces.append(a) or fwd(*a))
        monkeypatch.setattr(lossgrad, "forward_batch",
                            lambda *a: traces.append(a) or fwd(*a))
        monkeypatch.setattr(lossgrad, "_layer_gradients",
                            lambda *a: grads.append(a) or grad(*a))
        rep = probes.probe_loss_at_init(params, ds)
        assert len(passes) == 1 and traces == [] and grads == []
        # the same numbers as the loss, surrogate and outputs of one
        # full-gradient evaluation
        loss, surrogate, _ = lossgrad.loss_grad(params, ds.xs, ds.ys)
        assert rep.measured["loss"] == loss
        assert rep.measured["surrogate"] == surrogate
        assert rep.measured["max_abs_output"] == float(
            np.max(np.abs(fwd(params, ds.xs).outputs)))

    def test_zero_weight_network_loss_is_log_two(self, toy):
        rng, _, ds, params = toy
        zero = params.with_weights(np.zeros_like(w) for w in params.weights)
        rep = probes.probe_loss_at_init(zero, ds)
        assert rep.measured["loss"] == pytest.approx(np.log(2.0), rel=1e-12)
        assert rep.measured["max_abs_output"] == 0.0

    def test_doubling_n_changes_loss_mildly(self):
        rng = RngState(61)
        teacher = make_teacher(rng.substream("t"), 8, 32, 0.05)
        params = init_gaussian(rng.substream("i"), 8, 3, 128, 128, 0.1 / 3)
        d1 = sample_dataset(teacher, rng.substream("d1"), 200, pilot_draws=5000)
        d2 = sample_dataset(teacher, rng.substream("d2"), 400, pilot_draws=5000)
        l1 = probes.probe_loss_at_init(params, d1).measured["loss"]
        l2 = probes.probe_loss_at_init(params, d2).measured["loss"]
        assert abs(l2 - l1) / l1 <= 0.10


class TestRademacher:
    def test_tau_zero_is_exactly_zero(self, toy):
        rng, _, ds, params = toy
        rep = probes.rademacher_estimate(params, 0.0, ds, rng.substream("r0"),
                                         xi_draws=4, ascent_steps=5)
        assert rep.measured["estimate"] == 0.0

    def test_no_ascent_step_is_the_center(self, toy):
        # the config refuses ascent_steps 0, but a direct caller may pass
        # it: the center's own value is the estimate, and its gap is 0
        rng, _, ds, params = toy
        rep = probes.rademacher_estimate(params, 0.1, ds, rng.substream("r0"),
                                         xi_draws=3, ascent_steps=0)
        assert rep.measured["estimate"] == 0.0
        assert rep.measured["linearization_gap"] == 0.0
        assert rep.measured["dropped"] == 0

    def test_center_rows_streamed_once_per_draw(self, toy, monkeypatch):
        # one backward pass per ascent step, plus the center's rows once per
        # draw, streamed at its endpoint rather than held through the probe;
        # the first step's pass is on a trace of the center, formed for
        # that draw and dropped after its step
        rng, _, ds, params = toy
        nets = []
        rows = lossgrad._backward_rows

        def counted(p, bt):
            nets.append(p)
            return rows(p, bt)

        monkeypatch.setattr(lossgrad, "_backward_rows", counted)
        rep = probes.rademacher_estimate(params, 0.1, ds, rng.substream("rc"),
                                         xi_draws=3, ascent_steps=4)
        assert rep.measured["dropped"] == 0
        assert len(nets) == 3 + 3 * 4
        assert [i for i, p in enumerate(nets) if p is params] == [0, 4, 5, 9, 10, 14]

    @pytest.mark.parametrize("arch", ["residual", "plain"])
    def test_streamed_linearization_bits_match_list_formula(self, toy, arch):
        # the per-layer n-vectors arrive from layer L+1 down but are added
        # for l = 1..L+1, as the formula over a list of all rows and all
        # steps point - ref adds them
        rng, _, ds, params = toy
        params = replace(params, arch=arch)
        bt = forward_batch(params, ds.xs)
        point = params.with_weights(
            w + 0.01 * rng.substream(f"lin/{l}").standard_normal(w.shape)
            for l, w in enumerate(params.weights))
        deltas = [w - w0 for w, w0 in zip(point.weights, params.weights)]
        L = params.depth
        masked = [None] * (L + 2)
        g = np.broadcast_to(params.v, (bt.n, params.m_last))
        for l in range(L + 1, 1, -1):
            masked[l] = g * bt.pattern(l)
            back = masked[l] @ params.weights[l - 1].T
            g = g + params.theta * back if params.skip(l) else back
        masked[1] = g * bt.pattern(1)
        want = np.zeros(bt.n)
        for l in range(1, L + 2):
            want += params.layer_scale(l) * np.sum(
                (bt.activations[l - 1] @ deltas[l - 1]) * masked[l], axis=1)
        for rows in (lossgrad._backward_rows(params, bt),
                     list(lossgrad._backward_rows(params, bt))):
            got = probes._linearization_terms(params, bt, rows, point)
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def stepped_and_placed(iterate, center, grads, step_size, tau):
        # PerturbationBall._place's recurrence restated: w0 + d, with
        # d = (w + step_size * g) - w0, and its stored difference shrunk
        # radially, first by tau / norm with a 1e-12 margin, until it lies
        # within the per-layer tau-ball
        want = []
        for l, (w, w0) in enumerate(zip(iterate.weights, center.weights), 1):
            placed = w0 + ((w + grads[l] * step_size) - w0)
            margin = 1e-12
            for k in range(8):
                stored = placed - w0
                norm = numkit.frobenius_norm(stored)
                if norm <= tau:
                    break
                if k:
                    margin = min(probes._MAX_SHRINK, 2.0 * (margin + (norm - tau) / tau))
                placed = w0 + stored * (tau / norm) * (1.0 - margin)
            assert numkit.frobenius_norm(placed - w0) <= tau
            want.append(placed)
        return want

    @pytest.mark.parametrize("tau", [0.0, 0.05, 3.0, 10.0])
    def test_projection_bits_match_clip_formula(self, toy, tau):
        # a step from an iterate other than the center is written into the
        # iterate's own buffers and placed layer by layer: bit for bit
        # _place's recurrence on w + s * g, with the center untouched
        rng, _, ds, params = toy
        moved = params.with_weights(
            w + 0.1 * rng.substream(f"proj/{l}").standard_normal(w.shape)
            for l, w in enumerate(params.weights))
        bt = forward_batch(moved, ds.xs)
        xi = rng.substream("step").signs(ds.n) / ds.n
        grads = dict(lossgrad._layer_gradients(moved, bt, xi))
        want = self.stepped_and_placed(moved, params, grads, 0.5, tau)
        center = [w.tobytes() for w in params.weights]
        ball = PerturbationBall(params, tau, rng.substream("unused"))
        got = probes._ascent_step(moved, ball, bt, xi, 0.5)
        assert all(a is b for a, b in zip(got.weights, moved.weights))
        assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in want]
        assert [w.tobytes() for w in params.weights] == center

    def test_ascent_step_bits_match_formula(self, toy):
        # from the center the step is written into the gradient's buffers
        rng, _, ds, params = toy
        bt = forward_batch(params, ds.xs)
        xi = rng.substream("step").signs(ds.n) / ds.n
        grads = dict(lossgrad._layer_gradients(params, bt, xi))
        want = self.stepped_and_placed(params, params, grads, 0.01, 0.05)
        center = [w.tobytes() for w in params.weights]
        ball = PerturbationBall(params, 0.05, rng.substream("unused"))
        got = probes._ascent_step(params, ball, bt, xi, 0.01)
        assert not any(a is b for a, b in zip(got.weights, params.weights))
        assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in want]
        assert [w.tobytes() for w in params.weights] == center

    def test_every_iterate_lies_in_the_ball(self, toy, monkeypatch):
        # every layer an ascent step returns is within tau of the center, as
        # numkit measures it; w0 + d * tau / ||d||, whose two roundings can
        # land an ulp outside, left 10 of these 300 layers outside
        rng, _, ds, params = toy
        tau = 0.1
        norms = []
        step = probes._ascent_step

        def checked(*args):
            got = step(*args)
            norms.extend(numkit.frobenius_norm(w - w0)
                         for w, w0 in zip(got.weights, params.weights))
            return got

        monkeypatch.setattr(probes, "_ascent_step", checked)
        rep = probes.rademacher_estimate(params, tau, ds, rng.substream("rb"),
                                         xi_draws=3, ascent_steps=20)
        assert rep.measured["dropped"] == 0
        assert len(norms) == 3 * 20 * (params.depth + 1)
        assert sum(norm > tau for norm in norms) == 0

    def test_diverging_ascent_drops_its_draws(self, toy):
        # at this radius the outputs overflow within a few steps: each draw
        # is dropped and counted, not raised
        rng, _, ds, params = toy
        with np.errstate(over="ignore", invalid="ignore"):
            rep = probes.rademacher_estimate(params, 1e100, ds, rng.substream("rd"),
                                             xi_draws=3, ascent_steps=6)
        assert rep.measured["dropped"] == 3
        assert rep.details == [] and rep.verdict == probes.VERDICT_VIOLATED

    @pytest.mark.parametrize("tau, problem", [(-0.1, "nonnegative"),
                                              (1e200, "squared overflows")])
    def test_radius_the_ball_refuses_raises(self, toy, tau, problem):
        # 1e200 overflowed every step's norm, which scaled each step to
        # zero: the ascent stayed at the center and reported 0.0, a hold
        rng, _, ds, params = toy
        with pytest.raises(ValueError, match=problem):
            probes.rademacher_estimate(params, tau, ds, rng.substream("rn"),
                                       xi_draws=2, ascent_steps=3)

    def test_ascent_holds_few_parameter_sets(self, traced_peak):
        # each layer is stepped and projected as it leaves the gradient
        # stream, one trace is alive at a time (the center's is formed
        # only for a draw's first step and its gap), and the gap forms
        # each layer's step as the center's rows reach it: the traced peak
        # stays within one parameter set, one trace and half a set (3.22
        # sets when the center's trace was held through the probe, 4.13
        # when a step held a whole gradient set)
        rng = RngState(3)
        teacher = make_teacher(rng.substream("t"), 10, 32, 0.05)
        ds = sample_dataset(teacher, rng.substream("d"), 50, pilot_draws=5000)
        params = init_gaussian(rng.substream("i"), 10, 16, 64, 64, 0.1 / 16)
        rep, peak = traced_peak(lambda: probes.rademacher_estimate(
            params, 0.1, ds, rng.substream("xi"), xi_draws=3, ascent_steps=4))
        assert rep.measured["dropped"] == 0
        trace = forward_batch(params, ds.xs)
        held = sum(a.nbytes for a in trace.activations + trace.patterns)
        assert peak <= 1.5 * sum(w.nbytes for w in params.weights) + held

    def test_nondecreasing_in_tau_with_shared_draws(self, toy):
        rng, _, ds, params = toy
        shared = rng.substream("rshare")
        vals = [probes.rademacher_estimate(params, tau, ds, shared, xi_draws=4,
                                           ascent_steps=10).measured["estimate"]
                for tau in (0.01, 0.1, 0.5)]
        assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9

    def test_values_are_ascent_certified(self, toy):
        # every per-draw value comes from a feasible point, so the mean is a
        # valid lower estimate; it must be nonnegative by centering
        rng, _, ds, params = toy
        rep = probes.rademacher_estimate(params, 0.1, ds, rng.substream("rc"),
                                         xi_draws=6, ascent_steps=10)
        assert rep.measured["estimate"] >= 0.0
        assert rep.measured["dropped"] == 0
        assert all(row[1] >= 0.0 for row in rep.details)


class TestMarkov:
    def test_holds_no_trace(self, traced_peak, deep):
        # the held-out error and surrogate read only the outputs
        rng, params, _ = deep
        teacher = make_teacher(rng.substream("t"), params.d, 32, 0.05)
        heldout = sample_dataset(teacher, rng.substream("h"), 500, pilot_draws=5000)
        rep, peak = traced_peak(lambda: probes.probe_surrogate_markov(
            params, heldout, band=0.03))
        trace = forward_batch(params, heldout.xs)
        assert rep.measured["test_error"] == lossgrad.zero_one_error(trace.outputs,
                                                                      heldout.ys)
        assert peak < sum(a.nbytes for a in trace.activations)

    def test_zero_network_edge_case(self, toy):
        rng, _, ds, params = toy
        zero = params.with_weights(np.zeros_like(w) for w in params.weights)
        rep = probes.probe_surrogate_markov(zero, ds, band=0.03)
        assert rep.measured["test_error"] == 1.0  # ties count as errors
        assert rep.measured["test_surrogate"] == pytest.approx(0.5)
        assert rep.verdict == "hold"  # 1.0 <= 2*0.5 + band

    def test_distribution_free_on_random_labels(self, toy):
        rng, _, ds, params = toy
        flip = RngState(71).signs(ds.n)
        rep = probes.probe_surrogate_markov(params, replace(ds, ys=flip), band=0.05)
        assert rep.verdict == "hold"


class TestDepthSweep:
    def test_tiny_sweep_structure(self):
        rng = RngState(81)
        rep = probes.depth_sweep(rng, L_grid=(2, 4), arches=("residual",),
                                 d=6, m=32, n=40, gamma=0.05, M=32, theta_per_L=0.1,
                                 eta_scale=2.0, steps_budget=300,
                                 surrogate_target=0.35)
        assert len(rep.details) == 2
        assert rep.detail_columns == probes.SWEEP_COLUMNS
        steps = [row[4] for row in rep.details]
        assert all(s >= 0 for s in steps)
        assert np.isfinite(rep.measured["residual_step_ratio"])

    def test_cell_stamp_is_the_sweep_arguments(self, tmp_path):
        # every argument but the grids and the cache directory is stamped,
        # so a new argument cannot be left out of the cache key
        rng = RngState(82).substream("sweep")
        probes.depth_sweep(rng, L_grid=(2,), arches=("plain",), d=6, m=16, n=40,
                           gamma=0.05, M=32, theta_per_L=0.1, eta_scale=2.0,
                           steps_budget=3, surrogate_target=0.35,
                           cache_dir=str(tmp_path))
        with open(tmp_path / "cell_plain_L2" / "cell.json", encoding="utf-8") as fh:
            inputs = json.load(fh)["inputs"]
        args = set(inspect.signature(probes.depth_sweep).parameters)
        assert set(inputs) == args - {"L_grid", "arches", "cache_dir"} | {"arch", "L"}
        assert inputs == {"arch": "plain", "L": 2, "rng": [rng.seed, rng.stream],
                          "d": 6, "m": 16, "n": 40, "gamma": 0.05, "M": 32,
                          "theta_per_L": 0.1, "eta_scale": 2.0, "steps_budget": 3,
                          "surrogate_target": 0.35}

    @pytest.mark.parametrize("budget", [0, -1])
    def test_step_budget_below_one_rejected(self, budget):
        with pytest.raises(model.ConfigError, match="step budget"):
            probes.depth_sweep(RngState(84), L_grid=(2,), arches=("residual",),
                               d=6, m=16, n=40, gamma=0.05, M=32, theta_per_L=0.1,
                               eta_scale=2.0, steps_budget=budget, surrogate_target=0.3)

    def test_plain_only_sweep_has_no_residual_ratio(self):
        rep = probes.depth_sweep(RngState(83), L_grid=(2, 3), arches=("plain",),
                                 d=6, m=16, n=40, gamma=0.05, M=32, theta_per_L=0.1,
                                 eta_scale=2.0, steps_budget=3, surrogate_target=0.3)
        assert len(rep.details) == 2
        assert math.isnan(rep.measured["residual_step_ratio"])

    def test_step_zero_cell_does_not_hide_a_slow_one(self):
        # the L=4 cell stops at step 0 while L=2 takes 8 steps: an unbounded
        # ratio, not the 1.0 of cells that all stop at once
        rep = probes.depth_sweep(RngState(1), L_grid=(2, 4, 8), arches=("residual",),
                                 d=6, m=32, n=40, gamma=0.05, M=32, theta_per_L=0.1,
                                 eta_scale=2.0, steps_budget=50, surrogate_target=0.45)
        assert [row[4] for row in rep.details] == [8, 0, 1]
        assert rep.measured["residual_step_ratio"] == math.inf
        assert rep.verdict == "violated"
