import json

import numpy as np
import pytest

from reslab import lossgrad, numkit, probes, trainer
from reslab.data import make_teacher, sample_dataset
from reslab.model import init_gaussian
from reslab.numkit import RngState
from reslab.trainer import (TRAJECTORY_COLUMNS, TrainConfig, step_distance, train,
                            write_summary_json, write_trajectory_csv)


def loss_grad(params, ds):
    return lossgrad.loss_grad(params, ds.xs, ds.ys)


@pytest.fixture(scope="module")
def small_problem():
    rng = RngState(21)
    teacher = make_teacher(rng.substream("teacher"), 6, 32, 0.05)
    ds = sample_dataset(teacher, rng.substream("data"), 40, pilot_draws=5000)
    params = init_gaussian(rng.substream("init"), 6, 4, 32, 32, 0.1 / 4)
    return params, ds


def poison_gradient(monkeypatch, call, layer, fill=np.nan):
    """Makes layer ``layer`` of the ``call``-th gradient stream (counted
    from 1 over every ``train`` from here on) all ``fill``."""
    calls = []
    stream = lossgrad._layer_gradients

    def poisoned(p, bt, w):
        calls.append(p)
        for l, g in stream(p, bt, w):
            yield l, np.full_like(g, fill) if len(calls) == call and l == layer else g

    monkeypatch.setattr(lossgrad, "_layer_gradients", poisoned)


def norms(a, b):
    """Per-layer spectral norms of the differences W^a_l - W^b_l."""
    return [numkit.spectral_norm(wa - wb) for wa, wb in zip(a.weights, b.weights)]


class TestStepDistance:
    def test_zero_for_identical_weights(self, small_problem):
        params, _ = small_problem
        assert step_distance(params, norms(params, params)) == 0.0

    def test_scaling_homogeneity(self, small_problem):
        params, _ = small_problem
        eps = 0.01
        scaled = [w.copy() for w in params.weights]
        scaled[0] = scaled[0] * (1 + eps)
        other = params.with_weights(scaled)
        expected = eps * numkit.spectral_norm(params.weights[0])
        assert step_distance(params, norms(other, params)) == pytest.approx(
            expected, rel=1e-6)

    def test_matches_definition_on_gd_iterates(self, small_problem):
        params, ds = small_problem
        eta = 0.05
        _, _, grads = loss_grad(params, ds)
        new_params = train(params, ds, TrainConfig(eta, steps=1)).params
        manual = 0.0
        for l in range(1, params.depth + 2):
            manual += params.layer_scale(l) * numkit.spectral_norm(
                eta * grads.layers[l - 1])
        assert step_distance(params, norms(new_params, params)) == pytest.approx(
            manual, rel=1e-6)

    def test_wrong_layer_count_rejected(self, small_problem):
        params, _ = small_problem
        layers = norms(params, params)
        for bad in (layers[:-1], layers + layers[-1:], []):
            with pytest.raises(ValueError):
                step_distance(params, bad)


class TestGdStep:
    """One gradient-descent step: ``train`` with a budget of one step."""

    def test_exact_update_rule(self, small_problem):
        params, ds = small_problem
        eta = 0.07
        _, _, grads = loss_grad(params, ds)
        new_params = train(params, ds, TrainConfig(eta, steps=1)).params
        for w_new, w_old, g in zip(new_params.weights, params.weights, grads.layers):
            np.testing.assert_allclose(w_new + eta * g, w_old, atol=1e-15)

    def test_update_bits_match_formula(self, small_problem):
        # each step is bit for bit w - eta * g, whether it is written into
        # the gradient's own buffer (step 0) or the iterate's (later
        # steps), and the initialization is left as it was
        params, ds = small_problem
        eta = 0.07
        want = params
        for _ in range(3):
            _, _, grads = loss_grad(want, ds)
            want = want.with_weights(
                w - eta * g for w, g in zip(want.weights, grads.layers))
        before = [w.tobytes() for w in params.weights]
        got = train(params, ds, TrainConfig(eta, steps=3)).params
        assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in want.weights]
        assert [w.tobytes() for w in params.weights] == before

    def test_dead_network_is_fixed_point(self, small_problem):
        params, ds = small_problem
        dead = params.with_weights(-np.abs(w) for w in params.weights)
        res = train(dead, ds, TrainConfig(0.5, steps=1))
        for a, b in zip(res.params.weights, dead.weights):
            assert a.tobytes() == b.tobytes()
        assert all(g == 0.0 for g in res.records[0].grad_frob)

    def test_descent_from_smooth_region(self):
        # one step decreases the loss for each seed (smooth region at init)
        for seed in range(10):
            rng = RngState(100 + seed)
            teacher = make_teacher(rng.substream("t"), 6, 32, 0.05)
            ds = sample_dataset(teacher, rng.substream("d"), 30, pilot_draws=2000)
            params = init_gaussian(rng.substream("i"), 6, 3, 64, 64, 0.1 / 3)
            loss0, _, _ = loss_grad(params, ds)
            stepped = train(params, ds, TrainConfig(1.0 / 64, steps=1)).params
            loss1, _, _ = loss_grad(stepped, ds)
            assert loss1 < loss0


class TestTrain:
    def test_zero_budget_returns_init(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.1, steps=0))
        assert res.records == [] and res.best_step is None
        assert res.params is params

    def test_records_describe_iterates(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.05, steps=5))
        assert [r.step for r in res.records] == list(range(6))
        assert res.records[0].loss == pytest.approx(
            loss_grad(params, ds)[0])
        assert max(res.records[0].dist_init) == 0.0

    def test_best_step_is_argmin_surrogate(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.05, steps=8))
        surrogates = [r.surrogate for r in res.records]
        assert res.best_surrogate == min(surrogates)
        assert res.records[res.best_step].surrogate == res.best_surrogate
        assert all(res.best_surrogate <= s for s in surrogates)

    def test_early_stop_meets_target(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.1, steps=500, stop_surrogate=0.3))
        assert res.stopped_early
        assert res.records[-1].surrogate <= 0.3
        assert res.steps_run < 500

    def test_distance_telescoping(self, small_problem):
        # ||W^(k) - W^(0)||_F <= eta * sum of earlier gradient norms, per layer
        params, ds = small_problem
        eta = 0.05
        res = train(params, ds, TrainConfig(eta=eta, steps=6))
        L1 = params.depth + 1
        running = np.zeros(L1)
        for rec in res.records:
            for l in range(L1):
                assert rec.dist_init[l] <= running[l] + 1e-9
            running += eta * np.asarray(rec.grad_frob)

    def test_h_matches_grad_spectral_norms(self, small_problem):
        params, ds = small_problem
        eta = 0.05
        res = train(params, ds, TrainConfig(eta=eta, steps=2))
        _, _, grads = loss_grad(params, ds)
        manual = eta * sum(params.layer_scale(l) *
                           numkit.spectral_norm(grads.layers[l - 1])
                           for l in range(1, params.depth + 2))
        assert res.records[0].h == pytest.approx(manual, rel=1e-5)

    def test_record_thinning_keeps_first_and_last(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.05, steps=10, record_every=4))
        steps = [r.step for r in res.records]
        assert steps == [0, 4, 8, 10]

    @pytest.mark.parametrize("steps, target", [(10, None), (500, 0.3)],
                             ids=["budget", "early_stop"])
    def test_record_cadence_changes_no_value(self, small_problem, steps, target):
        # a sparse run's records are the dense run's at the same steps, and
        # the run itself is the same; the early stop is the record a sweep
        # cell reads
        params, ds = small_problem
        dense, sparse = (train(params, ds, TrainConfig(
            eta=0.1, steps=steps, stop_surrogate=target, record_every=every))
            for every in (1, 3))
        last = dense.steps_run
        assert dense.stopped_early == sparse.stopped_early == (target is not None)
        assert last % 3 != 0  # the last record is one the cadence alone would skip
        assert [r.step for r in dense.records] == list(range(last + 1))
        assert [r.step for r in sparse.records] == list(range(0, last, 3)) + [last]
        for rec in sparse.records:
            assert rec == dense.records[rec.step]
        assert ([w.tobytes() for w in sparse.params.weights]
                == [w.tobytes() for w in dense.params.weights])
        for key in ("best_step", "best_surrogate", "steps_run"):
            assert getattr(sparse, key) == getattr(dense, key)

    def test_unrecorded_steps_take_no_norms(self, small_problem, monkeypatch):
        # a recorded step takes L+1 gradient and L+1 init-distance Frobenius
        # norms and L+1 h_k norms; any other step takes none
        params, ds = small_problem
        counts = {"frobenius_norm": 0, "spectral_norm": 0}
        for name in counts:
            def counted(a, fn=getattr(numkit, name), name=name):
                counts[name] += 1
                return fn(a)
            monkeypatch.setattr(numkit, name, counted)
        res = train(params, ds, TrainConfig(eta=0.1, steps=10, record_every=4))
        layers = params.depth + 1
        assert len(res.records) == 4 and res.steps_run == 10
        assert counts == {"frobenius_norm": 4 * 2 * layers,
                          "spectral_norm": 4 * layers}

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e160])
    def test_unrecorded_divergence_matches_a_recorded_one(self, small_problem,
                                                          monkeypatch, fill):
        # a gradient layer at step 2 whose Frobenius norm is not finite (NaN
        # or infinite entries, or finite ones whose squares overflow) raises
        # at step 2 whether or not step 2 is recorded
        params, ds = small_problem
        raised = []
        for every in (1, 4):
            poison_gradient(monkeypatch, call=3, layer=2, fill=fill)
            with np.errstate(over="ignore"), pytest.raises(
                    trainer.DivergenceError) as err:
                train(params, ds, TrainConfig(eta=0.05, steps=6, record_every=every))
            monkeypatch.undo()
            raised.append((err.value.step, str(err.value)))
        assert raised == [(2, "divergence at step 2: non-finite gradient")] * 2

    def test_divergence_raises_with_step_index(self, small_problem):
        params, ds = small_problem
        poisoned = [w.copy() for w in params.weights]
        poisoned[1][0, 0] = np.nan
        with pytest.raises(trainer.DivergenceError) as err:
            train(params.with_weights(poisoned), ds, TrainConfig(eta=0.1, steps=5))
        assert err.value.step == 0

    def test_never_writes_its_initialization(self, small_problem, monkeypatch):
        # step 0 writes into the gradient's buffers, later steps into the
        # iterate's own, so the caller's weights keep their bytes, also
        # when a step >= 1 diverges on its loss or after some of its layers
        # were stepped
        params, ds = small_problem
        before = [w.tobytes() for w in params.weights]
        train(params, ds, TrainConfig(eta=0.05, steps=4))
        assert [w.tobytes() for w in params.weights] == before
        with np.errstate(all="ignore"), pytest.raises(trainer.DivergenceError,
                                                      match="loss") as err:
            train(params, ds, TrainConfig(eta=1e200, steps=4))
        assert err.value.step == 1
        assert [w.tobytes() for w in params.weights] == before
        poison_gradient(monkeypatch, call=3, layer=params.depth)
        with pytest.raises(trainer.DivergenceError, match="gradient") as err:
            train(params, ds, TrainConfig(eta=0.05, steps=4))
        assert err.value.step == 2
        assert [w.tobytes() for w in params.weights] == before

    def test_sweep_retry_starts_from_the_untouched_init(self, small_problem,
                                                        monkeypatch):
        # the first try diverges at step 1 with its top layer stepped; the
        # retry at half the step size gives the row of a fresh init
        _, ds = small_problem
        args = dict(arch="residual", L=3, ds=ds, m=32, theta_per_L=0.1,
                    eta_scale=2.0, steps_budget=6, surrogate_target=0.3)
        poison_gradient(monkeypatch, call=2, layer=3)
        row = probes.sweep_cell(RngState(8), **args)
        monkeypatch.undo()
        assert row["retries"] == 1 and row["eta"] == 1.0 / 32
        fresh = probes.sweep_cell(RngState(8), **{**args, "eta_scale": 1.0})
        assert row == {**fresh, "retries": 1}

    def test_holds_few_parameter_sets(self, traced_peak):
        # each layer is finished as it leaves the gradient stream, so a step
        # holds the iterate, its trace and at most two gradient layers: the
        # traced peak stays within 2.75 parameter sets (3.31 when each step
        # held a whole gradient set)
        rng = RngState(3)
        teacher = make_teacher(rng.substream("t"), 10, 32, 0.05)
        ds = sample_dataset(teacher, rng.substream("d"), 50, pilot_draws=5000)
        params = init_gaussian(rng.substream("i"), 10, 16, 64, 64, 0.1 / 16)
        res, peak = traced_peak(lambda: train(params, ds, TrainConfig(1 / 64, steps=3)))
        assert res.steps_run == 3
        assert peak <= 2.75 * sum(w.nbytes for w in params.weights)

    def test_flip_fraction_zero_at_init_and_grows(self, small_problem):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.1, steps=10))
        assert res.records[0].flip_frac == 0.0
        assert res.records[-1].flip_frac > 0.0

    def test_one_forward_pass_per_evaluation(self, small_problem, monkeypatch):
        # the initialization's patterns come from the k = 0 evaluation
        params, ds = small_problem
        calls = []
        forward = trainer.forward_batch

        def counted(p, xs):
            calls.append(p)
            return forward(p, xs)

        monkeypatch.setattr(trainer, "forward_batch", counted)
        res = train(params, ds, TrainConfig(eta=0.1, steps=7, record_every=3))
        assert len(calls) == res.steps_run + 1 == 8
        init, last = forward(params, ds.xs), forward(res.params, ds.xs)
        flips = sum(int(np.count_nonzero(a != b))
                    for a, b in zip(init.patterns, last.patterns))
        assert res.records[-1].step == 7
        assert res.records[-1].flip_frac == flips / sum(a.size for a in init.patterns) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0, steps=5)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=-1)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=5, record_every=0)


class TestOutputs:
    def test_trajectory_csv_layout_and_determinism(self, small_problem, tmp_path):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.05, steps=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(res.records, p1)
        write_trajectory_csv(res.records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 1 + len(res.records)
        # rerunning training reproduces the exact bytes
        res2 = train(params, ds, TrainConfig(eta=0.05, steps=4))
        p3 = tmp_path / "c.csv"
        write_trajectory_csv(res2.records, p3)
        assert p1.read_bytes() == p3.read_bytes()

    def test_summary_json_schema(self, small_problem, tmp_path):
        params, ds = small_problem
        res = train(params, ds, TrainConfig(eta=0.1, steps=20, stop_surrogate=0.3))
        path = tmp_path / "summary.json"
        write_summary_json(res, {"eta": 0.1}, path)
        payload = json.loads(path.read_text())
        assert payload["config"] == {"eta": 0.1}
        assert payload["best_step"] == res.best_step
        assert "tau_breach_step" not in payload
        assert payload["stopped_early"] is True
