"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The golden problem family is fixed here once:
d=10, L=16, m=256, n=200, gamma=0.1, a 64-feature balanced teacher,
theta = 0.1/L, eta = 10/m with surrogate early-stop 0.02, seeds 0..9.
"""

import math

import numpy as np
import pytest

from reslab import cli, lossgrad, probes, trainer
from reslab.data import make_dataset, sample_dataset, unit_sphere_rows
from reslab.model import forward_batch, init_gaussian, interlayer_norms
from reslab.numkit import RngState

GOLDEN = dict(d=10, L=16, m=256, m_last=256, n=200, gamma=0.1, M=64,
              theta=0.1 / 16, eta=10.0 / 256, steps=2000, stop=0.02)
GOLDEN_SEEDS = list(range(10))
SWEEP_SEEDS = list(range(5))


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def golden_dataset(seed):
    root = RngState(seed)
    return root, make_dataset(root, GOLDEN["d"], GOLDEN["M"], GOLDEN["gamma"],
                              GOLDEN["n"])


@pytest.fixture(scope="module")
def golden_runs():
    """Criterion-4 training runs, shared by criteria 4, 7, and 11."""
    runs = {}
    for seed in GOLDEN_SEEDS:
        root, ds = golden_dataset(seed)
        params = init_gaussian(root.substream("init"), GOLDEN["d"], GOLDEN["L"],
                               GOLDEN["m"], GOLDEN["m_last"], GOLDEN["theta"])
        cfg = trainer.TrainConfig(eta=GOLDEN["eta"], steps=GOLDEN["steps"],
                                  stop_surrogate=GOLDEN["stop"])
        runs[seed] = (params, ds, trainer.train(params, ds, cfg))
    return runs


@pytest.fixture(scope="module")
def m_sweep():
    """Criterion-5/6 sweep: stop at surrogate 0.25 with eta = 2/m.

    It reads only the last record and the stop, which do not depend on the
    record cadence (``test_record_cadence_changes_no_value``), so it
    records step 0 and the last step only.
    """
    stats = {}
    for m in (64, 256, 1024):
        dists, flips = [], []
        for seed in SWEEP_SEEDS:
            root, ds = golden_dataset(seed)
            params = init_gaussian(root.substream("init"), GOLDEN["d"], GOLDEN["L"],
                                   m, m, GOLDEN["theta"])
            res = trainer.train(params, ds, trainer.TrainConfig(
                eta=2.0 / m, steps=2000, stop_surrogate=0.25, record_every=2000))
            last = res.records[-1]
            assert res.stopped_early
            dists.append(max(last.dist_init))
            flips.append(last.flip_frac)
        stats[m] = (float(np.mean(dists)), float(np.mean(flips)))
    return stats


def test_criterion_01_gradient_correctness():
    """Analytic output gradients match flip-free central differences."""
    checked, _, worst, ok = lossgrad.gradient_check(RngState(1001))
    assert report(1, "gradient correctness", ok,
                  f"worst rel err {worst:.2e} over {checked} entries")


def test_criterion_02_interlayer_depth_independence():
    """Middle interlayer operator norms are bounded and depth-stable."""
    rng = RngState(1002)
    maxes = {}
    for L in (8, 32, 128):
        params = init_gaussian(rng.substream(f"init/{L}"), 10, L, 256, 256, 0.1 / L)
        xrng = rng.substream(f"x/{L}")
        xs = []
        for _ in range(100):
            x = xrng.standard_normal(10)
            x /= np.linalg.norm(x)
            xs.append(x)
        tr = forward_batch(params, np.stack(xs))
        maxes[L] = max(interlayer_norms(params, tr, i, [(2, L)])[0] for i in range(tr.n))
    bound = math.exp(3 * 0.1)  # theta * L = 0.1 at every depth
    ratio = maxes[128] / maxes[8]
    ok = all(v <= bound for v in maxes.values()) and ratio <= 1.15
    assert report(2, "interlayer depth-independence", ok,
                  f"maxes {({L: round(v, 4) for L, v in maxes.items()})} "
                  f"bound {bound:.3f} ratio {ratio:.3f}")


def test_criterion_03_activation_norm_bounds():
    """Hidden-layer norms stay in [0.5, 1.5] at width 1024, depth 32."""
    rng = RngState(1003)
    params = init_gaussian(rng.substream("init"), 10, 32, 1024, 1024, 0.1 / 32)
    xs = unit_sphere_rows(rng.substream("x"), 500, 10)
    rep = probes.probe_activation_norms(params, xs, h_inputs=2)
    ok = (rep.verdict == "hold"
          and (rep.config["norm_low"], rep.config["norm_high"]) == (0.5, 1.5))
    assert report(3, "activation norm bounds", ok,
                  f"range [{rep.measured['xnorm_min']:.3f}, "
                  f"{rep.measured['xnorm_max']:.3f}], "
                  f"h_mid {rep.measured['h_mid_max']:.3f}")


def test_criterion_04_golden_training(golden_runs):
    """Train error reaches zero with small surrogate within budget, 9+/10 seeds."""
    good = 0
    details = []
    for seed in GOLDEN_SEEDS:
        _, _, res = golden_runs[seed]
        last = res.records[-1]
        hit = (last.train_err == 0.0 and last.surrogate <= 0.2
               and res.steps_run <= GOLDEN["steps"])
        good += hit
        details.append(f"s{seed}:{res.steps_run}")
    ok = good >= 9
    assert report(4, "golden training run", ok,
                  f"{good}/10 seeds, steps {' '.join(details)}")


def test_criterion_05_lazy_weights(m_sweep):
    """Distance from init at the surrogate stop shrinks with width."""
    d64, d256, d1024 = (m_sweep[m][0] for m in (64, 256, 1024))
    inversions = int(d64 < d256) + int(d256 < d1024)
    ok = inversions <= 1 and d64 > d1024
    assert report(5, "lazy weights", ok,
                  f"mean max dist: m64 {d64:.4f}, m256 {d256:.4f}, m1024 {d1024:.4f}")


def test_criterion_06_flip_sparsity(m_sweep):
    """Activation flips shrink with width and scale sublinearly in radius."""
    f64, f256, f1024 = (m_sweep[m][1] for m in (64, 256, 1024))
    rng = RngState(1006)
    params = init_gaussian(rng.substream("init"), 10, 16, 1024, 1024, 0.1 / 16)
    xs = unit_sphere_rows(rng.substream("x"), 10, 10)
    rep = probes.probe_weight_lipschitz_and_flips(
        params, rng.substream("ball"), xs, (0.01, 0.03, 0.1, 0.3), draws=3)
    slope = rep.measured["flip_slope"]
    ok = (f64 > f256 > f1024 and f1024 <= 0.10 and 0.4 <= slope <= 1.0)
    assert report(6, "flip sparsity", ok,
                  f"fractions {f64:.4f} > {f256:.4f} > {f1024:.4f}, "
                  f"tau slope {slope:.3f}")


def test_criterion_07_gradient_bound_ratios(golden_runs):
    """Normalized gradient ratios are finite, positive, and seed-stable."""
    uppers, lowers = [], []
    for seed in GOLDEN_SEEDS:
        params, ds, res = golden_runs[seed]
        rep = probes.probe_gradient_bounds(params, ds, res)
        uppers.append(rep.measured["fitted_upper"])
        lowers.append(rep.measured["fitted_lower"])
    up_spread = max(uppers) / min(uppers)
    low_spread = max(lowers) / min(lowers)
    ok = (all(np.isfinite(u) for u in uppers) and min(lowers) > 0
          and up_spread <= 5.0 and low_spread <= 5.0)
    assert report(7, "gradient bound ratios", ok,
                  f"upper spread {up_spread:.2f}x, lower spread {low_spread:.2f}x, "
                  f"min lower {min(lowers):.1f}")


def test_criterion_08_semismoothness():
    """Fitted residual constant varies at most 3x across (m, tau) cells.

    The coincident-pair control (residual exactly zero) holds everywhere.
    """
    rng = RngState(1008)
    fits = {}
    control_ok = True
    for m in (64, 256):
        params = init_gaussian(rng.substream(f"init/{m}"), 10, 16, m, m, 0.1 / 16)
        xs = unit_sphere_rows(rng.substream(f"x/{m}"), 200, 10)
        for tau in (0.03, 0.1, 0.3):
            rep = probes.probe_semismoothness(
                params, rng.substream(f"ball/{m}/{tau}"), xs, tau=tau, draws=200)
            fits[(m, tau)] = rep.measured["fitted_cbar_f"]
            control_ok = control_ok and rep.measured["control_residual"] <= 1e-12
    vals = list(fits.values())
    spread = max(vals) / min(vals) if min(vals) > 0 else float("inf")
    ok = spread <= 3.0 and control_ok
    assert report(8, "semismoothness", ok,
                  f"cbar spread {spread:.2f}x over cells "
                  f"{[round(v, 4) for v in vals]}")


def test_criterion_09_separability():
    """Constructed direction separates every layer at width 1024."""
    root, ds = golden_dataset(0)
    params = init_gaussian(root.substream("init"), GOLDEN["d"], GOLDEN["L"],
                           1024, 1024, GOLDEN["theta"])
    rep = probes.probe_separability(ds.teacher, params, ds,
                                    root.substream("control"))
    margin = rep.measured["margin_layerL"]
    control = rep.measured["control_margin_layerL"]
    floor = GOLDEN["gamma"] / 4
    ok = margin >= floor and control < floor
    assert report(9, "separability", ok,
                  f"layer-L margin {margin:.4f} vs floor {floor}, "
                  f"control {control:.4f}")


def test_criterion_10_rademacher_sanity():
    """Ascent estimate: zero at tau 0, monotone in tau, seed-stable constant."""
    root, ds = golden_dataset(0)
    params = init_gaussian(root.substream("init"), GOLDEN["d"], GOLDEN["L"],
                           GOLDEN["m"], GOLDEN["m_last"], GOLDEN["theta"])
    shared = root.substream("radem")
    est0 = probes.rademacher_estimate(params, 0.0, ds, shared, xi_draws=8,
                                      ascent_steps=30).measured["estimate"]
    grid_reports = [probes.rademacher_estimate(params, tau, ds, shared, xi_draws=8,
                                               ascent_steps=30)
                    for tau in (0.01, 0.1, 0.5)]
    grid = [rep.measured["estimate"] for rep in grid_reports]
    # seed 0's fit at tau 0.1 is the grid's middle point: the same network,
    # data, xi stream and arguments
    fits = [grid_reports[1].constant_fit]
    for seed in SWEEP_SEEDS[1:]:
        r, dset = golden_dataset(seed)
        p = init_gaussian(r.substream("init"), GOLDEN["d"], GOLDEN["L"],
                          GOLDEN["m"], GOLDEN["m_last"], GOLDEN["theta"])
        rep = probes.rademacher_estimate(p, 0.1, dset, r.substream("radem"),
                                         xi_draws=8, ascent_steps=30)
        fits.append(rep.constant_fit)
    spread = max(fits) / min(fits)
    ok = (est0 == 0.0 and grid[0] <= grid[1] + 1e-9 and grid[1] <= grid[2] + 1e-9
          and spread <= 10.0)
    assert report(10, "rademacher estimator sanity", ok,
                  f"est(0)={est0}, grid {[round(v, 4) for v in grid]}, "
                  f"C2 spread {spread:.2f}x")


def test_criterion_11_markov_step(golden_runs):
    """Held-out error is at most twice the held-out surrogate plus the band."""
    root, ds = golden_dataset(0)
    heldout = sample_dataset(ds.teacher, root.substream("heldout"), 2000)
    params0, _, res = golden_runs[0]
    oks = []
    details = []
    for tag, net in (("untrained", params0), ("trained", res.params)):
        rep = probes.probe_surrogate_markov(net, heldout, band=0.03)
        oks.append(rep.verdict == "hold")
        details.append(f"{tag}: err {rep.measured['test_error']:.4f} <= "
                       f"{rep.bound_expr:.4f}")
    ok = all(oks)
    assert report(11, "markov step", ok, "; ".join(details))


def test_criterion_12_depth_sweep():
    """Residual steps-to-threshold stay within 2x across depths."""
    rep = probes.depth_sweep(RngState(0).substream("sweep"),
                             L_grid=(4, 16, 64), arches=("residual", "plain"),
                             d=10, m=128, n=200, gamma=0.1, M=64,
                             theta_per_L=0.1, eta_scale=2.0, steps_budget=2000,
                             surrogate_target=0.3)
    ratio = rep.measured["residual_step_ratio"]
    plain = rep.measured["plain_over_residual_at_max_depth"]
    ok = rep.verdict == "hold" and ratio <= 2.0
    assert report(12, "depth sweep", ok,
                  f"residual ratio {ratio:.2f}x; plain/residual at L=64: "
                  f"{plain} (reported, not asserted)")


def test_criterion_13_determinism(tmp_path):
    """Rerunning every command with the same config reproduces exact bytes."""
    import json
    import os

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "d": 6, "L": 3, "m": 32, "m_last": 32, "n": 40, "gamma": 0.05, "M": 32,
        "eta_scale": 4.0, "K": 30, "seed": 3, "probe_inputs": 10,
        "probe_draws": 2, "trials": 4, "xi_draws": 2, "ascent_steps": 4,
        "heldout_n": 50, "sweep_L": [2, 3], "sweep_arch": ["residual"],
        "sweep_m": 24, "steps_budget": 50, "surrogate_target": 0.4,
    }))

    artifacts = ("dataset.bin", "gen_report.json", "trajectory.csv",
                 "summary.json", "checkpoint.bin", "index.json",
                 "loss_at_init.report.json", "rademacher.details.csv")
    path_free = ("dataset.bin", "trajectory.csv", "checkpoint.bin",
                 "rademacher.details.csv")  # no config echo, so dir-independent

    def run_all(out):
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == 0
        assert cli.main(["probe", "--config", str(cfg_path), "--out", out,
                         "--probes", "loss_at_init,threshold_indices,rademacher"]) == 0
        return {name: open(os.path.join(out, name), "rb").read()
                for name in artifacts}

    first = run_all(str(tmp_path / "r1"))
    rerun = run_all(str(tmp_path / "r1"))  # in place: identical config incl. out
    other_dir = run_all(str(tmp_path / "r2"))
    mismatched = [k for k in artifacts if first[k] != rerun[k]]
    mismatched += [f"crossdir:{k}" for k in path_free
                   if first[k] != other_dir[k]]
    ok = not mismatched
    assert report(13, "determinism", ok,
                  f"{len(artifacts)} artifacts byte-compared in place, "
                  f"{len(path_free)} across directories"
                  + (f"; mismatch: {mismatched}" if mismatched else ""))
