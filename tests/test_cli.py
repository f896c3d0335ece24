import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reslab import cli, data, lossgrad, model, probes, trainer
from reslab.cli import main
from reslab.numkit import RngState


def write_config(path, **kv):
    base = {
        "d": 6, "L": 3, "m": 32, "m_last": 32, "n": 40, "gamma": 0.05, "M": 32,
        "eta_scale": 4.0, "K": 40, "seed": 3, "probe_inputs": 10,
        "probe_draws": 2, "trials": 4, "xi_draws": 2, "ascent_steps": 4,
        "heldout_n": 50, "sweep_L": [2, 3], "sweep_arch": ["residual"],
        "sweep_m": 24, "steps_budget": 60, "surrogate_target": 0.4,
    }
    base.update(kv)
    with open(path, "w") as fh:
        json.dump(base, fh)
    return str(path)


BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_CONFIGS = sorted((BENCH / "configs").glob("*.json"))


@pytest.fixture()
def cfg_file(tmp_path):
    return write_config(tmp_path / "config.json")


class TestConfig:
    def test_defaults_complete(self):
        cfg = cli.load_config()
        assert cfg["m_last"] == cfg["m"]
        assert cfg["arch"] == "residual"

    @pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.name)
    def test_bench_configs_load(self, path):
        # an unknown key would make every benchmark command exit 4
        cfg = cli.load_config(str(path))
        assert cfg["seed"] == json.loads(path.read_text())["seed"]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus_key": 1}')
        with pytest.raises(cli.UsageError):
            cli.load_config(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path / "c.json", seed=5)
        cfg = cli.load_config(path, {"seed": 9})
        assert cfg["seed"] == 9

    def test_eta_and_theta_resolution(self):
        # the scaled form is the only form: theta_per_L / L and eta_scale / m
        cfg = cli.load_config(None, {"theta_per_L": 0.2, "L": 8, "eta_scale": 4.0})
        assert cli.resolved_theta(cfg) == 0.2 / 8
        assert cli.resolved_eta(cfg, 32) == 4.0 / 32
        assert cli.resolved_eta(cfg, cfg["m"]) == 4.0 / cfg["m"]

    def test_defaults_are_the_golden_keys(self):
        # every key but the two paths is set by the golden config, so a knob
        # no config sets cannot be added to DEFAULTS unnoticed
        golden = Path(__file__).resolve().parents[1] / "configs" / "golden.json"
        assert set(cli.DEFAULTS) - {"data", "checkpoint"} == set(
            json.loads(golden.read_text()))

    def test_train_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command").choices["train"]
        flags = {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config", "--seed", "--out", "--arch", "--probes",
                         "--data", "--checkpoint"}

    @pytest.mark.parametrize("command, key, value", [
        ("train", "K", -1), ("train", "eta_scale", 0), ("train", "L", "4"),
        ("train", "m_last", 31), ("probe", "sparsity", 0), ("probe", "sweep_L", []),
        # a null default, and list elements, are typed too
        ("train", "stop_surrogate", "0.1"), ("probe", "sweep_L", ["4"]),
        ("probe", "sweep_arch", [None]), ("probe", "tau_grid", ["0.1"]),
        ("probe", "beta_grid", [True]),
        # JSON's NaN and Infinity parse as floats: a ball_tau of Infinity
        # crashed the ball probes, a markov_band of NaN printed a verdict
        ("probe", "ball_tau", math.inf), ("probe", "markov_band", math.nan),
        ("train", "eta_scale", math.inf), ("train", "stop_surrogate", math.nan),
        ("probe", "tau_grid", [0.1, math.inf]), ("probe", "beta_grid", [math.nan]),
        # a cell trained for no step has no record to read its final values from
        ("sweep", "steps_budget", 0),
        # a count of 0, an empty or nonpositive grid, or a negative margin or
        # radius: a verdict from no trials, or a traceback
        ("train", "n", 0), ("train", "M", 0), ("train", "L", 0),
        ("probe", "heldout_n", 0), ("probe", "probe_draws", 0), ("probe", "trials", 0),
        ("probe", "xi_draws", 0), ("probe", "ascent_steps", 0), ("sweep", "sweep_L", [0]),
        ("probe", "tau_grid", []), ("probe", "beta_grid", []),
        ("probe", "tau_grid", [0.0, 0.1]), ("probe", "beta_grid", [-0.1, 0.1]),
        ("train", "gamma", -0.1), ("probe", "ball_tau", -0.1),
        # a d below 1 ended gen-data in a traceback or an infeasibility exit;
        # a value is refused where it is loaded, also by a command that does
        # not read it
        ("gen-data", "d", -1), ("gen-data", "d", 0), ("train", "d", -1), ("train", "d", 0),
        ("probe", "d", -1), ("probe", "d", 0), ("sweep", "d", -1), ("sweep", "d", 0),
        ("probe --probes activation_norms", "sparsity", 0), ("train", "steps_budget", 0),
        # an integer past the float range passed for a number, then overflowed;
        # a finite radius whose square overflows has no measurable ball
        pytest.param("train", "eta_scale", 10**400, id="train-eta_scale-10**400"),
        ("probe --probes rademacher", "ball_tau", 1e300),
        ("probe --probes semismoothness", "ball_tau", 1e200),
        # an arch outside the model's two passed for a list of strings
        pytest.param("train", "sweep_arch", ["residual", "foo"],
                     id="train-sweep_arch-foo")])
    def test_rejected_value_exits_4(self, tmp_path, capsys, command, key, value):
        command, *flags = command.split()  # a case may name its probes
        out = str(tmp_path / "o")
        assert main(["gen-data", "--config", write_config(tmp_path / "c.json"),
                     "--out", out]) == 0
        bad = write_config(tmp_path / "bad.json", **{key: value})
        probe = {"sparsity": "sparse_output", "sweep_L": "depth_sweep",
                 "sweep_arch": "depth_sweep", "tau_grid": "weight_lipschitz_flips",
                 "beta_grid": "threshold_indices", "ball_tau": "semismoothness",
                 "markov_band": "surrogate_markov", "heldout_n": "surrogate_markov",
                 "probe_draws": "weight_lipschitz_flips", "trials": "sparse_output",
                 "xi_draws": "rademacher", "ascent_steps": "rademacher"}.get(key)
        capsys.readouterr()
        assert main([command, "--config", bad, "--out", out]
                    + (flags or (["--probes", probe] if probe else []))) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")

    @pytest.mark.parametrize("probe", ["activation_norms", "input_lipschitz",
                                       "threshold_indices"])
    def test_no_probe_inputs_exits_4(self, tmp_path, capsys, probe):
        # with no inputs these probes would reduce over an empty batch, or
        # report a hold over zero pairs
        bad = write_config(tmp_path / "bad.json", probe_inputs=0)
        capsys.readouterr()
        assert main(["probe", "--config", bad, "--out", str(tmp_path / "o"),
                     "--probes", probe]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body", ["5", "null", '[["d", 4]]', "[]"])
    def test_config_that_is_not_an_object_exits_4(self, tmp_path, capsys, body):
        # three ended in a TypeError traceback, and [] ran on the defaults
        path = tmp_path / "c.json"
        path.write_text(body)
        capsys.readouterr()
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert "JSON object" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_unknown_arch_exits_4_from_a_flag_or_a_file(self, tmp_path, capsys, command):
        # one KEYS rule for both: a file's arch passed load and gen-data echoed
        # it into gen_report.json
        want = "usage error: config value arch='foo' must be 'residual' or 'plain'"
        out = str(tmp_path / "o")
        capsys.readouterr()
        assert main([command, "--config", write_config(tmp_path / "c.json"),
                     "--out", out, "--arch", "foo"]) == 4
        assert capsys.readouterr().err.splitlines() == [want]
        assert main([command, "--config", write_config(tmp_path / "c.json", arch="foo"),
                     "--out", out]) == 4
        assert capsys.readouterr().err.splitlines() == [want]
        assert not (tmp_path / "o").exists()

    def test_removed_knobs_exit_4(self, tmp_path):
        assert main(["train", "--L", "4"]) == 4
        assert main(["train", "--config", write_config(tmp_path / "c.json", tau=0.1),
                     "--out", str(tmp_path / "o")]) == 4


class TestGenData:
    def test_writes_and_validates(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_file, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "dataset.bin"))
        report = json.load(open(os.path.join(out, "gen_report.json")))
        assert 0 < report["acceptance_rate"] <= 1
        from reslab.data import load_dataset
        ds = load_dataset(os.path.join(out, "dataset.bin"))
        assert ds.n == 40

    def test_infeasible_margin_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", gamma=0.9, M=4, seed=0, d=10)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_same_seed_identical_bytes(self, tmp_path, cfg_file):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["gen-data", "--config", cfg_file, "--out", out1])
        main(["gen-data", "--config", cfg_file, "--out", out2])
        b1 = open(os.path.join(out1, "dataset.bin"), "rb").read()
        b2 = open(os.path.join(out2, "dataset.bin"), "rb").read()
        assert b1 == b2


class TestTrain:
    def test_full_flow_and_outputs(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        assert main(["gen-data", "--config", cfg_file, "--out", out]) == 0
        assert main(["train", "--config", cfg_file, "--out", out]) == 0
        traj = open(os.path.join(out, "trajectory.csv")).read().splitlines()
        assert traj[0].startswith("step,loss,surrogate,train_err,h_k,max_dist_init")
        assert len(traj) >= 3
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["config"]["K"] == 40
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))

    def test_missing_dataset_exits_3(self, tmp_path, cfg_file):
        assert main(["train", "--config", cfg_file,
                     "--out", str(tmp_path / "empty")]) == 3

    def test_rerun_is_byte_identical(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        main(["train", "--config", cfg_file, "--out", out])
        t1 = open(os.path.join(out, "trajectory.csv"), "rb").read()
        s1 = open(os.path.join(out, "summary.json"), "rb").read()
        c1 = open(os.path.join(out, "checkpoint.bin"), "rb").read()
        main(["train", "--config", cfg_file, "--out", out])
        assert open(os.path.join(out, "trajectory.csv"), "rb").read() == t1
        assert open(os.path.join(out, "summary.json"), "rb").read() == s1
        assert open(os.path.join(out, "checkpoint.bin"), "rb").read() == c1

    def test_eta_follows_checkpoint_width(self, tmp_path, cfg_file):
        # the step size is eta_scale over the trained network's width, not
        # over the config's m, so a width-32 checkpoint trains alike under both
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        main(["train", "--config", cfg_file, "--out", out])
        ckpt = os.path.join(out, "checkpoint.bin")
        trajectories = []
        for width in (64, 32):
            cfg = write_config(tmp_path / f"m{width}.json", m=width, m_last=width,
                               K=5)
            dest = str(tmp_path / f"m{width}")
            assert main(["train", "--config", cfg, "--out", dest, "--data",
                         os.path.join(out, "dataset.bin"), "--checkpoint", ckpt]) == 0
            trajectories.append(open(os.path.join(dest, "trajectory.csv"), "rb").read())
        assert trajectories[0] == trajectories[1]

    def test_plain_arch_flag(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        assert main(["train", "--config", cfg_file, "--out", out,
                     "--arch", "plain"]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["config"]["arch"] == "plain"


class TestProbe:
    def test_all_resolves_to_every_probe(self):
        # one table: its order is the order all runs and index.json lists
        assert cli.PROBE_NAMES == list(cli.PROBES) == [
            "activation_norms", "input_lipschitz", "weight_lipschitz_flips",
            "semismoothness", "gradient_bounds", "separability", "threshold_indices",
            "sparse_output", "loss_at_init", "rademacher", "surrogate_markov",
            "depth_sweep"]
        cfg = cli.load_config(None, {"probes": "all"})
        assert cfg["probes"] == "all"  # cmd_probe expands this to PROBE_NAMES

    def test_selected_probes_write_reports(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        code = main(["probe", "--config", cfg_file, "--out", out,
                     "--probes", "loss_at_init,threshold_indices"])
        assert code == 0
        index = json.load(open(os.path.join(out, "index.json")))
        assert index["verdicts"].keys() == {"loss_at_init", "threshold_indices"}
        for name in index["reports"]:
            assert os.path.exists(os.path.join(out, name))

    def test_unknown_probe_exits_4(self, tmp_path, cfg_file):
        assert main(["probe", "--config", cfg_file,
                     "--out", str(tmp_path / "o"),
                     "--probes", "not_a_probe"]) == 4

    @pytest.mark.parametrize("names", ["gradient_bounds", "all"])
    def test_gradient_bounds_with_no_step_exits_4(self, tmp_path, capsys, names):
        # gradient_bounds reads the trajectory of a K-step train, which K 0
        # leaves empty: refused before any probe runs or anything is written
        bad = write_config(tmp_path / "bad.json", K=0)
        capsys.readouterr()
        assert main(["probe", "--config", bad, "--out", str(tmp_path / "o"),
                     "--probes", names]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not (tmp_path / "o").exists()
        # a probe that trains nothing takes K 0
        assert main(["probe", "--config", bad, "--out", str(tmp_path / "o"),
                     "--probes", "loss_at_init"]) == 0

    @pytest.mark.parametrize("names", ["gradient_bounds", "separability", "all"])
    @pytest.mark.parametrize("source", ["config", "data"])
    def test_zero_margin_exits_4(self, tmp_path, capsys, names, source):
        # both probes divide by the dataset's margin: a ZeroDivisionError
        # traceback.  The dataset's gamma is checked, as a --data file's
        # header may hold 0 whatever the config says
        bad = write_config(tmp_path / "bad.json", gamma=0)
        flags = ["--config", bad]
        if source == "data":
            assert main(["gen-data", "--config", bad, "--out", str(tmp_path / "d")]) == 0
            flags = ["--config", write_config(tmp_path / "c.json"),
                     "--data", str(tmp_path / "d" / "dataset.bin")]
        capsys.readouterr()
        assert main(["probe", *flags, "--out", str(tmp_path / "o"),
                     "--probes", names]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert "gamma must be > 0" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names", ["", ",", " , "])
    def test_empty_probe_list_exits_4(self, tmp_path, capsys, cfg_file, names):
        # it would write an index.json that holds no report
        capsys.readouterr()
        assert main(["probe", "--config", cfg_file, "--out", str(tmp_path / "o"),
                     "--probes", names]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names, problem", [
        ("loss_at_init,loss_at_init", "more than once: ['loss_at_init']"),
        ("threshold_indices, loss_at_init,threshold_indices",
         "more than once: ['threshold_indices']"),
        ("all,loss_at_init", "'all' names every probe and stands alone"),
        ("loss_at_init,all", "'all' names every probe and stands alone"),
        ("all,all", "'all' names every probe and stands alone"),
    ])
    def test_repeated_probe_or_all_in_a_list_exits_4(self, tmp_path, capsys, cfg_file,
                                                     names, problem):
        # a repeated name wrote its files twice and listed its report twice
        # in index.json; "all" in a list was reported as an unknown probe
        capsys.readouterr()
        assert main(["probe", "--config", cfg_file, "--out", str(tmp_path / "o"),
                     "--probes", names]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ")
        assert problem in err[0]
        assert not (tmp_path / "o").exists()

    def test_ball_probes_draw_from_their_own_streams(self, tmp_path, cfg_file,
                                                     monkeypatch):
        # sparse_output's draws were semismoothness's random draws, in order,
        # when both probes took the root's "ball" substream
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        firsts = []  # (ball, its first draw), holding each ball
        draw = probes.PerturbationBall.draw

        def recorded(ball):
            drawn = draw(ball)
            if not any(b is ball for b, _ in firsts):
                firsts.append((ball, drawn))
            return drawn

        monkeypatch.setattr(probes.PerturbationBall, "draw", recorded)
        assert main(["probe", "--config", cfg_file, "--out", out,
                     "--probes", "semismoothness,sparse_output"]) == 0
        assert len(firsts) == 2
        (_, a), (_, b) = firsts
        assert all(wa.tobytes() != wb.tobytes() for wa, wb in zip(a.weights, b.weights))

    def test_mismatched_checkpoint_exits_3(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        main(["train", "--config", cfg_file, "--out", out])
        other = write_config(tmp_path / "c8.json", d=8)
        code = main(["probe", "--config", other, "--out", str(tmp_path / "o2"),
                     "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--probes", "loss_at_init"])
        assert code == 3


class TestSweep:
    def test_cells_and_resume(self, tmp_path, cfg_file):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        csv_path = os.path.join(out, "sweep.csv")
        rows = open(csv_path).read().splitlines()
        assert rows[0] == ",".join(
            ["arch", "L", "eta", "retries", "steps_to_threshold",
             "final_train_err", "final_surrogate", "h2l_init", "h2l_final"])
        assert len(rows) == 3  # header + 2 cells
        # cell files exist and a rerun reuses them byte-for-byte
        first = open(csv_path, "rb").read()
        marker = os.path.join(out, "cell_residual_L2", "cell.json")
        stamp = os.path.getmtime(marker)
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        assert open(csv_path, "rb").read() == first
        assert os.path.getmtime(marker) == stamp

    def test_half_written_cell_is_recomputed(self, tmp_path, cfg_file):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        csv_path = os.path.join(out, "sweep.csv")
        first = open(csv_path, "rb").read()
        cell = os.path.join(out, "cell_residual_L2", "cell.json")
        whole = open(cell, "rb").read()
        stub = json.loads(whole)
        del stub["h2l_final"]
        # truncated; not a JSON object; a row with the right inputs but a column short
        for broken in (whole[:40], b"[1, 2]\n", json.dumps(stub).encode()):
            with open(cell, "wb") as fh:
                fh.write(broken)
            assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
            assert open(csv_path, "rb").read() == first
            assert open(cell, "rb").read() == whole
        assert sorted(os.listdir(os.path.dirname(cell))) == ["cell.json"]

    @pytest.mark.parametrize("column, value", [
        ("steps_to_threshold", None), ("final_train_err", 0), ("retries", False)])
    def test_cell_of_the_wrong_type_is_recomputed(self, tmp_path, cfg_file, column, value):
        # a row whose inputs match is reused only if each column has the type
        # sweep_cell writes: a null would end the sweep in a traceback, and
        # an int or bool would reach sweep.csv in place of the fresh value
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        csv_path = os.path.join(out, "sweep.csv")
        fresh = open(csv_path, "rb").read()
        cell = os.path.join(out, "cell_residual_L2", "cell.json")
        whole = open(cell, "rb").read()
        row = json.loads(whole)
        row[column] = value
        with open(cell, "w", encoding="utf-8") as fh:
            json.dump(row, fh)
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        assert open(csv_path, "rb").read() == fresh
        assert open(cell, "rb").read() == whole

    def test_config_key_stamp_is_recomputed(self, tmp_path, cfg_file):
        # cells stamped with config key names (seed, sweep_m, ...) rather
        # than depth_sweep's argument names are stale, never reused
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        csv_path = os.path.join(out, "sweep.csv")
        first = open(csv_path, "rb").read()
        cell = os.path.join(out, "cell_residual_L2", "cell.json")
        whole = open(cell, "rb").read()
        cfg = cli.load_config(cfg_file)
        old = json.loads(whole)
        old["inputs"] = {"arch": "residual", "L": 2, **{k: cfg[k] for k in (
            "d", "n", "M", "gamma", "seed", "sweep_m", "theta_per_L",
            "sweep_eta_scale", "steps_budget", "surrogate_target")}}
        old["steps_to_threshold"] = 12345
        with open(cell, "w", encoding="utf-8") as fh:
            json.dump(old, fh)
        assert main(["sweep", "--config", cfg_file, "--out", out]) == 0
        assert open(csv_path, "rb").read() == first
        assert open(cell, "rb").read() == whole

    def test_rejected_sweep_writes_nothing(self, tmp_path):
        bad = write_config(tmp_path / "bad.json", steps_budget=0)
        assert main(["sweep", "--config", bad, "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()

    def test_sweep_csv_matches_depth_sweep_probe(self, tmp_path, cfg_file):
        sweep, probe = str(tmp_path / "sweep"), str(tmp_path / "probe")
        assert main(["sweep", "--config", cfg_file, "--out", sweep]) == 0
        assert main(["probe", "--config", cfg_file, "--out", probe,
                     "--probes", "depth_sweep"]) == 0
        rows = open(os.path.join(sweep, "sweep.csv"), "rb").read()
        assert rows == open(os.path.join(probe, "depth_sweep.details.csv"), "rb").read()
        assert rows.count(b"\n") == 3  # header + 2 cells

    def test_changed_config_recomputes_cached_cells(self, tmp_path):
        first = write_config(tmp_path / "a.json", sweep_L=[4, 16], sweep_m=24,
                             surrogate_target=0.4)
        second = write_config(tmp_path / "b.json", sweep_L=[4, 16], sweep_m=48,
                              surrogate_target=0.2)
        shared, fresh = str(tmp_path / "shared"), str(tmp_path / "fresh")
        assert main(["sweep", "--config", first, "--out", shared]) == 0
        stale = open(os.path.join(shared, "sweep.csv"), "rb").read()
        assert main(["sweep", "--config", second, "--out", shared]) == 0
        assert main(["sweep", "--config", second, "--out", fresh]) == 0
        rows = open(os.path.join(shared, "sweep.csv"), "rb").read()
        assert rows == open(os.path.join(fresh, "sweep.csv"), "rb").read()
        assert rows != stale


class TestBenchHooks:
    """What ``bench/run.py`` and its tracer take from the lab by name."""

    @pytest.fixture()
    def bench_run(self, monkeypatch):
        """``bench/run.py`` as a module, loaded by path without running it."""
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks here
        spec.loader.exec_module(module)
        return module

    def test_workloads_name_lab_functions(self, bench_run):
        assert len(bench_run.WORKLOADS) == 4
        for workload in bench_run.WORKLOADS.values():
            module, name = workload.entry
            assert inspect.isfunction(getattr(importlib.import_module(f"reslab.{module}"),
                                              name))
            assert set(workload.commands) <= set(cli.COMMANDS)
            assert (BENCH / "configs" / workload.config).is_file()

    def test_train_takes_h_k_through_gradient_set(self, monkeypatch):
        # depth-sweep's ms_per_iter leaves out the time spent here
        calls = []
        norms = lossgrad.GradientSet.spectral_norms
        monkeypatch.setattr(lossgrad.GradientSet, "spectral_norms",
                            lambda grads: calls.append(len(grads.layers)) or norms(grads))
        rng = RngState(4)
        ds = data.make_dataset(rng, 6, 32, 0.05, 40)
        params = model.init_gaussian(rng.substream("init"), 6, 3, 16, 16, 0.1 / 3)
        result = trainer.train(params, ds, trainer.TrainConfig(eta=0.25, steps=2))
        assert [rec.step for rec in result.records] == [0, 1, 2]
        assert calls == [1] * 3 * (params.depth + 1)

    def test_draw_is_defined_on_the_ball(self):
        # the tracer wraps vars(PerturbationBall)["draw"], not an inherited one
        assert "draw" in vars(probes.PerturbationBall)


REPORT = {"name": "x", "verdict": "holds", "constant_fit": 1.5,
          "measured": {"ratio": 0.5}}  # the keys `report` reads


class TestMisc:
    def test_gradcheck_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["gradcheck", "--config", cfg]) == 0

    def test_usage_error_exits_4(self):
        assert main(["train", "--config", "/nonexistent/c.json"]) in (3, 4)
        assert main(["probe", "--bad-flag"]) == 4

    def test_report_assembles_markdown(self, tmp_path, cfg_file):
        out = str(tmp_path / "run")
        main(["gen-data", "--config", cfg_file, "--out", out])
        main(["probe", "--config", cfg_file, "--out", out,
              "--probes", "loss_at_init"])
        assert main(["report", "--out", out]) == 0
        text = open(os.path.join(out, "report.md")).read()
        assert "loss_at_init" in text and "| probe |" in text

    def test_report_without_outputs_exits_3(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nothing")]) == 3

    @pytest.mark.parametrize("body", [
        pytest.param("{not json", id="not-json"),
        pytest.param(b"\xff\xfe", id="not-utf8"),
        pytest.param("[1, 2]", id="not-an-object"),
        *(pytest.param(json.dumps({k: v for k, v in REPORT.items() if k != key}),
                       id=f"no-{key}") for key in REPORT),
        pytest.param(json.dumps({**REPORT, "measured": [0.5]}), id="measured-a-list"),
    ])
    def test_bad_report_exits_3(self, tmp_path, capsys, body):
        path = tmp_path / "x.report.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
        assert main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(path) in err[0]
        assert not (tmp_path / "report.md").exists()

    def test_report_reads_a_minimal_report(self, tmp_path):
        (tmp_path / "x.report.json").write_text(json.dumps(REPORT))
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert "| x | holds | 1.5 | ratio=0.5 |" in (tmp_path / "report.md").read_text()


DROP = object()  # stands for a header key taken out


def rewrite_header(src, dest, key, value):
    """``src`` with its header's ``key`` set to ``value`` (taken out, for
    DROP; the whole header replaced, for key None), written to ``dest``."""
    line, payload = Path(src).read_bytes().split(b"\n", 1)
    header = json.loads(line)
    if key is None:
        header = value
    elif value is DROP:
        del header[key]
    else:
        header[key] = value
    dest.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    return str(dest)


@pytest.fixture(scope="class")
def trained(tmp_path_factory):
    """A dataset and a checkpoint made by gen-data and train, and their config."""
    out = tmp_path_factory.mktemp("trained")
    cfg = write_config(out / "c.json", K=2)
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out, cfg


class TestMalformedHeaders:
    """A header fault in either binary file exits 3 with one error line."""

    @staticmethod
    def train_exits_3(capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and path in err[0]

    @pytest.mark.parametrize("key,value", [
        pytest.param("d", DROP, id="no-d"),
        pytest.param("acceptance_rate", DROP, id="no-acceptance_rate"),
        pytest.param("d", "x", id="d-a-string"),
        pytest.param("gamma", "0.05", id="gamma-a-string"),
        pytest.param("seed", 5, id="seed-an-int"),
        pytest.param("seed", [True, 0], id="seed-true"),
        pytest.param("acceptance_rate", float("nan"), id="acceptance_rate-nan"),
        pytest.param("acceptance_rate", float("inf"), id="acceptance_rate-inf"),
        pytest.param(None, [1, 2], id="not-an-object"),
        pytest.param("version", 2, id="version-2"),
        pytest.param("version", True, id="version-true"),
    ])
    def test_dataset(self, tmp_path, capsys, trained, key, value):
        run, cfg = trained
        bad = rewrite_header(run / "dataset.bin", tmp_path / "bad.bin", key, value)
        self.train_exits_3(capsys, ["train", "--config", cfg, "--out",
                                    str(tmp_path / "o"), "--data", bad], bad)

    @pytest.mark.parametrize("key,value", [
        pytest.param("d", DROP, id="no-d"),
        pytest.param("theta", DROP, id="no-theta"),
        pytest.param("widths", 32, id="widths-an-int"),
        pytest.param("theta", "a", id="theta-a-string"),
        pytest.param("L", True, id="L-true"),
        pytest.param("theta", float("nan"), id="theta-nan"),
        pytest.param(None, [1, 2], id="not-an-object"),
        pytest.param("version", 2, id="version-2"),
        pytest.param("widths", [-32, 32, 32, 32], id="width-negative"),
        pytest.param("L", 99, id="L-not-len-widths-minus-1"),
    ])
    def test_checkpoint(self, tmp_path, capsys, trained, key, value):
        run, cfg = trained
        bad = rewrite_header(run / "checkpoint.bin", tmp_path / "bad.bin", key, value)
        self.train_exits_3(capsys, ["train", "--config", cfg, "--out",
                                    str(tmp_path / "o"), "--data",
                                    str(run / "dataset.bin"), "--checkpoint", bad], bad)

    def test_rewrite_alone_keeps_a_loadable_file(self, tmp_path, trained):
        # the cases above fail for their edit, not for the rewriting
        run, _ = trained
        ds = rewrite_header(run / "dataset.bin", tmp_path / "ds.bin", "version", 1)
        assert data.load_dataset(ds).n == 40
        ck = rewrite_header(run / "checkpoint.bin", tmp_path / "ck.bin", "version", 1)
        assert model.load_checkpoint(ck).depth == 3


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def test_artifacts_do_not_depend_on_thread_count(tmp_path):
    """Train and probe under LAB_THREADS=1 and =2 give the same bytes."""
    cfg = write_config(tmp_path / "c.json", L=4, m=96, m_last=96, K=15)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(LAB_THREADS=threads, PYTHONPATH=src)
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        for argv in (["gen-data"], ["train"],
                     ["probe", "--checkpoint", "out/checkpoint.bin", "--probes",
                      "activation_norms,weight_lipschitz_flips,semismoothness"]):
            subprocess.run([sys.executable, "-m", "reslab.cli", *argv, "--config",
                            cfg, "--out", "out"], cwd=cwd, env=env, check=True,
                           capture_output=True, timeout=300)
        outputs[threads] = {p.name: p.read_bytes()
                            for p in sorted((cwd / "out").iterdir())}
    assert "checkpoint.bin" in outputs["1"] and "semismoothness.report.json" in outputs["1"]
    assert sorted(outputs["1"]) == sorted(outputs["2"])
    for name, body in outputs["1"].items():
        assert body == outputs["2"][name], name
