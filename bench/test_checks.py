"""The benchmark's output checks pass on real runs and fail on corrupted ones.

Each test runs a small configuration through the lab's CLI, checks the
artifacts, then corrupts one of them and expects the matching check to fail.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import run  # noqa: E402
from reslab import cli  # noqa: E402

SMALL = {"d": 6, "L": 4, "m": 24, "m_last": 24, "n": 40, "gamma": 0.1, "M": 16,
         "theta_per_L": 0.1, "eta_scale": 4.0, "K": 400, "stop_surrogate": 0.1}


def _run(tmp_path, commands, **cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **cfg}))
    out = str(tmp_path / "out")
    for command in commands:
        assert cli.main([command, "--config", str(path), "--out", out]) == 0
    return out


def _failed(results):
    return {name for name, problem in results if problem}


def _rewrite_csv(path, edit):
    rows = checks.read_csv(path)
    edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(rows[0]) + "\n" if rows else "")
        for row in rows:
            fh.write(",".join(row.values()) + "\n")


def _rewrite_json(path, edit):
    doc = checks.read_json(path)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("train"), ["gen-data", "train"])


def _copy(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


def test_train_checks_pass(trained):
    assert _failed(checks.check_train(trained)) == set()


def test_train_check_catches_a_perturbed_weight(trained, tmp_path):
    out = _copy(trained, tmp_path)
    path = os.path.join(out, "checkpoint.bin")
    with open(path, "r+b") as fh:
        header = len(fh.readline())
        fh.seek(header + 8 * 5)
        value = np.frombuffer(fh.read(8), dtype="<f8")[0]
        fh.seek(header + 8 * 5)
        fh.write(np.array([value * (1 + 1e-6)], dtype="<f8").tobytes())
    assert "forward_loss" in _failed(checks.check_train(out))


def test_train_check_catches_h_k_above_the_exact_value(trained, tmp_path):
    out = _copy(trained, tmp_path)
    path = os.path.join(out, "trajectory.csv")

    def nudge(rows):
        rows[-1]["h_k"] = repr(float(rows[-1]["h_k"]) * (1 + 1e-9) + 1e-12)
    _rewrite_csv(path, nudge)
    assert _failed(checks.check_train(out)) == {"h_k"}


def test_train_check_catches_a_run_that_did_not_stop(trained, tmp_path):
    out = _copy(trained, tmp_path)
    _rewrite_json(os.path.join(out, "summary.json"),
                  lambda doc: doc.update(stopped_early=False))
    assert _failed(checks.check_train(out)) == {"stopped_early"}


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("probe"), ["probe"],
                probes="activation_norms,semismoothness,sparse_output",
                m=128, m_last=128, probe_inputs=6, probe_draws=1, trials=2, seed=3)


def test_probe_ball_checks_pass(probed):
    results = checks.check_probe_ball(probed, run.probe_inputs, run.init_weights)
    assert _failed(results) == set()


def test_probe_ball_check_catches_an_hnorm_above_the_svd(probed, tmp_path):
    out = _copy(probed, tmp_path)

    def nudge(rows):
        row = next(r for r in rows if r["kind"] == "hnorm")
        row["value_max"] = repr(float(row["value_max"]) * 1.01)
    _rewrite_csv(os.path.join(out, "activation_norms.details.csv"), nudge)
    results = checks.check_probe_ball(out, run.probe_inputs, run.init_weights)
    assert _failed(results) == {"hnorm_svd"}


def test_probe_ball_checks_catch_verdicts_and_control(probed, tmp_path):
    out = _copy(probed, tmp_path)
    _rewrite_json(os.path.join(out, "index.json"),
                  lambda doc: doc["verdicts"].update(sparse_output="violated"))
    _rewrite_json(os.path.join(out, "semismoothness.report.json"),
                  lambda doc: doc["measured"].update(control_residual=1e-16))
    results = checks.check_probe_ball(out, run.probe_inputs, run.init_weights)
    assert _failed(results) == {"verdicts", "control_residual"}


SWEEP = {"sweep_L": [2, 4], "sweep_m": 16, "sweep_eta_scale": 2.0,
         "steps_budget": 400, "surrogate_target": 0.3}


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("sweep"), ["sweep"], **SWEEP)


def test_sweep_checks_pass(swept):
    assert _failed(checks.check_sweep(swept, cli.load_config(None, SWEEP))) == set()


def test_sweep_checks_catch_a_dropped_row_and_a_missed_target(swept, tmp_path):
    out = _copy(swept, tmp_path)

    def corrupt(rows):
        rows.pop()
        rows[0]["steps_to_threshold"] = "-1"
    _rewrite_csv(os.path.join(out, "sweep.csv"), corrupt)
    failed = _failed(checks.check_sweep(out, cli.load_config(None, SWEEP)))
    assert failed == {"rows", "reached_target"}


def test_sweep_check_catches_h2l_above_the_depth_free_bound(swept, tmp_path):
    out = _copy(swept, tmp_path)

    def corrupt(rows):
        row = next(r for r in rows if r["arch"] == "residual")
        row["h2l_final"] = repr(math.exp(0.3) * (1 + 1e-12))
    _rewrite_csv(os.path.join(out, "sweep.csv"), corrupt)
    assert _failed(checks.check_sweep(out, cli.load_config(None, SWEEP))) == {"h2l_bound"}


@pytest.fixture(scope="module")
def ascended(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("rademacher"), ["probe"],
                probes="rademacher", xi_draws=3, ascent_steps=4)


def test_rademacher_checks_pass(ascended):
    assert _failed(checks.check_rademacher(ascended)) == set()


def test_rademacher_checks_catch_corrupted_reports(ascended, tmp_path):
    out = _copy(ascended, tmp_path)
    path = os.path.join(out, "rademacher.report.json")
    _rewrite_json(path, lambda doc: doc["measured"].update(
        estimate=doc["measured"]["estimate"] * (1 + 1e-9), dropped=1))
    _rewrite_csv(os.path.join(out, "rademacher.details.csv"),
                 lambda rows: rows[0].update(ascent_value="-1e-15"))
    assert _failed(checks.check_rademacher(out)) == {
        "dropped", "ascent_nonnegative", "estimate_is_mean"}


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER]
