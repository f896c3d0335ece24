"""Benchmark of the lab's four long-running CLI workloads.

    python3 bench/run.py --workload train-golden --seed 0 --seconds 20 --trace 0

Each workload is a closed loop: one process runs the workload's CLI
commands in order through ``reslab.cli.main``, into a fresh output
directory, and starts the next round only when the last has finished and
another one still fits in ``--seconds``.  Every round runs the same commands
on the same seed.  After the timed rounds each round's artifacts are checked
(``checks.py``) and deleted.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics of the traced
ones (``spans.py``) with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
RUNS = ROOT / "runs" / "bench"

# One BLAS thread: on a 2-core machine one thread trains the golden run as
# fast as two and yields the same bytes, and it keeps runs from contending.
BLAS_THREAD_VARS = ("LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PASSES = 5

END_TO_END = {"setup_s": "s", "ms_per_iter": "ms", "peak_rss_mb": "MB"}

PER_LAYER = [
    "numkit.factored_spectral_norm.s", "numkit.factored_spectral_norm.calls",
    "numkit.spectral_norm.s", "numkit.spectral_norm.calls",
    "numkit.pairwise_sum.s", "numkit.pairwise_sum.calls",
    "numkit.operator_norm.s", "numkit.operator_norm.calls",
    "numkit.operator_norm.applies",
    "model.interlayer_norm.s", "model.interlayer_norm.calls",
    "model.interlayer_apply.calls",
    "model.forward_batch.s", "model.forward_batch.calls",
    "model.forward_batch.gflop", "model.forward_batch.gflops",
    "lossgrad.batch_output_grad.s", "lossgrad.batch_output_grad.calls",
    "lossgrad.batch_output_grad.gflop", "lossgrad.batch_output_grad.gflops",
    "lossgrad.loss_grad_from_trace.s",
    "machine.dgemm.gflops",
    "trainer.train.s", "trainer.train.steps",
    "trainer.step_distance.s", "trainer.step_distance.calls",
    "probes.probe_activation_norms.s",
    "probes.probe_weight_lipschitz_and_flips.s",
    "probes.probe_semismoothness.s", "probes.probe_sparse_output.s",
    "probes.PerturbationBall.draw.s", "probes.PerturbationBall.draw.calls",
    "probes.flip_targeted_draw.s",
    "probes.rademacher_estimate.s", "probes.sweep_cell.s",
    "data.sample_dataset.s", "data.save_dataset.s", "data.load_dataset.s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.overhead_pct",
]


@dataclass(frozen=True)
class Workload:
    config: str       # file under configs/
    commands: tuple   # CLI subcommands, run in this order each round
    entry: tuple      # (module, function): the first timed call
    units: int        # probes or sweep cells a round runs, each an operation
    checks: int       # correctness checks made on a round's artifacts
    warm_up: dict     # config overrides for a short untimed first pass


# The first pass in a process runs slower (fresh allocator arenas and page
# faults on the first large arrays): 15% on a depth-sweep round.  A short
# pass at the same shapes comes first so every timed round runs warm.
WORKLOADS = {
    "train-golden": Workload("train-golden.json", ("gen-data", "train"),
                             ("trainer", "train"), 0, 4, {"K": 3}),
    "probe-ball": Workload("probe-ball.json", ("probe",),
                           ("probes", "probe_activation_norms"), 4, 3,
                           {"probe_draws": 1, "trials": 1, "tau_grid": [0.1]}),
    "depth-sweep": Workload("depth-sweep.json", ("sweep",),
                            ("probes", "sweep_cell"), 6, 3, {"steps_budget": 3}),
    "rademacher-ascent": Workload("rademacher-ascent.json", ("probe",),
                                  ("probes", "rademacher_estimate"), 1, 3,
                                  {"xi_draws": 1, "ascent_steps": 3}),
}


class _SetupDone(Exception):
    """Raised at the first timed call of a set-up-only pass."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_lab():
    """Import the lab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "reslab" / "cli.py").is_file():
        print(f"bench: no lab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import reslab
    from reslab import cli, data, lossgrad, model, numkit, probes, trainer
    if Path(reslab.__file__).resolve().parent != src / "reslab":
        print(f"bench: imported reslab from {reslab.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return cli, [numkit, model, lossgrad, data, trainer, probes]


class Bench:
    def __init__(self, args, cli, modules):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.cli = cli
        self.modules = modules
        self.config = str(CONFIGS / self.wl.config)
        with open(self.config, encoding="utf-8") as fh:
            self.cfg = cli.load_config(None, json.load(fh))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.entry = (by_name[self.wl.entry[0]], self.wl.entry[1])
        self.trainer, self.lossgrad = by_name["trainer"], by_name["lossgrad"]

    def _pass(self, out, setup_only, config=None):
        """Run the workload's commands into ``out``.

        Returns the set-up seconds, the wall seconds (from the first timed
        call to the return of the last command), the failed commands and,
        for the depth sweep, each cell's (training seconds, layer-evaluations).
        """
        from spans import rebind, restore
        mod, name = self.entry
        timed = getattr(mod, name)  # traced or not, as bound now
        marks = {"cells": []}

        @functools.wraps(timed)
        def entered(*a, **kw):
            marks.setdefault("entry", time.perf_counter())
            if setup_only:
                raise _SetupDone
            return timed(*a, **kw)

        undo = rebind(self.modules, timed, entered)
        if self.args.workload == "depth-sweep":
            undo += self._time_cells(marks["cells"])
        failed = 0
        start = time.perf_counter()
        try:
            for command in self.wl.commands:
                argv = [command, "--config", config or self.config, "--seed",
                        str(self.args.seed), "--out", out]
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        rc = self.cli.main(argv)
                except _SetupDone:
                    break
                except Exception:  # a crash is a failed operation, not the end
                    traceback.print_exc()
                    rc = -1
                if rc != 0:
                    print(f"bench: `reslab {' '.join(argv)}` exited {rc}",
                          file=sys.stderr)
                    failed += 1
        finally:
            restore(undo)
        end = time.perf_counter()
        entry = marks.get("entry", end)
        return {"out": out, "setup": entry - start, "wall": end - entry,
                "failed": failed, "cells": marks["cells"]}

    def _time_cells(self, cells):
        """Record each sweep cell's training seconds net of its h_k spectral
        norms, with its layer-evaluations (GD evaluations times layers)."""
        from spans import rebind
        train = self.trainer.train
        grads = self.lossgrad.GradientSet
        norms = grads.spectral_norms
        spent = [0.0]

        @functools.wraps(norms)
        def timed_norms(*a, **kw):
            start = time.perf_counter()
            try:
                return norms(*a, **kw)
            finally:
                spent[0] += time.perf_counter() - start

        @functools.wraps(train)
        def cell_train(params, dataset, cfg):
            spent[0] = 0.0
            start = time.perf_counter()
            result = train(params, dataset, cfg)
            cells.append((time.perf_counter() - start - spent[0],
                          (result.steps_run + 1) * (params.depth + 1)))
            return result

        grads.spectral_norms = timed_norms
        return [(grads, "spectral_norms", norms)] + rebind(self.modules, train, cell_train)

    def _fresh_dir(self):
        RUNS.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{self.args.workload}-", dir=RUNS)

    def warm_up(self):
        out = self._fresh_dir()
        try:
            config = os.path.join(out, "warm-up.json")
            with open(self.config, encoding="utf-8") as fh:
                cfg = {**json.load(fh), **self.wl.warm_up}
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self._pass(out, setup_only=False, config=config)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def setup_samples(self):
        samples = []
        for _ in range(SETUP_PASSES):
            out = self._fresh_dir()
            try:
                samples.append(self._pass(out, setup_only=True)["setup"])
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return samples

    def rounds(self, tracer=None):
        """Timed rounds until the next would not fit in --seconds.

        With a tracer, each round is an untraced pass then a traced one.
        """
        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rnd = self._pass(self._fresh_dir(), setup_only=False)
            if tracer is not None:
                traced_out = self._fresh_dir()
                tracer.install()
                try:
                    traced = self._pass(traced_out, setup_only=False)
                    rnd["traced_wall"] = traced["wall"]
                    rnd["traced_failed"] = traced["failed"]
                finally:
                    tracer.uninstall()
                    shutil.rmtree(traced_out, ignore_errors=True)
            rounds.append(rnd)
            rnd["duration"] = time.perf_counter() - t0
            typical = statistics.median(r["duration"] for r in rounds)
            if time.perf_counter() - start + typical > self.args.seconds:
                return rounds

    def ms_per_iter(self, rnd):
        """Milliseconds per GD step (train-golden), probe trial (probe-ball)
        or ascent step (rademacher-ascent) of a round; for the depth sweep,
        the median over its cells of training milliseconds, net of the h_k
        spectral norms, per layer-evaluation (GD evaluations times layers)."""
        from checks import read_json
        out, name = rnd["out"], self.args.workload
        if name == "depth-sweep":
            return statistics.median(1000.0 * sec / units for sec, units in rnd["cells"])
        if name == "train-golden":
            iters = read_json(os.path.join(out, "summary.json"))["steps_run"]
        elif name == "rademacher-ascent":
            cfg = read_json(os.path.join(out, "rademacher.report.json"))["config"]
            iters = cfg["xi_draws"] * cfg["ascent_steps"]
        else:
            index = read_json(os.path.join(out, "index.json"))
            iters = sum(read_json(os.path.join(out, rep))["trials"]
                        for rep in index["reports"])
        return 1000.0 * rnd["wall"] / iters

    def check(self, out):
        import checks
        name = self.args.workload
        if name == "train-golden":
            return checks.check_train(out)
        if name == "probe-ball":
            return checks.check_probe_ball(out, probe_inputs, init_weights)
        if name == "depth-sweep":
            return checks.check_sweep(out, self.cfg)
        return checks.check_rademacher(out)


# The probe command draws its inputs and network from the seed; these two
# rebuild them for the checks, which compute the checked quantities apart.
def probe_inputs(cfg):
    import numpy as np
    from reslab.numkit import RngState
    raw = RngState(cfg["seed"]).substream("probe-inputs").standard_normal(
        (cfg["probe_inputs"], cfg["d"]))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def init_weights(cfg):
    from reslab.cli import resolved_theta
    from reslab.model import init_gaussian
    from reslab.numkit import RngState
    params = init_gaussian(RngState(cfg["seed"]).substream("init"), cfg["d"],
                           cfg["L"], cfg["m"], cfg["m_last"], resolved_theta(cfg),
                           cfg["arch"])
    return list(params.weights)


def _dgemm_gflops():
    """Median rate of a 200x256 @ 256x256 float64 product (the golden
    shape's layer gemm), over repeated runs in this process."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((200, 256)), rng.standard_normal((256, 256))
    out = np.empty((200, 256))
    times = []
    for _ in range(400):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * 200 * 256 * 256 / statistics.median(times[50:]) / 1e9


def _per_layer(tracer, rounds):
    n = len(rounds)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, sec in tracer.self_s.items():
        if f"{name}.s" in metrics:
            metrics[f"{name}.s"] = sec / n
    for name, calls in tracer.calls.items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls / n
    for name, value in tracer.counters.items():
        metrics[name] = value / n
    for name in ("model.forward_batch", "lossgrad.batch_output_grad"):
        sec = metrics[f"{name}.s"]
        metrics[f"{name}.gflops"] = metrics[f"{name}.gflop"] / sec if sec else 0.0
    metrics["machine.dgemm.gflops"] = _dgemm_gflops()
    traced = statistics.median(r["traced_wall"] for r in rounds)
    untraced = statistics.median(r["wall"] for r in rounds)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    return metrics


def unit_of(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None):
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cli, modules = _import_lab()
    import_s = time.perf_counter() - _PROCESS_START
    sys.path.insert(0, str(BENCH))
    from spans import Tracer

    bench = Bench(args, cli, modules)
    bench.warm_up()
    setups = bench.setup_samples()
    tracer = Tracer(modules) if args.trace else None
    rounds = bench.rounds(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl = bench.wl
    passes = 2 if args.trace else 1  # a traced round also runs untraced
    per_round = passes * (len(wl.commands) + wl.units) + wl.checks
    failed = 0
    correct = True
    ms_per_iter = []
    try:
        for i, rnd in enumerate(rounds):
            for cmds in (rnd["failed"], rnd.get("traced_failed", 0)):
                if cmds:  # the probes or cells of a failed command count too
                    failed += cmds + wl.units
                    correct = False
            if rnd["failed"]:  # no artifacts to check
                failed += wl.checks
                continue
            results = bench.check(rnd["out"])
            bad = [(name, problem) for name, problem in results if problem]
            for name, problem in bad:
                print(f"bench: round {i} check {name} FAILED: {problem}",
                      file=sys.stderr)
            failed += len(bad)
            correct = correct and not bad and len(results) == wl.checks
            ms_per_iter.append(bench.ms_per_iter(rnd))
            print(f"round {i}: setup {rnd['setup']:.3f} s, wall {rnd['wall']:.3f} s, "
                  f"{ms_per_iter[-1]:.3f} ms/iter, "
                  f"checks {len(results) - len(bad)}/{len(results)} passed")
    finally:
        for rnd in rounds:
            shutil.rmtree(rnd["out"], ignore_errors=True)

    setups += [r["setup"] for r in rounds]
    if args.trace:
        values = _per_layer(tracer, rounds)
        print("largest self times per traced round (kernels excluded):")
        for sec, name in tracer.top_self():
            print(f"  {name:43s} {sec / len(rounds):14.6f} s")
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "ms_per_iter": statistics.median(ms_per_iter) if ms_per_iter else None,
            "peak_rss_mb": peak_rss_mb,
        }
    units = END_TO_END if not args.trace else {n: unit_of(n) for n in values}
    for name, value in values.items():
        print(f"{name:45s} {value if value is not None else float('nan'):14.6f} "
              f"{units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": per_round * len(rounds),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
