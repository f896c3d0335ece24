"""Command-line entry point: data generation, training, probes, sweeps, reports.

Everything is reproducible from a flat JSON config plus one root seed; all
randomness flows from that seed through named substreams (teacher/data/init/
ball/xi/...).  CLI flags override config-file keys, which override built-in
defaults, and every output directory embeds the resolved config it was
produced with.  The flags are --config, --seed, --out, --arch, --probes,
--data and --checkpoint; every other value is set in the config file, a
JSON object.  Each decision lives in one table: ``KEYS`` gives each key its
default and its check, and the config is checked whole when it is loaded,
before any command reads it; ``PROBES`` maps each probe name to its runner,
in the order ``all`` runs them; ``COMMANDS`` maps each subcommand to its
function.  The skip weight is theta_per_L / L and the step size
eta_scale / m, with m the width of the network being trained.

Exit codes: 0 success, 1 check failure, 2 data infeasibility, 3 I/O error,
malformed or invalid file, or shape mismatch, 4 usage error: an unknown flag
or config key, a config value that fails its key's check, or one the lab
rejects (``model.ConfigError``).
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads anywhere; LAB_THREADS also caps any
# future worker pools.  Must happen at import time of this entry module.
if os.environ.get("LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["LAB_THREADS"])

import argparse
import json
import sys

import numpy as np

from . import data, lossgrad, model, probes, trainer
from .numkit import RngState

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_USAGE = 4

ARCHES = (model.ARCH_RESIDUAL, model.ARCH_PLAIN)
ARCH = (" or ".join(map(repr, ARCHES)), lambda v: type(v) is str and v in ARCHES)
LIST_OF_ARCH = (f"a list whose entries are each {ARCH[0]}",
                lambda v: type(v) is list and all(map(ARCH[1], v)))

# Each config key's default and its check, ``data``'s or an arch rule above
# (what the value must be, its test); null stays allowed where the default is
# null.  Counts are at least 1, as a count of 0 would divide by zero or make a
# verdict from no trials, but K, a number of GD steps, may be 0.
KEYS = {
    "d": (10, data.SIZE), "L": (16, data.SIZE), "m": (256, data.SIZE),
    "m_last": (None, data.SIZE), "n": (200, data.SIZE), "gamma": (0.1, data.AMOUNT),
    "M": (64, data.SIZE), "theta_per_L": (0.1, data.NUMBER),
    "eta_scale": (10.0, data.NUMBER), "K": (2000, data.COUNT),
    "stop_surrogate": (None, data.NUMBER), "seed": (0, data.INTEGER),
    "arch": (model.ARCH_RESIDUAL, ARCH), "probes": ("all", data.TEXT),
    "data": (None, data.TEXT), "checkpoint": (None, data.TEXT), "out": ("out", data.TEXT),
    "heldout_n": (2000, data.SIZE), "ball_tau": (0.1, data.AMOUNT),
    "probe_inputs": (50, data.SIZE), "probe_draws": (8, data.SIZE),
    "tau_grid": ([0.01, 0.03, 0.1, 0.3], data.POSITIVES),
    "beta_grid": ([0.001, 0.01, 0.1], data.POSITIVES),
    "sparsity": (16, data.SIZE), "trials": (20, data.SIZE), "xi_draws": (16, data.SIZE),
    "ascent_steps": (50, data.SIZE), "markov_band": (0.03, data.NUMBER),
    "sweep_L": ([4, 16, 64], data.SIZES),
    "sweep_arch": (list(ARCHES), LIST_OF_ARCH), "sweep_m": (128, data.SIZE),
    "sweep_eta_scale": (2.0, data.NUMBER), "steps_budget": (2000, data.SIZE),
    "surrogate_target": (0.3, data.NUMBER),
}
DEFAULTS = {key: default for key, (default, _) in KEYS.items()}


class UsageError(ValueError):
    pass


class ReportFormatError(ValueError):
    """Malformed probe report file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage errors are 4
        raise UsageError(message)


def load_config(path=None, overrides=None) -> dict:
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise FileNotFoundError(f"config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if type(file_cfg) is not dict:
            raise UsageError(f"config file {path} must hold a JSON object, "
                             f"not {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    if cfg["m_last"] is None:
        cfg["m_last"] = cfg["m"]
    for key, value in cfg.items():
        default, (what, ok) = KEYS[key]
        if not (ok(value) or (value is None and default is None)):
            raise UsageError(f"config value {key}={value!r} must be {what}")
    return cfg


def resolved_theta(cfg) -> float:
    return float(cfg["theta_per_L"]) / cfg["L"]


def resolved_eta(cfg, m) -> float:
    return float(cfg["eta_scale"]) / m


def _dataset_path(cfg) -> str:
    return cfg["data"] or os.path.join(cfg["out"], "dataset.bin")


def _load_or_init_params(cfg, rng, dataset):
    if cfg["checkpoint"]:
        params = model.load_checkpoint(cfg["checkpoint"])
        if params.d != dataset.d:
            raise model.ShapeError(
                f"checkpoint input dim {params.d} != dataset dim {dataset.d}")
        return params
    return model.init_gaussian(rng.substream("init"), cfg["d"], cfg["L"], cfg["m"],
                               cfg["m_last"], resolved_theta(cfg), cfg["arch"])


def cmd_gen_data(cfg) -> int:
    ds = data.make_dataset(RngState(cfg["seed"]), cfg["d"], cfg["M"], cfg["gamma"],
                           cfg["n"])
    os.makedirs(cfg["out"], exist_ok=True)
    path = _dataset_path(cfg)
    data.save_dataset(ds, path)
    report = {
        "config": cfg,
        "dataset_file": os.path.basename(path),
        "acceptance_rate": ds.acceptance_rate,
        "realized_margin": ds.realized_margin,
        "positive_fraction": float(np.mean(ds.ys > 0)),
    }
    data.write_json(os.path.join(cfg["out"], "gen_report.json"), report)
    print(f"wrote {path} (n={ds.n}, acceptance {ds.acceptance_rate:.2%}, "
          f"margin {ds.realized_margin:.4f})")
    return EXIT_OK


def cmd_train(cfg) -> int:
    path = _dataset_path(cfg)
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file {path} not found; "
                                f"run gen-data first or pass --data")
    ds = data.load_dataset(path)
    root = RngState(cfg["seed"])
    params = _load_or_init_params(cfg, root, ds)
    tcfg = trainer.TrainConfig(eta=resolved_eta(cfg, params.m), steps=cfg["K"],
                               stop_surrogate=cfg["stop_surrogate"])
    result = trainer.train(params, ds, tcfg)
    os.makedirs(cfg["out"], exist_ok=True)
    trainer.write_trajectory_csv(result.records,
                                 os.path.join(cfg["out"], "trajectory.csv"))
    trainer.write_summary_json(result, cfg,
                               os.path.join(cfg["out"], "summary.json"))
    model.save_checkpoint(result.params,
                          os.path.join(cfg["out"], "checkpoint.bin"),
                          seed=(cfg["seed"], 0))
    last = result.records[-1] if result.records else None
    if last is not None:
        print(f"trained {result.steps_run} steps: loss {last.loss:.4f}, "
              f"surrogate {last.surrogate:.4f}, train_err {last.train_err:.3f}")
    return EXIT_OK


def _sphere(root, params, count, draws=1) -> tuple:
    """``draws`` disjoint draws of ``count`` unit-sphere inputs, one after
    another from one ``probe-inputs`` substream."""
    rng = root.substream("probe-inputs")
    return tuple(data.unit_sphere_rows(rng, count, params.d) for _ in range(draws))


# Each probe's runner, (cfg, root, ds, params) -> ProbeReport, in the order
# ``all`` runs them and index.json lists them.
PROBES = {
    "activation_norms": lambda cfg, root, ds, params: probes.probe_activation_norms(
        params, *_sphere(root, params, cfg["probe_inputs"])),
    "input_lipschitz": lambda cfg, root, ds, params: probes.probe_input_lipschitz(
        params, _sphere(root, params, cfg["probe_inputs"], draws=2)),
    "weight_lipschitz_flips": lambda cfg, root, ds, params:
        probes.probe_weight_lipschitz_and_flips(
            params, root.substream("ball"),
            *_sphere(root, params, min(cfg["probe_inputs"], 10)),
            tuple(cfg["tau_grid"]), cfg["probe_draws"]),
    "semismoothness": lambda cfg, root, ds, params: probes.probe_semismoothness(
        params, root.substream("ball"),
        *_sphere(root, params, min(cfg["probe_inputs"], 20)),
        cfg["ball_tau"], cfg["probe_draws"] * 4, dataset=ds),
    "gradient_bounds": lambda cfg, root, ds, params: probes.probe_gradient_bounds(
        params, ds, trainer.train(params, ds, trainer.TrainConfig(
            eta=resolved_eta(cfg, params.m), steps=cfg["K"], stop_surrogate=0.25))),
    "separability": lambda cfg, root, ds, params: probes.probe_separability(
        ds.teacher, params, ds, root.substream("control")),
    "threshold_indices": lambda cfg, root, ds, params: probes.probe_threshold_indices(
        params, *_sphere(root, params, cfg["probe_inputs"]), tuple(cfg["beta_grid"])),
    "sparse_output": lambda cfg, root, ds, params: probes.probe_sparse_output(
        params, root.substream("sparse"), cfg["ball_tau"], cfg["sparsity"],
        cfg["trials"]),
    "loss_at_init": lambda cfg, root, ds, params: probes.probe_loss_at_init(params, ds),
    "rademacher": lambda cfg, root, ds, params: probes.rademacher_estimate(
        params, cfg["ball_tau"], ds, root.substream("xi"), cfg["xi_draws"],
        cfg["ascent_steps"]),
    "surrogate_markov": lambda cfg, root, ds, params: probes.probe_surrogate_markov(
        params, data.sample_dataset(ds.teacher, root.substream("heldout"),
                                    cfg["heldout_n"]), cfg["markov_band"]),
    "depth_sweep": lambda cfg, root, ds, params: _depth_sweep(cfg),
}
PROBE_NAMES = list(PROBES)


def cmd_probe(cfg) -> int:
    names = [s.strip() for s in str(cfg["probes"]).split(",") if s.strip()]
    if not names:
        raise UsageError(f"no probe named; valid: all, {', '.join(PROBE_NAMES)}")
    if "all" in names:
        if len(names) > 1:
            raise UsageError(f"'all' names every probe and stands alone, got {names}")
        names = PROBE_NAMES
    unknown = [nm for nm in names if nm not in PROBE_NAMES]
    if unknown:
        raise UsageError(f"unknown probes {unknown}; valid: {', '.join(PROBE_NAMES)}")
    repeated = sorted({nm for nm in names if names.count(nm) > 1})
    if repeated:
        raise UsageError(f"probes named more than once: {repeated}")
    if "gradient_bounds" in names and cfg["K"] == 0:
        raise model.ConfigError("gradient_bounds reads a GD trajectory: K must be >= 1")
    path = _dataset_path(cfg)
    root = RngState(cfg["seed"])
    if os.path.exists(path):
        ds = data.load_dataset(path)
    else:
        ds = data.make_dataset(root, cfg["d"], cfg["M"], cfg["gamma"], cfg["n"])
    if {"gradient_bounds", "separability"} & set(names) and not ds.teacher.gamma > 0:
        raise model.ConfigError("gradient_bounds and separability divide by the "
                                "dataset's margin: gamma must be > 0")
    params = _load_or_init_params(cfg, root, ds)
    os.makedirs(cfg["out"], exist_ok=True)
    index = {"reports": [], "verdicts": {}}
    for name in names:
        report = PROBES[name](cfg, root, ds, params)
        paths = report.write(cfg["out"])
        index["reports"].append(os.path.basename(paths["report"]))
        index["verdicts"][report.name] = report.verdict
        print(f"probe {report.name}: {report.verdict}")
    index["config"] = cfg
    data.write_json(os.path.join(cfg["out"], "index.json"), index)
    return EXIT_OK


def _depth_sweep(cfg, cache_dir=None) -> probes.ProbeReport:
    return probes.depth_sweep(
        RngState(cfg["seed"]).substream("sweep"), tuple(cfg["sweep_L"]),
        tuple(cfg["sweep_arch"]), d=cfg["d"], m=cfg["sweep_m"], n=cfg["n"],
        gamma=cfg["gamma"], M=cfg["M"], theta_per_L=cfg["theta_per_L"],
        eta_scale=cfg["sweep_eta_scale"], steps_budget=cfg["steps_budget"],
        surrogate_target=cfg["surrogate_target"], cache_dir=cache_dir)


def cmd_sweep(cfg) -> int:
    rep = _depth_sweep(cfg, cache_dir=cfg["out"])  # each cell makes its directory
    for row in rep.details:
        print(f"cell {row[0]} L={row[1]}: steps={row[4]}")
    agg = os.path.join(cfg["out"], "sweep.csv")
    data.write_csv(agg, rep.detail_columns, rep.details)
    print(f"wrote {agg} ({len(rep.details)} cells)")
    return EXIT_OK


def cmd_gradcheck(cfg) -> int:
    """``lossgrad.gradient_check`` on the seed's ``gradcheck`` substream."""
    checked, skipped, worst, ok = lossgrad.gradient_check(
        RngState(cfg["seed"]).substream("gradcheck"))
    print(f"gradcheck: {checked} flip-free entries, {skipped} skipped, "
          f"worst relative error {worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(cfg) -> int:
    out = cfg["out"]
    if not os.path.isdir(out):
        raise FileNotFoundError(f"output directory {out} not found")
    names = sorted(fn for fn in os.listdir(out) if fn.endswith(".report.json"))
    if not names:
        raise FileNotFoundError(f"no .report.json files under {out}")
    lines = ["# Probe summary", "", "| probe | verdict | fitted constant | measured |",
             "|---|---|---|---|"]
    for fn in names:
        path = os.path.join(out, fn)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rep = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReportFormatError(f"{path}: not JSON: {exc}") from exc
        if not (isinstance(rep, dict) and isinstance(rep.get("measured"), dict)
                and {"name", "verdict", "constant_fit"} <= rep.keys()):
            raise ReportFormatError(f"{path}: not a probe report: an object with "
                                    f"name, verdict, constant_fit and measured, an object")
        measured = "; ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in sorted(rep["measured"].items())
                             if not isinstance(v, dict))
        fit = rep["constant_fit"]
        fit_str = f"{fit:.4g}" if isinstance(fit, float) else str(fit)
        lines.append(f"| {rep['name']} | {rep['verdict']} | {fit_str} | {measured} |")
    path = os.path.join(out, "report.md")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "probe": cmd_probe,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="reslab",
                     description="Residual-network training and bound-probing lab.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--arch", default=None)
        p.add_argument("--data", default=None, help="dataset file path")
        p.add_argument("--checkpoint", default=None, help="network checkpoint path")
        p.add_argument("--probes", default=None,
                       help="comma-separated probe names or 'all'")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config")}
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except (UsageError, model.ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (data.InfeasibleMarginError, data.DegenerateTeacherError) as exc:
        print(f"data generation infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, data.DataFormatError, data.DataInvariantError,
            model.CheckpointFormatError, model.ShapeError, ReportFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except trainer.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
