"""Artifact digests of a fixed command set, to show that a change keeps
every byte the lab writes.

    python3 tools/digests.py            # run, compare with DIGESTS.json
    python3 tools/digests.py --write    # run, (re)write DIGESTS.json

The command set is the commands of each workload in ``bench/run.py``'s
``WORKLOADS``, on its ``bench/configs`` file, at seeds 0 and 1, ``probe``
on ``configs/golden.json`` at seed 0 with every probe but ``depth_sweep``,
and ``gradcheck``.  Each command runs in this
process through ``reslab.cli.main``, imported from this checkout's
``src/``, with one BLAS thread, into a fresh directory per run.  Every file
a run writes gets one SHA-256, and so does each command's standard output.
The run's own output path, which configs and ``gen-data`` echo, is replaced
by ``<out>`` first, so the digests do not depend on where the runs were
made.

Digests depend on the numpy and BLAS build, so ``DIGESTS.json`` records
the build it was made on, and a check made on another build refuses to
compare.  Exit status: 0 every digest matches, 1 a file or output differs,
is missing or is new (each is named), 2 the build differs or there is no
``DIGESTS.json`` to compare with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "DIGESTS.json"
SEEDS = (0, 1)
OUT_MARK = b"<out>"


def _import_cli():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    import reslab
    from reslab import cli
    if Path(reslab.__file__).resolve().parent != ROOT / "src" / "reslab":
        sys.exit(f"digests: imported reslab from {reslab.__file__}, not {ROOT / 'src'}")
    return cli


def bench_workloads() -> dict:
    """``bench/run.py``'s ``WORKLOADS``, read from the module without running it."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def command_set(cli) -> list:
    """(run name, [reslab argv without --out, ...]) in the order they run."""
    runs = []
    for workload in sorted(bench_workloads().values(), key=lambda w: w.config):
        rel = f"bench/configs/{workload.config}"
        stem = Path(workload.config).stem
        for seed in SEEDS:
            runs.append((f"{stem}/seed{seed}", [[c, "--config", rel, "--seed", str(seed)]
                                                for c in workload.commands]))
    golden = [p for p in cli.PROBE_NAMES if p != "depth_sweep"]
    runs.append(("golden-probe/seed0", [["probe", "--config", "configs/golden.json",
                                         "--seed", "0", "--probes", ",".join(golden)]]))
    runs.append(("gradcheck/seed0", [["gradcheck", "--seed", "0"]]))
    return runs


def build() -> dict:
    """The numpy and BLAS build the digests depend on."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_config": blas.get("openblas configuration", ""),
            "machine": platform.machine()}


def _sha(data: bytes, out: str) -> str:
    return hashlib.sha256(data.replace(out.encode("utf-8"), OUT_MARK)).hexdigest()


def run_all(cli, runs, work) -> dict:
    digests = {}
    os.chdir(ROOT)  # the config paths are relative to the checkout
    for name, commands in runs:
        out = os.path.join(work, name)
        os.makedirs(out)
        start = time.perf_counter()
        for argv in commands:
            argv = argv + ["--out", out]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = cli.main(argv)
            if rc != 0:
                sys.exit(f"digests: `reslab {' '.join(argv)}` exited {rc}")
            digests[f"{name}/stdout.{argv[0]}"] = _sha(printed.getvalue().encode(), out)
        for path in sorted(Path(out).rglob("*")):
            if path.is_file():
                digests[f"{name}/{path.relative_to(out).as_posix()}"] = _sha(
                    path.read_bytes(), out)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return digests


def compare(saved: dict, current: dict) -> int:
    if saved["build"] != current["build"]:
        print("digests: DIGESTS.json was made on another build; not comparing.\n"
              f"  saved:   {saved['build']}\n  current: {current['build']}")
        return 2
    problems = []
    if saved["commands"] != current["commands"]:
        problems.append("the command set differs")
    old, new = saved["digests"], current["digests"]
    problems += [f"differs: {k}" for k in sorted(old.keys() & new.keys()) if old[k] != new[k]]
    problems += [f"missing: {k}" for k in sorted(old.keys() - new.keys())]
    problems += [f"new: {k}" for k in sorted(new.keys() - old.keys())]
    for line in problems:
        print(f"digests: {line}")
    if problems:
        return 1
    print(f"digests: all {len(new)} digests match DIGESTS.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write DIGESTS.json instead of comparing with it")
    args = parser.parse_args(argv)
    cli = _import_cli()
    runs = command_set(cli)
    saved = None
    if not args.write:
        if not DIGESTS.is_file():
            print(f"digests: no {DIGESTS.name} to compare with; run with --write")
            return 2
        saved = json.loads(DIGESTS.read_text(encoding="utf-8"))
        if saved["build"] != build():
            return compare(saved, {"build": build()})
    work = tempfile.mkdtemp(prefix="reslab-digests-")
    try:
        current = {
            "build": build(),
            "commands": [f"reslab {' '.join(argv)} --out <out>"
                         for _, commands in runs for argv in commands],
            "digests": run_all(cli, runs, work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.write:
        DIGESTS.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
        print(f"digests: wrote {len(current['digests'])} digests to {DIGESTS.name}")
        return 0
    return compare(saved, current)


if __name__ == "__main__":
    sys.exit(main())
