"""Output checks for the benchmark workloads.

Every check reads a workload's artifacts from disk and compares them with a
computation made here in plain numpy (the dataset and checkpoint files are
parsed from their documented byte layout, and the network, loss, gradient
and interlayer operators are evaluated without the lab's code) or with a
property the method must have.  None compares against a stored copy of an
earlier run's output.

Each ``check_*`` function returns a list of ``(name, problem)`` pairs, one
per check it made, with ``problem`` None when the check passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# A reported spectral norm may not exceed the exact (LAPACK) value beyond
# rounding (UP_TOL) and may sit below it by at most a relative tolerance, so
# an exact method passes too.  The last trajectory row's h_k sat at most
# 1.6e-9 below at seeds 0-7 (STEP_TOL).  The activation_norms hnorm rows
# come from power iteration capped at 120 steps; at seeds 0-28 they sat
# 0.2-1.5% below (HNORM_TOL).
UP_TOL = 1e-12
STEP_TOL = 1e-6
HNORM_TOL = 0.1
REL_TOL = 1e-12  # loss against numpy, estimate against the row mean


# ---------------------------------------------------------------------------
# artifact readers (README.md "File formats" of the lab)
# ---------------------------------------------------------------------------

def _header(fh):
    return json.loads(fh.readline().decode("utf-8"))


def read_dataset(path):
    """(xs, ys) from a dataset file: header line, teacher, then records."""
    with open(path, "rb") as fh:
        head = _header(fh)
        d, n, M = head["d"], head["n"], head["M"]
        fh.read(8 * (M * d + M))  # teacher directions and coefficients
        rec = np.dtype([("x", "<f8", (d,)), ("y", "i1")])
        body = np.frombuffer(fh.read(n * rec.itemsize), dtype=rec)
    return body["x"].astype(np.float64), body["y"].astype(np.float64)


def read_checkpoint(path):
    """(weights, header) from a checkpoint file."""
    with open(path, "rb") as fh:
        head = _header(fh)
        dims = [head["d"]] + list(head["widths"])
        weights = []
        for a, b in zip(dims[:-1], dims[1:]):
            buf = fh.read(8 * a * b)
            weights.append(np.frombuffer(buf, dtype="<f8").reshape(a, b).copy())
    return weights, head


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the network in plain numpy
# ---------------------------------------------------------------------------

class Net:
    """x_1 = relu(W_1ᵀx), x_l = x_{l-1} + θ relu(W_lᵀx_{l-1}) (residual,
    l = 2..L), x_{L+1} = relu(W_{L+1}ᵀx_L), f = vᵀx_{L+1}, v = (+1.., -1..)."""

    def __init__(self, weights, theta, arch):
        self.weights = weights
        self.theta = theta
        self.arch = arch
        self.L = len(weights) - 1
        m_last = weights[-1].shape[1]
        self.v = np.concatenate([np.ones(m_last // 2), -np.ones(m_last // 2)])

    def skip(self, l):
        return self.arch == "residual" and 2 <= l <= self.L

    def scale(self, l):
        return self.theta if self.skip(l) else 1.0

    def forward(self, xs):
        acts, masks = [xs], []
        h = xs
        for l, w in enumerate(self.weights, start=1):
            pre = h @ w
            mask = pre > 0.0
            relu = np.where(mask, pre, 0.0)
            h = h + self.theta * relu if self.skip(l) else relu
            acts.append(h)
            masks.append(mask)
        return acts, masks, h @ self.v

    def loss_grads(self, xs, ys):
        """Mean logistic loss and its gradient for every weight matrix."""
        acts, masks, f = self.forward(xs)
        z = ys * f
        loss = float(np.mean(np.logaddexp(0.0, -z)))
        coef = -ys / (1.0 + np.exp(z)) / len(ys)  # dloss/df per sample
        g = np.outer(coef, self.v)               # dloss/dx_{L+1}
        grads = [None] * (self.L + 1)
        for l in range(self.L + 1, 0, -1):
            w = self.weights[l - 1]
            dpre = self.scale(l) * g * masks[l - 1]
            grads[l - 1] = acts[l - 1].T @ dpre
            g = (g if self.skip(l) else 0.0) + dpre @ w.T
        return loss, grads, z

    def interlayer(self, x, l, lp):
        """Dense H_l^{l'} at input x with the patterns x itself induces."""
        _, masks, _ = self.forward(x[None, :])
        dim = self.weights[l - 1].shape[0]
        H = np.eye(dim)
        for r in range(l, lp + 1):
            step = masks[r - 1][0][:, None] * self.weights[r - 1].T
            H = (H + self.theta * step @ H) if self.skip(r) else step @ H
        return H


def _problem(ok, text):
    return None if ok else text


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _below_exact(value, exact, tol):
    """value is a lower estimate of exact: not above it, and within tol."""
    if value > exact * (1.0 + UP_TOL):
        return f"{value!r} above the exact {exact!r}"
    if value < exact * (1.0 - tol):
        return f"{value!r} more than {tol:g} below the exact {exact!r}"
    return None


def _theta(cfg, L):
    return cfg["theta"] if cfg.get("theta") is not None else cfg["theta_per_L"] / L


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_train(out):
    summary = read_json(os.path.join(out, "summary.json"))
    cfg = summary["config"]
    last = read_csv(os.path.join(out, "trajectory.csv"))[-1]
    weights, head = read_checkpoint(os.path.join(out, "checkpoint.bin"))
    xs, ys = read_dataset(os.path.join(out, "dataset.bin"))
    net = Net(weights, head["theta"], head["arch"])
    results = [("stopped_early", _problem(
        summary["stopped_early"] and float(last["surrogate"]) <= cfg["stop_surrogate"]
        and float(last["train_err"]) == 0.0,
        f"stopped_early={summary['stopped_early']}, last surrogate "
        f"{last['surrogate']}, train_err {last['train_err']}"))]

    loss, grads, z = net.loss_grads(xs, ys)
    err = float(np.mean(z <= 0.0))
    results.append(("forward_loss", _problem(
        _rel(float(last["loss"]), loss) <= REL_TOL,
        f"trajectory loss {last['loss']} vs numpy {loss!r}")))
    results.append(("forward_err", _problem(
        float(last["train_err"]) == err,
        f"trajectory train_err {last['train_err']} vs numpy {err!r}")))

    eta = cfg["eta"] if cfg.get("eta") is not None else cfg["eta_scale"] / cfg["m"]
    exact_h = eta * sum(net.scale(l) * np.linalg.norm(g, 2)
                        for l, g in enumerate(grads, start=1))
    results.append(("h_k", _below_exact(float(last["h_k"]), exact_h, STEP_TOL)))
    return results


def check_probe_ball(out, sphere_inputs, init_weights):
    """``sphere_inputs(cfg)`` and ``init_weights(cfg)`` rebuild the inputs the
    probe command drew from its seed; the checked quantities are computed here."""
    index = read_json(os.path.join(out, "index.json"))
    cfg = index["config"]
    results = [("verdicts", _problem(
        set(index["verdicts"].values()) == {"hold"}, f"verdicts {index['verdicts']}"))]
    semi = read_json(os.path.join(out, "semismoothness.report.json"))
    results.append(("control_residual", _problem(
        semi["measured"]["control_residual"] == 0.0,
        f"control_residual {semi['measured']['control_residual']!r}")))

    net = Net(init_weights(cfg), _theta(cfg, cfg["L"]), cfg["arch"])
    xs = sphere_inputs(cfg)
    rows = [r for r in read_csv(os.path.join(out, "activation_norms.details.csv"))
            if r["kind"] == "hnorm"]
    pairs = list(dict.fromkeys((int(r["l"]), int(r["lp"])) for r in rows))
    bad = []
    for k, row in enumerate(rows):
        l, lp = int(row["l"]), int(row["lp"])
        exact = float(np.linalg.svd(net.interlayer(xs[k // len(pairs)], l, lp),
                                    compute_uv=False)[0])
        for col in ("value_min", "value_max"):
            problem = _below_exact(float(row[col]), exact, HNORM_TOL)
            if problem:
                bad.append(f"row {k} H_{l}^{lp}: {problem}")
    results.append(("hnorm_svd", _problem(rows and not bad,
                                          "; ".join(bad) or "no hnorm rows")))
    return results


def check_sweep(out, cfg):
    rows = read_csv(os.path.join(out, "sweep.csv"))
    cells = len(cfg["sweep_arch"]) * len(cfg["sweep_L"])
    results = [("rows", _problem(len(rows) == cells,
                                 f"{len(rows)} rows, expected {cells}"))]
    missed = [f"{r['arch']} L={r['L']}" for r in rows
              if int(r["steps_to_threshold"]) < 0
              or float(r["final_surrogate"]) > cfg["surrogate_target"]]
    results.append(("reached_target", _problem(
        rows and not missed, f"cells short of the target: {missed}")))
    residual = [r for r in rows if r["arch"] == "residual"]
    limit = math.exp(3.0 * cfg["theta_per_L"])
    over = [f"L={r['L']} {col}={r[col]}" for r in residual
            for col in ("h2l_init", "h2l_final") if not float(r[col]) <= limit]
    results.append(("h2l_bound", _problem(
        residual and not over, f"above e^(3θL) = {limit!r}: {over}")))
    return results


def check_rademacher(out):
    rep = read_json(os.path.join(out, "rademacher.report.json"))
    rows = read_csv(os.path.join(out, "rademacher.details.csv"))
    values = [float(r["ascent_value"]) for r in rows]
    results = [("dropped", _problem(
        rep["measured"]["dropped"] == 0 and len(values) == rep["config"]["xi_draws"],
        f"dropped {rep['measured']['dropped']}, {len(values)} rows"))]
    results.append(("ascent_nonnegative", _problem(
        values and min(values) >= 0.0, f"ascent values {values}")))
    mean = math.fsum(values) / len(values) if values else math.nan
    estimate = rep["measured"]["estimate"]
    results.append(("estimate_is_mean", _problem(
        _rel(estimate, mean) <= REL_TOL, f"estimate {estimate!r} vs mean {mean!r}")))
    return results
