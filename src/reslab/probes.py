"""Empirical probes: one measured quantity per provable bound.

Each probe evaluates the bounded quantity over seeded trials, one details
row each, against the bound's right-hand side.  Where no external constant
exists, ``_fit`` fits one from the rows the probe writes, the max of
measured/basis, so more trials can only grow it; its stability across
widths and depths, which the acceptance suite tracks, is the output.  A
verdict checks an external limit in ``activation_norms``, ``separability``,
``surrogate_markov`` and ``depth_sweep``; only a side condition in
``semismoothness`` (its control residual is 0), ``gradient_bounds`` (its
lower constant is positive, its upper one finite) and ``rademacher`` (no
ascent diverged); and holds by construction, the bound being fitted over
the same rows, in ``weight_lipschitz_flips``, ``threshold_indices`` and
``sparse_output`` (through ``_fit``), ``input_lipschitz`` and
``loss_at_init``.

Every point a probe puts in a tau-ball, a draw, a targeted pair or an
ascent iterate, is placed there by one projection,
``PerturbationBall._place``, so each layer lies within tau of the center
as ``numkit.frobenius_norm`` measures it.  ``PerturbationBall.layers``
makes a draw one layer at a time, in ``draw``'s order.  The
weight-Lipschitz pairs' second draw and semismoothness's random draws come
from it: each layer serves its terms and its forward step
(``model._forward_step``) and is dropped before the next is made.  A probe
whose backward pass reads a draw's layers in reverse (``sparse_output``,
the semismoothness control) holds one whole draw.  A trace holds no
weight, so a pair's first draw is let go layer by layer while its trace is
read.  Each draw or pair, and its traces, are dropped before the next is
made.  Probes that read only outputs, or one layer at a time, take them
from ``model.forward_outputs`` or the forward stream and hold no trace.  The
Rademacher ascent steps and places each layer as it leaves ``lossgrad``'s
gradient stream, writing into the iterate's own buffers from its second
step on.  It holds one trace at a time: the center's is formed for a
draw's first step and again for its linearization gap, which forms each
layer's step as the center's backward rows reach it.

Reports serialize to ``<name>.report.json`` plus ``<name>.details.csv``.
A report's fit, bound, verdict and measured values are recomputable from
its details rows and the configs, but for three measured values:
semismoothness's ``control_residual``, ``gradient_bounds``'
``column_sets``, read from the trained network, and
``input_lipschitz``'s ``pairs_used``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import lossgrad, numkit, trainer
from .data import MarginDataset, Teacher, make_dataset, write_csv, write_json
from .model import (ConfigError, NetworkParams, _forward_layers, _forward_step,
                    forward_batch, forward_outputs, init_gaussian, interlayer_norms)
from .numkit import RngState

VERDICT_HOLD = "hold"
VERDICT_VIOLATED = "violated"


@dataclass
class ProbeReport:
    """One probe's measured quantities, bound value, fit, and verdict."""

    name: str
    measured: dict
    bound_expr: float
    constant_fit: float
    trials: int
    verdict: str
    config: dict = field(default_factory=dict)
    detail_columns: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def write(self, out_dir) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, f"{self.name}.report.json")
        details_path = os.path.join(out_dir, f"{self.name}.details.csv")
        payload = {
            "name": self.name,
            "measured": self.measured,
            "bound_expr": self.bound_expr,
            "constant_fit": self.constant_fit,
            "trials": self.trials,
            "verdict": self.verdict,
            "config": self.config,
            "details_file": os.path.basename(details_path),
        }
        write_json(report_path, payload)
        write_csv(details_path, self.detail_columns, self.details)
        return {"report": report_path, "details": details_path}


def _verdict(ok: bool) -> str:
    return VERDICT_HOLD if ok else VERDICT_VIOLATED


FIT_SLACK = 1e-9  # rounding a fitted constant's within-check forgives


def _fit(rows, value, basis, empty=0.0) -> tuple:
    """c, the max of row[value] / row[basis] over the rows with a positive
    basis (``empty`` if none), and whether every row has row[value] <=
    c * row[basis] + ``FIT_SLACK`` or a zero basis."""
    c = max((r[value] / r[basis] for r in rows if r[basis] > 0), default=empty)
    return c, all(r[value] <= c * r[basis] + FIT_SLACK or r[basis] == 0 for r in rows)


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs over the points with
    ys > 0; NaN when fewer than two remain."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys)
    keep = ys > 0
    if np.count_nonzero(keep) < 2:
        return float("nan")
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


BOUNDARY_FRACTION = 0.8  # fraction of ball draws placed on the boundary
# Largest relative shrink _place applies.  A stored difference still outside
# tau after it is quantized to the weights' ulps, not just noisy.
_MAX_SHRINK = 1e-3


@dataclass(frozen=True)
class PerturbationBall:
    """Sampler of weight collections within Frobenius distance tau per layer.

    Draws are boundary-biased: most samples sit at radius exactly tau, which
    stresses sup-over-ball bounds harder than uniform sampling would.
    """

    center: NetworkParams
    tau: float
    rng: RngState

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"radius must be nonnegative, got {self.tau}")
        if not math.isfinite(self.tau * self.tau):  # its norms would overflow
            raise ConfigError(f"radius {self.tau!r} squared overflows")

    def layers(self):
        """The layer stream of one draw: yields (l, W_l) for l = 1..L+1,
        each layer drawn and placed in the ball as it is asked for, in the
        order ``draw`` takes them.  The stream keeps no layer it has handed
        out, so a caller that drops each one holds a single layer."""
        for l, w in enumerate(self.center.weights, 1):
            if self.tau == 0.0:
                yield l, w
                continue
            direction = self.rng.standard_normal(w.shape)
            norm = numkit.frobenius_norm(direction)
            radius = self.tau
            if self.rng.uniform() >= BOUNDARY_FRACTION:
                radius = self.tau * (1.0 - float(self.rng.uniform()))  # in (0, tau]
            direction *= radius / norm
            yield l, self._place(w, direction)
            del direction  # the placed layer, now held by the caller alone

    def draw(self) -> NetworkParams:
        """One whole draw: every layer of the layer stream, kept."""
        return self.center.with_weights([w for _, w in self.layers()])

    def _place(self, w, delta):
        """The one projection onto the ball: ``w + delta``, written into
        ``delta``, its stored difference shrunk radially until within tau.
        The first shrink, tau / norm less a 1e-12 margin, projects; later
        ones grow from the excess they measure, as the rounding noise grows
        relative to tau.  A difference of non-finite norm comes back NaN."""
        placed = np.add(w, delta, out=delta)
        margin = 1e-12
        for k in range(8):
            stored = placed - w
            dn = numkit.frobenius_norm(stored)
            if dn <= self.tau:
                return placed
            if not math.isfinite(dn):
                placed.fill(np.nan)
                return placed
            if k > 0:
                margin = min(_MAX_SHRINK, 2.0 * (margin + (dn - self.tau) / self.tau))
            np.add(w, stored * (self.tau / dn) * (1.0 - margin), out=placed)
        dn = numkit.frobenius_norm(placed - w)
        if dn <= self.tau:
            return placed
        raise RuntimeError(
            f"PerturbationBall: stored difference {dn!r} exceeds tau "
            f"{self.tau!r} after 8 shrinks")


# ---------------------------------------------------------------------------
# activation / interlayer norms at initialization
# ---------------------------------------------------------------------------

def _default_layer_pairs(L: int) -> list:
    mid = (2 + L) // 2
    pairs = [(2, L), (2, mid), (mid, L), (1, L), (2, L + 1), (L, L)]
    return sorted({(l, lp) for l, lp in pairs if 1 <= l <= lp <= L + 1})


NORM_WINDOW = (0.5, 1.5)  # the [low, high] range every ||x_l|| must stay in


def probe_activation_norms(params: NetworkParams, inputs, h_inputs=5) -> ProbeReport:
    """Hidden-layer norm window and interlayer operator norms.

    Measures ||x_l|| for every layer over all inputs, and the spectral norm
    of H_l^{l'} over a fixed set of (l, l') pairs on the first ``h_inputs``
    inputs, one ``interlayer_norms`` chain per start layer and input, on the
    rows of the one forward pass over all inputs.  Verdict holds iff every
    activation norm lies in ``NORM_WINDOW`` and every middle-range operator
    (2 <= l <= l' <= L) stays below h_limit = exp(3*theta*L) (no limit for
    the plain net); operators crossing the first or last layer carry a
    spectral factor of that weight matrix, so they are reported with a
    fitted constant rather than checked against the same limit.
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    bt = forward_batch(params, xs)
    L = params.depth
    norm_low, norm_high = NORM_WINDOW
    h_limit = math.exp(3.0 * params.theta * L) if params.arch == "residual" else float("inf")

    rows = []
    for l in range(1, L + 2):
        norms = np.linalg.norm(bt.activations[l], axis=1)
        rows.append(["xnorm", l, 0, float(np.min(norms)), float(np.max(norms))])
    pairs = _default_layer_pairs(L)
    for i in range(min(h_inputs, xs.shape[0])):
        for (l, lp), hn in zip(pairs, interlayer_norms(params, bt, i, pairs)):
            rows.append(["hnorm", l, lp, hn, hn])

    xnorm_min = min(r[3] for r in rows if r[0] == "xnorm")
    xnorm_max = max(r[4] for r in rows if r[0] == "xnorm")
    h_all_max = max((r[3] for r in rows if r[0] == "hnorm"), default=0.0)
    h_mid_max = max((r[3] for r in rows if r[0] == "hnorm" and 2 <= r[1] and r[2] <= L),
                    default=0.0)
    ok = norm_low <= xnorm_min and xnorm_max <= norm_high and h_mid_max <= h_limit
    return ProbeReport(
        name="activation_norms",
        measured={"xnorm_min": xnorm_min, "xnorm_max": xnorm_max,
                  "h_mid_max": h_mid_max, "h_all_max": h_all_max},
        bound_expr=h_limit,
        constant_fit=h_all_max,
        trials=int(xs.shape[0]),
        verdict=_verdict(ok),
        config={"norm_low": norm_low, "norm_high": norm_high, "h_limit": h_limit,
                "L": L, "m": params.m, "theta": params.theta, "arch": params.arch},
        detail_columns=["kind", "l", "lp", "value_min", "value_max"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# Lipschitz continuity in the input
# ---------------------------------------------------------------------------

MIN_PAIR_DIST = 1e-6  # input pairs closer than this are left out of the fit


def probe_input_lipschitz(params: NetworkParams, pairs) -> ProbeReport:
    """Fitted constant for ||x_l - x_l'|| <= C ||x - x'|| over input pairs,
    which is also the bound."""
    xs_a, xs_b = (np.atleast_2d(np.asarray(p, dtype=np.float64)) for p in pairs)
    bt_a = forward_batch(params, xs_a)
    bt_b = forward_batch(params, xs_b)
    base = np.linalg.norm(xs_a - xs_b, axis=1)
    keep = base >= MIN_PAIR_DIST
    rows = []
    for l in range(1, params.depth + 2):
        diff = np.linalg.norm(bt_a.activations[l] - bt_b.activations[l], axis=1)
        ratios = diff[keep] / base[keep]
        if ratios.size:
            rows.append([l, float(np.max(ratios)), float(np.mean(ratios))])
    fitted = max((r[1] for r in rows), default=0.0)
    return ProbeReport(
        name="input_lipschitz",
        measured={"fitted_constant": fitted, "pairs_used": int(np.count_nonzero(keep))},
        bound_expr=fitted,
        constant_fit=fitted,
        trials=int(np.count_nonzero(keep)),
        verdict=VERDICT_HOLD,
        config={"min_dist": MIN_PAIR_DIST, "L": params.depth, "m": params.m,
                "theta": params.theta, "arch": params.arch},
        detail_columns=["layer", "ratio_max", "ratio_mean"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# weight-Lipschitz + activation-flip sparsity over a radius grid
# ---------------------------------------------------------------------------

def _layered_weight_basis(params, d_spec):
    """Per-layer accumulations of the spectral norms ``d_spec`` of a pair's
    weight differences, d_spec[l-1] = ||d_l||.

    basis[l] corresponds to the bound for ||x^a_l - x^b_l||: layer 1 uses
    ||d_1||, layers 2..L add s * sum_{r=2..l} ||d_r|| with s their common
    layer scale (theta on a residual net, 1 on the plain baseline), and the
    output layer adds ||d_{L+1}||, so basis[L+1] is the step distance.
    """
    L = params.depth
    basis = [0.0] * (L + 2)
    basis[1] = d_spec[0]
    run = 0.0
    for l in range(2, L + 1):
        run += d_spec[l - 1]
        basis[l] = d_spec[0] + params.layer_scale(l) * run
    basis[L + 1] = basis[L] + d_spec[L]
    return basis


def probe_weight_lipschitz_and_flips(params: NetworkParams, rng: RngState,
                                     inputs, tau_grid, draws) -> ProbeReport:
    """Weight-space Lipschitz constant and flip-count scaling over tau.

    For pairs drawn in each tau-ball: (a) fits C2 in the layered bound
    ||x^a_l - x^b_l|| <= C2 * (||d_1|| + s * sum ||d_r|| [+ ||d_{L+1}||]),
    s the middle layers' scale (``_layered_weight_basis``),
    and (b) fits C3 in  flips_l <= C3 * m_l * tau^(2/3), plus the log-log
    slope of mean flips against tau (theory predicts exponent 2/3).

    A pair's Wa is drawn whole and its forward trace formed, which holds
    none of Wa's weights; Wb comes from the ball's layer stream, and each
    of its layers serves the spectral norm of Wa_l - Wb_l, its forward step
    and that layer's row before it and Wa_l are dropped.  The rows' basis
    is filled in once the pair's norms are all taken.
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    L = params.depth
    rows = []
    for tau in tau_grid:
        ball = PerturbationBall(params, tau, rng.substream(f"ball/{tau}"))
        for t in range(draws):
            wa = ball.draw()
            trace_a = forward_batch(wa, xs)
            wa = list(wa.weights)  # each layer let go once its row is written
            h, norms, measured = trace_a.activations[0], [], []
            for l, wb in ball.layers():
                wa_l, wa[l - 1] = wa[l - 1], None
                norms.append(numkit.spectral_norm(wa_l - wb))
                h, pattern = _forward_step(params, l, h, wb)
                xa, pa = trace_a.activations[l], trace_a.pattern(l)
                measured.append((float(np.max(np.linalg.norm(xa - h, axis=1))),
                                 int(np.max(np.count_nonzero(pa != pattern, axis=1)))))
                del wa_l, wb  # the next layer is drawn with this one gone
            basis = _layered_weight_basis(params, norms)
            rows += [[tau, t, l, dist, basis[l], flips,
                      params.widths[l - 1] * tau ** (2.0 / 3.0)]
                     for l, (dist, flips) in enumerate(measured, 1)]

    mean_flips = [float(np.mean([r[5] for r in rows if r[0] == tau])) for tau in tau_grid]
    slope = _loglog_slope(tau_grid, mean_flips)  # over grid cells with any flips
    fitted_c2, ok = _fit(rows, 3, 4)
    fitted_c3, _ = _fit(rows, 5, 6)
    return ProbeReport(
        name="weight_lipschitz_flips",
        measured={"fitted_c2": fitted_c2, "fitted_c3": fitted_c3,
                  "flip_slope": slope,
                  "mean_flips_per_tau": {repr(t): f for t, f in zip(tau_grid, mean_flips)}},
        bound_expr=fitted_c3,
        constant_fit=fitted_c2,
        trials=len(tau_grid) * draws,
        verdict=_verdict(ok),
        config={"tau_grid": list(tau_grid), "draws": draws, "m": params.m,
                "L": L, "theta": params.theta},
        detail_columns=["tau", "trial", "layer", "activation_dist",
                        "weight_basis", "flips", "flip_basis"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# semismoothness of the output and the empirical loss
# ---------------------------------------------------------------------------

def _linear_term(ref: NetworkParams, bt, l: int, masked, delta) -> np.ndarray:
    """Layer l's per-sample term tr[delta_lᵀ grad_{W_l} f_ref(x_i)] of the
    linearization, with ``masked`` the block g_l ⊙ sigma_l that
    ``lossgrad._backward_rows(ref, bt)`` hands out for layer l."""
    return ref.layer_scale(l) * np.sum((bt.activations[l - 1] @ delta) * masked, axis=1)


def _linearization_terms(ref: NetworkParams, bt, rows, point: NetworkParams) -> np.ndarray:
    """Per-sample sum_l tr[delta_lᵀ grad_{W_l} f_ref(x_i)], vectorized, with
    delta_l = point_l - ref_l, from ``rows``, the items of
    ``lossgrad._backward_rows(ref, bt)`` (the stream or a list of it).  Each
    delta_l is formed as its row arrives and dropped after its term, so no
    list of all L+1 steps exists; the terms are added for l = 1..L+1."""
    terms = [None] * (ref.depth + 1)
    for l, _, masked in rows:
        delta = point.weights[l - 1] - ref.weights[l - 1]
        terms[l - 1] = _linear_term(ref, bt, l, masked, delta)
        del delta
    return sum(terms, np.zeros(bt.n))


def flip_targeted_draw(ball: PerturbationBall, x, g) -> NetworkParams:
    """The ball's center moved by a layer-1 step aimed at ReLU kinks at ``x``.

    The step is rank one, d_1 = x uᵀ with ||u|| = tau, so it sits on the
    ball's boundary.  With a = W_1ᵀx the layer-1 pre-activations and ``g``
    the output sensitivity vᵀ H_2^{L+1} at the center and ``x`` (the
    unmasked g_1 of ``lossgrad._backward_rows``), u is water-filled against
    g: |u_j| = c g_j on units with g_j > 0 and c g_j > |a_j|, zero
    elsewhere, with sign -sign(a_j) so that every chosen unit crosses its
    kink (ties at a_j = 0 count as inactive and are pushed up).  Units are
    admitted in order of their kink threshold |a_j| / g_j while the common
    scale c = tau / ||g_S|| still carries every admitted unit across.  Each
    such flip adds g_j (c g_j - |a_j|) > 0 to the Taylor residual, the
    worst case random directions almost never reach.  When no unit with
    g_j > 0 can be flipped within tau, the whole budget goes to the unit
    nearest its kink.
    """
    center = ball.center
    x = np.asarray(x, dtype=np.float64)
    a = x @ center.weights[0]
    push = np.where(a > 0.0, -1.0, 1.0)
    up = np.flatnonzero(g > 0.0)
    threshold = np.abs(a[up]) / g[up]
    order = np.argsort(threshold, kind="stable")
    up, threshold = up[order], threshold[order]
    scale = ball.tau / np.sqrt(np.cumsum(g[up] ** 2))
    admitted = np.count_nonzero(scale > threshold)  # a prefix: scale falls, threshold rises
    u = np.zeros_like(a)
    if admitted:
        chosen = up[:admitted]
        u[chosen] = scale[admitted - 1] * g[chosen] * push[chosen]
    else:
        j = int(np.argmin(np.abs(a)))
        u[j] = ball.tau * push[j]
    return center.with_weights([ball._place(center.weights[0], np.outer(x, u)),
                                *center.weights[1:]])


def probe_semismoothness(params: NetworkParams, rng: RngState, inputs,
                         tau, draws, dataset=None) -> ProbeReport:
    """Taylor residual of the output against the semismoothness basis.

    Each trial evaluates R = f_a(x) - f_b(x) - sum_l tr[(Wa_l - Wb_l)ᵀ
    grad f_b(x)] at one input, expanding around the initialization (Wb =
    ``params``, the configuration the complexity argument instantiates),
    and fits R against  tau^(1/3) sqrt(m log m) h + sqrt(m) h²  with h the
    spectral step distance; the fitted constant is the signed max of
    R / basis over every trial.  Two kinds of pair enter the fit:

    * ``random``: ``draws`` boundary-biased ball draws Wa, cycling through
      ``inputs``.
    * ``targeted``: one pair per input the random trials visit, Wa =
      ``flip_targeted_draw`` at that input, which pushes layer-1 units
      across their kinks where the output is most sensitive.  A random
      Frobenius direction spreads its budget over every entry and rarely
      flips a unit, so random draws alone sit far below the sup over the
      ball that the bound covers.

    The center's one-row forward trace and backward rows are formed once
    per input and serve both kinds of trial.  With a dataset, the
    loss-level residual is additionally fitted against the
    surrogate-weighted variant with an m h² second term.  That needs the
    loss gradient only at the center, one ``lossgrad.loss_grad``, whose
    trace only the gradient stream holds; each Wa costs only its forward
    steps and ``lossgrad.empirical_loss``.  A trial takes Wa one layer at a
    time, from the ball's layer stream for a random pair, and forms each
    difference Wa_l - Wb_l once, in layer order: its share of h, of the
    linear term and of the loss term, then the layer's forward step at the
    input and over the dataset, and the layer is dropped before the next is
    made.  Each details row records the pair kind and the layer-1 units
    flipped at its input.  A coincident-pair control, drawn whole once the
    center's loss gradient is released, asserts R == 0 exactly.
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    m = params.m
    ball = PerturbationBall(params, tau, rng.substream("ball"))
    coef_h = tau ** (1.0 / 3.0) * math.sqrt(m * math.log(m))
    gb = None
    if dataset is not None:
        ys = dataset.ys
        lb, sb, gb = lossgrad.loss_grad(params, dataset.xs, ys)
    # one-row passes, not one batched pass: a gemm may round unlike a gemv
    centers = []
    for x in xs[:draws]:
        bt = forward_batch(params, x[None, :])
        centers.append((bt, list(lossgrad._backward_rows(params, bt))[::-1]))
    rows = []

    def trial(kind, layers, i):
        btb, center_rows = centers[i]  # center_rows[l - 1]: layer l's row
        lin, lin_loss, norms = np.zeros(btb.n), 0, []
        x, xd = btb.activations[0], None if dataset is None else dataset.xs
        for l, w in layers:
            d = w - params.weights[l - 1]  # serves h, lin and lin_loss, then goes
            norms.append(numkit.spectral_norm(d))
            lin = lin + _linear_term(params, btb, l, center_rows[l - 1][2], d)
            if gb is not None:
                lin_loss += float(np.sum(d * gb.layers[l - 1]))
            del d
            x, pattern = _forward_step(params, l, x, w)
            if l == 1:
                flips = int(np.count_nonzero(pattern != btb.pattern(1)))
            if xd is not None:  # the dataset's rows, checked by loss_grad
                xd, _ = _forward_step(params, l, xd, w)
            del w, pattern  # the next layer is made with this one gone
        h = trainer.step_distance(params, norms)
        resid = float((x @ params.v)[0] - btb.outputs[0] - lin[0])
        basis_f = coef_h * h + math.sqrt(m) * h * h
        loss_ratio = float("nan")
        if dataset is not None:
            la = lossgrad.empirical_loss(xd @ params.v, ys)
            r_loss = la - lb - lin_loss
            basis_loss = coef_h * h * sb + m * h * h
            if basis_loss > 0:
                loss_ratio = r_loss / basis_loss
        rows.append([len(rows), kind, flips, h, resid, basis_f, loss_ratio])

    for t in range(draws):
        trial("random", ball.layers(), t % xs.shape[0])
    for i, (_, center_rows) in enumerate(centers):  # first row: unmasked g_1
        trial("targeted", enumerate(flip_targeted_draw(
            ball, xs[i], center_rows[0][1][0]).weights, 1), i)

    fit_f, _ = _fit(rows, 4, 5, empty=-np.inf)
    ratios_loss = [r[6] for r in rows if not math.isnan(r[6])]
    fit_loss = max(ratios_loss, default=-np.inf) if dataset is not None else float("nan")

    # coincident-pair control: residual must vanish identically
    gb = None
    wc = ball.draw()
    btc = forward_batch(wc, xs)
    control = btc.outputs - btc.outputs - _linearization_terms(
        wc, btc, lossgrad._backward_rows(wc, btc), wc)
    control_residual = float(np.max(np.abs(control)))

    ok = control_residual <= 1e-12
    return ProbeReport(
        name="semismoothness",
        measured={"fitted_cbar_f": fit_f,
                  "fitted_cbar_loss": fit_loss,
                  "control_residual": control_residual},
        bound_expr=max(fit_f, 0.0),
        constant_fit=fit_f,
        trials=len(rows),
        verdict=_verdict(ok),
        config={"tau": tau, "draws": draws, "m": m, "L": params.depth,
                "with_loss": dataset is not None, "pairs": "center"},
        detail_columns=["trial", "pair", "flips_l1", "h", "residual", "basis_f",
                        "loss_ratio"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# gradient upper / lower bound ratios along a trajectory
# ---------------------------------------------------------------------------

def probe_gradient_bounds(params: NetworkParams, dataset: MarginDataset,
                          result: trainer.TrainResult) -> ProbeReport:
    """Normalized gradient ratios along ``result``'s recorded trajectory,
    the training of ``params`` on ``dataset``.

    Upper:  ||grad_l||_F / (scale_l * sqrt(m) * E_S); the max is the fitted C.
    Lower:  ||grad_{L+1}||_F² / (m_{L+1} * gamma⁴ * E_S²), gamma the
    dataset teacher's margin; the min is the fitted lower constant;
    positivity is the point.  ``column_sets`` is the
    ``last_layer_column_sets`` of ``params`` and ``result.params``.
    """
    if not result.records:
        raise ValueError("need a nonempty trajectory")
    if not isinstance(dataset, MarginDataset):
        raise ValueError("no margin available: need a dataset with a teacher")
    gamma = dataset.teacher.gamma
    m = params.m
    L = params.depth
    sqrt_m = math.sqrt(m)
    rows = []
    for rec in result.records:
        es = rec.surrogate
        if es <= 0:
            continue  # saturated surrogate: ratios undefined
        worst_up = max(rec.grad_frob[l - 1] / (params.layer_scale(l) * sqrt_m * es)
                       for l in range(1, L + 2))
        ratio_low = rec.grad_frob[L] ** 2 / (params.m_last * gamma ** 4 * es ** 2)
        rows.append([rec.step, es, worst_up, ratio_low])
    up = max((r[2] for r in rows), default=-np.inf)
    low = min((r[3] for r in rows), default=np.inf)
    return ProbeReport(
        name="gradient_bounds",
        measured={"fitted_upper": up, "fitted_lower": low, "column_sets":
                  last_layer_column_sets(params, result.params, dataset)},
        bound_expr=up,
        constant_fit=up,
        trials=len(rows),
        verdict=_verdict(low > 0 and np.isfinite(up)),
        config={"gamma": gamma, "m": m, "m_last": params.m_last,
                "theta": params.theta, "L": L},
        detail_columns=["step", "surrogate", "ratio_up_max", "ratio_low"],
        details=rows,
    )


def last_layer_column_sets(params_init: NetworkParams, params_cur: NetworkParams,
                           dataset) -> dict:
    """Diagnostic sizes of the strong-column set A and flip set A'.

    A collects output-layer columns whose aggregate per-column gradient
    (with initialization patterns) is large relative to gamma * E_S; A' are
    columns whose activation pattern flipped between the two weight settings.
    Emitted as diagnostics only; their thresholds are proof artifacts.
    """
    xs, ys = dataset.xs, dataset.ys
    # from each forward stream only the last layers, x_L and x_{L+1}
    (_, x_cur, pat_cur), = itertools.islice(
        _forward_layers(params_cur, xs), params_cur.depth + 1, None)
    outputs = x_cur @ params_cur.v
    del x_cur
    (_, x_l, _), (_, _, pat0) = itertools.islice(  # init activations, patterns
        _forward_layers(params_init, xs), params_init.depth, None)
    gamma = dataset.teacher.gamma
    es, a_weights = lossgrad.surrogate(outputs, ys)  # a(x, y) in [0, 1]
    n = xs.shape[0]
    coef = (a_weights * ys)[:, None] * pat0        # (n, m_last)
    g_cols = x_l.T @ coef / n                      # (m_L, m_last): g_j columns
    col_sq = np.sum(g_cols * g_cols, axis=0)
    threshold = gamma ** 2 * es ** 2 / (2 * 67)
    set_a = col_sq >= threshold
    flipped = np.any(pat0 != pat_cur, axis=0)
    return {
        "A": int(np.count_nonzero(set_a)),
        "A_prime": int(np.count_nonzero(flipped)),
        "A_minus_A_prime": int(np.count_nonzero(set_a & ~flipped)),
        "m_last": params_init.m_last,
        "surrogate": es,
    }


# ---------------------------------------------------------------------------
# layerwise linear separability direction
# ---------------------------------------------------------------------------

SEPARABILITY_POWER = 3.0  # exponent of the feature-similarity vote


def separability_direction(teacher: Teacher, params: NetworkParams) -> np.ndarray:
    """Unit direction built from teacher coefficients at scaled first-layer rows.

    Each first-layer column w_{1,j}, rescaled by sqrt(m_1/2) to unit-Gaussian
    calibration, gets the coefficient c(u) = clip(sum_k c_k cos_+(u, u_k)^p,
    ±1) with p = ``SEPARABILITY_POWER``, a measurable |c| <= 1 extension of
    the teacher's discrete ±1 coefficients by a smooth feature-similarity
    vote (empirically it preserves the teacher's margin structure far better
    than a hard nearest-feature assignment).  The resulting vector is normalized to the
    unit sphere.
    """
    m1 = params.widths[0]
    u = math.sqrt(m1 / 2.0) * params.weights[0].T      # (m_1, d) calibrated rows
    u_norm = u / np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    t_norm = teacher.directions / np.maximum(
        np.linalg.norm(teacher.directions, axis=1, keepdims=True), 1e-300)
    cos = u_norm @ t_norm.T
    alpha = np.clip(np.maximum(cos, 0.0) ** SEPARABILITY_POWER @ teacher.coeffs,
                    -1.0, 1.0)
    return alpha / np.linalg.norm(alpha)


def probe_separability(teacher: Teacher, params: NetworkParams,
                       dataset, rng: RngState) -> ProbeReport:
    """Layerwise margins of the constructed direction versus a random control.

    Requires freshly initialized params (the construction reads W_1 at
    initialization).  Reports min_i y_i <alpha, x_{l,i}> per hidden layer;
    verdict holds iff the layer-L margin clears the floor gamma / 4 while
    the random-alpha control does not.
    """
    gamma = teacher.gamma
    margin_floor = gamma / 4.0
    alpha = separability_direction(teacher, params)
    control = rng.standard_normal(alpha.shape[0])
    control /= np.linalg.norm(control)
    ys = dataset.ys
    rows = []
    margins = []
    margins_ctl = []
    # the hidden layers 1..L of the forward stream, one at a time
    for l, acts, _ in itertools.islice(_forward_layers(params, dataset.xs),
                                       1, params.depth + 1):
        margin = float(np.min(ys * (acts @ alpha)))
        margin_ctl = float(np.min(ys * (acts @ control)))
        margins.append(margin)
        margins_ctl.append(margin_ctl)
        rows.append([l, margin, margin_ctl])
    final_margin = margins[-1]
    ok = final_margin >= margin_floor and margins_ctl[-1] < margin_floor
    return ProbeReport(
        name="separability",
        measured={"margin_layer1": margins[0], "margin_layerL": final_margin,
                  "margin_min": min(margins), "control_margin_layerL": margins_ctl[-1]},
        bound_expr=margin_floor,
        constant_fit=final_margin / gamma,
        trials=params.depth,
        verdict=_verdict(ok),
        config={"gamma": gamma, "margin_floor": margin_floor, "m": params.m,
                "L": params.depth, "theta": params.theta, "method": "kernel",
                "power": SEPARABILITY_POWER},
        detail_columns=["layer", "margin", "control_margin"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# near-threshold pre-activation index sets
# ---------------------------------------------------------------------------

def probe_threshold_indices(params: NetworkParams, inputs, beta_grid) -> ProbeReport:
    """Counts of units with |w_{l,j}ᵀ x_{l-1}| <= beta, against m^(3/2) beta.

    Fits the smallest C' with count <= C' * m_l^(3/2) * beta over all
    layers, inputs, and betas, plus the log-log slope of the mean count in
    beta (theory: linear, slope 1).
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    bt = forward_batch(params, xs)
    L = params.depth
    counts = [[] for _ in beta_grid]  # counts[b][l - 1]: per input, at layer l
    for l in range(1, L + 2):
        pre = np.abs(bt.activations[l - 1] @ params.weights[l - 1])
        for per_layer, beta in zip(counts, beta_grid):
            per_layer.append(np.count_nonzero(pre <= beta, axis=1))
    rows = [[beta, l, int(np.max(c)), float(np.mean(c)),
             params.widths[l - 1] ** 1.5 * beta]
            for beta, per_layer in zip(beta_grid, counts)
            for l, c in enumerate(per_layer, 1)]
    mean_counts = [float(np.mean(np.concatenate(per_layer))) for per_layer in counts]

    slope = _loglog_slope(beta_grid, mean_counts)
    fitted, ok = _fit(rows, 2, 4)
    return ProbeReport(
        name="threshold_indices",
        measured={"fitted_cprime": fitted, "beta_slope": slope},
        bound_expr=fitted,
        constant_fit=fitted,
        trials=len(beta_grid) * xs.shape[0],
        verdict=_verdict(ok),
        config={"beta_grid": list(beta_grid), "m": params.m, "L": L},
        detail_columns=["beta", "layer", "count_max", "count_mean", "basis"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# output magnitude on sparse directions inside the ball
# ---------------------------------------------------------------------------

def _sparse_unit(rng: RngState, dim: int, s: int) -> np.ndarray:
    idx = rng.permutation(dim)[:s]
    vals = rng.standard_normal(s)
    a = np.zeros(dim)
    a[idx] = vals / np.linalg.norm(vals)
    return a


def probe_sparse_output(params: NetworkParams, rng: RngState, tau: float,
                        sparsity: int, trials: int) -> ProbeReport:
    """max_l |vᵀ H_l^{L+1} a| for s-sparse unit a, against tau sqrt(m) + sqrt(s log m).

    The rows vᵀ H_l^{L+1}, l = 2..L+1, are the backward rows g_1..g_L of
    ``lossgrad._backward_rows`` at the perturbed network's own patterns
    at a fresh sphere input per trial, so a is drawn at the hidden width.
    """
    m = params.m
    L = params.depth
    if not 1 <= sparsity <= m:
        raise ConfigError(f"sparsity must be in [1, {m}], got {sparsity}")
    ball = PerturbationBall(params, tau, rng.substream("ball"))
    basis = tau * math.sqrt(m) + math.sqrt(sparsity * math.log(m))
    rows = []
    for t in range(trials):
        x = rng.standard_normal(params.d)
        x /= np.linalg.norm(x)
        wt = ball.draw()
        trace = forward_batch(wt, x[None, :])
        a = _sparse_unit(rng, params.widths[0], sparsity)
        worst = max(abs(float(g[0] @ a))
                    for l, g, _ in lossgrad._backward_rows(wt, trace) if l <= L)
        rows.append([t, worst, basis])
        del wt, trace  # neither is held while the next draw is made
    fitted, ok = _fit(rows, 1, 2)
    return ProbeReport(
        name="sparse_output",
        measured={"fitted_c1": fitted, "basis": basis},
        bound_expr=fitted * basis,
        constant_fit=fitted,
        trials=trials,
        verdict=_verdict(ok),
        config={"tau": tau, "sparsity": sparsity, "m": m, "L": L},
        detail_columns=["trial", "max_output", "basis"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# loss at initialization
# ---------------------------------------------------------------------------

def probe_loss_at_init(params: NetworkParams, dataset) -> ProbeReport:
    """Loss and output magnitude at initialization against sqrt(log n)."""
    outputs = forward_outputs(params, dataset.xs)
    loss = lossgrad.empirical_loss(outputs, dataset.ys)
    n = dataset.n
    surrogate = lossgrad.surrogate(outputs, dataset.ys)[0]
    max_out = float(np.max(np.abs(outputs)))
    basis = math.sqrt(math.log(max(n, 2)))
    fitted = max(loss, max_out) / basis
    return ProbeReport(
        name="loss_at_init",
        measured={"loss": loss, "surrogate": surrogate,
                  "max_abs_output": max_out},
        bound_expr=fitted * basis,
        constant_fit=fitted,
        trials=n,
        verdict=_verdict(loss <= fitted * basis + FIT_SLACK),
        config={"n": n, "m": params.m, "L": params.depth},
        detail_columns=["quantity", "value"],
        details=[["loss", loss], ["surrogate", surrogate],
                 ["max_abs_output", max_out]],
    )


# ---------------------------------------------------------------------------
# empirical Rademacher complexity of the tau-ball (ascent lower estimate)
# ---------------------------------------------------------------------------

def _ascent_step(params: NetworkParams, ball: PerturbationBall, bt,
                 weights, step_size) -> NetworkParams:
    """``params`` moved by ``step_size`` along sum_i weights_i grad f(x_i),
    each layer placed in ``ball`` (``PerturbationBall._place``) as it
    leaves the gradient stream.

    From the center, the step is written into the gradient's own buffers,
    from any other iterate, which such a step made, into its own; ``_place``
    places the layer in that buffer, so the center is never written.
    """
    owned = params is not ball.center
    stepped = list(params.weights)
    for l, g in lossgrad._layer_gradients(params, bt, weights):
        w, w0 = stepped[l - 1], ball.center.weights[l - 1]
        g *= step_size
        d = np.add(w, g, out=w if owned else g)
        del g  # not held while the stream forms the next layer
        stepped[l - 1] = ball._place(w0, np.subtract(d, w0, out=d))
    return params.with_weights(stepped)


def _ascend(ball: PerturbationBall, xs, xi, step_size, steps):
    """One draw of ``rademacher_estimate``: the best centered value of the
    ascent in ``ball`` from its center and the linearization gap at its
    endpoint, or None on divergence.  The ascent holds one trace: the
    center's takes the first step and is formed again for the gap, and
    every other one is of the current iterate and is dropped once its
    gradient is taken.  The gap forms each layer's step as the center's
    rows reach it."""
    params = ball.center
    n = xs.shape[0]
    bt = forward_batch(params, xs)
    center_obj = float(xi @ bt.outputs) / n
    current = params
    best = 0.0  # value of the center itself, post-centering
    for k in range(steps):
        if k:
            bt = forward_batch(current, xs)
        obj = float(xi @ bt.outputs) / n - center_obj
        if not np.isfinite(obj):
            return None
        best = max(best, obj)
        current = _ascent_step(current, ball, bt, xi / n, step_size)
        del bt
    outputs = forward_outputs(current, xs)
    obj_end = float(xi @ outputs) / n - center_obj
    if np.isfinite(obj_end):
        best = max(best, obj_end)
    # first-order linearization gap at the endpoint
    bt = forward_batch(params, xs)
    lin = _linearization_terms(params, bt, lossgrad._backward_rows(params, bt),
                               current)
    return best, float(np.max(np.abs(outputs - (bt.outputs + lin))))


def rademacher_estimate(params: NetworkParams, tau: float, dataset,
                        rng: RngState, xi_draws: int, ascent_steps: int) -> ProbeReport:
    """Lower estimate of the tau-ball's empirical Rademacher complexity.

    For each sign vector xi, projected gradient ascent with step tau / 10
    maximizes (1/n) sum_i xi_i f_W(x_i) over the per-layer Frobenius ball,
    whose ``PerturbationBall._place`` places every iterate; each draw is
    centered by the initial network's own correlation with xi, so the tau = 0
    class yields exactly zero.  The report also carries the largest
    first-order linearization gap at the ascent endpoints, and the fitted
    constant against tau^(4/3) sqrt(m log m) + tau sqrt(m) / sqrt(n).  A
    radius the ball refuses raises before any ascent.
    """
    ball = PerturbationBall(params, tau, rng)
    xs = dataset.xs
    n = xs.shape[0]
    m = params.m
    step_size = tau / 10.0
    rows = []
    for t in range(xi_draws):
        xi = rng.substream(f"xi/{t}").signs(n)
        ascent = _ascend(ball, xs, xi, step_size, ascent_steps)
        if ascent is not None:  # a diverged draw is dropped
            rows.append([t, *ascent])

    dropped = xi_draws - len(rows)
    gap_max = max((r[2] for r in rows), default=0.0)
    estimate = numkit.pairwise_sum([r[1] for r in rows]) / len(rows) if rows else 0.0
    basis = tau ** (4.0 / 3.0) * math.sqrt(m * math.log(m)) + tau * math.sqrt(m / n)
    fitted = estimate / basis if basis > 0 else 0.0
    return ProbeReport(
        name="rademacher",
        measured={"estimate": estimate, "linearization_gap": gap_max,
                  "dropped": dropped, "basis": basis},
        bound_expr=basis * fitted if basis > 0 else 0.0,
        constant_fit=fitted,
        trials=xi_draws,
        verdict=_verdict(dropped == 0),
        config={"tau": tau, "xi_draws": xi_draws, "ascent_steps": ascent_steps,
                "step_size": step_size, "n": n, "m": m},
        detail_columns=["xi_draw", "ascent_value", "linearization_gap"],
        details=rows,
    )


# ---------------------------------------------------------------------------
# surrogate-to-classification step (Markov)
# ---------------------------------------------------------------------------

def probe_surrogate_markov(params: NetworkParams, heldout, band: float) -> ProbeReport:
    """Held-out 0-1 error against twice the held-out surrogate loss."""
    xs, ys = heldout.xs, heldout.ys
    outputs = forward_outputs(params, xs)
    err = lossgrad.zero_one_error(outputs, ys)
    surrogate = lossgrad.surrogate(outputs, ys)[0]
    bound = 2.0 * surrogate + band
    return ProbeReport(
        name="surrogate_markov",
        measured={"test_error": err, "test_surrogate": surrogate},
        bound_expr=bound,
        constant_fit=err / surrogate if surrogate > 0 else 0.0,
        trials=int(xs.shape[0]),
        verdict=_verdict(err <= bound),
        config={"band": band, "n_heldout": int(xs.shape[0])},
        detail_columns=["quantity", "value"],
        details=[["test_error", err], ["test_surrogate", surrogate],
                 ["bound", bound]],
    )


# ---------------------------------------------------------------------------
# depth sweep: residual versus plain under one tuning protocol
# ---------------------------------------------------------------------------

# Each sweep column with the type ``sweep_cell`` writes it in
SWEEP_TYPES = {"arch": str, "L": int, "eta": float, "retries": int,
               "steps_to_threshold": int, "final_train_err": float,
               "final_surrogate": float, "h2l_init": float, "h2l_final": float}
SWEEP_COLUMNS = list(SWEEP_TYPES)


SWEEP_MAX_RETRIES = 2      # eta halvings a diverging cell may take
SWEEP_RATIO_LIMIT = 2.0    # largest residual steps-to-threshold ratio that holds


def sweep_cell(rng: RngState, arch: str, L: int, ds, m, theta_per_L, eta_scale,
               steps_budget, surrogate_target) -> dict:
    """Train one (arch, depth) cell under the shared tuning protocol.

    Every cell starts from eta = eta_scale / m and halves eta on divergence,
    up to ``SWEEP_MAX_RETRIES`` restarts.  ``steps_to_threshold`` is -1 when
    the cell never reaches the surrogate target within the budget.  The
    ``h2l_*`` columns are the largest ||H_2^L|| over the first three samples.

    A cell's training records step 0 and its last step, the one that met
    the target or ended the budget, and reads only the last; the steps in
    between take no record fields and no h_k norms.  ``steps_budget`` must
    be at least 1.
    """
    theta = theta_per_L / L
    init_rng = rng.substream(f"init/{arch}/{L}")
    params = init_gaussian(init_rng, ds.d, L, m, m, theta, arch)
    eta = eta_scale / m
    retries = 0
    result = None
    while True:
        cfg = trainer.TrainConfig(eta=eta, steps=steps_budget,
                                  stop_surrogate=surrogate_target,
                                  record_every=steps_budget)
        try:
            result = trainer.train(params, ds, cfg)
            break
        except trainer.DivergenceError:
            retries += 1
            if retries > SWEEP_MAX_RETRIES:
                break
            eta *= 0.5
    row = {"arch": arch, "L": L, "eta": eta, "retries": retries,
           "steps_to_threshold": -1, "final_train_err": 1.0,
           "final_surrogate": float("nan"),
           "h2l_init": float("nan"), "h2l_final": float("nan")}
    if result is None:
        return row
    if result.stopped_early:
        row["steps_to_threshold"] = result.steps_run
    last = result.records[-1]
    row["final_train_err"] = last.train_err
    row["final_surrogate"] = last.surrogate
    if L >= 2:
        # train never writes the weights it starts from: params is the init
        for key, net in (("h2l_init", params), ("h2l_final", result.params)):
            bt = forward_batch(net, ds.xs[:3])
            row[key] = max(interlayer_norms(net, bt, i, [(2, L)])[0]
                           for i in range(bt.n))
    return row


def _cached_cell(cache_dir, inputs, compute) -> dict:
    """``cache_dir``'s row for ``inputs``' arch and L if computed from
    ``inputs``, else ``compute()``'s, stored; a half-written or malformed
    file, or a row with a column missing or not of its ``SWEEP_TYPES``
    type, is recomputed."""
    path = os.path.join(cache_dir, f"cell_{inputs['arch']}_L{inputs['L']}", "cell.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            row = json.load(fh)
    except (FileNotFoundError, ValueError):
        row = None
    if (isinstance(row, dict) and row.get("inputs") == inputs
            and all(type(row.get(c)) is t for c, t in SWEEP_TYPES.items())):
        return row
    row = {**compute(), "inputs": inputs}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, row)
    return row


def depth_sweep(rng: RngState, L_grid, arches, d, m, n, gamma, M, theta_per_L,
                eta_scale, steps_budget, surrogate_target, cache_dir=None) -> ProbeReport:
    """Steps-to-surrogate-threshold across depths for both architectures.

    All cells share one dataset and one tuning protocol (see sweep_cell).
    The verdict holds iff the residual cells' steps-to-threshold vary by at
    most ``SWEEP_RATIO_LIMIT`` across the depth grid; the plain baseline is
    reported alongside for comparison.

    ``cache_dir`` makes the sweep resumable: each cell's row is stored in
    ``<cache_dir>/cell_<arch>_L<L>/cell.json`` under ``inputs``, every
    argument but ``L_grid``, ``arches`` and ``cache_dir`` (``rng`` as its
    seed and stream) plus the cell's own ``arch`` and ``L``, and a later
    sweep reuses every stored row whose ``inputs`` match its own.
    """
    # the arguments, taken before any other local is bound
    stamp = {k: v for k, v in locals().items()
             if k not in ("L_grid", "arches", "cache_dir")}
    stamp["rng"] = [rng.seed, rng.stream]
    if not L_grid or not arches:
        raise ConfigError("a depth sweep needs at least one depth and one arch")
    if steps_budget < 1:
        raise ConfigError(f"a depth sweep needs a step budget of at least 1, "
                          f"got {steps_budget}")
    ds = make_dataset(rng, d, M, gamma, n)
    rows = []
    steps_by_cell = {}
    for arch in arches:
        for L in L_grid:
            def cell():
                return sweep_cell(rng, arch, L, ds, m, theta_per_L, eta_scale,
                                  steps_budget, surrogate_target)
            inputs = {"arch": arch, "L": L, **stamp}
            row = cell() if cache_dir is None else _cached_cell(cache_dir, inputs, cell)
            steps = row["steps_to_threshold"]
            steps_by_cell[(arch, L)] = steps if steps >= 0 else None
            rows.append([row[c] for c in SWEEP_COLUMNS])

    residual_steps = [steps_by_cell[("residual", L)] for L in L_grid
                      if ("residual", L) in steps_by_cell]
    ok = all(s is not None for s in residual_steps)
    ratio = float("nan")
    if ok and residual_steps:
        lo, hi = min(residual_steps), max(residual_steps)
        if lo > 0:
            ratio = hi / lo
        else:  # a cell stopped at step 0: equal only if every cell did
            ratio = 1.0 if hi == 0 else float("inf")
        ok = ratio <= SWEEP_RATIO_LIMIT
    plain_vs_res = float("nan")
    if "plain" in arches:
        L_max = max(L_grid)
        p = steps_by_cell.get(("plain", L_max))
        r = steps_by_cell.get(("residual", L_max))
        if r:
            plain_vs_res = (p / r) if p is not None else float("inf")
    return ProbeReport(
        name="depth_sweep",
        measured={"residual_step_ratio": ratio,
                  "plain_over_residual_at_max_depth": plain_vs_res},
        bound_expr=SWEEP_RATIO_LIMIT,
        constant_fit=ratio,
        trials=len(rows),
        verdict=_verdict(ok),
        config={"L_grid": list(L_grid), "arches": list(arches), "m": m,
                "n": n, "gamma": gamma, "eta_scale": eta_scale,
                "steps_budget": steps_budget, "surrogate_target": surrogate_target,
                "theta_per_L": theta_per_L},
        detail_columns=list(SWEEP_COLUMNS),
        details=rows,
    )
