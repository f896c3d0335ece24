"""Constant-step full-batch gradient descent with trajectory instrumentation.

Every recorded step captures the quantities the trajectory analysis needs:
losses, per-layer gradient norms, per-layer Frobenius distance from the
initialization, the spectral step-distance functional

    h(W', W) = ||d_1||_2 + theta * sum_{l=2..L} ||d_l||_2 + ||d_{L+1}||_2,
    d_l = W'_l - W_l,

activation-pattern flip fractions against the initialization, and the range
of hidden-layer norms over the batch.  The update rule is exactly
W_l <- W_l - eta * grad_l on every layer.

A step is one forward pass and one pass over ``lossgrad``'s gradient
stream: each layer is checked and its update written as the layer
arrives, into the iterate's own buffer once the first step has made one,
so no step holds a whole gradient set.  Only a recorded step builds a
record's fields; every other step takes just the loss and surrogate, and
checks each gradient layer by a peak bound instead of its norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lossgrad, numkit
from .data import write_csv, write_json
from .model import ConfigError, NetworkParams, forward_batch

TRAJECTORY_COLUMNS = [
    "step", "loss", "surrogate", "train_err", "h_k", "max_dist_init",
    "grad_norm_first", "grad_norm_mid_max", "grad_norm_last",
    "flip_frac", "xl_min", "xl_max",
]


class DivergenceError(RuntimeError):
    """Gradient descent produced a non-finite quantity."""

    def __init__(self, step: int, what: str):
        super().__init__(f"divergence at step {step}: {what}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    eta: float
    steps: int
    stop_surrogate: float = None   # early-stop target for the surrogate loss
    record_every: int = 1

    def __post_init__(self):
        if not self.eta > 0:
            raise ConfigError(f"step size must be positive, got {self.eta}")
        if self.steps < 0:
            raise ConfigError(f"step budget must be nonnegative, got {self.steps}")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Metrics of one iterate (and of the step its gradient defines)."""

    step: int
    loss: float
    surrogate: float
    train_err: float
    grad_frob: tuple          # per-layer Frobenius norms of the loss gradient
    h: float                  # eta-scaled spectral step distance of this step
    dist_init: tuple          # per-layer ||W_l - W_l^(0)||_F
    flip_frac: float          # pattern bits differing from init, all layers
    xl_min: float             # min/max ||x_L|| over the batch
    xl_max: float

    def csv_row(self) -> list:
        L = len(self.grad_frob) - 1
        mid = max(self.grad_frob[1:L]) if L >= 2 else 0.0
        return [self.step, self.loss, self.surrogate, self.train_err, self.h,
                max(self.dist_init), self.grad_frob[0], mid, self.grad_frob[-1],
                self.flip_frac, self.xl_min, self.xl_max]


@dataclass
class TrainResult:
    params: NetworkParams
    records: list
    best_step: int = None
    best_surrogate: float = None
    stopped_early: bool = False
    steps_run: int = 0


def step_distance(params: NetworkParams, norms) -> float:
    """Spectral step distance h = sum_l s_l ||d_l||_2, with ``norms`` the
    per-layer spectral norms ||d_l||_2 of the differences d_l = W'_l - W_l
    of two weight collections shaped like ``params``, in layer order
    l = 1..L+1, and s_l the layer scale; added from 0 left to right."""
    if len(norms) != params.depth + 1:
        raise ValueError(f"{len(norms)} layer norms for {params.depth + 1} layers")
    total = 0.0
    for l, n in enumerate(norms, start=1):
        total += params.layer_scale(l) * n
    return total


def _flip_fraction(bt, init_patterns) -> float:
    diff = 0
    total = 0
    for cur, ref in zip(bt.patterns, init_patterns):
        diff += int(np.count_nonzero(cur != ref))
        total += cur.size
    return diff / total


def _forward_fields(params, init, bt, init_patterns, ys) -> dict:
    """The record fields, beyond the loss and surrogate, of iterate
    ``params`` and its trace ``bt``."""
    xl_norms = np.linalg.norm(bt.activations[params.depth], axis=1)
    return dict(
        train_err=lossgrad.zero_one_error(bt.outputs, ys),
        dist_init=tuple(numkit.frobenius_norm(w - w0)
                        for w, w0 in zip(params.weights, init.weights)),
        flip_frac=_flip_fraction(bt, init_patterns),
        xl_min=float(np.min(xl_norms)),
        xl_max=float(np.max(xl_norms)),
    )


def train(params: NetworkParams, dataset, cfg: TrainConfig) -> TrainResult:
    """Run at most cfg.steps GD iterations, recording the trajectory.

    Record k describes iterate W^(k); the loop stops early once the
    surrogate target is met.  With ``record_every`` 1, the first step at
    which a layer leaves a ball around the initialization is the first
    record whose ``max(dist_init)`` exceeds the radius.

    Step 0, every ``record_every``-th step, the last and the one that
    meets the target are recorded, and only they build the record fields.
    Every step checks its loss, then finishes each layer as it leaves
    ``lossgrad``'s gradient stream: a finiteness check (the Frobenius norm
    on recorded steps, else ``numkit.frobenius_finite``, which agrees with
    it), then W_l - eta * G_l.  So records, the final weights, ``best_step``
    and any ``DivergenceError`` do not depend on ``record_every``.

    Step 0 writes the update into G_l's own buffer, and later steps into
    the iterate's, which step 0 made, so ``params``' weights are never
    written, even when a step diverges.
    """
    xs, ys = dataset.xs, dataset.ys
    result = TrainResult(params=params, records=[])
    if cfg.steps == 0:
        return result  # zero budget: the untouched init, empty trajectory
    init = params
    init_patterns = None  # from step 0's trace
    best = np.inf
    for k in range(cfg.steps + 1):
        bt = forward_batch(params, xs)
        loss, surrogate, sample_w = lossgrad.loss_terms(bt.outputs, ys)
        if not np.isfinite(loss):
            raise DivergenceError(k, f"loss = {loss}")
        if init_patterns is None:
            init_patterns = bt.patterns
        stopping = (cfg.stop_surrogate is not None
                    and surrogate <= cfg.stop_surrogate)
        recording = stopping or k % cfg.record_every == 0 or k == cfg.steps
        stepping = not stopping and k < cfg.steps
        if recording:
            fields = _forward_fields(params, init, bt, init_patterns, ys)
            grad_frob = [None] * len(params.weights)
            h_norms = [None] * len(params.weights)
        weights = list(params.weights)
        for l, g in lossgrad._layer_gradients(params, bt, sample_w):
            if recording:
                grad_frob[l - 1] = numkit.frobenius_norm(g)
                finite = np.isfinite(grad_frob[l - 1])
            else:
                finite = numkit.frobenius_finite(g)
            if not finite:
                raise DivergenceError(k, "non-finite gradient")
            if recording:  # one-layer sets: every h_k norm is taken there
                h_norms[l - 1] = lossgrad.GradientSet((g,)).spectral_norms()[0]
            if stepping:
                g *= cfg.eta
                w = weights[l - 1]
                weights[l - 1] = np.subtract(w, g, out=g if k == 0 else w)
            del g  # not held while the stream forms the next layer
        del bt  # not held through the next forward pass
        if recording:
            result.records.append(TrajectoryRecord(
                step=k, loss=loss, surrogate=surrogate,
                grad_frob=tuple(grad_frob),
                h=cfg.eta * step_distance(params, h_norms),
                **fields))
        if surrogate < best:
            best = surrogate
            result.best_step = k
            result.best_surrogate = surrogate
        result.steps_run = k
        if not stepping:
            result.stopped_early = stopping
            break
        params = params.with_weights(weights)
    result.params = params
    return result


def write_trajectory_csv(records, path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, (rec.csv_row() for rec in records))


def write_summary_json(result: TrainResult, config: dict, path) -> None:
    summary = {
        "config": config,
        "best_step": result.best_step,
        "best_surrogate": result.best_surrogate,
        "stopped_early": result.stopped_early,
        "steps_run": result.steps_run,
    }
    write_json(path, summary)
