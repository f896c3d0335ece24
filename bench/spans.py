"""Span tracer for the benchmark's traced runs.

``Tracer.install()`` replaces every binding of each public function of the
lab's modules with a wrapper that records a span (name, start, end, parent)
around the call.  Functions imported by name into other modules
(``forward_batch`` into ``lossgrad``, ``trainer`` and ``probes``,
``sample_dataset`` into ``probes``) are found by identity and replaced too;
``uninstall()`` puts every original back.

Spans are folded into per-name totals as they close instead of being kept
one by one: a power-iteration run makes hundreds of thousands of
``pairwise_sum`` calls, and a list of them would dominate the run's memory.
A span's self time is its duration minus the durations of its child spans;
children nest strictly inside their parent on the one thread, so the sum of
their durations is the time they cover, and the self times of all spans add
up to the traced time spent inside the lab's functions.

The shared kernels ``numkit.operator_norm`` (power iteration) and
``numkit.pairwise_sum`` are timed whole per call but open no span: their
time stays in the self time of the layer that called them, so
``factored_spectral_norm``, ``spectral_norm`` and ``interlayer_norm`` each
carry the full cost of their norm, and the kernel totals overlap the layer
totals.  ``operator_norm`` also counts operator applications
(``numkit.operator_norm.applies``).  ``model.interlayer_apply`` and
``interlayer_apply_t`` are counted only; their time belongs to
``interlayer_norm`` and ``probe_sparse_output``.

GFLOP counts for ``forward_batch`` and ``batch_output_grad`` are computed
from operand shapes (two flops per multiply-add of every matrix product),
not measured.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

_clock = time.perf_counter

KERNELS = ("numkit.operator_norm", "numkit.pairwise_sum")


def _net_shape(params):
    dims = [params.d] + list(params.widths)
    return sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1)), dims


def forward_gflop(params, xs, *_, **__):
    """Layer products h @ W_l plus the output product, for n rows."""
    n = 1 if getattr(xs, "ndim", 1) == 1 else len(xs)
    macs, dims = _net_shape(params)
    return 2.0 * n * (macs + dims[-1]) / 1e9


def grad_gflop(params, bt, *_, **__):
    """Backward rows (layers L+1..2) plus one A_lᵀB_l per layer, for n rows."""
    macs, dims = _net_shape(params)
    backward = macs - dims[0] * dims[1]
    return 2.0 * bt.n * (backward + macs) / 1e9


def rebind(modules, original, replacement):
    """Point every module-level name bound to ``original`` at ``replacement``;
    returns the ``(module, name, original)`` triples that undo it."""
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo):
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tracer:
    """Per-name self seconds and calls, plus named counters."""

    def __init__(self, modules):
        self.modules = modules
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []  # open spans: [name, start, seconds in children]
        self._undo = []

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, _clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - frame[1]
                self._stack.pop()
                self.self_s[name] += dur - frame[2]
                if self._stack:
                    self._stack[-1][2] += dur
            self.calls[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def _kernel(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.self_s[name] += _clock() - start
                self.calls[name] += 1
        return timed

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _operator_norm(self, fn):
        kernel = self._kernel("numkit.operator_norm", fn)

        def counting(apply):
            def applied(vec):
                self.counters["numkit.operator_norm.applies"] += 1
                return apply(vec)
            return applied

        @functools.wraps(fn)
        def traced(apply, apply_t, *args, **kwargs):
            return kernel(counting(apply), counting(apply_t), *args, **kwargs)
        return traced

    def _wrapper(self, name, fn):
        if name == "numkit.operator_norm":
            return self._operator_norm(fn)
        if name in KERNELS:
            return self._kernel(name, fn)
        if name in ("model.interlayer_apply", "model.interlayer_apply_t"):
            return self._counted(name, fn)
        if name == "model.forward_batch":
            return self._span(name, fn, self._flops(name, forward_gflop))
        if name == "lossgrad.batch_output_grad":
            return self._span(name, fn, self._flops(name, grad_gflop))
        if name == "trainer.train":
            return self._span(name, fn, self._steps)
        return self._span(name, fn)

    def _flops(self, name, count):
        def on_result(args, kwargs, _result):
            self.counters[f"{name}.gflop"] += count(*args, **kwargs)
        return on_result

    def _steps(self, _args, _kwargs, result):
        self.counters["trainer.train.steps"] += result.steps_run

    def install(self):
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._undo += rebind(self.modules, fn,
                                     self._wrapper(f"{short}.{attr}", fn))
        ball = next(m for m in self.modules
                    if m.__name__.endswith(".probes")).PerturbationBall
        draw = vars(ball)["draw"]
        ball.draw = self._span("probes.PerturbationBall.draw", draw)
        self._undo.append((ball, "draw", draw))

    def uninstall(self):
        restore(self._undo)

    def top_self(self, count=12):
        """The layers (kernels excluded) with the largest self time."""
        layers = [(s, n) for n, s in self.self_s.items() if n not in KERNELS]
        return sorted(layers, reverse=True)[:count]
