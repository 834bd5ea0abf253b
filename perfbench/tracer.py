"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of each
tsadapt module (each module is a layer) plus `Adam.step`, and records one
span per call: name, duration, and the part of it not covered by child
spans (self time). Spans are folded into per-name lists as they close,
because a traced desk-scale pass closes a few hundred thousand of them.

Engine ops get extra attention. The i-th conv1d / batch_norm1d / relu /
max_pool1d call inside one `backbone.encode` belongs to encoder block i;
every other op on the tape is "head". Backward time per op comes from
wrapping each tape node's closure in `active_graph().nodes` just before the
real `autodiff.backward` runs.

Nothing inside `src/` changes: `install()` swaps module attributes and
`uninstall()` puts the original function objects back. The loop is single
threaded, so no layer queues work and no wait time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("autodiff", "optim", "augment", "backbone", "accup", "adapt",
          "baselines", "data", "metrics", "experiment")
BLOCK_OPS = ("conv1d", "batch_norm1d", "relu", "max_pool1d")
# context-manager factories and accessors: a span around them times nothing
SKIP = {("autodiff", "no_grad"), ("autodiff", "active_graph")}


def wrap_targets() -> list:
    """(layer, function name, holder, attribute, original) for every binding.

    A function imported by name into another module (`from .adapt import
    run_stream`) is bound there too; every such binding is listed so that
    calls through either name are traced.
    """
    modules = {n: m for n, m in sys.modules.items()
               if n == "tsadapt" or n.startswith("tsadapt.")}
    out = []
    for layer in LAYERS:
        mod = modules[f"tsadapt.{layer}"]
        for name, fn in sorted(vars(mod).items()):
            if (name.startswith("_") or (layer, name) in SKIP
                    or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                continue
            for holder in modules.values():
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        out.append((layer, name, holder, attr, fn))
    adam = modules["tsadapt.optim"].Adam
    out.append(("optim", "adam_step", adam, "step", vars(adam)["step"]))
    return out


def attributes_untouched(targets: list) -> bool:
    """True when every wrapped binding still holds its original function."""
    return all(getattr(holder, attr) is fn for _, _, holder, attr, fn in targets)


class Stats:
    """Aggregates of one phase (set-up, timed passes, or output checks)."""

    def __init__(self):
        self.durations = defaultdict(list)   # span name -> seconds per call
        self.self_s = defaultdict(list)      # span name -> self seconds per call
        self.failures = defaultdict(int)     # span name -> calls that raised
        self.experiment_pretrains = 0        # pretrain_source calls inside run_experiment
        self.head_fwd = []                   # seconds of head ops per graph
        self.head_bwd = []
        self.tape_nodes = []                 # nodes per backward
        self.block_out_bytes = [[], [], []]  # per encode call
        self.conv_gflop = []                 # conv1d forward GFLOP per encode call
        self.conv_flops = 0.0                # conv1d forward + backward flops
        self.conv_seconds = 0.0
        self.adam_params = []                # scalars updated per Adam step
        self.pretrain_steps = []             # backward calls per pretrain_source
        self.adapt_s = 0.0                   # adapt_batch seconds ...
        self.adapt_block_s = 0.0             # ... of which block ops fwd + bwd
        self.streams = []                    # (entries, retained ratio, prototype seconds)


class _Encode:
    __slots__ = ("next", "out_bytes", "flops")

    def __init__(self):
        self.next = dict.fromkeys(BLOCK_OPS, 0)
        self.out_bytes = [0, 0, 0]
        self.flops = 0.0


def _conv_flops(inputs, out) -> float:
    w = inputs[1].data
    return 2.0 * out.data.size * w.shape[1] * w.shape[2]


class Tracer:
    """Wraps the package's public functions and folds spans into Stats."""

    def __init__(self, targets: list):
        self.targets = targets
        self.phases = defaultdict(Stats)
        self.stats = self.phases["setup"]
        self._stack = []         # child seconds of each open span
        self._encodes = []
        self._labels = {}        # id(tape output) -> block label
        self._head_fwd = 0.0
        self._head_bwd = 0.0
        self._in_adapt = 0
        self._in_experiment = 0
        self._backwards = 0
        self._support = None     # support set of the stream in progress
        self._proto_s = []
        self._support_end = (0, 0.0)

    # -- phases -------------------------------------------------------------

    def phase(self, name: str) -> None:
        self._close_stream()
        self.stats = self.phases[name]

    def install(self) -> None:
        wrappers = {}
        for layer, name, holder, attr, fn in self.targets:
            if fn not in wrappers:
                wrappers[fn] = self._wrap(layer, name, fn)
            setattr(holder, attr, wrappers[fn])

    def uninstall(self) -> None:
        self._close_stream()
        for _, _, holder, attr, fn in reversed(self.targets):
            setattr(holder, attr, fn)

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hooks = {
            ("autodiff", "backward"): self._backward_hooks,
            ("backbone", "encode"): self._encode_hooks,
            ("backbone", "pretrain_source"): self._pretrain_hooks,
            ("accup", "compute_prototypes"): self._prototype_hooks,
            ("adapt", "adapt_batch"): self._adapt_hooks,
            ("baselines", "baseline_adapt_batch"): self._baseline_hooks,
            ("experiment", "run_experiment"): self._experiment_hooks,
            ("optim", "adam_step"): self._adam_hooks,
        }
        if layer == "autodiff" and name != "backward":
            enter, leave = self._op_hooks(name)
        elif (layer, name) in hooks:
            enter, leave = hooks[(layer, name)]()
        else:
            enter = leave = None
        default = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = enter(args) if enter else default
            frame = [0.0]
            tracer._stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dur = perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                s = tracer.stats
                s.durations[span].append(dur)
                s.self_s[span].append(dur - frame[0])
                if not ok:
                    s.failures[span] += 1
                if leave:
                    leave(args, out if ok else None, dur)

        return wrapper

    def _op_hooks(self, op):
        def enter(args):
            if op in BLOCK_OPS and self._encodes:
                enc = self._encodes[-1]
                block = enc.next[op]
                enc.next[op] = block + 1
                return f"autodiff.b{block}.{op}.fwd"
            return f"autodiff.{op}.fwd"

        def leave(args, out, dur):
            if out is None:
                return
            if op in BLOCK_OPS and self._encodes:
                enc = self._encodes[-1]
                block = enc.next[op] - 1
                enc.out_bytes[block] += out.data.nbytes
                if op == "conv1d":
                    flops = _conv_flops(args, out)
                    enc.flops += flops
                    self.stats.conv_flops += flops
                    self.stats.conv_seconds += dur
                if self._in_adapt:
                    self.stats.adapt_block_s += dur
                if out.requires_grad:
                    self._labels[id(out)] = f"b{block}"
            elif out.requires_grad:
                self._head_fwd += dur

        return enter, leave

    def _timed_backward(self, op, label, bwd, inputs, out):
        def timed(g):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return bwd(g)
            finally:
                dur = perf_counter() - t0
                self._stack.pop()
                self._stack[-1][0] += dur
                s = self.stats
                if label is None:
                    s.durations[f"autodiff.{op}.bwd"].append(dur)
                    self._head_bwd += dur
                else:
                    s.durations[f"autodiff.{label}.{op}.bwd"].append(dur)
                    if op == "conv1d":
                        s.conv_flops += 2.0 * _conv_flops(inputs, out)
                        s.conv_seconds += dur
                    if self._in_adapt:
                        s.adapt_block_s += dur

        return timed

    def _backward_hooks(self):
        def enter(args):
            graph = sys.modules["tsadapt.autodiff"].active_graph()
            nodes = graph.nodes
            for i, (op, inputs, out, bwd) in enumerate(nodes):
                label = self._labels.get(id(out))
                nodes[i] = (op, inputs, out, self._timed_backward(op, label, bwd, inputs, out))
            self._labels.clear()
            self.stats.tape_nodes.append(len(nodes))
            self.stats.head_fwd.append(self._head_fwd)
            self._head_fwd = self._head_bwd = 0.0
            self._backwards += 1
            return "autodiff.backward"

        def leave(args, out, dur):
            self.stats.head_bwd.append(self._head_bwd)

        return enter, leave

    def _encode_hooks(self):
        def enter(args):
            self._encodes.append(_Encode())
            return "backbone.encode"

        def leave(args, out, dur):
            enc = self._encodes.pop()
            if out is not None:
                for block, nbytes in enumerate(enc.out_bytes):
                    self.stats.block_out_bytes[block].append(nbytes)
                self.stats.conv_gflop.append(enc.flops / 1e9)

        return enter, leave

    def _pretrain_hooks(self):
        start = []

        def enter(args):
            start.append(self._backwards)
            if self._in_experiment:
                self.stats.experiment_pretrains += 1
            return "backbone.pretrain_source"

        def leave(args, out, dur):
            self.stats.pretrain_steps.append(self._backwards - start.pop())

        return enter, leave

    def _close_stream(self):
        if self._support is not None:
            entries, ratio = self._support_end
            self.stats.streams.append((entries, ratio, self._proto_s))
        self._support, self._proto_s = None, []

    def _prototype_hooks(self):
        # called once per batch; a new support set object starts a new stream
        def leave(args, out, dur):
            support, k = args[0], args[1]
            if support is not self._support:
                self._close_stream()
                self._support = support
            counts = support.class_counts()
            self._proto_s.append(dur)
            self._support_end = (int(counts.sum()),
                                 float(np.minimum(k, counts).sum() / counts.sum()))

        return None, leave

    def _adapt_hooks(self):
        def enter(args):
            self._in_adapt += 1
            return "adapt.adapt_batch"

        def leave(args, out, dur):
            self._in_adapt -= 1
            self.stats.adapt_s += dur

        return enter, leave

    def _baseline_hooks(self):
        def enter(args):
            return f"baselines.{args[0].config.kind}.batch"

        return enter, None

    def _experiment_hooks(self):
        def enter(args):
            self._in_experiment += 1
            return "experiment.run_experiment"

        def leave(args, out, dur):
            self._in_experiment -= 1

        return enter, leave

    def _adam_hooks(self):
        def leave(args, out, dur):
            self.stats.adam_params.append(sum(p.data.size for p in args[0].params))

        return None, leave


def _ms(values) -> float:
    return float(np.median(values) * 1e3)


def layer_metrics(stats: Stats, passes: int) -> dict:
    """Per-layer metrics of the timed passes: name -> (value, unit).

    Times are medians per call (per graph for head and backward); counts
    are per pass so that they repeat exactly. A layer that did not run in
    the passes contributes no metric.
    """
    d = stats.durations
    m = {}
    for block in range(3):
        for op in BLOCK_OPS:
            for kind in ("fwd", "bwd"):
                name = f"autodiff.b{block}.{op}.{kind}"
                if d[name]:
                    m[f"{name}_ms"] = (_ms(d[name]), "ms")
        if stats.block_out_bytes[block]:
            m[f"autodiff.b{block}.out_mb"] = (
                float(np.median(stats.block_out_bytes[block]) / 1e6), "MB")
    if stats.tape_nodes:
        m["autodiff.head.fwd_ms"] = (_ms(stats.head_fwd), "ms")
        m["autodiff.head.bwd_ms"] = (_ms(stats.head_bwd), "ms")
        m["autodiff.backward_ms"] = (_ms(d["autodiff.backward"]), "ms")
        m["autodiff.tape_nodes"] = (float(np.median(stats.tape_nodes)), "count")
    if stats.conv_gflop:
        m["autodiff.conv1d.gflop"] = (float(np.median(stats.conv_gflop)), "GFLOP")
        m["autodiff.conv1d.gflop_per_s"] = (
            stats.conv_flops / 1e9 / stats.conv_seconds, "GFLOP/s")
    if stats.adapt_s:
        m["autodiff.block_ops_share"] = (stats.adapt_block_s / stats.adapt_s, "ratio")
    if stats.adam_params:
        m["optim.adam_step_ms"] = (_ms(d["optim.adam_step"]), "ms")
        m["optim.params"] = (float(np.median(stats.adam_params)), "count")
    if d["augment.apply_augment"]:
        m["augment.apply_augment_ms"] = (_ms(d["augment.apply_augment"]), "ms")
    if d["backbone.encode"]:
        m["backbone.encode_ms"] = (_ms(d["backbone.encode"]), "ms")
        m["backbone.encode_calls"] = (len(d["backbone.encode"]) / passes, "count")
    if d["backbone.pretrain_source"]:
        m["backbone.pretrain_source_ms"] = (_ms(d["backbone.pretrain_source"]), "ms")
        m["backbone.pretrain_steps"] = (float(np.median(stats.pretrain_steps)), "count")
    for fn in ("update_support", "compute_prototypes", "prototype_logits",
               "entropy_compare", "contrastive_loss"):
        if d[f"accup.{fn}"]:
            m[f"accup.{fn}_ms"] = (_ms(d[f"accup.{fn}"]), "ms")
    if stats.streams:
        m["accup.support_entries"] = (float(np.median([s[0] for s in stats.streams])), "count")
        m["accup.support_retained_ratio"] = (
            float(np.median([s[1] for s in stats.streams])), "ratio")
        for q in range(4):
            part = [t for _, _, ts in stats.streams
                    for t in ts[q * len(ts) // 4:(q + 1) * len(ts) // 4]]
            if part:
                m[f"accup.compute_prototypes_ms.q{q + 1}"] = (_ms(part), "ms")
    if d["adapt.adapt_batch"]:
        m["adapt.adapt_batch_ms"] = (_ms(d["adapt.adapt_batch"]), "ms")
        m["adapt.self_ms"] = (_ms(stats.self_s["adapt.adapt_batch"]), "ms")
        m["adapt.failed_batches"] = (float(stats.failures["adapt.adapt_batch"]), "count")
    for kind in ("source", "bn-stats", "tent", "pseudo-label"):
        if d[f"baselines.{kind}.batch"]:
            m[f"baselines.{kind}.batch_ms"] = (_ms(d[f"baselines.{kind}.batch"]), "ms")
    if d["data.generate_shifted_pair"]:
        m["data.generate_shifted_pair_ms"] = (_ms(d["data.generate_shifted_pair"]), "ms")
        m["data.generate_calls"] = (len(d["data.generate_shifted_pair"]) / passes, "count")
    if d["metrics.macro_f1"]:
        m["metrics.macro_f1_calls"] = (len(d["metrics.macro_f1"]) / passes, "count")
    if d["experiment.run_experiment"]:
        m["experiment.run_experiment_ms"] = (_ms(d["experiment.run_experiment"]), "ms")
        m["experiment.self_ms"] = (_ms(stats.self_s["experiment.run_experiment"]), "ms")
        m["experiment.pretrain_calls"] = (
            stats.experiment_pretrains / passes, "count")
    return m


def span_table(stats: Stats) -> dict:
    """Every span name with its call count, median, total and self seconds."""
    return {
        name: {"calls": len(v), "median_ms": _ms(v), "total_s": float(np.sum(v)),
               "self_s": float(np.sum(stats.self_s.get(name, [0.0])))}
        for name, v in sorted(stats.durations.items()) if v
    }
