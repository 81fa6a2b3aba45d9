"""In-memory span tracer for the benchmark.

Spans are recorded by wrapping cgnet's public functions in every module
namespace that binds them (``conv2d`` is bound in ``cgnet.nn``,
``cgnet.gating`` and ``cgnet.analysis``), and by wrapping the
``forward_train`` / ``backward`` / ``forward_infer`` methods of individual
layer objects. Nothing under ``src/`` is edited: wrappers are installed by
rebinding module attributes and removed again by ``uninstall``.

A span is ``[name, start, end, parent, section, macs]``; ``parent`` is the
index of the enclosing span (-1 at the top) and ``section`` labels the part
of the run (setup, loop, profile) the span was recorded in.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

CGNET_MODULES = ("nn", "gating", "training", "network", "analysis",
                 "checkpoint", "data", "perf", "cli")

# (module, function) pairs whose calls become spans.
TRACED_FUNCTIONS = (
    ("nn", "conv2d"),
    ("nn", "conv2d_forward"),
    ("nn", "conv2d_backward"),
    ("nn", "bn_forward"),
    ("nn", "batchnorm_backward"),
    ("nn", "sgd_step"),
    ("training", "cg_block_forward_train"),
    ("training", "cg_block_backward"),
    ("training", "apply_sparsity_loss"),
    ("training", "evaluate"),
    ("gating", "cg_block_forward_inference"),
    ("gating", "merged_gate"),
    ("analysis", "merge_layer_records"),
    ("analysis", "count_flops"),
    ("analysis", "network_pruning_ratio"),
    ("checkpoint", "load_model"),
    ("data", "load_dataset"),
)

LAYER_METHODS = ("forward_train", "backward", "forward_infer")


def _conv_macs(args, out):
    """MACs of one conv2d_forward call: output elements x (c_in/groups)*k*k."""
    y = out[0]
    w = args[1]
    return int(y.size) * int(w[0].size)


_MAC_COUNTERS = {"nn.conv2d_forward": _conv_macs}


def leaf_layers(model):
    """Layers in execution order, residual blocks replaced by their sublayers."""
    for layer in model.layers:
        if hasattr(layer, "sublayers"):
            yield from layer.sublayers()
        else:
            yield layer


class Tracer:
    def __init__(self):
        self.spans = []
        self.section = "setup"
        self._stack = []
        self._restore = []
        self._wrapped_layers = []

    # -- recording ---------------------------------------------------------
    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.section, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name, fn):
        macs = _MAC_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if macs is not None:
                self.spans[idx][5] = macs(args, out)
            return out
        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        """Rebind every traced function in every cgnet module that binds it."""
        modules = [importlib.import_module(f"cgnet.{m}") for m in CGNET_MODULES]
        for mod_name, attr in TRACED_FUNCTIONS:
            orig = getattr(importlib.import_module(f"cgnet.{mod_name}"), attr)
            wrapped = self.wrap(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def wrap_layers(self, model, infer_label="forward_infer"):
        """Span each leaf layer's passes as ``network.<layer>.<phase>``.

        Do not deep-copy ``model`` while its layers are wrapped: the copy
        would keep wrappers bound to the original layers.
        """
        for layer in leaf_layers(model):
            for method in LAYER_METHODS:
                label = infer_label if method == "forward_infer" else method
                setattr(layer, method,
                        self.wrap(f"network.{layer.name}.{label}", getattr(layer, method)))
            self._wrapped_layers.append(layer)

    def uninstall(self):
        self.unwrap_layers()
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def unwrap_layers(self):
        for layer in self._wrapped_layers:
            for method in LAYER_METHODS:
                layer.__dict__.pop(method, None)
        self._wrapped_layers.clear()

    # -- aggregation ---------------------------------------------------------
    def aggregate(self, sections=None):
        """Per span name: calls, total seconds, self seconds and MACs."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, section, macs) in enumerate(self.spans):
            if sections is not None and section not in sections:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "macs": 0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[i]
            agg["macs"] += macs
        return out

    def top_level_seconds(self):
        """Per ``op`` span: the summed durations of its direct children."""
        per_op = {}
        for i, (name, _, _, _, _, _) in enumerate(self.spans):
            if name == "op":
                per_op[i] = 0.0
        for name, t0, t1, parent, _, _ in self.spans:
            if parent in per_op:
                per_op[parent] += t1 - t0
        return list(per_op.values())

    def dump(self):
        """Raw spans relative to the first one, for the trace file."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        return [[name, round(t0 - t_ref, 9), round(t1 - t0, 9), parent, section]
                for name, t0, t1, parent, section, _ in self.spans]
