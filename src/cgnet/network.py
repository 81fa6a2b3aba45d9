"""Model composition: layer objects, the network container, config builder.

A network is an ordered list of layers, each owning its parameters and
gradient buffers; the network keeps the optimizer velocities. Every layer
speaks one protocol:

  * ``forward_train(x)`` runs in training mode: ``nn.bn_forward``
    normalizes with batch statistics and updates the running stats, the
    layer applies its own gamma*x^ + beta, and its one attribute ``ctx``
    holds what its ``backward`` needs. ``Layer.forward_train`` is the one
    implementation: it releases the stale ``ctx``, then calls the layer's
    ``_forward_train(x)``, which returns the output and the new context;
  * ``backward(dy)`` accumulates into the layer's gradient buffers and
    returns the input gradient, a new sample-innermost batch; it raises
    ``StateError`` when ``ctx`` is None or spent. It may overwrite ``dy``,
    which its caller passes it to consume: a convolution layer writes
    dy*f' there (``nn._consumable``). So a caller that reads dy again
    passes a copy, as ``ResidualBlock.backward`` does for its sublayer b,
    and ``Network.backward`` leaves the caller's ``dlogits`` as they are;
  * ``forward_infer(x, collect, capture)`` returns ``(y, records)``: empty
    unless collecting, else one ``analysis.LayerRecord`` per compute layer
    that references the layer's spec, gate config and kernel and adds its
    output dims, decision maps and, when capturing, its input. A
    convolution layer runs it on its inference plan, ``plan``: a dense
    layer's kernel with its BN folded in (``nn.fold_bn``), a gated layer's
    ``gating.InferencePlan``. The layer's first ``forward_infer`` builds it,
    and nothing else does; the next ones reuse it until something writes
    the layer's parameters or statistics: the layer's ``forward_train``
    drops it, and so do ``Network.sgd_step``, ``load_state_tensors`` and
    the gate setters (``Network.drop_plans``). Code that writes a layer's arrays in place
    by any other way calls ``drop_plans`` itself. A copy (``copy.deepcopy``,
    ``to_dense``) carries no plan;
  * ``param_groups()`` lists (name, param, grad, weight_decay) and
    ``state_items()`` the (name, array) pairs a checkpoint holds; loading
    writes into those arrays, except that a gated layer's kernel records
    are copies of W's split, from which ``load_kernel`` assembles W;
  * ``to_dense()`` returns a fresh dense equivalent: a gated layer its
    all-take ``ConvBlock``, a residual block a block of its sublayers'
    twins, any other layer a deep copy. It copies parameters and running
    statistics, never a context.

A context lives from its layer's ``forward_train`` to that layer's next
one, across steps, and is released right before the next is built, one
layer at a time: a residual block releases its own as it starts, and each
sublayer its own as that sublayer starts. So one layer's context is free
at a time, and the allocator hands its chunks to the next context of the
same shape. A convolution layer's context keeps its input batch, not the
im2col columns (nine times its size at k = 3): its forward holds one band
of them at a time and its backward rebuilds them from the input. The
input is the previous layer's output or the caller's batch, so nothing
may write to a layer's input before that layer's backward. Nor does a
context keep the pre-activation: it keeps f' at its narrowest dtype, a
bool mask for relu, and the activation runs once, in place over the
pre-activation's buffer (``nn.activation_with_grad``). At batch 64 on
vgg8 a step keeps 13.6 MiB of contexts, its backward peaks at 19.6 MiB
and its ``forward_train`` at 16.2 MiB; keeping each stale context until
its successor is assigned holds L01's two 5.5 MiB contexts at once.
Releasing every context at once (``drop_contexts``) lets glibc trim the
heap, and the next step faults it back in (~6,900 pages in a fresh
process, against ~2,100 for a step that releases them one at a time).

A convolution layer's ``backward`` consumes its context, and nothing reads a
context after its layer's ``backward``: the gradients overwrite the buffers
they are computed from, and dy*f' the upstream gradient
(``training.cg_block_backward``, ``ConvBlock.backward``), and set its
``consumed`` flag. One rule covers every layer: ``Layer._saved_ctx``,
through which each ``backward`` reads its context, raises ``StateError``
naming the layer on a missing or spent context, so a second ``backward``
fails until the next ``forward_train``.
``Network.freeze_gates()`` ends training: it drops every context (residual
blocks and their sublayers included), so a finished model holds no batch,
and sets ``Network.frozen``, the one record that the gate statistics are
frozen; loading a checkpoint sets it, ``Network.forward_train()`` clears it.

``Network.leaves()`` lists the layers in execution order with each residual
block replaced by its sublayers; the parameter, state and gate walks go
through it, so a residual block lists no parameters or state itself.
``Network`` alone zeroes gradients and steps SGD over those ``param_groups``
lists, and checks before inference that the gate statistics are frozen.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from . import analysis, gating, training
from .checkpoint import CONFIG_RECORD, CheckpointError
from .config import read_field, reject_unknown
from .gating import (CgBlockParams, CgLayerConfig, assemble_dense_weight,
                     channel_shuffle, shuffle_permutation, split_dense_weight)
from .nn import (ACTIVATION_KINDS, BnCtx, ConfigurationError, ConvCtx, ConvSpec,
                 BatchNormState, StateError, _batch, _consumable, _per_channel, activation,
                 activation_with_grad, batchnorm_backward, bn_forward, conv2d_backward,
                 conv2d_forward, fold_bn, linear_backward, linear_forward, maxpool2d,
                 maxpool2d_forward, avgpool2d_forward, pool2d_backward, sgd_step)


def _he_init(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)


class Layer:
    """What every layer shares: the training context ``ctx``, its release
    before the next is built, and, for a layer that is its own dense
    equivalent, ``to_dense`` as a deep copy."""

    ctx = None

    plan = None   # a convolution layer's inference plan; see the module docstring

    def forward_train(self, x):
        """Drop the inference plan, whose statistics the pass moves, and
        release the stale context; then run ``_forward_train``, which
        returns the output and the new context."""
        self.plan = None
        self.ctx = None
        y, self.ctx = self._forward_train(x)
        return y

    def __getstate__(self):
        # a copy carries no plan: the original's arrays it was built from
        # may be written after the copy, and the copy builds its own
        state = self.__dict__.copy()
        state.pop("plan", None)
        return state

    def _saved_ctx(self):
        """The context of the last ``forward_train``; ``StateError`` if none,
        or if a backward has consumed it."""
        if self.ctx is None:
            raise StateError(f"{self.name}: no context of a forward_train "
                             f"(freeze_gates releases it)")
        if getattr(self.ctx, "consumed", False):
            raise StateError(f"{self.name}: an earlier backward has overwritten this context "
                             f"with its gradients; run forward_train again")
        return self.ctx

    def to_dense(self):
        # the memo maps the context to None, so the copy holds none
        return copy.deepcopy(self, {id(self.ctx): None})


@dataclasses.dataclass
class ConvBlockContext:
    """What ``ConvBlock.backward`` needs of one training forward. ``conv``
    keeps the block's input; the forward held one band of its columns at a
    time, and ``conv2d_backward`` rebuilds them from it. ``fprime`` is the
    activation's derivative at its narrowest dtype (bool for relu,
    binary_sign and identity, float for tanh and sigmoid); the activation
    overwrote the pre-activation. The backward consumes the context: it
    overwrites ``bn.xhat`` with a gradient and sets ``consumed``."""

    conv: ConvCtx
    bn: BnCtx
    fprime: np.ndarray        # f'(gamma*x^ + beta), bool where f' is 0 or 1
    consumed: bool = False    # set by the backward, which overwrites the buffers


class ConvBlock(Layer):
    """Dense convolution + batch norm + activation. Its kernel is dense: a
    grouped ``spec`` raises ``ConfigurationError``."""

    def __init__(self, spec: ConvSpec, act="relu", rng=None, name="conv"):
        if spec.groups != 1:
            raise ConfigurationError(f"{name}: conv must have groups=1, got {spec.groups}")
        self.spec = spec
        self.act = act
        self.name = name
        fan_in = spec.in_channels * spec.kernel_size ** 2
        self.w = _he_init(rng, spec.weight_shape, fan_in) if rng is not None \
            else np.zeros(spec.weight_shape)
        self.bn = BatchNormState.create(spec.out_channels)
        self.g_w = np.zeros_like(self.w)
        self.g_gamma = np.zeros_like(self.bn.gamma)
        self.g_beta = np.zeros_like(self.bn.beta)

    def _forward_train(self, x):
        y, conv_ctx = conv2d_forward(x, self.w, self.spec)
        xhat, bn_ctx = bn_forward(y, self.bn, out=y)
        pre = np.multiply(xhat, _per_channel(self.bn.gamma))
        pre += _per_channel(self.bn.beta)
        y, fprime = activation_with_grad(pre, self.act)
        return y, ConvBlockContext(conv_ctx, bn_ctx, fprime)

    def backward(self, dy):
        ctx = self._saved_ctx()
        # dpre overwrites dy; BN's backward writes over x^, and
        # conv2d_backward rebuilds the columns from the input
        dpre = _consumable(dy)
        dpre *= ctx.fprime
        ctx.consumed = True
        dbn, dgamma, dbeta = batchnorm_backward(ctx.bn, dpre, self.bn.gamma, out=ctx.bn.xhat)
        self.g_gamma += dgamma
        self.g_beta += dbeta
        dx, dw = conv2d_backward(ctx.conv, dbn)
        self.g_w += dw
        return dx

    def forward_infer(self, x, collect=False, capture=False):
        if self.plan is None:
            self.plan = fold_bn(self.w, self.bn)
        y, _ = conv2d_forward(x, self.w, self.spec, folded=self.plan)
        n, _, h_out, w_out = y.shape
        y = activation(y, self.act, out=y)
        if not collect:
            return y, []
        return y, [analysis.LayerRecord(self.name, self.spec, h_out, w_out, n, w=self.w,
                                        x_in=x if capture else None)]

    def param_groups(self):
        return [(f"{self.name}.w", self.w, self.g_w, True),
                (f"{self.name}.gamma", self.bn.gamma, self.g_gamma, False),
                (f"{self.name}.beta", self.bn.beta, self.g_beta, False)]

    def state_items(self):
        return [(f"{self.name}.w", self.w),
                (f"{self.name}.gamma", self.bn.gamma),
                (f"{self.name}.beta", self.bn.beta),
                (f"{self.name}.running_mean", self.bn.running_mean),
                (f"{self.name}.running_var", self.bn.running_var)]


class CgConvBlock(Layer):
    """A channel gating block as a network layer."""

    def __init__(self, cfg: CgLayerConfig, rng=None, name="cg"):
        self.cfg = cfg
        self.name = name
        self.params = CgBlockParams.init(cfg, rng)
        self.g_w = np.zeros_like(self.params.w)
        self.g_gamma = np.zeros_like(self.params.gamma)
        self.g_beta = np.zeros_like(self.params.beta)
        self.g_thresholds = {key: np.zeros_like(t)
                             for key, t in self.params.gate.thresholds()}

    def _forward_train(self, x):
        y, ctx = training.cg_block_forward_train(x, self.params, self.cfg)
        if self.cfg.shuffle:
            y = channel_shuffle(y, self.cfg.groups)
        return y, ctx

    def backward(self, dy):
        ctx = self._saved_ctx()
        if self.cfg.shuffle:   # undo the forward's shuffle
            dy = channel_shuffle(dy, self.cfg.conv.out_channels // self.cfg.groups)
        g = training.cg_block_backward(ctx, dy)
        self.g_w += g.dw
        self.g_gamma += g.dgamma
        self.g_beta += g.dbeta
        for key, g_t in self.g_thresholds.items():
            g_t += g.dthresholds[key]
        return g.dx

    def forward_infer(self, x, collect=False, capture=False):
        if self.plan is None:
            self.plan = gating.inference_plan(self.params, self.cfg)
        y, dm = gating.cg_block_forward_inference(x, self.params, self.cfg, self.plan)
        if not collect:
            return y, []
        n, _, h_out, w_out = dm.d.shape
        return y, [analysis.LayerRecord(self.name, self.cfg.conv, h_out, w_out, n, self.cfg, dm,
                                        w=self.params.w, x_in=x if capture else None)]

    def param_groups(self):
        return [(f"{self.name}.w", self.params.w, self.g_w, True),
                (f"{self.name}.gamma", self.params.gamma, self.g_gamma, False),
                (f"{self.name}.beta", self.params.beta, self.g_beta, False)] + \
               [(f"{self.name}.{key}", t, self.g_thresholds[key], False)
                for key, t in self.params.gate.thresholds()]

    def state_items(self):
        # for the format's readers: W as its (W_p, W_r) split, BN1's stats twice
        p = self.params
        w_p, w_r = split_dense_weight(p.w, self.cfg.groups)
        return [(f"{self.name}.w_p", w_p),
                (f"{self.name}.w_r", w_r),
                (f"{self.name}.gamma", p.gamma),
                (f"{self.name}.beta", p.beta),
                (f"{self.name}.bn1_mean", p.bn1.running_mean),
                (f"{self.name}.bn1_var", p.bn1.running_var),
                (f"{self.name}.bn2_mean", p.bn2.running_mean),
                (f"{self.name}.bn2_var", p.bn2.running_var),
                (f"{self.name}.gate_mean", p.bn1.running_mean),
                (f"{self.name}.gate_var", p.bn1.running_var)] + \
               [(f"{self.name}.{key}", t) for key, t in p.gate.thresholds()]

    def load_kernel(self, tensors):
        """Assemble W from a checkpoint's (W_p, W_r) records."""
        self.params.w[:] = assemble_dense_weight(
            tensors[f"{self.name}.w_p"], tensors[f"{self.name}.w_r"], self.cfg.groups)

    def to_dense(self):
        """Dense equivalent: the all-take path (W, BN2 stats) in the output's channel order."""
        cfg, p = self.cfg, self.params
        c_out = cfg.conv.out_channels
        order = shuffle_permutation(c_out, cfg.groups) if cfg.shuffle else np.arange(c_out)
        blk = ConvBlock(cfg.conv, cfg.activation, name=self.name)
        blk.w = p.w[order]
        blk.bn = BatchNormState(p.gamma[order], p.beta[order], p.bn2.running_mean[order],
                                p.bn2.running_var[order])
        return blk


class ParameterFreeLayer(Layer):
    """A layer without parameters or state: empty parameter groups and
    nothing to checkpoint."""

    def param_groups(self):
        return []

    def state_items(self):
        return []


class MaxPool(ParameterFreeLayer):
    def __init__(self, k=2, name="maxpool"):
        self.k, self.name = k, name

    def _forward_train(self, x):
        return maxpool2d_forward(x, self.k)

    def backward(self, dy):
        return pool2d_backward(self._saved_ctx(), dy)

    def forward_infer(self, x, collect=False, capture=False):
        return maxpool2d(x, self.k), []


class AvgPool(MaxPool):
    def __init__(self, k=2, name="avgpool"):
        super().__init__(k, name)

    def _forward_train(self, x):
        return avgpool2d_forward(x, self.k)

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = avgpool2d_forward(x, self.k)
        return y, []


class Flatten(ParameterFreeLayer):
    def __init__(self, name="flatten"):
        self.name = name

    def _forward_train(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy):
        n, _, h, w = self._saved_ctx()
        # sample-innermost, as every batch: each column of dy.T is a sample
        return _batch(np.ascontiguousarray(dy.T), n, h, w)

    def forward_infer(self, x, collect=False, capture=False):
        return x.reshape(x.shape[0], -1), []


class LinearHead(Layer):
    """Final fully-connected classifier (no bias, like every conv here)."""

    def __init__(self, in_features, out_features, rng=None, name="linear"):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.w = _he_init(rng, (out_features, in_features), in_features) \
            if rng is not None else np.zeros((out_features, in_features))
        self.g_w = np.zeros_like(self.w)

    def _forward_train(self, x):
        return linear_forward(x, self.w)

    def backward(self, dy):
        dx, dw = linear_backward(self._saved_ctx(), self.w, dy)
        self.g_w += dw
        return dx

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = linear_forward(x, self.w)
        if not collect:
            return y, []
        return y, [analysis.LayerRecord(
            self.name, ConvSpec(self.in_features, self.out_features, 1), 1, 1, x.shape[0],
            w=self.w)]

    def param_groups(self):
        return [(f"{self.name}.w", self.w, self.g_w, True)]

    def state_items(self):
        return [(f"{self.name}.w", self.w)]


class ResidualBlock(Layer):
    """Two conv blocks (gated or dense) plus a shortcut; ReLU after the add."""

    def __init__(self, a, b, shortcut=None, name="res"):
        self.a, self.b, self.shortcut = a, b, shortcut
        self.name = name

    def _forward_train(self, x):
        # each sublayer releases its own stale context as it starts; the
        # block keeps only ReLU's mask, and the ReLU runs in place on the sum
        h = self.a.forward_train(x)
        h = self.b.forward_train(h)
        sc = x if self.shortcut is None else self.shortcut.forward_train(x)
        y = h + sc
        activation(y, "relu", out=y)
        return y, y > 0.0

    def backward(self, dy):
        mask = self._saved_ctx()   # f' of the ReLU
        dpre = _consumable(dy)
        dpre *= mask
        # b consumes its upstream, and the shortcut reads dpre after it
        dx = self.a.backward(self.b.backward(dpre.copy(order="K")))
        dx += dpre if self.shortcut is None else self.shortcut.backward(dpre)
        return dx

    def forward_infer(self, x, collect=False, capture=False):
        h, recs = self.a.forward_infer(x, collect, capture)
        h, r = self.b.forward_infer(h, collect, capture)
        recs += r
        if self.shortcut is None:
            sc = x
        else:
            sc, r = self.shortcut.forward_infer(x, collect, capture)
            recs += r
        return activation(h + sc, "relu"), recs

    def sublayers(self):
        subs = [self.a, self.b]
        if self.shortcut is not None:
            subs.append(self.shortcut)
        return subs

    def to_dense(self):
        sc = None if self.shortcut is None else self.shortcut.to_dense()
        return ResidualBlock(self.a.to_dense(), self.b.to_dense(), sc, self.name)


class Network:
    """Sequential model over a fixed input shape."""

    def __init__(self, layers, input_shape, num_classes, config=None):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.config = config or {}
        self.frozen = False
        self._vel = None

    # -- passes ------------------------------------------------------------
    def forward_train(self, x):
        self.frozen = False   # the pass moves the running statistics
        for layer in self.layers:
            x = layer.forward_train(x)
        return x

    def backward(self, dlogits):
        d = np.array(dlogits, dtype=np.float64)   # the layers may consume it
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def forward_infer(self, x, collect=False, capture=False, require_frozen=True):
        """Inference pass; returns (logits, records). Raises ``StateError``
        when the gate statistics are not frozen unless ``require_frozen`` is
        False, and when a logit is not finite: a NaN partial sum fails every
        gate comparison, so its decisions would count as pruning."""
        if require_frozen and not self.gates_frozen():
            raise StateError("inference requires frozen gate/BN statistics "
                             "(train first or load a finalized checkpoint)")
        records = []
        for layer in self.layers:
            x, recs = layer.forward_infer(x, collect, capture)
            records += recs
        if not np.all(np.isfinite(x)):
            raise StateError(f"{np.count_nonzero(~np.isfinite(x))} of {x.size} logits "
                             f"are not finite; the model's weights or statistics hold NaN or inf")
        return x, records

    def leaves(self):
        """Layers in execution order, a residual block replaced by its sublayers."""
        return [leaf for layer in self.layers for leaf in
                (layer.sublayers() if isinstance(layer, ResidualBlock) else [layer])]

    # -- parameters ----------------------------------------------------------
    def param_groups(self):
        return [g for leaf in self.leaves() for g in leaf.param_groups()]

    def zero_grads(self):
        for _, _, g, _ in self.param_groups():
            g[:] = 0

    def sgd_step(self, lr, momentum=0.0, weight_decay=0.0):
        groups = self.param_groups()
        if self._vel is None:
            self._vel = {name: np.zeros_like(p) for name, p, _, _ in groups}
        sgd_step(groups, self._vel, lr, momentum, weight_decay)
        for layer in self.gated_layers():
            layer.params.gate.clamp_band()
        self.drop_plans()

    # -- gating access -------------------------------------------------------
    def gated_layers(self):
        return [leaf for leaf in self.leaves() if isinstance(leaf, CgConvBlock)]

    def mean_delta(self):
        vals = []
        for layer in self.gated_layers():
            g = layer.params.gate
            vals.append(g.delta if g.delta_high is None else 0.5 * (g.delta_high - g.delta_low))
        return float(np.concatenate(vals).mean()) if vals else 0.0

    def gates_frozen(self):
        """Whether no ``forward_train`` moved the gate statistics since they
        were frozen or loaded frozen; True for a network without gates."""
        return self.frozen or not self.gated_layers()

    def freeze_gates(self):
        """End training: mark the gate statistics frozen, drop the contexts."""
        self.frozen = True
        self.drop_contexts()

    def drop_contexts(self):
        """Release every layer's training context, residual blocks and their
        sublayers included; ``backward`` raises until the next ``forward_train``.
        It ends training or comes before validation, never per step: each
        ``forward_train`` already releases a layer's stale context before it
        builds the next, and releasing all of them at once lets the heap
        shrink, so the next pass faults every page back in."""
        for layer in self.layers + self.leaves():
            layer.ctx = None

    def drop_plans(self):
        """Drop every layer's inference plan, residual sublayers included, so
        the next ``forward_infer`` builds each from the arrays as they are
        now. Every method here that writes parameters or statistics calls it."""
        for leaf in self.leaves():
            leaf.plan = None

    def set_force_open(self):
        """Force every gate fully open, for inference only (the logits are the
        dense twin's): an open gate's surrogate is saturated, so it learns nothing."""
        self.drop_plans()
        for layer in self.gated_layers():
            for _, sign, t in layer.params.gate.edges():
                t[:] = -sign * 1e6

    def set_delta(self, value):
        """Set every gate's one-sided threshold. A two-sided gate thresholds
        a band (delta_low, delta_high) that one value does not define, so
        a network with one raises instead of silently ignoring the value."""
        layers = self.gated_layers()
        two_sided = [layer.name for layer in layers if layer.cfg.two_sided]
        if two_sided:
            raise ConfigurationError(
                f"set_delta sets one-sided thresholds; layer(s) {', '.join(two_sided)} "
                f"have two-sided gates")
        self.drop_plans()
        for layer in layers:
            layer.params.gate.delta[:] = value

    def shift_delta(self, offset):
        """Move every edge inward by ``offset``: raise one-sided thresholds by it,
        narrow bands by it at each edge."""
        self.drop_plans()
        for layer in self.gated_layers():
            for _, sign, t in layer.params.gate.edges():
                t += sign * offset

    def set_tau_c(self, value):
        for layer in self.gated_layers():   # records of earlier passes keep their config
            layer.cfg = dataclasses.replace(layer.cfg, tau_c=value)

    # -- conversion / serialization -------------------------------------------
    def to_dense(self):
        """Network with every gating block replaced by its dense equivalent. It
        has no config, which describes the gated model: ``save_model`` refuses it."""
        return Network([layer.to_dense() for layer in self.layers],
                       self.input_shape, self.num_classes)

    def state_tensors(self):
        items = [item for leaf in self.leaves() for item in leaf.state_items()]
        items.append(("__frozen__", np.array([int(self.gates_frozen())], dtype=np.int64)))
        return items

    def load_state_tensors(self, tensors):
        self.drop_plans()
        # built once: the kernel records are temporary copies, and the alias
        # check below needs every array alive so that no id is reused
        items = [item for leaf in self.leaves() for item in leaf.state_items()]
        unexpected = sorted(set(tensors) - {name for name, _ in items}
                            - {"__frozen__", CONFIG_RECORD})
        if unexpected:
            raise ConfigurationError(
                f"checkpoint has unexpected tensor(s) {', '.join(map(repr, unexpected))}")
        loaded = {}   # id of an array -> name of the record loaded into it
        for name, arr in items:
            if name not in tensors:
                raise ConfigurationError(f"checkpoint is missing tensor {name!r}")
            src = tensors[name]
            if src.shape != arr.shape:
                raise ConfigurationError(
                    f"checkpoint tensor {name!r} has shape {src.shape}, "
                    f"model expects {arr.shape}")
            first = loaded.setdefault(id(arr), name)
            if first != name and not np.array_equal(arr, src, equal_nan=True):
                raise ConfigurationError(
                    f"checkpoint tensors {first!r} and {name!r} load into one "
                    f"array of the model but differ")
            arr[:] = src
        for layer in self.gated_layers():
            layer.load_kernel(tensors)
        frozen = tensors.get("__frozen__", np.zeros(1, dtype=np.int64))
        if frozen.shape != (1,) or frozen[0] not in (0, 1):
            raise CheckpointError(f"__frozen__ record must hold one 0 or 1, got {frozen!r}")
        self.frozen = bool(frozen[0])


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

# the keys each reader below reads: any other key, a misspelt or a removed
# one, is rejected by name
_CG_KEYS = tuple(f.name for f in dataclasses.fields(CgLayerConfig)[1:])
_CONV_KEYS = ("type", "out_channels", "kernel_size", "stride", "padding")
_RESIDUAL_KEYS = ("type", "out_channels", "stride", "cg")   # a dense residual reads only these
_LAYER_KEYS = {"conv": _CONV_KEYS + ("activation",),
               "cg_conv": _CONV_KEYS + _CG_KEYS,
               "maxpool": ("type", "kernel_size"),
               "avgpool": ("type", "kernel_size"),
               "flatten": ("type",),
               "linear": ("type", "out_features"),
               "residual": _RESIDUAL_KEYS + _CG_KEYS}


def _cg_config(spec, where, sources):
    """A gated layer's config: each ``CgLayerConfig`` field after ``conv`` read
    as ``where.<field>``, of its default's type; a range error names it too.
    With ``spec`` None, as for ``model.cg_defaults``, only the rules that need
    no channel counts are checked, and nothing is returned."""
    fields = {f.name: read_field(f"{where}.{f.name}", sources, type(f.default), f.default)
              for f in dataclasses.fields(CgLayerConfig)[1:]}
    try:
        if spec is None:
            return CgLayerConfig.check_fields(fields)
        return CgLayerConfig(spec, **fields)
    except ConfigurationError as e:   # its messages start with the field's name
        raise ConfigurationError(f"{where}.{e}") from None


def build_model(model_cfg: dict, rng) -> Network:
    """Construct a Network from the config's model section; a missing,
    malformed or unknown field raises ``ConfigurationError`` naming it. A
    gated layer's fields fall back to ``cg_defaults``, which is checked once,
    gated layers or not, and named ``model.cg_defaults.<key>``; only a
    channel-divisibility error of a default names the layer. A linear takes
    the flat output of a flatten or a linear, every other layer an (n, c,
    h, w) batch; another order raises naming ``model.layers[i]``."""
    reject_unknown("model", model_cfg, ("input_shape", "num_classes", "cg_defaults", "layers"))
    input_shape = read_field("model.input_shape", model_cfg, list)
    num_classes = read_field("model.num_classes", model_cfg, int)
    layer_specs = read_field("model.layers", model_cfg, list, each=dict)
    if len(input_shape) != 3 or any(type(v) is not int for v in input_shape):
        raise ConfigurationError(f"model.input_shape: expected [c, h, w], got {input_shape!r}")
    input_shape = tuple(input_shape)
    defaults = read_field("model.cg_defaults", model_cfg, dict, {})
    reject_unknown("model.cg_defaults", defaults, _CG_KEYS)
    # checked once here, so a gated layer's error names what the layer sets
    _cg_config(None, "model.cg_defaults", (defaults,))
    c, h, w = input_shape
    flat = False   # whether the running output is an (n, features) batch
    layers = []
    for i, lc in enumerate(layer_specs):
        name = f"L{i:02d}"
        where = f"model.layers[{i}]"
        kind = read_field(f"{where}.type", lc, str)
        if kind not in _LAYER_KEYS:
            raise ConfigurationError(f"{where}.type: unknown layer type {kind!r}")
        reject_unknown(where, lc, _LAYER_KEYS[kind])
        if flat != (kind == "linear"):
            need = ("a flatten or a linear before it" if kind == "linear"
                    else "an (n, c, h, w) input, not the flat output of the layer before it")
            raise ConfigurationError(f"{where}: {kind} needs {need}")
        flat = kind in ("flatten", "linear")
        if kind in ("conv", "cg_conv"):
            spec = ConvSpec(c, read_field(f"{where}.out_channels", lc, int, low=1),
                            read_field(f"{where}.kernel_size", lc, int, low=1),
                            read_field(f"{where}.stride", lc, int, 1, low=1),
                            read_field(f"{where}.padding", lc, int, 0, low=0))
            if kind == "conv":
                act = read_field(f"{where}.activation", lc, str, "relu")
                if act not in ACTIVATION_KINDS:
                    raise ConfigurationError(f"{where}.activation: unknown activation {act!r}")
                layers.append(ConvBlock(spec, act, rng, name))
            else:
                layers.append(CgConvBlock(_cg_config(spec, where, (lc, defaults)), rng, name))
            try:
                h, w = spec.out_hw(h, w)
            except ConfigurationError as e:
                raise ConfigurationError(f"{where}: {e}") from None
            c = spec.out_channels
        elif kind in ("maxpool", "avgpool"):
            k = read_field(f"{where}.kernel_size", lc, int, 2, low=1)
            layers.append((MaxPool if kind == "maxpool" else AvgPool)(k, name))
            if h % k or w % k:
                raise ConfigurationError(
                    f"{where}: pooling over {h}x{w} not divisible by {k}")
            h, w = h // k, w // k
        elif kind == "flatten":
            layers.append(Flatten(name))
        elif kind == "linear":
            layers.append(LinearHead(c * h * w, read_field(f"{where}.out_features", lc, int),
                                     rng, name))
            c, h, w = layers[-1].out_features, 1, 1
        else:   # residual
            out_c = read_field(f"{where}.out_channels", lc, int, low=1)
            stride = read_field(f"{where}.stride", lc, int, 1, low=1)
            spec_a = ConvSpec(c, out_c, 3, stride, 1)
            spec_b = ConvSpec(out_c, out_c, 3, 1, 1)
            if read_field(f"{where}.cg", lc, bool, True):
                a = CgConvBlock(_cg_config(spec_a, where, (lc, defaults)), rng, f"{name}a")
                b = CgConvBlock(_cg_config(spec_b, where,
                                           ({"activation": "identity"}, lc, defaults)),
                                rng, f"{name}b")
            else:
                reject_unknown(where, lc, _RESIDUAL_KEYS)
                a = ConvBlock(spec_a, "relu", rng, f"{name}a")
                b = ConvBlock(spec_b, "identity", rng, f"{name}b")
            shortcut = None
            if stride != 1 or out_c != c:
                shortcut = ConvBlock(ConvSpec(c, out_c, 1, stride, 0),
                                     "identity", rng, f"{name}sc")
            layers.append(ResidualBlock(a, b, shortcut, name))
            h, w = spec_a.out_hw(h, w)
            c = out_c
    last = layers[-1] if layers else None
    if not isinstance(last, LinearHead) or last.out_features != num_classes:
        raise ConfigurationError(
            "model.layers: last layer must be a linear head with out_features "
            f"== num_classes ({num_classes})")
    return Network(layers, input_shape, num_classes, model_cfg)
