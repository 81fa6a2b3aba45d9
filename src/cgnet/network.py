"""Model composition: layer objects, the network container, config builder.

A network is an ordered list of layers, each owning its parameters and
gradient buffers; the network keeps the optimizer velocities. Every layer
speaks one protocol:

  * ``forward_train(x)`` runs in training mode: batch statistics, running
    stats updated, the context for ``backward`` kept;
  * ``backward(dy)`` accumulates into the layer's gradient buffers and
    returns the input gradient;
  * ``forward_infer(x, collect, capture)`` returns ``(y, records)``: a list
    of per-layer records (dims, decision maps, optionally captured inputs)
    for the analysis and performance models, empty unless collecting;
  * ``param_groups()`` lists (name, param, grad, weight_decay) and
    ``state_items()`` the (name, array) pairs a checkpoint holds.

``Network`` alone zeroes gradients (those ``param_groups`` lists) and
checks before inference that the gate statistics are frozen.
"""

from __future__ import annotations

import numpy as np

from . import analysis, gating, training
from .checkpoint import CONFIG_RECORD
from .gating import (CgBlockParams, CgLayerConfig, assemble_dense_weight,
                     channel_shuffle, shuffle_permutation)
from .nn import (ConfigurationError, ConvSpec, BatchNormState, StateError, activation,
                 activation_grad, batchnorm_backward, bn_forward,
                 conv2d_backward, conv2d_forward, linear_backward,
                 linear_forward, maxpool2d_forward, avgpool2d_forward,
                 pool2d_backward, sgd_step)


def _he_init(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)


class ConvBlock:
    """Dense convolution + batch norm + activation (+ optional shuffle)."""

    def __init__(self, spec: ConvSpec, act="relu", shuffle_groups=0, rng=None,
                 name="conv"):
        self.spec = spec
        self.act = act
        self.shuffle_groups = shuffle_groups
        self.name = name
        k = spec.kernel_size
        fan_in = (spec.in_channels // spec.groups) * k * k
        self.w = _he_init(rng, spec.weight_shape, fan_in) if rng is not None \
            else np.zeros(spec.weight_shape)
        self.bn = BatchNormState.create(spec.out_channels)
        self.g_w = np.zeros_like(self.w)
        self.g_gamma = np.zeros_like(self.bn.gamma)
        self.g_beta = np.zeros_like(self.bn.beta)

    def forward_train(self, x):
        y, self._conv_ctx = conv2d_forward(x, self.w, self.spec)
        y, self._bn_ctx = bn_forward(y, self.bn, training=True)
        self._pre = y
        y = activation(y, self.act)
        if self.shuffle_groups:
            y = channel_shuffle(y, self.shuffle_groups)
        return y

    def backward(self, dy):
        if self.shuffle_groups:
            perm = shuffle_permutation(self.spec.out_channels, self.shuffle_groups)
            dy = dy[:, np.argsort(perm)]
        dpre = dy * activation_grad(self._pre, self.act)
        dbn, dgamma, dbeta = batchnorm_backward(self._bn_ctx, dpre)
        self.g_gamma += dgamma
        self.g_beta += dbeta
        dx, dw = conv2d_backward(self._conv_ctx, dbn)
        self.g_w += dw
        return dx

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = conv2d_forward(x, self.w, self.spec)
        h_out, w_out = y.shape[2], y.shape[3]
        n = y.shape[0]
        y, _ = bn_forward(y, self.bn, training=False)
        y = activation(y, self.act)
        if self.shuffle_groups:
            y = channel_shuffle(y, self.shuffle_groups)
        if not collect:
            return y, []
        return y, [analysis.LayerRecord(
            name=self.name, kind="conv", gated=False,
            c_in=self.spec.in_channels, c_out=self.spec.out_channels,
            kernel_size=self.spec.kernel_size, groups=1, gate_kind="",
            tau_c=0.0, h_out=h_out, w_out=w_out, n_samples=n,
            stride=self.spec.stride, padding=self.spec.padding,
            x_in=np.asarray(x) if capture else None,
            w_dense=self.w if capture and self.spec.groups == 1 else None)]

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


class CgConvBlock:
    """A channel gating block as a network layer."""

    def __init__(self, cfg: CgLayerConfig, rng=None, name="cg"):
        self.cfg = cfg
        self.name = name
        self.params = CgBlockParams.init(cfg, rng or np.random.default_rng(0))
        self.freeze_delta = False
        self.ctx = None
        self.g_w_p = np.zeros_like(self.params.w_p)
        self.g_w_r = np.zeros_like(self.params.w_r)
        self.g_gamma = np.zeros_like(self.params.gamma)
        self.g_beta = np.zeros_like(self.params.beta)
        if cfg.gate == "single_sided":
            self.g_delta = np.zeros_like(self.params.gate.delta)
        else:
            self.g_delta_high = np.zeros_like(self.params.gate.delta_high)
            self.g_delta_low = np.zeros_like(self.params.gate.delta_low)

    def forward_train(self, x):
        y, self.ctx = training.cg_block_forward_train(x, self.params, self.cfg)
        if self.cfg.shuffle:
            y = channel_shuffle(y, self.cfg.groups)
        return y

    def backward(self, dy):
        if self.cfg.shuffle:
            perm = shuffle_permutation(self.cfg.conv.out_channels, self.cfg.groups)
            dy = dy[:, np.argsort(perm)]
        g = training.cg_block_backward(self.ctx, dy)
        self.g_w_p += g.dw_p
        self.g_w_r += g.dw_r
        self.g_gamma += g.dgamma
        self.g_beta += g.dbeta
        if not self.freeze_delta:
            if g.ddelta is not None:
                self.g_delta += g.ddelta
            if g.ddelta_high is not None:
                self.g_delta_high += g.ddelta_high
                self.g_delta_low += g.ddelta_low
        return g.dx

    def forward_infer(self, x, collect=False, capture=False):
        y, dm = gating.cg_block_forward_inference(x, self.params, self.cfg)
        if not collect:
            return y, []
        xb = np.asarray(x)
        spec = self.cfg.conv
        return y, [analysis.LayerRecord(
            name=self.name, kind="cg_conv", gated=True,
            c_in=spec.in_channels, c_out=spec.out_channels,
            kernel_size=spec.kernel_size, groups=self.cfg.groups,
            gate_kind=self.cfg.gate, tau_c=self.cfg.tau_c,
            h_out=dm.d.shape[-2], w_out=dm.d.shape[-1],
            n_samples=xb.shape[0] if xb.ndim == 4 else 1,
            stride=spec.stride, padding=spec.padding, dm=dm,
            x_in=xb if capture else None,
            w_dense=assemble_dense_weight(self.params.w_p, self.params.w_r,
                                          self.cfg.groups) if capture else None)]

    def param_groups(self):
        groups = [(f"{self.name}.w_p", self.params.w_p, self.g_w_p, True),
                  (f"{self.name}.w_r", self.params.w_r, self.g_w_r, True),
                  (f"{self.name}.gamma", self.params.gamma, self.g_gamma, False),
                  (f"{self.name}.beta", self.params.beta, self.g_beta, False)]
        if self.cfg.gate == "single_sided":
            groups.append((f"{self.name}.delta", self.params.gate.delta,
                           self.g_delta, False))
        else:
            groups.append((f"{self.name}.delta_high", self.params.gate.delta_high,
                           self.g_delta_high, False))
            groups.append((f"{self.name}.delta_low", self.params.gate.delta_low,
                           self.g_delta_low, False))
        return groups

    def state_items(self):
        # gate_mean/gate_var name BN1's arrays a second time: the records
        # stay for readers of the checkpoint format
        p = self.params
        items = [(f"{self.name}.w_p", p.w_p),
                 (f"{self.name}.w_r", p.w_r),
                 (f"{self.name}.gamma", p.gamma),
                 (f"{self.name}.beta", p.beta),
                 (f"{self.name}.bn1_mean", p.bn1.running_mean),
                 (f"{self.name}.bn1_var", p.bn1.running_var),
                 (f"{self.name}.bn2_mean", p.bn2.running_mean),
                 (f"{self.name}.bn2_var", p.bn2.running_var),
                 (f"{self.name}.gate_mean", p.bn1.running_mean),
                 (f"{self.name}.gate_var", p.bn1.running_var),
                 (f"{self.name}.delta", p.gate.delta)]
        if self.cfg.gate == "two_sided":
            items.append((f"{self.name}.delta_high", p.gate.delta_high))
            items.append((f"{self.name}.delta_low", p.gate.delta_low))
        return items

    def to_dense(self):
        """Dense equivalent: the all-take path (assembled W, BN2 stats)."""
        spec = self.cfg.conv
        blk = ConvBlock(spec, act=self.cfg.activation,
                        shuffle_groups=self.cfg.groups if self.cfg.shuffle else 0,
                        name=self.name)
        blk.w = assemble_dense_weight(self.params.w_p, self.params.w_r,
                                      self.cfg.groups)
        blk.bn = BatchNormState(self.params.gamma.copy(), self.params.beta.copy(),
                                self.params.bn2.running_mean.copy(),
                                self.params.bn2.running_var.copy(),
                                self.params.bn2.momentum, self.params.bn2.eps)
        return blk


class ParameterFreeLayer:
    """A layer without parameters or state: empty parameter groups and
    nothing to checkpoint."""

    def param_groups(self):
        return []

    def state_items(self):
        return []


class MaxPool(ParameterFreeLayer):
    def __init__(self, k=2, name="maxpool"):
        self.k, self.name = k, name

    def forward_train(self, x):
        y, self._ctx = maxpool2d_forward(x, self.k)
        return y

    def backward(self, dy):
        return pool2d_backward(self._ctx, dy)

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = maxpool2d_forward(x, self.k)
        return y, []


class AvgPool(MaxPool):
    def __init__(self, k=2, name="avgpool"):
        super().__init__(k, name)

    def forward_train(self, x):
        y, self._ctx = avgpool2d_forward(x, self.k)
        return y

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = avgpool2d_forward(x, self.k)
        return y, []


class Flatten(ParameterFreeLayer):
    def __init__(self, name="flatten"):
        self.name = name

    def forward_train(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._shape)

    def forward_infer(self, x, collect=False, capture=False):
        return x.reshape(x.shape[0], -1), []


class LinearHead:
    """Final fully-connected classifier (no bias, like every conv here)."""

    def __init__(self, in_features, out_features, rng=None, name="linear"):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.w = _he_init(rng, (out_features, in_features), in_features) \
            if rng is not None else np.zeros((out_features, in_features))
        self.g_w = np.zeros_like(self.w)

    def forward_train(self, x):
        y, self._ctx = linear_forward(x, self.w)
        return y

    def backward(self, dy):
        dx, dw = linear_backward(self._ctx, self.w, dy)
        self.g_w += dw
        return dx

    def forward_infer(self, x, collect=False, capture=False):
        y, _ = linear_forward(x, self.w)
        if not collect:
            return y, []
        return y, [analysis.LayerRecord(
            name=self.name, kind="linear", gated=False,
            c_in=self.in_features, c_out=self.out_features,
            kernel_size=1, groups=1, gate_kind="", tau_c=0.0,
            h_out=1, w_out=1, n_samples=x.shape[0])]

    def param_groups(self):
        return [(f"{self.name}.w", self.w, self.g_w, True)]

    def state_items(self):
        return [(f"{self.name}.w", self.w)]


class ResidualBlock:
    """Two conv blocks (gated or dense) plus a shortcut; ReLU after the add."""

    def __init__(self, a, b, shortcut=None, name="res"):
        self.a, self.b, self.shortcut = a, b, shortcut
        self.name = name

    def forward_train(self, x):
        h = self.a.forward_train(x)
        h = self.b.forward_train(h)
        sc = x if self.shortcut is None else self.shortcut.forward_train(x)
        self._pre = h + sc
        return activation(self._pre, "relu")

    def backward(self, dy):
        dpre = dy * activation_grad(self._pre, "relu")
        dh = self.b.backward(dpre)
        dx = self.a.backward(dh)
        dsc = dpre if self.shortcut is None else self.shortcut.backward(dpre)
        return dx + dsc

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

    def param_groups(self):
        return [g for s in self.sublayers() for g in s.param_groups()]

    def state_items(self):
        return [i for s in self.sublayers() for i in s.state_items()]


class Network:
    """Sequential model over a fixed input shape."""

    def __init__(self, layers, input_shape, num_classes, config=None):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.config = config or {}
        self._vel = None

    # -- passes ------------------------------------------------------------
    def forward_train(self, x):
        for layer in self.layers:
            x = layer.forward_train(x)
        return x

    def backward(self, dlogits):
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def forward_infer(self, x, collect=False, capture=False, require_frozen=True):
        """Inference pass; returns (logits, records). Raises ``StateError``
        when the gate statistics are not frozen unless ``require_frozen`` is
        False."""
        if require_frozen and not self.gates_frozen():
            raise StateError("inference requires frozen gate/BN statistics "
                             "(train first or load a finalized checkpoint)")
        records = []
        for layer in self.layers:
            x, recs = layer.forward_infer(x, collect, capture)
            records += recs
        return x, records

    # -- parameters ----------------------------------------------------------
    def param_groups(self):
        return [g for layer in self.layers for g in layer.param_groups()]

    def zero_grads(self):
        for _, _, g, _ in self.param_groups():
            g[:] = 0

    def sgd_step(self, lr, momentum=0.0, weight_decay=0.0):
        groups = self.param_groups()
        if self._vel is None:
            self._vel = {name: np.zeros_like(p) for name, p, _, _ in groups}
        wd_p, wd_g, wd_v = [], [], []
        plain_p, plain_g, plain_v = [], [], []
        for name, p, g, wd in groups:
            (wd_p if wd else plain_p).append(p)
            (wd_g if wd else plain_g).append(g)
            (wd_v if wd else plain_v).append(self._vel[name])
        sgd_step(wd_p, wd_g, wd_v, lr, momentum, weight_decay)
        sgd_step(plain_p, plain_g, plain_v, lr, momentum, 0.0)
        for layer in self.gated_layers():
            layer.params.gate.clamp_band()

    # -- gating access -------------------------------------------------------
    def gated_layers(self):
        out = []
        for layer in self.layers:
            if isinstance(layer, CgConvBlock):
                out.append(layer)
            elif isinstance(layer, ResidualBlock):
                out.extend(s for s in layer.sublayers() if isinstance(s, CgConvBlock))
        return out

    def mean_delta(self):
        vals = []
        for layer in self.gated_layers():
            gate = layer.params.gate
            if layer.cfg.gate == "single_sided":
                vals.append(gate.delta)
            else:
                vals.append(0.5 * (gate.delta_high - gate.delta_low))
        return float(np.concatenate(vals).mean()) if vals else 0.0

    def gates_frozen(self):
        """Whether every gate's statistics are frozen (True without gates)."""
        return all(layer.params.gate.frozen for layer in self.gated_layers())

    def freeze_gates(self):
        for layer in self.gated_layers():
            layer.params.gate.frozen = True

    def set_force_open(self):
        """Force every gate fully open and stop threshold learning."""
        for layer in self.gated_layers():
            gate = layer.params.gate
            gate.delta[:] = -1e6
            if gate.delta_high is not None:
                gate.delta_high[:] = 1e6
                gate.delta_low[:] = -1e6
            layer.freeze_delta = True

    def set_delta(self, value):
        """Set every gate's one-sided threshold. A two-sided gate thresholds
        a band (delta_low, delta_high) that one value does not define, so
        a network with one raises instead of silently ignoring the value."""
        layers = self.gated_layers()
        two_sided = [layer.name for layer in layers if layer.cfg.gate == "two_sided"]
        if two_sided:
            raise ConfigurationError(
                f"set_delta sets one-sided thresholds; layer(s) {', '.join(two_sided)} "
                f"have two-sided gates")
        for layer in layers:
            layer.params.gate.delta[:] = value

    def shift_delta(self, offset):
        for layer in self.gated_layers():
            gate = layer.params.gate
            gate.delta += offset
            if gate.delta_high is not None:
                gate.delta_high -= offset
                gate.delta_low += offset

    def set_tau_c(self, value):
        for layer in self.gated_layers():
            layer.cfg.tau_c = value

    # -- conversion / serialization -------------------------------------------
    def to_dense(self):
        """Network with every gating block replaced by its dense equivalent."""
        import copy
        new_layers = []
        for layer in self.layers:
            if isinstance(layer, CgConvBlock):
                new_layers.append(layer.to_dense())
            elif isinstance(layer, ResidualBlock):
                subs = [s.to_dense() if isinstance(s, CgConvBlock) else copy.deepcopy(s)
                        for s in (layer.a, layer.b)]
                sc = layer.shortcut
                if isinstance(sc, CgConvBlock):
                    sc = sc.to_dense()
                elif sc is not None:
                    sc = copy.deepcopy(sc)
                new_layers.append(ResidualBlock(subs[0], subs[1], sc, layer.name))
            else:
                new_layers.append(copy.deepcopy(layer))
        return Network(new_layers, self.input_shape, self.num_classes, dict(self.config))

    def state_tensors(self):
        items = []
        for layer in self.layers:
            items.extend(layer.state_items())
        items.append(("__frozen__", np.array([int(self.gates_frozen())], dtype=np.int64)))
        return items

    def load_state_tensors(self, tensors):
        expected = {name for layer in self.layers for name, _ in layer.state_items()}
        unexpected = sorted(set(tensors) - expected - {"__frozen__", CONFIG_RECORD})
        if unexpected:
            raise ConfigurationError(
                f"checkpoint has unexpected tensor(s) {', '.join(map(repr, unexpected))}")
        frozen = "__frozen__" in tensors and bool(tensors["__frozen__"][0])
        loaded = {}   # id of an array -> name of the record loaded into it
        for layer in self.layers:
            for name, arr in layer.state_items():
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
            layer.params.gate.frozen = frozen


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def _cg_config(spec, layer_cfg, defaults):
    def get(key, fallback):
        return layer_cfg.get(key, defaults.get(key, fallback))
    return CgLayerConfig(
        conv=spec,
        groups=int(get("groups", 4)),
        activation=get("activation", "relu"),
        gate=get("gate", ""),
        tau_c=float(get("tau_c", 0.0)),
        epsilon=float(get("epsilon", 4.0)),
        shuffle=bool(get("shuffle", False)),
        band_init=float(get("band_init", 2.0)))


def build_model(model_cfg: dict, rng) -> Network:
    """Construct a Network from the config's model section."""
    try:
        input_shape = tuple(model_cfg["input_shape"])
        num_classes = int(model_cfg["num_classes"])
        layer_specs = model_cfg["layers"]
    except KeyError as e:
        raise ConfigurationError(f"model.{e.args[0]}: required field missing") from None
    defaults = model_cfg.get("cg_defaults", {})
    c, h, w = input_shape
    layers = []
    for i, lc in enumerate(layer_specs):
        name = f"L{i:02d}"
        kind = lc.get("type")
        if kind == "conv":
            spec = ConvSpec(c, int(lc["out_channels"]), int(lc["kernel_size"]),
                            int(lc.get("stride", 1)), int(lc.get("padding", 0)))
            layers.append(ConvBlock(spec, lc.get("activation", "relu"),
                                    int(lc.get("shuffle_groups", 0)), rng, name))
            h, w = spec.out_hw(h, w)
            c = spec.out_channels
        elif kind == "cg_conv":
            spec = ConvSpec(c, int(lc["out_channels"]), int(lc["kernel_size"]),
                            int(lc.get("stride", 1)), int(lc.get("padding", 0)))
            cfg = _cg_config(spec, lc, defaults)
            layers.append(CgConvBlock(cfg, rng, name))
            h, w = spec.out_hw(h, w)
            c = spec.out_channels
        elif kind in ("maxpool", "avgpool"):
            k = int(lc.get("kernel_size", 2))
            layers.append((MaxPool if kind == "maxpool" else AvgPool)(k, name))
            if h % k or w % k:
                raise ConfigurationError(
                    f"model.layers[{i}]: pooling over {h}x{w} not divisible by {k}")
            h, w = h // k, w // k
        elif kind == "flatten":
            layers.append(Flatten(name))
        elif kind == "linear":
            feat = c * h * w if layers and isinstance(layers[-1], Flatten) else c
            layers.append(LinearHead(feat, int(lc["out_features"]), rng, name))
            c, h, w = int(lc["out_features"]), 1, 1
        elif kind == "residual":
            out_c = int(lc["out_channels"])
            stride = int(lc.get("stride", 1))
            use_cg = bool(lc.get("cg", True))
            spec_a = ConvSpec(c, out_c, 3, stride, 1)
            spec_b = ConvSpec(out_c, out_c, 3, 1, 1)
            if use_cg:
                a = CgConvBlock(_cg_config(spec_a, lc, defaults), rng, f"{name}a")
                cfg_b = dict(lc)
                cfg_b["activation"] = "identity"
                b = CgConvBlock(_cg_config(spec_b, cfg_b, defaults), rng, f"{name}b")
            else:
                a = ConvBlock(spec_a, "relu", 0, rng, f"{name}a")
                b = ConvBlock(spec_b, "identity", 0, rng, f"{name}b")
            shortcut = None
            if stride != 1 or out_c != c:
                shortcut = ConvBlock(ConvSpec(c, out_c, 1, stride, 0),
                                     "identity", 0, rng, f"{name}sc")
            layers.append(ResidualBlock(a, b, shortcut, name))
            h, w = spec_a.out_hw(h, w)
            c = out_c
        else:
            raise ConfigurationError(f"model.layers[{i}].type: unknown layer type {kind!r}")
    last = layers[-1] if layers else None
    if not isinstance(last, LinearHead) or last.out_features != num_classes:
        raise ConfigurationError(
            "model.layers: last layer must be a linear head with out_features "
            f"== num_classes ({num_classes})")
    return Network(layers, input_shape, num_classes, model_cfg)
