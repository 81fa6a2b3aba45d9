"""Activation memory order: every (n, c, h, w) batch a layer returns, its
backward's input gradient, every decision map and every batch a training
context keeps, layer inputs included, lays its memory out as (c, h, w, n).
The one exception is the network's input, which the first layer keeps in
the caller's order.

A stray C-order ``.copy()``, ``np.pad`` or fancy index on the activation
path still gives correct values, so no numeric test notices it; it only
costs the speed of the sample-innermost layout. This guard does notice it.
"""

import numpy as np
import pytest

from cgnet.network import (CgConvBlock, ConvBlock, MaxPool, ResidualBlock,
                           build_model)


def vgg_cfg():
    return {
        "input_shape": [2, 12, 12],
        "num_classes": 3,
        "cg_defaults": {"groups": 2, "tau_c": 0.2},
        "layers": [
            {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
            {"type": "cg_conv", "out_channels": 6, "kernel_size": 3, "padding": 1,
             "shuffle": True},
            {"type": "maxpool", "kernel_size": 2},
            {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "stride": 2,
             "padding": 1, "activation": "tanh"},
            {"type": "cg_conv", "out_channels": 8, "kernel_size": 1, "groups": 1},
            {"type": "avgpool", "kernel_size": 3},
            {"type": "flatten"},
            {"type": "linear", "out_features": 3},
        ],
    }


def resnet_cfg():
    return {
        "input_shape": [1, 8, 8],
        "num_classes": 3,
        "cg_defaults": {"groups": 2, "tau_c": 0.3, "shuffle": True},
        "layers": [
            {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
            {"type": "residual", "out_channels": 4},
            {"type": "residual", "out_channels": 6, "stride": 2},
            {"type": "residual", "out_channels": 6, "cg": False},
            {"type": "avgpool", "kernel_size": 4},
            {"type": "flatten"},
            {"type": "linear", "out_features": 3},
        ],
    }


def layers_of(model):
    """Every layer and every leaf: residual blocks and their sublayers."""
    return list({id(layer): layer for layer in model.layers + model.leaves()}.values())


def record_outputs(model, method, outputs):
    """Wrap ``method`` of every layer object to append its outputs."""
    for layer in layers_of(model):
        def wrapped(*args, _f=getattr(layer, method), _name=layer.name, **kw):
            out = _f(*args, **kw)
            y = out[0] if isinstance(out, tuple) else out
            outputs.append((_name, y))
            return out
        setattr(layer, method, wrapped)


def assert_sample_innermost(name, a):
    """The (c, h, w, n) view of ``a`` is C-contiguous."""
    assert a.ndim == 4, name
    assert a.transpose(1, 2, 3, 0).flags.c_contiguous, \
        f"{name}: strides {a.strides} of shape {a.shape} are not (c, h, w, n) order"


@pytest.mark.parametrize("cfg", [vgg_cfg, resnet_cfg])
def test_batches_and_decision_maps_are_sample_innermost(cfg):
    rng = np.random.default_rng(3)
    model = build_model(cfg(), rng)
    x = rng.standard_normal((3,) + model.input_shape)   # C-ordered input

    outputs = []
    record_outputs(model, "forward_train", outputs)
    model.forward_train(x)
    gated = [layer for layer in layers_of(model) if isinstance(layer, CgConvBlock)]
    assert gated
    for layer in gated:
        assert_sample_innermost(f"{layer.name} training decisions", layer.ctx.d)
    model.freeze_gates()
    record_outputs(model, "forward_infer", outputs)
    _, records = model.forward_infer(x, collect=True)

    batches = [(name, y) for name, y in outputs if y.ndim == 4]
    assert len(batches) == 2 * (len(list(layers_of(model))) - 2)
    for name, y in batches:
        assert_sample_innermost(name, y)
    maps = [rec for rec in records if rec.dm is not None]
    assert len(maps) == len(gated)
    for rec in maps:
        assert_sample_innermost(f"{rec.name} decisions", rec.dm.d)


def context_batches(layer):
    """(label, array) of the batches a layer's training context keeps."""
    ctx = layer.ctx
    if isinstance(layer, CgConvBlock):
        return [("x^_g", ctx.bn1_ctx.xhat), ("x^_2", ctx.bn2_ctx.xhat), ("fprime", ctx.fprime),
                ("input", ctx.conv.x)]
    if isinstance(layer, ConvBlock):
        return [("xhat", ctx.bn.xhat), ("fprime", ctx.fprime), ("input", ctx.conv.x)]
    if isinstance(layer, ResidualBlock):
        return [("mask", ctx)]   # the ReLU's
    if isinstance(layer, MaxPool) and ctx.argmax is not None:
        return [("argmax", ctx.argmax)]
    return []


@pytest.mark.parametrize("cfg", [vgg_cfg, resnet_cfg])
def test_training_contexts_and_input_gradients_are_sample_innermost(cfg):
    rng = np.random.default_rng(4)
    model = build_model(cfg(), rng)
    x = rng.standard_normal((3,) + model.input_shape)

    grads = []
    record_outputs(model, "backward", grads)
    logits = model.forward_train(x)
    model.backward(rng.standard_normal(logits.shape))

    # the first layer keeps the caller's batch, in the caller's order
    kept = [(f"{layer.name} {label}", a) for layer in layers_of(model)
            for label, a in context_batches(layer) if a is not x]
    kinds = {label.split()[-1] for label, _ in kept}
    assert {"x^_g", "x^_2", "fprime", "xhat", "input"} <= kinds
    assert ("argmax" in kinds) == (cfg is vgg_cfg)
    for name, a in kept:
        assert_sample_innermost(name, a)
    dxs = [(f"{name} dx", dx) for name, dx in grads if dx.ndim == 4]
    assert len(dxs) == len(layers_of(model)) - 1   # all but the linear head's
    for name, dx in dxs:
        assert_sample_innermost(name, dx)
