"""The batch contract: activations are (n, c, h, w) float64 batches. Every
engine entry point rejects a single (c, h, w) map with a
``ConfigurationError`` and runs the same map as a batch of one."""

import numpy as np
import pytest

from cgnet import nn, training
from cgnet.gating import CgBlockParams, CgLayerConfig
from cgnet.network import build_model
from cgnet.nn import BatchNormState, ConfigurationError, ConvSpec

from _oracles import block_inference

SPEC = ConvSpec(4, 4, 3, padding=1)
CFG = CgLayerConfig(SPEC, groups=2)
MODEL = {
    "input_shape": [4, 8, 8],
    "num_classes": 2,
    "cg_defaults": {"groups": 2},
    "layers": [
        {"type": "conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
        {"type": "cg_conv", "out_channels": 4, "kernel_size": 3, "padding": 1},
        {"type": "maxpool", "kernel_size": 2},
        {"type": "flatten"},
        {"type": "linear", "out_features": 2},
    ],
}


def block_params():
    return CgBlockParams.init(CFG, np.random.default_rng(0))


def network(frozen):
    model = build_model(MODEL, np.random.default_rng(1))
    if frozen:
        model.freeze_gates()
    return model


ENTRY_POINTS = {
    "nn.conv2d": lambda x: nn.conv2d(x, np.ones(SPEC.weight_shape), SPEC),
    "nn.conv2d_forward": lambda x: nn.conv2d_forward(x, np.ones(SPEC.weight_shape), SPEC),
    "nn.bn_forward": lambda x: nn.bn_forward(x, BatchNormState.create(4)),
    "nn.maxpool2d": lambda x: nn.maxpool2d(x, 2),
    "nn.maxpool2d_forward": lambda x: nn.maxpool2d_forward(x, 2),
    "nn.avgpool2d_forward": lambda x: nn.avgpool2d_forward(x, 2),
    "gating.cg_block_forward_inference":
        lambda x: block_inference(x, block_params(), CFG),
    "training.cg_block_forward_train":
        lambda x: training.cg_block_forward_train(x, block_params(), CFG),
    "Network.forward_train": lambda x: network(False).forward_train(x),
    "Network.forward_infer": lambda x: network(True).forward_infer(x),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_single_map_rejected(entry):
    x = np.random.default_rng(2).standard_normal((4, 8, 8))
    with pytest.raises(ConfigurationError, match=r"\(n, c, h, w\) batch"):
        ENTRY_POINTS[entry](x)
    ENTRY_POINTS[entry](x[None])
