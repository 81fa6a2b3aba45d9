"""Model composition: builder, dense conversion, gradient chaining."""

import numpy as np
import pytest

from cgnet import nn
from cgnet.network import build_model
from cgnet.nn import ConfigurationError, StateError

from _oracles import check_grad, rel_err


def vgg_ish_cfg():
    return {
        "input_shape": [1, 16, 16],
        "num_classes": 4,
        "cg_defaults": {"groups": 4, "epsilon": 4.0},
        "layers": [
            {"type": "conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
            {"type": "maxpool", "kernel_size": 2},
            {"type": "cg_conv", "out_channels": 16, "kernel_size": 3,
             "padding": 1, "shuffle": True},
            {"type": "maxpool", "kernel_size": 2},
            {"type": "cg_conv", "out_channels": 16, "kernel_size": 3, "padding": 1},
            {"type": "avgpool", "kernel_size": 4},
            {"type": "flatten"},
            {"type": "linear", "out_features": 4},
        ],
    }


def resnet_ish_cfg():
    return {
        "input_shape": [1, 16, 16],
        "num_classes": 4,
        "cg_defaults": {"groups": 4},
        "layers": [
            {"type": "conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
            {"type": "residual", "out_channels": 8},
            {"type": "residual", "out_channels": 16, "stride": 2},
            {"type": "avgpool", "kernel_size": 8},
            {"type": "flatten"},
            {"type": "linear", "out_features": 4},
        ],
    }


class TestBuilder:
    def test_builds_and_runs(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        logits = model.forward_train(x)
        assert logits.shape == (2, 4)
        model.freeze_gates()
        logits2, records = model.forward_infer(x, collect=True)
        assert logits2.shape == (2, 4)
        assert sum(1 for r in records if r.gated) == 2

    def test_residual_builds_and_runs(self, rng):
        model = build_model(resnet_ish_cfg(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        assert model.forward_train(x).shape == (2, 4)
        model.freeze_gates()
        _, records = model.forward_infer(x, collect=True)
        # two CG convs per residual block
        assert sum(1 for r in records if r.gated) == 4

    def test_unknown_layer_type_rejected(self, rng):
        cfg = vgg_ish_cfg()
        cfg["layers"][0] = {"type": "deconv", "out_channels": 4}
        with pytest.raises(ConfigurationError, match="deconv"):
            build_model(cfg, rng)

    def test_missing_head_rejected(self, rng):
        cfg = vgg_ish_cfg()
        cfg["layers"] = cfg["layers"][:-1]
        with pytest.raises(ConfigurationError, match="linear head"):
            build_model(cfg, rng)


class TestDenseEquivalence:
    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_forced_open_matches_dense_twin(self, rng, cfg_fn):
        model = build_model(cfg_fn(), rng)
        # non-trivial running stats so the equivalence is not vacuous
        for layer in model.gated_layers():
            for bn in (layer.params.bn1, layer.params.bn2):
                bn.running_mean[:] = rng.standard_normal(len(bn.running_mean)) * 0.2
                bn.running_var[:] = rng.uniform(0.5, 1.5, len(bn.running_var))
        model.set_force_open()
        model.freeze_gates()
        dense = model.to_dense()
        x = rng.standard_normal((4, 1, 16, 16))
        y_gated, _ = model.forward_infer(x)
        y_dense, _ = dense.forward_infer(x)
        assert rel_err(y_gated, y_dense) < 1e-5

    def test_delta_override_equals_dense_accuracy(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        model.set_delta(-1e6)
        model.freeze_gates()
        dense = model.to_dense()
        x = rng.standard_normal((8, 1, 16, 16))
        yg, _ = model.forward_infer(x)
        yd, _ = dense.forward_infer(x)
        assert np.array_equal(np.argmax(yg, axis=1), np.argmax(yd, axis=1))

    def test_set_delta_rejects_two_sided_layers(self, rng):
        cfg = vgg_ish_cfg()
        cfg["layers"][4]["activation"] = "tanh"  # two-sided gate on L04
        model = build_model(cfg, rng)
        before = [layer.params.gate.delta.copy() for layer in model.gated_layers()]
        with pytest.raises(ConfigurationError, match="L04"):
            model.set_delta(1e6)
        for layer, delta in zip(model.gated_layers(), before):
            np.testing.assert_array_equal(layer.params.gate.delta, delta)


class TestGradientChaining:
    def test_network_fd_with_stable_gates(self, rng):
        # margins keep hard decisions constant under the FD step, so the
        # analytic gradients must match central differences end to end
        cfg = {
            "input_shape": [2, 8, 8],
            "num_classes": 3,
            "cg_defaults": {"groups": 2, "epsilon": 4.0},
            "layers": [
                {"type": "cg_conv", "out_channels": 4, "kernel_size": 3,
                 "padding": 1, "activation": "tanh"},
                {"type": "avgpool", "kernel_size": 4},
                {"type": "flatten"},
                {"type": "linear", "out_features": 3},
            ],
        }
        model = build_model(cfg, rng)
        model.set_force_open()
        x = rng.standard_normal((2, 2, 8, 8))
        labels = np.array([0, 2])

        def loss():
            logits = model.forward_train(x)
            return nn.cross_entropy(logits, labels)[0]

        logits = model.forward_train(x)
        _, dlogits = nn.cross_entropy(logits, labels)
        model.zero_grads()
        model.backward(dlogits)
        cg = model.layers[0]
        check_grad(loss, cg.params.w_p, cg.g_w_p)
        check_grad(loss, cg.params.w_r, cg.g_w_r)
        check_grad(loss, cg.params.gamma, cg.g_gamma)
        head = model.layers[-1]
        check_grad(loss, head.w, head.g_w)

    def test_residual_fd(self, rng):
        cfg = {
            "input_shape": [4, 8, 8],
            "num_classes": 2,
            "cg_defaults": {"groups": 2},
            "layers": [
                {"type": "residual", "out_channels": 8, "stride": 2},
                {"type": "avgpool", "kernel_size": 4},
                {"type": "flatten"},
                {"type": "linear", "out_features": 2},
            ],
        }
        model = build_model(cfg, rng)
        model.set_force_open()
        x = rng.standard_normal((2, 4, 8, 8))
        labels = np.array([1, 0])

        def loss():
            logits = model.forward_train(x)
            return nn.cross_entropy(logits, labels)[0]

        logits = model.forward_train(x)
        _, dlogits = nn.cross_entropy(logits, labels)
        model.zero_grads()
        model.backward(dlogits)
        res = model.layers[0]
        check_grad(loss, res.a.params.w_p, res.a.g_w_p)
        check_grad(loss, res.b.params.w_r, res.b.g_w_r)
        check_grad(loss, res.shortcut.w, res.shortcut.g_w)

    def test_shuffle_backward_is_inverse(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        logits = model.forward_train(x)
        dlogits = rng.standard_normal(logits.shape)
        model.zero_grads()
        dx = model.backward(dlogits)
        assert dx.shape == x.shape
        assert np.all(np.isfinite(dx))

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_zero_grads_clears_every_buffer(self, rng, cfg_fn):
        model = build_model(cfg_fn(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        model.backward(rng.standard_normal(model.forward_train(x).shape))
        assert all(np.any(g) for _, _, g, _ in model.param_groups())
        model.zero_grads()
        assert all(not np.any(g) for _, _, g, _ in model.param_groups())


class TestFrozenGuard:
    def test_requires_frozen_stats(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        with pytest.raises(StateError, match="frozen"):
            model.forward_infer(x)
        logits, _ = model.forward_infer(x, require_frozen=False)
        assert logits.shape == (2, 4)
        dense_logits, _ = model.to_dense().forward_infer(x)
        assert dense_logits.shape == (2, 4)


class TestStateRoundtrip:
    def test_state_tensor_roundtrip(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        model.freeze_gates()
        tensors = dict(model.state_tensors())
        clone = build_model(vgg_ish_cfg(), np.random.default_rng(999))
        clone.load_state_tensors(tensors)
        x = rng.standard_normal((2, 1, 16, 16))
        ya, _ = model.forward_infer(x)
        yb, _ = clone.forward_infer(x)
        np.testing.assert_array_equal(ya, yb)
