"""Model composition: builder, dense conversion, gradient chaining,
training-context lifetime."""

import copy
import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import checkpoint, network, nn, training
from cgnet.analysis import network_pruning_ratio
from cgnet.data import synthetic_dataset
from cgnet.gating import shuffle_permutation
from cgnet.network import CgConvBlock, ConvBlock, build_model
from cgnet.nn import ConfigurationError, StateError

from _oracles import check_grad
from _workers import band_workers

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
VGG8 = CONFIGS / "vgg8_cg.json"


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


# one layer of each type, for the builder's layer-order tests; a shape one
# cannot take (a conv of stride 2 and no padding shrinks 8x8 to 3x3 to 1x1,
# a pool halves it) names its layer too
ORDER_LAYERS = {
    "conv": {"type": "conv", "out_channels": 2, "kernel_size": 3, "stride": 2},
    "cg_conv": {"type": "cg_conv", "out_channels": 2, "kernel_size": 3, "padding": 1},
    "maxpool": {"type": "maxpool", "kernel_size": 2},
    "avgpool": {"type": "avgpool", "kernel_size": 2},
    "flatten": {"type": "flatten"},
    "linear": {"type": "linear", "out_features": 3},
    "residual": {"type": "residual", "out_channels": 2, "stride": 2},
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

    @pytest.mark.parametrize("cfg_fn,edit,field", [
        (vgg_ish_cfg, lambda m: m["layers"][0].pop("out_channels"),
         "model.layers[0].out_channels: required"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(out_channels="abc"),
         "model.layers[2].out_channels: expected int"),
        (vgg_ish_cfg, lambda m: m["layers"][7].update(out_features="four"),
         "model.layers[7].out_features: expected int"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(groups="four"),
         "model.layers[2].groups: expected int"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(shuffle="false"),
         "model.layers[2].shuffle: expected true or false"),
        (vgg_ish_cfg, lambda m: m.update(input_shape=[1, 16]), "model.input_shape: expected"),
        (vgg_ish_cfg, lambda m: m.update(input_shape="1x16x16"), "model.input_shape: expected"),
        (vgg_ish_cfg, lambda m: m.update(input_shape=[1, 16.0, 16]), "model.input_shape: expected"),
        (resnet_ish_cfg, lambda m: m["layers"][1].pop("out_channels"),
         "model.layers[1].out_channels: required"),
        (resnet_ish_cfg, lambda m: m["layers"][1].update(cg="false"),
         "model.layers[1].cg: expected true or false"),
        (resnet_ish_cfg, lambda m: m["layers"][1].update(shuffle=1),
         "model.layers[1].shuffle: expected true or false"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(epsilon=float("nan")),
         "model.layers[2].epsilon: expected a finite number"),
        (vgg_ish_cfg, lambda m: m["layers"][4].update(band_init=2.0),
         "model.layers[4].band_init: expected no such key"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(gate="two_sided"),
         "model.layers[2].gate: expected no such key"),
        (vgg_ish_cfg, lambda m: m["layers"][4].update(tau_c=float("-inf")),
         "model.layers[4].tau_c: expected a finite number"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(out_channels=float("inf")),
         "model.layers[2].out_channels: expected int, got inf"),
        # a pooling window of 0 used to divide by zero, and -2 to index past the input
        (vgg_ish_cfg, lambda m: m["layers"][1].update(kernel_size=0),
         "model.layers[1].kernel_size: must be >= 1, got 0"),
        (vgg_ish_cfg, lambda m: m["layers"][5].update(kernel_size=-2),
         "model.layers[5].kernel_size: must be >= 1, got -2"),
        # a conv's shape fields used to fail in ConvSpec without naming the field
        (vgg_ish_cfg, lambda m: m["layers"][0].update(kernel_size=0),
         "model.layers[0].kernel_size: must be >= 1, got 0"),
        (vgg_ish_cfg, lambda m: m["layers"][0].update(out_channels=0),
         "model.layers[0].out_channels: must be >= 1, got 0"),
        (vgg_ish_cfg, lambda m: m["layers"][2].update(stride=0),
         "model.layers[2].stride: must be >= 1, got 0"),
        (vgg_ish_cfg, lambda m: m["layers"][4].update(padding=-1),
         "model.layers[4].padding: must be >= 0, got -1"),
        (resnet_ish_cfg, lambda m: m["layers"][1].update(out_channels=0),
         "model.layers[1].out_channels: must be >= 1, got 0"),
        (resnet_ish_cfg, lambda m: m["layers"][2].update(stride=-1),
         "model.layers[2].stride: must be >= 1, got -1"),
        (vgg_ish_cfg, lambda m: m["layers"][0].update(kernel_size=20),
         "model.layers[0]: conv output would be -1x-1 for input 16x16"),
        (vgg_ish_cfg, lambda m: m["layers"][4].update(kernel_size=7),
         "model.layers[4]: conv output would be 0x0 for input 4x4"),
    ])
    def test_malformed_field_named(self, rng, cfg_fn, edit, field):
        cfg = cfg_fn()
        edit(cfg)
        with pytest.raises(ConfigurationError) as err:
            build_model(cfg, rng)
        assert field in str(err.value)

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("default,message", [
        ({"gate": "x"}, "model.cg_defaults.gate: expected no such key"),
        ({"groups": "abc"}, "model.cg_defaults.groups: expected int, got 'abc'"),
        ({"tau_c": 7.0}, "model.cg_defaults.tau_c: must be in [0, 1], got 7.0"),
        ({"tau_c": "x"}, "model.cg_defaults.tau_c: expected a number, got 'x'"),
        ({"activation": "nope"}, "model.cg_defaults.activation: unknown activation 'nope'"),
        ({"epsilon": -1.0}, "model.cg_defaults.epsilon: must be positive and finite, got -1.0"),
    ])
    def test_cg_defaults_checked_once_under_their_own_name(self, rng, gated, default, message):
        # with no gated layer nothing reads the defaults, yet they are
        # checked; with one, the error names the default, not the layer
        cfg = vgg_ish_cfg()
        if not gated:
            for layer in cfg["layers"]:
                if layer["type"] == "cg_conv":
                    layer["type"] = "conv"
                    layer.pop("shuffle", None)
        cfg["cg_defaults"].update(default)
        with pytest.raises(ConfigurationError) as err:
            build_model(cfg, rng)
        assert str(err.value).startswith(message)

    def test_a_default_the_channels_cannot_take_names_the_layer(self, rng):
        cfg = vgg_ish_cfg()
        cfg["cg_defaults"]["groups"] = 3
        with pytest.raises(ConfigurationError, match=r"^model\.layers\[2\]\.groups: channels "
                                                     r"\(8 in, 16 out\) not divisible by 3"):
            build_model(cfg, rng)

    def test_unknown_dense_activation_rejected_at_build(self, rng):
        cfg = vgg_ish_cfg()
        cfg["layers"][0]["activation"] = "bogus"
        with pytest.raises(ConfigurationError,
                           match=r"model\.layers\[0\]\.activation: unknown activation 'bogus'"):
            build_model(cfg, rng)

    @pytest.mark.parametrize("kinds,message", [
        # the backward used to unpack a flat batch as (n, c, h, w)
        (["conv", "flatten", "flatten"], "model.layers[2]: flatten needs an (n, c, h, w)"),
        # a linear used to read c features of an (n, c, h, w) batch
        (["conv"], "model.layers[1]: linear needs a flatten or a linear before it"),
        ([], "model.layers[0]: linear needs a flatten or a linear before it"),
        (["flatten", "conv"], "model.layers[1]: conv needs an (n, c, h, w)"),
        (["flatten", "linear", "cg_conv"], "model.layers[2]: cg_conv needs"),
        (["flatten", "maxpool"], "model.layers[1]: maxpool needs"),
        (["conv", "flatten", "avgpool"], "model.layers[2]: avgpool needs"),
        (["flatten", "residual"], "model.layers[1]: residual needs"),
    ])
    def test_a_layer_order_that_cannot_run_is_named(self, rng, kinds, message):
        cfg = {"input_shape": [4, 4, 4], "num_classes": 2, "cg_defaults": {"groups": 2},
               "layers": [ORDER_LAYERS[kind] for kind in kinds]
               + [{"type": "linear", "out_features": 2}]}
        with pytest.raises(ConfigurationError) as err:
            build_model(cfg, rng)
        assert str(err.value).startswith(message)

    @settings(max_examples=100, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(ORDER_LAYERS)), max_size=5),
           tail=st.sampled_from([[], ["flatten"]]), seed=st.integers(0, 2**32 - 1))
    def test_every_layer_order_builds_and_runs_or_is_named(self, kinds, tail, seed):
        # a model build_model returns runs a training step and a frozen
        # forward at batch 2; any other order raises naming the layer. The
        # head of num_classes outputs comes last, after a flatten or not
        kinds = kinds + tail
        cfg = {"input_shape": [1, 8, 8], "num_classes": 2, "cg_defaults": {"groups": 1},
               "layers": [ORDER_LAYERS[kind] for kind in kinds]
               + [{"type": "linear", "out_features": 2}]}
        kinds = kinds + ["linear"]
        flat = [False] + [kind in ("flatten", "linear") for kind in kinds]
        first_misplaced = next((i for i, kind in enumerate(kinds)
                                if flat[i] != (kind == "linear")), None)
        rng = np.random.default_rng(seed)
        try:
            model = build_model(cfg, rng)
        except ConfigurationError as e:
            at = re.match(r"model\.layers\[(\d+)\]", str(e))
            assert at, str(e)
            assert first_misplaced is None or int(at[1]) <= first_misplaced, (str(e), kinds)
            return
        assert first_misplaced is None, kinds
        x = rng.standard_normal((2, 1, 8, 8))
        logits = model.forward_train(x)
        assert logits.shape == (2, 2)
        assert model.backward(np.ones_like(logits)).shape == x.shape
        model.freeze_gates()
        logits, _ = model.forward_infer(x)
        assert logits.shape == (2, 2) and np.isfinite(logits).all()

    def test_set_tau_c_out_of_range_writes_no_layer(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        for value in (5.0, -0.1, float("nan")):
            with pytest.raises(ConfigurationError, match="tau_c"):
                model.set_tau_c(value)
            assert all(layer.cfg.tau_c == 0.0 for layer in model.gated_layers())
        model.set_tau_c(1.0)
        assert all(layer.cfg.tau_c == 1.0 for layer in model.gated_layers())

    def test_set_tau_c_leaves_collected_records(self, rng):
        # a record references its layer's config; a later set_tau_c must not
        # re-cost it with a tau_c its channel masks were not made with
        from cgnet import analysis
        model = build_model(vgg_ish_cfg(), rng)
        x = rng.standard_normal((4, 1, 16, 16))
        model.forward_train(x)
        model.freeze_gates()
        _, records = model.forward_infer(x, collect=True)
        before = analysis.count_flops(records).comparisons_total
        model.set_tau_c(0.5)
        assert analysis.count_flops(records).comparisons_total == before
        _, records = model.forward_infer(x, collect=True)
        assert all(rec.cfg.tau_c == 0.5 for rec in records if rec.gated)


def with_shuffle(cfg_fn):
    cfg = cfg_fn()
    cfg["cg_defaults"]["shuffle"] = True
    return cfg


def arrays(model):
    """Every state tensor, parameter and gradient buffer of ``model``."""
    return [a for _, a in model.state_tensors()] + \
           [a for _, p, g, _ in model.param_groups() for a in (p, g)]


class TestLayerWalk:
    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_leaves_run_in_execution_order(self, rng, cfg_fn):
        model = build_model(with_shuffle(cfg_fn), rng)
        calls = []
        for leaf in model.leaves():
            def wrapped(x, _f=leaf.forward_train, _name=leaf.name):
                calls.append(_name)
                return _f(x)
            leaf.forward_train = wrapped
        model.forward_train(rng.standard_normal((2, 1, 16, 16)))
        assert calls == [leaf.name for leaf in model.leaves()]

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_leaves_order_parameter_and_state_names(self, rng, cfg_fn):
        model = build_model(with_shuffle(cfg_fn), rng)
        leaves = [leaf.name for leaf in model.leaves()]
        for names in ([name for name, *_ in model.param_groups()],
                      [name for name, _ in model.state_tensors()][:-1]):
            owners = list(dict.fromkeys(name.split(".")[0] for name in names))
            assert owners == [leaf for leaf in leaves if leaf in owners]

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_dense_twin_shares_no_layer_and_no_memory(self, rng, cfg_fn):
        model = build_model(with_shuffle(cfg_fn), rng)
        model.forward_train(rng.standard_normal((2, 1, 16, 16)))
        dense = model.to_dense()
        assert [t.name for t in dense.leaves()] == [s.name for s in model.leaves()]
        for twin in dense.layers + dense.leaves():
            assert not any(twin is src for src in model.layers + model.leaves()), twin.name
        for a in arrays(dense):
            assert not any(np.shares_memory(a, b) for b in arrays(model))


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
        # both run nn.conv2d_forward and the BN2 epilogue on the same kernel
        np.testing.assert_array_equal(y_gated, y_dense)

    def test_delta_override_equals_dense_accuracy(self, rng):
        model = build_model(vgg_ish_cfg(), rng)
        model.set_delta(-1e6)
        model.freeze_gates()
        dense = model.to_dense()
        x = rng.standard_normal((8, 1, 16, 16))
        yg, _ = model.forward_infer(x)
        yd, _ = dense.forward_infer(x)
        assert np.array_equal(np.argmax(yg, axis=1), np.argmax(yd, axis=1))

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_dense_twin_shares_no_memory_with_the_kernel(self, rng, cfg_fn):
        model = build_model(cfg_fn(), rng)
        twins = {twin.name: twin for twin in model.to_dense().leaves()}
        for layer in model.gated_layers():
            twin = twins[layer.name]
            # a shuffled layer's twin holds W's rows in shuffled order
            c_out, G = layer.cfg.conv.out_channels, layer.cfg.groups
            order = shuffle_permutation(c_out, G) if layer.cfg.shuffle else np.arange(c_out)
            np.testing.assert_array_equal(twin.w, layer.params.w[order])
            assert not np.shares_memory(twin.w, layer.params.w)
            twin.w += 1.0
            assert not np.array_equal(twin.w, layer.params.w)

    def test_set_delta_rejects_two_sided_layers(self, rng):
        cfg = vgg_ish_cfg()
        cfg["layers"][4]["activation"] = "tanh"  # two-sided gate on L04
        model = build_model(cfg, rng)
        before = [[t.copy() for _, t in layer.params.gate.thresholds()]
                  for layer in model.gated_layers()]
        with pytest.raises(ConfigurationError, match="L04"):
            model.set_delta(1e6)
        for layer, copies in zip(model.gated_layers(), before):
            for (_, t), old in zip(layer.params.gate.thresholds(), copies):
                np.testing.assert_array_equal(t, old)


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
        check_grad(loss, cg.params.w, cg.g_w)
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
        check_grad(loss, res.a.params.w, res.a.g_w)
        check_grad(loss, res.b.params.w, res.b.g_w)
        check_grad(loss, res.shortcut.w, res.shortcut.g_w)

    @pytest.mark.parametrize("cg", [True, False], ids=["gated", "dense"])
    def test_identity_shortcut_residual_fd(self, rng, cg):
        # stride 1 and the input's channels: the shortcut is the identity, so
        # the block's upstream goes to sublayer b, which consumes it, and to
        # dx unchanged
        cfg = {
            "input_shape": [4, 6, 6],
            "num_classes": 2,
            "cg_defaults": {"groups": 2},
            "layers": [
                {"type": "residual", "out_channels": 4, "cg": cg},
                {"type": "avgpool", "kernel_size": 3},
                {"type": "flatten"},
                {"type": "linear", "out_features": 2},
            ],
        }
        model = build_model(cfg, rng)
        model.set_force_open()
        res = model.layers[0]
        assert res.shortcut is None
        x = rng.standard_normal((2, 4, 6, 6))
        labels = np.array([1, 0])

        def loss():
            logits = model.forward_train(x)
            return nn.cross_entropy(logits, labels)[0]

        logits = model.forward_train(x)
        _, dlogits = nn.cross_entropy(logits, labels)
        model.zero_grads()
        dx = model.backward(dlogits)
        # a step of 1e-3 moves ReLU inputs across 0 at this seed
        check_grad(loss, x, dx, step=1e-5)
        for sub in (res.a, res.b):
            for _, param, grad, _ in sub.param_groups():
                check_grad(loss, param, grad, step=1e-5)

    @pytest.mark.parametrize("head", ["linear", "residual"])
    def test_backward_leaves_the_callers_gradient(self, rng, head):
        # each layer may consume its upstream gradient; the network's
        # caller keeps its own. A network that ends in the residual block
        # takes a sample-innermost batch, which the block would consume
        model = build_model(resnet_ish_cfg(), rng)
        if head == "residual":
            model = network.Network(model.layers[:2], model.input_shape, 8)
        logits = model.forward_train(rng.standard_normal((2, 1, 16, 16)))
        dlogits = np.empty_like(logits)   # in the logits' memory order
        dlogits[...] = rng.standard_normal(logits.shape)
        before = dlogits.tobytes()
        model.backward(dlogits)
        assert dlogits.tobytes() == before

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

    @pytest.mark.parametrize("name", ["vgg8_cg", "resnet_cg"])
    def test_one_conv_backward_per_conv_layer(self, rng, name):
        # every conv layer, dense, gated or shortcut, takes its gradients
        # from one nn.conv2d_backward call on its own forward's context
        model = build_model(json.loads((CONFIGS / f"{name}.json").read_text())["model"], rng)
        logits = model.forward_train(rng.standard_normal((2,) + model.input_shape))
        convs = [leaf for leaf in model.leaves() if isinstance(leaf, (ConvBlock, CgConvBlock))]
        assert {type(leaf) for leaf in convs} == {ConvBlock, CgConvBlock}
        assert name == "vgg8_cg" or any(leaf.name.endswith("sc") for leaf in convs)
        seen, backward = [], nn.conv2d_backward

        def counting(ctx, *args):
            seen.append(id(ctx))
            return backward(ctx, *args)

        with pytest.MonkeyPatch.context() as mp:
            for module in (nn, network, training):
                mp.setattr(module, "conv2d_backward", counting)
            model.backward(rng.standard_normal(logits.shape))
        assert sorted(seen) == sorted(id(leaf.ctx.conv) for leaf in convs)


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

    def test_unseeded_build_has_zero_kernels(self):
        # a checkpoint load builds without an rng and overwrites every kernel,
        # so none is drawn: conv, gated, shortcut and linear layers alike
        model = build_model(resnet_ish_cfg(), None)
        kinds = {type(leaf).__name__ for leaf in model.leaves()}
        assert {"ConvBlock", "CgConvBlock", "LinearHead"} <= kinds
        kernels = [p for name, p, _, _ in model.param_groups() if name.endswith(".w")]
        assert len(kernels) == 7   # conv, 2 x (a, b), the shortcut, linear
        assert all(not k.any() for k in kernels)


def layer_objects(model):
    """Every layer object: the top-level layers and the residual sublayers."""
    return model.layers + model.leaves()


def start_order(model):
    """Every layer object in the order its ``forward_train`` starts: a
    residual block, then its sublayers."""
    return [obj for layer in model.layers
            for obj in [layer] + (layer.sublayers() if hasattr(layer, "sublayers") else [])]


class TestContextLifetime:
    """``forward_train`` sets every layer's ``ctx``, releasing the stale one
    first, one layer at a time; it survives a step, ``freeze_gates`` drops
    it and ``to_dense`` copies none."""

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_each_layer_releases_its_own_context_as_it_builds(self, rng, cfg_fn):
        # when a layer starts building its context, its stale one is gone and
        # every layer after it, a residual block's later sublayers included,
        # still holds its own: release is per layer, not all at once
        model = build_model(cfg_fn(), rng)
        x = rng.standard_normal((2, 1, 16, 16))
        model.backward(np.ones_like(model.forward_train(x)))
        order = start_order(model)
        seen = []
        for i, layer in enumerate(order):
            def build(x, layer=layer, later=order[i + 1:], inner=layer._forward_train):
                seen.append((layer.name, layer.ctx is None,
                             [obj.name for obj in later if obj.ctx is None]))
                return inner(x)
            layer._forward_train = build
        model.forward_train(x)
        assert seen == [(layer.name, True, []) for layer in order]
        assert all(layer.ctx is not None for layer in order)

    def test_residual_block_keeps_only_the_relu_mask(self, rng):
        # the backward reads the ReLU's derivative only: a bool batch, not
        # the float sum it is taken of
        block = build_model(resnet_ish_cfg(), rng).layers[1]
        y = block.forward_train(rng.standard_normal((2, 8, 16, 16)))
        assert block.ctx.dtype == bool and block.ctx.shape == y.shape
        np.testing.assert_array_equal(block.ctx, y > 0)
        assert (y >= 0).all()

    def test_vgg8_step_holds_inputs_not_columns(self):
        # a vgg8 batch-64 step holds 13.6 MiB of contexts; the float
        # pre-activation in place of f' made it 18.1 MiB, and each layer's
        # im2col columns, nine times its input at k = 3, 40.7 MiB
        cfg = json.loads(VGG8.read_text())["model"]
        x = np.random.default_rng(0).random((64, 1, 16, 16))
        model = build_model(cfg, np.random.default_rng(1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.backward(np.ones_like(model.forward_train(x)))
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < 14 * 2**20, held / 2**20

    def test_vgg8_collecting_inference_holds_one_band_of_columns(self):
        # a collecting forward_infer at batch 128 peaks at 13.7 MiB: each
        # convolution im2cols one band of output rows at a time. L01's whole
        # im2col (18 MiB at this batch) made it 28.5 MiB
        cfg = json.loads(VGG8.read_text())["model"]
        x = np.random.default_rng(0).random((128, 1, 16, 16))
        model = build_model(cfg, np.random.default_rng(1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.forward_infer(x, collect=True, require_frozen=False)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak / 2**20

    def test_step_leaves_every_layer_input_unchanged(self):
        # a context keeps its layer's input, from which the backward
        # rebuilds the columns: no forward, backward or SGD step writes to it
        cfg = json.loads(VGG8.read_text())["model"]
        model = build_model(cfg, np.random.default_rng(1))
        x = np.random.default_rng(0).random((8, 1, 16, 16))
        inputs = []
        for layer in model.leaves():
            def record(x, layer=layer, inner=layer._forward_train):
                inputs.append((layer.name, x, x.tobytes()))
                return inner(x)
            layer._forward_train = record
        model.backward(np.ones_like(model.forward_train(x)))
        model.sgd_step(0.05, 0.9, 1e-4)
        assert inputs[0][1] is x and len(inputs) == len(model.leaves())
        for name, a, before in inputs:
            assert a.tobytes() == before, name

    @staticmethod
    def vgg8_step_peak(workers):
        """The tracemalloc peak of a vgg8 batch-64 forward_train and backward
        with the convolutions on ``workers`` threads."""
        cfg = json.loads(VGG8.read_text())["model"]
        x = np.random.default_rng(0).random((64, 1, 16, 16))
        model = build_model(cfg, np.random.default_rng(1))
        with band_workers(workers):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                model.backward(np.ones_like(model.forward_train(x)))
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        return peak

    def test_vgg8_step_peaks_under_twenty_and_a_half_mib(self):
        # a vgg8 batch-64 step peaks in its backward at 19.6 MiB. Contexts
        # that kept the float pre-activation, with the backward writing dy*f'
        # over it rather than over dy, made it 24.2 MiB
        peak = self.vgg8_step_peak(1)
        assert peak < 20.5 * 2**20, peak / 2**20

    def test_vgg8_step_at_two_workers_adds_one_d_h_and_column_buffer(self):
        # the step peaks in L01's backward, where the pool thread holds its
        # own D_h (16 x 16 x 16 x 64), its column buffer (18 rows of
        # 16 x 16 x 64 columns) and its padded input group (2 channels of
        # 18 x 18 x 64), plus 64 KiB of slack: 19.6 -> 24.2 MiB
        one, two = self.vgg8_step_peak(1), self.vgg8_step_peak(2)
        extra = 8 * (16 * 16 * 16 * 64 + 18 * 16 * 16 * 64 + 2 * 18 * 18 * 64) + 2**16
        assert one < two < one + extra, (one / 2**20, two / 2**20)

    def test_second_forward_train_peaks_within_one_context_of_the_held_ones(self):
        # vgg8 at batch 64 holds 13.6 MiB of contexts between steps. Were a
        # layer's stale context kept until its new one was assigned, L01's two
        # contexts (5.5 MiB each) would be alive at once; released first, the
        # pass peaks at 16.2 MiB
        cfg = json.loads(VGG8.read_text())["model"]
        x = np.random.default_rng(0).random((64, 1, 16, 16))
        model = build_model(cfg, np.random.default_rng(1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model.backward(np.ones_like(model.forward_train(x)))
            held = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            model.forward_train(x)
            peak = tracemalloc.get_traced_memory()[1] - start
            before = tracemalloc.get_traced_memory()[0]
            model.layers[1].ctx = None   # L01, the largest context
            l01 = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert model.layers[1].name == "L01" and l01 > 0.3 * held, (l01, held)
        assert peak - held <= l01, (peak, held, l01)

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_freeze_gates_releases_every_context(self, rng, cfg_fn):
        model = build_model(cfg_fn(), rng)
        logits = model.forward_train(rng.standard_normal((2, 1, 16, 16)))
        assert all(layer.ctx is not None for layer in layer_objects(model))
        model.freeze_gates()
        assert all(layer.ctx is None for layer in layer_objects(model))
        with pytest.raises(StateError, match="forward_train"):
            model.backward(np.ones_like(logits))
        for layer in layer_objects(model):
            with pytest.raises(StateError, match=layer.name):
                layer.backward(np.ones((2, 4)))

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_dense_twin_copies_no_context(self, rng, cfg_fn):
        model = build_model(cfg_fn(), rng)
        x = rng.standard_normal((3, 1, 16, 16))
        model.forward_train(x)
        early = model.to_dense()
        assert all(layer.ctx is None for layer in layer_objects(early))
        assert all(layer.ctx is not None for layer in layer_objects(model))
        model.freeze_gates()
        late = model.to_dense()
        np.testing.assert_array_equal(early.forward_infer(x)[0], late.forward_infer(x)[0])

    def test_frozen_model_holds_no_batch(self):
        # one vgg8 batch-64 pass leaves 18.1 MiB of contexts; a frozen model
        # keeps its parameters, gradients and running statistics only
        cfg = json.loads(VGG8.read_text())["model"]
        x = np.random.default_rng(0).random((64, 1, 16, 16))
        tracemalloc.start()
        try:
            model = build_model(cfg, np.random.default_rng(1))
            for _ in range(3):
                model.forward_train(x)
            model.freeze_gates()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        stats = {id(a): a.nbytes for name, a in model.state_tensors()
                 if name.endswith(("mean", "var"))}
        kept = sum(p.nbytes + g.nbytes for _, p, g, _ in model.param_groups()) \
            + sum(stats.values())
        assert held <= kept + 512 * 1024, (held, kept)

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_collecting_pass_retains_no_copies(self, rng, cfg_fn):
        # the records of a collecting evaluation reference each layer's own
        # kernel and, without capture, hold no input
        from cgnet.network import CgConvBlock, ConvBlock
        from cgnet.training import evaluate
        model = build_model(cfg_fn(), rng)
        x = rng.standard_normal((6, 1, 16, 16))
        model.forward_train(x)
        model.freeze_gates()
        _, _, records = evaluate(model, x, np.zeros(6, dtype=np.int64), batch_size=4,
                                 collect=True)
        kernels = {leaf.name: leaf.params.w if isinstance(leaf, CgConvBlock) else leaf.w
                   for leaf in model.leaves() if isinstance(leaf, (CgConvBlock, ConvBlock))}
        convs = [rec for rec in records if rec.name in kernels]
        assert len(convs) == len(kernels) and any(rec.gated for rec in convs)
        for rec in convs:
            assert rec.x_in is None, rec.name
            assert rec.w is kernels[rec.name], rec.name


def conv_leaves(model):
    return [leaf for leaf in model.leaves() if isinstance(leaf, (ConvBlock, CgConvBlock))]


class TestBandWorkers:
    def test_ten_vgg8_steps_leave_the_same_state_at_every_worker_count(self):
        # forward_train, cross-entropy, backward, the target-threshold
        # sparsity loss and SGD with momentum at batch 64: every parameter,
        # running statistic and threshold byte-equal at 1, 2 and 3 workers
        cfg = json.loads(VGG8.read_text())["model"]
        ds = synthetic_dataset(128, num_classes=cfg["num_classes"], seed=3)
        loss_cfg = training.LossConfig(sparsity="target_threshold", lam=5e-4, target=2.0)
        states = []
        for workers in (1, 2, 3):
            model = build_model(copy.deepcopy(cfg), np.random.default_rng(1))
            with band_workers(workers):
                for i in range(10):
                    batch = slice(64 * (i % 2), 64 * (i % 2 + 1))
                    _, dlogits = nn.cross_entropy(model.forward_train(ds.images[batch]),
                                                  ds.labels[batch])
                    model.zero_grads()
                    model.backward(dlogits)
                    training.apply_sparsity_loss(model, loss_cfg, 1.0)
                    model.sgd_step(0.05, 0.9, 1e-4)
            states.append([(name, a.tobytes()) for name, a in model.state_tensors()])
        assert states[1] == states[0] and states[2] == states[0]


class TestInferencePlan:
    """A convolution layer builds its inference plan on its first
    ``forward_infer`` and keeps it until something writes its parameters
    or statistics; what comes out then equals a fresh copy's logits."""

    @staticmethod
    def frozen(cfg_fn, rng):
        model = build_model(cfg_fn(), rng)
        x = rng.standard_normal((6, 1, 16, 16))
        model.forward_train(x)
        model.freeze_gates()
        return model, x

    @staticmethod
    def fresh_logits(model, cfg_fn, x):
        """The logits of a model built anew from ``model``'s state tensors."""
        clone = build_model(cfg_fn(), None)
        clone.load_state_tensors(dict(model.state_tensors()))
        return clone.forward_infer(x, require_frozen=False)[0]

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_first_inference_builds_and_later_ones_reuse(self, rng, cfg_fn):
        model, x = self.frozen(cfg_fn, rng)
        assert all(leaf.plan is None for leaf in conv_leaves(model))
        first, _ = model.forward_infer(x)
        plans = [leaf.plan for leaf in conv_leaves(model)]
        assert all(plan is not None for plan in plans)
        again, _ = model.forward_infer(x)
        assert all(leaf.plan is plan for leaf, plan in zip(conv_leaves(model), plans))
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(first, self.fresh_logits(model, cfg_fn, x))

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_sgd_step_after_an_inference_moves_the_next_logits(self, rng, cfg_fn):
        # the inference between the backward and the step builds every plan
        # from the weights the step then writes
        model, x = self.frozen(cfg_fn, rng)
        model.backward(np.ones_like(model.forward_train(x)))
        before, _ = model.forward_infer(x, require_frozen=False)
        model.sgd_step(0.05, 0.9, 1e-4)
        after, _ = model.forward_infer(x, require_frozen=False)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, self.fresh_logits(model, cfg_fn, x))

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_forward_train_and_a_state_load_drop_the_plans(self, rng, cfg_fn, tmp_path):
        model, x = self.frozen(cfg_fn, rng)
        model.forward_infer(x)
        model.forward_train(x)
        assert all(leaf.plan is None for leaf in conv_leaves(model))
        model.freeze_gates()
        model.forward_infer(x)
        other, _ = self.frozen(cfg_fn, np.random.default_rng(5))
        model.load_state_tensors(dict(other.state_tensors()))
        assert all(leaf.plan is None for leaf in conv_leaves(model))
        want, _ = other.forward_infer(x)
        np.testing.assert_array_equal(model.forward_infer(x)[0], want)
        # a checkpoint of a model holding plans loads without one
        checkpoint.save_model(tmp_path / "m.cgn", model)
        loaded = checkpoint.load_model(tmp_path / "m.cgn")
        assert all(leaf.plan is None for leaf in conv_leaves(loaded))
        np.testing.assert_array_equal(loaded.forward_infer(x)[0], want)

    def test_gate_setters_after_an_inference_take_effect(self, rng):
        model, x = self.frozen(vgg_ish_cfg, rng)
        _, records = model.forward_infer(x, collect=True)
        pruned = [network_pruning_ratio(records)]
        for setter, value in ((model.set_delta, 0.8), (model.shift_delta, 0.5)):
            setter(value)
            logits, records = model.forward_infer(x, collect=True)
            pruned.append(network_pruning_ratio(records))
            np.testing.assert_array_equal(logits, self.fresh_logits(model, vgg_ish_cfg, x))
        assert pruned[0] < pruned[1] < pruned[2]

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_the_plan_holds_nothing_tau_c_decides(self, rng, cfg_fn):
        # set_tau_c drops no plan: the channel gate reads the layer's config
        # on each pass, after the plan's GEMMs
        model, x = self.frozen(cfg_fn, rng)
        _, before = model.forward_infer(x, collect=True)
        plans = [leaf.plan for leaf in conv_leaves(model)]
        model.set_tau_c(0.5)
        logits, after = model.forward_infer(x, collect=True)
        assert all(leaf.plan is plan for leaf, plan in zip(conv_leaves(model), plans))
        assert any(not np.array_equal(a.dm.d, b.dm.d)
                   for a, b in zip(after, before) if a.gated)
        assert network_pruning_ratio(after) > network_pruning_ratio(before)
        clone = build_model(cfg_fn(), None)
        clone.load_state_tensors(dict(model.state_tensors()))
        clone.set_tau_c(0.5)
        np.testing.assert_array_equal(logits, clone.forward_infer(x, require_frozen=False)[0])

    @pytest.mark.parametrize("cfg_fn", [vgg_ish_cfg, resnet_ish_cfg])
    def test_a_copy_carries_no_plan_and_forced_open_is_the_dense_twin(self, rng, cfg_fn):
        # as the benchmark's final check: a deep copy of a model that has
        # run inference, forced open, gives the dense twin's logits
        model, x = self.frozen(cfg_fn, rng)
        model.forward_infer(x)
        dense = model.to_dense()
        opened = copy.deepcopy(model)
        for twin in (dense, opened):
            assert all(leaf.plan is None for leaf in conv_leaves(twin))
        assert all(leaf.plan is not None for leaf in conv_leaves(model))
        want, _ = dense.forward_infer(x)
        opened.set_force_open()
        np.testing.assert_array_equal(opened.forward_infer(x)[0], want)
        model.set_force_open()
        np.testing.assert_array_equal(model.forward_infer(x)[0], want)
