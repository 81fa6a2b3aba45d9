"""Training graph: dual BN, surrogate gate gradients, losses, train loop."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import gating, nn, training
from cgnet.data import synthetic_dataset, train_val_split
from cgnet.gating import CgBlockParams, CgLayerConfig
from cgnet.network import ConvBlock, build_model
from cgnet.nn import BatchNormState, ConvSpec
from cgnet.training import (LossConfig, Schedule, cg_block_backward,
                            cg_block_forward_train, kd_loss,
                            sparsity_loss_flops, sparsity_loss_target,
                            train_network)

from _oracles import check_grad, finite_difference, rel_err, two_conv_block_train


def make_cfg(c_in=4, c_out=4, k=3, G=2, act="identity", pad=1, eps_sharp=4.0,
             gate=""):
    return CgLayerConfig(ConvSpec(c_in, c_out, k, padding=pad), groups=G,
                         activation=act, epsilon=eps_sharp, gate=gate)


def make_params(cfg, rng):
    p = CgBlockParams.init(cfg, rng)
    p.gamma[:] = rng.uniform(0.7, 1.3, len(p.gamma))
    p.beta[:] = rng.standard_normal(len(p.beta)) * 0.1
    return p


class TestForwardTrain:
    def test_all_take_limit(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(ctx.d, 1.0)
        np.testing.assert_array_equal(y, nn.activation(ctx.xhat_full, "relu"))

    def test_none_take_limit(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = 1e6
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(ctx.d, 0.0)
        np.testing.assert_array_equal(y, nn.activation(ctx.xhat_p, "relu"))

    def test_decisions_match_scalar_recomputation(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = rng.standard_normal(4) * 0.5
        x = rng.standard_normal((4, 4, 5, 5))
        _, ctx = cg_block_forward_train(x, params, cfg)
        base_spec = ConvSpec(4, 4, 3, padding=1, groups=cfg.groups)
        p = nn.conv2d(x, params.w_p, base_spec)
        mean = p.mean(axis=(0, 2, 3))
        var = p.var(axis=(0, 2, 3))
        for c in range(4):
            xhat = (p[:, c] - mean[c]) / np.sqrt(var[c] + params.bn1.eps)
            want = (xhat >= params.gate.delta[c]).astype(float)
            np.testing.assert_array_equal(ctx.d[:, c], want)

    def test_cache_invariant_d_recomputable(self, rng):
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = 0.3
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(
            ctx.d, gating.heaviside(ctx.xhat_g - params.gate.delta[:, None, None]))


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_soft_gate_finite_difference_single_sided(self, seed):
        rng = np.random.default_rng(seed)
        cfg = make_cfg(act="identity")
        params = make_params(cfg, rng)
        params.gate.delta[:] = rng.standard_normal(4) * 0.3
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))

        def loss():
            y, _ = cg_block_forward_train(x, params, cfg, soft_gate=True)
            return float((y * proj).sum())

        _, ctx = cg_block_forward_train(x, params, cfg, soft_gate=True)
        g = cg_block_backward(ctx, proj)
        check_grad(loss, params.w_p, g.dw_p)
        check_grad(loss, params.w_r, g.dw_r)
        check_grad(loss, params.gamma, g.dgamma)
        check_grad(loss, params.beta, g.dbeta)
        check_grad(loss, params.gate.delta, g.ddelta)
        check_grad(loss, x, g.dx)

    @pytest.mark.parametrize("seed", range(2))
    def test_soft_gate_finite_difference_two_sided(self, seed):
        rng = np.random.default_rng(seed + 10)
        cfg = make_cfg(act="tanh")
        assert cfg.gate == "two_sided"
        params = make_params(cfg, rng)
        params.gate.delta_high[:] = rng.uniform(0.3, 1.0, 4)
        params.gate.delta_low[:] = -rng.uniform(0.3, 1.0, 4)
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))

        def loss():
            y, _ = cg_block_forward_train(x, params, cfg, soft_gate=True)
            return float((y * proj).sum())

        _, ctx = cg_block_forward_train(x, params, cfg, soft_gate=True)
        g = cg_block_backward(ctx, proj)
        check_grad(loss, params.gate.delta_high, g.ddelta_high)
        check_grad(loss, params.gate.delta_low, g.ddelta_low)
        check_grad(loss, params.w_p, g.dw_p)
        check_grad(loss, x, g.dx)

    def test_saturated_sigmoid_kills_delta_grad(self, rng):
        cfg = make_cfg(eps_sharp=1e3)
        params = make_params(cfg, rng)
        params.gate.delta[:] = 50.0  # far from any normalized partial sum
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, rng.standard_normal((2, 4, 4, 4)))
        assert np.all(np.abs(g.ddelta) < 1e-6)

    def test_identical_paths_zero_delta_grad(self, rng):
        # W_r == 0 makes both paths equal, so the gate has nothing to learn
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.w_r[:] = 0.0
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, rng.standard_normal((2, 4, 4, 4)))
        np.testing.assert_array_equal(g.ddelta, 0.0)

    def test_dxg_equals_minus_ddelta_elementwise(self, rng):
        # per-element identity before the channel reduction
        cfg = make_cfg()
        params = make_params(cfg, rng)
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        dpre = proj * nn.activation_grad(ctx.pre, cfg.activation)
        ds = dpre * (ctx.xhat_full - ctx.xhat_p)
        (s,) = ctx.sig_parts
        elem = ds * (cfg.epsilon * s * (1.0 - s))
        g = cg_block_backward(ctx, proj)
        np.testing.assert_allclose(g.ddelta, -elem.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_hard_soft_consistency_at_large_epsilon(self, rng):
        cfg = make_cfg(eps_sharp=1e4, act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = 0.0
        while True:
            x = rng.standard_normal((2, 4, 4, 4))
            _, ctx = cg_block_forward_train(x, params, cfg)
            if np.abs(ctx.xhat_g - params.gate.delta[:, None, None]).min() > 0.01:
                break
        y_hard, _ = cg_block_forward_train(x, params, cfg)
        y_soft, _ = cg_block_forward_train(x, params, cfg, soft_gate=True)
        assert np.abs(y_hard - y_soft).max() < 1e-3

    def test_force_open_gradients_match_dense_network(self, rng):
        # d forced to 1 degenerates the graph to conv+BN2+f
        cfg = make_cfg(act="relu", G=2, c_in=4, c_out=4)
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((3, 4, 5, 5))
        proj = rng.standard_normal((3, 4, 5, 5))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, proj)

        dense = ConvBlock(ConvSpec(4, 4, 3, padding=1), act="relu", rng=rng)
        dense.w = gating.assemble_dense_weight(params.w_p, params.w_r, cfg.groups)
        dense.bn = BatchNormState(params.gamma.copy(), params.beta.copy(),
                                  params.bn2.running_mean.copy(),
                                  params.bn2.running_var.copy())
        dense.g_w = np.zeros_like(dense.w)
        dense.forward_train(x)
        dx_dense = dense.backward(proj)
        dw_assembled = gating.assemble_dense_weight(g.dw_p, g.dw_r, cfg.groups)
        assert rel_err(dw_assembled, dense.g_w) < 1e-5
        assert rel_err(g.dgamma, dense.g_gamma) < 1e-5
        assert rel_err(g.dbeta, dense.g_beta) < 1e-5
        assert rel_err(g.dx, dx_dense) < 1e-5

    def test_single_group_block(self, rng):
        # G=1: no conditional path at all
        cfg = make_cfg(G=1)
        params = make_params(cfg, rng)
        x = rng.standard_normal((2, 4, 4, 4))
        y, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, rng.standard_normal(y.shape))
        assert params.w_r.shape[1] == 0
        assert g.dw_r.shape == params.w_r.shape


class TestBlockTrainOracle:
    """The shared-im2col training block against the two-convolution oracle."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), batched=st.booleans(),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 2),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           gate=st.sampled_from(["single_sided", "two_sided"]),
           # binary_sign is left out: a 1e-16 change of a pre-activation
           # near 0 would flip its output by 2
           act=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
           soft_gate=st.booleans())
    def test_matches_two_conv_oracle(self, seed, n, batched, G, per_in, per_out, k,
                                     stride, pad, hw, gate, act, soft_gate):
        rng = np.random.default_rng(seed)
        cfg = CgLayerConfig(ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad),
                            groups=G, activation=act, gate=gate)
        params = make_params(cfg, rng)
        c_out = cfg.conv.out_channels
        for bn in (params.bn1, params.bn2):
            bn.running_mean[:] = rng.standard_normal(c_out)
            bn.running_var[:] = rng.uniform(0.5, 2.0, c_out)
        params.gate.delta[:] = rng.standard_normal(c_out) * 0.7
        if gate == "two_sided":
            params.gate.delta_high[:] = np.abs(rng.standard_normal(c_out)) * 0.8
            params.gate.delta_low[:] = -np.abs(rng.standard_normal(c_out)) * 0.8
        shape = (cfg.conv.in_channels,) + hw
        x = rng.standard_normal((n,) + shape if batched else shape)
        ho, wo = cfg.conv.out_hw(*hw)
        dy = rng.standard_normal((x.shape[0] if batched else 1, c_out, ho, wo))
        ref_params = copy.deepcopy(params)

        y, ctx = cg_block_forward_train(x, params, cfg, soft_gate=soft_gate)
        g = cg_block_backward(ctx, dy)
        y_ref, d_ref, g_ref = two_conv_block_train(x, ref_params, cfg, dy,
                                                   soft_gate=soft_gate)
        assert y.shape == y_ref.shape
        assert rel_err(y, y_ref) < 1e-10
        np.testing.assert_array_equal(ctx.d, d_ref)
        # x, dy and the weights are O(1), so every gradient sums O(1) terms.
        # A gradient can still cancel to ~1e-5 (G == 1 with one input tap
        # makes BN scale-invariant in W_p), leaving only rounding of those
        # terms; the 1e-3 floor compares such a field absolutely.
        for name in ("dw_p", "dw_r", "dgamma", "dbeta", "ddelta", "ddelta_high",
                     "ddelta_low", "dx"):
            got, want = getattr(g, name), getattr(g_ref, name)
            if want is None:
                assert got is None, name
                continue
            assert got.shape == want.shape, name
            assert rel_err(got, want, floor=1e-3) < 1e-10, name
        for bn in ("bn1", "bn2"):
            for stat in ("running_mean", "running_var"):
                assert rel_err(getattr(getattr(params, bn), stat),
                               getattr(getattr(ref_params, bn), stat)) < 1e-10, (bn, stat)


class TestSparsityLosses:
    def test_target_loss_at_target(self):
        loss, (g,) = sparsity_loss_target([np.full(5, 2.0)], 2.0, 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(g, 0.0)

    def test_target_loss_hand_case(self):
        # delta=0, T=2, lam=1: loss 4, grad -4
        loss, (g,) = sparsity_loss_target([np.zeros(1)], 2.0, 1.0)
        assert loss == 4.0
        assert g[0] == -4.0

    def test_target_loss_fd(self, rng):
        delta = rng.standard_normal(6)

        def loss():
            return sparsity_loss_target([delta], 1.5, 0.7)[0]

        _, (g,) = sparsity_loss_target([delta], 1.5, 0.7)
        check_grad(loss, delta, g)

    def test_flops_loss_zero_when_all_taking(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6  # s~ == 1 everywhere -> (J - s~) == 0
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        loss, grads = sparsity_loss_flops([ctx], 1.0)
        assert loss == 0.0

    def test_flops_loss_hand_arithmetic(self, rng):
        # all s~ == 0; dims (c_l=8, eta=1/4, k=3, h'=w'=4, c_out=8)
        cfg = CgLayerConfig(ConvSpec(8, 8, 3, padding=1), groups=4,
                            activation="relu")
        params = CgBlockParams.init(cfg, rng)
        params.gate.delta[:] = 1e6  # s~ == 0 everywhere
        x = rng.standard_normal((1, 8, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        loss, _ = sparsity_loss_flops([ctx], 1.0)
        inner = 8 * 4 * 4
        want = (inner * 2 * 9 * 4 * 4 * 8) ** 2
        assert loss == pytest.approx(want, rel=1e-12)

    def test_flops_loss_grad_fd(self, rng):
        cfg = make_cfg(act="relu", eps_sharp=2.0)
        params = make_params(cfg, rng)
        params.gate.delta[:] = rng.standard_normal(4) * 0.3
        x = rng.standard_normal((2, 4, 4, 4))

        def loss():
            _, ctx = cg_block_forward_train(x, params, cfg)
            return sparsity_loss_flops([ctx], 1e-9)[0]

        _, ctx = cg_block_forward_train(x, params, cfg)
        _, (g,) = sparsity_loss_flops([ctx], 1e-9)
        check_grad(loss, params.gate.delta, g, step=1e-4)


class TestKdLoss:
    def test_reduces_to_cross_entropy_without_mix(self, rng):
        zs = rng.standard_normal((6, 10))
        zt = rng.standard_normal((6, 10))
        labels = rng.integers(0, 10, 6)
        l_kd, d_kd = kd_loss(zs, zt, labels, kappa=1.0, lam_kd=0.0)
        l_ce, d_ce = nn.cross_entropy(zs, labels)
        assert abs(l_kd - l_ce) < 1e-6
        assert rel_err(d_kd, d_ce) < 1e-9

    def test_self_distillation_gives_teacher_entropy(self, rng):
        z = rng.standard_normal((4, 8))
        labels = rng.integers(0, 8, 4)
        kappa = 2.0
        loss, _ = kd_loss(z, z, labels, kappa=kappa, lam_kd=1.0)
        p = nn.softmax(z, temperature=kappa)
        entropy = float((-(p * np.log(p)).sum(axis=-1)).mean())
        assert abs(loss - entropy) < 1e-6

    def test_grad_fd_paper_hyperparameters(self, rng):
        zs = rng.standard_normal((3, 10))
        zt = rng.standard_normal((3, 10))
        labels = rng.integers(0, 10, 3)

        def loss():
            return kd_loss(zs, zt, labels, kappa=1.0, lam_kd=0.5)[0]

        _, d = kd_loss(zs, zt, labels, kappa=1.0, lam_kd=0.5)
        check_grad(loss, zs, d)


def toy_model_cfg(num_classes=2, cg=True):
    layer = {"type": "cg_conv" if cg else "conv", "out_channels": 8,
             "kernel_size": 3, "padding": 1, "activation": "relu"}
    return {
        "input_shape": [1, 12, 12],
        "num_classes": num_classes,
        "cg_defaults": {"groups": 4, "epsilon": 4.0},
        "layers": [
            {"type": "conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
            {"type": "maxpool", "kernel_size": 2},
            dict(layer),
            {"type": "maxpool", "kernel_size": 2},
            {"type": "cg_conv" if cg else "conv", "out_channels": 16,
             "kernel_size": 3, "padding": 1, "activation": "relu"},
            {"type": "avgpool", "kernel_size": 3},
            {"type": "flatten"},
            {"type": "linear", "out_features": num_classes},
        ],
    }


class TestEvaluate:
    def test_batched_records_equal_one_collecting_pass(self):
        # three batches (7, 7, 6) merged once give the records of one pass
        rng = np.random.default_rng(12)
        model = build_model(toy_model_cfg(), np.random.default_rng(13))
        x = rng.standard_normal((20, 1, 12, 12))
        labels = rng.integers(0, 2, 20)
        model.forward_train(x)
        model.freeze_gates()
        _, logits, records = training.evaluate(model, x, labels, batch_size=7,
                                               collect=True)
        want_logits, want = model.forward_infer(x, collect=True)
        np.testing.assert_allclose(logits, want_logits, rtol=0.0, atol=1e-12)
        assert [r.name for r in records] == [r.name for r in want]
        for got, ref in zip(records, want):
            assert got.n_samples == ref.n_samples == 20
            if ref.dm is not None:
                np.testing.assert_array_equal(got.dm.d, ref.dm.d)
                np.testing.assert_array_equal(got.dm.channel_mask, ref.dm.channel_mask)
        assert sum(r.dm is not None for r in records) == 2


class TestTrainLoop:
    def test_toy_run_reaches_full_accuracy_with_pruning(self):
        rng = np.random.default_rng(3)
        ds = synthetic_dataset(600, num_classes=2, image_size=12, seed=11)
        train, val = train_val_split(ds, 0.2, rng)
        model = build_model(toy_model_cfg(), np.random.default_rng(5))
        hist = train_network(
            model, train.images, train.labels, val.images, val.labels,
            LossConfig(sparsity="target_threshold", lam=3e-3, target=2.0),
            Schedule(epochs=8, batch_size=32, lr=0.1), rng)
        acc, _, records = training.evaluate(model, train.images, train.labels,
                                            collect=True)
        from cgnet import analysis
        assert acc == 1.0
        assert analysis.network_pruning_ratio(records) >= 0.30

    def test_mean_delta_rises_toward_target(self):
        rng = np.random.default_rng(4)
        ds = synthetic_dataset(400, num_classes=2, image_size=12, seed=12)
        train, val = train_val_split(ds, 0.2, rng)
        model = build_model(toy_model_cfg(), np.random.default_rng(6))
        hist = train_network(
            model, train.images, train.labels, val.images, val.labels,
            LossConfig(sparsity="target_threshold", lam=3e-3, target=2.0),
            Schedule(epochs=6, batch_size=32, lr=0.05), rng)
        deltas = [row["mean_delta"] for row in hist]
        assert deltas[-1] > deltas[0]
        # trend over epoch windows
        mid = len(deltas) // 2
        assert np.mean(deltas[mid:]) > np.mean(deltas[:mid])

    def test_bn_sharing_preserved_after_steps(self):
        rng = np.random.default_rng(5)
        ds = synthetic_dataset(128, num_classes=2, image_size=12, seed=13)
        train, val = train_val_split(ds, 0.25, rng)
        model = build_model(toy_model_cfg(), np.random.default_rng(7))
        train_network(model, train.images, train.labels, val.images, val.labels,
                      LossConfig(sparsity="none"), Schedule(epochs=1, batch_size=32),
                      rng)
        for layer in model.gated_layers():
            assert layer.params.bn1.gamma is layer.params.bn2.gamma
            assert layer.params.bn1.beta is layer.params.bn2.beta
            assert layer.params.bn1.gamma is layer.params.gamma

    def test_divergence_aborts_with_diagnostic(self):
        rng = np.random.default_rng(6)
        ds = synthetic_dataset(64, num_classes=2, image_size=12, seed=14)
        train, val = train_val_split(ds, 0.25, rng)
        model = build_model(toy_model_cfg(), np.random.default_rng(8))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(training.TrainingDiverged, match="epoch"):
            train_network(model, train.images, train.labels,
                          val.images, val.labels, LossConfig(sparsity="none"),
                          Schedule(epochs=3, batch_size=32, lr=1e200), rng)

    def test_force_open_matches_baseline_trajectory(self):
        # lambda=0, gates forced open: loss curve equals the dense run's
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        ds = synthetic_dataset(256, num_classes=2, image_size=12, seed=15)
        train, val = train_val_split(ds, 0.25, np.random.default_rng(2))
        m_open = build_model(toy_model_cfg(cg=True), np.random.default_rng(21))
        m_open.set_force_open()
        hist_open = train_network(m_open, train.images, train.labels,
                                  val.images, val.labels, LossConfig(sparsity="none"),
                                  Schedule(epochs=3, batch_size=32, lr=0.05), rng1)
        m_dense = m_open  # the dense twin shares weights via reassembly
        dense = build_model(toy_model_cfg(cg=True), np.random.default_rng(21))
        dense.set_force_open()
        hist_dense = train_network(dense, train.images, train.labels,
                                   val.images, val.labels, LossConfig(sparsity="none"),
                                   Schedule(epochs=3, batch_size=32, lr=0.05), rng2)
        for a, b in zip(hist_open, hist_dense):
            assert abs(a["train_loss"] - b["train_loss"]) < 1e-4
