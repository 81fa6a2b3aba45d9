"""Training graph: dual BN, surrogate gate gradients, losses, train loop."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cgnet import nn, training
from cgnet.data import synthetic_dataset, train_val_split
from cgnet.gating import CgBlockParams, CgLayerConfig
from cgnet.network import CgConvBlock, ConvBlock, build_model
from cgnet.nn import BatchNormState, ConvSpec
from cgnet.training import (LossConfig, Schedule, cg_block_backward,
                            cg_block_forward_train, kd_loss, sparsity_loss_target,
                            train_network)

from _oracles import (activation_fprime, block_inference, check_grad, conditional_kernel,
                      finite_difference, heaviside, kernel_split, rel_err, stacked_conv_grads,
                      two_conv_block_train)
from _workers import band_workers


def make_cfg(c_in=4, c_out=4, k=3, G=2, act="identity", pad=1, eps_sharp=4.0):
    return CgLayerConfig(ConvSpec(c_in, c_out, k, padding=pad), groups=G,
                         activation=act, epsilon=eps_sharp)


def make_params(cfg, rng):
    p = CgBlockParams.init(cfg, rng)
    p.gamma[:] = rng.uniform(0.7, 1.3, len(p.gamma))
    p.beta[:] = rng.standard_normal(len(p.beta)) * 0.1
    return p


def affine(params, xhat):
    """BN's affine step, gamma*xhat + beta, with the block's shared gamma/beta."""
    return params.gamma[:, None, None] * xhat + params.beta[:, None, None]


def context_arrays(obj):
    """Every array a training context holds, walking its dataclass fields,
    the ``BnCtx`` ones included, and tuples; the model's parameters and
    config are not context."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in ("params", "cfg"):
                yield from context_arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from context_arrays(item)


class TestForwardTrain:
    def test_all_take_limit(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(ctx.d, 1.0)
        np.testing.assert_array_equal(y, nn.activation(affine(params, ctx.bn2_ctx.xhat), "relu"))

    def test_none_take_limit(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = 1e6
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(ctx.d, 0.0)
        np.testing.assert_array_equal(y, nn.activation(affine(params, ctx.bn1_ctx.xhat), "relu"))

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_mixed_decisions_apply_the_shared_affine_once(self, rng, act):
        # both paths share gamma/beta: y = f(gamma*where(d, x^_2, x^_g) + beta)
        cfg = make_cfg(act=act)
        params = make_params(cfg, rng)
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        assert ctx.d.any() and not ctx.d.all()
        z = np.where(ctx.d, ctx.bn2_ctx.xhat, ctx.bn1_ctx.xhat)
        np.testing.assert_array_equal(y, nn.activation(affine(params, z), act))

    @pytest.mark.parametrize("act", ["relu", "identity", "tanh"])
    def test_context_holds_two_float_batches_and_f_prime(self, rng, act):
        # f' at its narrowest dtype in place of the pre-activation: a bool
        # mask where it is 0 or 1, a float batch for tanh
        cfg = make_cfg(c_out=8, act=act)
        params = make_params(cfg, rng)
        x = rng.standard_normal((3, 4, 5, 5))
        y, ctx = cg_block_forward_train(x, params, cfg)
        held = [a for a in context_arrays(ctx)
                if a.shape == y.shape and a.dtype != bool]
        floats = [ctx.bn1_ctx.xhat, ctx.bn2_ctx.xhat]
        if act == "tanh":
            floats.append(ctx.fprime)
        else:
            assert ctx.fprime.dtype == bool
        assert sorted(map(id, held)) == sorted(map(id, floats))
        assert ctx.d.dtype == bool
        pre = affine(params, np.where(ctx.d, ctx.bn2_ctx.xhat, ctx.bn1_ctx.xhat))
        np.testing.assert_array_equal(ctx.fprime, activation_fprime(pre, act))

    def test_decisions_match_scalar_recomputation(self, rng):
        cfg = make_cfg(act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = rng.standard_normal(4) * 0.5
        x = rng.standard_normal((4, 4, 5, 5))
        _, ctx = cg_block_forward_train(x, params, cfg)
        base_spec = ConvSpec(4, 4, 3, padding=1, groups=cfg.groups)
        p = nn.conv2d(x, kernel_split(params.w, cfg.groups)[0], base_spec)
        mean = p.mean(axis=(0, 2, 3))
        var = p.var(axis=(0, 2, 3))
        for c in range(4):
            xhat = (p[:, c] - mean[c]) / np.sqrt(var[c] + params.bn1.eps)
            want = (xhat >= params.gate.delta[c]).astype(float)
            np.testing.assert_array_equal(ctx.d[:, c], want)

    @pytest.mark.parametrize("act", ["relu", "tanh"], ids=["single_sided", "two_sided"])
    def test_d_is_the_inference_map_at_the_batch_statistics(self, rng, act):
        # with BN1's running stats set to the batch's, training and inference
        # gate the same normalized partial sums, channel gate included
        cfg = dataclasses.replace(make_cfg(c_in=8, c_out=8, G=4, act=act), tau_c=0.3)
        params = make_params(cfg, rng)
        edges = np.linspace(-1.0, 2.0, 8)
        if cfg.two_sided:
            params.gate.delta_high[:] = edges + 1.2
            params.gate.delta_low[:] = -edges - 1.2
        else:
            params.gate.delta[:] = edges
        x = rng.standard_normal((3, 8, 6, 6))
        _, ctx = cg_block_forward_train(x, params, cfg)

        p = nn.conv2d(x, kernel_split(params.w, 4)[0], ConvSpec(8, 8, 3, padding=1, groups=4))
        params.bn1.running_mean[:] = p.mean(axis=(0, 2, 3))
        params.bn1.running_var[:] = p.var(axis=(0, 2, 3))
        xhat = (p - params.bn1.running_mean[:, None, None]) / np.sqrt(
            params.bn1.running_var[:, None, None] + params.bn1.eps)
        for _, _, t in params.gate.edges():   # no comparison within rounding of a tie
            assert np.abs(xhat - t[:, None, None]).min() > 1e-9
        _, dm = block_inference(x, params, cfg)
        at_zero = dataclasses.replace(cfg, tau_c=0.0)
        fired = block_inference(x, params, at_zero)[1].d
        dropped = ~dm.channel_mask
        assert dropped.any() and not dropped.all()
        assert (fired & dropped[..., None, None]).any(), "a dropped channel fired"
        np.testing.assert_array_equal(ctx.d, dm.d)

    def test_cache_invariant_d_recomputable(self, rng):
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = 0.3
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        np.testing.assert_array_equal(
            ctx.d, heaviside(ctx.bn1_ctx.xhat - params.gate.delta[:, None, None]))


class TestBackward:
    # The hard block is not differentiable; its gradients are the oracle's
    # hard-mode ones (TestBlockTrainOracle), and these check the oracle's
    # soft mode, whose combine uses the same surrogate, against central
    # differences.
    @pytest.mark.parametrize("seed", range(3))
    def test_soft_gate_finite_difference_single_sided(self, seed):
        rng = np.random.default_rng(seed)
        cfg = make_cfg(act="identity")
        params = make_params(cfg, rng)
        params.gate.delta[:] = rng.standard_normal(4) * 0.3
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))

        def loss():
            y, _, _ = two_conv_block_train(x, params, cfg, proj, soft_gate=True)
            return float((y * proj).sum())

        _, _, g = two_conv_block_train(x, params, cfg, proj, soft_gate=True)
        check_grad(loss, params.w, g.dw)
        check_grad(loss, params.gamma, g.dgamma)
        check_grad(loss, params.beta, g.dbeta)
        check_grad(loss, params.gate.delta, g.dthresholds["delta"])
        check_grad(loss, x, g.dx)

    @pytest.mark.parametrize("seed", range(2))
    def test_soft_gate_finite_difference_two_sided(self, seed):
        rng = np.random.default_rng(seed + 10)
        cfg = make_cfg(act="tanh")
        assert cfg.two_sided
        params = make_params(cfg, rng)
        params.gate.delta_high[:] = rng.uniform(0.3, 1.0, 4)
        params.gate.delta_low[:] = -rng.uniform(0.3, 1.0, 4)
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))

        def loss():
            y, _, _ = two_conv_block_train(x, params, cfg, proj, soft_gate=True)
            return float((y * proj).sum())

        _, _, g = two_conv_block_train(x, params, cfg, proj, soft_gate=True)
        check_grad(loss, params.gate.delta_high, g.dthresholds["delta_high"])
        check_grad(loss, params.gate.delta_low, g.dthresholds["delta_low"])
        check_grad(loss, params.w, g.dw)
        check_grad(loss, params.gamma, g.dgamma)
        check_grad(loss, params.beta, g.dbeta)
        check_grad(loss, x, g.dx)

    def test_saturated_sigmoid_kills_delta_grad(self, rng):
        cfg = make_cfg(eps_sharp=1e3)
        params = make_params(cfg, rng)
        params.gate.delta[:] = 50.0  # far from any normalized partial sum
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, rng.standard_normal((2, 4, 4, 4)))
        assert np.all(np.abs(g.dthresholds["delta"]) < 1e-6)

    @pytest.mark.parametrize("act", ["relu", "tanh"], ids=["single_sided", "two_sided"])
    @pytest.mark.parametrize("outside", [False, True])
    def test_surrogate_extremes_stay_finite(self, rng, act, outside):
        # eps*|x^_g - delta| reaches ~10^3: the tanh factors saturate at +-1
        # without an overflow, and thresholds outside every normalized sum
        # (|x^_g| <= sqrt(31) here) get exactly no gradient
        cfg = make_cfg(act=act, eps_sharp=500.0)
        params = make_params(cfg, rng)
        edge = 8.0 if outside else 0.0
        if cfg.two_sided:
            params.gate.delta_high[:] = edge
            params.gate.delta_low[:] = -edge
        else:
            params.gate.delta[:] = edge
        x = rng.standard_normal((2, 4, 4, 4))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, ctx = cg_block_forward_train(x, params, cfg)
            assert cfg.epsilon * np.abs(ctx.bn1_ctx.xhat - edge).max() > 1e3
            g = cg_block_backward(ctx, rng.standard_normal((2, 4, 4, 4)))
        for name in ("dw", "dgamma", "dbeta", "dx"):
            assert np.all(np.isfinite(getattr(g, name))), name
        assert g.dthresholds.keys() == dict(params.gate.thresholds()).keys()
        for dd in g.dthresholds.values():
            assert np.all(np.isfinite(dd))
            if outside:
                np.testing.assert_array_equal(dd, 0.0)

    def test_identical_paths_zero_delta_grad(self, rng):
        # W_r == 0 makes both paths equal, so the gate has nothing to learn
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.w[:] -= conditional_kernel(params.w, cfg.groups)
        x = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, rng.standard_normal((2, 4, 4, 4)))
        np.testing.assert_array_equal(g.dthresholds["delta"], 0.0)

    def test_dxg_equals_minus_ddelta_elementwise(self, rng):
        # per-element identity before the channel reduction
        cfg = make_cfg()
        params = make_params(cfg, rng)
        x = rng.standard_normal((2, 4, 4, 4))
        proj = rng.standard_normal((2, 4, 4, 4))
        _, ctx = cg_block_forward_train(x, params, cfg)
        dpre = proj * ctx.fprime
        ds = dpre * (affine(params, ctx.bn2_ctx.xhat) - affine(params, ctx.bn1_ctx.xhat))
        s = nn.sigmoid(cfg.epsilon * (ctx.bn1_ctx.xhat - params.gate.delta[:, None, None]))
        elem = ds * (cfg.epsilon * s * (1.0 - s))
        g = cg_block_backward(ctx, proj)
        np.testing.assert_allclose(g.dthresholds["delta"], -elem.sum(axis=(0, 2, 3)),
                                   rtol=1e-12)

    def test_hard_soft_consistency_at_large_epsilon(self, rng):
        cfg = make_cfg(eps_sharp=1e4, act="relu")
        params = make_params(cfg, rng)
        params.gate.delta[:] = 0.0
        while True:
            x = rng.standard_normal((2, 4, 4, 4))
            _, ctx = cg_block_forward_train(x, params, cfg)
            if np.abs(ctx.bn1_ctx.xhat - params.gate.delta[:, None, None]).min() > 0.01:
                break
        y_hard, _ = cg_block_forward_train(x, params, cfg)
        dy = np.zeros_like(y_hard)
        y_soft, _, _ = two_conv_block_train(x, params, cfg, dy, soft_gate=True)
        assert np.abs(y_hard - y_soft).max() < 1e-3

    def test_force_open_gradients_match_dense_network(self, rng):
        # d forced to 1 degenerates the graph to conv+BN2+f
        cfg = make_cfg(act="relu", G=2, c_in=4, c_out=4)
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((3, 4, 5, 5))
        proj = rng.standard_normal((3, 4, 5, 5))
        _, ctx = cg_block_forward_train(x, params, cfg)
        g = cg_block_backward(ctx, proj.copy())   # the backward may consume it

        dense = ConvBlock(ConvSpec(4, 4, 3, padding=1), act="relu", rng=rng)
        dense.w = params.w.copy()
        dense.bn = BatchNormState(params.gamma.copy(), params.beta.copy(),
                                  params.bn2.running_mean.copy(),
                                  params.bn2.running_var.copy())
        dense.g_w = np.zeros_like(dense.w)
        dense.forward_train(x)
        dx_dense = dense.backward(proj)
        assert rel_err(g.dw, dense.g_w) < 1e-5
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
        assert kernel_split(params.w, 1)[1].shape[1] == 0
        assert g.dw.shape == params.w.shape


class TestBlockTrainOracle:
    """The shared-im2col training block against the two-convolution oracle."""

    cases = dict(seed=st.integers(0, 2**32 - 1), G=st.sampled_from([1, 2, 4]),
                 per_in=st.integers(1, 2), per_out=st.integers(1, 2),
                 k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
                 pad=st.sampled_from([0, 1]),
                 # the gate kind follows the activation: relu and identity get
                 # one threshold, tanh and sigmoid a band. binary_sign is left
                 # out: a 1e-16 change of a pre-activation near 0 would flip
                 # its output by 2
                 act=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
                 tau_c=st.one_of(st.just(0.0), st.floats(0.05, 0.9)))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), hw=st.tuples(st.integers(3, 6), st.integers(3, 6)), **cases)
    def test_matches_two_conv_oracle(self, seed, n, G, per_in, per_out, k,
                                     stride, pad, hw, act, tau_c):
        self.check(None, seed, n, G, per_in, per_out, k, stride, pad, hw, act, tau_c)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([32, 64]), hw=st.tuples(st.integers(4, 9), st.integers(3, 6)),
           rows=st.sampled_from([1, 2]), **cases)
    # 7 rows of 64 samples x 3 columns in bands of 2, 2, 2 and 1 rows
    @example(seed=5, n=64, hw=(7, 3), rows=2, G=4, per_in=1, per_out=2, k=3, stride=1, pad=1,
             act="tanh", tau_c=0.3)
    # dW cancels to a norm of ~2.4e-3 over ~2,240 O(1) products
    @example(seed=30, n=64, hw=(5, 3), rows=1, G=2, per_in=1, per_out=1, k=1, stride=1, pad=1,
             act="identity", tau_c=0.5)
    def test_several_bands_match_two_conv_oracle(self, seed, n, G, per_in, per_out, k,
                                                 stride, pad, hw, rows, act, tau_c):
        # a budget of one or two output rows: several bands of 64 or more
        # columns wherever the layer spans a multiple of 64 columns
        self.check(rows, seed, n, G, per_in, per_out, k, stride, pad, hw, act, tau_c)

    @staticmethod
    def check(rows, seed, n, G, per_in, per_out, k, stride, pad, hw, act, tau_c):
        """Forward and backward of the block, its forward run with
        ``nn.BAND_BYTES`` set to ``rows`` output rows of columns (None keeps
        it), against the oracle run with the module's budget."""
        rng = np.random.default_rng(seed)
        cfg = CgLayerConfig(ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad),
                            groups=G, activation=act, tau_c=tau_c)
        params = make_params(cfg, rng)
        c_out = cfg.conv.out_channels
        for bn in (params.bn1, params.bn2):
            bn.running_mean[:] = rng.standard_normal(c_out)
            bn.running_var[:] = rng.uniform(0.5, 2.0, c_out)
        if cfg.two_sided:
            params.gate.delta_high[:] = np.abs(rng.standard_normal(c_out)) * 0.8
            params.gate.delta_low[:] = -np.abs(rng.standard_normal(c_out)) * 0.8
        else:
            params.gate.delta[:] = rng.standard_normal(c_out) * 0.7
        x = rng.standard_normal((n, cfg.conv.in_channels) + hw)
        ho, wo = cfg.conv.out_hw(*hw)
        dy = rng.standard_normal((n, c_out, ho, wo))
        ref_params = copy.deepcopy(params)

        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(nn, "BAND_BYTES", rows * 8 * G * per_in * k * k * wo * n)
            y, ctx = cg_block_forward_train(x, params, cfg)
        # the convolution backward's upstreams, dfull and dp, copied before
        # it may overwrite dfull
        upstream = []

        def recording(conv_ctx, dfull, dp, groups):
            upstream.extend(np.abs(a) for a in (dfull, dp))
            return nn.conv2d_backward(conv_ctx, dfull, dp, groups)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "conv2d_backward", recording)
            g = cg_block_backward(ctx, dy.copy())   # the backward may consume it
        y_ref, d_ref, g_ref = two_conv_block_train(x, ref_params, cfg, dy)
        assert y.shape == y_ref.shape
        assert rel_err(y, y_ref) < 1e-10
        np.testing.assert_array_equal(ctx.d, d_ref)
        # x, dy and the weights are O(1), so every gradient sums O(1) terms.
        # A gradient can still cancel to ~1e-5 (G == 1 with one input tap
        # makes BN scale-invariant in W_p), leaving only rounding of those
        # terms; the 1e-3 floor compares such a field absolutely.
        assert g.dthresholds.keys() == g_ref.dthresholds.keys()
        pairs = [(name, getattr(g, name), getattr(g_ref, name)) for name in ("dgamma", "dbeta")]
        pairs += [(key, g.dthresholds[key], want) for key, want in g_ref.dthresholds.items()]
        for name, got, want in pairs:
            assert got.shape == want.shape, name
            assert rel_err(got, want, floor=1e-3) < 1e-10, name
        # dW and dx sum products of the columns or the kernel with the
        # convolution's upstreams, and can cancel far below those products
        # (dW to a norm of ~2e-3 over ~2,000 O(1) products). Their error is
        # the rounding of those products, relative to the sums of their
        # magnitudes as in TestBackwardGemms, plus what the upstreams carry
        # in from the BN backwards, which the bound above covers
        abs_ctx = nn.ConvCtx(cfg.conv, np.abs(ref_params.w), np.abs(x))
        dx_abs, dw_abs = nn.conv2d_backward(abs_ctx, *upstream, G)
        for name, magnitude in (("dw", dw_abs), ("dx", dx_abs)):
            got, want = getattr(g, name), getattr(g_ref, name)
            assert got.shape == want.shape, name
            bound = 1e-12 * np.linalg.norm(magnitude) + 1e-10 * max(np.linalg.norm(want), 1e-3)
            assert np.linalg.norm(got - want) <= bound, name
        for bn in ("bn1", "bn2"):
            for stat in ("running_mean", "running_var"):
                assert rel_err(getattr(getattr(params, bn), stat),
                               getattr(getattr(ref_params, bn), stat)) < 1e-10, (bn, stat)


class TestBackwardGemms:
    """The backward's per-input-group GEMMs against the stacked form."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 3),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           act=st.sampled_from(["relu", "tanh"]))   # one threshold, or a band
    # G == 1, where the one upstream is dfull + dp, and G == c_in (per_in 1)
    @example(seed=3, n=2, G=1, per_in=2, per_out=2, k=3, stride=1, pad=1, hw=(4, 5),
             act="relu")
    @example(seed=4, n=2, G=4, per_in=1, per_out=2, k=3, stride=2, pad=0, hw=(5, 6),
             act="tanh")
    def test_matches_stacked_oracle(self, seed, n, G, per_in, per_out, k, stride, pad,
                                    hw, act):
        rng = np.random.default_rng(seed)
        cfg = CgLayerConfig(ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad),
                            groups=G, activation=act)
        params = make_params(cfg, rng)
        x = rng.standard_normal((n, cfg.conv.in_channels) + hw)
        y, ctx = cg_block_forward_train(x, params, cfg)
        cols = nn.im2col(x, k, stride, pad)   # the context keeps x, not these
        # BN2's backward gives dfull and BN1's dp: record each, copied in
        # the (c_out, ho*wo*n) GEMM layout
        upstream = {}

        def recording(bn_ctx, dy, gamma, out=None):
            grads = nn.batchnorm_backward(bn_ctx, dy, gamma, out=out)
            upstream["full" if bn_ctx is ctx.bn2_ctx else "p"] = \
                grads[0].transpose(1, 2, 3, 0).reshape(y.shape[1], -1).copy()
            return grads

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "batchnorm_backward", recording)
            g = cg_block_backward(ctx, rng.standard_normal(y.shape))
        dfull, dp = upstream["full"], upstream["p"]
        args = (G, x.shape, cfg.conv)
        dw, dx = stacked_conv_grads(cols, params.w, dfull, dp, *args)
        # Errors are relative to the sums of the products' magnitudes, the
        # scale of GEMM rounding: with G == 1 and one input tap, BN makes
        # the block invariant to W's scale, so dW is 0 in exact arithmetic
        # and both forms return rounding of O(1) terms.
        dw_abs, dx_abs = stacked_conv_grads(np.abs(cols), np.abs(params.w),
                                            np.abs(dfull), np.abs(dp), *args)
        assert np.linalg.norm(g.dw - dw) <= 1e-12 * np.linalg.norm(dw_abs)
        assert np.linalg.norm(g.dx - dx) <= 1e-12 * np.linalg.norm(dx_abs)


class TestConsumedContext:
    """The backward writes its gradients into the context's dead buffers."""

    cases = pytest.mark.parametrize(
        "G,act,k", [(1, "relu", 3), (2, "tanh", 3), (4, "relu", 3), (2, "identity", 1)],
        ids=["1-single_sided", "2-two_sided", "4-single_sided", "2-one_by_one"])

    @staticmethod
    def block(rng, G, act, k):
        """A block, and its input and an upstream gradient in the (c, h, w,
        n) memory the layers pass (so a 1x1 kernel's windows are that
        memory itself, and the backward consumes the gradient)."""
        cfg = CgLayerConfig(ConvSpec(8, 8, k, padding=k // 2), groups=G, activation=act)
        params = make_params(cfg, rng)
        x, dy = (np.ascontiguousarray(rng.standard_normal((8, 5, 5, 3))).transpose(3, 0, 1, 2)
                 for _ in range(2))
        return cfg, params, x, dy

    @staticmethod
    def assert_grads_bitwise(first, second):
        for f in dataclasses.fields(training.CgBlockGrads):
            a, b = getattr(first, f.name), getattr(second, f.name)
            if isinstance(a, dict):
                assert a.keys() == b.keys(), f.name
                a, b = np.stack(list(a.values())), np.stack(list(b.values()))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name

    @cases
    def test_identical_forwards_give_bitwise_gradients(self, rng, G, act, k):
        cfg, params, x, dy = self.block(rng, G, act, k)
        twin = copy.deepcopy(params)   # the forward moves the running stats
        _, ctx = cg_block_forward_train(x, params, cfg)
        _, ctx_twin = cg_block_forward_train(x, twin, cfg)
        # each backward consumes its upstream, so each takes its own copy
        self.assert_grads_bitwise(cg_block_backward(ctx, dy.copy(order="K")),
                                  cg_block_backward(ctx_twin, dy.copy(order="K")))

    @cases
    def test_upstream_in_either_order_gives_bitwise_gradients(self, rng, G, act, k):
        # the backward writes dy*f' into a sample-innermost dy and into a
        # copy of one in any other order, which stays as the caller made it
        cfg, params, x, dy = self.block(rng, G, act, k)
        twin = copy.deepcopy(params)
        _, ctx = cg_block_forward_train(x, params, cfg)
        _, ctx_twin = cg_block_forward_train(x, twin, cfg)
        dy_c = np.ascontiguousarray(dy)
        self.assert_grads_bitwise(cg_block_backward(ctx, dy_c),
                                  cg_block_backward(ctx_twin, dy.copy(order="K")))
        assert dy_c.tobytes() == np.ascontiguousarray(dy).tobytes()

    @cases
    def test_block_input_survives(self, rng, G, act, k):
        # the backward overwrites its context only: the previous layer's
        # output, which a 1x1 kernel's columns read as they are, stays
        cfg, params, x, dy = self.block(rng, G, act, k)
        _, ctx = cg_block_forward_train(x, params, cfg)
        before = x.tobytes()
        cg_block_backward(ctx, dy)
        assert x.tobytes() == before

    @cases
    def test_second_backward_raises(self, rng, G, act, k):
        cfg, _, x, dy = self.block(rng, G, act, k)
        layer = CgConvBlock(cfg, rng, name="L07")
        layer.forward_train(x)
        layer.backward(dy)
        with pytest.raises(nn.StateError, match="L07: .*forward_train"):
            layer.backward(dy)

    def test_dense_second_backward_raises_before_any_gradient(self, rng):
        layer = ConvBlock(ConvSpec(8, 8, 3, padding=1), rng=rng, name="L03")
        _, _, x, dy = self.block(rng, 1, "relu", 3)
        layer.forward_train(x)
        layer.backward(dy)
        grads = [g.copy() for _, _, g, _ in layer.param_groups()]
        with pytest.raises(nn.StateError, match="L03: .*forward_train"):
            layer.backward(dy)
        for (name, _, g, _), before in zip(layer.param_groups(), grads):
            assert g.tobytes() == before.tobytes(), name

    @pytest.mark.parametrize("act,stride", [("tanh", 1), ("tanh", 2), ("identity", 1)])
    def test_dense_gradients_match_central_differences(self, rng, act, stride):
        # each gradient is written over the context buffer it is computed from
        layer = ConvBlock(ConvSpec(4, 4, 3, stride, 1), act, rng)
        layer.bn.gamma[:] = rng.uniform(0.7, 1.3, 4)
        layer.bn.beta[:] = rng.standard_normal(4) * 0.1
        x = rng.standard_normal((2, 4, 6, 6))
        proj = rng.standard_normal(layer.forward_train(x).shape)

        def loss():
            return float((layer.forward_train(x) * proj).sum())

        layer.forward_train(x)
        dx = layer.backward(proj.copy())   # the loss reads proj again
        check_grad(loss, x, dx)
        for _, param, grad, _ in layer.param_groups():
            check_grad(loss, param, grad)

    @staticmethod
    def footprint_in_output_batches(act, workers=1):
        """The context one forward leaves at vgg8's first gated layer plus
        the peak of its backward on ``workers`` threads, in batches of the
        block's output: the tracemalloc peak from the forward's start, with
        the output freed and the input and upstream gradient made before."""
        rng = np.random.default_rng(0)
        cfg = CgLayerConfig(ConvSpec(8, 16, 3, padding=1), groups=4, activation=act)
        params = make_params(cfg, rng)
        x = np.ascontiguousarray(rng.standard_normal((8, 16, 16, 64))).transpose(3, 0, 1, 2)
        dy = np.ascontiguousarray(rng.standard_normal((16, 16, 16, 64))).transpose(3, 0, 1, 2)
        with band_workers(workers):
            tracemalloc.start()
            try:
                y, ctx = cg_block_forward_train(x, params, cfg)
                del y
                tracemalloc.reset_peak()
                cg_block_backward(ctx, dy)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        return peak / dy.nbytes

    def test_relu_footprint_under_five_and_a_half_output_batches(self):
        # 2.25 held (x^_g, x^_2 and the bool f' and d) and a 2.04 backward.
        # The float pre-activation kept in place of f' made it 5.17, holding
        # the im2col columns (4.5 batches) as well 10.47; dp written
        # over d*dpre rather than x^_g, with the gate buffers kept to the
        # end, 7.22
        assert self.footprint_in_output_batches("relu") < 5.5

    def test_band_footprint_under_seven_point_six_output_batches(self):
        # 3.13 held (tanh's f' is float) and a 4.06 backward, set by the
        # two edges' surrogate batches: two tanh factors, ds~ and the second
        # edge's sigmoid product, with one channel of sigmoid scratch. A
        # whole-batch sigmoid made it 8.13, holding the columns 13.47
        assert self.footprint_in_output_batches("tanh") < 7.6

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_two_workers_add_at_most_a_copy_of_dy_and_a_column_buffer(self, act):
        # the pool thread's own D_h (one batch), its column buffer (18 rows
        # of 16 x 16 x 64 columns, 1.125 batches) and its padded input group
        # (2 channels of 18 x 18 x 64, 0.158 batches), plus 64 KiB of slack.
        # relu read 4.29 -> 6.42, tanh 7.19 -> 7.29, whose peak is outside
        # the convolution's backward
        one, two = (self.footprint_in_output_batches(act, k) for k in (1, 2))
        batch = 16 * 16 * 16 * 64 * 8
        extra = batch + 8 * 18 * 16 * 16 * 64 + 8 * 2 * 18 * 18 * 64 + 2**16
        assert two < one + extra / batch, (one, two)


class TestChannelSlabs:
    """The gated block's chain after its batch norms, its backward's chain
    before them, the dense block's affine and f', and gated inference's
    epilogue run one slab of channels at a time on the band pool
    (``nn._run_slabs``); no bit depends on the cut or on the worker
    count."""

    @staticmethod
    def gated_outputs(x, dy, params, cfg):
        """The bytes of a training forward (y, d, f', the running stats),
        its backward (dx, dW, dgamma, dbeta, every threshold gradient) and
        gated inference (y and both decision maps), on a copy of
        ``params``."""
        params = copy.deepcopy(params)
        y, ctx = cg_block_forward_train(x, params, cfg)
        out = [y, ctx.d, ctx.fprime]
        g = cg_block_backward(ctx, dy.copy(order="K"))
        out += [g.dx, g.dw, g.dgamma, g.dbeta, *g.dthresholds.values()]
        out += [params.bn1.running_mean, params.bn1.running_var,
                params.bn2.running_mean, params.bn2.running_var]
        y, dm = block_inference(x, params, cfg)
        out += [y, dm.d, dm.channel_mask]
        return [a.tobytes() for a in out]

    @staticmethod
    def dense_outputs(x, dy, layer):
        layer = copy.deepcopy(layer)
        y = layer.forward_train(x)
        out = [y, layer.ctx.fprime, layer.backward(dy.copy(order="K")), layer.g_w,
               layer.g_gamma, layer.g_beta, layer.bn.running_mean, layer.bn.running_var,
               layer.forward_infer(x)[0]]
        return [a.tobytes() for a in out]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 9), three_groups=st.booleans(),
           hw=st.tuples(st.integers(1, 5), st.integers(1, 5)), n=st.sampled_from([1, 3, 16]),
           tau_c=st.sampled_from([0.0, 0.3, 0.7]), act=st.sampled_from(["relu", "tanh"]),
           per=st.integers(0, 3))
    # vgg8's first gated layer's shape at batch 64: in slabs of three
    # channels, and of two and three, where a slab of one would round
    # einsum's sums otherwise
    @example(seed=5, c=6, three_groups=True, hw=(16, 16), n=64, tau_c=0.3, act="tanh", per=3)
    @example(seed=6, c=5, three_groups=False, hw=(16, 16), n=64, tau_c=0.0, act="relu", per=1)
    def test_worker_count_changes_no_bit(self, seed, c, three_groups, hw, n, tau_c, act, per):
        rng = np.random.default_rng(seed)
        G = 3 if three_groups and c % 3 == 0 else 1
        cfg = CgLayerConfig(ConvSpec(G, c, 3, padding=1), groups=G, activation=act,
                            tau_c=tau_c)
        params = make_params(cfg, rng)
        params.gamma *= rng.choice([-1.0, 1.0], c)
        for _, t in params.gate.thresholds():
            t += 0.5 * rng.standard_normal(c)
        params.bn1.running_var[:] = rng.uniform(0.5, 2.0, c)
        x = np.ascontiguousarray(rng.standard_normal((G, *hw, n))).transpose(3, 0, 1, 2)
        dy = np.ascontiguousarray(rng.standard_normal((c, *hw, n))).transpose(3, 0, 1, 2)
        dense = ConvBlock(ConvSpec(G, c, 3, padding=1), act, rng)

        def outputs():
            return self.gated_outputs(x, dy, params, cfg) + self.dense_outputs(x, dy, dense)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "SLAB_BYTES", 2**62)
            with band_workers(1):
                want = outputs()
            mp.setattr(nn, "SLAB_BYTES", per * 8 * n * hw[0] * hw[1])
            for workers in (1, 2, 3):
                with band_workers(workers):
                    assert outputs() == want, workers


class TestSparsityLosses:
    def test_target_loss_at_target(self):
        loss, g = sparsity_loss_target(np.full(5, 2.0), 2.0, 1.0)
        assert loss == 0.0
        np.testing.assert_array_equal(g, 0.0)

    def test_target_loss_hand_case(self):
        # delta=0, T=2, lam=1: loss 4, grad -4
        loss, g = sparsity_loss_target(np.zeros(1), 2.0, 1.0)
        assert loss == 4.0
        assert g[0] == -4.0

    def test_target_loss_fd(self, rng):
        delta = rng.standard_normal(6)

        def loss():
            return sparsity_loss_target(delta, 1.5, 0.7)[0]

        _, g = sparsity_loss_target(delta, 1.5, 0.7)
        check_grad(loss, delta, g)


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


    def test_non_finite_logits_raise(self):
        # a NaN partial sum fails every gate comparison, so without the check
        # a poisoned kernel reads as pruning instead of an error
        rng = np.random.default_rng(12)
        model = build_model(toy_model_cfg(), np.random.default_rng(13))
        x = rng.standard_normal((6, 1, 12, 12))
        model.forward_train(x)
        model.freeze_gates()
        model.gated_layers()[0].params.w[0, 0, 1, 1] = np.nan
        with pytest.raises(nn.StateError, match="not finite"):
            training.evaluate(model, x, rng.integers(0, 2, 6), collect=True)


class TestTrainLoop:
    def test_validation_runs_without_contexts(self, monkeypatch):
        rng = np.random.default_rng(3)
        ds = synthetic_dataset(96, num_classes=2, image_size=12, seed=11)
        train, val = train_val_split(ds, 0.25, rng)
        model = build_model(toy_model_cfg(), np.random.default_rng(5))
        calls = []
        evaluate = training.evaluate

        def checked(net, *args, **kwargs):
            assert net is model
            assert all(layer.ctx is None for layer in model.layers + model.leaves())
            calls.append(1)
            return evaluate(net, *args, **kwargs)

        monkeypatch.setattr(training, "evaluate", checked)
        train_network(model, train.images, train.labels, val.images, val.labels,
                      LossConfig(lam=0.0), Schedule(epochs=2, batch_size=32), rng)
        assert len(calls) == 2

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
                      LossConfig(lam=0.0), Schedule(epochs=1, batch_size=32),
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
                          val.images, val.labels, LossConfig(lam=0.0),
                          Schedule(epochs=3, batch_size=32, lr=1e200), rng)

    def test_force_open_matches_baseline_trajectory(self):
        # a forced-open model and its dense twin train alike, loss for loss:
        # an open gate's surrogate is saturated, so its thresholds get an
        # exactly zero gradient and the gates stay open
        ds = synthetic_dataset(256, num_classes=2, image_size=12, seed=15)
        train, val = train_val_split(ds, 0.25, np.random.default_rng(2))
        m_open = build_model(toy_model_cfg(cg=True), np.random.default_rng(21))
        m_open.set_force_open()
        dense = m_open.to_dense()
        hist_open, hist_dense = [
            train_network(m, train.images, train.labels, val.images, val.labels,
                          LossConfig(lam=0.0),
                          Schedule(epochs=3, batch_size=32, lr=0.05), np.random.default_rng(9))
            for m in (m_open, dense)]
        assert len(hist_open) == len(hist_dense) == 3
        for a, b in zip(hist_open, hist_dense):
            assert abs(a["train_loss"] - b["train_loss"]) < 1e-9
        for layer in m_open.gated_layers():
            assert np.all(layer.params.gate.delta == -1e6)
