"""Numeric substrate: convolution, BN, activations, pooling, FC, SGD."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import nn
from cgnet.nn import (BatchNormState, ConfigurationError, ConvSpec,
                      DegenerateInputError)

from _oracles import (bn_inference_affine, check_grad, conv2d_reference,
                      finite_difference, rel_err)


class TestConvSpec:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            ConvSpec(6, 8, 3, groups=4)
        with pytest.raises(ConfigurationError):
            ConvSpec(8, 6, 3, groups=4)

    def test_output_dims(self):
        assert ConvSpec(1, 1, 3, stride=1, padding=1).out_hw(8, 8) == (8, 8)
        assert ConvSpec(1, 1, 3, stride=2, padding=1).out_hw(8, 8) == (4, 4)
        with pytest.raises(ConfigurationError):
            ConvSpec(1, 1, 5).out_hw(3, 3)


class TestConv2d:
    def test_scalar_product(self):
        # 1x1x1 input [2], 1x1x1x1 weight [3] -> [6]
        y = nn.conv2d(np.array([[[2.0]]]), np.array([[[[3.0]]]]), ConvSpec(1, 1, 1))
        assert y.shape == (1, 1, 1)
        assert y[0, 0, 0] == 6.0

    def test_all_ones_padded_overlap(self):
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = nn.conv2d(x, w, ConvSpec(1, 1, 3, padding=1))
        assert y[0, 1, 1] == 9.0
        for cy, cx in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, cy, cx] == 4.0

    def test_matches_reference_oracle(self, rng):
        x = rng.standard_normal((4, 8, 8))
        w = rng.standard_normal((6, 4, 3, 3))
        spec = ConvSpec(4, 6, 3)
        fast = nn.conv2d(x, w, spec)
        ref = conv2d_reference(x, w, spec)
        assert rel_err(fast, ref) < 1e-5

    @pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 2), (1, 0, 4)])
    def test_matches_reference_oracle_variants(self, rng, stride, padding, groups):
        x = rng.standard_normal((2, 8, 7, 9))
        w = rng.standard_normal((8, 8 // groups, 3, 3))
        spec = ConvSpec(8, 8, 3, stride=stride, padding=padding, groups=groups)
        assert rel_err(nn.conv2d(x, w, spec), conv2d_reference(x, w, spec)) < 1e-5

    def test_grouped_equals_independent_convs(self, rng):
        # block-diagonal property: grouped conv == per-group dense convs, exact
        G = 4
        x = rng.standard_normal((2, 8, 6, 6))
        w = rng.standard_normal((12, 2, 3, 3))
        spec = ConvSpec(8, 12, 3, padding=1, groups=G)
        y = nn.conv2d(x, w, spec)
        for gi in range(G):
            xg = x[:, gi * 2:(gi + 1) * 2]
            wg = w[gi * 3:(gi + 1) * 3]
            yg = nn.conv2d(xg, wg, ConvSpec(2, 3, 3, padding=1))
            np.testing.assert_array_equal(y[:, gi * 3:(gi + 1) * 3], yg)

    def test_shape_mismatch_is_configuration_error(self, rng):
        with pytest.raises(ConfigurationError):
            nn.conv2d(rng.standard_normal((3, 5, 5)),
                      rng.standard_normal((2, 4, 3, 3)), ConvSpec(4, 2, 3))

    def test_identity_kernel_backward_alignment(self):
        # dL/dx of a centered identity kernel maps dL/dy straight through
        x = np.zeros((1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        spec = ConvSpec(1, 1, 3, padding=1)
        _, ctx = nn.conv2d_forward(x, w, spec)
        dy = np.arange(25.0).reshape(1, 1, 5, 5)
        dx, _ = nn.conv2d_backward(ctx, dy)
        np.testing.assert_array_equal(dx, dy)

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        spec = ConvSpec(4, 4, 3, stride=1, padding=1, groups=2)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal(spec.weight_shape)
        proj = rng.standard_normal((2, 4, 5, 5))

        def loss():
            return float((nn.conv2d(x, w, spec) * proj).sum())

        _, ctx = nn.conv2d_forward(x, w, spec)
        dx, dw = nn.conv2d_backward(ctx, proj)
        check_grad(loss, x, dx)
        check_grad(loss, w, dw)


class TestBatchNorm:
    def test_normalizes_to_zero_mean_unit_var(self, rng):
        x = 5.0 + 2.0 * rng.standard_normal((8, 3, 6, 6))
        st = BatchNormState.create(3)
        y = nn.bn_forward(x, st, training=True, affine=False)[0]
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    @pytest.mark.parametrize("shape", [(8, 3, 6, 6), (64, 16, 16, 16), (1, 2, 1, 1),
                                       (5, 7, 3, 9), (32, 64, 4, 4)])
    def test_batch_stats_equal_numpy(self, rng, shape):
        x = 3.0 + rng.standard_normal(shape) * 2.0
        _, ctx = nn.bn_forward(x, BatchNormState.create(shape[1]), training=True)
        np.testing.assert_array_equal(ctx.mean, x.mean(axis=(0, 2, 3)))
        np.testing.assert_array_equal(ctx.var, x.var(axis=(0, 2, 3)))

    def test_affine_shifts_and_scales(self, rng):
        x = rng.standard_normal((16, 2, 8, 8))
        st = BatchNormState.create(2)
        st.gamma[:] = 2.0
        st.beta[:] = 3.0
        y = nn.bn_forward(x, st, training=True)[0]
        assert np.allclose(y.mean(axis=(0, 2, 3)), 3.0, atol=1e-5)
        assert np.allclose(y.std(axis=(0, 2, 3)), 2.0, atol=1e-4)

    def test_inference_matches_scalar_oracle(self, rng):
        st = BatchNormState.create(3)
        st.gamma[:] = rng.uniform(0.5, 2.0, 3)
        st.beta[:] = rng.standard_normal(3)
        st.running_mean[:] = rng.standard_normal(3)
        st.running_var[:] = rng.uniform(0.1, 2.0, 3)
        x = rng.standard_normal((2, 3, 4, 4))
        y = nn.bn_forward(x, st, training=False)[0]
        for n in range(2):
            for c in range(3):
                scale = st.gamma[c] / np.sqrt(st.running_var[c] + st.eps)
                for i in range(4):
                    for j in range(4):
                        want = (x[n, c, i, j] - st.running_mean[c]) * scale + st.beta[c]
                        assert y[n, c, i, j] == want

    def test_running_stats_update(self, rng):
        st = BatchNormState.create(2, momentum=0.9)
        x = rng.standard_normal((4, 2, 3, 3)) + 1.0
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        nn.bn_forward(x, st, training=True)
        assert np.allclose(st.running_mean, 0.1 * mean)
        assert np.allclose(st.running_var, 0.9 * 1.0 + 0.1 * var)

    def test_degenerate_input_error(self):
        st = BatchNormState.create(2)
        with pytest.raises(DegenerateInputError):
            nn.bn_forward(np.zeros((0, 2, 3, 3)), st, training=True)

    def test_double_apply_is_single_affine(self, rng):
        # frozen-stats BN is scale-and-shift; two applications compose
        st1 = BatchNormState.create(3)
        st2 = BatchNormState.create(3)
        for s in (st1, st2):
            s.gamma[:] = rng.uniform(0.5, 1.5, 3)
            s.beta[:] = rng.standard_normal(3)
            s.running_mean[:] = rng.standard_normal(3)
            s.running_var[:] = rng.uniform(0.5, 2.0, 3)
        x = rng.standard_normal((2, 3, 5, 5))
        y = nn.bn_forward(nn.bn_forward(x, st1)[0], st2)[0]
        a1, b1 = bn_inference_affine(st1)
        a2, b2 = bn_inference_affine(st2)
        composed = x * (a1 * a2)[:, None, None] + (b1 * a2 + b2)[:, None, None]
        assert np.allclose(y, composed, atol=1e-6)

    @pytest.mark.parametrize("affine", [True, False])
    def test_backward_finite_difference(self, rng, affine):
        x = rng.standard_normal((3, 2, 4, 4))
        st = BatchNormState.create(2)
        proj = rng.standard_normal(x.shape)

        def loss():
            y, _ = nn.bn_forward(x, st, training=True, affine=affine)
            return float((y * proj).sum())

        _, ctx = nn.bn_forward(x, st, training=True, affine=affine)
        dx, dgamma, dbeta = nn.batchnorm_backward(ctx, proj)
        check_grad(loss, x, dx)
        if affine:
            check_grad(loss, st.gamma, dgamma)
            check_grad(loss, st.beta, dbeta)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(
            nn.activation(np.array([-1.0, 0.0, 2.0]), "relu"), [0.0, 0.0, 2.0])

    def test_tanh_zero(self):
        assert nn.activation(np.array([0.0]), "tanh")[0] == 0.0

    def test_binary_sign_tie_goes_positive(self):
        np.testing.assert_array_equal(
            nn.activation(np.array([-0.3, 0.0]), "binary_sign"), [-1.0, 1.0])

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid", "identity"])
    def test_grad_finite_difference(self, rng, kind):
        # draw away from relu's kink so central differences are valid
        x = rng.standard_normal(64) * 2.0
        x = x[np.abs(x) > 0.05]
        proj = rng.standard_normal(x.shape)

        def loss():
            return float((nn.activation(x, kind) * proj).sum())

        check_grad(loss, x, proj * nn.activation_grad(x, kind))

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-1000.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = nn.activation(x, "sigmoid")
            g = nn.activation_grad(x, "sigmoid")
        np.testing.assert_array_equal(y, [0.0, 1.0])
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_sigmoid_matches_logistic(self):
        x = np.linspace(-40.0, 40.0, 801)
        np.testing.assert_allclose(nn.sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                                   rtol=0.0, atol=1e-15)

    def test_binary_sign_ste_window(self):
        g = nn.activation_grad(np.array([-2.0, -0.5, 0.5, 2.0]), "binary_sign")
        np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 0.0])


class TestPooling:
    def test_maxpool_forward_backward(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        y, ctx = nn.maxpool2d_forward(x, 2)
        assert y.shape == (2, 3, 2, 2)
        assert y[0, 0, 0, 0] == x[0, 0, :2, :2].max()
        proj = rng.standard_normal(y.shape)

        def loss():
            return float((nn.maxpool2d_forward(x, 2)[0] * proj).sum())

        dx = nn.pool2d_backward(ctx, proj)
        check_grad(loss, x, dx)

    def test_avgpool_forward_backward(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        y, ctx = nn.avgpool2d_forward(x, 2)
        assert np.allclose(y[1, 2, 0, 1], x[1, 2, 0:2, 2:4].mean())
        proj = rng.standard_normal(y.shape)

        def loss():
            return float((nn.avgpool2d_forward(x, 2)[0] * proj).sum())

        dx = nn.pool2d_backward(ctx, proj)
        check_grad(loss, x, dx)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            nn.maxpool2d_forward(np.zeros((1, 1, 5, 5)), 2)


class TestLinearAndLoss:
    def test_linear_backward_fd(self, rng):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        proj = rng.standard_normal((4, 3))

        def loss():
            return float((nn.linear_forward(x, w)[0] * proj).sum())

        y, ctx = nn.linear_forward(x, w)
        dx, dw = nn.linear_backward(ctx, w, proj)
        check_grad(loss, x, dx)
        check_grad(loss, w, dw)

    def test_cross_entropy_perfect_prediction_zero_grad(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, d = nn.cross_entropy(logits, np.array([0]))
        assert loss < 1e-6
        assert np.all(np.abs(d) < 1e-6)

    def test_cross_entropy_grad_fd(self, rng):
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, 5)

        def loss():
            return nn.cross_entropy(logits, labels)[0]

        _, d = nn.cross_entropy(logits, labels)
        check_grad(loss, logits, d)

    def test_softmax_rows_sum_to_one(self, rng):
        p = nn.softmax(rng.standard_normal((4, 9)), temperature=2.5)
        assert np.allclose(p.sum(axis=-1), 1.0)


class TestSgd:
    def test_single_step_no_momentum(self):
        p = [np.array([1.0])]
        nn.sgd_step(p, [np.array([1.0])], [np.zeros(1)], lr=0.1)
        assert np.allclose(p[0], 0.9)

    def test_two_steps_with_momentum(self):
        p = [np.array([0.0])]
        v = [np.zeros(1)]
        nn.sgd_step(p, [np.array([1.0])], v, lr=0.1, momentum=0.9)
        assert np.allclose(p[0], -0.1)
        nn.sgd_step(p, [np.array([1.0])], v, lr=0.1, momentum=0.9)
        assert np.allclose(p[0], -0.29)

    def test_matches_scalar_reference_over_100_steps(self, rng):
        # independent scalar re-implementation of the update rule
        p = [rng.standard_normal(3)]
        v = [np.zeros(3)]
        ref_p = p[0].copy()
        ref_v = np.zeros(3)
        lr, mom, wd = 0.05, 0.9, 1e-2
        for _ in range(100):
            g = rng.standard_normal(3)
            nn.sgd_step(p, [g.copy()], v, lr=lr, momentum=mom, weight_decay=wd)
            for i in range(3):
                ref_v[i] = mom * ref_v[i] + g[i] + wd * ref_p[i]
                ref_p[i] = ref_p[i] - lr * ref_v[i]
        assert rel_err(p[0], ref_p) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2),
       st.integers(1, 2), st.data())
def test_conv_finite_outputs_property(cin_g, G, pad, stride, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    cin = cin_g * G
    cout = G * data.draw(st.integers(1, 3))
    h = data.draw(st.integers(3, 7))
    spec = ConvSpec(cin, cout, 3, stride=stride, padding=pad, groups=G)
    try:
        spec.out_hw(h, h)
    except ConfigurationError:
        return
    x = rng.standard_normal((cin, h, h))
    w = rng.standard_normal(spec.weight_shape)
    y = nn.conv2d(x, w, spec)
    assert np.all(np.isfinite(y))
