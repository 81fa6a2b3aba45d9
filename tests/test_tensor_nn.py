"""Numeric substrate: convolution, BN, activations, pooling, FC, SGD."""

import json
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cgnet import nn
from cgnet.gating import base_blocks
from cgnet.network import build_model
from cgnet.nn import (BatchNormState, ConfigurationError, ConvSpec,
                      DegenerateInputError)

from _oracles import (activation_fprime, bn_inference_affine, check_grad, col2im_reference,
                      conv2d_reference, finite_difference, maxpool2d_backward_reference,
                      maxpool2d_reference, rel_err, stacked_conv_grads)
from _workers import band_workers

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(np.float64).eps


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
        # 1x1x1x1 input [2], 1x1x1x1 weight [3] -> [6]
        y = nn.conv2d(np.array([[[[2.0]]]]), np.array([[[[3.0]]]]), ConvSpec(1, 1, 1))
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 6.0

    def test_all_ones_padded_overlap(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = nn.conv2d(x, w, ConvSpec(1, 1, 3, padding=1))
        assert y[0, 0, 1, 1] == 9.0
        for cy, cx in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert y[0, 0, cy, cx] == 4.0

    def test_matches_reference_oracle(self, rng):
        x = rng.standard_normal((1, 4, 8, 8))
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
            nn.conv2d(rng.standard_normal((1, 3, 5, 5)),
                      rng.standard_normal((2, 4, 3, 3)), ConvSpec(4, 2, 3))

    def test_empty_output_is_configuration_error(self, rng):
        with pytest.raises(ConfigurationError, match="output would be 0x0"):
            nn.conv2d(rng.standard_normal((1, 1, 2, 2)),
                      rng.standard_normal((1, 1, 3, 3)), ConvSpec(1, 1, 3))

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

    @pytest.mark.parametrize("G", [1, 2, 4])
    def test_backward_finite_difference(self, G):
        # the full sum's term and the base blocks' sums' term, sum(p * proj_p)
        rng = np.random.default_rng(G)
        spec = ConvSpec(4, 4, 3, stride=1, padding=1)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal(spec.weight_shape)
        proj, proj_p = rng.standard_normal((2, 2, 4, 5, 5))

        def loss():
            y, _, p = nn.conv2d_forward(x, w, spec, (base_blocks(w, G),))
            return float((y * proj).sum() + (p * proj_p).sum())

        _, ctx = nn.conv2d_forward(x, w, spec)
        dx, dw = nn.conv2d_backward(ctx, proj.copy(), proj_p, G)
        check_grad(loss, x, dx)
        check_grad(loss, w, dw)

    def test_read_only_upstream_gives_the_bytes_of_a_writable_copy(self, rng):
        # a read-only sample-innermost dy is copied, not written: building
        # D_h in its memory raised numpy's "output array is read-only"
        spec = ConvSpec(8, 8, 3, padding=1)
        x = sample_innermost(rng.standard_normal((4, 8, 6, 6)))
        w = rng.standard_normal(spec.weight_shape)
        y, ctx = nn.conv2d_forward(x, w, spec)
        dy, dp = (sample_innermost(a) for a in rng.standard_normal((2,) + y.shape))
        want = nn.conv2d_backward(ctx, dy.copy(order="K"), dp, 4)
        dy.flags.writeable = False
        before = dy.tobytes()
        got = nn.conv2d_backward(ctx, dy, dp, 4)
        assert [bits(a).tobytes() for a in got] == [bits(a).tobytes() for a in want]
        assert dy.tobytes() == before

    def test_grouped_backward_is_configuration_error(self, rng):
        # every layer's kernel is dense: a grouped forward has no backward
        spec = ConvSpec(4, 4, 3, padding=1, groups=2)
        y, ctx = nn.conv2d_forward(rng.standard_normal((2, 4, 5, 5)),
                                   rng.standard_normal(spec.weight_shape), spec)
        with pytest.raises(ConfigurationError, match="grouped convolution"):
            nn.conv2d_backward(ctx, np.ones_like(y))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 3),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 2, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           dy_chwn=st.booleans(), dp_chwn=st.one_of(st.none(), st.booleans()))
    @example(seed=3, n=2, G=4, per_in=1, per_out=2, k=3, stride=2, pad=1, hw=(5, 6),
             dy_chwn=True, dp_chwn=True)
    @example(seed=4, n=3, G=2, per_in=2, per_out=1, k=3, stride=1, pad=0, hw=(4, 5),
             dy_chwn=False, dp_chwn=False)
    def test_backward_matches_stacked_oracle(self, seed, n, G, per_in, per_out, k, stride,
                                             pad, hw, dy_chwn, dp_chwn):
        # dp_chwn None: no block sums, the dense layer's backward. dy and dp
        # in C order or sample-innermost; the oracle reads copies, since dy's
        # memory may be overwritten
        rng = np.random.default_rng(seed)
        spec = ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad)
        x = rng.standard_normal((n, spec.in_channels) + hw)
        w = rng.standard_normal(spec.weight_shape)
        y, ctx = nn.conv2d_forward(x, w, spec)
        dy, dp = rng.standard_normal((2,) + y.shape)
        if dp_chwn is None:
            dp[...] = 0.0
        rows = [np.ascontiguousarray(a.transpose(1, 2, 3, 0)).reshape(y.shape[1], -1)
                for a in (dy, dp)]
        cols = nn.im2col(x, k, stride, pad)
        args = (G, x.shape, spec)
        want_dw, want_dx = stacked_conv_grads(cols, w, *rows, *args)
        # Errors are relative to the sums of the products' magnitudes, the
        # scale of GEMM rounding
        dw_abs, dx_abs = stacked_conv_grads(np.abs(cols), np.abs(w), *map(np.abs, rows), *args)
        dp_in = None if dp_chwn is None else sample_innermost(dp) if dp_chwn else dp
        dx, dw = nn.conv2d_backward(ctx, sample_innermost(dy) if dy_chwn else dy, dp_in, G)
        assert np.linalg.norm(dw - want_dw) <= 1e-12 * np.linalg.norm(dw_abs)
        assert np.linalg.norm(dx - want_dx) <= 1e-12 * np.linalg.norm(dx_abs)


def sample_innermost(x):
    """A copy of the (n, c, h, w) batch x whose memory is (c, h, w, n)."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


im2col_cases = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.integers(1, 3),
    h=st.integers(1, 6), w=st.integers(1, 6), k=st.integers(1, 3),
    stride=st.integers(1, 3), padding=st.integers(0, 2))


class TestIm2col:
    """im2col's column layout, its independence of the input's memory
    order, and col2im as its adjoint."""

    @settings(max_examples=60, deadline=None)
    @given(**im2col_cases)
    def test_columns_for_either_memory_order(self, seed, n, c, h, w, k, stride, padding):
        assume(h + 2 * padding >= k and w + 2 * padding >= k)
        x = np.random.default_rng(seed).standard_normal((n, c, h, w))
        cols = nn.im2col(x, k, stride, padding)
        np.testing.assert_array_equal(nn.im2col(sample_innermost(x), k, stride, padding), cols)
        # row (channel, ky, kx), column (y, x, sample) holds
        # x_pad[sample, channel, stride*y + ky, stride*x + kx]
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        ho = (h + 2 * padding - k) // stride + 1
        wo = (w + 2 * padding - k) // stride + 1
        want = np.empty((c, k, k, ho, wo, n))
        for ky in range(k):
            for kx in range(k):
                win = xp[:, :, ky:ky + stride * ho:stride, kx:kx + stride * wo:stride]
                want[:, ky, kx] = win.transpose(1, 2, 3, 0)
        np.testing.assert_array_equal(cols, want.reshape(c * k * k, ho * wo * n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 3), k=st.sampled_from([1, 3]),
           stride=st.integers(1, 2), padding=st.integers(0, 1), whole=st.booleans(),
           hw=st.tuples(st.integers(1, 5), st.integers(1, 5)), chwn=st.booleans())
    # a 1x1 window on a (c, h, w, n) batch, and one window over a whole
    # sample, lay the columns out exactly as x's memory
    @example(n=2, c=2, k=1, stride=1, padding=0, whole=False, hw=(3, 4), chwn=True)
    @example(n=1, c=2, k=3, stride=1, padding=0, whole=True, hw=(3, 3), chwn=False)
    def test_columns_never_share_the_input(self, n, c, k, stride, padding, whole, hw, chwn):
        # the gated backward overwrites the columns with their gradients
        h, w = (k - 2 * padding,) * 2 if whole else hw
        assume(h >= 1 and h + 2 * padding >= k and w + 2 * padding >= k)
        x = np.arange(n * c * h * w, dtype=np.float64).reshape(n, c, h, w)
        if chwn:
            x = sample_innermost(x)
        assert not np.shares_memory(nn.im2col(x, k, stride, padding), x)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), G=st.sampled_from([1, 2, 3, 4]),
           per=st.integers(1, 2), h=st.integers(1, 6), w=st.integers(1, 6),
           k=st.integers(1, 3), stride=st.integers(1, 3), padding=st.integers(0, 2),
           chwn=st.booleans())
    def test_a_groups_columns_are_its_rows_of_the_whole(self, seed, n, G, per, h, w, k, stride,
                                                        padding, chwn):
        # a backward rebuilds one input group's columns at a time from the
        # input and scatters their gradients into that group's channels
        assume(h + 2 * padding >= k and w + 2 * padding >= k)
        rng = np.random.default_rng(seed)
        c, rows = G * per, per * k * k
        x = rng.standard_normal((n, c, h, w))
        if chwn:
            x = sample_innermost(x)
        cols = nn.im2col(x, k, stride, padding)
        dcols = rng.standard_normal(cols.shape)
        buf = np.empty((rows, cols.shape[1]))
        dx = np.empty((c, h, w, n))
        for g in range(G):
            chans, ins = slice(g * per, (g + 1) * per), slice(g * rows, (g + 1) * rows)
            want = cols[ins].view(np.uint64)
            np.testing.assert_array_equal(nn.im2col(x[:, chans], k, stride, padding)
                                          .view(np.uint64), want)
            assert nn.im2col(x[:, chans], k, stride, padding, out=buf) is buf
            np.testing.assert_array_equal(buf.view(np.uint64), want)
            nn.col2im(dcols[ins], (n, per, h, w), k, stride, padding, out=dx[chans])
        whole = nn.col2im(dcols, x.shape, k, stride, padding)
        np.testing.assert_array_equal(dx.transpose(3, 0, 1, 2).view(np.uint64),
                                      whole.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(**im2col_cases)
    def test_col2im_is_the_adjoint(self, seed, n, c, h, w, k, stride, padding):
        assume(h + 2 * padding >= k and w + 2 * padding >= k)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w))
        cols = nn.im2col(x, k, stride, padding)
        dcols = rng.standard_normal(cols.shape)
        dx = nn.col2im(dcols, x.shape, k, stride, padding)
        assert dx.shape == x.shape
        lhs = float(np.vdot(cols, dcols))
        rhs = float(np.vdot(x, dx))
        assert abs(lhs - rhs) <= 1e-12 * (np.abs(cols).sum() * np.abs(dcols).max() + 1.0)


    @settings(max_examples=60, deadline=None)
    @given(**im2col_cases)
    def test_col2im_matches_scalar_scatter(self, seed, n, c, h, w, k, stride, padding):
        # bitwise: every element takes its taps in the oracle's order
        assume(h + 2 * padding >= k and w + 2 * padding >= k)
        ho = (h + 2 * padding - k) // stride + 1
        wo = (w + 2 * padding - k) // stride + 1
        dcols = np.random.default_rng(seed).standard_normal((c * k * k, ho * wo * n))
        dx = nn.col2im(dcols, (n, c, h, w), k, stride, padding)
        want = col2im_reference(dcols, (n, c, h, w), k, stride, padding)
        np.testing.assert_array_equal(dx.view(np.uint64), want.view(np.uint64))


def forward_in_bands(budget, x, w, spec, blocks=(), bn=None):
    """``nn.conv2d_forward`` with ``BAND_BYTES`` set to ``budget``, and with
    ``bn`` folded into the kernel when given; 1 gives the fewest rows a
    band may have."""
    folded = None if bn is None else nn.fold_bn(w, bn)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "BAND_BYTES", budget)
        return nn.conv2d_forward(x, w, spec, blocks, folded=folded)


def row_bytes(x, spec):
    """Bytes of the im2col columns of one output row of ``x``."""
    n, c, h, w = x.shape
    return 8 * c * spec.kernel_size ** 2 * spec.out_hw(h, w)[1] * n


def random_blocks(rng, G, spec):
    """A (G, c_out/G, c_in/G*k*k) block-diagonal kernel stack for ``blocks``."""
    k = spec.kernel_size
    return rng.standard_normal((G, spec.out_channels // G, spec.in_channels // G * k * k))


class TestBandedForward:
    """The forward im2cols one band of output rows at a time, and every GEMM
    that reads the columns runs on the band."""

    @settings(max_examples=300, deadline=None)
    @given(ho=st.integers(1, 40), row_cols=st.integers(1, 300), rows_k=st.integers(1, 600),
           budget=st.integers(1, 2**22))
    def test_band_rule(self, ho, row_cols, rows_k, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "BAND_BYTES", budget)
            bands = nn._bands(ho, row_cols, rows_k)
        # the bands tile the output rows in order
        assert [b.start for b in bands] == [0] + [b.stop for b in bands[:-1]]
        assert bands[-1].stop == ho and all(b.stop > b.start for b in bands)
        if len(bands) == 1:
            # a layer that fits, or whose columns are not whole multiples of
            # 64, is not cut
            return
        # every band spans a multiple of 64 columns, so none spans 16 or
        # fewer (OpenBLAS runs such a GEMM on another kernel); each fills
        # at most the budget, or the fewest rows that span 64 columns
        cols = [(b.stop - b.start) * row_cols for b in bands]
        assert all(c % 64 == 0 for c in cols) and min(cols) > 16
        step = 64 // math.gcd(64, row_cols)
        assert all(8 * rows_k * c <= max(budget, 8 * rows_k * row_cols * step) for c in cols)
        assert 8 * rows_k * row_cols * ho > budget

    @pytest.mark.parametrize("name", ["vgg8_cg", "resnet_cg"])
    def test_batch_64_bands_are_at_least_128_columns(self, name):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())["model"]
        model = build_model(cfg, np.random.default_rng(0))
        widths, bands_rule = [], nn._bands

        def recording(ho, row_cols, rows_k):
            bands = bands_rule(ho, row_cols, rows_k)
            widths.extend((b.stop - b.start) * row_cols for b in bands)
            return bands

        x = np.random.default_rng(1).standard_normal((64, *cfg["input_shape"]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_bands", recording)
            model.forward_infer(x, require_frozen=False)
        assert widths and min(widths) >= 128, min(widths)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 32]),
           groups=st.sampled_from([1, 2]), G=st.sampled_from([1, 2, 4]),
           per_in=st.integers(1, 2), per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(1, 8), st.integers(1, 8)), rows=st.sampled_from([1, 2, 4]),
           chwn=st.booleans())
    # several bands and a short last one: 7 rows of 16 samples x 4 columns
    # in bands of 2, 2, 2 and 1 rows; and a grouped kernel on 10 rows of
    # 16 x 2 columns in bands of 4, 4 and 2 rows
    @example(seed=1, n=16, groups=1, G=4, per_in=1, per_out=2, k=3, stride=1, pad=1,
             hw=(7, 4), rows=2, chwn=False)
    @example(seed=2, n=16, groups=2, G=2, per_in=2, per_out=1, k=3, stride=1, pad=1,
             hw=(10, 2), rows=4, chwn=True)
    def test_matches_reference_oracle_in_bands(self, seed, n, groups, G, per_in, per_out, k,
                                               stride, pad, hw, rows, chwn):
        # a budget of ``rows`` output rows, rounded down to whole multiples
        # of 64 columns but at least one
        assume(hw[0] + 2 * pad >= k and hw[1] + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        c_in, c_out = 2 * G * per_in, 2 * G * per_out
        spec = ConvSpec(c_in, c_out, k, stride=stride, padding=pad, groups=groups)
        x = rng.standard_normal((n, c_in, *hw))
        if chwn:
            x = sample_innermost(x)
        w = rng.standard_normal(spec.weight_shape)
        blocks = random_blocks(rng, G, ConvSpec(c_in, c_out, k))
        y, _, p = forward_in_bands(rows * row_bytes(x, spec), x, w, spec, (blocks,))
        assert rel_err(y, conv2d_reference(x, w, spec)) < 1e-12
        grouped = ConvSpec(c_in, c_out, k, stride=stride, padding=pad, groups=G)
        want = conv2d_reference(x, blocks.reshape(grouped.weight_shape), grouped)
        assert rel_err(p, want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 7, 16, 40, 64]),
           G=st.sampled_from([1, 2, 4]),
           per_in=st.integers(1, 3), per_out=st.integers(1, 3), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           budget=st.sampled_from([1, 4096, 65536]))
    def test_band_size_changes_no_bit(self, seed, n, G, per_in, per_out, k, stride, pad, hw,
                                      budget):
        # each output column's dot product is the whole layer's, on bands of
        # any size: the full sum and every block's partial sums
        assume(hw[0] + 2 * pad >= k and hw[1] + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        spec = ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad)
        x = rng.standard_normal((n, spec.in_channels, *hw))
        w = rng.standard_normal(spec.weight_shape)
        blocks = (random_blocks(rng, G, spec), random_blocks(rng, 1, spec))
        y, _, *parts = forward_in_bands(budget, x, w, spec, blocks)
        y1, _, *parts1 = forward_in_bands(2**62, x, w, spec, blocks)
        for got, want in zip([y, *parts], [y1, *parts1]):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def random_bn(rng, c):
    """A frozen ``BatchNormState`` of c channels with every statistic drawn,
    gamma of either sign."""
    return BatchNormState(rng.uniform(0.5, 2.0, c) * rng.choice([-1.0, 1.0], c),
                          rng.standard_normal(c), rng.standard_normal(c),
                          rng.uniform(0.1, 2.0, c))


def bits(a):
    return a.view(np.uint64)


class TestFoldedBatchNorm:
    """``conv2d_forward(..., folded=fold_bn(w, bn))`` runs frozen batch
    norm inside the GEMM."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 16, 32]),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 3),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(1, 7), st.integers(1, 5)),
           rows=st.sampled_from([None, 1, 2]))
    # 7 rows of 16 samples x 4 columns in bands of 1 row: 7 bands
    @example(seed=1, n=16, G=4, per_in=1, per_out=2, k=3, stride=1, pad=1, hw=(7, 4), rows=1)
    def test_matches_convolution_then_batch_norm(self, seed, n, G, per_in, per_out, k, stride,
                                                 pad, hw, rows):
        # rows: a budget of that many output rows of columns (several
        # bands wherever the layer spans a multiple of 64 columns), or
        # the module's
        assume(hw[0] + 2 * pad >= k and hw[1] + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        spec = ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad)
        x = rng.standard_normal((n, spec.in_channels, *hw))
        w = rng.standard_normal(spec.weight_shape)
        st_bn = random_bn(rng, spec.out_channels)
        budget = nn.BAND_BYTES if rows is None else rows * row_bytes(x, spec)
        y, _, p = forward_in_bands(budget, x, w, spec, (base_blocks(w, G),), bn=st_bn)
        # the partial sums do not see the fold
        _, _, p_plain = forward_in_bands(budget, x, w, spec, (base_blocks(w, G),))
        np.testing.assert_array_equal(bits(p), bits(p_plain))
        # y is scale*conv + shift, within GEMM rounding: a few eps of the
        # sum of its terms' magnitudes, |scale|*conv(|x|, |w|) + |shift|
        scale, shift = bn_inference_affine(st_bn)
        want = conv2d_reference(x, w, spec) * scale[:, None, None] + shift[:, None, None]
        magnitude = (conv2d_reference(np.abs(x), np.abs(w), spec) * np.abs(scale)[:, None, None]
                     + np.abs(shift)[:, None, None])
        kk = spec.in_channels * k * k
        assert np.all(np.abs(y - want) <= 2 * (kk + 2) * EPS * magnitude)

    @pytest.mark.parametrize("name", ["mnist_cg", "vgg8_cg", "resnet_cg"])
    def test_bands_change_no_bit_at_shipped_shapes(self, name):
        # every convolution of the shipped models at batch 64, a BN folded
        # and, in a gated layer, beside its base blocks: the fewest rows a
        # band may have against one band
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())["model"]
        rng = np.random.default_rng(2)
        model = build_model(cfg, rng)
        x = rng.standard_normal((64, *cfg["input_shape"]))
        _, records = model.forward_infer(x, collect=True, capture=True, require_frozen=False)
        convs = 0
        for rec in records:
            if rec.x_in is None:
                continue   # the linear head captures no input
            blocks = (base_blocks(rec.w, rec.cfg.groups),) if rec.gated else ()
            bn = random_bn(rng, rec.spec.out_channels)
            several = forward_in_bands(1, rec.x_in, rec.w, rec.spec, blocks, bn=bn)
            one = forward_in_bands(2**62, rec.x_in, rec.w, rec.spec, blocks, bn=bn)
            for got, want in zip(several[:1] + several[2:], one[:1] + one[2:]):
                np.testing.assert_array_equal(bits(got), bits(want), err_msg=rec.name)
            convs += 1
        assert convs >= 3

    def test_grouped_kernel_is_configuration_error(self, rng):
        spec = ConvSpec(4, 4, 3, padding=1, groups=2)
        w = rng.standard_normal(spec.weight_shape)
        with pytest.raises(ConfigurationError, match="dense kernel"):
            nn.conv2d_forward(rng.standard_normal((2, 4, 5, 5)), w, spec,
                              folded=nn.fold_bn(w, BatchNormState.create(4)))


class TestBandWorkers:
    """A convolution runs its bands on ``nn._band_workers()`` threads, the
    calling one among them."""

    @pytest.fixture
    def host(self, monkeypatch):
        """Sets the affinity mask's CPU count and the BLAS thread
        variables, the others unset."""
        def use(cpus, **env):
            monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            for var in nn.THREAD_VARS:
                monkeypatch.delenv(var, raising=False)
            for var, value in env.items():
                monkeypatch.setenv(var, value)
            return nn._band_workers()
        return use

    def test_rule(self, host):
        # BLAS takes every CPU unless a variable caps it; the bands take
        # the rest
        assert host(2) == 1
        assert host(2, OPENBLAS_NUM_THREADS="1") == 2
        assert host(2, OMP_NUM_THREADS="2") == 1
        assert host(8, MKL_NUM_THREADS="3") == 2
        assert host(2, OMP_NUM_THREADS="4") == 1   # at least one
        # the first variable set to a positive integer counts
        assert host(4, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="1") == 2
        for ignored in ("two", "", "0", "-1", "1.5"):
            assert host(2, OPENBLAS_NUM_THREADS=ignored) == 1, ignored
            assert host(2, OPENBLAS_NUM_THREADS=ignored, OMP_NUM_THREADS="1") == 2, ignored

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(nn.os, "sched_getaffinity")
        monkeypatch.setattr(nn.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert nn._band_workers() == 2

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 16, 32, 64]),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 3), per_out=st.integers(1, 2),
           k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           pad=st.sampled_from([0, 1]), hw=st.tuples(st.integers(1, 9), st.integers(1, 6)),
           rows=st.sampled_from([1, 2, 3]), fold=st.booleans())
    # 7 rows of 16 samples x 4 columns in bands of 2, 2, 2 and 1 rows:
    # uneven bands, more than any worker count
    @example(seed=1, n=16, G=4, per_in=1, per_out=2, k=3, stride=1, pad=1, hw=(7, 4), rows=2,
             fold=True)
    def test_worker_count_changes_no_bit(self, seed, n, G, per_in, per_out, k, stride, pad, hw,
                                         rows, fold):
        # y, its fold and every block's partial sums, at 1, 2 and 3 workers
        assume(hw[0] + 2 * pad >= k and hw[1] + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        spec = ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad)
        x = rng.standard_normal((n, spec.in_channels, *hw))
        w = rng.standard_normal(spec.weight_shape)
        blocks = (random_blocks(rng, G, spec), random_blocks(rng, 1, spec))
        bn = random_bn(rng, spec.out_channels) if fold else None
        outs = []
        for workers in (1, 2, 3):
            with band_workers(workers):
                y, _, *parts = forward_in_bands(rows * row_bytes(x, spec), x, w, spec, blocks,
                                                bn=bn)
            outs.append([bits(a).tobytes() for a in (y, *parts)])
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_more_workers_than_cores_claim_every_band_once(self, rng):
        # 5 threads switching every microsecond on 32 bands of one row: a
        # band claimed twice or never leaves its columns of the fresh
        # outputs unwritten or races, and the bytes differ
        spec = ConvSpec(4, 8, 3, padding=1)
        x = rng.standard_normal((16, 4, 32, 4))
        w = rng.standard_normal(spec.weight_shape)
        blocks = (random_blocks(rng, 2, spec),)
        with band_workers(1):
            want = [bits(a).tobytes() for a in forward_in_bands(1, x, w, spec, blocks)[::2]]
        got = []

        def calls():
            with band_workers(5):
                for _ in range(20):
                    y, _, p = forward_in_bands(1, x, w, spec, blocks)
                    got.append([bits(y).tobytes(), bits(p).tobytes()])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=calls, daemon=True)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(got) == 20 and all(g == want for g in got)

    def test_a_band_error_reaches_the_caller(self, rng):
        # every band raises, on each thread; the pool still serves the next
        # call
        spec = ConvSpec(4, 4, 3, padding=1)
        x = rng.standard_normal((16, 4, 8, 8))
        w = rng.standard_normal(spec.weight_shape)
        bad = rng.standard_normal((3, 1, 12))   # 3 groups of 4 output channels
        with band_workers(2):
            with pytest.raises(ValueError):
                forward_in_bands(1, x, w, spec, (bad,))
            y, _ = forward_in_bands(1, x, w, spec)
        with band_workers(1):
            y1, _ = forward_in_bands(1, x, w, spec)
        np.testing.assert_array_equal(bits(y), bits(y1))

    @staticmethod
    def backward_bytes(ctx, dy, dp, G):
        """dx's and dw's bytes from one backward on a copy of ``dy`` in its
        own memory order (the backward may overwrite dy)."""
        dx, dw = nn.conv2d_backward(ctx, dy.copy(order="K"), dp, G)
        return [bits(dx).tobytes(), bits(dw).tobytes()]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 3, 16]),
           G=st.sampled_from([1, 2, 4, 8]), per_in=st.integers(1, 2), per_out=st.integers(1, 2),
           k=st.sampled_from([1, 2, 3]), stride=st.sampled_from([1, 2]),
           pad=st.sampled_from([0, 1]), hw=st.tuples(st.integers(1, 9), st.integers(1, 6)),
           with_dp=st.booleans(), x_chwn=st.booleans(),
           dy_order=st.sampled_from(["chwn", "C", "read-only"]))
    # vgg8 L01's channels: more groups than any worker count
    @example(seed=2, n=16, G=4, per_in=2, per_out=4, k=3, stride=1, pad=1, hw=(8, 8),
             with_dp=True, x_chwn=True, dy_order="chwn")
    def test_backward_worker_count_changes_no_bit(self, seed, n, G, per_in, per_out, k, stride,
                                                  pad, hw, with_dp, x_chwn, dy_order):
        # dx and dw at 1, 2 and 3 workers, dp absent or given, for a dy
        # the backward consumes, one it copies, and a read-only one
        assume(hw[0] + 2 * pad >= k and hw[1] + 2 * pad >= k)
        rng = np.random.default_rng(seed)
        spec = ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad)
        x = rng.standard_normal((n, spec.in_channels, *hw))
        x = sample_innermost(x) if x_chwn else x
        w = rng.standard_normal(spec.weight_shape)
        y, ctx = nn.conv2d_forward(x, w, spec)
        dy, dp = rng.standard_normal((2,) + y.shape)
        dy = dy if dy_order == "C" else sample_innermost(dy)
        if dy_order == "read-only":
            dy.flags.writeable = False
        outs = []
        for workers in (1, 2, 3):
            with band_workers(workers):
                outs.append(self.backward_bytes(ctx, dy, dp if with_dp else None, G))
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_more_workers_than_cores_run_every_group_once(self, rng):
        # 5 threads switching every microsecond on 8 groups: a group run
        # twice or never, or a pool thread reading dy while the calling
        # thread builds D_h in it, changes the bytes
        spec = ConvSpec(8, 16, 3, padding=1)
        x = sample_innermost(rng.standard_normal((16, 8, 8, 8)))
        _, ctx = nn.conv2d_forward(x, rng.standard_normal(spec.weight_shape), spec)
        dy, dp = (sample_innermost(a) for a in rng.standard_normal((2, 16, 16, 8, 8)))
        with band_workers(1):
            want = self.backward_bytes(ctx, dy, dp, 8)
        got = []

        def calls():
            with band_workers(5):
                for _ in range(20):
                    got.append(self.backward_bytes(ctx, dy, dp, 8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=calls, daemon=True)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(got) == 20 and all(g == want for g in got)

    def test_a_group_error_reaches_the_caller(self, rng):
        # a dp one column too wide makes every group's D_h raise, on each
        # thread; the pool still serves the next call
        spec = ConvSpec(8, 8, 3, padding=1)
        x = sample_innermost(rng.standard_normal((4, 8, 6, 6)))
        _, ctx = nn.conv2d_forward(x, rng.standard_normal(spec.weight_shape), spec)
        dy, dp = (sample_innermost(a) for a in rng.standard_normal((2, 4, 8, 6, 6)))
        bad = sample_innermost(rng.standard_normal((4, 8, 6, 7)))
        with band_workers(2):
            with pytest.raises(ValueError):
                self.backward_bytes(ctx, dy, bad, 4)
            got = self.backward_bytes(ctx, dy, dp, 4)
        with band_workers(1):
            assert got == self.backward_bytes(ctx, dy, dp, 4)

    class RefusingPool:
        """A band pool that fails a call which hands it any work."""

        def submit(self, *args):
            raise AssertionError("a call on one thread handed work to the pool")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_thread_runs_without_the_pool(self, rng, monkeypatch, workers):
        # at one worker a layer of 8 bands (rows of 16 samples x 4 columns)
        # and 4 groups, and at two a layer of one band and one group, run
        # on the calling thread alone
        spec = ConvSpec(8, 8, 3, padding=1)
        x = sample_innermost(rng.standard_normal((16, 8, 8, 4)))
        w = rng.standard_normal(spec.weight_shape)
        dy, dp = (sample_innermost(a) for a in rng.standard_normal((2, 16, 8, 8, 4)))
        budget, G = (1, 4) if workers == 1 else (nn.BAND_BYTES, 1)
        blocks = (random_blocks(rng, G, spec),)
        with band_workers(1):
            y, ctx, p = forward_in_bands(budget, x, w, spec, blocks)
            want = [bits(y).tobytes(), bits(p).tobytes(), *self.backward_bytes(ctx, dy, dp, G)]
        monkeypatch.setattr(nn, "_band_pool", lambda: (workers, self.RefusingPool()))
        y, ctx, p = forward_in_bands(budget, x, w, spec, blocks)
        got = [bits(y).tobytes(), bits(p).tobytes(), *self.backward_bytes(ctx, dy, dp, G)]
        assert got == want


def at_slab_budget(budget, workers, run):
    """``run()`` with ``nn.SLAB_BYTES`` set to ``budget`` on ``workers``
    threads."""
    with band_workers(workers), pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "SLAB_BYTES", budget)
        return run()


class TestGroupFloor:
    """A backward whose input groups' columns fall below half of
    ``nn.SLAB_BYTES`` runs its groups on the calling thread."""

    def test_small_groups_stay_on_the_calling_thread(self, rng, monkeypatch):
        # vgg8's 32 -> 64 layer at 2 x 2: 72 rows of 2 x 2 x 64 columns,
        # 144 KiB a group; at the parent's hand-out two threads ran it
        # 1.05-1.21x slower than one
        spec = ConvSpec(32, 64, 3, padding=1)
        x = sample_innermost(rng.standard_normal((64, 32, 2, 2)))
        _, ctx = nn.conv2d_forward(x, rng.standard_normal(spec.weight_shape), spec)
        dy, dp = (sample_innermost(a) for a in rng.standard_normal((2, 64, 64, 2, 2)))
        assert 8 * 72 * 2 * 2 * 64 < nn.SLAB_BYTES // 2
        with band_workers(1):
            want = TestBandWorkers.backward_bytes(ctx, dy, dp, 4)
        monkeypatch.setattr(nn, "_band_pool", lambda: (2, TestBandWorkers.RefusingPool()))
        assert TestBandWorkers.backward_bytes(ctx, dy, dp, 4) == want
        monkeypatch.setattr(nn, "SLAB_BYTES", 2 * 8 * 72 * 2 * 2 * 64)   # at the floor
        with pytest.raises(AssertionError, match="handed work to the pool"):
            TestBandWorkers.backward_bytes(ctx, dy, dp, 4)


class TestChannelSlabs:
    """A per-channel pass (batch norm, its backward, pooling's backward)
    runs one slab of whole channels at a time (``nn._slabs``) on the band
    pool, and no bit depends on the cut or on the worker count."""

    @staticmethod
    def cut(c, per, chwn=True):
        """The slabs of a (2, c, 2, 2) batch at a budget of ``per``
        channels."""
        x = np.zeros((2, c, 2, 2))
        x = sample_innermost(x) if chwn else x
        return at_slab_budget(per * 8 * 2 * 2 * 2, 1, lambda: nn._slabs(x))

    def test_cut(self):
        assert self.cut(3, 3) == [slice(0, 3)]                  # within the budget
        assert self.cut(7, 3) == [slice(0, 3), slice(3, 7)]     # a single last channel joins
        assert self.cut(8, 3) == [slice(0, 3), slice(3, 6), slice(6, 8)]
        assert self.cut(5, 1) == [slice(0, 2), slice(2, 5)]     # at least two channels
        assert self.cut(1, 0) == [slice(0, 1)]
        assert self.cut(7, 3, chwn=False) == [slice(0, 7)]      # a channel is not contiguous
        mixed = at_slab_budget(8 * 2 * 2 * 2, 1, lambda: nn._slabs(
            sample_innermost(np.zeros((2, 7, 2, 2))), np.zeros((2, 7, 2, 2))))
        assert mixed == [slice(0, 7)]

    def test_one_worker_runs_the_whole_batch_in_one_pass(self):
        # at one worker a pass runs once over the whole batch
        x = sample_innermost(np.zeros((2, 7, 2, 2)))
        for workers, want in ((1, [slice(0, 7)]), (2, [slice(0, 3), slice(3, 7)])):
            seen = []
            at_slab_budget(3 * 8 * 2 * 2 * 2, workers, lambda: nn._run_slabs(seen.append, x))
            assert sorted(seen, key=lambda s: s.start) == want, workers

    @staticmethod
    def passes(x, dy, xp, st_arrays):
        """The bytes of a batch norm forward (x^, 1/sigma, running stats),
        its backward (dx, dgamma, dbeta) and a max pooling's forward and
        backward."""
        gamma, beta, mean, var = (a.copy() for a in st_arrays)
        st_ = BatchNormState(gamma, beta, mean, var)
        xhat, ctx = nn.bn_forward(x, st_)
        out = [xhat, ctx.inv_std, st_.running_mean, st_.running_var]
        out += nn.batchnorm_backward(ctx, dy, gamma)
        y, pctx = nn.maxpool2d_forward(xp)
        out += [y, pctx.argmax, nn.pool2d_backward(pctx, sample_innermost(np.cos(y)))]
        return [a.tobytes() for a in out]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 9), h=st.integers(1, 5),
           w=st.integers(1, 5), n=st.sampled_from([1, 3, 16, 64]), per=st.integers(0, 4))
    # 16 x 16 x 64 channels, odd, in slabs of two and three: slabs of one
    # would round einsum's sums otherwise
    @example(seed=3, c=7, h=16, w=16, n=64, per=2)
    @example(seed=4, c=5, h=16, w=16, n=64, per=1)
    def test_worker_count_changes_no_bit(self, seed, c, h, w, n, per):
        rng = np.random.default_rng(seed)
        x, dy = (sample_innermost(3.0 * rng.standard_normal((n, c, h, w)) + 1.0)
                 for _ in range(2))
        xp = sample_innermost(rng.standard_normal((n, c, 2 * h, 2 * w)))
        st_arrays = (rng.uniform(-2.0, 2.0, c), rng.standard_normal(c),
                     rng.standard_normal(c), rng.uniform(0.1, 2.0, c))
        want = at_slab_budget(2**62, 1, lambda: self.passes(x, dy, xp, st_arrays))
        budget = per * 8 * n * h * w
        for workers in (1, 2, 3):
            got = at_slab_budget(budget, workers, lambda: self.passes(x, dy, xp, st_arrays))
            assert got == want, workers

    def test_more_workers_than_cores_run_every_slab_once(self, rng):
        # 5 threads switching every microsecond on 16 slabs of two
        # channels: a slab run twice or never, or a write outside its own
        # channels, changes the bytes
        x, dy = (sample_innermost(rng.standard_normal((16, 32, 4, 4))) for _ in range(2))
        xp = sample_innermost(rng.standard_normal((16, 32, 8, 8)))
        st_arrays = (rng.uniform(0.5, 2.0, 32), rng.standard_normal(32),
                     rng.standard_normal(32), rng.uniform(0.1, 2.0, 32))
        want = at_slab_budget(2**62, 1, lambda: self.passes(x, dy, xp, st_arrays))
        got = []

        def calls():
            for _ in range(20):
                got.append(at_slab_budget(1, 5, lambda: self.passes(x, dy, xp, st_arrays)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=calls, daemon=True)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(got) == 20 and all(g == want for g in got)

    def test_a_slab_is_never_a_single_channel_of_a_larger_batch(self, rng):
        # one channel's einsum("nchw,nchw->c") at 16 x 16 x 64 rounds
        # otherwise than the same channel's in a larger batch: a slab of
        # one channel would change dgamma. _slabs gives every slab two
        gamma = np.ones(5)
        x, dy = (sample_innermost(rng.standard_normal((64, 5, 16, 16))) for _ in range(2))
        xhat, ctx = nn.bn_forward(x, BatchNormState.create(5))
        whole = np.einsum("nchw,nchw->c", dy, xhat)
        single = [np.einsum("nchw,nchw->c", dy[:, i:i + 1], xhat[:, i:i + 1])[0]
                  for i in range(5)]
        assert np.array(single).tobytes() != whole.tobytes()
        want = [a.tobytes() for a in
                at_slab_budget(2**62, 1, lambda: nn.batchnorm_backward(ctx, dy, gamma))]
        assert at_slab_budget(1, 2, lambda: nn._slabs(dy, xhat)) == [slice(0, 2), slice(2, 5)]
        got = at_slab_budget(1, 2, lambda: nn.batchnorm_backward(ctx, dy, gamma))
        assert [a.tobytes() for a in got] == want


class TestBatchNorm:
    def test_normalizes_to_zero_mean_unit_var(self, rng):
        x = 5.0 + 2.0 * rng.standard_normal((8, 3, 6, 6))
        st = BatchNormState.create(3)
        y = nn.bn_forward(x, st)[0]
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    @pytest.mark.parametrize("shape", [(8, 3, 6, 6), (64, 16, 16, 16), (1, 2, 1, 1),
                                       (5, 7, 3, 9), (32, 64, 4, 4)])
    def test_batch_stats_equal_numpy(self, rng, shape):
        # the batch statistics show in the running-stat update, which the
        # same expression recomputes here from numpy's mean and variance
        x = 3.0 + rng.standard_normal(shape) * 2.0
        st = BatchNormState.create(shape[1])
        st.running_mean[:] = rng.standard_normal(shape[1])
        st.running_var[:] = rng.uniform(0.5, 2.0, shape[1])
        m = st.momentum
        want_mean = m * st.running_mean + (1.0 - m) * x.mean(axis=(0, 2, 3))
        want_var = m * st.running_var + (1.0 - m) * x.var(axis=(0, 2, 3))
        nn.bn_forward(x, st)
        np.testing.assert_array_equal(st.running_mean, want_mean)
        np.testing.assert_array_equal(st.running_var, want_var)

    def test_affine_shifts_and_scales(self, rng):
        x = rng.standard_normal((16, 2, 8, 8))
        st = BatchNormState.create(2)
        st.gamma[:] = 2.0
        st.beta[:] = 3.0
        xhat, _ = nn.bn_forward(x, st)
        y = st.gamma[:, None, None] * xhat + st.beta[:, None, None]
        assert np.allclose(y.mean(axis=(0, 2, 3)), 3.0, atol=1e-5)
        assert np.allclose(y.std(axis=(0, 2, 3)), 2.0, atol=1e-4)

    def test_inference_matches_scalar_oracle(self, rng):
        st = BatchNormState.create(3)
        st.gamma[:] = rng.uniform(0.5, 2.0, 3)
        st.beta[:] = rng.standard_normal(3)
        st.running_mean[:] = rng.standard_normal(3)
        st.running_var[:] = rng.uniform(0.1, 2.0, 3)
        x = rng.standard_normal((2, 3, 4, 4))
        y = nn.bn_inference(x, st)
        for n in range(2):
            for c in range(3):
                scale = st.gamma[c] / np.sqrt(st.running_var[c] + st.eps)
                for i in range(4):
                    for j in range(4):
                        want = (x[n, c, i, j] - st.running_mean[c]) * scale + st.beta[c]
                        assert y[n, c, i, j] == want

    def test_running_stats_update(self, rng):
        st = BatchNormState.create(2)
        x = rng.standard_normal((4, 2, 3, 3)) + 1.0
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        nn.bn_forward(x, st)
        assert np.allclose(st.running_mean, 0.1 * mean)
        assert np.allclose(st.running_var, 0.9 * 1.0 + 0.1 * var)

    def test_degenerate_input_error(self):
        st = BatchNormState.create(2)
        with pytest.raises(DegenerateInputError):
            nn.bn_forward(np.zeros((0, 2, 3, 3)), st)

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
        y = nn.bn_inference(nn.bn_inference(x, st1), st2)
        a1, b1 = bn_inference_affine(st1)
        a2, b2 = bn_inference_affine(st2)
        composed = x * (a1 * a2)[:, None, None] + (b1 * a2 + b2)[:, None, None]
        assert np.allclose(y, composed, atol=1e-6)

    @pytest.mark.parametrize("affine", [True, False])
    def test_backward_finite_difference(self, rng, affine):
        # without the caller's affine step, the backward takes gamma = 1
        x = rng.standard_normal((3, 2, 4, 4))
        st = BatchNormState.create(2)
        st.gamma[:] = rng.uniform(0.5, 1.5, 2)
        st.beta[:] = rng.standard_normal(2)
        proj = rng.standard_normal(x.shape)

        def loss():
            y, _ = nn.bn_forward(x, st)
            if affine:
                y = st.gamma[:, None, None] * y + st.beta[:, None, None]
            return float((y * proj).sum())

        _, ctx = nn.bn_forward(x, st)
        gamma = st.gamma if affine else np.ones(2)
        dx, dgamma, dbeta = nn.batchnorm_backward(ctx, proj, gamma)
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

    @pytest.mark.parametrize("kind", nn.ACTIVATION_KINDS)
    def test_out_equals_fresh_result(self, kind, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        x[0, 0, 0, :2] = [0.0, -0.0]
        want = nn.activation(x, kind)
        assert not np.shares_memory(want, x)
        in_place = x.copy()
        for src, out in ((in_place, in_place), (x, np.empty_like(x))):
            got = nn.activation(src, kind, out=out)
            assert got is out
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def fprime(x, kind):
        """f'(x) from ``activation_with_grad``, run on a copy of x."""
        return nn.activation_with_grad(x.copy(), kind)[1]

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid", "identity"])
    def test_grad_finite_difference(self, rng, kind):
        # draw away from relu's kink so central differences are valid
        x = rng.standard_normal(64) * 2.0
        x = x[np.abs(x) > 0.05]
        proj = rng.standard_normal(x.shape)

        def loss():
            return float((nn.activation(x, kind) * proj).sum())

        check_grad(loss, x, proj * self.fprime(x, kind))

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-1000.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, g = nn.activation_with_grad(x.copy(), "sigmoid")
        np.testing.assert_array_equal(y, [0.0, 1.0])
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_sigmoid_matches_logistic(self):
        x = np.linspace(-40.0, 40.0, 801)
        np.testing.assert_allclose(nn.sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                                   rtol=0.0, atol=1e-15)

    def test_binary_sign_ste_window(self):
        g = self.fprime(np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]), "binary_sign")
        np.testing.assert_array_equal(g, [False, True, True, True, True, False])

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(nn.ACTIVATION_KINDS),
           values=st.lists(st.one_of(st.floats(), st.sampled_from(
               [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, 20.0, -20.0])),
               min_size=1, max_size=24))
    def test_with_grad_is_bitwise_the_activation_and_its_grad(self, kind, values):
        # one activation run in place, f' of tanh and sigmoid from its
        # output: bit for bit f(pre) and the oracle's f'(pre), computed from
        # pre, signed zeros, infinities and NaN payloads included
        pre = np.array(values)
        with np.errstate(all="ignore"):
            want_y, want_g = nn.activation(pre, kind), activation_fprime(pre, kind)
            buf = pre.copy()
            y, g = nn.activation_with_grad(buf, kind)
        assert y is buf and g.dtype == want_g.dtype
        assert y.tobytes() == want_y.tobytes()
        assert g.tobytes() == want_g.tobytes()

    @pytest.mark.parametrize("kind", nn.ACTIVATION_KINDS)
    def test_grad_comes_at_its_narrowest_dtype(self, kind, rng):
        # a training context keeps f': one byte per element where it is 0 or 1
        x = np.ascontiguousarray(rng.standard_normal((4, 4, 3, 2))).transpose(3, 0, 1, 2)
        g = nn.activation_with_grad(x, kind)[1]
        assert g.dtype == (np.float64 if kind in ("tanh", "sigmoid") else bool)
        assert g.transpose(1, 2, 3, 0).flags.c_contiguous
        if kind == "identity":
            assert g.all()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown activation"):
            nn.activation_with_grad(np.zeros(3), "softsign")


# bit patterns of +-0, +-inf, quiet and signalling NaNs with payloads and
# either sign, the smallest subnormal and the largest finite value
SPECIAL_BITS = [0, -2**63, 0x7FF0000000000000, -0x10000000000000, 0x7FF8000000000000,
                0x7FF8000000000001, 0x7FF0000000000001, -1, 1, 0x7FEFFFFFFFFFFFFF]


class TestXorBlend:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                                           st.integers(1, 3), st.integers(1, 3)),
           orders=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_equals_where_bit_for_bit(self, data, shape, orders):
        size = math.prod(shape)
        bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(-2**63, 2**63 - 1))

        def batch(values, dtype, sample_innermost):
            a = np.array(values, dtype=dtype).reshape(shape)
            if sample_innermost:   # the layers' (c, h, w, n) memory
                a = np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
            return a

        a, b = (batch(data.draw(st.lists(bits, min_size=size, max_size=size)), np.int64,
                      order).view(np.float64) for order in orders[:2])
        d = batch(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), bool,
                  orders[2])
        a_bytes, b_bytes = a.tobytes(), b.tobytes()
        got = nn.xor_blend(d, a, b)
        want = np.where(d, a, b)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert got.strides == np.empty_like(b).strides   # b's memory order
        assert a.tobytes() == a_bytes and b.tobytes() == b_bytes


POOL_GRADS = [0.0, -0.0, 1.5, -2.0, np.inf, np.nan]


def assert_pooling_matches_oracle(x, dy, k):
    """Both max poolings and the backward equal the reshape/argmax oracle
    bitwise, sign of zero included."""
    def same(a, b):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    y_ref, idx_ref = maxpool2d_reference(x, k)
    y, ctx = nn.maxpool2d_forward(x, k)
    same(y, y_ref)
    np.testing.assert_array_equal(ctx.argmax, idx_ref)
    same(nn.maxpool2d(x, k), y_ref)
    same(nn.pool2d_backward(ctx, dy),
         maxpool2d_backward_reference(idx_ref, x.shape, k, dy))


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
        with pytest.raises(ConfigurationError):
            nn.maxpool2d(np.zeros((1, 1, 4, 6)), 4)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.sampled_from([2, 3, 4]), n=st.integers(1, 3),
           c=st.integers(1, 3), ho=st.integers(1, 4), wo=st.integers(1, 4))
    def test_matches_reshape_argmax_oracle(self, data, k, n, c, ho, wo):
        """Both max poolings and the backward equal the reshape/argmax
        oracle bitwise, sign of zero included, on inputs full of ties: ReLU
        zeros, -0.0 beside 0.0, repeated values and infinities."""
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
        shape = (n, c, k * ho, k * wo)
        x = np.array(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
        dy = np.array(data.draw(st.lists(st.sampled_from(POOL_GRADS),
                                         min_size=n * c * ho * wo,
                                         max_size=n * c * ho * wo))).reshape(n, c, ho, wo)
        assert_pooling_matches_oracle(x, dy, k)

    def test_window_positions_past_255_match_oracle(self, rng):
        # k = 17 has 289 window positions: the maxima sit past position 255,
        # where a uint8 argmax would wrap
        k, n, c, ho, wo = 17, 2, 2, 2, 1
        x = rng.choice([0.0, -0.0, -1.0, -np.inf], size=(n, c, k * ho, k * wo))
        for i, t in enumerate(rng.integers(256, k * k, n * c * ho * wo)):
            s, oy = divmod(i, ho)
            x[s // c, s % c, oy * k + t // k, t % k] = 2.5
        dy = rng.choice(POOL_GRADS, size=(n, c, ho, wo))
        assert_pooling_matches_oracle(x, dy, k)
        assert nn.maxpool2d_forward(x, k)[1].argmax.min() >= 256

    def test_nan_is_maximal_like_argmax(self):
        x = np.array([[1.0, np.nan], [np.nan, 5.0]])[None, None]
        y_ref, idx_ref = maxpool2d_reference(x, 2)
        y, ctx = nn.maxpool2d_forward(x, 2)
        np.testing.assert_array_equal(ctx.argmax, idx_ref)
        assert np.isnan(y).all() and np.isnan(nn.maxpool2d(x, 2)).all()


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
        p = np.array([1.0])
        nn.sgd_step([("p", p, np.array([1.0]), True)], {"p": np.zeros(1)}, lr=0.1)
        assert np.allclose(p, 0.9)

    def test_two_steps_with_momentum(self):
        p = np.array([0.0])
        v = {"p": np.zeros(1)}
        nn.sgd_step([("p", p, np.array([1.0]), True)], v, lr=0.1, momentum=0.9)
        assert np.allclose(p, -0.1)
        nn.sgd_step([("p", p, np.array([1.0]), True)], v, lr=0.1, momentum=0.9)
        assert np.allclose(p, -0.29)

    def test_matches_scalar_reference_over_100_steps(self, rng):
        # independent scalar re-implementation of the update rule
        p = rng.standard_normal(3)
        v = {"p": np.zeros(3)}
        ref_p = p.copy()
        ref_v = np.zeros(3)
        lr, mom, wd = 0.05, 0.9, 1e-2
        for _ in range(100):
            g = rng.standard_normal(3)
            nn.sgd_step([("p", p, g.copy(), True)], v, lr=lr, momentum=mom,
                        weight_decay=wd)
            for i in range(3):
                ref_v[i] = mom * ref_v[i] + g[i] + wd * ref_p[i]
                ref_p[i] = ref_p[i] - lr * ref_v[i]
        assert rel_err(p, ref_p) < 1e-12

    def test_weight_decay_skips_groups_that_do_not_decay(self):
        p, q = np.array([2.0]), np.array([2.0])
        v = {"p": np.zeros(1), "q": np.zeros(1)}
        nn.sgd_step([("p", p, np.array([1.0]), True), ("q", q, np.array([1.0]), False)],
                    v, lr=0.1, momentum=0.9, weight_decay=0.5)
        assert np.allclose(p, 2.0 - 0.1 * (1.0 + 0.5 * 2.0))
        assert np.allclose(q, 2.0 - 0.1 * 1.0)


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
    x = rng.standard_normal((1, cin, h, h))
    w = rng.standard_normal(spec.weight_shape)
    y = nn.conv2d(x, w, spec)
    assert np.all(np.isfinite(y))
