"""Gating block: gate variants, grouping, decision maps, inference path."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cgnet import analysis, gating, nn, training
from cgnet.gating import (CgBlockParams, CgLayerConfig, DecisionMap,
                          assemble_dense_weight, channel_shuffle, gate_map, merged_gate,
                          shuffle_permutation, split_dense_weight)
from cgnet.network import build_model
from cgnet.nn import ConfigurationError, ConvSpec

from _oracles import (EPS, assert_tier_a, assert_tier_b, block_inference, conditional_kernel,
                      dense_masked_block_forward, heaviside, kernel_split, pruning_ratio,
                      rel_err, tier_c_flips)
from _workers import band_workers


def make_cfg(c_in=8, c_out=8, k=3, G=4, act="relu", tau_c=0.0, shuffle=False,
             pad=1, stride=1):
    return CgLayerConfig(ConvSpec(c_in, c_out, k, stride=stride, padding=pad),
                         groups=G, activation=act, tau_c=tau_c, shuffle=shuffle)


def make_params(cfg, rng, randomize_stats=True):
    p = CgBlockParams.init(cfg, rng)
    if randomize_stats:
        for bn in (p.bn1, p.bn2):
            bn.running_mean[:] = rng.standard_normal(len(bn.running_mean)) * 0.3
            bn.running_var[:] = rng.uniform(0.5, 2.0, len(bn.running_var))
        p.gamma[:] = rng.uniform(0.5, 1.5, len(p.gamma))
        p.beta[:] = rng.standard_normal(len(p.beta)) * 0.2
    return p


def block_costs(dm, cfg):
    """``count_flops`` on a record built from the block's decision map, as a
    dict keyed like the oracle's costs."""
    n, _, h, w = dm.d.shape
    rec = analysis.LayerRecord("L", cfg.conv, h, w, n, cfg, dm)
    costs = asdict(analysis.count_flops([rec]).lines[0])
    del costs["name"]
    return costs


def gate_params(cfg):
    """Block parameters with identity BN stats; the weights are not used."""
    return CgBlockParams.init(cfg, np.random.default_rng(0))


def gate_scale(params):
    """The positive per-channel scale a of the gate input q = a*p:
    |gamma|/sigma1, and 1/sigma1 where gamma = 0."""
    sigma = np.sqrt(params.bn1.running_var + params.bn1.eps)
    return np.where(params.gamma == 0.0, 1.0, np.abs(params.gamma)) / sigma


def gate_bound(q, params, a):
    """A rounding bound of q = a*p against the merged threshold
    a*(delta*sigma1 + mu1), for tier (c): 4 eps of their magnitudes."""
    sigma = np.sqrt(params.bn1.running_var + params.bn1.eps)
    edge = np.max([np.abs(t) for _, t in params.gate.thresholds()], axis=0)
    threshold = a * (edge * sigma + np.abs(params.bn1.running_mean))
    return 4 * EPS * (np.abs(q) + threshold[:, None, None])


# tier (b)'s and (c)'s constant for make_cfg's base path, whose sums have
# K = 2 channels x 9 taps = 18 terms: 2*(K + 2) eps covers the block's GEMM
# and the reference's own sum
BASE_PATH_C = 2 * (18 + 2)


def base_path(x, params, cfg):
    """The base partial sum p, a grouped ``conv2d`` on W_p sliced from the
    dense kernel, and the sum of its terms' magnitudes."""
    spec = cfg.conv
    grouped = ConvSpec(spec.in_channels, spec.out_channels, spec.kernel_size, spec.stride,
                       spec.padding, groups=cfg.groups)
    w_p = kernel_split(params.w, cfg.groups)[0]
    return nn.conv2d(x, w_p, grouped), nn.conv2d(np.abs(x), np.abs(w_p), grouped)


def bn1_magnitude(params, magnitude):
    """The sum of the magnitudes of BN1(p)'s terms, from those of p's:
    |gamma|/sigma1*magnitude + |gamma*mu1/sigma1| + |beta|."""
    bn1 = params.bn1
    scale = np.abs(params.gamma) / np.sqrt(bn1.running_var + bn1.eps)
    return (magnitude * scale[:, None, None]
            + (np.abs(scale * bn1.running_mean) + np.abs(params.beta))[:, None, None])


def train_gate(p, params):
    """Training-mode decisions: batch-normalize p, then threshold."""
    xhat, _ = nn.bn_forward(p, params.bn1)
    return gating._threshold_decisions(xhat, params.gate.edges())


def input_channel_kernel(c_out, c_in):
    """A kernel whose every weight holds the index of its input channel."""
    return np.arange(c_in)[None, :, None, None] * np.ones((c_out, c_in, 1, 1))


class TestSplitGrouped:
    """The (W_p, W_r) split of the checkpoint format, read as the input
    channels each output group's base and conditional paths see."""

    def test_spec_example(self, rng):
        # output group 2 of 4 (rows 4..5) over 8 input channels
        w_p, w_r = split_dense_weight(input_channel_kernel(8, 8), 4)
        np.testing.assert_array_equal(w_p[4, :, 0, 0], [4, 5])
        np.testing.assert_array_equal(w_r[4, :, 0, 0], [0, 1, 2, 3, 6, 7])

    def test_degenerate_single_group(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        w_p, w_r = split_dense_weight(w, 1)
        np.testing.assert_array_equal(w_p, w)
        assert w_r.shape[1] == 0

    @pytest.mark.parametrize("G", [2, 4, 8])
    def test_unbiased_selection_counts(self, G):
        # over the G output groups, each input channel is base input exactly
        # once and conditional input G-1 times
        c_in = 16
        w_p, w_r = split_dense_weight(input_channel_kernel(G, c_in), G)
        assert np.all(np.bincount(w_p.ravel().astype(int), minlength=c_in) == 1)
        assert np.all(np.bincount(w_r.ravel().astype(int), minlength=c_in) == G - 1)

    def test_divisibility_error(self):
        with pytest.raises(ConfigurationError):
            split_dense_weight(np.zeros((4, 6, 1, 1)), 4)


class TestHeaviside:
    """The oracles' step function, which the gate tests compare against."""

    def test_boundary_inclusive(self):
        np.testing.assert_array_equal(
            heaviside(np.array([-0.1, 0.0, 0.1])), [0.0, 1.0, 1.0])

    def test_all_negative(self, rng):
        x = -np.abs(rng.standard_normal((3, 4, 4))) - 0.1
        assert heaviside(x).sum() == 0.0

    @given(st.lists(st.floats(-10, 10).filter(lambda v: abs(v) > 1e-6),
                    min_size=1, max_size=50))
    def test_partition_property(self, values):
        x = np.array(values)
        tiny = 1e-9
        np.testing.assert_array_equal(heaviside(x) + heaviside(-x - tiny),
                                      np.ones_like(x))


class TestGateForward:
    def test_extreme_thresholds(self, rng):
        cfg = make_cfg()
        params = gate_params(cfg)
        p = rng.standard_normal((2, 8, 4, 4))
        params.gate.delta[:] = -1e6
        assert train_gate(p, params).min() == 1.0
        params.gate.delta[:] = 1e6
        assert train_gate(p, params).max() == 0.0

    def test_monte_carlo_take_fraction(self, rng):
        # P(x >= Delta) with Delta=0 on normalized partials is one half
        cfg = make_cfg(c_out=4)
        params = gate_params(CgLayerConfig(ConvSpec(8, 4, 3), groups=4))
        p = rng.standard_normal((100, 4, 25, 10))  # 10^5 values per channel
        d = train_gate(p, params)
        assert abs(d.mean() - 0.5) < 0.02


class TestMergedGate:
    """The gate on q = a*p, the partial sum on the plan's positive scale,
    against the normalize-then-threshold definition on p: tier (c)."""

    @staticmethod
    def gate(p, params, cfg):
        """(decisions, q, a) of the merged gate on the partial sums p."""
        a = gate_scale(params)
        q = p * a[:, None, None]
        return merged_gate(q, gating.inference_plan(params, cfg)), q, a

    def test_identity_stats(self, rng):
        cfg = make_cfg()
        params = gate_params(cfg)
        # E=0, Var=1, Delta=0: the threshold on q is 0, and a > 0 keeps p's
        # sign, so decisions equal heaviside with a zero margin
        p = rng.standard_normal((1, 8, 6, 6))
        d, q, _ = self.gate(p, params, cfg)
        assert tier_c_flips(d, heaviside(p), q, 0.0, 0.0) == 0

    def test_hand_evaluation(self):
        cfg = make_cfg(c_in=4, c_out=1, G=1)
        params = gate_params(cfg)
        params.bn1.running_mean[:] = 2.0
        params.bn1.running_var[:] = 4.0
        params.gate.delta[:] = 1.0
        # theta(4 - 1*2 - 2) = theta(0) = 1 (eps negligible at this magnitude)
        x = np.full((1, 1, 1, 1), 4.0 + 1e-4)
        assert self.gate(x, params, cfg)[0][0, 0, 0, 0]

    def test_equals_normalize_then_threshold(self, rng):
        # two-path equivalence oracle over 10^4 random cases
        cfg = make_cfg(c_out=8)
        params = gate_params(cfg)
        bn1, gate = params.bn1, params.gate
        bn1.running_mean[:] = rng.standard_normal(8)
        bn1.running_var[:] = rng.uniform(0.1, 3.0, 8)
        gate.delta[:] = rng.standard_normal(8)
        params.gamma[:] = rng.uniform(-1.5, 1.5, 8)
        params.gamma[0] = 0.0
        x = rng.standard_normal((125, 8, 10, 1)) * 2.0
        got, q, a = self.gate(x, params, cfg)
        sigma = np.sqrt(bn1.running_var + bn1.eps)
        xhat = (x - bn1.running_mean[:, None, None]) / sigma[:, None, None]
        want = heaviside(xhat - gate.delta[:, None, None])
        threshold = (a * (gate.delta * sigma + bn1.running_mean))[:, None, None]
        tier_c_flips(got, want, q, threshold, gate_bound(q, params, a))

    def test_two_sided_band(self, rng):
        cfg = make_cfg(c_in=4, c_out=1, G=1, act="tanh")
        assert cfg.two_sided
        params = gate_params(cfg)
        params.gate.delta_high[:] = 0.5
        params.gate.delta_low[:] = -0.5
        x = np.array([[[[-1.0, -0.5, 0.0, 0.5, 1.0]]]] * 1).reshape(1, 1, 1, 5)
        d = self.gate(x, params, cfg)[0]
        # eps shifts the +/-0.5 thresholds outward by ~2.5e-6, boundaries taken
        np.testing.assert_array_equal(d.ravel(), [0, 1, 1, 1, 0])


class TestChannelGate:
    """The channel mask of ``gate_map``, the one routine that builds the map that ran."""

    def test_tau_zero_keeps_everything(self):
        d = np.zeros((1, 4, 8, 8), dtype=bool)
        np.testing.assert_array_equal(gate_map(d, 0.0).channel_mask, np.ones((1, 4), dtype=bool))

    def test_all_zero_decisions_masked(self):
        d = np.zeros((1, 4, 8, 8), dtype=bool)
        np.testing.assert_array_equal(gate_map(d, 0.05).channel_mask,
                                      np.zeros((1, 4), dtype=bool))

    def test_boundary_inclusive_hand_count(self):
        # 8x8 map with exactly 4 ones at tau_c=4/64: sum - tau*64 = 0 -> kept
        d = np.zeros((1, 1, 8, 8), dtype=bool)
        d[0, 0, [0, 1, 2, 3], [0, 1, 2, 3]] = True
        assert d.sum() == 4  # brute-force verified count
        assert gate_map(d, 0.0625).channel_mask[0, 0]
        assert not gate_map(d, 0.0625 + 1e-9).channel_mask[0, 0]

    def test_batched(self, rng):
        d = rng.random((5, 3, 4, 4)) < 0.3
        m = gate_map(d, 0.25).channel_mask
        assert m.shape == (5, 3) and m.dtype == bool
        for n in range(5):
            for c in range(3):
                assert m[n, c] == (d[n, c].sum() >= 0.25 * 16)


class TestShuffle:
    def test_interleave_positions(self):
        x = np.arange(8.0)[None, :, None, None] * np.ones((1, 8, 1, 1))
        y = channel_shuffle(x, 4)
        # channel at (group g, offset j) moves to j*G + g
        np.testing.assert_array_equal(y[0, :, 0, 0], [0, 2, 4, 6, 1, 3, 5, 7])

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_permutation_bijective(self, G, per):
        perm = shuffle_permutation(G * per, G)
        assert sorted(perm) == list(range(G * per))


class TestWeightPartition:
    @pytest.mark.parametrize("G", [1, 2, 4, 8])
    def test_roundtrip(self, rng, G):
        w = rng.standard_normal((8, 8, 3, 3))
        w_p, w_r = split_dense_weight(w, G)
        want_p, want_r = kernel_split(w, G)
        np.testing.assert_array_equal(w_p, want_p)
        np.testing.assert_array_equal(w_r, want_r)
        np.testing.assert_array_equal(assemble_dense_weight(w_p, w_r, G), w)

    def test_decomposition_identity(self, rng):
        # W*x == W_p*x_p + W_r*x_r summed over output groups
        G = 4
        w = rng.standard_normal((8, 8, 3, 3))
        x = rng.standard_normal((1, 8, 6, 6))
        w_p, _ = split_dense_weight(w, G)
        dense = nn.conv2d(x, w, ConvSpec(8, 8, 3, padding=1))
        base = nn.conv2d(x, w_p, ConvSpec(8, 8, 3, padding=1, groups=G))
        cond = nn.conv2d(x, conditional_kernel(w, G), ConvSpec(8, 8, 3, padding=1))
        assert rel_err(base + cond, dense) < 1e-12


class TestBlockInference:
    def test_all_take_limit_matches_dense(self, rng):
        # Delta = -1e6, tau_c = 0: y == f(BN2(full dense conv))
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((2, 8, 6, 6))
        y, dm = block_inference(x, params, cfg)
        full = nn.conv2d(x, params.w, cfg.conv)
        ref = nn.bn_inference(full, params.bn2)
        ref = nn.activation(ref, "relu")
        assert rel_err(y, ref) < 1e-5
        assert dm.d.all()
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["conditional_flops_executed"] == cost["conditional_flops_total"]

    def test_none_take_limit_matches_grouped(self, rng):
        # Delta = +1e6: y == f(BN1(grouped conv)), zero conditional FLOPs
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = 1e6
        x = rng.standard_normal((2, 8, 6, 6))
        y, dm = block_inference(x, params, cfg)
        grouped = nn.conv2d(x, kernel_split(params.w, cfg.groups)[0],
                            ConvSpec(8, 8, 3, padding=1, groups=cfg.groups))
        ref = nn.activation(nn.bn_inference(grouped, params.bn1), "relu")
        assert rel_err(y, ref) < 1e-5
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["conditional_flops_executed"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_per_activation_oracle(self, seed):
        # vectorized block output equals scalar evaluation of the gating rule.
        # Integer-valued tensors make every sum order-exact, so the decisions
        # and the outputs the gate did not take (BN1 on the partial sum) match
        # bitwise. A taken output is BN2 folded into the convolution's GEMM,
        # a sum of the scaled products and the shift, so it matches within a
        # few eps of the sum of those terms' magnitudes
        rng = np.random.default_rng(seed)
        cfg = make_cfg(c_in=4, c_out=4, G=2, pad=1)
        params = make_params(cfg, rng)
        params.w[:] = rng.integers(-3, 4, params.w.shape)
        params.gate.delta[:] = rng.standard_normal(4) * 0.5
        x = rng.integers(-3, 4, (1, 4, 5, 5)).astype(float)
        y, dm = block_inference(x, params, cfg)
        spec = cfg.conv
        ho, wo = spec.out_hw(5, 5)
        taken = 0
        for oc in range(4):
            gi = oc // (4 // cfg.groups)
            per = 4 // cfg.groups
            base_ch = range(gi * per, (gi + 1) * per)
            sigma = math.sqrt(params.bn1.running_var[oc] + params.bn1.eps)
            thr = params.gate.delta[oc] * sigma + params.bn1.running_mean[oc]
            s1 = params.gamma[oc] / math.sqrt(params.bn1.running_var[oc] + params.bn1.eps)
            s2 = params.gamma[oc] / math.sqrt(params.bn2.running_var[oc] + params.bn2.eps)
            for oy in range(ho):
                for ox in range(wo):
                    partial = 0.0
                    full = 0.0
                    magnitude = 0.0
                    for ic in range(4):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy + ky - 1, ox + kx - 1
                                if 0 <= iy < 5 and 0 <= ix < 5:
                                    v = x[0, ic, iy, ix]
                                    full += v * params.w[oc, ic, ky, kx]
                                    magnitude += abs(v * params.w[oc, ic, ky, kx] * s2)
                                    if ic in base_ch:
                                        partial += v * params.w[oc, ic, ky, kx]
                    take = partial >= thr
                    assert take == dm.d[0, oc, oy, ox]
                    if take:
                        taken += 1
                        pre = (full - params.bn2.running_mean[oc]) * s2 + params.beta[oc]
                        magnitude += abs(params.bn2.running_mean[oc] * s2) + abs(params.beta[oc])
                        assert abs(y[0, oc, oy, ox] - max(pre, 0.0)) <= 4 * EPS * magnitude
                    else:
                        pre = (partial - params.bn1.running_mean[oc]) * s1 + params.beta[oc]
                        assert y[0, oc, oy, ox] == max(pre, 0.0)
        assert 0 < taken < 4 * ho * wo

    def test_monotone_pruning_in_delta(self, rng):
        cfg = make_cfg()
        params = make_params(cfg, rng)
        x = rng.standard_normal((4, 8, 6, 6))
        prev = -1.0
        for shift in np.linspace(-3, 3, 13):
            params.gate.delta[:] = shift
            _, dm = block_inference(x, params, cfg)
            pr = pruning_ratio(dm)
            assert pr >= prev - 1e-12
            prev = pr

    def test_gate_cost_bound(self, rng):
        cfg = make_cfg(tau_c=0.1)
        params = make_params(cfg, rng)
        x = rng.standard_normal((3, 8, 6, 6))
        _, dm = block_inference(x, params, cfg)
        ho = wo = 6
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["gate_comparisons"] == 3 * (ho * wo + 1) * 8
        cfg0 = make_cfg(tau_c=0.0)
        _, dm0 = block_inference(x, params, cfg0)
        cost0 = block_costs(dm0, cfg0)
        assert cost0 == dense_masked_block_forward(x, params, cfg0)[2]
        assert cost0["gate_comparisons"] == 3 * ho * wo * 8

    def test_channel_mask_consistency(self, rng):
        # masked-off channels carry the base-path output BN1(p), as the
        # scaled base GEMM rounds it: tier (b) against BN1 of the grouped
        # convolution, whose 18-term sums round too
        cfg = make_cfg(tau_c=0.6)
        params = make_params(cfg, rng)
        x = rng.standard_normal((1, 8, 6, 6))
        y, dm = block_inference(x, params, cfg)
        grouped, magnitude = base_path(x, params, cfg)
        base = nn.activation(nn.bn_inference(grouped, params.bn1), "relu")
        magnitude = bn1_magnitude(params, magnitude)
        assert not dm.channel_mask.all(), "test wants at least one masked channel"
        for c in range(8):
            if not dm.channel_mask[0, c]:
                assert_tier_b(y[0, c], base[0, c], magnitude[0, c], BASE_PATH_C)

    def test_shuffle_applied_to_output(self, rng):
        cfg = make_cfg(shuffle=True)
        params = make_params(cfg, rng)
        x = rng.standard_normal((1, 8, 6, 6))
        y, _ = block_inference(x, params, cfg)
        cfg_ns = make_cfg(shuffle=False)
        y_ns, _ = block_inference(x, params, cfg_ns)
        np.testing.assert_array_equal(y, y_ns[:, shuffle_permutation(8, 4)])


class TestBlockInferenceOracle:
    """The shared-im2col inference path against the dense-then-masked oracle."""

    cases = dict(seed=st.integers(0, 2**32 - 1), G=st.sampled_from([1, 2, 4]),
                 per_in=st.integers(1, 2), per_out=st.integers(1, 2),
                 k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
                 pad=st.sampled_from([0, 1]),
                 tau_c=st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
                 # the gate kind follows the activation: relu and identity get
                 # one threshold, tanh and sigmoid a band. binary_sign is left
                 # out: a 1e-16 change of a pre-activation near 0 would flip
                 # its output by 2
                 act=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
                 shuffle=st.booleans())

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 3), hw=st.tuples(st.integers(3, 6), st.integers(3, 6)), **cases)
    def test_matches_dense_masked_oracle(self, seed, n, G, per_in, per_out, k,
                                         stride, pad, hw, tau_c, act, shuffle):
        self.check(None, seed, n, G, per_in, per_out, k, stride, pad, hw, tau_c, act, shuffle)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([32, 64]), hw=st.tuples(st.integers(4, 9), st.integers(3, 6)),
           rows=st.sampled_from([1, 2]), **cases)
    # 7 rows of 64 samples x 3 columns in bands of 2, 2, 2 and 1 rows
    @example(seed=5, n=64, hw=(7, 3), rows=2, G=4, per_in=1, per_out=2, k=3, stride=1, pad=1,
             tau_c=0.3, act="tanh", shuffle=True)
    def test_several_bands_match_dense_masked_oracle(self, seed, n, G, per_in, per_out, k,
                                                     stride, pad, hw, rows, tau_c, act, shuffle):
        # a budget of one or two output rows: several bands of 64 or more
        # columns wherever the layer spans a multiple of 64 columns
        self.check(rows, seed, n, G, per_in, per_out, k, stride, pad, hw, tau_c, act, shuffle)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=8, max_size=8), **cases)
    @example(seed=3, n=2, hw=(5, 4), G=2, per_in=2, per_out=2, k=3, stride=1, pad=1, tau_c=0.0,
             act="relu", shuffle=False, signs=[0.0, -1.0, 1.0, -1.0, 0, 0, 0, 0])
    @example(seed=4, n=3, hw=(4, 4), G=4, per_in=1, per_out=2, k=3, stride=1, pad=1, tau_c=0.2,
             act="tanh", shuffle=True, signs=[-1.0, 0.0, 1.0, 0.0, -1.0, 1.0, 0.0, -1.0])
    def test_signed_gamma_matches_dense_masked_oracle(self, seed, n, G, per_in, per_out, k,
                                                      stride, pad, hw, tau_c, act, shuffle,
                                                      signs):
        # gamma with negative and zero entries: BN1(p) is sign(gamma)*q +
        # shift, and a gamma = 0 channel gates on p/sigma1 and outputs beta
        # wherever the gate does not take
        y, dm, params, cfg = self.check(None, seed, n, G, per_in, per_out, k, stride, pad, hw,
                                        tau_c, act, shuffle, signs)
        if cfg.shuffle:   # back to the decisions' channel order
            y = channel_shuffle(y, cfg.conv.out_channels // cfg.groups)
        for c in np.flatnonzero(params.gamma == 0.0):
            base = y[:, c][~dm.d[:, c]]
            want = nn.activation(np.full(base.shape, params.beta[c]), cfg.activation)
            np.testing.assert_array_equal(base, want)

    @staticmethod
    def check(rows, seed, n, G, per_in, per_out, k, stride, pad, hw, tau_c, act, shuffle,
              signs=None):
        """The block, run with ``nn.BAND_BYTES`` set to ``rows`` output rows
        of columns (None keeps it), against the oracle run with the module's
        budget; ``signs`` multiply gamma per channel. Returns (y, dm,
        params, cfg) of the block."""
        rng = np.random.default_rng(seed)
        cfg = CgLayerConfig(ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad),
                            groups=G, activation=act, tau_c=tau_c, shuffle=shuffle)
        params = make_params(cfg, rng)
        c_out = cfg.conv.out_channels
        if cfg.two_sided:
            params.gate.delta_high[:] = np.abs(rng.standard_normal(c_out)) * 0.8
            params.gate.delta_low[:] = -np.abs(rng.standard_normal(c_out)) * 0.8
        else:
            params.gate.delta[:] = rng.standard_normal(c_out) * 0.7
        if signs is not None:
            params.gamma *= signs[:c_out]
        x = rng.standard_normal((n, cfg.conv.in_channels) + hw)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                wo = cfg.conv.out_hw(*hw)[1]
                mp.setattr(nn, "BAND_BYTES", rows * 8 * G * per_in * k * k * wo * n)
            y, dm = block_inference(x, params, cfg)
        y_ref, dm_ref, cost_ref = dense_masked_block_forward(x, params, cfg)
        assert y.shape == y_ref.shape
        np.testing.assert_allclose(y, y_ref, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(dm.d, dm_ref.d)
        np.testing.assert_array_equal(dm.channel_mask, dm_ref.channel_mask)
        assert block_costs(dm, cfg) == cost_ref
        return y, dm, params, cfg


class TestExactnessTiers:
    """Each exactness tier's helper passes the block as it is and catches a
    mutation of what that tier checks."""

    @staticmethod
    def block(rng, tau_c=0.0, act="relu"):
        cfg = make_cfg(tau_c=tau_c, act=act)
        params = make_params(cfg, rng)
        params.gamma[:] = rng.uniform(0.2, 3.0, 8)   # a gate scale far from 1
        params.gate.delta[:] = rng.standard_normal(8) * 0.5
        return cfg, params, rng.standard_normal((4, 8, 6, 6))

    @staticmethod
    def mutate_plan(monkeypatch, edit):
        """Make every plan the block builds pass through ``edit``."""
        build = gating.inference_plan

        def mutant(params, cfg):
            plan = build(params, cfg)
            edit(plan, params)
            return plan

        monkeypatch.setattr(gating, "inference_plan", mutant)

    def test_tier_a_catches_a_gate_without_its_channel_mask(self, rng, monkeypatch):
        # two plans built of the same parameters run the same GEMM, so
        # their decisions agree bitwise
        cfg, params, x = self.block(rng, tau_c=0.4)
        _, want = block_inference(x, params, cfg)
        _, got = block_inference(x, params, cfg)
        assert not want.channel_mask.all() and want.d.any()
        assert_tier_a(got.d, want.d)
        gate_map = gating.gate_map
        monkeypatch.setattr(gating, "gate_map", lambda fired, tau_c: gate_map(fired, 0.0))
        _, mutant = block_inference(x, params, cfg)
        with pytest.raises(AssertionError, match=r"tier \(a\)"):
            assert_tier_a(mutant.d, want.d)

    def test_tier_b_catches_a_shift_rounded_to_float32(self, rng, monkeypatch):
        # no gate takes, so every output is BN1(p) from the scaled base GEMM
        cfg, params, x = self.block(rng, act="identity")
        params.gate.delta[:] = 1e6
        y, dm = block_inference(x, params, cfg)
        assert not dm.d.any()
        p, magnitude = base_path(x, params, cfg)
        magnitude = bn1_magnitude(params, magnitude)
        want = nn.bn_inference(p, params.bn1)
        assert_tier_b(y, want, magnitude, BASE_PATH_C)
        self.mutate_plan(monkeypatch, lambda plan, _: setattr(
            plan, "shift", plan.shift.astype(np.float32).astype(np.float64)))
        y_mutant, _ = block_inference(x, params, cfg)
        with pytest.raises(AssertionError, match=r"tier \(b\)"):
            assert_tier_b(y_mutant, want, magnitude, BASE_PATH_C)

    def test_tier_c_catches_thresholds_left_on_the_scale_of_p(self, rng, monkeypatch):
        # decisions on q = a*p against the gate on p, outside p's rounding
        # margin: BASE_PATH_C eps of the terms' and the threshold's magnitudes
        cfg, params, x = self.block(rng)
        _, dm = block_inference(x, params, cfg)
        p, magnitude = base_path(x, params, cfg)
        bn1 = params.bn1
        sigma = np.sqrt(bn1.running_var + bn1.eps)
        threshold = (params.gate.delta * sigma + bn1.running_mean)[:, None, None]
        bound = BASE_PATH_C * EPS * (magnitude + np.abs(threshold))
        want = p >= threshold
        assert 0 < np.count_nonzero(want) < want.size
        assert tier_c_flips(dm.d, want, p, threshold, bound) == 0
        self.mutate_plan(monkeypatch, lambda plan, params: plan.edges.__setitem__(
            0, ("delta", 1, params.gate.delta * sigma + bn1.running_mean)))
        _, mutant = block_inference(x, params, cfg)
        with pytest.raises(AssertionError, match=r"tier \(c\)"):
            tier_c_flips(mutant.d, want, p, threshold, bound)

    def test_tier_c_counts_a_flip_inside_the_margin(self):
        x = np.array([1.0, 2.0, 3.0])
        got, want = np.array([True, False, True]), np.array([True, True, True])
        assert tier_c_flips(got, want, x, 2.0 + 1e-15, 1e-14) == 1
        with pytest.raises(AssertionError, match=r"tier \(c\)"):
            tier_c_flips(got, want, x, 2.5, 1e-14)


class TestBlockForwardMemory:
    """The forward im2cols one band of output rows at a time on each of its
    band workers."""

    def peak(self, workers):
        """(tracemalloc peak, y, the padded input's and one band's bytes) of
        vgg8 L01's shape at batch 64 on ``workers`` threads: its whole
        im2col is 9 MiB, a band one output row of 1,024 columns (0.56 MiB)."""
        cfg = make_cfg(8, 16, G=4)
        params = make_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((64, 8, 16, 16))
        n, c, h, w = x.shape
        rows = max(b.stop - b.start for b in nn._bands(h, w * n, c * 9))
        assert rows == 1
        band = 8 * c * 9 * rows * w * n
        padded = 8 * c * (h + 2) * (w + 2) * n
        with band_workers(workers):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                y, _ = block_inference(x, params, cfg)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        return peak, y, padded, band

    def test_holds_at_most_one_band_of_columns(self):
        # the block peaks inside the convolution, with the full and partial
        # sums, the padded input and the band alive; the whole im2col made
        # it 13.3 MiB
        peak, y, padded, band = self.peak(1)
        assert 2 * y.nbytes + padded + band <= peak, peak / 2**20
        assert peak < 2 * y.nbytes + padded + band + 2**16, peak / 2**20

    def test_two_workers_hold_at_most_two_bands(self):
        # each worker fills its own band buffer
        peak, y, padded, band = self.peak(2)
        assert 2 * y.nbytes + padded + band <= peak, peak / 2**20
        assert peak < 2 * y.nbytes + padded + 2 * band + 2**16, peak / 2**20


class TestBandWorkers:
    def test_vgg8_l01_forwards_bitwise_at_every_worker_count(self):
        # gated inference and the training forward, with the statistics
        # training folds into the running stats
        cfg = make_cfg(8, 16, G=4)
        x = np.random.default_rng(1).standard_normal((64, 8, 16, 16))
        outs = []
        for workers in (1, 2, 3):
            params = make_params(cfg, np.random.default_rng(0))
            with band_workers(workers):
                y_inf, dm = block_inference(x, params, cfg)
                y, ctx = training.cg_block_forward_train(x, params, cfg)
            arrays = (y_inf, dm.d, y, ctx.d, ctx.fprime, ctx.bn1_ctx.xhat, ctx.bn2_ctx.xhat,
                      params.bn1.running_mean, params.bn1.running_var,
                      params.bn2.running_mean, params.bn2.running_var)
            outs.append([a.tobytes() for a in arrays])
        assert outs[1] == outs[0] and outs[2] == outs[0]


class TestBlockInferenceWritesNoInput:
    """The in-place epilogue writes only arrays the block allocated itself."""

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("G", [1, 2, 4])
    @pytest.mark.parametrize("several", [False, True])   # one sample, or two
    @pytest.mark.parametrize("k", [1, 3])   # k == 1 copies x itself, unpadded, into the columns
    def test_input_and_params_unchanged(self, G, shuffle, several, k, rng):
        # a band for G == 2, one threshold otherwise
        cfg = CgLayerConfig(ConvSpec(8, 8, k, padding=k // 2), groups=G,
                            activation="tanh" if G == 2 else "relu", tau_c=0.2,
                            shuffle=shuffle)
        p = make_params(cfg, rng)
        if not cfg.two_sided:
            p.gate.delta[:] = rng.standard_normal(8) * 0.5
        x = rng.standard_normal((2 if several else 1, 8, 5, 5))
        arrays = {"x": x, "w": p.w, "gamma": p.gamma, "beta": p.beta,
                  "bn1_mean": p.bn1.running_mean, "bn1_var": p.bn1.running_var,
                  "bn2_mean": p.bn2.running_mean, "bn2_var": p.bn2.running_var,
                  **dict(p.gate.thresholds())}
        before = {name: a.copy() for name, a in arrays.items()}
        y, dm = block_inference(x, p, cfg)
        for name, a in arrays.items():
            assert a.tobytes() == before[name].tobytes(), name
            assert not np.shares_memory(y, a), name
            assert not np.shares_memory(dm.d, a), name


class TestPruningRatio:
    def test_limits(self):
        keep = np.ones((1, 3), dtype=bool)
        ones = DecisionMap(np.ones((1, 3, 4, 4), dtype=bool), keep)
        zeros = DecisionMap(np.zeros((1, 3, 4, 4), dtype=bool), keep)
        assert pruning_ratio(ones) == 0.0
        assert pruning_ratio(zeros) == 1.0

    def test_half(self):
        d = np.zeros((1, 2, 4, 4), dtype=bool)
        d[0, 0] = True
        assert pruning_ratio(DecisionMap(d, np.ones((1, 2), dtype=bool))) == 0.5

    def test_channel_mask_zeroes_count_as_pruned(self):
        d = np.ones((1, 2, 4, 4), dtype=bool)
        d[0, 1, 1:] = False   # channel 1 fires at 4 of 16 positions, below tau_c
        assert pruning_ratio(gate_map(d, 0.5)) == 0.5


class TestDecisionMap:
    """``d`` is the map that ran: ``gate_map`` masks it, and the
    ``DecisionMap`` record stores what it is given."""

    def test_fires_in_dropped_channels_are_masked(self):
        # in the (c, h, w, n) memory the gated layers write, which d keeps
        fired = np.ones((3, 2, 2, 2), dtype=bool).transpose(3, 0, 1, 2)
        fired[0, 1, 1] = False   # sample 0's channel 1 and sample 1's channel 0
        fired[1, 0, 1] = False   # fire at 2 of 4 positions, below tau_c
        before = fired.copy()
        dm = gate_map(fired, 0.75)
        mask = np.array([[True, False, True], [False, True, True]])
        np.testing.assert_array_equal(dm.channel_mask, mask)
        np.testing.assert_array_equal(dm.d, fired & mask[..., None, None])
        assert not dm.d[0, 1].any() and not dm.d[1, 0].any()
        assert dm.d.transpose(1, 2, 3, 0).flags.c_contiguous
        np.testing.assert_array_equal(fired, before)   # the firing map passed in is left as it was

    def test_every_channel_kept_stores_the_map_uncopied(self):
        fired = np.zeros((1, 2, 3, 3), dtype=bool)
        fired[0, :, 1] = True   # each channel fires at 3 of its 9 positions
        for tau_c in (0.0, 0.3):
            dm = gate_map(fired, tau_c)
            assert dm.channel_mask.all() and dm.d is fired

    def test_the_record_masks_nothing(self):
        fired = np.ones((1, 2, 3, 3), dtype=bool)
        dm = DecisionMap(fired, np.array([[True, False]]))
        assert dm.d is fired and dm.d.all()

    def test_inference_at_tau_c_zero_records_the_gate_map_uncopied(self, rng, monkeypatch):
        maps = []

        def recorded_gate(q, plan):
            maps.append(merged_gate(q, plan))
            return maps[-1]

        monkeypatch.setattr(gating, "merged_gate", recorded_gate)
        cfg = make_cfg(tau_c=0.0)
        _, dm = block_inference(rng.standard_normal((2, 8, 5, 5)), make_params(cfg, rng), cfg)
        assert dm.d is maps[0]


class TestLayerConfig:
    @pytest.mark.parametrize("field,value", [
        ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", 0.0),
    ])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CgLayerConfig(ConvSpec(4, 4, 3, padding=1), groups=2, **{field: value})


class TestGateKind:
    """The activation sets the gate kind: a band for the saturating ones,
    one threshold for the others."""

    @pytest.mark.parametrize("act", nn.ACTIVATION_KINDS)
    def test_follows_the_activation(self, act, rng):
        band = act in ("tanh", "sigmoid", "binary_sign")
        conv = {"type": "cg_conv", "out_channels": 4, "kernel_size": 3, "padding": 1}
        model = build_model({"input_shape": [4, 5, 6], "num_classes": 2,
                             "cg_defaults": {"groups": 2},
                             "layers": [{**conv, "activation": act}, conv, {"type": "flatten"},
                                        {"type": "linear", "out_features": 2}]}, rng)
        layer, relu_layer = model.gated_layers()
        assert layer.cfg.two_sided == band and not relu_layer.cfg.two_sided
        thresholds = dict(layer.params.gate.thresholds())
        if band:
            assert list(thresholds) == ["delta_high", "delta_low"]
            np.testing.assert_array_equal(thresholds["delta_high"], np.full(4, 2.0))
            np.testing.assert_array_equal(thresholds["delta_low"], np.full(4, -2.0))
        else:
            assert list(thresholds) == ["delta"]
            np.testing.assert_array_equal(thresholds["delta"], np.zeros(4))

        # a band compares twice per output activation
        _, (rec,) = layer.forward_infer(rng.standard_normal((3, 4, 5, 6)), collect=True)
        comparisons = analysis.cost_line(rec).gate_comparisons
        assert comparisons == (2 if band else 1) * 3 * 4 * 5 * 6

        # set_delta refuses exactly the band layers and then changes nothing
        if band:
            before = [t.copy() for _, t in layer.params.gate.thresholds()]
            with pytest.raises(ConfigurationError, match=r"layer\(s\) L00 have"):
                model.set_delta(0.5)
            for (_, t), old in zip(layer.params.gate.thresholds(), before):
                np.testing.assert_array_equal(t, old)
            np.testing.assert_array_equal(relu_layer.params.gate.delta, np.zeros(4))
        else:
            model.set_delta(0.5)
            for each in (layer, relu_layer):
                np.testing.assert_array_equal(each.params.gate.delta, np.full(4, 0.5))
