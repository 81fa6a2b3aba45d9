"""Gating block: gate variants, grouping, decision maps, inference path."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import analysis, gating, nn
from cgnet.gating import (CgBlockParams, CgLayerConfig, DecisionMap,
                          assemble_dense_weight, channel_gate, channel_shuffle,
                          cg_block_forward_inference, complement_indices,
                          heaviside, merged_gate, shuffle_permutation,
                          split_dense_weight)
from cgnet.nn import ConfigurationError, ConvSpec

from _oracles import (conditional_weight_scatter, dense_masked_block_forward,
                      pruning_ratio, rel_err, split_grouped)


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
    p.gate.frozen = True
    return p


def block_costs(dm, cfg):
    """``count_flops`` on a record built from the block's decision map, as a
    dict keyed like the oracle's costs."""
    spec = cfg.conv
    rec = analysis.LayerRecord(
        name="L", kind="cg_conv", gated=True, c_in=spec.in_channels,
        c_out=spec.out_channels, kernel_size=spec.kernel_size, groups=cfg.groups,
        gate_kind=cfg.gate, tau_c=cfg.tau_c, h_out=dm.d.shape[-2],
        w_out=dm.d.shape[-1], n_samples=dm.d.shape[0] if dm.d.ndim == 4 else 1,
        dm=dm)
    costs = asdict(analysis.count_flops([rec]).lines[0])
    del costs["name"]
    return costs


def gate_params(cfg):
    """Block parameters with identity BN stats; the weights are not used."""
    return CgBlockParams.init(cfg, np.random.default_rng(0))


def train_gate(p, params, cfg):
    """Training-mode decisions: batch-normalize p, then threshold."""
    xhat, _ = nn.bn_forward(p, params.bn1, training=True, affine=False)
    return gating._threshold_decisions(xhat, *gating.gate_bounds(params.gate, cfg.gate))


class TestSplitGrouped:
    def test_spec_example(self, rng):
        x = np.arange(8)[:, None, None] * np.ones((8, 2, 2))
        parts = split_grouped(x, 4)
        xp, xr = parts[2]
        np.testing.assert_array_equal(xp[:, 0, 0], [4, 5])
        np.testing.assert_array_equal(xr[:, 0, 0], [0, 1, 2, 3, 6, 7])

    def test_degenerate_single_group(self, rng):
        x = rng.standard_normal((4, 3, 3))
        [(xp, xr)] = split_grouped(x, 1)
        np.testing.assert_array_equal(xp, x)
        assert xr.shape[0] == 0

    @pytest.mark.parametrize("G", [2, 4, 8])
    def test_unbiased_selection_counts(self, G):
        # each input channel is base input exactly once, conditional G-1 times
        c_in = 16
        x = np.arange(c_in)[:, None, None] * np.ones((c_in, 1, 1))
        base_counts = np.zeros(c_in, dtype=int)
        cond_counts = np.zeros(c_in, dtype=int)
        for xp, xr in split_grouped(x, G):
            for ch in xp[:, 0, 0].astype(int):
                base_counts[ch] += 1
            for ch in xr[:, 0, 0].astype(int):
                cond_counts[ch] += 1
        assert np.all(base_counts == 1)
        assert np.all(cond_counts == G - 1)

    def test_divisibility_error(self):
        with pytest.raises(ConfigurationError):
            split_grouped(np.zeros((6, 2, 2)), 4)


class TestHeaviside:
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
        assert train_gate(p, params, cfg).min() == 1.0
        params.gate.delta[:] = 1e6
        assert train_gate(p, params, cfg).max() == 0.0

    def test_monte_carlo_take_fraction(self, rng):
        # P(x >= Delta) with Delta=0 on normalized partials is one half
        cfg = make_cfg(c_out=4)
        params = gate_params(CgLayerConfig(ConvSpec(8, 4, 3), groups=4))
        p = rng.standard_normal((100, 4, 25, 10))  # 10^5 values per channel
        d = train_gate(p, params, cfg)
        assert abs(d.mean() - 0.5) < 0.02


class TestMergedGate:
    def test_identity_stats(self, rng):
        cfg = make_cfg()
        params = gate_params(cfg)
        # E=0, Var=1, Delta=0: decisions equal heaviside up to the eps term
        p = rng.standard_normal((8, 6, 6))
        p = p[np.newaxis]
        np.testing.assert_array_equal(merged_gate(p, params, cfg), heaviside(p))

    def test_hand_evaluation(self):
        cfg = make_cfg(c_in=4, c_out=1, G=1)
        params = gate_params(cfg)
        params.bn1.running_mean[:] = 2.0
        params.bn1.running_var[:] = 4.0
        params.gate.delta[:] = 1.0
        # theta(4 - 1*2 - 2) = theta(0) = 1 (eps negligible at this magnitude)
        x = np.full((1, 1, 1), 4.0 + 1e-4)
        assert merged_gate(x, params, cfg)[0, 0, 0] == 1.0

    def test_equals_normalize_then_threshold(self, rng):
        # two-path equivalence oracle over 10^4 random cases
        cfg = make_cfg(c_out=8)
        params = gate_params(cfg)
        bn1, gate = params.bn1, params.gate
        bn1.running_mean[:] = rng.standard_normal(8)
        bn1.running_var[:] = rng.uniform(0.1, 3.0, 8)
        gate.delta[:] = rng.standard_normal(8)
        x = rng.standard_normal((125, 8, 10, 1)) * 2.0
        got = merged_gate(x, params, cfg)
        sigma = np.sqrt(bn1.running_var + bn1.eps)
        xhat = (x - bn1.running_mean[:, None, None]) / sigma[:, None, None]
        want = heaviside(xhat - gate.delta[:, None, None])
        np.testing.assert_array_equal(got, want)

    def test_two_sided_band(self, rng):
        cfg = make_cfg(c_in=4, c_out=1, G=1, act="tanh")
        assert cfg.gate == "two_sided"
        params = gate_params(cfg)
        params.gate.delta_high[:] = 0.5
        params.gate.delta_low[:] = -0.5
        x = np.array([[[[-1.0, -0.5, 0.0, 0.5, 1.0]]]] * 1).reshape(1, 1, 1, 5)
        d = merged_gate(x, params, cfg)
        # eps shifts the +/-0.5 thresholds outward by ~2.5e-6, boundaries taken
        np.testing.assert_array_equal(d.ravel(), [0, 1, 1, 1, 0])


class TestChannelGate:
    def test_tau_zero_keeps_everything(self):
        d = np.zeros((4, 8, 8))
        np.testing.assert_array_equal(channel_gate(d, 0.0), np.ones(4))

    def test_all_zero_decisions_masked(self):
        d = np.zeros((4, 8, 8))
        np.testing.assert_array_equal(channel_gate(d, 0.05), np.zeros(4))

    def test_boundary_inclusive_hand_count(self):
        # 8x8 map with exactly 4 ones at tau_c=4/64: sum - tau*64 = 0 -> kept
        d = np.zeros((1, 8, 8))
        d[0, [0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
        assert d.sum() == 4  # brute-force verified count
        assert channel_gate(d, 0.0625)[0] == 1.0
        assert channel_gate(d, 0.0625 + 1e-9)[0] == 0.0

    def test_batched(self, rng):
        d = (rng.random((5, 3, 4, 4)) < 0.3).astype(float)
        m = channel_gate(d, 0.25)
        assert m.shape == (5, 3)
        for n in range(5):
            for c in range(3):
                assert m[n, c] == (1.0 if d[n, c].sum() >= 0.25 * 16 else 0.0)


class TestShuffle:
    def test_interleave_positions(self):
        x = np.arange(8.0)[:, None, None] * np.ones((8, 1, 1))
        y = channel_shuffle(x, 4)
        # channel at (group g, offset j) moves to j*G + g
        np.testing.assert_array_equal(y[:, 0, 0], [0, 2, 4, 6, 1, 3, 5, 7])

    @given(st.integers(1, 4), st.integers(1, 4))
    def test_permutation_bijective(self, G, per):
        perm = shuffle_permutation(G * per, G)
        assert sorted(perm) == list(range(G * per))


class TestWeightPartition:
    @pytest.mark.parametrize("G", [1, 2, 4, 8])
    def test_roundtrip(self, rng, G):
        w = rng.standard_normal((8, 8, 3, 3))
        w_p, w_r = split_dense_weight(w, G)
        np.testing.assert_array_equal(assemble_dense_weight(w_p, w_r, G), w)

    def test_decomposition_identity(self, rng):
        # W*x == W_p*x_p + W_r*x_r summed over output groups
        G = 4
        w = rng.standard_normal((8, 8, 3, 3))
        x = rng.standard_normal((8, 6, 6))
        w_p, w_r = split_dense_weight(w, G)
        dense = nn.conv2d(x, w, ConvSpec(8, 8, 3, padding=1))
        base = nn.conv2d(x, w_p, ConvSpec(8, 8, 3, padding=1, groups=G))
        w_cond = conditional_weight_scatter(w_r, G, 8)
        cond = nn.conv2d(x, w_cond, ConvSpec(8, 8, 3, padding=1))
        assert rel_err(base + cond, dense) < 1e-12


class TestBlockInference:
    def test_all_take_limit_matches_dense(self, rng):
        # Delta = -1e6, tau_c = 0: y == f(BN2(full dense conv))
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = -1e6
        x = rng.standard_normal((2, 8, 6, 6))
        y, dm = cg_block_forward_inference(x, params, cfg)
        w = assemble_dense_weight(params.w_p, params.w_r, cfg.groups)
        full = nn.conv2d(x, w, cfg.conv)
        ref = nn.bn_forward(full, params.bn2)[0]
        ref = nn.activation(ref, "relu")
        assert rel_err(y, ref) < 1e-5
        assert dm.d.min() == 1.0
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["conditional_flops_executed"] == cost["conditional_flops_total"]

    def test_none_take_limit_matches_grouped(self, rng):
        # Delta = +1e6: y == f(BN1(grouped conv)), zero conditional FLOPs
        cfg = make_cfg()
        params = make_params(cfg, rng)
        params.gate.delta[:] = 1e6
        x = rng.standard_normal((2, 8, 6, 6))
        y, dm = cg_block_forward_inference(x, params, cfg)
        grouped = nn.conv2d(x, params.w_p,
                            ConvSpec(8, 8, 3, padding=1, groups=cfg.groups))
        ref = nn.activation(nn.bn_forward(grouped, params.bn1)[0], "relu")
        assert rel_err(y, ref) < 1e-5
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["conditional_flops_executed"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_per_activation_oracle(self, seed):
        # vectorized block output equals scalar evaluation of the gating rule
        # (integer-valued tensors make every sum order-exact, so the match
        # is bitwise)
        rng = np.random.default_rng(seed)
        cfg = make_cfg(c_in=4, c_out=4, G=2, pad=1)
        params = make_params(cfg, rng)
        params.w_p[:] = rng.integers(-3, 4, params.w_p.shape)
        params.w_r[:] = rng.integers(-3, 4, params.w_r.shape)
        params.gate.delta[:] = rng.standard_normal(4) * 0.5
        x = rng.integers(-3, 4, (4, 5, 5)).astype(float)
        y, dm = cg_block_forward_inference(x, params, cfg)
        w_dense = assemble_dense_weight(params.w_p, params.w_r, cfg.groups)
        spec = cfg.conv
        ho, wo = spec.out_hw(5, 5)
        for oc in range(4):
            gi = oc // (4 // cfg.groups)
            base_ch = gating.base_indices(4, cfg.groups, gi)
            sigma = math.sqrt(params.bn1.running_var[oc] + params.bn1.eps)
            thr = params.gate.delta[oc] * sigma + params.bn1.running_mean[oc]
            s1 = params.gamma[oc] / math.sqrt(params.bn1.running_var[oc] + params.bn1.eps)
            s2 = params.gamma[oc] / math.sqrt(params.bn2.running_var[oc] + params.bn2.eps)
            for oy in range(ho):
                for ox in range(wo):
                    partial = 0.0
                    full = 0.0
                    for ic in range(4):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy + ky - 1, ox + kx - 1
                                if 0 <= iy < 5 and 0 <= ix < 5:
                                    v = x[ic, iy, ix]
                                    full += v * w_dense[oc, ic, ky, kx]
                                    if ic in base_ch:
                                        pcol = np.where(base_ch == ic)[0][0]
                                        partial += v * params.w_p[oc, pcol, ky, kx]
                    take = 1.0 if partial >= thr else 0.0
                    assert take == dm.d[oc, oy, ox]
                    if take:
                        pre = (full - params.bn2.running_mean[oc]) * s2 + params.beta[oc]
                    else:
                        pre = (partial - params.bn1.running_mean[oc]) * s1 + params.beta[oc]
                    want = max(pre, 0.0)
                    assert y[oc, oy, ox] == want

    def test_monotone_pruning_in_delta(self, rng):
        cfg = make_cfg()
        params = make_params(cfg, rng)
        x = rng.standard_normal((4, 8, 6, 6))
        prev = -1.0
        for shift in np.linspace(-3, 3, 13):
            params.gate.delta[:] = shift
            _, dm = cg_block_forward_inference(x, params, cfg)
            pr = pruning_ratio(dm)
            assert pr >= prev - 1e-12
            prev = pr

    def test_gate_cost_bound(self, rng):
        cfg = make_cfg(tau_c=0.1)
        params = make_params(cfg, rng)
        x = rng.standard_normal((3, 8, 6, 6))
        _, dm = cg_block_forward_inference(x, params, cfg)
        ho = wo = 6
        cost = block_costs(dm, cfg)
        assert cost == dense_masked_block_forward(x, params, cfg)[2]
        assert cost["gate_comparisons"] == 3 * (ho * wo + 1) * 8
        cfg0 = make_cfg(tau_c=0.0)
        _, dm0 = cg_block_forward_inference(x, params, cfg0)
        cost0 = block_costs(dm0, cfg0)
        assert cost0 == dense_masked_block_forward(x, params, cfg0)[2]
        assert cost0["gate_comparisons"] == 3 * ho * wo * 8

    def test_channel_mask_consistency(self, rng):
        # masked-off channels carry exactly the base-path output
        cfg = make_cfg(tau_c=0.6)
        params = make_params(cfg, rng)
        x = rng.standard_normal((8, 6, 6))
        y, dm = cg_block_forward_inference(x, params, cfg)
        grouped = nn.conv2d(x, params.w_p,
                            ConvSpec(8, 8, 3, padding=1, groups=cfg.groups))
        base = nn.activation(nn.bn_forward(grouped, params.bn1)[0], "relu")
        assert dm.channel_mask.min() == 0.0, "test wants at least one masked channel"
        for c in range(8):
            if dm.channel_mask[c] == 0.0:
                np.testing.assert_array_equal(y[c], base[c])

    def test_shuffle_applied_to_output(self, rng):
        cfg = make_cfg(shuffle=True)
        params = make_params(cfg, rng)
        x = rng.standard_normal((8, 6, 6))
        y, _ = cg_block_forward_inference(x, params, cfg)
        cfg_ns = make_cfg(shuffle=False)
        y_ns, _ = cg_block_forward_inference(x, params, cfg_ns)
        np.testing.assert_array_equal(y, y_ns[shuffle_permutation(8, 4)])


class TestBlockInferenceOracle:
    """The shared-im2col inference path against the dense-then-masked oracle."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), batched=st.booleans(),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 2),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           tau_c=st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
           gate=st.sampled_from(["single_sided", "two_sided"]),
           # binary_sign is left out: a 1e-16 change of a pre-activation
           # near 0 would flip its output by 2
           act=st.sampled_from(["relu", "tanh", "sigmoid"]), shuffle=st.booleans())
    def test_matches_dense_masked_oracle(self, seed, n, batched, G, per_in, per_out, k,
                                         stride, pad, hw, tau_c, gate, act, shuffle):
        rng = np.random.default_rng(seed)
        cfg = CgLayerConfig(ConvSpec(G * per_in, G * per_out, k, stride=stride, padding=pad),
                            groups=G, activation=act, gate=gate, tau_c=tau_c,
                            shuffle=shuffle)
        params = make_params(cfg, rng)
        c_out = cfg.conv.out_channels
        params.gate.delta[:] = rng.standard_normal(c_out) * 0.7
        if gate == "two_sided":
            params.gate.delta_high[:] = np.abs(rng.standard_normal(c_out)) * 0.8
            params.gate.delta_low[:] = -np.abs(rng.standard_normal(c_out)) * 0.8
        shape = (cfg.conv.in_channels,) + hw
        x = rng.standard_normal((n,) + shape if batched else shape)
        y, dm = cg_block_forward_inference(x, params, cfg)
        y_ref, dm_ref, cost_ref = dense_masked_block_forward(x, params, cfg)
        assert y.shape == y_ref.shape
        np.testing.assert_allclose(y, y_ref, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(dm.d, dm_ref.d)
        np.testing.assert_array_equal(dm.channel_mask, dm_ref.channel_mask)
        assert block_costs(dm, cfg) == cost_ref


class TestPruningRatio:
    def test_limits(self):
        ones = DecisionMap(np.ones((3, 4, 4)), np.ones(3))
        zeros = DecisionMap(np.zeros((3, 4, 4)), np.ones(3))
        assert pruning_ratio(ones) == 0.0
        assert pruning_ratio(zeros) == 1.0

    def test_half(self):
        d = np.zeros((2, 4, 4))
        d[0] = 1.0
        assert pruning_ratio(DecisionMap(d, np.ones(2))) == 0.5

    def test_channel_mask_zeroes_count_as_pruned(self):
        d = np.ones((2, 4, 4))
        mask = np.array([1.0, 0.0])
        assert pruning_ratio(DecisionMap(d, mask)) == 0.5
