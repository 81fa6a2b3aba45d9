"""Gating block: gate variants, grouping, decision maps, inference path."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import analysis, gating, nn
from cgnet.gating import (CgBlockParams, CgLayerConfig, DecisionMap,
                          assemble_dense_weight, channel_gate, channel_shuffle,
                          cg_block_forward_inference, merged_gate,
                          shuffle_permutation, split_dense_weight)
from cgnet.network import build_model
from cgnet.nn import ConfigurationError, ConvSpec

from _oracles import (conditional_kernel, dense_masked_block_forward, heaviside,
                      kernel_split, pruning_ratio, rel_err)


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
    def test_identity_stats(self, rng):
        cfg = make_cfg()
        params = gate_params(cfg)
        # E=0, Var=1, Delta=0: decisions equal heaviside up to the eps term
        p = rng.standard_normal((1, 8, 6, 6))
        np.testing.assert_array_equal(merged_gate(p, params), heaviside(p))

    def test_hand_evaluation(self):
        cfg = make_cfg(c_in=4, c_out=1, G=1)
        params = gate_params(cfg)
        params.bn1.running_mean[:] = 2.0
        params.bn1.running_var[:] = 4.0
        params.gate.delta[:] = 1.0
        # theta(4 - 1*2 - 2) = theta(0) = 1 (eps negligible at this magnitude)
        x = np.full((1, 1, 1, 1), 4.0 + 1e-4)
        assert merged_gate(x, params)[0, 0, 0, 0]

    def test_equals_normalize_then_threshold(self, rng):
        # two-path equivalence oracle over 10^4 random cases
        cfg = make_cfg(c_out=8)
        params = gate_params(cfg)
        bn1, gate = params.bn1, params.gate
        bn1.running_mean[:] = rng.standard_normal(8)
        bn1.running_var[:] = rng.uniform(0.1, 3.0, 8)
        gate.delta[:] = rng.standard_normal(8)
        x = rng.standard_normal((125, 8, 10, 1)) * 2.0
        got = merged_gate(x, params)
        sigma = np.sqrt(bn1.running_var + bn1.eps)
        xhat = (x - bn1.running_mean[:, None, None]) / sigma[:, None, None]
        want = heaviside(xhat - gate.delta[:, None, None])
        np.testing.assert_array_equal(got, want)

    def test_two_sided_band(self, rng):
        cfg = make_cfg(c_in=4, c_out=1, G=1, act="tanh")
        assert cfg.two_sided
        params = gate_params(cfg)
        params.gate.delta_high[:] = 0.5
        params.gate.delta_low[:] = -0.5
        x = np.array([[[[-1.0, -0.5, 0.0, 0.5, 1.0]]]] * 1).reshape(1, 1, 1, 5)
        d = merged_gate(x, params)
        # eps shifts the +/-0.5 thresholds outward by ~2.5e-6, boundaries taken
        np.testing.assert_array_equal(d.ravel(), [0, 1, 1, 1, 0])


class TestChannelGate:
    def test_tau_zero_keeps_everything(self):
        d = np.zeros((1, 4, 8, 8), dtype=bool)
        np.testing.assert_array_equal(channel_gate(d, 0.0), np.ones((1, 4), dtype=bool))

    def test_all_zero_decisions_masked(self):
        d = np.zeros((1, 4, 8, 8), dtype=bool)
        np.testing.assert_array_equal(channel_gate(d, 0.05), np.zeros((1, 4), dtype=bool))

    def test_boundary_inclusive_hand_count(self):
        # 8x8 map with exactly 4 ones at tau_c=4/64: sum - tau*64 = 0 -> kept
        d = np.zeros((1, 1, 8, 8), dtype=bool)
        d[0, 0, [0, 1, 2, 3], [0, 1, 2, 3]] = True
        assert d.sum() == 4  # brute-force verified count
        assert channel_gate(d, 0.0625)[0, 0]
        assert not channel_gate(d, 0.0625 + 1e-9)[0, 0]

    def test_batched(self, rng):
        d = rng.random((5, 3, 4, 4)) < 0.3
        m = channel_gate(d, 0.25)
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
        y, dm = cg_block_forward_inference(x, params, cfg)
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
        y, dm = cg_block_forward_inference(x, params, cfg)
        grouped = nn.conv2d(x, kernel_split(params.w, cfg.groups)[0],
                            ConvSpec(8, 8, 3, padding=1, groups=cfg.groups))
        ref = nn.activation(nn.bn_inference(grouped, params.bn1), "relu")
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
        params.w[:] = rng.integers(-3, 4, params.w.shape)
        params.gate.delta[:] = rng.standard_normal(4) * 0.5
        x = rng.integers(-3, 4, (1, 4, 5, 5)).astype(float)
        y, dm = cg_block_forward_inference(x, params, cfg)
        spec = cfg.conv
        ho, wo = spec.out_hw(5, 5)
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
                    for ic in range(4):
                        for ky in range(3):
                            for kx in range(3):
                                iy, ix = oy + ky - 1, ox + kx - 1
                                if 0 <= iy < 5 and 0 <= ix < 5:
                                    v = x[0, ic, iy, ix]
                                    full += v * params.w[oc, ic, ky, kx]
                                    if ic in base_ch:
                                        partial += v * params.w[oc, ic, ky, kx]
                    take = partial >= thr
                    assert take == dm.d[0, oc, oy, ox]
                    if take:
                        pre = (full - params.bn2.running_mean[oc]) * s2 + params.beta[oc]
                    else:
                        pre = (partial - params.bn1.running_mean[oc]) * s1 + params.beta[oc]
                    want = max(pre, 0.0)
                    assert y[0, oc, oy, ox] == want

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
        x = rng.standard_normal((1, 8, 6, 6))
        y, dm = cg_block_forward_inference(x, params, cfg)
        grouped = nn.conv2d(x, kernel_split(params.w, cfg.groups)[0],
                            ConvSpec(8, 8, 3, padding=1, groups=cfg.groups))
        base = nn.activation(nn.bn_inference(grouped, params.bn1), "relu")
        assert not dm.channel_mask.all(), "test wants at least one masked channel"
        for c in range(8):
            if not dm.channel_mask[0, c]:
                np.testing.assert_array_equal(y[0, c], base[0, c])

    def test_shuffle_applied_to_output(self, rng):
        cfg = make_cfg(shuffle=True)
        params = make_params(cfg, rng)
        x = rng.standard_normal((1, 8, 6, 6))
        y, _ = cg_block_forward_inference(x, params, cfg)
        cfg_ns = make_cfg(shuffle=False)
        y_ns, _ = cg_block_forward_inference(x, params, cfg_ns)
        np.testing.assert_array_equal(y, y_ns[:, shuffle_permutation(8, 4)])


class TestBlockInferenceOracle:
    """The shared-im2col inference path against the dense-then-masked oracle."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           G=st.sampled_from([1, 2, 4]), per_in=st.integers(1, 2),
           per_out=st.integers(1, 2), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           hw=st.tuples(st.integers(3, 6), st.integers(3, 6)),
           tau_c=st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
           # the gate kind follows the activation: relu and identity get one
           # threshold, tanh and sigmoid a band. binary_sign is left out: a
           # 1e-16 change of a pre-activation near 0 would flip its output by 2
           act=st.sampled_from(["relu", "tanh", "sigmoid", "identity"]),
           shuffle=st.booleans())
    def test_matches_dense_masked_oracle(self, seed, n, G, per_in, per_out, k,
                                         stride, pad, hw, tau_c, act, shuffle):
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
        x = rng.standard_normal((n, cfg.conv.in_channels) + hw)
        y, dm = cg_block_forward_inference(x, params, cfg)
        y_ref, dm_ref, cost_ref = dense_masked_block_forward(x, params, cfg)
        assert y.shape == y_ref.shape
        np.testing.assert_allclose(y, y_ref, rtol=0.0, atol=1e-10)
        np.testing.assert_array_equal(dm.d, dm_ref.d)
        np.testing.assert_array_equal(dm.channel_mask, dm_ref.channel_mask)
        assert block_costs(dm, cfg) == cost_ref


class TestBlockInferenceWritesNoInput:
    """The in-place epilogue writes only arrays the block allocated itself."""

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("G", [1, 2, 4])
    @pytest.mark.parametrize("several", [False, True])   # one sample, or two
    @pytest.mark.parametrize("k", [1, 3])   # with k == 1 im2col returns a view of x
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
        y, dm = cg_block_forward_inference(x, p, cfg)
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
        mask = np.array([[True, False]])
        assert pruning_ratio(DecisionMap(d, mask)) == 0.5


class TestDecisionMap:
    """``d`` is the map that ran, whoever builds the ``DecisionMap``."""

    def test_fires_in_dropped_channels_are_masked(self):
        # in the (c, h, w, n) memory the gated layers write, which d keeps
        fired = np.ones((3, 2, 2, 2), dtype=bool).transpose(3, 0, 1, 2)
        mask = np.array([[True, False, True], [False, True, True]])
        dm = DecisionMap(fired, mask)
        # every position fired, so what ran is each channel's mask entry
        np.testing.assert_array_equal(dm.d, np.broadcast_to(mask[..., None, None], fired.shape))
        assert dm.d.transpose(1, 2, 3, 0).flags.c_contiguous
        assert fired.all(), "the firing map passed in is left as it was"

    def test_every_channel_kept_stores_the_map_uncopied(self):
        fired = np.zeros((1, 2, 3, 3), dtype=bool)
        fired[0, 1, 1] = True
        assert DecisionMap(fired, np.ones((1, 2), dtype=bool)).d is fired

    def test_inference_at_tau_c_zero_records_the_gate_map_uncopied(self, rng, monkeypatch):
        maps = []

        def recorded_gate(p, params):
            maps.append(merged_gate(p, params))
            return maps[-1]

        monkeypatch.setattr(gating, "merged_gate", recorded_gate)
        cfg = make_cfg(tau_c=0.0)
        _, dm = cg_block_forward_inference(rng.standard_normal((2, 8, 5, 5)),
                                           make_params(cfg, rng), cfg)
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
