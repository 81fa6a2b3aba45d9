"""Cost accounting: FLOP/weight oracles, correlation, intensity maps."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgnet import analysis, gating, nn, perf
from cgnet.analysis import (CostReport, aggregate_intensity, count_flops,
                            intensity_map, network_pruning_ratio,
                            partial_final_correlation, write_pgm)
from cgnet.gating import CgLayerConfig, DecisionMap
from cgnet.network import ConvBlock, build_model
from cgnet.nn import ConfigurationError, ConvSpec

from _oracles import (block_inference, dense_masked_block_forward, group_positions_live, pearson,
                      rel_err)


def make_record(d, mask=None, c_in=8, groups=4, k=3, tau_c=0.0, name="L0"):
    """A one-sided (relu) gated layer's record of the (n, c, h, w)
    decisions ``d``, stored as bool like the gated layers store them."""
    d = np.asarray(d, dtype=bool)
    n, c_out, h, w = d.shape
    if mask is None:
        mask = np.ones((n, c_out))
    mask = np.asarray(mask, dtype=bool)
    dm = DecisionMap(d & mask[..., None, None], mask)   # the map that ran, as gate_map masks it
    cfg = CgLayerConfig(ConvSpec(c_in, c_out, k), groups=groups, tau_c=tau_c)
    return analysis.LayerRecord(name, cfg.conv, h, w, n, cfg, dm)


def instrumented_mac_count(rec):
    """Count MACs one by one, the way a skipping implementation would
    execute them (padding taps included, like the analytic convention)."""
    k2 = rec.spec.kernel_size ** 2
    base_in = rec.spec.in_channels // rec.cfg.groups
    cond_in = rec.spec.in_channels - base_in
    d_eff = rec.dm.effective()
    base = cond = 0
    for s in range(rec.n_samples):
        for c in range(rec.spec.out_channels):
            for y in range(rec.h_out):
                for x in range(rec.w_out):
                    for _ in range(base_in):
                        base += k2
                    if d_eff[s, c, y, x]:
                        for _ in range(cond_in):
                            cond += k2
    return base, cond


def brute_force_weight_accesses(rec):
    """Recount weight values touched per (sample, layer, channel)."""
    k2 = rec.spec.kernel_size ** 2
    base_in = rec.spec.in_channels // rec.cfg.groups
    cond_in = rec.spec.in_channels - base_in
    total = 0
    for s in range(rec.n_samples):
        for c in range(rec.spec.out_channels):
            total += base_in * k2
            if rec.dm.channel_mask[s, c]:
                total += cond_in * k2
    return total


class TestCountFlops:
    def test_all_ones_matches_dense(self):
        rec = make_record(np.ones((2, 8, 4, 4)))
        report = count_flops([rec])
        line = report.lines[0]
        dense = 2 * 8 * 16 * 8 * 9
        assert line.executed_flops == dense
        assert line.dense_flops == dense

    def test_all_zeros_is_eta_fraction(self):
        rec = make_record(np.zeros((2, 8, 4, 4)))
        line = count_flops([rec]).lines[0]
        assert line.executed_flops == line.base_flops
        assert line.base_flops * rec.cfg.groups == line.dense_flops

    @pytest.mark.parametrize("seed", range(8))
    def test_instrumented_mac_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 4)) * 4
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        G = int(rng.choice([2, 4]))
        c_in = G * int(rng.integers(1, 4))
        d = rng.random((n, c_out * G // G, h, w)) < rng.random()
        d = rng.random((n, c_out, h, w)) < rng.random()
        mask = rng.random((n, c_out)) < 0.8
        rec = make_record(d, mask, c_in=c_in, groups=G,
                          k=int(rng.choice([1, 3])), tau_c=0.05)
        line = count_flops([rec]).lines[0]
        base_ref, cond_ref = instrumented_mac_count(rec)
        assert line.base_flops == base_ref
        assert line.conditional_flops_executed == cond_ref
        assert brute_force_weight_accesses(rec) == line.weight_values_accessed

    def test_accounting_identity(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            d = r.random((2, 8, 5, 5)) < r.random()
            rec = make_record(d, c_in=16, groups=4)
            line = count_flops([rec]).lines[0]
            assert line.base_flops + line.conditional_flops_total == line.dense_flops

    def test_gate_overhead_identity(self):
        d = np.ones((3, 8, 6, 7))
        rec_on = make_record(d, c_in=8, groups=4, tau_c=0.1)
        rec_off = make_record(d, c_in=8, groups=4, tau_c=0.0)
        assert count_flops([rec_on]).lines[0].gate_comparisons == 3 * (6 * 7 + 1) * 8
        assert count_flops([rec_off]).lines[0].gate_comparisons == 3 * (6 * 7) * 8

    @pytest.mark.parametrize("tau_c", [0.0, 0.25])
    def test_two_sided_comparisons_from_block(self, rng, tau_c):
        # a band compares twice per output activation, plus once per
        # channel with the channel-wise gate
        from cgnet.network import CgConvBlock
        cfg = CgLayerConfig(ConvSpec(4, 8, 3, padding=1), groups=2, activation="tanh",
                            tau_c=tau_c)
        layer = CgConvBlock(cfg, rng)
        n, h, w = 3, 5, 6
        _, (rec,) = layer.forward_infer(rng.standard_normal((n, 4, h, w)), collect=True)
        assert rec.cfg.two_sided
        want = 2 * n * 8 * h * w + (n * 8 if tau_c > 0.0 else 0)
        assert analysis.cost_line(rec).gate_comparisons == want

    def test_grouped_dense_conv(self, rng):
        # no layer is grouped, so a record's kernel reads all c_in input
        # channels, and the correlation study can regroup any layer's
        with pytest.raises(ConfigurationError, match="L02: conv must have groups=1, got 2"):
            ConvBlock(ConvSpec(8, 8, 3, padding=1, groups=2), rng=rng, name="L02")

    def test_matches_block_counters(self, rng):
        # the accounting of the block's decisions and the oracle's own
        # count of the same block must agree
        from cgnet.gating import CgBlockParams, CgLayerConfig
        cfg = CgLayerConfig(ConvSpec(8, 8, 3, padding=1), groups=4, tau_c=0.1)
        params = CgBlockParams.init(cfg, rng)
        params.gate.delta[:] = 0.2
        x = rng.standard_normal((4, 8, 6, 6))
        _, dm = block_inference(x, params, cfg)
        _, _, cost = dense_masked_block_forward(x, params, cfg)
        rec = make_record(dm.d, dm.channel_mask, c_in=8, groups=4, tau_c=0.1)
        line = count_flops([rec]).lines[0]
        for field, value in cost.items():
            assert getattr(line, field) == value, field

    def test_weight_access_limits(self):
        d = np.ones((2, 8, 4, 4))
        rec = make_record(d, c_in=8, groups=4, tau_c=0.0)
        report = count_flops([rec])
        assert report.weight_access_reduction == 1.0
        rec2 = make_record(np.zeros((2, 8, 4, 4)), np.zeros((2, 8)),
                           c_in=8, groups=4, tau_c=0.5)
        report2 = count_flops([rec2])
        assert report2.weight_access_reduction == 4.0  # = G

    def test_flop_reduction_monotone_in_delta(self, rng):
        from cgnet.gating import CgBlockParams, CgLayerConfig
        cfg = CgLayerConfig(ConvSpec(8, 8, 3, padding=1), groups=4)
        params = CgBlockParams.init(cfg, rng)
        x = rng.standard_normal((2, 8, 6, 6))
        prev = 0.0
        for delta in np.linspace(-2, 2, 9):
            params.gate.delta[:] = delta
            _, dm = block_inference(x, params, cfg)
            rec = make_record(dm.d, dm.channel_mask, c_in=8, groups=4)
            fr = count_flops([rec]).flop_reduction
            assert fr >= prev - 1e-12
            prev = fr


class TestGroupPositionsLive:
    """The group-position live count against one-triple-at-a-time counting."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           G=st.sampled_from([1, 2, 4]), per_out=st.integers(1, 3),
           hw=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           rate=st.floats(0.0, 1.0), tau_c=st.sampled_from([0.0, 0.2, 0.6]))
    def test_matches_brute_force(self, seed, n, G, per_out, hw, rate, tau_c):
        rng = np.random.default_rng(seed)
        d = rng.random((n, G * per_out) + hw) < rate
        mask = gating.gate_map(d, tau_c).channel_mask
        rec = make_record(d, mask, c_in=2 * G, groups=G, tau_c=tau_c)
        line = analysis.cost_line(rec)
        live, total = group_positions_live(rec.dm.effective(), G)
        assert (line.group_positions_live, line.group_positions_total) == (live, total)
        assert total == n * G * hw[0] * hw[1]

    def test_ungated_lines_read_zero_and_columns_are_written(self):
        gated = make_record(np.ones((2, 8, 3, 3)), groups=4)
        ungated = analysis.LayerRecord("conv", ConvSpec(3, 8, 3), 3, 3, 2)
        header, *rows = count_flops([gated, ungated]).to_csv_rows()
        cols = [header.index(k) for k in ("group_positions_live", "group_positions_total")]
        assert [[row[c] for c in cols] for row in rows] == [[2 * 4 * 9] * 2, [0, 0]]


def captured_records(model, x):
    """Records of one collecting pass that captures every layer's input."""
    return model.forward_infer(x, collect=True, capture=True)[1]


class TestCorrelation:
    def small_model(self, rng):
        cfg = {
            "input_shape": [8, 8, 8],
            "num_classes": 4,
            "cg_defaults": {"groups": 4},
            "layers": [
                {"type": "cg_conv", "out_channels": 8, "kernel_size": 3,
                 "padding": 1, "activation": "relu"},
                {"type": "cg_conv", "out_channels": 16, "kernel_size": 3,
                 "padding": 1, "activation": "relu"},
                {"type": "avgpool", "kernel_size": 8},
                {"type": "flatten"},
                {"type": "linear", "out_features": 4},
            ],
        }
        model = build_model(cfg, rng)
        model.freeze_gates()
        return model

    def test_eta_one_is_exact_unity(self, rng):
        model = self.small_model(rng)
        x = rng.standard_normal((4, 8, 8, 8))
        corr = partial_final_correlation(captured_records(model, x), etas=(1.0,))
        assert abs(corr[1.0]["mean"] - 1.0) < 1e-12

    def test_iid_sqrt_eta_relation(self, rng):
        # for i.i.d. weights and inputs, r(eta) ~ sqrt(eta)
        c_in, c_out = 32, 16
        w = rng.standard_normal((c_out, c_in, 3, 3))
        x = rng.standard_normal((16, c_in, 12, 12))
        spec = ConvSpec(c_in, c_out, 3, padding=0)
        final = nn.conv2d(x, w, spec)
        from cgnet.gating import split_dense_weight
        w_p, _ = split_dense_weight(w, 2)
        partial = nn.conv2d(x, w_p, ConvSpec(c_in, c_out, 3, groups=2))
        r = pearson(partial, final)
        assert abs(r - np.sqrt(0.5)) < 0.05

    def test_monotone_in_eta_for_random_model(self, rng):
        model = self.small_model(rng)
        x = rng.standard_normal((8, 8, 8, 8))
        corr = partial_final_correlation(captured_records(model, x),
                                         etas=(0.125, 0.25, 0.5, 1.0))
        means = [corr[e]["mean"] for e in (0.125, 0.25, 0.5, 1.0)]
        assert means[0] < means[1] < means[2] < means[3]

    def test_indivisible_layers_skipped_with_warning(self, rng):
        cfg = {
            "input_shape": [6, 6, 6],
            "num_classes": 4,
            "cg_defaults": {"groups": 2},
            "layers": [
                {"type": "cg_conv", "out_channels": 6, "kernel_size": 3,
                 "padding": 1},
                {"type": "cg_conv", "out_channels": 8, "kernel_size": 3,
                 "padding": 1},
                {"type": "avgpool", "kernel_size": 6},
                {"type": "flatten"},
                {"type": "linear", "out_features": 4},
            ],
        }
        model = build_model(cfg, rng)
        model.freeze_gates()
        x = rng.standard_normal((2, 6, 6, 6))
        with pytest.warns(UserWarning, match="not divisible"):
            corr = partial_final_correlation(captured_records(model, x), etas=(1 / 3,))
        assert "L00" in corr[1 / 3]["layers"]
        assert "L01" not in corr[1 / 3]["layers"]

    def test_eta_admitting_no_layer_skipped_with_warning(self, rng):
        # 8 and 16 channels: G = 3 divides neither layer
        model = self.small_model(rng)
        x = rng.standard_normal((2, 8, 8, 8))
        with pytest.warns(UserWarning, match="no layer admits regrouping"):
            corr = partial_final_correlation(captured_records(model, x),
                                             etas=(1 / 3, 0.5, 1.0))
        assert list(corr) == [0.5, 1.0]

    def test_no_eta_admitting_any_layer_raises(self, rng):
        model = self.small_model(rng)
        x = rng.standard_normal((2, 8, 8, 8))
        with pytest.warns(UserWarning, match="not divisible"), \
                pytest.raises(ConfigurationError, match="no layer admits regrouping"):
            partial_final_correlation(captured_records(model, x), etas=(1 / 3, 1 / 6))


class TestIntensity:
    def test_all_ones_uniform(self):
        rec = make_record(np.ones((1, 4, 6, 6)))
        np.testing.assert_array_equal(intensity_map(rec), np.ones((6, 6)))

    def test_half_channels(self):
        d = np.zeros((1, 4, 5, 5), dtype=bool)
        d[0, :2] = True
        rec = make_record(d)
        np.testing.assert_array_equal(intensity_map(rec), np.full((5, 5), 0.5))

    def test_scalar_triple_loop_oracle(self, rng):
        d = rng.random((2, 6, 5, 4)) < 0.4
        mask = rng.random((2, 6)) < 0.8
        rec = make_record(d, mask, groups=2)
        got = intensity_map(rec, sample=1)
        for y in range(5):
            for x in range(4):
                acc = 0.0
                for c in range(6):
                    acc += d[1, c, y, x] * mask[1, c]
                assert got[y, x] == acc / 6

    def test_aggregate_upsamples(self, rng):
        r1 = make_record(np.ones((1, 4, 4, 4)))
        r2 = make_record(np.zeros((1, 4, 2, 2)))
        agg = aggregate_intensity([r1, r2], (8, 8))
        np.testing.assert_array_equal(agg, np.full((8, 8), 0.5))

    def test_pgm_bytes(self, tmp_path):
        m = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "map.pgm"
        write_pgm(path, m)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        assert list(blob[-4:]) == [0, 128, 255, 64]


class TestPruningRatioAggregate:
    def test_mixed_records(self):
        gated = make_record(np.zeros((2, 4, 4, 4)))
        ungated = analysis.LayerRecord("conv", ConvSpec(3, 8, 3), 4, 4, 2)
        assert network_pruning_ratio([gated, ungated]) == 1.0


class TestMergeLayerRecords:
    def test_masked_maps_concatenate_without_a_second_mask(self):
        # tau_c > 0 drops a channel: each batch's map is masked once, when
        # its block builds it, and the merge only concatenates (one
        # full-size bool array, not the concatenation ANDed again)
        cfg = CgLayerConfig(ConvSpec(4, 4, 3), groups=2, tau_c=0.5)
        fired = np.zeros((8, 4, 64, 64), dtype=bool)
        fired[:, :2] = True           # channels 0 and 1 fire everywhere,
        fired[:, 2, :4] = True        # channel 2 at 1/16 of its positions
        dm = gating.gate_map(fired, cfg.tau_c)
        assert not dm.channel_mask.all() and dm.d[:, 2].sum() == 0
        recs = [[analysis.LayerRecord("L0", cfg.conv, 64, 64, 8, cfg, dm)] for _ in range(2)]
        tracemalloc.start()
        try:
            (merged,) = analysis.merge_layer_records(*recs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(merged.dm.d, np.concatenate([dm.d, dm.d]))
        np.testing.assert_array_equal(merged.dm.channel_mask,
                                      np.concatenate([dm.channel_mask] * 2))
        assert merged.n_samples == 16
        assert peak < 1.5 * merged.dm.d.nbytes

    def test_length_mismatch_rejected(self):
        a = make_record(np.zeros((1, 4, 4, 4)), name="L0")
        b = make_record(np.zeros((1, 4, 4, 4)), name="L1")
        with pytest.raises(ConfigurationError, match="2 and 1 layers"):
            analysis.merge_layer_records([a, b], [a])

    def test_name_mismatch_rejected(self):
        a = make_record(np.zeros((1, 4, 4, 4)), name="L0")
        b = make_record(np.zeros((1, 4, 4, 4)), name="L1")
        with pytest.raises(ConfigurationError, match="'L1' into layer 'L0'"):
            analysis.merge_layer_records([a], [b])


class TestBoolDecisionMaps:
    """The gated layers record bool decisions and bool channel masks; every
    reader of decision maps gives what a recount of the same maps gives,
    whether the recount runs on bool maps or on float64 maps (the
    arithmetic the readers ran on float maps)."""

    CONFIG = {
        "input_shape": [4, 8, 8],
        "num_classes": 4,
        "cg_defaults": {"groups": 2},
        "layers": [
            {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1},
            {"type": "maxpool", "kernel_size": 2},
            {"type": "cg_conv", "out_channels": 8, "kernel_size": 3, "padding": 1,
             "activation": "tanh", "groups": 4},
            {"type": "residual", "out_channels": 8},
            {"type": "flatten"},
            {"type": "linear", "out_features": 4},
        ],
    }

    @pytest.mark.parametrize("recount_dtype", [np.float64, bool])
    @pytest.mark.parametrize("tau_c", [0.0, 0.3])
    def test_bool_and_float_maps_agree(self, tau_c, recount_dtype):
        rng = np.random.default_rng(12)
        model = build_model(self.CONFIG, rng)
        x = rng.standard_normal((6, 4, 8, 8))
        model.forward_train(x)
        model.freeze_gates()
        model.set_tau_c(tau_c)
        for layer in model.gated_layers():
            gate = layer.params.gate
            if gate.delta_high is None:
                gate.delta[:] = rng.normal(0.0, 0.8, gate.delta.shape)
            else:
                gate.delta_high[:] = rng.uniform(0.0, 1.0, gate.delta_high.shape)
                gate.delta_low[:] = -rng.uniform(0.0, 1.0, gate.delta_low.shape)
        _, records = model.forward_infer(x, collect=True)
        merged = analysis.merge_layer_records(records, records)
        gated = [r for r in merged if r.gated]
        assert len(gated) == 4
        assert all(r.dm.d.dtype == bool and r.dm.channel_mask.dtype == bool
                   for r in gated)
        masks = np.concatenate([r.dm.channel_mask.ravel() for r in gated])
        assert (~masks).any() == (tau_c > 0.0)

        array = perf.ArrayConfig(rows=4, cols=4)
        lines = {l.name: l for l in count_flops(merged).lines}
        taken = total = 0.0
        maps = []
        for rec in gated:
            mask = rec.dm.channel_mask.astype(recount_dtype)
            eff = rec.dm.d.astype(recount_dtype) * mask[..., None, None]
            assert eff.dtype == recount_dtype
            taken += eff.sum()
            total += eff.size
            spec = rec.spec
            base_k = spec.in_channels // rec.cfg.groups * spec.kernel_size ** 2
            cond_k = spec.in_channels * spec.kernel_size ** 2 - base_k
            line = lines[rec.name]
            assert line.conditional_flops_executed == int(eff.sum()) * cond_k
            assert line.weight_values_accessed == (
                rec.n_samples * spec.out_channels * base_k + int(mask.sum()) * cond_k)
            cycles = perf.model_layer_cycles(rec, array)
            n_acts = rec.n_samples * spec.out_channels * rec.h_out * rec.w_out
            assert cycles.theoretical_cycles == (
                (n_acts * base_k + int(eff.sum()) * cond_k) / array.throughput)
            for s in range(12):
                np.testing.assert_array_equal(intensity_map(rec, s), eff[s].mean(axis=0))
            m = eff[5].mean(axis=0)
            maps.append(np.kron(m, np.ones((8 // m.shape[0], 8 // m.shape[1]))))
        ratio = network_pruning_ratio(merged)
        assert 0.0 < ratio < 1.0
        assert ratio == 1.0 - taken / total
        np.testing.assert_array_equal(aggregate_intensity(merged, (8, 8), 5),
                                      np.mean(maps, axis=0))
