"""Cost accounting: FLOP/weight oracles, correlation, intensity maps."""

import numpy as np
import pytest

from cgnet import analysis, nn
from cgnet.analysis import (CostReport, aggregate_intensity, count_flops,
                            count_weight_accesses, intensity_map,
                            network_pruning_ratio, partial_final_correlation,
                            write_pgm)
from cgnet.gating import DecisionMap
from cgnet.network import build_model
from cgnet.nn import ConfigurationError, ConvSpec

from _oracles import pearson, rel_err


def make_record(d, mask=None, c_in=8, groups=4, k=3, tau_c=0.0,
                gate_kind="single_sided", name="L0"):
    d = np.asarray(d, dtype=np.float64)
    if d.ndim == 3:
        d = d[None]
    n, c_out, h, w = d.shape
    if mask is None:
        mask = np.ones((n, c_out))
    dm = DecisionMap(d, np.asarray(mask, dtype=np.float64))
    return analysis.LayerRecord(
        name=name, kind="cg_conv", gated=True, c_in=c_in, c_out=c_out,
        kernel_size=k, groups=groups, gate_kind=gate_kind, tau_c=tau_c,
        h_out=h, w_out=w, n_samples=n, dm=dm)


def instrumented_mac_count(rec):
    """Count MACs one by one, the way a skipping implementation would
    execute them (padding taps included, like the analytic convention)."""
    k2 = rec.kernel_size ** 2
    base_in = rec.c_in // rec.groups
    cond_in = rec.c_in - base_in
    d_eff = rec.dm.effective()
    base = cond = 0
    for s in range(rec.n_samples):
        for c in range(rec.c_out):
            for y in range(rec.h_out):
                for x in range(rec.w_out):
                    for _ in range(base_in):
                        base += k2
                    if d_eff[s, c, y, x] == 1.0:
                        for _ in range(cond_in):
                            cond += k2
    return base, cond


def brute_force_weight_accesses(rec):
    """Recount weight values touched per (sample, layer, channel)."""
    k2 = rec.kernel_size ** 2
    base_in = rec.c_in // rec.groups
    cond_in = rec.c_in - base_in
    total = 0
    for s in range(rec.n_samples):
        for c in range(rec.c_out):
            total += base_in * k2
            if rec.dm.channel_mask[s, c] == 1.0:
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
        assert line.base_flops * rec.groups == line.dense_flops

    @pytest.mark.parametrize("seed", range(8))
    def test_instrumented_mac_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, c_out = int(rng.integers(1, 3)), int(rng.integers(2, 7)) * 2
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        G = int(rng.choice([2, 4]))
        c_in = G * int(rng.integers(1, 4))
        d = (rng.random((n, c_out * G // G, h, w)) < rng.random()).astype(float)
        d = (rng.random((n, c_out, h, w)) < rng.random()).astype(float)
        mask = (rng.random((n, c_out)) < 0.8).astype(float)
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
            d = (r.random((2, 8, 5, 5)) < r.random()).astype(float)
            rec = make_record(d, c_in=16, groups=4)
            line = count_flops([rec]).lines[0]
            assert line.base_flops + line.conditional_flops_total == line.dense_flops

    def test_gate_overhead_identity(self):
        d = np.ones((3, 8, 6, 7))
        rec_on = make_record(d, c_in=8, groups=4, tau_c=0.1)
        rec_off = make_record(d, c_in=8, groups=4, tau_c=0.0)
        assert count_flops([rec_on]).lines[0].gate_comparisons == 3 * (6 * 7 + 1) * 8
        assert count_flops([rec_off]).lines[0].gate_comparisons == 3 * (6 * 7) * 8

    def test_matches_block_counters(self, rng):
        # the block's own tally and the analysis arithmetic must agree
        from cgnet.gating import CgBlockParams, CgLayerConfig, cg_block_forward_inference
        cfg = CgLayerConfig(ConvSpec(8, 8, 3, padding=1), groups=4, tau_c=0.1)
        params = CgBlockParams.init(cfg, rng)
        params.gate.frozen = True
        params.gate.delta[:] = 0.2
        x = rng.standard_normal((4, 8, 6, 6))
        _, dm, cost = cg_block_forward_inference(x, params, cfg)
        rec = make_record(dm.d, dm.channel_mask, c_in=8, groups=4, tau_c=0.1)
        line = count_flops([rec]).lines[0]
        assert line.base_flops == cost.base_macs
        assert line.conditional_flops_executed == cost.cond_macs_executed
        assert line.conditional_flops_total == cost.cond_macs_total
        assert line.gate_comparisons == cost.comparisons
        assert line.weight_values_accessed == cost.weight_values_accessed
        assert line.weight_values_total == cost.weight_values_total

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
        from cgnet.gating import CgBlockParams, CgLayerConfig, cg_block_forward_inference
        cfg = CgLayerConfig(ConvSpec(8, 8, 3, padding=1), groups=4)
        params = CgBlockParams.init(cfg, rng)
        params.gate.frozen = True
        x = rng.standard_normal((2, 8, 6, 6))
        prev = 0.0
        for delta in np.linspace(-2, 2, 9):
            params.gate.delta[:] = delta
            _, dm, _ = cg_block_forward_inference(x, params, cfg)
            rec = make_record(dm.d, dm.channel_mask, c_in=8, groups=4)
            fr = count_flops([rec]).flop_reduction
            assert fr >= prev - 1e-12
            prev = fr


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
        corr = partial_final_correlation(model, x, etas=(1.0,))
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
        corr = partial_final_correlation(model, x, etas=(0.125, 0.25, 0.5, 1.0))
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
            corr = partial_final_correlation(model, x, etas=(1 / 3,))
        assert "L00" in corr[1 / 3]["layers"]
        assert "L01" not in corr[1 / 3]["layers"]


class TestIntensity:
    def test_all_ones_uniform(self):
        rec = make_record(np.ones((1, 4, 6, 6)))
        np.testing.assert_array_equal(intensity_map(rec), np.ones((6, 6)))

    def test_half_channels(self):
        d = np.zeros((1, 4, 5, 5))
        d[0, :2] = 1.0
        rec = make_record(d)
        np.testing.assert_array_equal(intensity_map(rec), np.full((5, 5), 0.5))

    def test_scalar_triple_loop_oracle(self, rng):
        d = (rng.random((2, 6, 5, 4)) < 0.4).astype(float)
        mask = (rng.random((2, 6)) < 0.8).astype(float)
        rec = make_record(d, mask)
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
        ungated = analysis.LayerRecord(
            name="conv", kind="conv", gated=False, c_in=3, c_out=8,
            kernel_size=3, groups=1, gate_kind="", tau_c=0.0, h_out=4, w_out=4,
            n_samples=2)
        assert network_pruning_ratio([gated, ungated]) == 1.0


class TestMergeLayerRecords:
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
