"""Analytical accelerator model: limits, oracle, and ordering properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cgnet.analysis import LayerRecord, cost_line
from cgnet.gating import CgLayerConfig, DecisionMap
from cgnet.nn import ConvSpec
from cgnet.perf import (ArrayConfig, _live_lanes, model_layer_cycles,
                        model_network_speedup)


def make_record(d, c_in=32, groups=4, k=3, tau_c=0.0, name="L"):
    """A gated layer's record of the (n, c, h, w) decisions ``d`` as bool."""
    d = np.asarray(d, dtype=bool)
    n, c_out, h, w = d.shape
    dm = DecisionMap(d, np.ones((n, c_out), dtype=bool))
    cfg = CgLayerConfig(ConvSpec(c_in, c_out, k), groups=groups, tau_c=tau_c)
    return LayerRecord(name, cfg.conv, h, w, n, cfg, dm)


def flop_reduction(rec):
    c_in, c_out, k2 = rec.spec.in_channels, rec.spec.out_channels, rec.spec.kernel_size ** 2
    pos = rec.h_out * rec.w_out
    dense = rec.n_samples * c_out * pos * c_in * k2
    base_in = c_in // rec.cfg.groups
    base = rec.n_samples * c_out * pos * base_in * k2
    executed = rec.dm.effective().sum() * (c_in - base_in) * k2
    return dense / (base + executed)


def vectors_by_enumeration(d, cols):
    """(lanes, live) of each vector of the bool (n, c, h, w) map ``d``: a
    channel's row-major positions cut into runs of ``cols``, one loop step
    per vector."""
    n, c_out, h, w = d.shape
    for s in range(n):
        for c in range(c_out):
            flat = d[s, c].ravel()
            for start in range(0, h * w, cols):
                chunk = flat[start:start + cols]
                yield len(chunk), bool(chunk.any())


def cycles_by_enumeration(rec, cfg):
    """Independent per-vector loop re-derivation of the modeled cycles."""
    k2 = rec.spec.kernel_size ** 2
    K = rec.spec.in_channels * k2
    K_p = (rec.spec.in_channels // rec.cfg.groups) * k2
    K_r = K - K_p
    R = cfg.rows * cfg.cols   # one MAC per PE per cycle
    vectors = list(vectors_by_enumeration(rec.dm.effective(), cfg.cols))
    lanes_total = sum(lanes for lanes, _ in vectors)
    live_lane_total = sum(lanes for lanes, live in vectors if live)
    tiles = -(-len(vectors) // cfg.rows)
    fill = tiles * cfg.fill_drain
    dense = lanes_total * K / R + fill
    gated = lanes_total * K_p / R + live_lane_total * K_r / R + fill
    return dense, gated


class TestLayerCycles:
    def test_all_ones_equals_dense(self, rng):
        rec = make_record(np.ones((2, 8, 8, 8)))
        lc = model_layer_cycles(rec, ArrayConfig())
        assert lc.gated_cycles == lc.dense_cycles

    def test_all_zeros_is_base_only(self):
        # no live lane: only the base path's MACs and the array's fill
        rec = make_record(np.zeros((2, 8, 8, 8)))
        cfg = ArrayConfig()
        lc = model_layer_cycles(rec, cfg)
        vectors = rec.n_samples * rec.spec.out_channels * -(-(rec.h_out * rec.w_out) // cfg.cols)
        fill = -(-vectors // cfg.rows) * cfg.fill_drain
        assert lc.gated_cycles == cost_line(rec).base_flops / cfg.throughput + fill

    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_oracle_and_ordering(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 3), int(rng.integers(1, 5)) * 2,
                 int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        d = (rng.random(shape) < rng.random()).astype(float)
        rec = make_record(d, c_in=8, groups=2)
        cfg = ArrayConfig(rows=int(rng.integers(1, 6)), cols=int(rng.integers(1, 6)))
        lc = model_layer_cycles(rec, cfg)
        dense_ref, gated_ref = cycles_by_enumeration(rec, cfg)
        assert lc.dense_cycles == pytest.approx(dense_ref, rel=1e-12)
        assert lc.gated_cycles == pytest.approx(gated_ref, rel=1e-12)
        assert lc.theoretical_cycles <= lc.gated_cycles + 1e-9
        assert lc.gated_cycles <= lc.dense_cycles + 1e-9

    def test_zero_dim_layer_rejected(self):
        rec = make_record(np.ones((1, 4, 2, 2)))
        rec.h_out = 0
        from cgnet.nn import ConfigurationError
        with pytest.raises(ConfigurationError):
            model_layer_cycles(rec, ArrayConfig())


class TestNetworkSpeedup:
    def test_pruning_zero_speedup_one(self):
        recs = [make_record(np.ones((1, 8, 8, 8)), name=f"L{i}") for i in range(3)]
        rep = model_network_speedup(recs, ArrayConfig())
        assert rep.speedup == pytest.approx(1.0, abs=1e-9)

    def test_uniform_half_vector_aligned(self):
        # alternating live/dead image rows = vector-aligned 50% pruning;
        # negligible fill/drain leaves speedup at 2x minus base overhead
        d = np.zeros((1, 16, 16, 16))
        d[:, :, ::2, :] = 1.0
        rec = make_record(d, c_in=64, groups=16)
        cfg = ArrayConfig(rows=16, cols=16, fill_drain_per_tile=0)
        lc = model_layer_cycles(rec, cfg)
        k2 = 9
        K, K_p = 64 * k2, 4 * k2
        want = K / (K_p + 0.5 * (K - K_p))
        assert lc.speedup == pytest.approx(want, rel=1e-12)
        assert 1.8 < lc.speedup < 2.0

    def test_speedup_bounded_by_flop_reduction(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            d = (r.random((2, 8, r.integers(3, 9), r.integers(3, 9))) < r.random())
            rec = make_record(d.astype(float), c_in=16, groups=4)
            rep = model_network_speedup([rec], ArrayConfig(rows=8, cols=8))
            assert rep.speedup <= flop_reduction(rec) + 1e-9

    def test_monotone_in_pruning(self, rng):
        base = (rng.random((1, 8, 8, 8)) < 0.6).astype(float)
        rec1 = make_record(base.copy())
        more = base.copy()
        more[more > 0] *= (rng.random((more > 0).sum()) < 0.7)
        rec2 = make_record(more)
        cfg = ArrayConfig()
        s1 = model_network_speedup([rec1], cfg).speedup
        s2 = model_network_speedup([rec2], cfg).speedup
        assert s2 >= s1 - 1e-12

    def test_cols_one_is_perfect_skipping(self, rng):
        d = (rng.random((1, 8, 8, 8)) < 0.3).astype(float)
        rec = make_record(d, c_in=32, groups=4)
        cfg = ArrayConfig(rows=8, cols=1, fill_drain_per_tile=0)
        rep = model_network_speedup([rec], cfg)
        assert rep.speedup == pytest.approx(flop_reduction(rec), rel=1e-12)

    def test_granularity_gap_shrinks_with_cols(self, rng):
        d = (rng.random((1, 8, 16, 16)) < 0.25).astype(float)
        rec = make_record(d, c_in=32, groups=4)
        fr = flop_reduction(rec)
        gaps = []
        for cols in (16, 4, 1):
            cfg = ArrayConfig(rows=8, cols=cols, fill_drain_per_tile=0)
            gaps.append(fr - model_network_speedup([rec], cfg).speedup)
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8),
       st.floats(0.0, 1.0))
def test_inequalities_property(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    d = (rng.random((1, int(rng.integers(1, 4)) * 2, int(rng.integers(2, 9)),
                     int(rng.integers(2, 9)))) < density).astype(float)
    rec = make_record(d, c_in=8, groups=2)
    cfg = ArrayConfig(rows=rows, cols=cols)
    lc = model_layer_cycles(rec, cfg)
    assert lc.theoretical_cycles <= lc.gated_cycles + 1e-9
    assert lc.gated_cycles <= lc.dense_cycles + 1e-9
    assert lc.speedup <= flop_reduction(rec) + 1e-9
    assert 0.0 <= lc.utilization <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9), st.integers(1, 40),
       st.sampled_from([0.0, 0.03, 0.3, 1.0]))
@example(seed=0, h=2, w=3, cols=16, density=0.1)    # h*w < cols: one short vector
@example(seed=1, h=5, w=5, cols=4, density=0.1)     # h*w % cols != 0: a short last vector
@example(seed=2, h=4, w=4, cols=4, density=0.1)     # whole vectors only
def test_live_lanes_match_enumeration(seed, h, w, cols, density):
    """``_live_lanes`` counts the lanes of live vectors as the per-vector
    loop does, on the (c, h, w, n) memory the gated layers write and on a
    C-ordered map (a merged record's)."""
    d = np.random.default_rng(seed).random((2, 3, h, w)) < density
    expected = sum(lanes for lanes, live in vectors_by_enumeration(d, cols) if live)
    chwn = np.ascontiguousarray(d.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    for layout in (d, chwn):
        got = _live_lanes(layout, cols)
        assert type(got) is int and got == expected
