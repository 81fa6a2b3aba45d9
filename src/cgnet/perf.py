"""Analytical systolic-array cost model for gated layers.

This is a model, not a measurement: array dimensions, fill/drain cost and
scheduling are parametric defaults chosen here (the reports flag them as
such). A layer is a GEMM with reduction length K = c_in*k^2 over
N = c_out*h'*w' output lanes. Lanes are grouped, per output channel and in
row-major spatial order, into vectors of ``cols`` lanes (the last vector
of a channel may be short). The array processes ``rows`` vectors at a
time at one MAC per PE per cycle.

Gating granularity is the output-channel-row vector: a vector takes the
conditional path if any of its lanes does, which is the utilization-loss
mechanism (dead lanes of a live vector still occupy PEs). Scheduling:

    dense_cycles = N*K/R + T*F
    gated_cycles = N*K_p/R + W_L*K_r/R + T*F

with R = rows*cols, K_p/K_r the base/conditional reduction
lengths, W_L the lane count of live vectors, T = ceil(V/rows) output
tiles and F the fill/drain latency per tile. Fill/drain is charged once
per output tile on both sides: the gate decision is available when the
base phase of a tile completes, so conditional vectors stream through
while partial sums stay resident. Compute terms are exact lane-cycle
ratios (amortized pipelining), which keeps the model's speedup provably
at or below the true FLOP reduction, mirroring the measured-versus-
theoretical gap such accelerators show.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .analysis import LayerRecord, cost_line
from .nn import ConfigurationError


@dataclass
class ArrayConfig:
    rows: int = 16
    cols: int = 16
    fill_drain_per_tile: int | None = None   # None -> rows + cols

    @property
    def fill_drain(self):
        if self.fill_drain_per_tile is None:
            return self.rows + self.cols
        return self.fill_drain_per_tile

    @property
    def throughput(self):
        return self.rows * self.cols


@dataclass
class LayerCycles:
    name: str
    dense_cycles: float
    gated_cycles: float
    theoretical_cycles: float
    utilization: float

    @property
    def speedup(self):
        return self.dense_cycles / self.gated_cycles


def _live_lanes(d, cols):
    """Total real lanes of vectors with at least one live lane, for one bool
    (n,c,h,w) map that ran; a channel's last vector lacks ``short`` of its
    ``cols`` lanes."""
    n, c, h, w = d.shape
    pos = h * w
    starts = np.arange(0, pos, cols)
    live = np.logical_or.reduceat(d.reshape(n, c, pos), starts, axis=2)
    short = -pos % cols
    return int(np.count_nonzero(live)) * cols - short * int(np.count_nonzero(live[..., -1]))


def model_layer_cycles(rec: LayerRecord, cfg: ArrayConfig) -> LayerCycles:
    """Modeled cycles for one layer under the decision maps it recorded; the
    dense, base and executed MACs are ``analysis.cost_line``'s."""
    if rec.h_out < 1 or rec.w_out < 1:
        raise ConfigurationError(f"{rec.name}: zero-dimensional layer")
    line = cost_line(rec)
    R = cfg.throughput
    vectors = rec.n_samples * rec.spec.out_channels * -(-(rec.h_out * rec.w_out) // cfg.cols)
    fill = -(-vectors // cfg.rows) * cfg.fill_drain
    dense_cycles = line.dense_flops / R + fill

    if not rec.gated:
        ideal = line.dense_flops / R
        return LayerCycles(rec.name, dense_cycles, dense_cycles, ideal, ideal / dense_cycles)

    c_in = rec.spec.in_channels
    K_r = (c_in - c_in // rec.cfg.groups) * rec.spec.kernel_size ** 2
    base_cycles = line.base_flops / R + fill
    gated_cycles = base_cycles + _live_lanes(rec.dm.d, cfg.cols) * K_r / R
    return LayerCycles(rec.name, dense_cycles, gated_cycles,
                       line.executed_flops / R, line.executed_flops / (gated_cycles * R))


@dataclass
class PerfReport:
    layers: list
    array: ArrayConfig

    @property
    def dense_total(self):
        return sum(l.dense_cycles for l in self.layers)

    @property
    def gated_total(self):
        return sum(l.gated_cycles for l in self.layers)

    @property
    def speedup(self):
        return self.dense_total / self.gated_total

    def to_csv_rows(self):
        rows = [["layer", "dense_cycles", "gated_cycles", "theoretical_cycles",
                 "utilization"]]
        for l in self.layers:
            rows.append([l.name, repr(l.dense_cycles), repr(l.gated_cycles),
                         repr(l.theoretical_cycles), repr(l.utilization)])
        rows.append(["__network__", repr(self.dense_total), repr(self.gated_total),
                     repr(sum(l.theoretical_cycles for l in self.layers)),
                     repr(self.speedup)])
        return rows


def model_network_speedup(records, cfg: ArrayConfig) -> PerfReport:
    """Whole-network modeled speedup with a per-layer breakdown."""
    if not records:
        raise ConfigurationError("no layer records to model")
    return PerfReport([model_layer_cycles(r, cfg) for r in records], cfg)


def write_breakdown_csv(path, report: PerfReport, frozen):
    """Per-layer rows under a header naming the array and the frozen flag."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([f"# array rows={report.array.rows} cols={report.array.cols} "
                    f"fill_drain={report.array.fill_drain} frozen={frozen} "
                    "(model defaults, not hardware measurements)"])
        w.writerows(report.to_csv_rows())
