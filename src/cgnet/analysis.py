"""Cost accounting and empirical studies over collected layer records.

FLOPs are counted as multiply-accumulates (1 MAC = 1 FLOP unit). Batch
norm, activations and gate comparisons are excluded from the headline
FLOP-reduction figure and reported separately; a secondary reduction
figure that charges each gate comparison as one FLOP is also emitted.
Weight accesses count each weight value once per (sample, layer); no
cache behavior is modeled.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .gating import CgLayerConfig, DecisionMap, grouped_partial_sums
from .nn import ConfigurationError, ConvSpec, _chwn, conv2d_forward


@dataclass
class LayerRecord:
    """What one forward pass reports about one compute layer.

    ``spec`` is the layer's dense ``ConvSpec`` (a linear head reports
    ``ConvSpec(in, out, 1)``) and ``cfg`` its ``CgLayerConfig``, None when
    the layer is ungated. ``w`` is the layer's own kernel and ``x_in`` its
    input, captured only by a ``capture`` pass: references, not copies.
    """

    name: str
    spec: ConvSpec
    h_out: int
    w_out: int
    n_samples: int
    cfg: CgLayerConfig | None = None
    dm: DecisionMap | None = None
    w: np.ndarray | None = None
    x_in: np.ndarray | None = None

    @property
    def gated(self):
        return self.cfg is not None


def merge_layer_records(*record_lists):
    """Concatenate the record lists of consecutive batches into one list.
    Only the decision maps concatenate: captured inputs are read from one
    collecting pass's own records, which are never merged."""
    first = record_lists[0]
    for other in record_lists[1:]:
        if len(other) != len(first):
            raise ConfigurationError(
                f"cannot merge record lists of {len(first)} and {len(other)} layers")
        for a, b in zip(first, other):
            if a.name != b.name:
                raise ConfigurationError(
                    f"cannot merge records of layer {b.name!r} into layer {a.name!r}")
    merged = []
    for recs in zip(*record_lists):
        m = replace(recs[0], n_samples=sum(r.n_samples for r in recs))
        if m.dm is not None:
            m.dm = DecisionMap(np.concatenate([r.dm.d for r in recs]),
                               np.concatenate([r.dm.channel_mask for r in recs]))
        merged.append(m)
    return merged


# ---------------------------------------------------------------------------
# FLOP / weight-access accounting
# ---------------------------------------------------------------------------

@dataclass
class CostLine:
    name: str
    base_flops: int
    conditional_flops_executed: int
    conditional_flops_total: int
    gate_comparisons: int
    weight_values_accessed: int
    weight_values_total: int
    # (sample, output group, position) triples where any channel of the
    # group fires, the positions a gather of live outputs has to run, and
    # the count of all such triples; both 0 for an ungated layer
    group_positions_live: int = 0
    group_positions_total: int = 0

    @property
    def dense_flops(self):
        return self.base_flops + self.conditional_flops_total

    @property
    def executed_flops(self):
        return self.base_flops + self.conditional_flops_executed


@dataclass
class CostReport:
    lines: list
    n_samples: int

    @property
    def dense_total(self):
        return sum(l.dense_flops for l in self.lines)

    @property
    def executed_total(self):
        return sum(l.executed_flops for l in self.lines)

    @property
    def comparisons_total(self):
        return sum(l.gate_comparisons for l in self.lines)

    @property
    def flop_reduction(self):
        return self.dense_total / self.executed_total

    @property
    def flop_reduction_incl_gate(self):
        return self.dense_total / (self.executed_total + self.comparisons_total)

    @property
    def weight_access_reduction(self):
        used = sum(l.weight_values_accessed for l in self.lines)
        return sum(l.weight_values_total for l in self.lines) / used

    def to_csv_rows(self):
        header = ["layer", "base_flops", "conditional_flops_executed",
                  "conditional_flops_total", "dense_flops", "gate_comparisons",
                  "weight_values_accessed", "weight_values_total",
                  "group_positions_live", "group_positions_total"]
        return [header] + [[l.name] + [getattr(l, key) for key in header[1:]]
                           for l in self.lines]

    def to_json_dict(self):
        return {
            "schema_version": 1,
            "n_samples": self.n_samples,
            "flop_reduction": self.flop_reduction,
            "flop_reduction_incl_gate_comparisons": self.flop_reduction_incl_gate,
            "weight_access_reduction": self.weight_access_reduction,
            "dense_flops_total": self.dense_total,
            "executed_flops_total": self.executed_total,
            "gate_comparisons_total": self.comparisons_total,
            "layers": {l.name: {k: v for k, v in asdict(l).items() if k != "name"}
                       for l in self.lines},
        }


def cost_line(rec: LayerRecord) -> CostLine:
    """MACs, gate comparisons and weight accesses of one layer record.

    An ungated layer runs all its MACs as base work. A gated layer runs its
    base path (c_in/G input channels) everywhere and the other channels
    only where the map that ran (``rec.dm.d``) is True; it compares once
    per output activation (twice for a band), plus once per channel with
    the channel-wise gate, and reads W_r only for the channels that gate
    keeps. A group position is live where any of the output group's c_out/G
    channels ran the conditional path (decisions in pre-shuffle order).
    """
    spec, cfg = rec.spec, rec.cfg
    k2 = spec.kernel_size ** 2
    n, pos, c_out = rec.n_samples, rec.h_out * rec.w_out, spec.out_channels
    weights = n * c_out * (spec.in_channels // spec.groups) * k2
    if cfg is None:
        return CostLine(rec.name, weights * pos, 0, 0, 0, weights, weights)
    base_k = (spec.in_channels // cfg.groups) * k2
    cond_k = spec.in_channels * k2 - base_k
    comparisons = n * pos * c_out * (2 if cfg.two_sided else 1)
    if cfg.tau_c > 0.0:
        comparisons += n * c_out
    G = cfg.groups
    live = np.count_nonzero(rec.dm.d.reshape(n, G, c_out // G, pos).any(axis=2))
    return CostLine(
        rec.name,
        base_flops=n * c_out * pos * base_k,
        conditional_flops_executed=int(np.count_nonzero(rec.dm.d)) * cond_k,
        conditional_flops_total=n * c_out * pos * cond_k,
        gate_comparisons=comparisons,
        weight_values_accessed=(n * c_out * base_k
                                + int(np.count_nonzero(rec.dm.channel_mask)) * cond_k),
        weight_values_total=weights,
        group_positions_live=int(live),
        group_positions_total=n * G * pos)


def count_flops(records) -> CostReport:
    """Aggregate a CostReport from layer records, one ``cost_line`` each."""
    if not records:
        raise ConfigurationError("no layer records; run a collecting forward pass first")
    return CostReport([cost_line(rec) for rec in records], records[0].n_samples)


def network_pruning_ratio(records):
    """Fraction of gated output activations whose conditional path was skipped."""
    maps = [rec.dm.d for rec in records if rec.gated]
    total = sum(d.size for d in maps)
    return float(1.0 - sum(int(np.count_nonzero(d)) for d in maps) / total) if total else 0.0


# ---------------------------------------------------------------------------
# Partial/final-sum correlation
# ---------------------------------------------------------------------------

def _pearson(a, b):
    a = a.ravel()
    b = b.ravel()
    am = a - a.mean()
    bm = b - b.mean()
    va = float(am @ am)
    vb = float(bm @ bm)
    if va == 0.0 or vb == 0.0:
        return None
    return float((am @ bm) / np.sqrt(va * vb))


def partial_final_correlation(records, etas=(0.125, 0.25, 0.5, 1.0)):
    """Pearson correlation between base-path partial sums and final sums.

    ``records`` come from one ``forward_infer(collect=True, capture=True)``
    pass, whose captured inputs and kernels this reads. The conv
    layers are re-grouped for each eta (G = 1/eta) from their dense
    kernels, so any trained model can be swept. Layers whose
    channel counts do not divide, and degenerate zero-variance layers, are
    skipped with a warning, and so is an eta that admits no layer (it is
    left out of the result); that no requested eta admits any layer is an
    error, and so are an empty ``etas`` and an eta outside (0, 1]. Each
    layer's dense convolution runs once, in ``nn.conv2d_forward`` as in the
    gated layers; only the grouped partial sum on its columns is computed
    per eta.
    Returns {eta: {"layers": {name: r}, "mean": r}}.
    """
    if not etas:
        raise ConfigurationError("etas: must list at least one eta")
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ConfigurationError(f"etas: eta {eta} is outside (0, 1]")
    groups = {eta: int(round(1.0 / eta)) for eta in etas}
    for eta, G in groups.items():
        if abs(1.0 / G - eta) > 1e-9:
            raise ConfigurationError(f"eta {eta} is not 1/G for integer G")
    per_eta = {eta: {} for eta in etas}
    for rec in records:
        if rec.x_in is None or rec.spec.groups > 1:   # no dense kernel to regroup
            continue
        final, conv = conv2d_forward(rec.x_in, rec.w, rec.spec)
        for eta, G in groups.items():
            if rec.spec.in_channels % G or rec.spec.out_channels % G:
                warnings.warn(f"{rec.name}: channels not divisible by G={G}; skipped")
                continue
            # both over their GEMM outputs' (c, h, w, n) memory
            r = _pearson(_chwn(grouped_partial_sums(conv, G)), _chwn(final))
            if r is None:
                warnings.warn(f"{rec.name}: zero-variance sums at eta={eta}; skipped")
                continue
            per_eta[eta][rec.name] = r
    empty = [eta for eta, per_layer in per_eta.items() if not per_layer]
    if empty and len(empty) == len(per_eta):
        raise ConfigurationError(f"no layer admits regrouping at any eta of {empty}")
    for eta in empty:
        warnings.warn(f"no layer admits regrouping at eta={eta}; skipped")
        del per_eta[eta]
    return {eta: {"layers": per_layer, "mean": float(np.mean(list(per_layer.values())))}
            for eta, per_layer in per_eta.items()}


# ---------------------------------------------------------------------------
# Intensity maps
# ---------------------------------------------------------------------------

def intensity_map(rec: LayerRecord, sample=0):
    """Per-position mean over output channels of one sample's map that ran."""
    if rec.dm is None:
        raise ConfigurationError(f"{rec.name} carries no decision map")
    return rec.dm.d[sample].mean(axis=0)


def _upsample_nearest(m, hw):
    h, w = hw
    yi = (np.arange(h) * m.shape[0] // h).clip(0, m.shape[0] - 1)
    xi = (np.arange(w) * m.shape[1] // w).clip(0, m.shape[1] - 1)
    return m[np.ix_(yi, xi)]


def aggregate_intensity(records, input_hw, sample=0):
    """Average of per-layer intensity maps, nearest-neighbor upsampled to
    the input resolution."""
    maps = [intensity_map(r, sample) for r in records if r.gated]
    if not maps:
        raise ConfigurationError("no gated layers to aggregate")
    return np.mean([_upsample_nearest(m, input_hw) for m in maps], axis=0)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def write_pgm(path, intensity):
    """8-bit binary PGM (P5); pixel = round(255 * intensity)."""
    arr = np.asarray(intensity, dtype=np.float64)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ConfigurationError("intensity values must lie in [0,1]")
    pix = np.round(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        f.write(pix.tobytes())


def write_cost_csv(path, report: CostReport):
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(report.to_csv_rows())


def write_summary_json(path, report: CostReport, extra=None):
    payload = report.to_json_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_correlation_csv(path, corr):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["eta", "layer", "pearson_r"])
        for eta, entry in sorted(corr.items()):
            for name, r in sorted(entry["layers"].items()):
                w.writerow([eta, name, repr(r)])
            w.writerow([eta, "__mean__", repr(entry["mean"])])
