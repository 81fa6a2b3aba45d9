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
from dataclasses import dataclass, replace

import numpy as np

from .gating import DecisionMap, shared_im2col_sums, split_dense_weight
from .nn import ConfigurationError, ConvSpec, _as_batch


@dataclass
class LayerRecord:
    """What one forward pass reports about one compute layer."""

    name: str
    kind: str              # conv | cg_conv | linear
    gated: bool
    c_in: int
    c_out: int
    kernel_size: int
    groups: int            # gating groups G (1 when ungated)
    gate_kind: str
    tau_c: float
    h_out: int
    w_out: int
    n_samples: int
    stride: int = 1
    padding: int = 0
    dm: DecisionMap | None = None
    x_in: np.ndarray | None = None
    w_dense: np.ndarray | None = None


def merge_layer_records(*record_lists):
    """Concatenate the record lists of consecutive batches into one list."""
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
        if m.x_in is not None:
            m.x_in = np.concatenate([r.x_in for r in recs])
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
                  "weight_values_accessed", "weight_values_total"]
        rows = [header]
        for l in self.lines:
            rows.append([l.name, l.base_flops, l.conditional_flops_executed,
                         l.conditional_flops_total, l.dense_flops,
                         l.gate_comparisons, l.weight_values_accessed,
                         l.weight_values_total])
        return rows

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
            "layers": {l.name: {
                "base_flops": l.base_flops,
                "conditional_flops_executed": l.conditional_flops_executed,
                "conditional_flops_total": l.conditional_flops_total,
                "gate_comparisons": l.gate_comparisons,
                "weight_values_accessed": l.weight_values_accessed,
                "weight_values_total": l.weight_values_total,
            } for l in self.lines},
        }


def cost_line(rec: LayerRecord) -> CostLine:
    """MACs, gate comparisons and weight accesses of one layer record.

    An ungated layer runs all its MACs as base work. A gated layer runs its
    base path (c_in/G input channels) everywhere and the other channels
    only where the effective decision is 1; it compares once per output
    activation (twice for a band), plus once per channel with the
    channel-wise gate, and reads W_r only for the channels that gate keeps.
    """
    k2 = rec.kernel_size ** 2
    n, pos = rec.n_samples, rec.h_out * rec.w_out
    weights = n * rec.c_out * rec.c_in * k2
    if not rec.gated:
        return CostLine(rec.name, weights * pos, 0, 0, 0, weights, weights)
    base_k = (rec.c_in // rec.groups) * k2
    cond_k = rec.c_in * k2 - base_k
    comparisons = n * pos * rec.c_out * (2 if rec.gate_kind == "two_sided" else 1)
    if rec.tau_c > 0.0:
        comparisons += n * rec.c_out
    return CostLine(
        rec.name,
        base_flops=n * rec.c_out * pos * base_k,
        conditional_flops_executed=rec.dm.taken() * cond_k,
        conditional_flops_total=n * rec.c_out * pos * cond_k,
        gate_comparisons=comparisons,
        weight_values_accessed=(n * rec.c_out * base_k
                                + int(round(rec.dm.channel_mask.sum())) * cond_k),
        weight_values_total=weights)


def count_flops(records) -> CostReport:
    """Aggregate a CostReport from layer records, one ``cost_line`` each."""
    if not records:
        raise ConfigurationError("no layer records; run a collecting forward pass first")
    return CostReport([cost_line(rec) for rec in records], records[0].n_samples)


def network_pruning_ratio(records):
    """Fraction of gated output activations whose conditional path was skipped."""
    taken = 0
    total = 0
    for rec in records:
        if rec.gated:
            taken += rec.dm.taken()
            total += rec.dm.d.size
    return float(1.0 - taken / total) if total else 0.0


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


def partial_final_correlation(model, images, etas=(0.125, 0.25, 0.5, 1.0)):
    """Pearson correlation between base-path partial sums and final sums.

    The model's conv layers are re-grouped for each eta (G = 1/eta) from
    their assembled dense kernels, so any trained model can be swept.
    Layers whose channel counts do not divide, and degenerate zero-variance
    layers, are skipped with a warning. The sums come from
    ``gating.shared_im2col_sums``, the routine the gated layers run.
    Returns {eta: {"layers": {name: r}, "mean": r}}.
    """
    _, records = model.forward_infer(images, collect=True, capture=True,
                                     require_frozen=False)
    results = {}
    for eta in etas:
        G = int(round(1.0 / eta))
        if abs(1.0 / G - eta) > 1e-9:
            raise ConfigurationError(f"eta {eta} is not 1/G for integer G")
        per_layer = {}
        for rec in records:
            if rec.kind not in ("conv", "cg_conv") or rec.w_dense is None:
                continue
            if rec.c_in % G or rec.c_out % G:
                warnings.warn(f"{rec.name}: channels not divisible by G={G}; skipped")
                continue
            spec = ConvSpec(rec.c_in, rec.c_out, rec.kernel_size,
                            stride=rec.stride, padding=rec.padding)
            w_p, w_r = split_dense_weight(rec.w_dense, G)
            _, _, partial, final = shared_im2col_sums(_as_batch(rec.x_in)[0], w_p, w_r,
                                                      spec, G)
            r = _pearson(partial, final)
            if r is None:
                warnings.warn(f"{rec.name}: zero-variance sums at eta={eta}; skipped")
                continue
            per_layer[rec.name] = r
        if not per_layer:
            raise ConfigurationError(f"no layer admits regrouping at eta={eta}")
        results[eta] = {"layers": per_layer,
                        "mean": float(np.mean(list(per_layer.values())))}
    return results


# ---------------------------------------------------------------------------
# Intensity maps
# ---------------------------------------------------------------------------

def intensity_map(rec: LayerRecord, sample=0):
    """Per-position mean of effective decisions over output channels."""
    if rec.dm is None:
        raise ConfigurationError(f"{rec.name} carries no decision map")
    eff = rec.dm.effective()
    if eff.ndim == 4:
        eff = eff[sample]
    return eff.mean(axis=0)


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
