"""Benchmark runner: set-up, closed-loop timing, checks, traced profile.

One process, one closed-loop caller: each operation starts when the
previous one (and its untimed output check) has finished.

Untraced run (``trace=False``) reports the end-to-end metrics:

* ``samples_per_s_norm``: samples per operation (train step / gated
  inference batch / cg eval call) over the median operation time, so it
  also carries the median latency; machine-speed adjusted;
* ``peak_rss_mb``: process peak resident set size;
* ``setup_s``: median set-up time over at least ``Size.setup_repeats``
  set-ups, repeated until ``Size.setup_min_s`` seconds have been spent.

Machine-speed adjustment: on a shared host the speed of the whole machine
drifts by 10-20% within minutes, which no statistic over one run removes.
After every operation a fixed numpy probe (a conv-shaped im2col, matmul and
elementwise pass that does not touch cgnet) runs for a tenth of that
operation's time. Each operation's time is divided by the local slowdown:
the median probe time over the nine operations around it, relative to
``PROBE_REF_MS``. The ``*_norm`` metrics are computed from these adjusted
times, i.e. at the speed the reference host shows when it is quiet. A
change to cgnet moves the operations but not the probe; a change in machine
speed moves both. The raw values are printed in the manifest.
"""

from __future__ import annotations

import copy
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from cgnet import analysis, checkpoint, perf, training
from tracing import Tracer
from workloads import WORKLOADS, _no_phase, sgd_step

FUNCTION_METRICS = (
    "nn.conv2d_forward", "nn.conv2d_backward", "nn.bn_forward",
    "nn.batchnorm_backward", "nn.sgd_step",
    "training.cg_block_forward_train", "training.cg_block_backward",
    "training.apply_sparsity_loss",
    "gating.cg_block_forward_inference", "gating.merged_gate",
    "analysis.merge_layer_records", "analysis.count_flops",
    "analysis.network_pruning_ratio", "training.evaluate",
    "checkpoint.load_model", "data.load_dataset",
)
SELF_TIME_METRICS = ("training.cg_block_forward_train", "training.cg_block_backward",
                     "gating.cg_block_forward_inference")
PROFILE_PHASES = ("forward_train", "backward", "forward_infer", "dense_infer")
SPEEDUP_PAIRS = 10

# Median probe time on the reference host: a 2-vCPU x86-64 VM, numpy 2.4
# with OpenBLAS 0.3.31 (Haswell kernels), one BLAS thread.
PROBE_REF_MS = 2.5
PROBE_SHARE = 0.1
PROBE_HALF_WINDOW = 4


class SpeedProbe:
    """Fixed numpy work whose time tracks the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(16, 16, 18, 18))
        self.w = rng.normal(size=(32, 16 * 9))

    def _once(self):
        n, c, _, _ = self.x.shape
        sn, sc, sh, sw = self.x.strides
        win = as_strided(self.x, (n, c, 3, 3, 16, 16), (sn, sc, sh, sw, sh, sw))
        y = np.matmul(self.w, np.ascontiguousarray(win).reshape(n, c * 9, 256))
        y = (y - 0.1) * 1.3 + 0.2
        return float(np.where(y > 0.0, y, 0.0).sum())

    def median_for(self, seconds):
        """Probe until probe time reaches ``seconds`` (at least once);
        returns the median probe time."""
        times = []
        while sum(times) < seconds or not times:
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def local_slowdown(probe_s):
    """Per operation: median probe time of the operations around it,
    relative to the reference host."""
    p = np.asarray(probe_s)
    w = PROBE_HALF_WINDOW
    return np.array([1e3 * np.median(p[max(0, i - w):i + w + 1])
                     for i in range(len(p))]) / PROBE_REF_MS


class LoopResult:
    def __init__(self):
        self.op_s = []
        self.companion_s = []
        self.attempted = 0
        self.failed = 0
        self.probe_s = []


def run_loop(wl, seconds, tracer=None):
    """Closed loop for ``seconds``: op, check, companion pass, speed probe."""
    res = LoopResult()
    probe = SpeedProbe()
    _one_op(wl, 0, res, None)          # warm caches and lazy set-up, untimed
    res.op_s.clear()
    i = 1
    deadline = time.perf_counter() + seconds
    while True:
        _one_op(wl, i, res, tracer)
        if tracer is None:
            t0 = time.perf_counter()
            if wl.companion(i) is not None:
                res.companion_s.append(time.perf_counter() - t0)
        res.probe_s.append(probe.median_for(PROBE_SHARE * res.op_s[-1]))
        i += 1
        if time.perf_counter() >= deadline:
            return res


def _one_op(wl, i, res, tracer):
    res.attempted += 1
    idx = tracer.begin("op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
        ok = True
    except Exception:                  # a raising op is a failed op
        traceback.print_exc(file=sys.stderr)
        out, ok = None, False
    dt = time.perf_counter() - t0
    if idx is not None:
        tracer.end(idx)
    res.op_s.append(dt)
    if not (ok and wl.check(i, out)):
        res.failed += 1


def _setup(wl, repeats, min_seconds=0.0):
    """Set up ``repeats`` times and until ``min_seconds`` have been spent;
    returns the set-up times. Checks are prepared on the last set-up."""
    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    wl.prepare_checks()
    return times


def _op_stats(wl, ms):
    """Throughput at the median operation time, and latency percentiles."""
    p50, p90 = np.percentile(ms, [50, 90])
    return {"samples_per_s": 1e3 * wl.samples_per_op / p50,
            "op_ms_p50": float(p50), "op_ms_p90": float(p90)}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _count_final(res, checks):
    res.attempted += len(checks)
    res.failed += sum(1 for ok in checks if not ok)


def run(name, seed, seconds, trace, size, workdir):
    """Run one workload; returns (result dict, manifest extras, trace report)."""
    wl = WORKLOADS[name](size, seed, workdir)
    if not trace:
        setup_s = _setup(wl, size.setup_repeats, size.setup_min_s)
        res = run_loop(wl, seconds)
        _count_final(res, wl.final_checks())
        raw_ms = np.array(res.op_s) * 1e3
        slow = local_slowdown(res.probe_s)
        norm = _op_stats(wl, raw_ms / slow)
        metrics = {
            "samples_per_s_norm": _metric(norm["samples_per_s"], "samples/s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
        }
        extras = {"norm": norm, "raw": _op_stats(wl, raw_ms),
                  "slowdown_median": float(np.median(slow)), "setup_repeats": len(setup_s)}
        report = None
    else:
        res, metrics, report = _run_traced(wl, seconds, size)
        extras = {}
    result = {"correct": res.failed == 0, "attempted": res.attempted,
              "failed": res.failed, "metrics": metrics}
    extras.update(ops_timed=len(res.op_s), achieved_pruning=wl.achieved_pruning,
                  pruning_band=wl.band)
    return result, extras, report


def _run_traced(wl, seconds, size):
    tracer = Tracer()
    tracer.install()
    try:
        _setup(wl, 1)
    finally:
        tracer.uninstall()
    plain = run_loop(wl, seconds)
    gated_s, dense_s = _speedup_timings(wl, plain)

    tracer.section = "loop"
    tracer.install()
    try:
        if wl.loop_model() is not None:
            tracer.wrap_layers(wl.loop_model())
        wl.phase = tracer.span
        res = run_loop(wl, seconds, tracer)
        wl.phase = _no_phase
        tracer.unwrap_layers()
        tracer.section = "profile"
        gating = _profile(wl, tracer, size)
    finally:
        tracer.uninstall()
    _count_final(res, wl.final_checks())
    res.attempted += plain.attempted
    res.failed += plain.failed

    agg_all = tracer.aggregate()
    agg_prof = tracer.aggregate({"profile"})
    metrics = {}
    for fn in FUNCTION_METRICS:
        a = agg_all.get(fn)
        if a is None:
            raise RuntimeError(f"traced run recorded no call of {fn}")
        metrics[f"{fn}.ms"] = _metric(1e3 * a["total_s"] / a["calls"], "ms")
        if fn in SELF_TIME_METRICS:
            metrics[f"{fn}.self_ms"] = _metric(1e3 * a["self_s"] / a["calls"], "ms")
    conv = agg_all["nn.conv2d_forward"]
    metrics["nn.conv2d_forward.gmac_per_s"] = _metric(conv["macs"] / conv["total_s"] / 1e9,
                                                      "GMAC/s")
    metrics["gating.pruning_ratio"] = _metric(gating["pruning_ratio"], "ratio")
    metrics["gating.flop_reduction"] = _metric(gating["flop_reduction"], "x")
    metrics["gating.modeled_speedup"] = _metric(gating["modeled_speedup"], "x")
    metrics["gating.measured_speedup"] = _metric(
        statistics.median(dense_s) / statistics.median(gated_s), "x")

    layers = {}
    for lname, a in agg_prof.items():
        parts = lname.split(".")
        if parts[0] == "network" and len(parts) == 3 and parts[2] in PROFILE_PHASES:
            layers.setdefault(parts[1], {})[f"{parts[2]}_ms"] = 1e3 * a["total_s"] / a["calls"]
    for phase in PROFILE_PHASES:
        metrics[f"network.{phase}_ms"] = _metric(
            sum(v.get(f"{phase}_ms", 0.0) for v in layers.values()), "ms")

    # machine-speed adjusted like the end-to-end timings, so the two loops
    # compare at the same speed
    untraced = np.median(np.array(plain.op_s) / local_slowdown(plain.probe_s))
    slow = local_slowdown(res.probe_s)
    traced = np.median(np.array(res.op_s) / slow)
    metrics["trace.untraced_op_ms"] = _metric(1e3 * untraced, "ms")
    metrics["trace.traced_op_ms"] = _metric(1e3 * traced, "ms")
    metrics["trace.overhead_ms"] = _metric(1e3 * (traced - untraced), "ms")
    metrics["trace.top_level_ms"] = _metric(
        1e3 * np.median(np.array(tracer.top_level_seconds()) / slow), "ms")

    for lname, per in gating["layers"].items():
        layers.setdefault(lname, {}).update(per)
        t = layers[lname]
        if "dense_infer_ms" in t and "forward_infer_ms" in t and per:
            t["measured_speedup"] = t["dense_infer_ms"] / t["forward_infer_ms"]
    report = {"functions": agg_all, "layers": layers,
              "loops": {"untraced_op_s": plain.op_s, "untraced_probe_s": plain.probe_s,
                        "traced_op_s": res.op_s, "traced_probe_s": res.probe_s},
              "spans": tracer.dump()}
    return res, metrics, report


def _speedup_timings(wl, plain):
    """Untraced gated and dense-twin batch times of the workload's model."""
    if plain.companion_s:
        return plain.op_s, plain.companion_s
    model = copy.deepcopy(wl.model)
    model.freeze_gates()
    dense = model.to_dense()
    gated_s, dense_s = [], []
    for i in range(SPEEDUP_PAIRS):
        xb = wl.batch(i)[0]
        t0 = time.perf_counter()
        model.forward_infer(xb)
        t1 = time.perf_counter()
        dense.forward_infer(xb)
        gated_s.append(t1 - t0)
        dense_s.append(time.perf_counter() - t1)
    return gated_s, dense_s


def _profile(wl, tracer, size):
    """Fixed per-layer profile of the workload's model, every phase."""
    trained = copy.deepcopy(wl.model)
    frozen = copy.deepcopy(wl.model)
    frozen.freeze_gates()
    dense = frozen.to_dense()
    tracer.wrap_layers(trained)
    tracer.wrap_layers(frozen)
    tracer.wrap_layers(dense, infer_label="dense_infer")
    for r in range(size.profile_reps):
        xb, yb = wl.batch(r)
        sgd_step(trained, xb, yb, tracer.span)
        frozen.forward_infer(xb)
        dense.forward_infer(xb)
    tracer.unwrap_layers()

    n = size.batch * size.profile_reps
    _, _, records = training.evaluate(frozen, wl.images[:n], wl.labels[:n],
                                      batch_size=size.batch, collect=True)
    flops = analysis.count_flops(records)
    modeled = perf.model_network_speedup(records, perf.ArrayConfig())
    ckpt = wl.workdir / "profile.cgn"
    checkpoint.save_model(ckpt, frozen)
    checkpoint.load_model(ckpt)

    per_layer = {}
    for rec, line, cyc in zip(records, flops.lines, modeled.layers):
        if rec.gated:
            per_layer[rec.name] = {
                "pruning_ratio": float(1.0 - rec.dm.effective().mean()),
                "flop_reduction": line.dense_flops / line.executed_flops,
                "modeled_speedup": cyc.speedup}
    return {"pruning_ratio": analysis.network_pruning_ratio(records),
            "flop_reduction": flops.flop_reduction,
            "modeled_speedup": modeled.speedup,
            "layers": per_layer}


def manifest(name, seed, extras, root):
    """Machine, library and run facts printed with every result."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    head = Path(root) / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = Path(root) / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.exists() else ref
    return {
        "workload": name, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": sha, **extras,
    }
