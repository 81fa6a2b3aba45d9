"""The benchmark's workloads: set-up, one timed operation, output checks.

Each workload drives cgnet only through its public entry points
(``build_model``, the ``Network`` passes and gate setters,
``checkpoint.save_model`` and ``cgnet.cli.main``). Inputs and model
initialisation are derived from the workload seed.

* ``train``: SGD steps on vgg8_cg (forward_train, cross-entropy, backward,
  target-threshold sparsity loss, sgd_step). The training and nn backward
  layers do the work; gated inference and analysis stay idle.
* ``infer_pruned``: gated ``forward_infer`` on vgg8_cg with thresholds set
  for about 90% pruning, each batch followed by the same batch on the
  ``to_dense()`` twin, which gives the measured-speedup denominator.
* ``eval_open``: one in-process ``cg eval`` on resnet_cg (residual blocks,
  stride 2, 1x1 shortcut) with thresholds set for 20-30% pruning, so most
  gates are open and the collecting evaluation's analysis layer does a
  large share of the work.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from cgnet import analysis, checkpoint, cli, data, nn, training
from cgnet.network import build_model

MODELS = Path(__file__).resolve().parent / "models"

LOSS = training.LossConfig(sparsity="target_threshold", lam=5e-4, target=2.0)
LR, MOMENTUM, WEIGHT_DECAY = 0.05, 0.9, 1e-4

# Logit tolerance of the dense-then-masked reference: the gated path sums
# the base and conditional partial sums separately, the reference in one
# dense convolution, so float64 rounding differs; a real defect moves
# logits by many orders of magnitude more.
LOGIT_ATOL = LOGIT_RTOL = 1e-8


def load_model_config(name):
    return json.loads((MODELS / f"{name}.json").read_text())


@dataclass
class Size:
    """Input and model sizes of a run (the self-test uses toy values)."""

    train_model: dict = field(default_factory=lambda: load_model_config("vgg8_cg"))
    eval_model: dict = field(default_factory=lambda: load_model_config("resnet_cg"))
    batch: int = 64
    pool_batches: int = 32        # distinct batches cycled by train/infer ops
    check_batches: int = 4        # infer batches compared with the reference
    warmup_passes: int = 40       # train-mode passes warming BN/gate statistics
    calib_samples: int = 128      # samples the threshold search measures
    eval_samples: int = 3000      # validation samples of one cg eval call
    profile_reps: int = 3         # passes per phase in the traced layer profile
    setup_repeats: int = 3        # set-ups per untraced run, at least ...
    setup_min_s: float = 2.0      # ... and until this much set-up time


class SetupError(RuntimeError):
    """Set-up did not reach the state the workload is defined by."""


def derived_seed(seed, stream):
    return int(np.random.default_rng([seed, stream]).integers(2**31 - 1))


def synthetic_config(model_cfg, num_samples, seed):
    c, h, _ = model_cfg["input_shape"]
    return {"kind": "synthetic", "num_samples": num_samples,
            "num_classes": model_cfg["num_classes"], "image_size": h,
            "channels": c, "noise": 0.08, "max_shift": 2,
            "seed": derived_seed(seed, 1)}


def sgd_step(model, xb, yb, phase):
    """One training step; returns the loss including the sparsity term."""
    with phase("network.forward_train"):
        logits = model.forward_train(xb)
    with phase("nn.cross_entropy"):
        loss, dlogits = nn.cross_entropy(logits, yb)
    with phase("network.zero_grads"):
        model.zero_grads()
    with phase("network.backward"):
        model.backward(dlogits)
    loss += training.apply_sparsity_loss(model, LOSS, 1.0)
    with phase("network.sgd_step"):
        model.sgd_step(LR, MOMENTUM, WEIGHT_DECAY)
    return loss


def warm_statistics(model, images, batch, passes):
    """Warm BN and gate running statistics with train-mode forward passes."""
    nb = len(images) // batch
    for k in range(passes):
        j = k % nb
        model.forward_train(images[j * batch:(j + 1) * batch])


def set_pruning(model, images, target, band):
    """Bisect one threshold for every gate (ten steps over [-4, 4]) until
    network pruning on ``images`` is near ``target``; returns the achieved
    ratio, which must lie in ``band``. The model must have frozen gates."""
    lo, hi = -4.0, 4.0
    best = None
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        model.set_delta(mid)
        _, records = model.forward_infer(images, collect=True)
        ratio = analysis.network_pruning_ratio(records)
        if best is None or abs(ratio - target) < abs(best[1] - target):
            best = (mid, ratio)
        if ratio < target:
            lo = mid
        else:
            hi = mid
    delta, ratio = best
    model.set_delta(delta)
    if not band[0] <= ratio <= band[1]:
        raise SetupError(f"pruning ratio {ratio:.4f} at delta {delta:.4f} is outside "
                         f"the band [{band[0]}, {band[1]}]")
    return ratio


def _no_phase(name):
    return contextlib.nullcontext()


class Workload:
    name = ""
    band = None
    samples_per_op = 0

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.phase = _no_phase
        self.achieved_pruning = None
        self.model = None

    def batch(self, i):
        b = self.size.batch
        j = i % self.size.pool_batches
        return self.images[j * b:(j + 1) * b], self.labels[j * b:(j + 1) * b]

    def setup(self):
        raise NotImplementedError

    def prepare_checks(self):
        """Untimed references the checks compare against."""

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def companion(self, i):
        """A reference pass timed after each untraced op (the dense twin), or None."""
        return None

    def final_checks(self):
        """Extra checked operations after the loop; a list of pass/fail."""
        return []

    def loop_model(self):
        """The model the timed op runs, for per-layer spans in the traced loop."""
        return self.model


class Train(Workload):
    name = "train"

    def setup(self):
        cfg = self.size.train_model
        n = self.size.batch * self.size.pool_batches
        ds = data.load_dataset(synthetic_config(cfg, n, self.seed))
        self.images, self.labels = ds.images, ds.labels
        self.model = build_model(copy.deepcopy(cfg), np.random.default_rng([self.seed, 2]))
        self.samples_per_op = self.size.batch

    def op(self, i):
        xb, yb = self.batch(i)
        return sgd_step(self.model, xb, yb, self.phase)

    def check(self, i, loss):
        if not math.isfinite(loss):
            return False
        return all(np.all(np.isfinite(arr)) for name, arr in self.model.state_tensors()
                   if name.rsplit(".", 1)[-1] in ("delta", "delta_high", "delta_low"))


class InferPruned(Workload):
    name = "infer_pruned"
    band = (0.85, 0.95)
    target = 0.9

    def setup(self):
        size = self.size
        cfg = size.train_model
        n = size.batch * size.pool_batches
        ds = data.load_dataset(synthetic_config(cfg, n, self.seed))
        self.images, self.labels = ds.images, ds.labels
        model = build_model(copy.deepcopy(cfg), np.random.default_rng([self.seed, 2]))
        warm_statistics(model, self.images, size.batch, size.warmup_passes)
        model.freeze_gates()
        self.achieved_pruning = set_pruning(
            model, self.images[-size.calib_samples:], self.target, self.band)
        self.dense = model.to_dense()
        self.ckpt = self.workdir / "infer_pruned.cgn"
        checkpoint.save_model(self.ckpt, model)
        self.model = model
        self.samples_per_op = size.batch

    def prepare_checks(self):
        self.ref = {j: reference.reference_logits(self.ckpt, self.batch(j)[0])
                    for j in range(self.size.check_batches)}

    def op(self, i):
        logits, _ = self.model.forward_infer(self.batch(i)[0])
        return logits

    def companion(self, i):
        return self.dense.forward_infer(self.batch(i)[0])

    def check(self, i, logits):
        if logits.shape != (self.size.batch, self.model.num_classes):
            return False
        ref = self.ref.get(i % self.size.pool_batches)
        if ref is None:
            return bool(np.all(np.isfinite(logits)))
        return bool(np.allclose(logits, ref, rtol=LOGIT_RTOL, atol=LOGIT_ATOL))

    def final_checks(self):
        """With every gate forced open, gated logits equal the dense twin's."""
        opened = copy.deepcopy(self.model)
        opened.set_force_open()
        results = []
        for j in range(self.size.check_batches):
            xb = self.batch(j)[0]
            got, _ = opened.forward_infer(xb)
            want, _ = self.dense.forward_infer(xb)
            results.append(bool(np.allclose(got, want, rtol=LOGIT_RTOL, atol=LOGIT_ATOL)))
        return results


class EvalOpen(Workload):
    name = "eval_open"
    band = (0.2, 0.3)
    target = 0.25

    def setup(self):
        size = self.size
        cfg = size.eval_model
        data_cfg = synthetic_config(cfg, size.eval_samples, self.seed)
        ds = data.load_dataset(data_cfg)
        self.images, self.labels = ds.images, ds.labels
        model = build_model(copy.deepcopy(cfg), np.random.default_rng([self.seed, 2]))
        warm_statistics(model, self.images, size.batch, size.warmup_passes)
        model.freeze_gates()
        self.achieved_pruning = set_pruning(
            model, self.images[:size.calib_samples], self.target, self.band)
        self.ckpt = self.workdir / "eval_open.cgn"
        checkpoint.save_model(self.ckpt, model)
        # val_fraction 1.0: every generated sample is validated, so the
        # accuracy check does not depend on how cg eval draws its split.
        self.config = self.workdir / "eval_open.json"
        self.config.write_text(json.dumps({
            "schema_version": 1, "seed": self.seed, "val_fraction": 1.0,
            "checkpoint": str(self.ckpt), "data": data_cfg}))
        self.out = self.workdir / "eval_out"
        self.model = model
        self.samples_per_op = size.eval_samples

    def prepare_checks(self):
        correct = 0
        for i in range(0, len(self.labels), 256):
            logits, _ = self.model.forward_infer(self.images[i:i + 256])
            correct += int((np.argmax(logits, axis=-1) == self.labels[i:i + 256]).sum())
        self.ref_correct = correct

    def op(self, i):
        summary = self.out / "eval_summary.json"
        summary.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["eval", "--config", str(self.config), "--seed", str(self.seed),
                             "--out", str(self.out)])

    def check(self, i, rc):
        summary = self.out / "eval_summary.json"
        if rc != 0 or not summary.exists():
            return False
        s = json.loads(summary.read_text())
        n = len(self.labels)
        self.achieved_pruning = s["pruning_ratio"]    # over the whole split
        return (s["n_eval_samples"] == n
                and self.band[0] <= s["pruning_ratio"] <= self.band[1]
                and round(s["accuracy"] * n) == self.ref_correct)

    def loop_model(self):
        return None


WORKLOADS = {w.name: w for w in (Train, InferPruned, EvalOpen)}
