"""Training-time graph of the gating block and the associated losses.

During training both paths are computed at every position (skipping is an
inference-time saving), from one padded im2col of the input shared by the
base partial sum and the full sum. The forward combines them through the
hard binary decision d:

    y = f( (J - d) o BN1(p)  +  d o BN2(p + r) )

with p the base partial sum, r the conditional sum, and d obtained by
thresholding the affine-free normalization of p. The two batch norms keep
separate statistics but share gamma/beta. The gate input is BN1's
normalization of p before its affine step, so p is normalized once and
BN1's running stats are the gate's: there is one copy of them.

The gate is not differentiable, so gradients toward the thresholds and the
gate input use a smooth sigmoid surrogate s~ = sigma(eps*(x^_g - delta))
(and the product of two such factors for the two-sided gate). Gradients for
the two data paths treat d as a constant. ``soft_gate=True`` swaps s~ into
the combine itself, which makes the whole block differentiable; the test
suite verifies the analytic gradients against central differences in that
mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .gating import (CgBlockParams, CgLayerConfig, _threshold_decisions,
                     assemble_dense_weight, gate_bounds, shared_im2col_sums,
                     split_dense_weight)
from .nn import (ConfigurationError, StateError, _as_batch, _per_channel, accuracy,
                 activation, activation_grad, batchnorm_backward, bn_forward,
                 col2im, cross_entropy, sigmoid, softmax)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries epoch/batch diagnostics."""


@dataclass
class LossConfig:
    sparsity: str = "target_threshold"   # target_threshold | computation_cost | none
    lam: float = 1e-4
    target: float = 2.0
    kd_enabled: bool = False
    kd_temperature: float = 1.0
    kd_mix: float = 0.5
    teacher_checkpoint: str | None = None

    def __post_init__(self):
        if self.sparsity not in ("target_threshold", "computation_cost", "none"):
            raise ConfigurationError(f"unknown sparsity mode {self.sparsity!r}")
        if self.lam < 0:
            raise ConfigurationError("loss lambda must be >= 0")
        if not 0.0 <= self.kd_mix <= 1.0:
            raise ConfigurationError("kd mix must be in [0,1]")
        if self.kd_temperature <= 0:
            raise ConfigurationError("kd temperature must be > 0")


@dataclass
class Schedule:
    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay_epochs: tuple = ()
    lr_decay_factor: float = 0.1
    lambda_warmup_frac: float = 0.1


# ---------------------------------------------------------------------------
# Block forward/backward
# ---------------------------------------------------------------------------

@dataclass
class CgTrainContext:
    cfg: CgLayerConfig
    params: CgBlockParams
    x_shape: tuple
    cols: np.ndarray          # (n, c_in*k*k, ho*wo), shared by both paths
    w: np.ndarray             # dense kernel (c_out, c_in*k*k) of the full sum
    bn2_ctx: object
    bn1_ctx: object           # the one normalization of p (BN1 and gate)
    xhat_p: np.ndarray
    xhat_full: np.ndarray
    xhat_g: np.ndarray
    d: np.ndarray
    mask: np.ndarray          # d (hard) or s~ (soft_gate)
    pre: np.ndarray
    sig_parts: tuple          # single-sided: (s~,); two-sided: (A, B)
    soft: bool


@dataclass
class CgBlockGrads:
    dw_p: np.ndarray
    dw_r: np.ndarray
    dgamma: np.ndarray
    dbeta: np.ndarray
    ddelta: np.ndarray | None
    ddelta_high: np.ndarray | None
    ddelta_low: np.ndarray | None
    dx: np.ndarray


def _surrogate(xhat_g, params: CgBlockParams, cfg: CgLayerConfig):
    """Smooth gate value and its factor tensors."""
    eps = cfg.epsilon
    g = params.gate
    if cfg.gate == "single_sided":
        s = sigmoid(eps * (xhat_g - _per_channel(g.delta)))
        return s, (s,)
    a = sigmoid(eps * (_per_channel(g.delta_high) - xhat_g))
    b = sigmoid(eps * (xhat_g - _per_channel(g.delta_low)))
    return a * b, (a, b)


def cg_block_forward_train(x, params: CgBlockParams, cfg: CgLayerConfig,
                           soft_gate=False):
    """Training forward pass; returns (y, CgTrainContext).

    One padded im2col of the input feeds the base partial sum p (one
    batched matmul over the G groups) and the full sum (one matmul with the
    dense kernel reassembled from W_p and W_r); the backward reuses it.
    p is normalized once with batch statistics, which also update BN1's
    running stats: that normalization is the gate input x^_g, and BN1's
    output is gamma*x^_g + beta.
    """
    xb, _ = _as_batch(x)
    cols, w, p, full = shared_im2col_sums(xb, params.w_p, params.w_r, cfg.conv, cfg.groups)

    xhat_g, bn1_ctx = bn_forward(p, params.bn1, training=True, affine=False)
    xhat_p = _per_channel(params.gamma) * xhat_g + _per_channel(params.beta)
    xhat_full, bn2_ctx = bn_forward(full, params.bn2, training=True)

    d = _threshold_decisions(xhat_g, *gate_bounds(params.gate, cfg.gate))
    stilde, sig_parts = _surrogate(xhat_g, params, cfg)
    mask = stilde if soft_gate else d

    pre = (1.0 - mask) * xhat_p + mask * xhat_full
    y = activation(pre, cfg.activation)
    ctx = CgTrainContext(cfg, params, xb.shape, cols, w, bn2_ctx, bn1_ctx,
                         xhat_p, xhat_full, xhat_g, d, mask, pre, sig_parts,
                         soft_gate)
    return y, ctx


def cg_block_backward(ctx: CgTrainContext, dy):
    """Gradients of the training block.

    The selection masks are constants; the threshold and gate-input
    gradients come from the sigmoid surrogate, with the per-element
    identity d(x^_g) = -d(delta) before the channel reduction. BN backward
    is linear in its upstream gradient, so BN1 and the gate input, which
    share one normalization of p, take one backward call. The weight
    and input gradients reuse the forward's im2col and run one col2im.
    """
    if ctx is None:
        raise StateError("block backward called without a forward context")
    cfg, params = ctx.cfg, ctx.params
    eps = cfg.epsilon
    dyb, _ = _as_batch(dy)
    dpre = dyb * activation_grad(ctx.pre, cfg.activation)

    dxhat_p = dpre * (1.0 - ctx.mask)
    dxhat_full = dpre * ctx.mask

    ds = dpre * (ctx.xhat_full - ctx.xhat_p)
    if cfg.gate == "single_sided":
        (s,) = ctx.sig_parts
        dsig = eps * s * (1.0 - s)
        dxhat_g = ds * dsig
        ddelta = -dxhat_g.sum(axis=(0, 2, 3))
        ddelta_high = ddelta_low = None
    else:
        a, b = ctx.sig_parts
        dxhat_g = ds * (eps * a * b * (a - b))
        ddelta_high = (ds * (eps * a * (1.0 - a) * b)).sum(axis=(0, 2, 3))
        ddelta_low = (ds * (-eps * a * b * (1.0 - b))).sum(axis=(0, 2, 3))
        ddelta = None

    dfull, dgamma, dbeta = batchnorm_backward(ctx.bn2_ctx, dxhat_full)
    dgamma = (dxhat_p * ctx.xhat_g).sum(axis=(0, 2, 3)) + dgamma
    dbeta = dxhat_p.sum(axis=(0, 2, 3)) + dbeta
    # BN1 and the gate share x^_g, so their input gradients add up front
    dp, _, _ = batchnorm_backward(
        ctx.bn1_ctx, dxhat_p * _per_channel(params.gamma) + dxhat_g)

    # [full; p] = [W; blockdiag(W_p)] @ cols, so with the two upstream
    # gradients stacked as rows of one (2*c_out, n*ho*wo) matrix, the weight
    # gradients are one GEMM against cols and the column gradient one GEMM
    # against the stacked kernel.
    G, spec = cfg.groups, cfg.conv
    k = spec.kernel_size
    n, c_out = dp.shape[:2]
    kk = ctx.cols.shape[1]
    stacked = np.empty((2, c_out, n, dp.shape[2] * dp.shape[3]))
    stacked[0] = dfull.reshape(n, c_out, -1).transpose(1, 0, 2)
    stacked[1] = dp.reshape(n, c_out, -1).transpose(1, 0, 2)
    stacked = stacked.reshape(2 * c_out, -1)
    cols_t = ctx.cols.transpose(0, 2, 1).reshape(-1, kk)
    dw = (stacked @ cols_t).reshape(2, c_out, spec.in_channels, k, k)
    dw_p, dw_r = split_dense_weight(dw[0], G)
    dw_p += split_dense_weight(dw[1], G)[0]

    w_base = assemble_dense_weight(params.w_p, np.zeros_like(params.w_r), G)
    kernel = np.concatenate([ctx.w, w_base.reshape(c_out, kk)])
    dcols = (kernel.T @ stacked).reshape(kk, n, -1)
    dx = col2im(dcols.transpose(1, 0, 2), ctx.x_shape, k, spec.stride, spec.padding)
    return CgBlockGrads(dw_p, dw_r, dgamma, dbeta, ddelta,
                        ddelta_high, ddelta_low, dx)


# ---------------------------------------------------------------------------
# Sparsity losses
# ---------------------------------------------------------------------------

def sparsity_loss_target(deltas, target, lam):
    """Squared pull of every threshold toward the target T:
    loss = lam * sum_l sum_c (T - delta)^2, gradient -2*lam*(T - delta)."""
    loss = 0.0
    grads = []
    for d in deltas:
        diff = target - d
        loss += lam * float((diff * diff).sum())
        grads.append(-2.0 * lam * diff)
    return loss, grads


def flops_loss_layer_factor(cfg: CgLayerConfig, h_out, w_out):
    """Per-layer multiplier of the computation-cost loss term."""
    spec = cfg.conv
    return ((spec.in_channels // cfg.groups) * spec.kernel_size ** 2
            * w_out * h_out * spec.out_channels)


def sparsity_loss_flops(ctxs, lam):
    """Computation-cost loss, exactly as displayed in its source:
    lam * ( sum_l (sum_{c,w,h} (J - s~)) * eta*c_l*k^2*w'*h'*c_{l+1} )^2.

    The (J - s~) factor counts gated-off positions, so the term is zero
    when everything takes the conditional path; kept for comparison
    experiments only, single-sided layers only. Per-sample inner sums are
    averaged over the batch; only the thresholds receive gradients.
    """
    inners = []
    factors = []
    sgrads = []
    for ctx in ctxs:
        if ctx.cfg.gate != "single_sided":
            raise ConfigurationError("computation-cost loss supports single-sided gates only")
        (s,) = ctx.sig_parts
        n = s.shape[0]
        eps = ctx.cfg.epsilon
        inners.append(float((1.0 - s).sum()) / n)
        # d(1-s~)/d(delta) = +eps*s*(1-s), reduced over batch and positions
        sgrads.append((eps * s * (1.0 - s)).sum(axis=(0, 2, 3)) / n)
        h_out, w_out = s.shape[2], s.shape[3]
        factors.append(flops_loss_layer_factor(ctx.cfg, h_out, w_out))
    total = sum(i * f for i, f in zip(inners, factors))
    loss = lam * total * total
    grads = [lam * 2.0 * total * f * g for f, g in zip(factors, sgrads)]
    return loss, grads


def kd_loss(student_logits, teacher_logits, labels, kappa=1.0, lam_kd=0.5):
    """Distillation loss mixing ground truth with the softened teacher:
    L = -((1-lam)*sum y log P_S + lam*sum P_T log P_S), temperature kappa
    on both distributions, averaged over the batch. Returns (loss, dlogits).
    """
    zs = np.asarray(student_logits, dtype=np.float64)
    zt = np.asarray(teacher_logits, dtype=np.float64)
    if zs.shape != zt.shape:
        raise ConfigurationError("student and teacher class counts differ")
    n = zs.shape[0]
    labels = np.asarray(labels)
    z = zs / kappa - (zs / kappa).max(axis=-1, keepdims=True)
    logp_s = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p_s = np.exp(logp_s)
    p_t = softmax(zt, temperature=kappa)
    onehot = np.zeros_like(p_s)
    onehot[np.arange(n), labels] = 1.0
    ce_gt = -(onehot * logp_s).sum(axis=-1)
    ce_kd = -(p_t * logp_s).sum(axis=-1)
    loss = float(((1.0 - lam_kd) * ce_gt + lam_kd * ce_kd).mean())
    dlogits = ((1.0 - lam_kd) * (p_s - onehot) + lam_kd * (p_s - p_t)) / (kappa * n)
    return loss, dlogits


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def lambda_warmup(epoch, schedule: Schedule):
    """Linear ramp of the sparsity weight over the first warmup fraction."""
    warm = max(1, int(np.ceil(schedule.lambda_warmup_frac * schedule.epochs)))
    return min(1.0, (epoch + 1) / warm)


def lr_at(epoch, schedule: Schedule):
    lr = schedule.lr
    for e in schedule.lr_decay_epochs:
        if epoch >= e:
            lr *= schedule.lr_decay_factor
    return lr


def apply_sparsity_loss(model, loss_cfg: LossConfig, lam_scale):
    """Add the configured sparsity gradients into the model's threshold
    grads; returns the scalar loss value."""
    lam = loss_cfg.lam * lam_scale
    if loss_cfg.sparsity == "none" or lam == 0.0:
        return 0.0
    layers = [l for l in model.gated_layers() if not l.freeze_delta]
    if not layers:
        return 0.0
    if loss_cfg.sparsity == "target_threshold":
        loss = 0.0
        for layer in layers:
            gate = layer.params.gate
            if layer.cfg.gate == "single_sided":
                part, (g,) = sparsity_loss_target([gate.delta], loss_cfg.target, lam)
                layer.g_delta += g
            else:
                # band edges pulled inward by T from the initial half-width
                t_hi = layer.cfg.band_init - loss_cfg.target
                part_h, (gh,) = sparsity_loss_target([gate.delta_high], t_hi, lam)
                part_l, (gl,) = sparsity_loss_target([gate.delta_low], -t_hi, lam)
                layer.g_delta_high += gh
                layer.g_delta_low += gl
                part = part_h + part_l
            loss += part
        return loss
    ctxs = [l.ctx for l in layers if l.cfg.gate == "single_sided"]
    loss, grads = sparsity_loss_flops(ctxs, lam)
    for layer, g in zip([l for l in layers if l.cfg.gate == "single_sided"], grads):
        layer.g_delta += g
    return loss


def evaluate(model, images, labels, batch_size=256, collect=False):
    """Inference-mode accuracy plus (optionally) per-layer records; the
    batches' record lists are merged once at the end."""
    n = images.shape[0]
    logits_all = []
    record_lists = []
    for i in range(0, n, batch_size):
        logits, recs = model.forward_infer(images[i:i + batch_size],
                                           collect=collect, require_frozen=False)
        logits_all.append(logits)
        record_lists.append(recs)
    records = analysis.merge_layer_records(*record_lists) if collect else None
    logits = np.concatenate(logits_all, axis=0)
    return accuracy(logits, labels), logits, records


def train_network(model, train_images, train_labels, val_images, val_labels,
                  loss_cfg: LossConfig, schedule: Schedule, rng,
                  teacher=None, log=None):
    """SGD training loop; returns the per-epoch history (list of dicts).

    Thresholds start at 0 (gates initially pass about half the normalized
    partial sums); the sparsity weight warms up linearly; gate/BN running
    statistics are frozen when training ends.
    """
    if loss_cfg.kd_enabled and teacher is None:
        raise ConfigurationError("KD enabled but no teacher model supplied")
    n = train_images.shape[0]
    history = []
    for epoch in range(schedule.epochs):
        lr = lr_at(epoch, schedule)
        lam_scale = lambda_warmup(epoch, schedule)
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for i in range(0, n, schedule.batch_size):
            idx = order[i:i + schedule.batch_size]
            xb, yb = train_images[idx], train_labels[idx]
            logits = model.forward_train(xb)
            if loss_cfg.kd_enabled:
                t_logits, _ = teacher.forward_infer(xb)
                loss, dlogits = kd_loss(logits, t_logits, yb,
                                        loss_cfg.kd_temperature, loss_cfg.kd_mix)
            else:
                loss, dlogits = cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss is {loss} at epoch {epoch}, batch {batches} "
                    f"(lr={lr}, lambda_scale={lam_scale})")
            model.zero_grads()
            model.backward(dlogits)
            loss += apply_sparsity_loss(model, loss_cfg, lam_scale)
            model.sgd_step(lr, schedule.momentum, schedule.weight_decay)
            epoch_loss += loss
            batches += 1

        val_acc, _, records = evaluate(model, val_images, val_labels, collect=True)
        report = analysis.count_flops(records)
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / max(1, batches),
            "val_acc": val_acc,
            "mean_delta": model.mean_delta(),
            "pruning_ratio": analysis.network_pruning_ratio(records),
            "flop_reduction": report.flop_reduction,
        }
        history.append(row)
        if log is not None:
            log(row)
    model.freeze_gates()
    return history
