"""Training-time graph of the gating block and the associated losses.

During training both paths are computed at every position (skipping is an
inference-time saving). The full sum is the layer's dense convolution,
and the base partial sum a GEMM of W's diagonal blocks on each band of
the same im2col columns, in the same ``nn.conv2d_forward`` call. The
forward combines them through the hard binary decision d:

    y = f( (J - d) o BN1(p)  +  d o BN2(p + r) )

with p the base partial sum, r the conditional sum, and d the map that ran:
the affine-free normalization of p thresholded, and channel-gated by tau_c
as at inference (``gating.gate_map``). The two batch norms keep
separate statistics but share gamma/beta. The gate input is BN1's
normalization of p before its affine step, so p is normalized once and
BN1's running stats are the gate's: there is one copy of them.

Because gamma/beta are shared, both normalizations run affine-free and the
combine applies the affine once: pre = gamma*z + beta with
z = where(d, x^_2, x^_g), x^_2 the normalization of the full sum, selected
by ``nn.xor_blend``. Both normalizations overwrite their GEMM outputs, and
the activation runs in place over pre, whose f' the context keeps instead,
as in-place activated batch norm keeps only what f' reads: bool for relu,
binary_sign and identity, float for tanh and sigmoid, whose f' is read
from the output (``nn.activation_with_grad``). So the training
context holds two float arrays of the output's shape (x^_g and x^_2 inside
the two ``BnCtx``), f', the bool d and the convolution's ``nn.ConvCtx``,
which references the block's input x: the backward rebuilds the im2col
columns from it (rematerialisation), so nothing may write to a layer's
input before that layer's backward. In the backward, gamma folds into each
BN backward's final per-channel scale gamma/sqrt(var + eps); the
elementwise chain before it carries no gamma. BN2's backward writes the
full sum's upstream gradient dfull and BN1's writes p's, dp, and one
``nn.conv2d_backward`` call, the dense layers' backward, takes both.

The backward consumes its context and its upstream gradient dy, as
in-place activated batch norm does: each gradient goes into a buffer that
is dead by then. dpre = dy*f' overwrites dy (``nn._consumable``), and so
does BN2's upstream d*dpre after it; dfull overwrites x^_2, dp overwrites
x^_g after its last read, and d(x^_g) the first edge's tanh buffer;
``nn.conv2d_backward`` then builds its upstream in dfull's memory. Every
pass between the batch norms and the activation reads one channel's
values only, so the forward's and the backward's run one slab of
channels at a time on the band pool (``nn._run_slabs``), into those
buffers. So a single-sided gate's backward allocates one output-sized
batch, d(x^_g), and per slab ds~ and d*dpre (below), which die before the
convolution's backward, then one input group's columns and dx. The layer
refuses a second backward on a spent context
(``network.Layer._saved_ctx``), and nothing reads it after its backward.

The gate is a set of edges (``GateState.edges()``): edge (name, sign,
delta) passes where sign*(x^_g - delta) >= 0, the gate fires where every
edge passes, and every routine here walks the edges without asking the gate's
kind. A single-sided gate is one edge, a band two. The gate is not
differentiable, so gradients toward the thresholds and the gate input use
a smooth surrogate, s~ = the product over edges of
sigma(eps*sign*(x^_g - delta)), recomputed from x^_g in tanh form: with
t = tanh(eps*sign*(x^_g - delta)/2), the edge's sigmoid is 1/2 + t/2 and
its derivative (eps/4)*(1 - t^2), so one tanh per edge gives both, and a
saturated t = +-1 gives exactly zero gradient with no overflow. The data
paths treat d, channel mask included, as a constant; the surrogate ignores
the mask, so a dropped channel keeps its threshold gradients. The hard
combine is not differentiable, so the test suite checks these surrogate
gradients against central differences of the soft combine
z = x^_g + s~*(x^_2 - x^_g), which exists only in its two-convolution
oracle (``tests/_oracles.two_conv_block_train``); the block here matches
that oracle's hard mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .gating import (BAND_INIT, CgBlockParams, CgLayerConfig, _threshold_decisions, base_blocks,
                     gate_map)
from .nn import (BnCtx, ConfigurationError, ConvCtx, _chwn, _consumable, _fprime_like,
                 _per_channel, _run_slabs, accuracy, activation_with_grad, batchnorm_backward,
                 bn_forward, conv2d_backward, conv2d_forward, cross_entropy, softmax, xor_blend)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries epoch/batch diagnostics."""


@dataclass
class LossConfig:
    sparsity: str = "target_threshold"   # the one form; lam = 0 turns it off
    lam: float = 1e-4
    target: float = 2.0
    kd_temperature: float = 1.0
    kd_mix: float = 0.5

    def __post_init__(self):
        # one row per field of the config's loss section; NaN fails all
        for name, value, ok, rule in (
                ("sparsity", self.sparsity, self.sparsity == "target_threshold",
                 "'target_threshold'"),
                ("lambda", self.lam, self.lam >= 0.0, ">= 0"),
                ("kd.temperature", self.kd_temperature, self.kd_temperature > 0.0, "> 0"),
                ("kd.mix", self.kd_mix, 0.0 <= self.kd_mix <= 1.0, "in [0, 1]")):
            if not ok:
                raise ConfigurationError(f"loss.{name}: must be {rule}, got {value!r}")


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

    def __post_init__(self):
        # one row per field of the config's optimizer section; NaN fails all
        for name, ok, rule in (
                ("epochs", self.epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("lr", self.lr > 0.0, "> 0"),
                ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", self.weight_decay >= 0.0, ">= 0"),
                ("lr_decay_factor", self.lr_decay_factor > 0.0, "> 0"),
                ("lambda_warmup_frac", 0.0 < self.lambda_warmup_frac <= 1.0, "in (0, 1]")):
            if not ok:
                raise ConfigurationError(
                    f"optimizer.{name}: must be {rule}, got {getattr(self, name)}")
        # a negative entry would decay the rate from epoch 0
        for i, e in enumerate(self.lr_decay_epochs):
            if not e >= 0:
                raise ConfigurationError(f"optimizer.lr_decay_epochs[{i}]: must be >= 0, got {e}")


# ---------------------------------------------------------------------------
# Block forward/backward
# ---------------------------------------------------------------------------

@dataclass
class CgTrainContext:
    """What ``cg_block_backward`` needs of one training forward.

    Two float arrays of the block output's shape, x^_g and x^_2 inside the
    two ``BnCtx``; the activation's derivative ``fprime`` at its narrowest
    dtype (bool for relu, binary_sign and identity, float for tanh and
    sigmoid); and the convolution's context ``conv``, as a dense layer's,
    which references the block's input: the backward rebuilds the im2col
    columns from it, so nothing may write to that batch before the
    backward. The decisions are bool, and the surrogate is recomputed from
    x^_g rather than kept. The backward consumes the context: it overwrites
    x^_2 and x^_g with gradients and sets ``consumed``, after which nothing
    reads it.
    """

    cfg: CgLayerConfig
    params: CgBlockParams
    conv: ConvCtx             # references the input batch the forward read
    bn1_ctx: BnCtx            # normalization of p: x^_g, the gate input
    bn2_ctx: BnCtx            # normalization of the full sum: x^_2
    d: np.ndarray             # bool map that ran: the decisions, channel-gated
    fprime: np.ndarray        # f'(gamma*z + beta), bool where f' is 0 or 1
    consumed: bool = False    # set by the backward, which overwrites the buffers


@dataclass
class CgBlockGrads:
    dw: np.ndarray            # gradient of the dense kernel W
    dgamma: np.ndarray
    dbeta: np.ndarray
    dthresholds: dict         # keyed as GateState.thresholds() names them
    dx: np.ndarray


def _surrogate(xhat_g, edges, eps, out=None):
    """tanh factors t = tanh(eps*sign*(x^_g - delta)/2) of the smooth gate,
    one per edge, the first written into ``out`` when given, every other
    a new batch in x^_g's memory order; the edge's sigmoid is 1/2 + t/2
    (``_sigmoid_of``)."""
    ts = []
    for _, sign, delta in edges:
        t = np.subtract(xhat_g, _per_channel(delta), out=None if ts else out)
        t *= 0.5 * eps * sign
        ts.append(np.tanh(t, out=t))
    return ts


def _sigmoid_of(t, out=None):
    """1/2 + t/2, the sigmoid whose tanh factor is t, written into ``out``
    when given and into a new batch otherwise."""
    s = np.multiply(t, 0.5, out=out)
    s += 0.5
    return s


def _times_sigmoid_of(a, t):
    """a *= 1/2 + t/2 in place, one channel at a time: the sigmoid of tanh
    factor t takes one channel of scratch, not a batch, and each element's
    product is the one a whole-batch sigmoid gives."""
    a_chwn, t_chwn = _chwn(a), _chwn(t)
    s = np.empty_like(t_chwn[0])
    for a_c, t_c in zip(a_chwn, t_chwn):
        a_c *= _sigmoid_of(t_c, out=s)


def _slab_edges(edges, s):
    """The gate's (name, sign, thresholds) edges restricted to slab s of
    the channels."""
    return [(name, sign, t[s]) for name, sign, t in edges]


def _gate_gradients(dpre, xhat_g, xhat2, edges, eps, gamma, dxhat_g, dthresholds):
    """The surrogate's share of the block's gradients, for a batch or a
    slab of its channels: writes d(x^_g) into ``dxhat_g`` and each edge's
    threshold gradient into ``dthresholds[name]``. With
    ds~ = dpre*(x^_2 - x^_g), edge e's share of d(x^_g),
    ds~*sign*(eps/4)*(1 - t_e^2) times the other edges' sigmoids,
    overwrites its tanh factor t_e, t_0 in dxhat_g; d(x^_g) sums the
    shares there, and d(delta_e) is minus e's share, summed per channel and
    scaled by gamma. A band's second sigmoid multiplies into ds~ in place,
    one channel at a time (``_times_sigmoid_of``), so its backward holds
    four arrays of the slab's shape here: two tanh factors and two sigmoid
    products. Every other temporary dies on return."""
    ts = _surrogate(xhat_g, edges, eps, out=dxhat_g)
    # muls[e] is ds times the sigmoids of the edges but e (ds itself for
    # one edge)
    ds = xhat2 - xhat_g
    ds *= dpre
    muls = [ds]
    for t_prev, t in zip(ts, ts[1:]):
        mul = _sigmoid_of(t_prev)
        mul *= muls[-1]
        for earlier in muls:
            _times_sigmoid_of(earlier, t)
        muls.append(mul)
    for (key, sign, _), t, mul in zip(edges, ts, muls):
        t *= t
        np.subtract(1.0, t, out=t)
        t *= mul
        t *= 0.25 * eps * sign
        dthresholds[key][...] = -gamma * t.sum(axis=(0, 2, 3))
    for t in ts[1:]:
        dxhat_g += t


def cg_block_forward_train(x, params: CgBlockParams, cfg: CgLayerConfig):
    """Training forward pass; returns (y, CgTrainContext).

    The full sum is the dense convolution with W and the base partial sum
    p one batched matmul over W's G diagonal blocks, both run on each band
    of im2col columns by one ``nn.conv2d_forward`` call: the context keeps
    the input batch, from which the backward rebuilds the columns.
    Both sums are normalized affine-free with batch statistics, in place in
    their GEMM outputs, which nothing else reads; this also updates BN1's
    and BN2's running stats: x^_g (p's, also the gate input) and x^_2. The
    paths share gamma/beta, so the combine applies the affine
    once, to the selected normalization: pre = gamma*z + beta with
    z = where(d, x^_2, x^_g) (``nn.xor_blend``), d the channel-gated map
    (``gate_map``). The activation runs once and overwrites pre, which
    becomes y, and the context keeps f'(pre) (``nn.activation_with_grad``:
    tanh's and sigmoid's from y). Every step after the batch norms reads
    only its own channel's values, so that chain, from the thresholds to
    f', runs one slab of channels at a time on the band pool
    (``nn._run_slabs``) into the whole batch's d, y and f'; each batch
    norm hands out its own slabs.
    """
    full, conv, p = conv2d_forward(x, params.w, cfg.conv, (base_blocks(params.w, cfg.groups),))
    xhat_g, bn1_ctx = bn_forward(p, params.bn1, out=p)
    xhat2, bn2_ctx = bn_forward(full, params.bn2, out=full)
    edges = params.gate.edges()
    d = np.empty_like(xhat_g, dtype=bool)
    pre = np.empty_like(xhat_g)
    fprime = _fprime_like(pre, cfg.activation)

    def run(s):
        fired = _threshold_decisions(xhat_g[:, s], _slab_edges(edges, s), out=d[:, s])
        ran = gate_map(fired, cfg.tau_c).d
        if ran is not fired:
            np.copyto(fired, ran)
        pre_s = xor_blend(fired, xhat2[:, s], xhat_g[:, s], out=pre[:, s])
        pre_s *= _per_channel(params.gamma[s])
        pre_s += _per_channel(params.beta[s])
        activation_with_grad(pre_s, cfg.activation, out=fprime[:, s])

    _run_slabs(run, xhat_g, xhat2)
    return pre, CgTrainContext(cfg, params, conv, bn1_ctx, bn2_ctx, d, fprime)


def cg_block_backward(ctx: CgTrainContext, dy):
    """Gradients of the training block.

    The data paths treat the map that ran, d, as a constant. With
    pre = gamma*z + beta: dbeta = sum(dpre) and dgamma = sum(dpre*z), the
    base path's share, (1 - d)*dpre against x^_g, summed here and the
    conditional path's, d*dpre against x^_2, returned by BN2's backward.
    The chain below carries no gamma: both BNs take their upstream gradient
    with respect to the shared affine's output, gamma*x^ + beta, so gamma
    folds into their backward's final per-channel scale gamma*inv_std.
    BN2's upstream is d*dpre, BN1's (1 - d)*dpre plus the gate term, whose
    threshold and gate-input gradients come from the surrogate's tanh
    factors (``_gate_gradients``).
    BN backward is linear in its upstream gradient, so BN1 and the gate
    input, which share one normalization of p, take one backward call.
    Every step before the batch norms' backward, dpre = dy*f', the gate
    gradients, the split of dpre and the base path's dgamma and dbeta,
    reads only its own channel's values, so it runs one slab of channels
    at a time on the band pool (``nn._run_slabs``): d*dpre lands in dy's
    memory and d(x^_g) in the first tanh factor's batch. BN2's backward
    writes dfull over x^_2 and BN1's dp over x^_g, each handing out its own
    slabs, and ``nn.conv2d_backward(ctx.conv, dfull, dp, G)`` gives dW and
    dx. Consumes ``ctx`` and, where it is a writable sample-innermost batch,
    ``dy`` (see the module docstring), and sets ``ctx.consumed``, on which
    the layer's ``Layer._saved_ctx`` refuses a second backward.
    """
    cfg, params = ctx.cfg, ctx.params
    xhat_g, xhat2 = ctx.bn1_ctx.xhat, ctx.bn2_ctx.xhat
    gamma = params.gamma
    c = len(gamma)
    # dpre overwrites dy; from here on the context is spent
    dpre = _consumable(dy)
    ctx.consumed = True
    edges = params.gate.edges()
    dxhat_g = np.empty_like(xhat_g)   # the first tanh factor's batch
    dthresholds = {key: np.empty(c) for key, _, _ in edges}
    dgamma, dbeta = np.empty(c), np.empty(c)

    def run(s):
        dpre_s, xhat_g_s = dpre[:, s], xhat_g[:, s]
        dpre_s *= ctx.fprime[:, s]
        _gate_gradients(dpre_s, xhat_g_s, xhat2[:, s], _slab_edges(edges, s), cfg.epsilon,
                        gamma[s], dxhat_g[:, s], {key: g[s] for key, g in dthresholds.items()})
        # The conditional path's share of dpre, d*dpre, goes to BN2; dpre
        # keeps the base path's, (1 - d)*dpre, until its sums are taken and
        # it is added into d(x^_g), then takes d*dpre. sum(dpre*z) is their
        # products with x^_2 and x^_g.
        dcond = np.multiply(dpre_s, ctx.d[:, s])
        dpre_s -= dcond
        dgamma[s] = np.einsum("nchw,nchw->c", dpre_s, xhat_g_s)
        dbeta[s] = dpre_s.sum(axis=(0, 2, 3))
        # BN1 and the gate share x^_g, so their input gradients add up front
        dxhat_g[:, s] += dpre_s
        np.copyto(dpre_s, dcond)

    _run_slabs(run, dpre, xhat_g, xhat2)
    # each upstream is the gradient with respect to the shared gamma*x^ + beta.
    # BN2's backward reads x^_2 and writes dfull over it, BN1's x^_g and dp;
    # each upstream is dead after its call.
    dfull, dgamma2, dbeta2 = batchnorm_backward(ctx.bn2_ctx, dpre, gamma, out=xhat2)
    del dpre
    dp, _, _ = batchnorm_backward(ctx.bn1_ctx, dxhat_g, gamma, out=xhat_g)
    del dxhat_g
    dgamma += dgamma2
    dbeta += dbeta2
    dx, dw = conv2d_backward(ctx.conv, dfull, dp, cfg.groups)
    return CgBlockGrads(dw, dgamma, dbeta, dthresholds, dx)


# ---------------------------------------------------------------------------
# Sparsity losses
# ---------------------------------------------------------------------------

def sparsity_loss_target(delta, target, lam):
    """Squared pull of one threshold array toward the target T; returns
    (lam * sum_c (T - delta)^2, its gradient -2*lam*(T - delta))."""
    diff = target - delta
    return lam * float((diff * diff).sum()), -2.0 * lam * diff


def kd_loss(student_logits, teacher_logits, labels, kappa, lam_kd):
    """Distillation loss mixing ground truth with the softened teacher:
    L = -((1-lam)*sum y log P_S + lam*sum P_T log P_S), temperature kappa
    on both distributions, averaged over the batch. Returns (loss, dlogits).
    """
    zs = np.asarray(student_logits, dtype=np.float64)
    zt = np.asarray(teacher_logits, dtype=np.float64)
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
    """Add the target-threshold loss's gradients into the model's threshold
    grads; returns the scalar loss value."""
    lam = loss_cfg.lam * lam_scale
    if lam == 0.0:
        return 0.0
    # a band's edges are pulled inward by T from the initial half-width
    edge = BAND_INIT - loss_cfg.target
    targets = {"delta": loss_cfg.target, "delta_high": edge, "delta_low": -edge}
    loss = 0.0
    for layer in model.gated_layers():
        part = 0.0   # a per-layer subtotal: train_loss depends on the sum order
        for key, t in layer.params.gate.thresholds():
            term, g = sparsity_loss_target(t, targets[key], lam)
            layer.g_thresholds[key] += g
            part += term
        loss += part
    return loss


def evaluate(model, images, labels, batch_size=256, collect=False):
    """Inference-mode accuracy plus (optionally) per-layer records; the
    batches' record lists are merged once at the end. ``forward_infer``
    raises ``StateError`` on a logit that is not finite."""
    n = images.shape[0]
    logits_all = []
    record_lists = []
    for i in range(0, n, batch_size):
        logits, recs = model.forward_infer(images[i:i + batch_size],
                                           collect=collect, require_frozen=False)
        logits_all.append(logits)
        record_lists.append(recs)
    logits = np.concatenate(logits_all, axis=0)
    records = analysis.merge_layer_records(*record_lists) if collect else None
    return accuracy(logits, labels), logits, records


def train_network(model, train_images, train_labels, val_images, val_labels,
                  loss_cfg: LossConfig, schedule: Schedule, rng,
                  teacher=None, log=None):
    """SGD training loop; returns the per-epoch history (list of dicts).

    Thresholds start at 0 (gates initially pass about half the normalized
    partial sums); the sparsity weight warms up linearly; given a frozen
    ``teacher``, the loss distils from it; each epoch's validation runs
    without the training contexts; gate statistics freeze at the end.
    """
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
            if teacher is not None:
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

        model.drop_contexts()   # validation needs none; the next step sets them
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
