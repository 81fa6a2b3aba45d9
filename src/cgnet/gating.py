"""Channel gating blocks: inference path, gate variants, channel grouping.

A gated layer splits its input channels into G groups. For output group i
the base path convolves input group i (an ordinary grouped convolution);
the remaining channels form the conditional path, whose contribution is
kept only at output positions where the gate fires. The gate thresholds
the normalized base-path partial sum against a learnable
per-output-channel threshold; at inference the normalizer folds into the
threshold (the merged gate), so the whole mechanism costs one comparison
per activation plus one per channel when the channel-wise gate (tau_c),
which ``gate_map`` applies in both passes, is enabled. Decisions and
channel masks are bool arrays, the results of those comparisons; training
casts the decisions to float where it multiplies by them.

On the CPU the conditional path is not skipped: the full sum is the dense
convolution, selected afterwards, and the base partial sums a grouped
GEMM on the same im2col columns. One ``nn.conv2d_forward`` call runs
both: it builds the columns one band of output rows at a time and runs
both GEMMs on each band while it is in cache, so the layer's whole im2col
never exists. Both GEMMs write (c_out, ho*wo*n) rows, the (c, h, w, n)
memory of the (n, c, h, w) batches the block works on.

Inference reads an ``InferencePlan``, built once from the frozen
parameters (``inference_plan``), as the integer-inference fold builds
frozen weights: W with BN2 folded in (``nn.fold_bn``), so the full sum
comes back normalized; the base blocks with output channel c's row scaled
by a_c = |gamma_c|/sigma1_c > 0 (1/sigma1_c where gamma_c = 0), so the
base GEMM gives q = a*p; the merged-gate thresholds moved onto q's scale,
a*(delta*sigma1 + mu1), which keep their direction since a > 0; and BN1's
shift, so BN1(p) = sign(gamma)*q + shift, one add pass where every gamma
is positive. Only a layer (``network.CgConvBlock``) builds a plan, and it
keeps it until something writes its parameters or statistics.
``cg_block_forward_inference`` takes the plan it runs on and builds none.
A taken output is bitwise the dense twin's. An output
the gate did not take, and the decisions, round as the scaled GEMM does:
within rounding of BN1 of the unscaled partial sum and of the gate on it.
The epilogue works in place on the two GEMM outputs (BN1's shift, the
selection, the activation), so it allocates no float temporaries, and it
runs one slab of channels at a time on the band pool. The
selection reads ``DecisionMap.d``, the map that ran, and every count of
the work done (``analysis.count_flops`` and the FLOP-reduction figures)
reduces it.

Weight layout: a gated layer holds one dense kernel W (c_out, c_in, k, k).
Output group i's rows over input group i's channels are W_p, the base
path's weights; the rest of those rows are W_r, the conditional path's.
The base GEMM reads W_p through ``base_blocks``, a writable view of W's
diagonal blocks, and training's full sum runs on W itself. The inference
plan's kernels are copies, which the layer drops at every write to W or
to the statistics (``network`` module), so no copy a weight update could
leave stale is ever read. Only the checkpoint format stores the split:
``<layer>.w_p`` is (c_out, c_in/G, k, k) and ``<layer>.w_r``
(c_out, c_in - c_in/G, k, k), per output channel the complement input
channels in ascending group order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (ACTIVATION_KINDS, BatchNormState, ConfigurationError, ConvSpec,
                 _chwn, _per_channel, _run_slabs, activation, conv2d_forward, fold_bn)

TWO_SIDED_ACTIVATIONS = ("tanh", "sigmoid", "binary_sign")
BAND_INIT = 2.0   # a band starts as (delta_low, delta_high) = (-BAND_INIT, BAND_INIT)


@dataclass
class CgLayerConfig:
    """Static hyperparameters of one gated layer.

    ``conv`` describes the dense shape of the layer (its groups field must
    be 1); ``groups`` is the gating group count G, i.e. the base path sees
    the fraction eta = 1/G of the input channels. The activation sets the gate kind.
    ``tau_c`` drops a (sample, channel) whose fraction of fired activations
    is below it, in training and at inference alike (``gate_map``).
    """

    conv: ConvSpec
    groups: int = 4
    activation: str = "relu"
    tau_c: float = 0.0
    epsilon: float = 4.0
    shuffle: bool = False

    def __post_init__(self):
        # each message starts with its field; build_model prefixes the layer
        c_in, c_out = self.conv.in_channels, self.conv.out_channels
        if self.conv.groups != 1:
            raise ConfigurationError(f"conv: must have groups=1, got {self.conv.groups}")
        self.check_fields(vars(self))
        if c_in % self.groups or c_out % self.groups:
            raise ConfigurationError(
                f"groups: channels ({c_in} in, {c_out} out) not divisible by {self.groups}")

    @staticmethod
    def check_fields(fields):
        """The rules on the fields after ``conv``, given by name in
        ``fields``; none needs the layer's channels, so ``build_model``
        checks ``model.cg_defaults`` with them before any layer."""
        if fields["groups"] < 1:
            raise ConfigurationError(f"groups: must be >= 1, got {fields['groups']}")
        if fields["activation"] not in ACTIVATION_KINDS:
            raise ConfigurationError(f"activation: unknown activation {fields['activation']!r}")
        if not 0.0 <= fields["tau_c"] <= 1.0:
            raise ConfigurationError(f"tau_c: must be in [0, 1], got {fields['tau_c']}")
        if not 0.0 < fields["epsilon"] < np.inf:
            raise ConfigurationError(
                f"epsilon: must be positive and finite, got {fields['epsilon']}")

    @property
    def two_sided(self):
        """A band (delta_low, delta_high) for saturating activations, else one delta."""
        return self.activation in TWO_SIDED_ACTIVATIONS


@dataclass
class GateState:
    """Learnable thresholds of the gate: delta from 0, or a band from +-``BAND_INIT``.

    The gate is a set of one-sided edges (``edges()``): edge (name, sign,
    delta) passes where sign*(x - delta) >= 0, and the gate fires where
    every edge passes. A single-sided gate is the edge ("delta", +1); a band
    is ("delta_high", -1) and ("delta_low", +1). The gate input is the
    partial sum normalized with BN1's statistics (batch statistics in
    training, BN1's running stats at inference), so the gate keeps no
    normalizer of its own.
    """

    delta: np.ndarray | None = None       # one-sided only
    delta_high: np.ndarray | None = None  # two-sided only
    delta_low: np.ndarray | None = None

    @classmethod
    def create(cls, cfg: CgLayerConfig):
        c = cfg.conv.out_channels
        if cfg.two_sided:
            return cls(delta_high=np.full(c, BAND_INIT), delta_low=np.full(c, -BAND_INIT))
        return cls(np.zeros(c))

    def edges(self):
        """(name, sign, thresholds) of each edge, in checkpoint record order."""
        if self.delta_high is None:
            return [("delta", 1, self.delta)]
        return [("delta_high", -1, self.delta_high), ("delta_low", 1, self.delta_low)]

    def thresholds(self):
        """(name, array) of the learned thresholds, one per edge."""
        return [(name, t) for name, _, t in self.edges()]

    def clamp_band(self):
        """Enforce delta_high >= delta_low after a training step."""
        if self.delta_high is not None:
            mid = 0.5 * (self.delta_high + self.delta_low)
            np.maximum(self.delta_high, mid, out=self.delta_high)
            np.minimum(self.delta_low, mid, out=self.delta_low)


@dataclass
class DecisionMap:
    """The map that ran over (sample, channel, y, x) and the channel-wise
    mask over (sample, channel), both bool, as ``gate_map`` built them: a
    plain record, which masks nothing itself."""

    d: np.ndarray             # (n, c, h, w), True where the gate fired in a kept channel
    channel_mask: np.ndarray  # (n, c), True where the channel-wise gate kept the channel

    def effective(self):   # the benchmark harness reads d by this name
        return self.d


@dataclass
class CgBlockParams:
    """Dense kernel, dual batch norm and gate state of one gating block.

    bn1 (base path) and bn2 (combined path) keep separate running
    statistics but reference the same gamma/beta arrays; bn1's statistics
    also normalize the gate input.
    """

    w: np.ndarray             # (c_out, c_in, k, k)
    gamma: np.ndarray
    beta: np.ndarray
    bn1: BatchNormState
    bn2: BatchNormState
    gate: GateState

    @classmethod
    def init(cls, cfg: CgLayerConfig, rng):
        spec = cfg.conv
        G = cfg.groups
        c_in, c_out, k = spec.in_channels, spec.out_channels, spec.kernel_size
        if rng is None:   # zero, for a checkpoint load to fill, as dense layers do
            w = np.zeros(spec.weight_shape)
        else:
            std = np.sqrt(2.0 / (c_in * k * k))
            # drawing W_p, then W_r, fixes the rng stream of seeded models
            w = assemble_dense_weight(rng.normal(0.0, std, (c_out, c_in // G, k, k)),
                                      rng.normal(0.0, std, (c_out, c_in - c_in // G, k, k)), G)
        gamma, beta = np.ones(c_out), np.zeros(c_out)
        bn1 = BatchNormState(gamma, beta, np.zeros(c_out), np.ones(c_out))
        bn2 = BatchNormState(gamma, beta, np.zeros(c_out), np.ones(c_out))
        return cls(w, gamma, beta, bn1, bn2, GateState.create(cfg))


# ---------------------------------------------------------------------------
# Channel shuffle
# ---------------------------------------------------------------------------

def shuffle_permutation(c, G):
    """Interleaving permutation: output channel (group g, offset j) moves to
    position j*G + g (transpose of the group x offset grid)."""
    if c % G:
        raise ConfigurationError(f"{c} channels not divisible by G={G}")
    return np.arange(c).reshape(G, c // G).T.ravel()


def channel_shuffle(x, G):
    """The channels of an (n, c, h, w) batch in ``shuffle_permutation``
    order, indexed along axis 0 of its (c, h, w, n) view so that the result
    keeps that memory order. The c/G-group shuffle undoes the G-group one."""
    return _chwn(x)[shuffle_permutation(x.shape[1], G)].transpose(3, 0, 1, 2)


# ---------------------------------------------------------------------------
# Dense kernel: its base blocks and the checkpoint's (W_p, W_r) split
# ---------------------------------------------------------------------------

def base_blocks(w, G):
    """Writable view of the diagonal blocks of a C-contiguous kernel whose
    first axis is c_out and whose other axes flatten to (c_in, k, k):
    (G, c_out/G, c_in/G*k*k), block i being output group i's rows over input
    group i's channels (W_p)."""
    return np.einsum("gigj->gij", w.reshape(G, w.shape[0] // G, G, -1))


def assemble_dense_weight(w_p, w_r, G):
    """The dense kernel W from its (W_p, W_r) split for G groups: output
    group i's input groups are W_r's in ascending order, with W_p's block
    inserted at position i."""
    c_out, per, kk = w_p.shape[0], w_p.shape[1], w_p.shape[2:]
    w_p = w_p.reshape(G, c_out // G, 1, per, *kk)
    w_r = w_r.reshape(G, c_out // G, G - 1, per, *kk)
    w = np.stack([np.concatenate([r[:, :i], p, r[:, i:]], axis=1)
                  for i, (p, r) in enumerate(zip(w_p, w_r))])
    return w.reshape(c_out, G * per, *kk)


def split_dense_weight(w, G):
    """The (W_p, W_r) split of a dense kernel for G groups."""
    c_out, c_in, kk = w.shape[0], w.shape[1], w.shape[2:]
    if c_out % G or c_in % G:
        raise ConfigurationError(f"kernel {w.shape} not divisible into {G} groups")
    blocks = w.reshape(G, c_out // G, G, c_in // G, *kk)
    w_r = np.stack([np.delete(b, i, axis=1) for i, b in enumerate(blocks)])
    return (base_blocks(w, G).reshape(c_out, c_in // G, *kk),
            w_r.reshape(c_out, c_in - c_in // G, *kk))


# ---------------------------------------------------------------------------
# Gate functions
# ---------------------------------------------------------------------------

def _threshold_decisions(x, edges, out=None):
    """Boolean decisions where every (name, sign, thresholds) edge passes,
    x >= delta for sign +1 and x <= delta for sign -1, per channel,
    written into ``out`` when given. For finite x this is the product of
    theta(sign*(x - delta)): the difference of two distinct finite doubles
    is never 0, so it is >= 0 exactly where x >= delta."""
    d = None
    for _, sign, t in edges:
        compare = np.greater_equal if sign > 0 else np.less_equal
        if d is None:
            d = compare(x, _per_channel(t), out=out)
        else:
            np.logical_and(d, compare(x, _per_channel(t)), out=d)
    return d


def merged_gate(q, plan):
    """Inference gate on q = a*p, the base partial sum on the plan's
    positive per-channel scale, with BN1's running stats folded into each
    edge's thresholds on that scale: for the single-sided gate the bool
    d = q >= a*(delta*sqrt(Var+eps) + E), per output channel."""
    return _threshold_decisions(q, plan.edges)


def gate_map(fired, tau_c):
    """The map that ran, as a ``DecisionMap`` of an (n, c, h, w) firing map.
    Its (n, c) mask keeps a channel iff it fired at >= tau_c of its
    positions (boundary inclusive). Its ``d`` is ``fired`` with the dropped
    channels cleared, in a copy in fired's memory order when some channel is
    dropped, else ``fired`` itself, uncopied, as always at tau_c = 0."""
    if tau_c > 0.0:
        mask = np.count_nonzero(fired, axis=(2, 3)) >= tau_c * (fired.shape[2] * fired.shape[3])
    else:
        mask = np.ones(fired.shape[:2], dtype=bool)
    if not mask.all():
        fired = np.logical_and(fired, mask[..., None, None], out=np.empty_like(fired))
    return DecisionMap(fired, mask)


# ---------------------------------------------------------------------------
# Block forward (inference)
# ---------------------------------------------------------------------------

@dataclass
class InferencePlan:
    """What a gated layer's inference reads of its frozen parameters and
    never changes; ``inference_plan`` builds it."""

    full: np.ndarray          # (c_out, c_in*k*k + 1): W with BN2 folded in
    blocks: np.ndarray        # (G, c_out/G, c_in/G*k*k): W_p, row c scaled by a_c > 0
    edges: list               # (name, sign, thresholds on q = a*p), as GateState.edges()
    shift: np.ndarray         # BN1's shift: beta - gamma*mu1/sigma1
    sign: np.ndarray | None   # sign(gamma), or None when every gamma is positive


def inference_plan(params: CgBlockParams, cfg: CgLayerConfig):
    """The ``InferencePlan`` of frozen ``params``. With
    sigma1 = sqrt(var1 + eps) and a = |gamma|/sigma1 (1/sigma1 where
    gamma = 0), BN1(p) = gamma*(p - mu1)/sigma1 + beta is
    sign(gamma)*a*p + shift, and a > 0 keeps each edge's direction:
    p >= t exactly where a*p >= a*t."""
    bn1, gamma = params.bn1, params.gamma
    sigma = np.sqrt(bn1.running_var + bn1.eps)
    a = np.where(gamma == 0.0, 1.0, np.abs(gamma)) / sigma
    blocks = base_blocks(params.w, cfg.groups) * a.reshape(cfg.groups, -1, 1)
    edges = [(name, sign, a * (t * sigma + bn1.running_mean))
             for name, sign, t in params.gate.edges()]
    shift = params.beta - gamma * bn1.running_mean / sigma
    sign = None if np.all(gamma > 0.0) else np.sign(gamma)
    return InferencePlan(fold_bn(params.w, params.bn2), blocks, edges, shift, sign)


def cg_block_forward_inference(x, params: CgBlockParams, cfg: CgLayerConfig,
                               plan: InferencePlan):
    """Gated inference forward pass on ``plan``, the ``InferencePlan`` that
    the layer built of ``params``.

    Returns (y, DecisionMap). The output is f(BN2(full sum)) where the map
    that ran (``dm.d``) is True, else f(BN1(base partial sum)). The
    channel-wise gate zeroes whole channels' conditional work and their
    W_r accesses. Decision maps refer to pre-shuffle channel order.

    The full sum is the dense convolution at every position, selected
    afterwards: the skipped conditional MACs are accounted by
    ``analysis.count_flops``, not skipped on the CPU. It runs on the
    plan's folded kernel, the dense twin's computation, so a taken output
    is BN2(full sum) rounded as a GEMM rounds, bitwise the twin's. The
    same ``nn.conv2d_forward`` call runs the plan's scaled base blocks on
    each band of the same columns, giving q = a*p: the gate compares q
    (``merged_gate``), and BN1(p) is sign(gamma)*q + shift, so an output
    the gate did not take, and a decision, rounds as that GEMM does. The
    gate and the channel mask run on the calling thread; the epilogue after
    them works in place on the two GEMM outputs, BN1's shift, the selection
    and the activation, one slab of channels at a time on the band pool
    (``nn._run_slabs``). It runs on whatever running stats the plan was
    built from; ``Network.forward_infer`` checks that they are frozen.
    """
    full, _, q = conv2d_forward(x, params.w, cfg.conv, (plan.blocks,), folded=plan.full)
    dm = gate_map(merged_gate(q, plan), cfg.tau_c)

    def run(s):
        q_s = q[:, s]
        if plan.sign is not None:
            q_s *= _per_channel(plan.sign[s])
        q_s += _per_channel(plan.shift[s])
        np.copyto(q_s, full[:, s], where=dm.d[:, s])
        activation(q_s, cfg.activation, out=q_s)

    _run_slabs(run, q, full)
    y = q
    if cfg.shuffle:
        y = channel_shuffle(y, cfg.groups)
    return y, dm
