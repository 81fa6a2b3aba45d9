"""Channel gating blocks: inference path, gate variants, channel grouping.

A gated layer splits its input channels into G groups. For output group i
the base path convolves input group i (an ordinary grouped convolution);
the remaining channels form the conditional path, whose contribution is
kept only at output positions where the gate fires. The gate thresholds
the normalized base-path partial sum against a learnable
per-output-channel threshold; at inference the normalizer folds into the
threshold (the merged gate), so the whole mechanism costs one comparison
per activation plus one per channel when the channel-wise gate is enabled.

On the CPU the conditional path is not skipped: inference computes the
full sum densely from the same im2col as the base path and selects it
afterwards. The skipped conditional MACs are accounted by
``analysis.count_flops`` from the decision maps the block returns, which
is what the FLOP-reduction figures report.

Weight layout:
  * w_p is (c_out, c_in/G, k, k): the grouped-conv base weights, so output
    group i's rows read input group i;
  * w_r is (c_out, c_in - c_in/G, k, k): per output channel, the weights
    for the complement input channels in ascending group order with the
    base group removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (ACTIVATION_KINDS, BatchNormState, ConfigurationError, ConvSpec,
                 _as_batch, _per_channel, activation, bn_forward, im2col)

GATE_KINDS = ("single_sided", "two_sided")
TWO_SIDED_ACTIVATIONS = ("tanh", "sigmoid", "binary_sign")


def default_gate_kind(activation_kind):
    """Saturating activations get the two-sided gate, ReLU-likes one-sided."""
    return "two_sided" if activation_kind in TWO_SIDED_ACTIVATIONS else "single_sided"


@dataclass
class CgLayerConfig:
    """Static hyperparameters of one gated layer.

    ``conv`` describes the dense shape of the layer (its groups field must
    be 1); ``groups`` is the gating group count G, i.e. the base path sees
    the fraction eta = 1/G of the input channels.
    """

    conv: ConvSpec
    groups: int = 4
    activation: str = "relu"
    gate: str = ""
    tau_c: float = 0.0
    epsilon: float = 4.0
    shuffle: bool = False
    band_init: float = 2.0

    def __post_init__(self):
        if self.conv.groups != 1:
            raise ConfigurationError("CgLayerConfig.conv must describe the dense layer (groups=1)")
        if self.groups < 1:
            raise ConfigurationError("CgLayerConfig.groups must be >= 1")
        if self.conv.in_channels % self.groups or self.conv.out_channels % self.groups:
            raise ConfigurationError(
                f"channels ({self.conv.in_channels} in, {self.conv.out_channels} out) "
                f"not divisible by gating groups={self.groups}")
        if self.activation not in ACTIVATION_KINDS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if not self.gate:
            self.gate = default_gate_kind(self.activation)
        if self.gate not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.gate!r}")
        if not 0.0 <= self.tau_c <= 1.0:
            raise ConfigurationError("tau_c must be in [0,1]")
        if self.epsilon <= 0.0:
            raise ConfigurationError("epsilon must be positive")

    @property
    def eta(self):
        return 1.0 / self.groups


@dataclass
class GateState:
    """Learnable thresholds of the gate and whether its statistics are frozen.

    The gate input is the partial sum normalized with BN1's statistics (batch
    statistics in training, BN1's running stats at inference), so the gate
    keeps no normalizer of its own.
    """

    delta: np.ndarray
    delta_high: np.ndarray | None = None  # two-sided only
    delta_low: np.ndarray | None = None
    frozen: bool = False

    @classmethod
    def create(cls, cfg: CgLayerConfig):
        c = cfg.conv.out_channels
        st = cls(np.zeros(c))
        if cfg.gate == "two_sided":
            st.delta_high = np.full(c, cfg.band_init)
            st.delta_low = np.full(c, -cfg.band_init)
        return st

    def clamp_band(self):
        """Enforce delta_high >= delta_low after a training step."""
        if self.delta_high is not None:
            mid = 0.5 * (self.delta_high + self.delta_low)
            np.maximum(self.delta_high, mid, out=self.delta_high)
            np.minimum(self.delta_low, mid, out=self.delta_low)


@dataclass
class DecisionMap:
    """Binary decisions d over (channel, y, x), plus the channel-wise mask."""

    d: np.ndarray             # (n|,c,h,w) in {0,1}
    channel_mask: np.ndarray  # (n|,c) in {0,1}

    def effective(self):
        return self.d * self.channel_mask[..., None, None]

    def taken(self):
        """Number of effective decisions that are 1, without building the
        effective map."""
        hw = self.d.shape[-2:]
        return int(np.einsum("khw,k->", self.d.reshape(-1, *hw), self.channel_mask.ravel()))


@dataclass
class CgBlockParams:
    """Weights, dual batch norm and gate state of one gating block.

    bn1 (base path) and bn2 (combined path) keep separate running
    statistics but reference the same gamma/beta arrays; bn1's statistics
    also normalize the gate input.
    """

    w_p: np.ndarray
    w_r: np.ndarray
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
        fan_in = c_in * k * k
        std = np.sqrt(2.0 / fan_in)
        w_p = rng.normal(0.0, std, (c_out, c_in // G, k, k))
        w_r = rng.normal(0.0, std, (c_out, c_in - c_in // G, k, k))
        gamma = np.ones(c_out)
        beta = np.zeros(c_out)
        bn1 = BatchNormState(gamma, beta, np.zeros(c_out), np.ones(c_out))
        bn2 = BatchNormState(gamma, beta, np.zeros(c_out), np.ones(c_out))
        return cls(w_p, w_r, gamma, beta, bn1, bn2, GateState.create(cfg))


# ---------------------------------------------------------------------------
# Grouping helpers
# ---------------------------------------------------------------------------

def base_indices(c_in, G, i):
    per = c_in // G
    return np.arange(i * per, (i + 1) * per)


def complement_indices(c_in, G, i):
    """Input channels of the conditional path for output group i:
    all groups except i, in ascending group order."""
    per = c_in // G
    idx = [np.arange(j * per, (j + 1) * per) for j in range(G) if j != i]
    return np.concatenate(idx) if idx else np.empty(0, dtype=int)


def shuffle_permutation(c, G):
    """Interleaving permutation: output channel (group g, offset j) moves to
    position j*G + g (transpose of the group x offset grid)."""
    if c % G:
        raise ConfigurationError(f"{c} channels not divisible by G={G}")
    per = c // G
    perm = np.empty(c, dtype=int)
    for g in range(G):
        for j in range(per):
            perm[j * G + g] = g * per + j
    return perm


def channel_shuffle(x, G):
    xb, batched = _as_batch(x)
    y = xb[:, shuffle_permutation(xb.shape[1], G)]
    return y if batched else y[0]


# ---------------------------------------------------------------------------
# Dense <-> partitioned weight conversion
# ---------------------------------------------------------------------------

def assemble_dense_weight(w_p, w_r, G):
    """Reassemble the dense kernel W from the (W_p, W_r) partition."""
    c_out, cpg_in = w_p.shape[0], w_p.shape[1]
    c_in = cpg_in * G
    k = w_p.shape[2]
    w = np.zeros((c_out, c_in, k, k))
    cpg_out = c_out // G
    for i in range(G):
        rows = slice(i * cpg_out, (i + 1) * cpg_out)
        w[rows][:, base_indices(c_in, G, i)] = w_p[rows]
        if w_r.shape[1]:
            w[rows][:, complement_indices(c_in, G, i)] = w_r[rows]
    return w


def split_dense_weight(w, G):
    """Partition a dense kernel into (W_p, W_r) for G groups."""
    c_out, c_in = w.shape[0], w.shape[1]
    if c_out % G or c_in % G:
        raise ConfigurationError(f"kernel {w.shape} not divisible into {G} groups")
    k = w.shape[2]
    cpg_in = c_in // G
    cpg_out = c_out // G
    w_p = np.zeros((c_out, cpg_in, k, k))
    w_r = np.zeros((c_out, c_in - cpg_in, k, k))
    for i in range(G):
        rows = slice(i * cpg_out, (i + 1) * cpg_out)
        w_p[rows] = w[rows][:, base_indices(c_in, G, i)]
        if c_in - cpg_in:
            w_r[rows] = w[rows][:, complement_indices(c_in, G, i)]
    return w_p, w_r


# ---------------------------------------------------------------------------
# Gate functions
# ---------------------------------------------------------------------------

def heaviside(x):
    """theta(x): 1 where x >= 0, else 0 (boundary inclusive)."""
    return (np.asarray(x, dtype=np.float64) >= 0.0).astype(np.float64)


def gate_bounds(gate: GateState, kind):
    """(lo, hi) thresholds of a gate: (delta, None) for the one-sided gate,
    (delta_low, delta_high) for the two-sided band."""
    if kind == "single_sided":
        return gate.delta, None
    return gate.delta_low, gate.delta_high


def _threshold_decisions(x, lo, hi=None):
    """theta(x - lo), times theta(hi - x) for a band; lo and hi are
    per-channel thresholds."""
    d = heaviside(x - _per_channel(lo))
    if hi is not None:
        d *= heaviside(_per_channel(hi) - x)
    return d


def merged_gate(partial_sum, params: CgBlockParams, cfg: CgLayerConfig):
    """Inference gate with BN1's running stats folded into the thresholds:
    d = theta(x - delta*sqrt(Var+eps) - E), per output channel; the edges
    of a two-sided band fold the same way."""
    xb, batched = _as_batch(partial_sum)
    bn1 = params.bn1
    sigma = np.sqrt(bn1.running_var + bn1.eps)
    mean = bn1.running_mean
    lo, hi = gate_bounds(params.gate, cfg.gate)
    d = _threshold_decisions(xb, lo * sigma + mean,
                             None if hi is None else hi * sigma + mean)
    return d if batched else d[0]


def channel_gate(d, tau_c):
    """Per-channel mask: channel survives iff its taking fraction of
    activations is >= tau_c (boundary inclusive via theta)."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim not in (3, 4):
        raise ConfigurationError(f"decision tensor must be rank 3 or 4, got {d.shape}")
    hw = d.shape[-1] * d.shape[-2]
    taken = d.sum(axis=(-1, -2))
    return heaviside(taken - tau_c * hw)


# ---------------------------------------------------------------------------
# Block forward (inference)
# ---------------------------------------------------------------------------

def shared_im2col_sums(xb, w_p, w_r, spec: ConvSpec, G):
    """One padded im2col of the batch ``xb`` feeding two GEMMs.

    The base partial sums p are one batched matmul of each output group's
    W_p rows against its input group's rows; the full sum is one matmul
    with the dense kernel reassembled from W_p and W_r (for G == 1 the full
    sum is p). ``spec`` is the dense convolution and G the group count.
    Returns (cols, w, p, full): cols is (n, c_in*k*k, ho*wo), w the dense
    kernel as (c_out, c_in*k*k), p and full (n, c_out, ho, wo). The kernel
    is assembled on every call, so it never goes stale after a weight
    update.
    """
    if xb.shape[1] != spec.in_channels:
        raise ConfigurationError(
            f"input has {xb.shape[1]} channels, spec expects {spec.in_channels}")
    n = xb.shape[0]
    c_out = spec.out_channels
    ho, wo = spec.out_hw(xb.shape[2], xb.shape[3])
    cols = im2col(xb, spec.kernel_size, spec.stride, spec.padding)
    kk = cols.shape[1]
    w_grouped = w_p.reshape(G, c_out // G, kk // G)
    p = np.matmul(w_grouped, cols.reshape(n, G, kk // G, ho * wo)).reshape(n, c_out, ho, wo)
    w = assemble_dense_weight(w_p, w_r, G).reshape(c_out, kk)
    full = p if G == 1 else np.matmul(w, cols).reshape(n, c_out, ho, wo)
    return cols, w, p, full


def cg_block_forward_inference(x, params: CgBlockParams, cfg: CgLayerConfig):
    """Gated inference forward pass.

    Returns (y, DecisionMap). Where the effective decision is 0 the output
    is f(BN1(base partial sum)); where it is 1 it is f(BN2(full sum)). The
    channel-wise gate zeroes whole channels' conditional work and their
    W_r accesses. Decision maps refer to pre-shuffle channel order.

    One padded im2col of the input feeds two GEMMs: the base partial sums
    (one batched matmul of each output group's W_p rows against its input
    group's rows) and the full sum (the dense kernel reassembled from
    W_p and W_r). The full sum is computed at every position and selected
    afterwards, so the skipped conditional MACs are accounted by
    ``analysis.count_flops`` but not skipped on the CPU. It runs on whatever
    running stats the block holds; ``Network.forward_infer`` checks that
    they are frozen.
    """
    xb, batched = _as_batch(x)
    _, _, p, full = shared_im2col_sums(xb, params.w_p, params.w_r, cfg.conv, cfg.groups)
    d = merged_gate(p, params, cfg)
    mask = channel_gate(d, cfg.tau_c) if cfg.tau_c > 0.0 else np.ones(d.shape[:2])
    dm = DecisionMap(d, mask)
    # with tau_c == 0 every channel is kept, so d is already the effective map
    d_eff = dm.effective() if cfg.tau_c > 0.0 else d

    pre, _ = bn_forward(p, params.bn1)
    np.copyto(pre, bn_forward(full, params.bn2)[0], where=d_eff == 1.0)
    y = activation(pre, cfg.activation)
    if cfg.shuffle:
        y = channel_shuffle(y, cfg.groups)
    if not batched:
        y = y[0]
        dm = DecisionMap(dm.d[0], dm.channel_mask[0])
    return y, dm
