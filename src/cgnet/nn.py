"""Minimal numeric substrate for the channel gating engine.

Dense and grouped 2-D convolution via im2col (the test suite checks it
against a naive direct-loop oracle), batch normalization, activations,
pooling, fully-connected layers, softmax / cross-entropy, and SGD with
momentum.

Conventions:
  * everything is float64 numpy;
  * a feature map is (channel, height, width), a batch is
    (batch, channel, height, width); most entry points accept either
    and treat rank-3 input as a batch of one;
  * conv weights are (out_channel, in_channel/groups, kh, kw), row
    major, so channel groups are contiguous slices;
  * convolutions carry no bias (batch normalization absorbs it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ConfigurationError(ValueError):
    """Shapes or hyperparameters are inconsistent."""


class DegenerateInputError(ValueError):
    """Input has no elements along the axes a statistic needs."""


class StateError(RuntimeError):
    """Operation invoked in the wrong state (e.g. stats not frozen)."""


ACTIVATION_KINDS = ("relu", "tanh", "sigmoid", "binary_sign", "identity")


def _as_batch(x):
    """Promote (c,h,w) to (1,c,h,w); return (batch, was_batched)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        return x[None], False
    if x.ndim == 4:
        return x, True
    raise ConfigurationError(f"expected rank-3 or rank-4 feature tensor, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvSpec:
    """Static shape description of one 2-D convolution."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        for name in ("in_channels", "out_channels", "kernel_size", "stride", "groups"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"ConvSpec.{name} must be >= 1, got {getattr(self, name)}")
        if self.padding < 0:
            raise ConfigurationError(f"ConvSpec.padding must be >= 0, got {self.padding}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigurationError(
                f"channels ({self.in_channels} in, {self.out_channels} out) "
                f"not divisible by groups={self.groups}")

    def out_hw(self, h, w):
        ho = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        wo = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ConfigurationError(
                f"conv output would be {ho}x{wo} for input {h}x{w} (spec {self})")
        return ho, wo

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel_size, self.kernel_size)


@dataclass
class ConvCtx:
    spec: ConvSpec
    w: np.ndarray
    cols: list            # per group: (n, cg_in*k*k, ho*wo)
    x_shape: tuple
    out_hw: tuple


def _check_conv(x, w, spec):
    if x.shape[1] != spec.in_channels:
        raise ConfigurationError(
            f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if w.shape != spec.weight_shape:
        raise ConfigurationError(
            f"weight shape {w.shape} does not match spec {spec.weight_shape}")


def im2col(x, k, stride=1, padding=0):
    """Zero-pad (n, c, h, w) by ``padding`` on each side and lay out every
    k x k window as one column: returns (n, c*k*k, ho*wo) with rows ordered
    (channel, ky, kx), so a channel group's rows are a contiguous slice."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    n, c, hp, wp = xp.shape
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (n, c, k, k, ho, wo),
                     (sn, sc, sh, sw, stride * sh, stride * sw))
    return np.ascontiguousarray(win).reshape(n, c * k * k, ho * wo)


def col2im(dcols, x_shape, k, stride=1, padding=0):
    """Adjoint of ``im2col``: scatter-add (n, c*k*k, ho*wo) column gradients
    back onto the (n, c, h, w) input they were read from. ``dcols`` may be
    any strided view with that shape."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    dx = np.zeros((n, c, hp, wp))
    dc = dcols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dc[:, :, i, j]
    return dx[:, :, padding:hp - padding, padding:wp - padding] if padding else dx


def conv2d_forward(x, w, spec: ConvSpec):
    """Grouped 2-D cross-correlation via im2col; returns (y, ctx) batched."""
    xb, _ = _as_batch(x)
    w = np.asarray(w, dtype=np.float64)
    _check_conv(xb, w, spec)
    n, c, h, wd = xb.shape
    k, s, p, g = spec.kernel_size, spec.stride, spec.padding, spec.groups
    ho, wo = spec.out_hw(h, wd)
    cg_in = c // g
    cg_out = spec.out_channels // g
    y = np.empty((n, spec.out_channels, ho * wo))
    cols = []
    for gi in range(g):
        cg = im2col(xb[:, gi * cg_in:(gi + 1) * cg_in], k, s, p)
        wm = w[gi * cg_out:(gi + 1) * cg_out].reshape(cg_out, -1)
        y[:, gi * cg_out:(gi + 1) * cg_out] = np.matmul(wm, cg)
        cols.append(cg)
    ctx = ConvCtx(spec, w, cols, xb.shape, (ho, wo))
    return y.reshape(n, spec.out_channels, ho, wo), ctx


def conv2d(x, w, spec: ConvSpec):
    """Grouped 2-D cross-correlation. Accepts (c,h,w) or (n,c,h,w)."""
    xb, batched = _as_batch(x)
    y, _ = conv2d_forward(xb, w, spec)
    return y if batched else y[0]


def conv2d_backward(ctx: ConvCtx, dy):
    """Gradients of conv2d; returns (dx, dw)."""
    if ctx.cols is None:
        raise StateError("conv backward called without a cached forward context")
    spec = ctx.spec
    n = ctx.x_shape[0]
    k, g = spec.kernel_size, spec.groups
    ho, wo = ctx.out_hw
    cg_in = spec.in_channels // g
    cg_out = spec.out_channels // g
    dyb = np.asarray(dy, dtype=np.float64).reshape(n, spec.out_channels, ho * wo)
    dw = np.empty_like(ctx.w)
    dx = np.empty(ctx.x_shape)
    group_shape = (n, cg_in) + tuple(ctx.x_shape[2:])
    for gi in range(g):
        dym = dyb[:, gi * cg_out:(gi + 1) * cg_out]
        cols = ctx.cols[gi]
        dw[gi * cg_out:(gi + 1) * cg_out] = (
            np.tensordot(dym, cols, ([0, 2], [0, 2])).reshape(cg_out, cg_in, k, k))
        wm = ctx.w[gi * cg_out:(gi + 1) * cg_out].reshape(cg_out, -1)
        dx[:, gi * cg_in:(gi + 1) * cg_in] = col2im(
            np.matmul(wm.T, dym), group_shape, k, spec.stride, spec.padding)
    return dx, dw


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-channel batch-norm parameters and running statistics.

    Running stats update as  running <- momentum*running + (1-momentum)*batch.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5

    def __post_init__(self):
        c = len(self.gamma)
        for name in ("beta", "running_mean", "running_var"):
            if len(getattr(self, name)) != c:
                raise ConfigurationError(f"BatchNormState.{name} length != channel count {c}")
        if not 0.0 < self.momentum < 1.0:
            raise ConfigurationError("BatchNormState.momentum must be in (0,1)")
        if np.any(self.running_var < 0):
            raise ConfigurationError("BatchNormState.running_var entries must be >= 0")

    @classmethod
    def create(cls, channels, momentum=0.9, eps=1e-5):
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels), momentum, eps)

    def copy(self):
        return BatchNormState(self.gamma.copy(), self.beta.copy(),
                              self.running_mean.copy(), self.running_var.copy(),
                              self.momentum, self.eps)


@dataclass
class BnCtx:
    xhat: np.ndarray
    inv_std: np.ndarray       # (c,)
    gamma: np.ndarray | None  # None when affine=False
    count: int
    mean: np.ndarray          # (c,) batch mean
    var: np.ndarray           # (c,) biased batch variance


def _per_channel(v):
    return np.asarray(v)[:, None, None]


def bn_forward(x, st: BatchNormState, training=False, affine=True):
    """Batch normalization over (n|,c,h,w); returns (y, ctx).

    Training mode normalizes with the batch statistics, folds them into the
    running stats and returns the ``BnCtx`` the backward needs. Inference
    applies, per channel and in exactly this order,
    ``(x - mean) * scale + shift`` with ``scale = gamma / sqrt(var + eps)``
    (gamma omitted when affine=False) and returns ctx None; the scalar
    oracle in the tests mirrors that sequence.
    """
    xb, batched = _as_batch(x)
    if xb.shape[1] != len(st.gamma):
        raise ConfigurationError(
            f"input has {xb.shape[1]} channels, BN state has {len(st.gamma)}")
    ctx = None
    if training:
        n, c, h, w = xb.shape
        count = n * h * w
        if count == 0:
            raise DegenerateInputError("batch normalization over zero elements per channel")
        mean = xb.mean(axis=(0, 2, 3))
        # the centred batch gives the variance and, scaled in place, xhat
        xhat = xb - _per_channel(mean)
        var = (xhat * xhat).mean(axis=(0, 2, 3))
        m = st.momentum
        st.running_mean[:] = m * st.running_mean + (1.0 - m) * mean
        st.running_var[:] = m * st.running_var + (1.0 - m) * var
        inv_std = 1.0 / np.sqrt(var + st.eps)
        xhat *= _per_channel(inv_std)
        y = _per_channel(st.gamma) * xhat + _per_channel(st.beta) if affine else xhat
        ctx = BnCtx(xhat, inv_std, st.gamma if affine else None, count, mean, var)
    else:
        scale = 1.0 / np.sqrt(st.running_var + st.eps)
        if affine:
            scale = st.gamma / np.sqrt(st.running_var + st.eps)
        shift = st.beta if affine else np.zeros_like(st.running_mean)
        y = xb - _per_channel(st.running_mean)
        y *= _per_channel(scale)
        y += _per_channel(shift)
    return (y if batched else y[0]), ctx


def batchnorm_backward(ctx: BnCtx, dy):
    """Gradients through training-mode BN; returns (dx, dgamma, dbeta).

    With s = gamma*inv_std (inv_std alone when affine=False) and m elements
    per channel: dx = s * (dy - sum(dy)/m - xhat*sum(dy*xhat)/m).
    """
    if ctx is None:
        raise StateError("BN backward called without a cached forward context")
    dyb, _ = _as_batch(dy)
    axes = (0, 2, 3)
    m = float(ctx.count)
    sum_dy = dyb.sum(axis=axes)
    sum_dy_xhat = (dyb * ctx.xhat).sum(axis=axes)
    scale = ctx.inv_std if ctx.gamma is None else ctx.gamma * ctx.inv_std
    dx = dyb * _per_channel(scale)
    dx -= _per_channel(scale * sum_dy / m)
    dx -= ctx.xhat * _per_channel(scale * sum_dy_xhat / m)
    if ctx.gamma is None:
        return dx, None, None
    return dx, sum_dy_xhat, sum_dy


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def sigmoid(z):
    """Logistic function as 0.5 + 0.5*tanh(z/2): no overflow for any z."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(z, dtype=np.float64))


def activation(x, kind):
    """Elementwise activation. binary_sign maps x >= 0 to +1, else -1."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "binary_sign":
        return np.where(x >= 0.0, 1.0, -1.0)
    if kind == "identity":
        return x.copy()
    raise ConfigurationError(f"unknown activation kind {kind!r}")


def activation_grad(pre, kind):
    """f'(pre). binary_sign uses the straight-through clip window |x| <= 1."""
    pre = np.asarray(pre, dtype=np.float64)
    if kind == "relu":
        return (pre > 0.0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    if kind == "sigmoid":
        s = sigmoid(pre)
        return s * (1.0 - s)
    if kind == "binary_sign":
        return (np.abs(pre) <= 1.0).astype(np.float64)
    if kind == "identity":
        return np.ones_like(pre)
    raise ConfigurationError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# Pooling (kernel == stride, spatial dims divisible; enough for the nets here)
# ---------------------------------------------------------------------------

@dataclass
class PoolCtx:
    kind: str
    k: int
    in_shape: tuple
    argmax: np.ndarray | None


def _pool_windows(xb, k):
    n, c, h, w = xb.shape
    if h % k or w % k:
        raise ConfigurationError(f"pooling needs spatial dims divisible by {k}, got {h}x{w}")
    ho, wo = h // k, w // k
    return xb.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, ho, wo, k * k), ho, wo


def maxpool2d_forward(x, k=2):
    xb, _ = _as_batch(x)
    win, ho, wo = _pool_windows(xb, k)
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return y, PoolCtx("max", k, xb.shape, idx)


def avgpool2d_forward(x, k=2):
    xb, _ = _as_batch(x)
    win, ho, wo = _pool_windows(xb, k)
    return win.mean(axis=-1), PoolCtx("avg", k, xb.shape, None)


def pool2d_backward(ctx: PoolCtx, dy):
    n, c, h, w = ctx.in_shape
    k = ctx.k
    ho, wo = h // k, w // k
    dwin = np.zeros((n, c, ho, wo, k * k))
    dyb = np.asarray(dy, dtype=np.float64)
    if ctx.kind == "max":
        np.put_along_axis(dwin, ctx.argmax[..., None], dyb[..., None], axis=-1)
    else:
        dwin += dyb[..., None] / (k * k)
    return dwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


# ---------------------------------------------------------------------------
# Fully connected / losses
# ---------------------------------------------------------------------------

def linear_forward(x, w):
    """x: (n, f_in), w: (f_out, f_in); no bias (BN convention)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ConfigurationError(f"linear shapes mismatch: x {x.shape}, w {w.shape}")
    return x @ w.T, x


def linear_backward(ctx_x, w, dy):
    dy = np.asarray(dy, dtype=np.float64)
    return dy @ w, dy.T @ ctx_x


def softmax(logits, temperature=1.0):
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -logp[np.arange(n), labels].mean()
    d = np.exp(logp)
    d[np.arange(n), labels] -= 1.0
    return loss, d / n


def accuracy(logits, labels):
    return float((np.argmax(logits, axis=-1) == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def sgd_step(params, grads, velocities, lr, momentum=0.0, weight_decay=0.0):
    """In-place SGD with momentum:
    v <- momentum*v + grad + weight_decay*param;  param <- param - lr*v.
    """
    if not (len(params) == len(grads) == len(velocities)):
        raise ConfigurationError("params/grads/velocities length mismatch")
    for p, g, v in zip(params, grads, velocities):
        if p.shape != g.shape or p.shape != v.shape:
            raise ConfigurationError(f"sgd shape mismatch: {p.shape} vs {g.shape} vs {v.shape}")
        v *= momentum
        v += g
        if weight_decay:
            v += weight_decay * p
        p -= lr * v
    return params
