"""Shared independent oracles for the test suite.

These stay deliberately dumb (loops, central differences, one convolution
per path) so they never share code with the implementation paths they
check.
"""

import numpy as np

from cgnet import gating, nn


def finite_difference(f, x, step=1e-3):
    """Central-difference gradient of scalar f with respect to array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return g


def rel_err(a, b, floor=1e-8):
    """Norm-level relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / denom


def check_grad(f, x, analytic, step=1e-3, tol=1e-3):
    """Assert the analytic gradient matches central differences of f."""
    num = finite_difference(f, x, step)
    err = rel_err(num, analytic)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err


def pearson(a, b):
    """Plain two-pass Pearson correlation of two flat samples."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    am = a - a.mean()
    bm = b - b.mean()
    return float((am @ bm) / np.sqrt((am @ am) * (bm @ bm)))


def dense_masked_block_forward(x, params, cfg):
    """Gated inference computed the slow, obvious way.

    The base partial sum is a grouped ``conv2d`` on W_p, the conditional
    path a dense ``conv2d`` on W_r scattered into a kernel with zero blocks
    at each output group's base columns; both BN branches are evaluated
    everywhere and ``np.where`` selects between them. Returns
    (y, DecisionMap, CgLayerCost) like ``cg_block_forward_inference``.
    """
    xb, batched = nn._as_batch(x)
    spec = cfg.conv
    G = cfg.groups
    c_in, c_out, k = spec.in_channels, spec.out_channels, spec.kernel_size
    grouped = nn.ConvSpec(c_in, c_out, k, spec.stride, spec.padding, groups=G)
    p = nn.conv2d(xb, params.w_p, grouped)
    n, _, ho, wo = p.shape
    if c_in - c_in // G:
        r = nn.conv2d(xb, gating.conditional_weight_scatter(params.w_r, G, c_in), spec)
    else:
        r = np.zeros_like(p)

    d = gating.merged_gate(p, params.gate, cfg)
    mask = gating.channel_gate(d, cfg.tau_c) if cfg.tau_c > 0.0 else np.ones((n, c_out))
    d_eff = d * mask[..., None, None]

    def bn(v, st):
        scale = params.gamma / np.sqrt(st.running_var + st.eps)
        return ((v - st.running_mean[:, None, None]) * scale[:, None, None]
                + params.beta[:, None, None])

    pre = np.where(d_eff == 1.0, bn(p + r, params.bn2), bn(p, params.bn1))
    y = nn.activation(pre, cfg.activation)
    if cfg.shuffle:
        y = gating.channel_shuffle(y, G)

    two = 2 if cfg.gate == "two_sided" else 1
    channel = 1 if cfg.tau_c > 0.0 else 0
    k2 = k * k
    base_in, cond_in = c_in // G, c_in - c_in // G
    acts = n * c_out * ho * wo
    cost = gating.CgLayerCost(
        base_macs=acts * base_in * k2,
        cond_macs_executed=int(d_eff.sum()) * cond_in * k2,
        cond_macs_total=acts * cond_in * k2,
        dense_macs=acts * c_in * k2,
        comparisons=acts * two + n * c_out * channel,
        thresholds=c_out * two + channel,
        weight_values_accessed=(n * c_out * base_in * k2
                                + int(mask.sum()) * cond_in * k2),
        weight_values_total=n * c_out * c_in * k2,
        n_samples=n)
    dm = gating.DecisionMap(d, mask) if batched else gating.DecisionMap(d[0], mask[0])
    return (y if batched else y[0]), dm, cost
