"""Shared independent oracles for the test suite.

These stay deliberately dumb (loops, central differences, one convolution
per path) so they never share code with the implementation paths they
check.
"""

import numpy as np

from cgnet import gating, nn, training


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


def conv2d_reference(x, w, spec):
    """Naive direct-loop grouped convolution; the oracle for ``nn.conv2d``."""
    xb, batched = nn._as_batch(x)
    n, c, h, wd = xb.shape
    k, s, p, g = spec.kernel_size, spec.stride, spec.padding, spec.groups
    ho, wo = spec.out_hw(h, wd)
    cg_in = c // g
    cg_out = spec.out_channels // g
    y = np.zeros((n, spec.out_channels, ho, wo))
    for ni in range(n):
        for oc in range(spec.out_channels):
            gi = oc // cg_out
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cg_in):
                        for ky in range(k):
                            for kx in range(k):
                                iy = oy * s + ky - p
                                ix = ox * s + kx - p
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += (xb[ni, gi * cg_in + ic, iy, ix]
                                            * w[oc, ic, ky, kx])
                    y[ni, oc, oy, ox] = acc
    return y if batched else y[0]


def bn_inference_affine(st):
    """Per-channel (scale, shift) of the frozen-stats BN transform."""
    scale = st.gamma / np.sqrt(st.running_var + st.eps)
    return scale, st.beta - st.running_mean * scale


def split_grouped(x, G):
    """Per-output-group views (x_p^i, x_r^i) of the input channels: input
    group i and, in ascending order, all the others."""
    xb, batched = nn._as_batch(x)
    c_in = xb.shape[1]
    if c_in % G:
        raise nn.ConfigurationError(f"{c_in} input channels not divisible by G={G}")
    out = []
    for i in range(G):
        xp = xb[:, gating.base_indices(c_in, G, i)]
        xr = xb[:, gating.complement_indices(c_in, G, i)]
        out.append((xp, xr) if batched else (xp[0], xr[0]))
    return out


def pruning_ratio(dm):
    """Fraction of output activations whose conditional path is skipped."""
    return float(1.0 - dm.effective().mean())


def conditional_weight_scatter(w_r, G, c_in):
    """Embed W_r into a dense (c_out, c_in, k, k) kernel with zero blocks at
    each output group's base columns; conv with it computes the whole
    conditional path in one call."""
    c_out, _, k, _ = w_r.shape
    w = np.zeros((c_out, c_in, k, k))
    cpg_out = c_out // G
    for i in range(G):
        rows = slice(i * cpg_out, (i + 1) * cpg_out)
        w[rows][:, gating.complement_indices(c_in, G, i)] = w_r[rows]
    return w


def dense_masked_block_forward(x, params, cfg):
    """Gated inference computed the slow, obvious way.

    The base partial sum is a grouped ``conv2d`` on W_p, the conditional
    path a dense ``conv2d`` on W_r scattered into a kernel with zero blocks
    at each output group's base columns. The gate compares the partial sum
    with ``delta*sqrt(var+eps)+mean`` of the frozen gate statistics (both
    band edges for a two-sided gate); both BN branches are evaluated
    everywhere and ``np.where`` selects between them. Returns (y,
    DecisionMap, costs), with costs a dict keyed by ``CostLine`` field
    names, counted here from the decisions.
    """
    xb, batched = nn._as_batch(x)
    spec = cfg.conv
    G = cfg.groups
    c_in, c_out, k = spec.in_channels, spec.out_channels, spec.kernel_size
    grouped = nn.ConvSpec(c_in, c_out, k, spec.stride, spec.padding, groups=G)
    p = nn.conv2d(xb, params.w_p, grouped)
    n, _, ho, wo = p.shape
    if c_in - c_in // G:
        r = nn.conv2d(xb, conditional_weight_scatter(params.w_r, G, c_in), spec)
    else:
        r = np.zeros_like(p)

    gate, bn1 = params.gate, params.bn1
    sigma = np.sqrt(bn1.running_var + bn1.eps)

    def threshold(delta):
        return (delta * sigma + bn1.running_mean)[:, None, None]

    if cfg.gate == "single_sided":
        take = p >= threshold(gate.delta)
    else:
        take = (p >= threshold(gate.delta_low)) & (p <= threshold(gate.delta_high))
    d = take.astype(np.float64)
    if cfg.tau_c > 0.0:
        mask = (d.sum(axis=(2, 3)) >= cfg.tau_c * ho * wo).astype(np.float64)
    else:
        mask = np.ones((n, c_out))
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
    costs = {
        "base_flops": acts * base_in * k2,
        "conditional_flops_executed": int(d_eff.sum()) * cond_in * k2,
        "conditional_flops_total": acts * cond_in * k2,
        "gate_comparisons": acts * two + n * c_out * channel,
        "weight_values_accessed": (n * c_out * base_in * k2
                                   + int(mask.sum()) * cond_in * k2),
        "weight_values_total": n * c_out * c_in * k2,
    }
    dm = gating.DecisionMap(d, mask) if batched else gating.DecisionMap(d[0], mask[0])
    return (y if batched else y[0]), dm, costs


def _masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_conv_block_train(x, params, cfg, dy, soft_gate=False):
    """Training forward and backward of a gated block, computed with two
    convolutions.

    The base partial sum is a grouped ``conv2d_forward`` on W_p and the
    conditional sum a dense one on W_r scattered into a kernel with zero
    blocks; BN1, BN2 and the gate normalizer each run their own
    ``bn_forward`` and ``batchnorm_backward``, the gate normalizer on a copy
    of BN1's state, whose statistics it shares; each convolution has its own
    ``conv2d_backward``, and dW_r is gathered from the dense kernel's
    gradient. Updates the running stats of ``params``. Returns (y, d,
    CgBlockGrads) for upstream gradient ``dy``.
    """
    xb, _ = nn._as_batch(x)
    spec = cfg.conv
    G = cfg.groups
    c_in = spec.in_channels
    base_spec = nn.ConvSpec(c_in, spec.out_channels, spec.kernel_size,
                            spec.stride, spec.padding, groups=G)
    p, ctx_p = nn.conv2d_forward(xb, params.w_p, base_spec)
    if c_in - c_in // G:
        r, ctx_r = nn.conv2d_forward(xb, conditional_weight_scatter(params.w_r, G, c_in),
                                     spec)
    else:
        r, ctx_r = np.zeros_like(p), None
    full = p + r

    xhat_g, bng_ctx = nn.bn_forward(p, params.bn1.copy(), training=True, affine=False)
    xhat_p, bn1_ctx = nn.bn_forward(p, params.bn1, training=True)
    xhat_full, bn2_ctx = nn.bn_forward(full, params.bn2, training=True)

    def pc(v):
        return np.asarray(v)[:, None, None]

    def step(v):
        return (v >= 0.0).astype(np.float64)

    eps = cfg.epsilon
    gate = params.gate
    if cfg.gate == "single_sided":
        d = step(xhat_g - pc(gate.delta))
        s = _masked_sigmoid(eps * (xhat_g - pc(gate.delta)))
        stilde = s
    else:
        d = step(pc(gate.delta_high) - xhat_g) * step(xhat_g - pc(gate.delta_low))
        a = _masked_sigmoid(eps * (pc(gate.delta_high) - xhat_g))
        b = _masked_sigmoid(eps * (xhat_g - pc(gate.delta_low)))
        stilde = a * b
    mask = stilde if soft_gate else d
    pre = (1.0 - mask) * xhat_p + mask * xhat_full
    y = nn.activation(pre, cfg.activation)

    dpre = nn._as_batch(dy)[0] * nn.activation_grad(pre, cfg.activation)
    dxhat_p = dpre * (1.0 - mask)
    dxhat_full = dpre * mask
    ds = dpre * (xhat_full - xhat_p)
    if cfg.gate == "single_sided":
        dsig = eps * s * (1.0 - s)
        dxhat_g = ds * dsig
        ddelta = -(ds * dsig).sum(axis=(0, 2, 3))
        ddelta_high = ddelta_low = None
    else:
        dxhat_g = ds * (eps * a * b * (a - b))
        ddelta_high = (ds * (eps * a * (1.0 - a) * b)).sum(axis=(0, 2, 3))
        ddelta_low = (ds * (-eps * a * b * (1.0 - b))).sum(axis=(0, 2, 3))
        ddelta = None

    dp1, dg1, db1 = nn.batchnorm_backward(bn1_ctx, dxhat_p)
    dfull, dg2, db2 = nn.batchnorm_backward(bn2_ctx, dxhat_full)
    dpg, _, _ = nn.batchnorm_backward(bng_ctx, dxhat_g)
    dx, dw_p = nn.conv2d_backward(ctx_p, dp1 + dpg + dfull)
    dw_r = np.zeros_like(params.w_r)
    if ctx_r is not None:
        dx_cond, dw_cond = nn.conv2d_backward(ctx_r, dfull)
        dx = dx + dx_cond
        cpg_out = spec.out_channels // G
        for i in range(G):
            rows = slice(i * cpg_out, (i + 1) * cpg_out)
            dw_r[rows] = dw_cond[rows][:, gating.complement_indices(c_in, G, i)]
    grads = training.CgBlockGrads(dw_p, dw_r, dg1 + dg2, db1 + db2, ddelta,
                                  ddelta_high, ddelta_low, dx)
    return y, d, grads
