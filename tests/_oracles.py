"""Shared independent oracles for the test suite.

These stay deliberately dumb (loops, central differences, one convolution
per path) so they never share code with the implementation paths they
check.
"""

import copy

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


# ---------------------------------------------------------------------------
# Exactness tiers of gated outputs: one helper per tier
# ---------------------------------------------------------------------------

EPS = np.finfo(np.float64).eps


def assert_tier_a(got, want):
    """Tier (a): decisions bitwise equal, for a path whose gate input comes
    from an unchanged GEMM."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (got.shape, want.shape)
    bad = np.count_nonzero(got != want)
    assert bad == 0, f"tier (a): {bad} of {want.size} decisions differ"


def assert_tier_b(got, want, magnitude, c):
    """Tier (b): each output within c*eps of the sum of its terms'
    magnitudes, ``magnitude``. A K-term GEMM checked
    against a reference that also rounds its sum takes c ~ 2*(K + 2); one
    whose reference sums exactly, c ~ 4."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    bound = c * EPS * np.asarray(magnitude)
    bad = ~(err <= bound)
    assert not bad.any(), (f"tier (b): {np.count_nonzero(bad)} outputs exceed {c} eps of their "
                           f"terms' magnitudes; worst excess {np.max(err - bound):.3e}")


def tier_c_flips(got, want, x, threshold, bound):
    """Tier (c): decisions ``got`` equal ``want`` wherever the gate input
    ``x`` lies farther than ``bound``, its rounding bound, from its
    ``threshold`` (both broadcast against x); returns the count of flips
    inside that margin, which the caller reports."""
    got, want = np.asarray(got), np.asarray(want)
    flips = got != want
    outside = np.abs(np.asarray(x) - threshold) > bound
    bad = np.count_nonzero(flips & outside)
    assert bad == 0, f"tier (c): {bad} decisions flipped outside the rounding margin"
    return int(np.count_nonzero(flips))


def heaviside(x):
    """theta(x): 1.0 where x >= 0, else 0.0 (boundary inclusive)."""
    return (np.asarray(x, dtype=np.float64) >= 0.0).astype(np.float64)


def pearson(a, b):
    """Plain two-pass Pearson correlation of two flat samples."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    am = a - a.mean()
    bm = b - b.mean()
    return float((am @ bm) / np.sqrt((am @ am) * (bm @ bm)))


def conv2d_reference(x, w, spec):
    """Naive direct-loop grouped convolution of an (n, c, h, w) batch; the
    oracle for ``nn.conv2d``."""
    xb = np.asarray(x, dtype=np.float64)
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
    return y


def col2im_reference(dcols, x_shape, k, stride, padding):
    """Scalar scatter of im2col's column gradients into zeros: the entry at
    row (channel, ky, kx) and column (y, x, sample) adds into
    dx[sample, channel, stride*y + ky - padding, stride*x + kx - padding]
    when that lies inside the input, taps in (ky, kx) order."""
    n, c, h, w = x_shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    dx = np.zeros(x_shape)
    for ch in range(c):
        for ky in range(k):
            for kx in range(k):
                row = (ch * k + ky) * k + kx
                for oy in range(ho):
                    iy = stride * oy + ky - padding
                    if not 0 <= iy < h:
                        continue
                    for ox in range(wo):
                        ix = stride * ox + kx - padding
                        if not 0 <= ix < w:
                            continue
                        for s in range(n):
                            dx[s, ch, iy, ix] += dcols[row, (oy * wo + ox) * n + s]
    return dx


def maxpool2d_reference(x, k):
    """Max pooling by copying every k x k window into a last axis of length
    k*k (a transposed reshape), then ``argmax`` and ``take_along_axis``:
    ties go to the first window position. Returns (y, argmax)."""
    xb = np.asarray(x, dtype=np.float64)
    n, c, h, w = xb.shape
    ho, wo = h // k, w // k
    win = xb.reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, ho, wo, k * k)
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return y, idx


def maxpool2d_backward_reference(argmax, in_shape, k, dy):
    """Input gradient of ``maxpool2d_reference``: ``put_along_axis`` of dy
    at each window's argmax into zeros, then the reshape transposed back."""
    n, c, h, w = in_shape
    ho, wo = h // k, w // k
    dwin = np.zeros((n, c, ho, wo, k * k))
    dyb = np.asarray(dy, dtype=np.float64)
    np.put_along_axis(dwin, argmax[..., None], dyb[..., None], axis=-1)
    return dwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def bn_inference_affine(st):
    """Per-channel (scale, shift) of the frozen-stats BN transform."""
    scale = st.gamma / np.sqrt(st.running_var + st.eps)
    return scale, st.beta - st.running_mean * scale


def pruning_ratio(dm):
    """Fraction of output activations whose conditional path is skipped."""
    return float(1.0 - dm.effective().mean())


def kernel_split(w, G):
    """(W_p, W_r) of a dense (c_out, c_in, k, k) kernel by plain slicing:
    output group i's rows over input group i's channels, and over the other
    input groups in ascending order."""
    c_out, c_in = w.shape[:2]
    cpo, cpi = c_out // G, c_in // G
    w_p, w_r = [], []
    for i in range(G):
        rows = w[i * cpo:(i + 1) * cpo]
        w_p.append(rows[:, i * cpi:(i + 1) * cpi])
        w_r.append(np.concatenate([rows[:, :i * cpi], rows[:, (i + 1) * cpi:]], axis=1))
    return np.concatenate(w_p), np.concatenate(w_r)


def conditional_kernel(w, G):
    """The dense kernel with each output group's base block zeroed; conv
    with it computes the whole conditional path in one call."""
    c_out, c_in = w.shape[:2]
    cpo, cpi = c_out // G, c_in // G
    wc = w.copy()
    for i in range(G):
        wc[i * cpo:(i + 1) * cpo, i * cpi:(i + 1) * cpi] = 0.0
    return wc


def stacked_conv_grads(cols, w, dfull, dp, G, x_shape, spec):
    """Weight and input gradients of the training block's two sums over one
    im2col ``cols``, full = W @ cols and p = blockdiag(W_p) @ cols, from
    their (c_out, ho*wo*n) upstream gradients ``dfull`` and ``dp``, in the
    stacked form: the upstreams stacked as one (2*c_out, ho*wo*n) operand,
    one GEMM against ``cols`` whose second half keeps only W_p's diagonal
    blocks, added into the first, and one GEMM against the stacked kernel
    [W; blockdiag(W_p)], zero off those blocks, scattered back by
    ``col2im_reference``. Returns (dw, dx)."""
    c_out, kk = dfull.shape[0], cols.shape[0]
    cpo, cpi = c_out // G, kk // G
    stacked = np.concatenate([dfull, dp])
    dw = (cols @ stacked.T).T.reshape(2, c_out, kk)
    kernel = np.zeros((2, c_out, kk))
    kernel[0] = w.reshape(c_out, kk)
    for i in range(G):
        rows, ins = slice(i * cpo, (i + 1) * cpo), slice(i * cpi, (i + 1) * cpi)
        dw[0, rows, ins] += dw[1, rows, ins]
        kernel[1, rows, ins] = kernel[0, rows, ins]
    dcols = kernel.reshape(2 * c_out, kk).T @ stacked
    dx = col2im_reference(dcols, x_shape, spec.kernel_size, spec.stride, spec.padding)
    return dw[0].reshape(w.shape), dx


def group_positions_live(d_eff, G):
    """(live, total) over the (sample, output group, y, x) triples of the
    effective decisions ``d_eff``: a triple is live when any channel of
    the group takes the conditional path there. One triple at a time."""
    n, c_out, ho, wo = d_eff.shape
    per = c_out // G
    live = total = 0
    for s in range(n):
        for g in range(G):
            for y in range(ho):
                for x in range(wo):
                    total += 1
                    live += any(d_eff[s, g * per + j, y, x] != 0 for j in range(per))
    return live, total


def block_inference(x, params, cfg):
    """``gating.cg_block_forward_inference`` on a plan built for this call,
    as a gated layer builds its own on its first ``forward_infer``."""
    return gating.cg_block_forward_inference(x, params, cfg, gating.inference_plan(params, cfg))


def dense_masked_block_forward(x, params, cfg):
    """Gated inference of an (n, c, h, w) batch computed the slow, obvious
    way.

    The base partial sum is a grouped ``conv2d`` on W_p sliced from the
    dense kernel, the conditional path a dense ``conv2d`` on the kernel with
    each output group's base block zeroed. The gate compares the partial sum
    with ``delta*sqrt(var+eps)+mean`` of the frozen gate statistics (both
    band edges for a two-sided gate); both BN branches are evaluated
    everywhere and ``np.where`` selects between them. Returns (y, a bool
    DecisionMap, costs), with costs a dict keyed by ``CostLine`` field
    names, counted here from the decisions as float64.
    """
    xb = np.asarray(x, dtype=np.float64)
    spec = cfg.conv
    G = cfg.groups
    c_in, c_out, k = spec.in_channels, spec.out_channels, spec.kernel_size
    grouped = nn.ConvSpec(c_in, c_out, k, spec.stride, spec.padding, groups=G)
    p = nn.conv2d(xb, kernel_split(params.w, G)[0], grouped)
    n, _, ho, wo = p.shape
    if c_in - c_in // G:
        r = nn.conv2d(xb, conditional_kernel(params.w, G), spec)
    else:
        r = np.zeros_like(p)

    gate, bn1 = params.gate, params.bn1
    sigma = np.sqrt(bn1.running_var + bn1.eps)

    def threshold(delta):
        return (delta * sigma + bn1.running_mean)[:, None, None]

    if cfg.two_sided:
        take = (p >= threshold(gate.delta_low)) & (p <= threshold(gate.delta_high))
    else:
        take = p >= threshold(gate.delta)
    d = take.astype(np.float64)
    if cfg.tau_c > 0.0:
        mask = (d.sum(axis=(2, 3)) >= cfg.tau_c * (ho * wo)).astype(np.float64)
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

    two = 2 if cfg.two_sided else 1
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
    costs["group_positions_live"], costs["group_positions_total"] = \
        group_positions_live(d_eff, G)
    return y, gating.DecisionMap(d_eff == 1.0, mask == 1.0), costs


def activation_fprime(pre, kind):
    """f'(pre) of ``nn.activation``'s kinds, from pre: bool masks where f'
    is 0 or 1 (binary_sign's straight-through window |pre| <= 1), and for
    tanh and sigmoid 1 - t^2 and (1 - s)*s of their outputs, with sigmoid
    written 0.5 + 0.5*tanh(pre/2) as ``nn.sigmoid`` computes it."""
    pre = np.asarray(pre, dtype=np.float64)
    if kind == "relu":
        return pre > 0.0
    if kind == "binary_sign":
        return np.abs(pre) <= 1.0
    if kind == "identity":
        return np.ones(pre.shape, dtype=bool)
    if kind == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    assert kind == "sigmoid", kind
    s = 0.5 + 0.5 * np.tanh(0.5 * pre)
    return (1.0 - s) * s


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

    The base partial sum is a dense ``conv2d_forward`` on the kernel with
    all but its base blocks zeroed, W minus ``conditional_kernel(W, G)``,
    and the conditional sum one on ``conditional_kernel(W, G)``; BN1, BN2
    and the gate normalizer each run their own ``bn_forward`` and
    ``batchnorm_backward``, the gate normalizer on a copy of BN1's state,
    whose statistics it shares, and without the affine step, which BN1 and
    BN2 apply here; each convolution has its own ``conv2d_backward``. dW
    takes its base blocks from the base convolution's gradient and the
    rest from the conditional one's. Updates the
    running stats of ``params``. Returns (y, d, CgBlockGrads) for upstream
    gradient ``dy``.

    The hard mode's d is the channel-gated map: where a (sample, channel)
    fires at fewer than tau_c of its positions, d is 0 there, counted here
    from the thresholded map. ``soft_gate=True`` combines the two paths
    through the smooth surrogate s~ instead of d, which makes the block
    differentiable, so its gradients can be checked against central
    differences. The soft combine applies no channel gate: the surrogate's
    threshold gradients, which the hard mode uses too, reach a dropped
    channel as they reach any other.
    """
    xb = np.asarray(x, dtype=np.float64)
    spec = cfg.conv
    G = cfg.groups
    c_in = spec.in_channels
    w_c = conditional_kernel(params.w, G)
    p, ctx_p = nn.conv2d_forward(xb, params.w - w_c, spec)
    if c_in - c_in // G:
        r, ctx_r = nn.conv2d_forward(xb, w_c, spec)
    else:
        r, ctx_r = np.zeros_like(p), None
    full = p + r

    def pc(v):
        return np.asarray(v)[:, None, None]

    xhat_g, bng_ctx = nn.bn_forward(p, copy.deepcopy(params.bn1))
    xhat_p, bn1_ctx = nn.bn_forward(p, params.bn1)
    xhat_full, bn2_ctx = nn.bn_forward(full, params.bn2)
    xhat_p = pc(params.bn1.gamma) * xhat_p + pc(params.bn1.beta)
    xhat_full = pc(params.bn2.gamma) * xhat_full + pc(params.bn2.beta)

    def step(v):
        return (v >= 0.0).astype(np.float64)

    eps = cfg.epsilon
    gate = params.gate
    if not cfg.two_sided:
        d = step(xhat_g - pc(gate.delta))
        s = _masked_sigmoid(eps * (xhat_g - pc(gate.delta)))
        stilde = s
    else:
        d = step(pc(gate.delta_high) - xhat_g) * step(xhat_g - pc(gate.delta_low))
        a = _masked_sigmoid(eps * (pc(gate.delta_high) - xhat_g))
        b = _masked_sigmoid(eps * (xhat_g - pc(gate.delta_low)))
        stilde = a * b
    if cfg.tau_c > 0.0:
        ho, wo = d.shape[2:]
        d = d * (d.sum(axis=(2, 3), keepdims=True) >= cfg.tau_c * (ho * wo))
    mask = stilde if soft_gate else d
    pre = (1.0 - mask) * xhat_p + mask * xhat_full
    y = nn.activation(pre, cfg.activation)

    dpre = np.asarray(dy, dtype=np.float64) * activation_fprime(pre, cfg.activation)
    dxhat_p = dpre * (1.0 - mask)
    dxhat_full = dpre * mask
    ds = dpre * (xhat_full - xhat_p)
    if not cfg.two_sided:
        dsig = eps * s * (1.0 - s)
        dxhat_g = ds * dsig
        dthresholds = {"delta": -(ds * dsig).sum(axis=(0, 2, 3))}
    else:
        dxhat_g = ds * (eps * a * b * (a - b))
        dthresholds = {"delta_high": (ds * (eps * a * (1.0 - a) * b)).sum(axis=(0, 2, 3)),
                       "delta_low": (ds * (-eps * a * b * (1.0 - b))).sum(axis=(0, 2, 3))}

    dp1, dg1, db1 = nn.batchnorm_backward(bn1_ctx, dxhat_p, params.bn1.gamma)
    dfull, dg2, db2 = nn.batchnorm_backward(bn2_ctx, dxhat_full, params.bn2.gamma)
    dpg, _, _ = nn.batchnorm_backward(bng_ctx, dxhat_g, np.ones(spec.out_channels))
    dx, dw_p = nn.conv2d_backward(ctx_p, dp1 + dpg + dfull)
    dw = np.zeros_like(params.w)
    if ctx_r is not None:
        dx_cond, dw = nn.conv2d_backward(ctx_r, dfull)
        dx = dx + dx_cond
    cpo, cpi = spec.out_channels // G, c_in // G
    for i in range(G):
        block = (slice(i * cpo, (i + 1) * cpo), slice(i * cpi, (i + 1) * cpi))
        dw[block] = dw_p[block]
    grads = training.CgBlockGrads(dw, dg1 + dg2, db1 + db2, dthresholds, dx)
    return y, d, grads


def synthetic_dataset_reference(num_samples, num_classes=8, image_size=16, channels=1,
                                noise=0.08, max_shift=2, seed=0):
    """(images, labels) of ``data.synthetic_dataset`` by one ``np.roll`` of
    the class template per sample, with the same draws in the same order."""
    rng = np.random.default_rng(seed)
    margin = max(1, image_size // 4)
    window = image_size - 2 * margin
    grid = max(2, window // 2)
    templates = np.zeros((num_classes, channels, image_size, image_size))
    for cls in range(num_classes):
        cells = rng.uniform(0.35, 1.0, (channels, grid, grid))
        cells *= rng.random((channels, grid, grid)) < 0.55
        up = np.repeat(np.repeat(cells, -(-window // grid), axis=1),
                       -(-window // grid), axis=2)[:, :window, :window]
        templates[cls, :, margin:margin + window, margin:margin + window] = up
    labels = rng.integers(0, num_classes, num_samples)
    images = np.empty((num_samples, channels, image_size, image_size))
    shifts = rng.integers(-max_shift, max_shift + 1, (num_samples, 2))
    for i in range(num_samples):
        img = np.roll(templates[labels[i]], tuple(shifts[i]), axis=(1, 2))
        images[i] = img
    images += rng.normal(0.0, noise, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels
