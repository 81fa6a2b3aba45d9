"""Dense-then-masked reference forward pass, built from a checkpoint.

Independent of the gated inference path under test: weights come from the
CGN1 checkpoint file, not from the layer objects, and every gated layer is
computed the slow, obvious way with public ``cgnet.nn`` functions:

* the full sum is one dense ``conv2d`` on the kernel reassembled from
  ``(w_p, w_r)`` here;
* the partial sum is a grouped ``conv2d`` on ``w_p``;
* the merged-gate decision compares the partial sum with
  ``delta * sqrt(gate_var + eps) + gate_mean``;
* BN1 (partial sum) and BN2 (full sum) apply with frozen statistics, and the
  decision selects between them before the activation.

Covers the layer kinds of the benchmark's plain (non-residual) model with
one-sided gates, no channel-wise gate and no shuffle; anything else raises.
"""

from __future__ import annotations

import json

import numpy as np

from cgnet import checkpoint, nn


def dense_kernel(w_p, w_r, groups):
    """Dense (c_out, c_in, k, k) kernel: output group i reads input group i
    from ``w_p`` and the other groups, ascending, from ``w_r``."""
    c_out, per = w_p.shape[:2]
    cpo = c_out // groups
    w = np.zeros((c_out, per * groups) + w_p.shape[2:])
    for i in range(groups):
        rows = slice(i * cpo, (i + 1) * cpo)
        w[rows, i * per:(i + 1) * per] = w_p[rows]
        others = [j for j in range(groups) if j != i]
        for pos, j in enumerate(others):
            w[rows, j * per:(j + 1) * per] = w_r[rows, pos * per:(pos + 1) * per]
    return w


def _bn(x, gamma, beta, mean, var):
    y, _ = nn.bn_forward(x, nn.BatchNormState(gamma, beta, mean, var), training=False)
    return y


def reference_logits(ckpt_path, images):
    """Logits of the checkpointed model on ``images`` (n, c, h, w)."""
    t = checkpoint.read_container(ckpt_path)
    cfg = json.loads(t[checkpoint.CONFIG_RECORD].tobytes().decode("utf-8"))
    defaults = cfg.get("cg_defaults", {})
    eps = nn.BatchNormState.create(1).eps
    x = np.asarray(images, dtype=np.float64)
    for i, lc in enumerate(cfg["layers"]):
        name = f"L{i:02d}"
        kind = lc["type"]
        if kind in ("conv", "cg_conv"):
            spec = nn.ConvSpec(x.shape[1], int(lc["out_channels"]), int(lc["kernel_size"]),
                               int(lc.get("stride", 1)), int(lc.get("padding", 0)))
            gamma, beta = t[f"{name}.gamma"], t[f"{name}.beta"]
        if kind == "conv":
            if lc.get("shuffle_groups", 0):
                raise NotImplementedError(f"{name}: shuffled conv not covered")
            y = _bn(nn.conv2d(x, t[f"{name}.w"], spec), gamma, beta,
                    t[f"{name}.running_mean"], t[f"{name}.running_var"])
            x = nn.activation(y, lc.get("activation", "relu"))
        elif kind == "cg_conv":
            opts = {**defaults, **lc}
            groups = int(opts.get("groups", 4))
            act = opts.get("activation", "relu")
            gate = opts.get("gate") or (
                "two_sided" if act in ("tanh", "sigmoid", "binary_sign") else "single_sided")
            if gate != "single_sided" or float(opts.get("tau_c", 0.0)) > 0.0 \
                    or opts.get("shuffle", False):
                raise NotImplementedError(f"{name}: only one-sided, unshuffled gates without tau_c")
            w_p, w_r = t[f"{name}.w_p"], t[f"{name}.w_r"]
            full = nn.conv2d(x, dense_kernel(w_p, w_r, groups), spec)
            grouped = nn.ConvSpec(spec.in_channels, spec.out_channels, spec.kernel_size,
                                  spec.stride, spec.padding, groups=groups)
            partial = nn.conv2d(x, w_p, grouped)
            thr = t[f"{name}.delta"] * np.sqrt(t[f"{name}.gate_var"] + eps) \
                + t[f"{name}.gate_mean"]
            take = partial >= thr[:, None, None]
            y_base = _bn(partial, gamma, beta, t[f"{name}.bn1_mean"], t[f"{name}.bn1_var"])
            y_full = _bn(full, gamma, beta, t[f"{name}.bn2_mean"], t[f"{name}.bn2_var"])
            x = nn.activation(np.where(take, y_full, y_base), act)
        elif kind == "maxpool":
            x, _ = nn.maxpool2d_forward(x, int(lc.get("kernel_size", 2)))
        elif kind == "avgpool":
            x, _ = nn.avgpool2d_forward(x, int(lc.get("kernel_size", 2)))
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif kind == "linear":
            x, _ = nn.linear_forward(x, t[f"{name}.w"])
        else:
            raise NotImplementedError(f"{name}: layer type {kind!r} not covered")
    return x
