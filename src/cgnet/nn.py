"""Minimal numeric substrate for the channel gating engine.

2-D convolution via im2col (the test suite checks it against a naive
direct-loop oracle), batch normalization, activations, pooling,
fully-connected layers, softmax / cross-entropy, and SGD with momentum.

Conventions:
  * everything is float64 numpy;
  * activations are batches of shape (batch, channel, height, width); the
    entry points raise ConfigurationError on any other rank;
  * the entry points read batches of any strides, and the batches they
    return lay their memory out as (channel, height, width, batch): the
    sample index is innermost, so ``_chwn(x)`` is a free C-contiguous view,
    im2col copies whole rows of samples and a GEMM on its columns writes
    the output's memory directly;
  * the convolution forward never holds a layer's whole im2col: it builds
    one band of output rows' columns at a time (``BAND_BYTES``) and runs
    every GEMM that reads them, the kernel's and any block-diagonal
    kernel's such as a gated layer's base blocks, on the band while it is
    in cache. One backward, ``conv2d_backward``, serves every layer, dense
    or gated: it rebuilds one input group's columns at a time from the
    input batch. Every layer's kernel is dense: the forward also runs a
    grouped convolution, for reference computations, but it has no
    backward;
  * the forward's bands and the backward's input groups run on a
    persistent pool of threads beside the calling one (``_band_workers``:
    the CPUs left over by BLAS's threads per call), each thread into its
    own column buffer, handed out by one routine, ``_run_on_threads``.
    The backward's calling thread builds each group's upstream gradient in
    dy's memory and each pool thread in its own copy of dy. The pool's threads run numpy calls, ``im2col`` and ``col2im``
    only, never one of the entry points a tracer wraps (the convolution,
    batch norm and SGD functions), so the tracer sees every call on one
    stack. Every band and group runs the same arithmetic on any thread and
    writes only its own part of the outputs, so no result depends on the
    worker count;
  * a temporary the size of a batch is made with ``np.empty_like`` (or
    ``zeros_like``) of a batch, which keeps that (c, h, w, n) order; a
    C-order ``np.empty(shape)`` gives the same values but makes every
    elementwise pass that mixes it with a batch several times slower;
  * training kernels take ``out=`` and work in place on buffers their
    caller owns, such as a GEMM output nothing else reads: a fresh batch
    costs its page faults on top of the pass that fills it;
  * a masked select (``np.where``, ``copyto(where=)``) costs more the
    closer the mask is to half set, since its branches follow the data; a
    multiply by a bool mask or a bitwise AND costs the same at any firing
    rate, and so does ``xor_blend``, the select that training's combine
    runs: three passes over the 64-bit integer views take ~0.6 ms per 16 x
    16384 elements at any rate, where ``np.where`` takes 0.99 ms at 35% set
    and 1.32 ms at 50% (one thread of a Xeon host, numpy 2.4). Inference
    keeps ``copyto(where=)``: its gates fire rarely, and at 9% set a select
    takes 0.52 ms;
  * a backward may consume its upstream gradient: where ``dy`` is a
    writable sample-innermost batch it works in dy's memory
    (``_consumable``), so its caller passes a copy of one it reads again;
  * conv weights are (out_channel, in_channel/groups, kh, kw), row
    major, so channel groups are contiguous slices;
  * convolutions carry no bias (batch normalization absorbs it). At
    inference a convolution's own batch norm runs inside its GEMM:
    ``fold_bn`` scales the kernel's rows and adds the shift as one more
    kernel column, which ``conv2d_forward(..., folded=)`` runs against a
    row of ones, so no pass normalizes the output. A layer folds once per
    frozen state, in its inference plan (``network`` module), and a gated
    layer's plan also scales its base blocks, so the partial sum comes out
    of its GEMM on BN1's scale (``gating``). So no inference pass
    normalizes a GEMM's output; ``bn_inference`` is the reference
    computation of that BN. Training normalizes with batch statistics
    (``bn_forward``).
"""

from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import THREAD_VARS, ConfigurationError


class DegenerateInputError(ValueError):
    """Input has no elements along the axes a statistic needs."""


class StateError(RuntimeError):
    """Operation invoked in the wrong state (e.g. stats not frozen)."""


ACTIVATION_KINDS = ("relu", "tanh", "sigmoid", "binary_sign", "identity")


def _as_batch(x):
    """x as a float64 (n, c, h, w) batch; any other rank raises."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ConfigurationError(f"expected an (n, c, h, w) batch, got shape {x.shape}")
    return x


def _chwn(x):
    """The (c, h, w, n) view of an (n, c, h, w) batch; C-contiguous for the
    batches this module returns."""
    return x.transpose(1, 2, 3, 0)


def _consumable(dy):
    """The upstream gradient ``dy`` as a float64 batch that its backward may
    overwrite: dy itself where it is a writable sample-innermost batch, as
    every layer's backward returns, else a copy in that order, so the
    gradients do not depend on the caller's memory order."""
    dy = _as_batch(dy)
    if dy.flags.writeable and _chwn(dy).flags.c_contiguous:
        return dy
    return _chwn(dy).copy().transpose(3, 0, 1, 2)


def _batch(a, n, h, w):
    """The (n, c, h, w) batch whose memory is ``a``, a C-contiguous array
    that reshapes to (c, h, w, n), such as a GEMM's (c, h*w*n) output."""
    return a.reshape(-1, h, w, n).transpose(3, 0, 1, 2)


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
    """What ``conv2d_backward`` needs of one ``conv2d_forward``, of a dense
    or a gated layer: the input batch ``x``, from which it rebuilds the
    columns one input group at a time. The context references that batch,
    so nothing may write to it before the backward."""

    spec: ConvSpec
    w: np.ndarray
    x: np.ndarray             # the float64 input batch the forward read


def _check_conv(x, w, spec):
    if x.shape[1] != spec.in_channels:
        raise ConfigurationError(
            f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if w.shape != spec.weight_shape:
        raise ConfigurationError(
            f"weight shape {w.shape} does not match spec {spec.weight_shape}")
    spec.out_hw(*x.shape[2:])   # raises on an empty output


def _windows(x, k, stride, padding):
    """The (c, k, k, ho, wo, n) strided view of every k x k window of the
    (n, c, h, w) batch ``x`` (any strides), zero-padded by ``padding`` on
    each side, over a C-contiguous (c, hp, wp, n) buffer: x's own memory
    where it is an unpadded sample-innermost batch, else a copy. Padding
    copies x into the middle of a new buffer and zeroes only its border."""
    n, c, h, w = x.shape
    p = padding
    xp = _chwn(x)
    if p:
        xp = np.empty((c, h + 2 * p, w + 2 * p, n))
        xp[:, :p] = xp[:, p + h:] = 0.0
        xp[:, p:p + h, :p] = xp[:, p:p + h, p + w:] = 0.0
        xp[:, p:p + h, p:p + w] = _chwn(x)
    elif not xp.flags.c_contiguous:
        xp = np.ascontiguousarray(xp)
    _, hp, wp, _ = xp.shape
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    sc, sh, sw, sn = xp.strides
    return np.ndarray((c, k, k, ho, wo, n), xp.dtype, xp,
                      strides=(sc, sh, sw, stride * sh, stride * sw, sn))


def im2col(x, k, stride=1, padding=0, out=None):
    """Lay out every k x k window of the (n, c, h, w) batch ``x`` (any
    strides), zero-padded by ``padding`` on each side, as one column:
    returns (c*k*k, ho*wo*n), written into ``out`` when given. Rows are
    ordered (channel, ky, kx), so a channel group's rows are a contiguous
    slice, and ``im2col(x[:, group])`` is that slice of ``im2col(x)``
    bitwise: a backward rebuilds one input group's columns at a time from
    the input it kept. Columns are ordered (y, x, sample), so
    ``W @ cols`` is the (c, h, w, n) memory of the output batch, and a band
    of whole output rows is a contiguous slice of columns. The columns are
    always a new array (or ``out``), never a view of ``x``, so their owner
    may overwrite them (the backward writes its column gradients there)."""
    win = _windows(x, k, stride, padding)
    c, _, _, ho, wo, n = win.shape
    if out is None:
        out = np.empty((c * k * k, ho * wo * n))
    np.copyto(np.reshape(out, win.shape, copy=False), win)
    return out


def _tap_window(offset, size, out_size, stride, padding):
    """For the kernel tap at ``offset`` along one axis: the slice of input
    positions its outputs read inside the unpadded extent ``size``, and
    the slice of those outputs. Outputs that read padding are clipped."""
    first = max(0, -(-(padding - offset) // stride))
    last = min(out_size - 1, (size - 1 + padding - offset) // stride)
    if last < first:
        return None
    start = offset + stride * first - padding
    return (slice(start, start + stride * (last - first) + 1, stride),
            slice(first, last + 1))


def col2im(dcols, x_shape, k, stride=1, padding=0, out=None):
    """Adjoint of ``im2col``: scatter-add (c*k*k, ho*wo*n) column gradients
    into a zeroed (c, h, w, n) buffer and return it as the (n, c, h, w)
    batch they were read from. The buffer is ``out``'s memory when given,
    a C-contiguous array that reshapes to (c, h, w, n), such as one input
    group's channels of a whole batch's gradient, and a new array
    otherwise. Each (ky, kx) tap adds into its window of that buffer
    clipped to the unpadded extent, so what landed in padding is never
    written; taps add in (ky, kx) order, the order of a scatter into a
    padded buffer. Each channel's sums read only its own rows, so a
    group's columns scatter into its channels as they would in the whole.
    ``dcols`` may be any array of that shape."""
    n, c, h, w = x_shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if out is None:
        dx = np.zeros((c, h, w, n))
    else:
        dx = np.reshape(out, (c, h, w, n), copy=False)
        dx[...] = 0.0
    dc = dcols.reshape(c, k, k, ho, wo, n)
    y_taps = [_tap_window(i, h, ho, stride, padding) for i in range(k)]
    x_taps = [_tap_window(j, w, wo, stride, padding) for j in range(k)]
    for i, ty in enumerate(y_taps):
        for j, tx in enumerate(x_taps):
            if ty is not None and tx is not None:
                dx[:, ty[0], tx[0]] += dc[:, i, j, ty[1], tx[1]]
    return dx.transpose(3, 0, 1, 2)


# Bytes of im2col columns per band of the forward (``_bands``). The
# forward im2cols one band of whole output rows at a time into one buffer
# and runs every GEMM that reads those columns while they are in cache;
# swept from 128 KiB to 2 MiB on vgg8_cg inference at batch 64 (2 MiB of
# L2 per core). A band is at least one output row, so at batch 64 every
# vgg8 and resnet layer (output width >= 2) runs bands of at least 128
# columns.
BAND_BYTES = 512 * 1024

# Every band spans a multiple of this many columns; a layer whose column
# count is not one runs as one band. OpenBLAS 0.3.31 (AVX-512 kernels)
# runs a GEMM's last w % 8 columns on a narrower kernel when that remainder
# is 1 to 4, a one-row GEMM (a GEMV) blocks its columns otherwise again,
# and either rounds differently from the slice of the whole layer's GEMM.
# Bands of multiples of 64 columns matched the whole GEMM bitwise at every
# shape tried, with one exception: a GEMM of at most 1e6 multiply-adds
# runs a small-matrix kernel, which sums a reduction longer than 384 in
# another order. So a layer whose per-group reduction (c_in/G*k*k) exceeds
# 384, and whose band GEMM is that small while its whole GEMM is not, can
# round differently from one band. No shipped config has such a layer.
_BAND_COLS = 64


def _bands(ho, row_cols, rows_k):
    """The forward's bands of output rows as slices of ``range(ho)``, for an
    output row of ``row_cols`` columns of ``rows_k`` rows each: as many rows
    as fill ``BAND_BYTES``, rounded down to a whole number of
    ``_BAND_COLS`` columns but at least one such step. A layer within the
    budget, or whose column count is not a multiple of ``_BAND_COLS``, is
    one band; otherwise ho is a whole number of steps, so the last band,
    shorter or not, spans a multiple of ``_BAND_COLS`` columns too. So each
    band's GEMM rounds as its slice of the whole layer's GEMM would, within
    the limits ``_BAND_COLS`` states."""
    row_bytes = 8 * rows_k * row_cols
    step = _BAND_COLS // math.gcd(_BAND_COLS, row_cols)   # rows per multiple of _BAND_COLS
    if ho * row_bytes <= BAND_BYTES or ho % step:
        return [slice(0, ho)]
    rows = max(BAND_BYTES // row_bytes // step, 1) * step
    return [slice(a, min(a + rows, ho)) for a in range(0, ho, rows)]


def _band_workers():
    """How many threads run a convolution's bands: the CPUs of the process's
    affinity mask (``os.cpu_count()`` where there is none) divided by BLAS's
    threads per call, the first of ``THREAD_VARS`` set to a positive
    integer, else the CPU count; at least one. So with the variables unset
    BLAS takes every CPU and the bands run on the calling thread, and with
    them pinned to 1 the bands run on every CPU."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(cpus // blas, 1)


@functools.cache
def _band_pool():
    """(workers, pool): ``_band_workers()``, read once per process, and a
    persistent pool of workers - 1 threads beside the calling one, or None
    at one worker. A forked child drops the parent's pool, whose threads it
    does not have, and builds its own on first use."""
    workers = _band_workers()
    if workers == 1:
        return 1, None
    return workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="cgnet-bands")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_band_pool.cache_clear)


def _run_on_threads(make_run, items):
    """Runs ``items`` (the forward's bands, the backward's input groups) on
    min(workers, len(items)) threads of ``_band_pool()``, the calling one
    first; ``make_run(i)`` is thread i's run, and every run is built before
    any starts (so a run's own copy of an input precedes the caller's
    edits). One thread runs ``run(items)`` with no hand-out (~3 us less per
    call at batch 1). Otherwise each thread runs ``run(todo)``, todo an
    iterator popping the items in order from one deque (thread-safe pops),
    so each item runs once, on whichever thread is free first, and the
    thread that pops the last item pops no other. Returns once every
    thread is done, re-raising a thread's exception."""
    workers, pool = _band_pool()
    threads = min(workers, len(items))
    if threads == 1:
        make_run(0)(items)
        return
    runs = [make_run(i) for i in range(threads)]
    todo = collections.deque([*items] + [None] * len(runs))   # an end mark per thread
    helpers = [pool.submit(run, iter(todo.popleft, None)) for run in runs[1:]]
    try:
        runs[0](iter(todo.popleft, None))
    finally:
        for helper in helpers:
            helper.exception()   # waits: no thread writes the outputs after this call
    for helper in helpers:
        helper.result()


def fold_bn(w, bn: BatchNormState):
    """Frozen batch norm folded into a dense kernel ``w`` (c_out, c, k, k):
    the (c_out, c*k*k + 1) kernel whose rows are W's scaled by
    scale = gamma/sqrt(var + eps) and whose last column is the shift
    beta - mean*scale, for ``conv2d_forward(..., folded=)``. A layer builds
    it once per frozen state (its inference plan), not per call."""
    c_out = w.shape[0]
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    folded = np.empty((c_out, w[0].size + 1))
    np.multiply(w.reshape(c_out, -1), scale[:, None], out=folded[:, :-1])
    np.subtract(bn.beta, bn.running_mean * scale, out=folded[:, -1])
    return folded


def conv2d_forward(x, w, spec: ConvSpec, blocks=(), *, folded=None):
    """Grouped 2-D cross-correlation via im2col; returns (y, ctx) followed
    by one partial-sum batch per kernel in ``blocks``.

    The columns are built one band of whole output rows at a time
    (``_bands``), and every GEMM that reads them runs on the band while it
    is in cache, writing the band's columns of its (c_out, ho*wo*n)
    output. Each output column's dot product is the whole layer's, and the
    bands are cut where the whole layer's GEMM would round each column as
    the band's does, so the result is bitwise the one-band result (within
    the limits ``_BAND_COLS`` states). The calling thread and up to
    ``_band_workers() - 1`` threads of the band pool claim bands one at a
    time (``_run_on_threads``), each into a buffer of its own, and the
    pool's threads run only numpy calls. Each band writes only its own
    columns and runs the same arithmetic on any thread, so the outputs do
    not depend on the thread count. A layer of one band, or at one
    worker, runs on the calling thread alone. The call returns, or raises
    a thread's exception, once every thread is done with its bands. The
    groups run as one batched matmul of each group's kernel rows against
    its input channels' rows of the band. ``blocks`` are block-diagonal
    kernels on the same columns, each a (G, c_out/G, c_in/G*k*k) stack
    whose block i reads input group i's rows (a gated layer's W_p,
    ``gating.base_blocks``, or the inference plan's scaled copy of it);
    each one's sums come back as a batch like y.

    ``folded``, ``fold_bn(w, bn)`` of a dense kernel (a grouped spec
    raises ``ConfigurationError``), runs inference batch norm inside the
    GEMM: y is BN(conv) from the folded rows and their shift column, which
    reads a row of ones under each band's columns. So y rounds as a GEMM
    does, not as ``bn_inference`` of the convolution. ``w`` stays the
    dense kernel, which the shape check and ``ctx`` read. The bands are
    cut from the columns' c*k*k rows alone, and ``blocks`` read only those
    rows, so their sums do not depend on ``folded``. Training passes no
    ``folded``: ``ctx`` is the convolution's, and its backward knows
    nothing of a fold."""
    xb = _as_batch(x)
    w = np.asarray(w, dtype=np.float64)
    _check_conv(xb, w, spec)
    win = _windows(xb, spec.kernel_size, spec.stride, spec.padding)
    c, k, _, ho, wo, n = win.shape
    m, kk, row = ho * wo * n, c * k * k, wo * n
    w_rows = w.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    rows = kk   # of the columns: c*k*k, and the row of ones under a fold
    if folded is not None:
        if spec.groups != 1:
            raise ConfigurationError(f"conv2d_forward: batch norm folds into a dense kernel "
                                     f"only, got groups={spec.groups}")
        rows = kk + 1
        w_rows = folded.reshape(1, spec.out_channels, rows)
    kernels = [w_rows, *blocks]
    outs = [np.empty((spec.out_channels, m)) for _ in kernels]
    bands = _bands(ho, row, kk)
    size = rows * row * (bands[0].stop - bands[0].start)   # the first band is the longest

    def run_bands(todo):
        buf = np.empty(size)   # this thread's own
        for band in todo:
            span = slice(band.start * row, band.stop * row)
            cols = buf[:rows * (span.stop - span.start)].reshape(rows, -1)
            np.copyto(cols[:kk].reshape(c, k, k, -1, wo, n), win[:, :, :, band])
            cols[kk:] = 1.0
            for kernel, out in zip(kernels, outs):
                # a kernel of g groups of K columns reads the first g*K rows
                g, _, cols_k = kernel.shape
                np.matmul(kernel, cols[:g * cols_k].reshape(g, cols_k, -1),
                          out=out.reshape(g, -1, m)[:, :, span])

    _run_on_threads(lambda i: run_bands, bands)
    y, *partials = (_batch(out, n, ho, wo) for out in outs)
    return (y, ConvCtx(spec, w, xb), *partials)


def conv2d(x, w, spec: ConvSpec):
    """Grouped 2-D cross-correlation of an (n, c, h, w) batch."""
    y, _ = conv2d_forward(x, w, spec)
    return y


def conv2d_backward(ctx: ConvCtx, dy, dp=None, groups=1):
    """Gradients of ``conv2d_forward(x, w, spec, (base_blocks(w, groups),))``
    for ``dy`` the gradient of its full sum y and ``dp`` that of its block
    sums p (none: the dense layer's backward); returns (dx, dw). Both may
    be batches of any memory order. A grouped convolution's context
    raises ``ConfigurationError``: every layer's kernel is dense.

    p reads only W's G diagonal blocks, so one GEMM pair per input group h
    does the dense MAC count: with D_h the (c_out, ho*wo*n) rows of dy
    plus dp in output group h's rows, and cols_h input group h's columns
    rebuilt from ``ctx.x``, dW[:, h]^T = cols_h @ D_h^T, which reads
    cols_h untransposed, and dcols_h = W[:, h]^T @ D_h, written over
    cols_h; a col2im of dcols_h writes the group's channels of dx. So one
    group's columns live at a time on each thread.

    The calling thread and up to ``_band_workers() - 1`` threads of the
    band pool claim the groups one at a time (``_run_on_threads``), each
    into a column buffer of its own. Each group writes only its own rows
    of dW^T and its own channels of dx and runs the same arithmetic on
    any thread, so dx and dw do not depend on the thread count. The pool's
    threads run numpy, ``im2col`` and ``col2im`` only. With ``dp`` given,
    the calling thread builds D_h in dy's memory (``_consumable``), so dy
    may be left overwritten: output group h's rows are saved before and
    copied back after its GEMMs (but for the last group's), an exact
    restore where a subtract would not be. Each pool thread builds D_h in
    its own copy of dy, which ``_run_on_threads`` has it make before any
    group starts, and copies group h's rows back from dy, which only group
    h's thread edits. A layer of one group, or at one worker, runs on the
    calling thread alone, with no copy."""
    spec = ctx.spec
    if spec.groups != 1:
        raise ConfigurationError(f"conv2d_backward: a grouped convolution (groups="
                                 f"{spec.groups}) has no backward; its kernel must be dense")
    k, stride, pad = spec.kernel_size, spec.stride, spec.padding
    n, c_in, h_in, w_in = ctx.x.shape
    c_out = spec.out_channels
    d = _chwn(_consumable(dy)).reshape(c_out, -1)
    w = ctx.w.reshape(c_out, -1)
    G = groups
    rows_out, rows_in, chans_in = c_out // G, w.shape[1] // G, c_in // G
    dwt = np.empty((w.shape[1], c_out))
    dx = np.empty((c_in, h_in, w_in, n))
    if dp is not None:
        dp = np.reshape(_chwn(np.asarray(dp, dtype=np.float64)), (c_out, -1))

    def run_groups(todo, d_h):
        # d_h: this thread's D_h buffer, d itself on the calling thread
        cols = np.empty((rows_in, d.shape[1]))
        in_dy = d_h is d
        saved = np.empty((rows_out, d.shape[1])) if in_dy and dp is not None and G > 1 else None
        for h in todo:
            own, ins = slice(h * rows_out, (h + 1) * rows_out), slice(h * rows_in, (h + 1) * rows_in)
            chans = slice(h * chans_in, (h + 1) * chans_in)
            restore = dp is not None and h < G - 1   # the last group runs last on its thread
            if restore and in_dy:
                np.copyto(saved, d[own])
            if dp is not None:
                np.add(d[own], dp[own], out=d_h[own])
            im2col(ctx.x[:, chans], k, stride, pad, out=cols)
            # np.dot, not matmul: numpy's matmul keeps the GIL on a small
            # output such as vgg8 L01's 18 x 16, so the threads would take
            # turns; both call the same dgemm, so the sums are bitwise equal
            np.dot(cols, d_h.T, out=dwt[ins])
            np.matmul(w[:, ins].T, d_h, out=cols)
            col2im(cols, (n, chans_in, h_in, w_in), k, stride, pad, out=dx[chans])
            if restore:
                np.copyto(d_h[own], saved if in_dy else d[own])

    # a pool thread's copy of d is made before the calling thread edits d
    _run_on_threads(lambda i: functools.partial(
        run_groups, d_h=d if i == 0 or dp is None else d.copy()), range(G))
    return dx.transpose(3, 0, 1, 2), dwt.T.reshape(ctx.w.shape)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Per-channel batch-norm parameters and running statistics.

    Running stats update as  running <- momentum*running + (1-momentum)*batch.
    ``momentum`` and ``eps`` are class constants: every layer uses the same.
    """

    momentum = 0.9
    eps = 1e-5

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        c = len(self.gamma)
        for name in ("beta", "running_mean", "running_var"):
            if len(getattr(self, name)) != c:
                raise ConfigurationError(f"BatchNormState.{name} length != channel count {c}")
        if np.any(self.running_var < 0):
            raise ConfigurationError("BatchNormState.running_var entries must be >= 0")

    @classmethod
    def create(cls, channels):
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels))


@dataclass
class BnCtx:
    xhat: np.ndarray
    inv_std: np.ndarray       # (c,)
    count: int


def _per_channel(v):
    return np.asarray(v)[:, None, None]


def bn_forward(x, st: BatchNormState, out=None, training=True):
    """Training-mode batch normalization of (n, c, h, w) ``x`` with its
    batch statistics, which it folds into the running stats; returns
    (x^, BnCtx). It applies no affine step: the caller applies
    gamma*x^ + beta and passes gamma to ``batchnorm_backward``. x^ is
    written into ``out`` when given (``out`` may be ``x``).
    ``training=False`` returns ``(bn_inference(x, st, out), None)`` for the
    benchmark's reference forward; the package folds the frozen statistics
    into its GEMMs instead (``fold_bn``)."""
    xb = _as_batch(x)
    if xb.shape[1] != len(st.gamma):
        raise ConfigurationError(
            f"input has {xb.shape[1]} channels, BN state has {len(st.gamma)}")
    if not training:
        return bn_inference(xb, st, out=out), None
    n, c, h, w = xb.shape
    count = n * h * w
    if count == 0:
        raise DegenerateInputError("batch normalization over zero elements per channel")
    mean = xb.mean(axis=(0, 2, 3))
    # the centred batch gives the variance and, scaled in place, xhat
    xhat = np.subtract(xb, _per_channel(mean), out=out)
    var = (xhat * xhat).mean(axis=(0, 2, 3))
    m = st.momentum
    st.running_mean[:] = m * st.running_mean + (1.0 - m) * mean
    st.running_var[:] = m * st.running_var + (1.0 - m) * var
    inv_std = 1.0 / np.sqrt(var + st.eps)
    xhat *= _per_channel(inv_std)
    return xhat, BnCtx(xhat, inv_std, count)


def bn_inference(x, st: BatchNormState, out=None):
    """Frozen-statistics batch normalization of (n, c, h, w) ``x``, written
    into ``out`` when given (``out`` may be ``x``): per channel and in
    exactly this order ``(x - mean) * scale + beta``, with
    ``scale = gamma / sqrt(var + eps)``. It is the reference's BN (the
    benchmark's dense-then-masked forward and the test oracles): the
    package's inference folds every frozen BN into a GEMM, BN2 and a dense
    layer's BN through ``fold_bn``, BN1's scale into a gated layer's base
    blocks (``gating.inference_plan``)."""
    scale = st.gamma / np.sqrt(st.running_var + st.eps)
    y = np.subtract(x, _per_channel(st.running_mean), out=out)
    y *= _per_channel(scale)
    y += _per_channel(st.beta)
    return y


def batchnorm_backward(ctx: BnCtx, dy, gamma, out=None):
    """Gradients through training-mode BN followed by the affine step
    gamma*x^ + beta, for dy the gradient with respect to that step's
    output; returns (dx, dgamma, dbeta).

    With s = gamma*inv_std and m elements per channel:
    dx = s * (dy - mean(dy) - xhat*mean(dy*xhat)), written into ``out``
    when given (a batch that does not overlap ``dy``; it may be ``ctx.xhat``
    itself, which is read before it is overwritten) and into a new batch
    in xhat's memory order otherwise, with no other temporary.
    dgamma = sum(dy*xhat) and dbeta = sum(dy) per channel.
    """
    dyb = _as_batch(dy)
    m = float(ctx.count)
    sum_dy = dyb.sum(axis=(0, 2, 3))
    sum_dy_xhat = np.einsum("nchw,nchw->c", dyb, ctx.xhat)
    dx = np.multiply(ctx.xhat, _per_channel(sum_dy_xhat / m), out=out)
    np.subtract(dyb, dx, out=dx)
    dx -= _per_channel(sum_dy / m)
    dx *= _per_channel(gamma * ctx.inv_std)
    return dx, sum_dy_xhat, sum_dy


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def sigmoid(z, out=None):
    """Logistic function as 0.5 + 0.5*tanh(z/2): no overflow for any z.
    Written into ``out`` when given (``out`` may be ``z``)."""
    s = np.multiply(np.asarray(z, dtype=np.float64), 0.5, out=out)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def activation(x, kind, out=None):
    """Elementwise activation, written into ``out`` when given (``out`` may
    be ``x``). binary_sign maps x >= 0 to +1, else -1."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(x, out=out)
    if kind == "sigmoid":
        return sigmoid(x, out=out)
    if kind == "binary_sign":
        y = np.where(x >= 0.0, 1.0, -1.0)
    elif kind == "identity":
        y = x.copy(order="K") if out is None else x
    else:
        raise ConfigurationError(f"unknown activation kind {kind!r}")
    if out is None or y is out:
        return y
    out[...] = y
    return out


def xor_blend(d, a, b):
    """``np.where(d, a, b)`` for float64 batches a and b and a bool mask d
    of their shape, bit for bit (signed zeros, infinities and NaN payloads
    included), as a new batch in b's memory order: b ^ ((a ^ b) * d) on the
    64-bit integer views, in three passes that take no branch on d, so its
    cost does not depend on how much of d is set."""
    out = np.empty_like(b)
    bits, b_bits = out.view(np.int64), b.view(np.int64)
    np.bitwise_xor(a.view(np.int64), b_bits, out=bits)
    bits *= d
    bits ^= b_bits
    return out


def activation_with_grad(pre, kind):
    """(f(pre), f'(pre)) for a training forward, with the activation run
    once and in place over ``pre``, a float64 batch its caller owns, and
    f' at its narrowest dtype. ReLU's, binary_sign's and identity's f' is
    0 or 1 and comes as a bool mask read from pre before the activation
    overwrites it: pre > 0, binary_sign's straight-through clip window
    |pre| <= 1, and all ones. One byte per element, which the chain rule's
    multiply reads as 1.0 and 0.0. tanh's and sigmoid's f' is float and
    comes from the output y: 1 - y*y and (1 - y)*y."""
    if kind == "relu":
        fprime = pre > 0.0
    elif kind == "binary_sign":
        fprime = np.abs(pre) <= 1.0
    elif kind == "identity":
        fprime = np.ones_like(pre, dtype=bool)
    else:   # tanh or sigmoid; ``activation`` raises on any other kind
        y = activation(pre, kind, out=pre)
        if kind == "tanh":
            return y, 1.0 - y * y
        g = 1.0 - y
        g *= y
        return y, g
    return activation(pre, kind, out=pre), fprime


# ---------------------------------------------------------------------------
# Pooling (kernel == stride, spatial dims divisible; enough for the nets here)
# ---------------------------------------------------------------------------

@dataclass
class PoolCtx:
    kind: str
    k: int
    in_shape: tuple
    argmax: np.ndarray | None  # max: window position ky*k + kx of each output


def _pool_shape(shape, k):
    n, c, h, w = shape
    if h % k or w % k:
        raise ConfigurationError(f"pooling needs spatial dims divisible by {k}, got {h}x{w}")
    return n, c, h // k, w // k


def _pool_views(xb, k):
    """The k*k strided views (n, c, h/k, w/k) of a batch, one per window
    position, in row-major (ky, kx) order."""
    _pool_shape(xb.shape, k)
    return [xb[:, :, i::k, j::k] for i in range(k) for j in range(k)]


def maxpool2d(x, k=2):
    """Inference max pooling: a running ``np.maximum`` over the window
    positions' strided views. The running result is the second operand, so
    where two values compare equal (+0 and -0) numpy's maximum keeps the
    earlier position, as ``maxpool2d_forward`` does; NaN propagates."""
    xb = _as_batch(x)
    views = _pool_views(xb, k)
    y = views[0].copy(order="K")
    for v in views[1:]:
        np.maximum(v, y, out=y)
    return y


def maxpool2d_forward(x, k=2):
    """Training max pooling; returns (y, ctx) with the first maximal window
    position of every output, as ``argmax`` over the window would pick it
    (a NaN counts as maximal). y is the running ``np.maximum`` of
    ``maxpool2d``; the positions are kept in the smallest unsigned dtype
    that holds k*k - 1 and updated without a data-dependent select."""
    xb = _as_batch(x)
    views = _pool_views(xb, k)
    y = views[0].copy(order="K")
    idx = np.zeros_like(y, dtype=np.min_scalar_type(k * k - 1))
    keep = np.empty_like(y, dtype=bool)
    nan = np.empty_like(keep)
    for t, v in enumerate(views[1:], 1):
        # the earlier position stays where v <= y or y is already NaN
        np.less_equal(v, y, out=keep)
        np.not_equal(y, y, out=nan)
        keep |= nan
        np.maximum(v, y, out=y)
        # idx = t + keep*(idx - t); the unsigned wraparound cancels
        idx -= t
        idx *= keep
        idx += t
    return y, PoolCtx("max", k, xb.shape, idx)


def avgpool2d_forward(x, k=2):
    xb = _as_batch(x)
    n, c, ho, wo = _pool_shape(xb.shape, k)
    y = _chwn(xb).reshape(c, ho, k, wo, k, n).mean(axis=(2, 4))
    return y.transpose(3, 0, 1, 2), PoolCtx("avg", k, xb.shape, None)


def pool2d_backward(ctx: PoolCtx, dy):
    """Input gradient of a pooling layer. Max pooling writes each upstream
    value to its window's recorded position and +0.0 elsewhere: one
    broadcast compare of the positions against every window offset gives
    a (c, h/k, k, w/k, k, n) mask of all-ones or all-zeros 64-bit words,
    the (c, h, w, n) memory of dx, and ANDing it with dy's bits moves
    every value, signed zeros, infinities and NaN included, unchanged."""
    k = ctx.k
    dyb = np.asarray(dy, dtype=np.float64)
    n, c, h, w = ctx.in_shape
    if ctx.kind == "max":
        ho, wo = h // k, w // k
        offsets = np.arange(k * k, dtype=ctx.argmax.dtype).reshape(1, 1, k, 1, k, 1)
        bits = np.empty((c, ho, k, wo, k, n), dtype=np.int64)
        np.equal(_chwn(ctx.argmax)[:, :, None, :, None], offsets, out=bits)
        np.negative(bits, out=bits)
        bits &= _chwn(dyb).view(np.int64)[:, :, None, :, None]
        return _batch(bits.view(np.float64), n, h, w)
    dwin = np.empty((c, h // k, k, w // k, k, n))
    dwin[...] = (_chwn(dyb) / (k * k))[:, :, None, :, None]
    return _batch(dwin, n, h, w)


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

def sgd_step(groups, velocities, lr, momentum=0.0, weight_decay=0.0):
    """In-place SGD with momentum over ``(name, param, grad, decays)`` groups,
    as ``param_groups()`` lists them, and their velocities by name:
    v <- momentum*v + grad (+ weight_decay*param where decays);
    param <- param - lr*v.
    """
    for name, p, g, decays in groups:
        v = velocities[name]
        if p.shape != g.shape or p.shape != v.shape:
            raise ConfigurationError(
                f"sgd shape mismatch for {name}: {p.shape} vs {g.shape} vs {v.shape}")
        v *= momentum
        v += g
        if decays and weight_decay:
            v += weight_decay * p
        p -= lr * v
