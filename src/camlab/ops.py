"""Dense tensor operations used by the inference engine.

All operations are pure functions over numpy arrays.  Arrays are float32
row-major by default; reductions (convolution, pooling sums) accumulate in
float64 and cast back, so results stay deterministic and close to a naive
double-precision loop.  Passing float64 inputs keeps the whole computation
in float64, which the finite-difference tests rely on.

The forward operations also take a batch with a leading N axis; a single
example is run as the batch of one, through the same code.  The input
gradients (`conv2d_input_grad`, `maxpool2d_grad`) take leading axes of
stacked cotangents instead, all for inputs of one per-example shape
`x_shape`: S cotangents of one example's output, or N·S of N examples
(S per example).  `conv2d_input_grad` reads only the input's shape, so it
takes the N·S cotangents as one stack [N·S, K, h, w]; `maxpool2d_grad`
routes each example's cotangents [N, S, C, h, w] through that example's
argmax [N, 1, C, h, w].

`conv2d` builds its float64 im2col matrix one block of images at a time,
each block's within `IM2COL_BYTES`.  It can hand back the matrix of the
whole batch as one block, and `conv2d_param_grad` can reuse it instead of
building the same matrix again; the gradient is the same, bit for bit.

The conv kernels make each float64 operand once, in long copies: the
im2col matrix takes 1 + min(stride, kh) copies of the unpadded input (see
`_im2col`).  `conv2d_input_grad` lays the cotangents on a zero grid shaped
so that each kernel offset (di, dj) lands at one constant offset of the
flat padded input: one GEMM per kernel row gives that row's terms, and its
kw 1-D adds of stride `stride` place them while they are still in cache.
Each input pixel sums the same nonzero terms in the same order as a
scatter over the output windows; the grid's zero cells add ±0, which
changes no sum while the kernels are finite (`nn.WeightStore.load` rejects
any that are not).  The GEMM has more columns than the output has pixels,
and a float64 column may round in its last bit with the column count, so
float64 results may differ from such a scatter by that rounding; float32
results match it.
"""

import numpy as np

__all__ = [
    "conv2d",
    "conv2d_input_grad",
    "conv2d_param_grad",
    "maxpool2d",
    "maxpool2d_grad",
    "global_avg_pool",
    "dense",
    "relu",
    "softmax",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


# Most bytes of float64 im2col matrix that conv2d builds at once (unless one
# image's matrix is larger).  A block's matrix can stay in a core's L2 cache
# between its build and its GEMM; a whole batch's is 2-3 MB on the fixtures'
# 4-image tapes and occlusion batches.  Of 128 KiB to 4 MiB, 512 KiB ran the
# `faithfulness` benchmark, mostly occlusion maps, fastest (BENCH_25.json).
IM2COL_BYTES = 512 << 10


def _out_extent(size, k, stride, padding):
    return (size + 2 * padding - k) // stride + 1


def _batched(x, ndim, op):
    """(x with a leading batch axis, whether that axis was added).

    An input of `ndim` axes is one example, the N=1 case of a batch.
    """
    x = np.asarray(x)
    if x.ndim == ndim:
        return x[None], True
    if x.ndim != ndim + 1:
        raise DimensionError(f"{op} expects {ndim}-D input or a batch of them, "
                             f"got {x.shape}")
    return x, False


def _im2col(xb, kh, kw, stride, padding, h_out, w_out):
    """float64 im2col matrix [C*kh*kw, N*h_out*w_out] of a block [N, C, H, W].

    Row (c, di, dj), column (n, i, j) holds padded pixel (i*stride + di,
    j*stride + dj) of channel c of image n.  That is row i + di // stride
    of the padded rows of phase di % stride, so stage 1 copies the kw
    column shifts of every row phase out of the input, in its own dtype,
    into t [C, phases, kw, N, rows, w_out], and stage 2 copies, per phase,
    the output planes of all its kernel rows into the float64 matrix: kernel
    row di is rows di // stride to di // stride + h_out - 1 of t.  The input
    is padded, in its own dtype, only when the padding or the last phase's
    rows reach past it.
    """
    n, c, h, w = xb.shape
    phases = min(stride, kh)
    rows = h_out + (kh - 1) // stride
    hp = max(h + 2 * padding, (rows - 1) * stride + phases)
    if hp > h:
        xp = np.zeros((n, c, hp, w + 2 * padding), dtype=xb.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = xb
    else:
        xp = np.ascontiguousarray(xb)
    # np.ndarray makes each strided view over a contiguous buffer in a tenth
    # of as_strided's time, which the small copies would notice
    sn, sc, sh, sw = xp.strides
    t = np.empty((c, phases, kw, n, rows, w_out), dtype=xb.dtype)
    t[...] = np.ndarray(t.shape, t.dtype, xp, 0, (sc, sh, sw, sn, stride * sh, stride * sw))
    tc, tr, tj, tn, tq, tw = t.strides
    cols = np.empty((c, kh, kw, n, h_out, w_out))
    for r in range(phases):
        cols[:, r::stride] = np.ndarray((c, len(range(r, kh, stride)), kw, n, h_out, w_out),
                                        t.dtype, t, r * tr, (tc, tq, tj, tn, tq, tw))
    return cols.reshape(c * kh * kw, n * h_out * w_out)


def conv2d(x, kernels, bias, stride=1, padding=0, return_cols=False):
    """Cross-correlation of [C,H,W] with [K,C,kh,kw] kernels (no flip).

    Zero padding; output extent floor((H + 2p - kh)/stride) + 1.  A batch
    [N,C,H,W] gives [N,K,h_out,w_out], one block of images at a time: each
    block's float64 im2col matrix, as many images as keep it within
    IM2COL_BYTES (at least one), goes through one GEMM, and the output
    columns are cast into their place in the result.  The matrix holds the
    input's values exactly, whatever its dtype, and the bias is added to
    the GEMM's result in place.  A float64 GEMM column may round in its
    last bit with the number of columns (OpenBLAS runs small products
    through kernels of their own), so float64 results may differ in that
    bit between blocks of other sizes, or a batch and its examples run one
    by one; float32 results match, bit for bit, except when that bit
    decides the rounding to float32 (the tests check the bytes).  With
    `return_cols`, the whole batch is one block, and the call returns
    (output, im2col matrix [C*kh*kw, N*h_out*w_out]).
    """
    xb, single = _batched(x, 3, "conv2d")
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if kernels.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D kernels, got {kernels.shape}")
    n, c, h, w = xb.shape
    k, ck, kh, kw = kernels.shape
    if ck != c:
        raise DimensionError(f"kernel channels {ck} != input channels {c}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError("kernel larger than padded input")
    h_out = _out_extent(h, kh, stride, padding)
    w_out = _out_extent(w, kw, stride, padding)
    block = n if return_cols else IM2COL_BYTES // (8 * c * kh * kw * h_out * w_out)
    block = max(1, block)
    wmat = kernels.reshape(k, c * kh * kw).astype(np.float64)
    bias = bias.astype(np.float64)[:, None]
    out = np.empty((n, k, h_out, w_out), dtype=xb.dtype)
    # an empty batch still makes its empty matrix, for return_cols
    for start in range(0, max(n, 1), block):
        # free the last block's matrix and product before this block's are
        # made: with two blocks' at once, the allocator gave the heap's top
        # back to the system after each call and faulted it in again
        cols = y = None
        xs = xb[start:start + block]
        cols = _im2col(xs, kh, kw, stride, padding, h_out, w_out)
        y = wmat @ cols
        y += bias
        out[start:start + block] = y.reshape(k, len(xs), h_out, w_out).swapaxes(0, 1)
    out = out[0] if single else out
    return (out, cols) if return_cols else out


def conv2d_input_grad(grad_out, x_shape, kernels, stride=1, padding=0):
    """Gradients [S,C,H,W] of conv2d w.r.t. its input [C,H,W] = x_shape,
    given a stack of S output cotangents [S,K,h_out,w_out]: S cotangents
    of one input, or of several inputs of that shape, since only the shape
    is read.

    Output (i, j) of kernel offset (di, dj) feeds padded input pixel
    (i*stride + di, j*stride + dj).  Round the padded extents Hp, Wp up to
    a multiple of the stride and put the cotangents at the top left of a
    zero grid [K, S, Hp/stride, Wp].  One GEMM of the kernels, rows ordered
    (di, dj, c), with that grid gives each offset's terms on a grid
    [C, S, Hp/stride, Wp].  If q is the flat index of (c, s, i, j) there,
    the pixel's flat index in the padded images [C, S, Hp, Wp] is
    stride*q + di*Wp + dj, so each offset is one 1-D add of stride `stride`
    at the constant offset di*Wp + dj.  The GEMM runs one kernel row di at
    a time, its kw*C rows of kernels against the whole grid, and that row's
    kw adds follow it, so its terms are read back from cache.

    Each input pixel receives the same nonzero terms, in the same
    row-major (di, dj) order, as a scatter over the output windows would
    give it, from +0.0.  Every other term is a finite kernel times a zero
    cell, ±0, and x + ±0 = x, +0 + ±0 = +0, so the float64 sums are those
    of the scatter.  A float64 GEMM column can round differently in the
    last bit when the number of columns changes (S, or the grid size), so a
    seed matches its own call, or the scatter, in float32 except when that
    bit decides the rounding.
    """
    g = np.asarray(grad_out)
    if g.ndim != 4:
        raise DimensionError(f"conv2d_input_grad expects [S, K, h, w] cotangents, got {g.shape}")
    c, h, w = x_shape
    k, _, kh, kw = kernels.shape
    s, _, h_out, w_out = g.shape
    hp = -(-(h + 2 * padding) // stride) * stride
    wp = -(-(w + 2 * padding) // stride) * stride
    grid = np.zeros((k, s, hp // stride, wp))
    grid[:, :, :h_out, :w_out] = g.swapaxes(0, 1)
    wmat = kernels.transpose(2, 3, 1, 0).reshape(kh, kw * c, k).astype(np.float64)
    grid = grid.reshape(k, -1)
    n = c * grid.shape[1]
    # the zero cells at the end of the last image land past it, in the slack
    xp = np.zeros(stride * n + (kh - 1) * wp + kw - 1)
    # one kernel row's terms, which the next row overwrites once its adds
    # have read them: 1/kh of the memory of all kh rows at once
    terms = np.empty((kw, n))
    for di in range(kh):
        np.matmul(wmat[di], grid, out=terms.reshape(kw * c, -1))
        for dj in range(kw):
            o = di * wp + dj
            xp[o:o + stride * n:stride] += terms[dj]
    gx = xp[:stride * n].reshape(c, s, hp, wp)[:, :, padding:h + padding, padding:w + padding]
    return np.ascontiguousarray(gx.swapaxes(0, 1), dtype=g.dtype)


def conv2d_param_grad(grad_out, x, kernel_shape, stride=1, padding=0, cols=None):
    """Gradients of conv2d w.r.t. kernels and bias.

    `cols` is the im2col matrix of `x` that `conv2d(..., return_cols=True)`
    gave; without it the matrix is built again.
    """
    k, c, kh, kw = kernel_shape
    h_out, w_out = grad_out.shape[1], grad_out.shape[2]
    if cols is None:
        cols = _im2col(x[None], kh, kw, stride, padding, h_out, w_out)
    else:
        want = (c * kh * kw, _out_extent(x.shape[1], kh, stride, padding)
                * _out_extent(x.shape[2], kw, stride, padding))
        if cols.shape != want:
            raise DimensionError(f"im2col matrix {cols.shape} != {want} for input "
                                 f"{x.shape} and kernels {tuple(kernel_shape)}")
    g = grad_out.reshape(k, -1).astype(np.float64)
    dk = (g @ cols.T).reshape(k, c, kh, kw)
    db = g.sum(axis=1)
    return dk.astype(grad_out.dtype), db.astype(grad_out.dtype)


def maxpool2d(x, window, stride):
    """Max pooling over [C,H,W] or a batch [N,C,H,W]; returns (output, argmax).

    argmax holds, per output element, the flat spatial index i*W + j of the
    winning input element within its own image, and the output is the
    input element there.  The winner is the window's first maximum in
    row-major order, so the backward routing is deterministic; a window
    that holds a NaN pools to its first NaN, as np.max and np.argmax do.
    A running np.maximum over the window's offsets, one strided view each,
    gives every window's maximum (NaN where it holds one), and one pass
    over the offsets in reverse order marks the first offset that equals it.
    """
    xb, single = _batched(x, 3, "maxpool2d")
    n, c, h, w = xb.shape
    if window > h or window > w:
        raise DimensionError(f"window {window} larger than input {h}x{w}")
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    # (offset di*W + dj, view [N, C, h_out, w_out] of the pixels at that offset)
    views = [(di * w + dj, xb[:, :, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride])
             for di in range(window) for dj in range(window)]
    top = views[0][1].copy()
    for _, view in views[1:]:
        np.maximum(view, top, out=top)
    # each window matches an offset in the first pass, or in the second if it holds a NaN
    arg = np.empty(top.shape, dtype=np.int64)
    for offset, view in reversed(views):
        np.putmask(arg, view == top, offset)
    if np.isnan(top).any():
        for offset, view in reversed(views):
            np.putmask(arg, np.isnan(view), offset)
    arg += (np.arange(h_out) * (stride * w))[:, None] + np.arange(0, stride * w_out, stride)
    # read back from the input, so a tie of -0.0 and +0.0 keeps the first
    best = xb.take(arg + (np.arange(n * c) * (h * w)).reshape(n, c, 1, 1))
    return (best[0], arg[0]) if single else (best, arg)


def maxpool2d_grad(grad_out, argmax, x_shape):
    """Route output cotangents [..., C, h, w] to the argmax positions that
    maxpool2d recorded for inputs of x_shape [C, H, W].

    `argmax` broadcasts against the cotangents: one input's [C, h, w] is
    shared by all of them (S of them [S, C, h, w]), and [N, 1, C, h, w]
    routes image n's S cotangents through its own argmax.  Returns
    [..., C, H, W].
    """
    g = np.asarray(grad_out)
    if g.ndim < 3:
        raise DimensionError(f"maxpool2d_grad expects [..., C, h, w] cotangents, got {g.shape}")
    c, h, w = x_shape
    # plane p (a leading index and a channel) is offset by p*H*W; bincount
    # adds the weights into their bins in input order, as np.add.at does, so
    # the sums agree bit for bit
    planes = g.size // (g.shape[-2] * g.shape[-1])
    offsets = (np.arange(planes) * (h * w)).reshape(g.shape[:-2] + (1, 1))
    gx = np.bincount((argmax + offsets).ravel(), weights=g.reshape(-1).astype(np.float64),
                     minlength=planes * h * w)
    return gx.reshape(g.shape[:-3] + (c, h, w)).astype(g.dtype)


def global_avg_pool(x):
    """[K,u,v] -> [K], or [N,K,u,v] -> [N,K]; mean over the spatial grid (Z = u*v).

    The sums are float64 without a float64 copy of x; on planes of up to
    8 192 values (numpy's buffer size) they equal those of such a copy,
    bit for bit.
    """
    xb, single = _batched(x, 3, "global_avg_pool")
    out = xb.mean(axis=(2, 3), dtype=np.float64).astype(xb.dtype)
    return out[0] if single else out


def dense(x, weights, bias):
    """weights[U,M] @ x[M] + bias[U]; a batch x[N,M] gives [N,U].

    One example runs as a float64 GEMV and a batch as one GEMM, whose sums
    may round differently in the last float64 bit, so a batch row matches
    its one-example result in float32 except when that bit decides the
    rounding to float32.  float64 weights are used as they are, without a
    copy.
    """
    xb, single = _batched(x, 1, "dense")
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[1] != xb.shape[1]:
        raise DimensionError(f"dense shape mismatch: weights {weights.shape}, "
                             f"input {np.shape(x)}")
    out = (xb.astype(np.float64, copy=False) @ weights.astype(np.float64, copy=False).T
           + np.asarray(bias, np.float64))
    out = out.astype(xb.dtype)
    return out[0] if single else out


def relu(x):
    return np.maximum(np.asarray(x), 0)


def softmax(x):
    """Numerically stable softmax over a score vector, or each row of [N,K]."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype.kind == "f" else np.float64
    z = np.exp(x.astype(np.float64) - x.max(axis=-1, keepdims=True))
    return (z / z.sum(axis=-1, keepdims=True)).astype(dtype)
