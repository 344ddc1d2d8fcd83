"""Tensor ops against naive loop oracles and hand cases."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from camlab import ops


# ------------------------------------------------------------- oracles

def conv2d_loop(x, kernels, bias, stride=1, padding=0):
    c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    xp = np.pad(x.astype(np.float64),
                ((0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((k, h_out, w_out))
    for f in range(k):
        for i in range(h_out):
            for j in range(w_out):
                patch = xp[:, i * stride:i * stride + kh,
                           j * stride:j * stride + kw]
                out[f, i, j] = (patch * kernels[f].astype(np.float64)).sum() \
                    + float(bias[f])
    return out


def maxpool_loop(x, window, stride):
    """Each window's first maximum in row-major order, or its first NaN."""
    c, h, w = x.shape
    h_out = (h - window) // stride + 1
    w_out = (w - window) // stride + 1
    out = np.zeros((c, h_out, w_out), dtype=x.dtype)
    arg = np.zeros((c, h_out, w_out), dtype=np.int64)
    for ch in range(c):
        for i in range(h_out):
            for j in range(w_out):
                best = None
                for di in range(window):
                    for dj in range(window):
                        v = x[ch, i * stride + di, j * stride + dj]
                        # strict: ties keep the first seen; a NaN wins once
                        if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
                            best = v
                            arg[ch, i, j] = (i * stride + di) * w \
                                + (j * stride + dj)
                out[ch, i, j] = best
    return out, arg


# --------------------------------------------------------------- tests

def test_conv2d_matches_loop_oracle(rng):
    for _ in range(10):
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        kh = int(rng.integers(1, 4))
        h = int(rng.integers(kh, 9))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((c, h, h)).astype(np.float32)
        kern = rng.standard_normal((k, c, kh, kh)).astype(np.float32)
        bias = rng.standard_normal(k).astype(np.float32)
        got = ops.conv2d(x, kern, bias, stride, pad)
        want = conv2d_loop(x, kern, bias, stride, pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_conv2d_identity_kernel():
    x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
    kern = np.ones((1, 1, 1, 1), dtype=np.float32)
    out = ops.conv2d(x, kern, np.zeros(1, np.float32))
    np.testing.assert_array_equal(out, x)


def test_conv2d_shape_errors():
    x = np.zeros((1, 4, 4), np.float32)
    with pytest.raises(ops.DimensionError):
        ops.conv2d(x, np.zeros((2, 3, 3, 3), np.float32), np.zeros(2))
    with pytest.raises(ops.DimensionError):
        ops.conv2d(x, np.zeros((1, 1, 6, 6), np.float32), np.zeros(1))
    with pytest.raises(ops.DimensionError):
        ops.conv2d(np.zeros((4, 4), np.float32),
                   np.zeros((1, 1, 3, 3), np.float32), np.zeros(1))


def test_conv2d_grads_match_finite_differences(rng):
    x = rng.standard_normal((2, 5, 5))
    kern = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    g_out = rng.standard_normal((3, 5, 5))

    def score(xv, kv, bv):
        return float((ops.conv2d(xv, kv, bv, 1, 1) * g_out).sum())

    gx = ops.conv2d_input_grad(g_out, x.shape, kern, 1, 1)
    gk, gb = ops.conv2d_param_grad(g_out, x, kern.shape, 1, 1)
    eps = 1e-6
    for _ in range(5):
        i = tuple(rng.integers(0, d) for d in x.shape)
        p = x.copy(); p[i] += eps
        m = x.copy(); m[i] -= eps
        fd = (score(p, kern, bias) - score(m, kern, bias)) / (2 * eps)
        assert abs(fd - gx[i]) < 1e-4
        i = tuple(rng.integers(0, d) for d in kern.shape)
        p = kern.copy(); p[i] += eps
        m = kern.copy(); m[i] -= eps
        fd = (score(x, p, bias) - score(x, m, bias)) / (2 * eps)
        assert abs(fd - gk[i]) < 1e-4
    np.testing.assert_allclose(gb, g_out.sum(axis=(1, 2)), atol=1e-6)


def test_maxpool_matches_loop_oracle(rng):
    for _ in range(10):
        c = int(rng.integers(1, 4))
        win = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        h = int(rng.integers(win, 9))
        x = rng.standard_normal((c, h, h)).astype(np.float32)
        out, arg = ops.maxpool2d(x, win, stride)
        want_out, want_arg = maxpool_loop(x, win, stride)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(arg, want_arg)


def test_maxpool_tie_breaks_to_first_in_row_major_order():
    x = np.full((1, 2, 2), 7.0, dtype=np.float32)
    out, arg = ops.maxpool2d(x, 2, 2)
    assert out[0, 0, 0] == 7.0
    assert arg[0, 0, 0] == 0  # top-left wins the four-way tie


def test_maxpool_window_holding_a_nan_pools_to_its_first_nan():
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
    x[0, 0, 1] = x[0, 1, 0] = np.nan   # two NaNs among numbers
    x[0, 2:, 2:] = np.nan              # a window of NaNs only
    out, arg = ops.maxpool2d(x, 2, 2)
    assert np.isnan(out[0, 0, 0]) and arg[0, 0, 0] == 1
    assert np.isnan(out[0, 1, 1]) and arg[0, 1, 1] == 2 * 4 + 2  # inside its window
    assert (out[0, 0, 1], arg[0, 0, 1]) == (7, 7)
    assert (out[0, 1, 0], arg[0, 1, 0]) == (13, 13)
    # the cotangent of each window goes to a pixel of that window
    gx = ops.maxpool2d_grad(np.ones((1, 2, 2), np.float32), arg, x.shape)
    assert gx[0, 2:, 2:].sum() == 1 and gx[0, 0, 1] == 1 and gx[0, 0, 0] == 0


def test_maxpool_window_of_minus_infinity_routes_inside_it():
    x = np.zeros((1, 4, 4), np.float32)
    x[0, 2:, 2:] = -np.inf
    out, arg = ops.maxpool2d(x, 2, 2)
    assert out[0, 1, 1] == -np.inf and arg[0, 1, 1] == 2 * 4 + 2


@st.composite
def pool_cases(draw):
    """A batch [N, C, H, W] of a few value levels, so windows tie often,
    with signed zeros, -inf and NaN among them, and a window with a stride
    below, equal to or above it."""
    window = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(window, 9)), draw(st.integers(window, 9)))
    levels = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, np.nan])
    values = draw(st.lists(levels, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, np.float32).reshape(shape), window, stride


@given(pool_cases())
def test_maxpool_matches_loop_oracle_on_ties_and_nans(case):
    x, window, stride = case
    out, arg = ops.maxpool2d(x, window, stride)
    for n, image in enumerate(x):
        want_out, want_arg = maxpool_loop(image, window, stride)
        assert out[n].tobytes() == want_out.tobytes()   # the sign of a zero too
        np.testing.assert_array_equal(arg[n], want_arg)


def test_maxpool_window_too_large():
    with pytest.raises(ops.DimensionError):
        ops.maxpool2d(np.zeros((1, 2, 2), np.float32), 3, 1)


def test_maxpool_grad_scatters_to_argmax(rng):
    x = rng.standard_normal((2, 4, 4)).astype(np.float32)
    out, arg = ops.maxpool2d(x, 2, 2)
    g = rng.standard_normal(out.shape).astype(np.float32)
    gx = ops.maxpool2d_grad(g, arg, x.shape)
    # each output's cotangent lands exactly on its winning input
    want = np.zeros((2, 16))
    for ch in range(2):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                want[ch, arg[ch, i, j]] += g[ch, i, j]
    np.testing.assert_allclose(gx.reshape(2, 16), want, atol=1e-6)


def test_maxpool_grad_overlapping_windows_accumulates():
    x = np.zeros((1, 3, 3), np.float32)
    x[0, 1, 1] = 5.0  # center wins every 2x2 window at stride 1
    out, arg = ops.maxpool2d(x, 2, 1)
    g = np.ones(out.shape, np.float32)
    gx = ops.maxpool2d_grad(g, arg, x.shape)
    assert gx[0, 1, 1] == 4.0
    assert gx.sum() == 4.0


def test_global_avg_pool():
    x = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    np.testing.assert_allclose(ops.global_avg_pool(x), [1.5, 5.5])
    with pytest.raises(ops.DimensionError):
        ops.global_avg_pool(np.zeros(4, np.float32))


def test_dense_matches_loop(rng):
    x = rng.standard_normal(7).astype(np.float32)
    w = rng.standard_normal((3, 7)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    want = [sum(float(w[i, j]) * float(x[j]) for j in range(7)) + float(b[i])
            for i in range(3)]
    np.testing.assert_allclose(ops.dense(x, w, b), want, atol=1e-5)
    with pytest.raises(ops.DimensionError):
        ops.dense(x, w[:, :5], b)


def test_relu():
    np.testing.assert_array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])),
                                  [0.0, 0.0, 2.0])


def test_softmax_sums_to_one_and_is_shift_stable(rng):
    x = rng.standard_normal(5).astype(np.float32)
    p = ops.softmax(x)
    assert p.dtype == np.float32
    assert abs(float(p.sum()) - 1.0) < 1e-6
    # shift stability checked in float64: adding 1000 in float32 would
    # round away the low bits of x itself
    x64 = x.astype(np.float64)
    np.testing.assert_allclose(ops.softmax(x64 + 1000.0), ops.softmax(x64),
                               atol=1e-12)
    assert (p > 0).all()


def test_softmax_uniform():
    np.testing.assert_allclose(ops.softmax(np.zeros(4)), np.full(4, 0.25))


def test_float64_inputs_stay_float64(rng):
    x = rng.standard_normal((1, 4, 4))
    k = rng.standard_normal((2, 1, 3, 3))
    assert ops.conv2d(x, k, np.zeros(2), 1, 1).dtype == np.float64
    assert ops.dense(np.zeros(3), np.zeros((2, 3)), np.zeros(2)).dtype == np.float64
    assert ops.softmax(np.zeros(3)).dtype == np.float64


# ------------------------------------------------------------ batch axis

BATCH_SIZES = (1, 3, 7)


def assert_batch_is_stacked_examples(op, batch):
    """op on a batch equals op on each example, stacked, byte for byte."""
    got = op(batch)
    want = [op(x) for x in batch]
    if isinstance(got, tuple):
        for g, w in zip(got, zip(*want)):
            assert g.dtype == w[0].dtype
            assert g.tobytes() == np.stack(w).tobytes()
    else:
        assert got.dtype == want[0].dtype
        assert got.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_conv2d_batch_equals_stacked_examples(rng, n):
    x = rng.standard_normal((n, 3, 9, 9)).astype(np.float32)
    kern = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    assert_batch_is_stacked_examples(lambda a: ops.conv2d(a, kern, bias, 2, 1), x)


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_maxpool2d_batch_equals_stacked_examples(rng, n):
    x = rng.standard_normal((n, 2, 7, 7)).astype(np.float32)
    x[:, :, :2, :2] = 1.5  # ties inside a window
    assert_batch_is_stacked_examples(lambda a: ops.maxpool2d(a, 2, 2), x)
    assert_batch_is_stacked_examples(lambda a: ops.maxpool2d(a, 3, 1), x)
    # argmax keeps its per-image i*W + j meaning
    _, arg = ops.maxpool2d(x, 2, 2)
    assert arg.max() < 7 * 7


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_global_avg_pool_batch_equals_stacked_examples(rng, n):
    x = rng.standard_normal((n, 5, 6, 6)).astype(np.float32)
    assert_batch_is_stacked_examples(ops.global_avg_pool, x)


@given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 64), st.integers(1, 64),
       st.sampled_from([np.float32, np.float64]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_global_avg_pool_equals_the_mean_of_a_float64_copy(n, k, h, w, dtype, strided, seed):
    # planes of up to 8 192 values, numpy's buffer size; above that a float32
    # plane summed through the buffer, or a strided float64 one, may be
    # summed in another order than its float64 copy
    x = np.random.default_rng(seed).standard_normal((n, k, h, w)).astype(dtype)
    if strided:
        x = x[:, :, ::-1]
    want = x.astype(np.float64).mean(axis=(2, 3)).astype(dtype)
    assert ops.global_avg_pool(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_dense_batch_equals_stacked_examples(rng, n):
    x = rng.standard_normal((n, 40)).astype(np.float32)
    w = rng.standard_normal((6, 40)).astype(np.float32)
    b = rng.standard_normal(6).astype(np.float32)
    assert_batch_is_stacked_examples(lambda a: ops.dense(a, w, b), x)


def test_softmax_batch_is_per_row(rng):
    x = rng.standard_normal((4, 3)).astype(np.float32)
    want = np.stack([ops.softmax(row) for row in x])
    assert ops.softmax(x).tobytes() == want.tobytes()


def test_batch_axis_rank_is_checked():
    with pytest.raises(ops.DimensionError):
        ops.conv2d(np.zeros((1, 1, 1, 4, 4), np.float32),
                   np.zeros((1, 1, 3, 3), np.float32), np.zeros(1))
    with pytest.raises(ops.DimensionError):
        ops.maxpool2d(np.zeros((2, 2), np.float32), 2, 2)
    with pytest.raises(ops.DimensionError):
        ops.dense(np.zeros((2, 2, 3), np.float32), np.zeros((2, 3)), np.zeros(2))


@st.composite
def conv_cases(draw):
    c = draw(st.integers(1, 3))
    kh = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * pad), 9))
    w = draw(st.integers(max(1, kh - 2 * pad), 9))
    return dict(n=draw(st.integers(1, 5)), c=c, h=h, w=w, k=draw(st.integers(1, 4)),
                kh=kh, stride=draw(st.integers(1, 3)), pad=pad,
                seed=draw(st.integers(0, 2 ** 32 - 1)))


@given(conv_cases())
def test_conv2d_batch_property(case):
    rng = np.random.default_rng(case["seed"])
    x = rng.standard_normal((case["n"], case["c"], case["h"], case["w"])).astype(np.float32)
    kern = rng.standard_normal((case["k"], case["c"], case["kh"], case["kh"])).astype(np.float32)
    bias = rng.standard_normal(case["k"]).astype(np.float32)
    got = ops.conv2d(x, kern, bias, case["stride"], case["pad"])
    for xi, gi in zip(x, got):
        assert gi.tobytes() == ops.conv2d(xi, kern, bias, case["stride"], case["pad"]).tobytes()
        np.testing.assert_allclose(gi, conv2d_loop(xi, kern, bias, case["stride"], case["pad"]),
                                   rtol=1e-5, atol=1e-5)


# ---------------------------------------------------- backward oracles

def conv2d_grads_loop(g_out, x, kernels, stride, padding):
    """float64 loop: (input cotangent, kernel gradient, bias gradient)."""
    c, h, w = x.shape
    kh, kw = kernels.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gk = np.zeros(kernels.shape)
    g = g_out.astype(np.float64)
    for f in range(g.shape[0]):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                win = (slice(None), slice(i * stride, i * stride + kh),
                       slice(j * stride, j * stride + kw))
                gxp[win] += g[f, i, j] * kernels[f].astype(np.float64)
                gk[f] += g[f, i, j] * xp[win]
    return gxp[:, padding:padding + h, padding:padding + w], gk, g.sum(axis=(1, 2))


def im2col_slices(x, kh, kw, stride, padding):
    """The float64 im2col matrix [C*kh*kw, N*h_out*w_out] of x [N, C, H, W],
    one strided slice of a float64 padded copy per kernel offset."""
    n, c, h, w = x.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x.swapaxes(0, 1)
    cols = np.empty((c, kh, kw, n, h_out, w_out))
    for di in range(kh):
        for dj in range(kw):
            cols[:, di, dj] = xp[:, :, di:di + stride * h_out:stride,
                                 dj:dj + stride * w_out:stride]
    return cols.reshape(c * kh * kw, n * h_out * w_out)


@given(conv_cases(), st.sampled_from([np.float32, np.float64]), st.booleans())
def test_im2col_equals_the_slice_reference(case, dtype, strided):
    rng = np.random.default_rng(case["seed"])
    k, c, kh, stride, pad = case["k"], case["c"], case["kh"], case["stride"], case["pad"]
    x = rng.standard_normal((case["n"], c, case["h"], case["w"])).astype(dtype)
    if strided:   # the same values through a view that walks the rows backwards
        x = np.ascontiguousarray(x[:, :, ::-1])[:, :, ::-1]
    kern = rng.standard_normal((k, c, kh, kh)).astype(dtype)
    bias = rng.standard_normal(k).astype(dtype)
    want = im2col_slices(x, kh, kh, stride, pad)
    y, cols = ops.conv2d(x, kern, bias, stride, pad, return_cols=True)
    assert cols.dtype == want.dtype and cols.shape == want.shape
    assert cols.tobytes() == want.tobytes()
    # the parameter gradient builds the same matrix when it is not given one
    g = rng.standard_normal(y.shape[1:]).astype(dtype)
    got = ops.conv2d_param_grad(g, x[0], kern.shape, stride, pad)
    given_cols = ops.conv2d_param_grad(g, x[0], kern.shape, stride, pad,
                                       cols=im2col_slices(x[:1], kh, kh, stride, pad))
    for a, b in zip(got, given_cols):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def conv_operands(case, dtype):
    rng = np.random.default_rng(case["seed"])
    x = rng.standard_normal((case["c"], case["h"], case["w"])).astype(dtype)
    kern = rng.standard_normal((case["k"], case["c"], case["kh"], case["kh"])).astype(dtype)
    bias = rng.standard_normal(case["k"]).astype(dtype)
    y = ops.conv2d(x, kern, bias, case["stride"], case["pad"])
    return x, kern, bias, rng.standard_normal(y.shape).astype(dtype)


@given(conv_cases())
def test_conv2d_grads_match_loop_reference(case):
    x, kern, _, g = conv_operands(case, np.float64)
    stride, pad = case["stride"], case["pad"]
    want_x, want_k, want_b = conv2d_grads_loop(g, x, kern, stride, pad)
    np.testing.assert_allclose(ops.conv2d_input_grad(g, x.shape, kern, stride, pad),
                               want_x, rtol=1e-10, atol=1e-10)
    gk, gb = ops.conv2d_param_grad(g, x, kern.shape, stride, pad)
    np.testing.assert_allclose(gk, want_k, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(gb, want_b, rtol=1e-10, atol=1e-10)


@given(conv_cases())
def test_conv2d_param_grad_with_forward_cols_is_byte_identical(case):
    x, kern, bias, g = conv_operands(case, np.float32)
    stride, pad = case["stride"], case["pad"]
    y, cols = ops.conv2d(x, kern, bias, stride, pad, return_cols=True)
    assert y.tobytes() == ops.conv2d(x, kern, bias, stride, pad).tobytes()
    assert cols.dtype == np.float64
    reused = ops.conv2d_param_grad(g, x, kern.shape, stride, pad, cols=cols)
    rebuilt = ops.conv2d_param_grad(g, x, kern.shape, stride, pad)
    for a, b in zip(reused, rebuilt):
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()


def test_conv2d_param_grad_rejects_cols_of_the_wrong_shape(rng):
    x = rng.standard_normal((2, 6, 6)).astype(np.float32)
    kern = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    y, cols = ops.conv2d(x, kern, np.zeros(3), 1, 1, return_cols=True)
    assert cols.shape == (2 * 3 * 3, 6 * 6)
    g = np.ones_like(y)
    for bad in (cols[:-1], cols[:, :-1], cols.T, cols.reshape(-1)):
        with pytest.raises(ops.DimensionError, match="im2col"):
            ops.conv2d_param_grad(g, x, kern.shape, 1, 1, cols=bad)
    with pytest.raises(ops.DimensionError):   # the columns of another padding
        ops.conv2d_param_grad(g, x, kern.shape, 1, 0, cols=cols)


def maxpool2d_grad_add_at(g, argmax, x_shape):
    """Scatter-add through np.add.at, in float64."""
    c, h, w = x_shape
    gx = np.zeros((c, h * w))
    chan = np.repeat(np.arange(c), argmax[0].size)
    np.add.at(gx, (chan, argmax.reshape(c, -1).ravel()), g.reshape(c, -1).ravel())
    return gx.reshape(c, h, w).astype(g.dtype)


@st.composite
def pool_cases(draw):
    window = draw(st.integers(1, 4))
    return dict(c=draw(st.integers(1, 4)), h=draw(st.integers(window, 10)),
                w=draw(st.integers(window, 10)), window=window,
                stride=draw(st.integers(1, 3)), levels=draw(st.integers(1, 4)),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


@given(pool_cases())
def test_maxpool2d_grad_equals_add_at_reference_byte_for_byte(case):
    rng = np.random.default_rng(case["seed"])
    # few distinct levels give ties and, with stride < window, one input
    # position that wins several overlapping windows
    x = rng.integers(0, case["levels"], (case["c"], case["h"], case["w"])).astype(np.float32)
    out, arg = ops.maxpool2d(x, case["window"], case["stride"])
    g = rng.standard_normal(out.shape).astype(np.float32)
    got = ops.maxpool2d_grad(g, arg, x.shape)
    want = maxpool2d_grad_add_at(g, arg, x.shape)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def conv2d_input_grad_col2im(g, x_shape, kernels, stride, padding):
    """The input cotangent as one GEMM over the output windows and a
    scatter-add of each kernel offset's [C, S, h_out, w_out] block into the
    padded images, offsets in row-major order."""
    c, h, w = x_shape
    k, _, kh, kw = kernels.shape
    s, _, h_out, w_out = g.shape
    wmat = kernels.reshape(k, c * kh * kw).astype(np.float64)
    cols = (wmat.T @ g.swapaxes(0, 1).reshape(k, -1).astype(np.float64)).reshape(
        c, kh, kw, s, h_out, w_out)
    xp = np.zeros((c, s, h + 2 * padding, w + 2 * padding))
    for di in range(kh):
        for dj in range(kw):
            xp[:, :, di:di + stride * h_out:stride, dj:dj + stride * w_out:stride] += cols[:, di, dj]
    gx = xp[:, :, padding:h + padding, padding:w + padding].swapaxes(0, 1)
    return np.ascontiguousarray(gx, dtype=g.dtype)


# the convs of the fixture specs: 5x5 kernels, padding 2
C1 = dict(n=1, c=1, h=48, w=48, k=6, kh=5, stride=2, pad=2, seed=0)
C2 = dict(n=1, c=6, h=24, w=24, k=12, kh=5, stride=1, pad=2, seed=0)


@given(conv_cases(), st.integers(1, 4))   # S stacked cotangents
@example(C1, 1)
@example(C1, 3)
@example(C2, 1)
@example(C2, 3)
def test_conv2d_input_grad_equals_the_scatter_reference(case, s):
    stride, pad = case["stride"], case["pad"]
    for dtype in (np.float32, np.float64):
        x, kern, _, g = conv_operands(case, dtype)
        seeds = np.random.default_rng(case["seed"] + 1).standard_normal(
            (s,) + g.shape).astype(dtype)
        got = ops.conv2d_input_grad(seeds, x.shape, kern, stride, pad)
        want = conv2d_input_grad_col2im(seeds, x.shape, kern, stride, pad)
        assert got.dtype == want.dtype and got.shape == want.shape
        if dtype == np.float32 or case["k"] == 1:
            # with one kernel every GEMM term is one rounded product, so the
            # float64 sums must agree too, which pins their order
            assert got.tobytes() == want.tobytes()
        else:
            # the two GEMMs have different column counts and may round a
            # term differently in its last bit; under cancellation that is
            # many ulps of the result, so bound the difference by the
            # rounding of sums of K products and kh*kw terms instead
            scale = conv2d_input_grad_col2im(abs(seeds), x.shape, abs(kern), stride, pad)
            terms = case["k"] + case["kh"] ** 2
            assert (abs(got - want) <= 2 * terms * np.finfo(np.float64).eps * scale).all()


# ------------------------------------------- a leading axis of S cotangents

@given(conv_cases())
def test_conv2d_input_grad_of_stacked_cotangents_equals_each_alone(case):
    x, kern, _, g = conv_operands(case, np.float32)
    stride, pad = case["stride"], case["pad"]
    seeds = np.random.default_rng(case["seed"] + 1).standard_normal(
        (case["n"],) + g.shape).astype(np.float32)   # n serves as the seed count S
    got = ops.conv2d_input_grad(seeds, x.shape, kern, stride, pad)
    assert got.shape == (case["n"],) + x.shape and got.dtype == np.float32
    for seed, row in zip(seeds, got):
        assert row.tobytes() == ops.conv2d_input_grad(seed, x.shape, kern, stride, pad).tobytes()


@given(pool_cases(), st.integers(1, 4))
def test_maxpool2d_grad_of_stacked_cotangents_equals_each_alone(case, s):
    rng = np.random.default_rng(case["seed"])
    x = rng.integers(0, case["levels"], (case["c"], case["h"], case["w"])).astype(np.float32)
    out, arg = ops.maxpool2d(x, case["window"], case["stride"])
    seeds = rng.standard_normal((s,) + out.shape).astype(np.float32)
    got = ops.maxpool2d_grad(seeds, arg, x.shape)
    assert got.shape == (s,) + x.shape
    for seed, row in zip(seeds, got):
        assert row.tobytes() == maxpool2d_grad_add_at(seed, arg, x.shape).tobytes()


def test_backward_ops_reject_a_cotangent_of_the_wrong_rank():
    with pytest.raises(ops.DimensionError):
        ops.conv2d_input_grad(np.zeros((1, 1, 1, 2, 2), np.float32), (1, 4, 4),
                              np.zeros((1, 1, 3, 3), np.float32))
    with pytest.raises(ops.DimensionError):
        ops.maxpool2d_grad(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.int64), (1, 4, 4))
