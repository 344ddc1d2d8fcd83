"""Bit-exact image and heatmap I/O, the one writer of every output file,
plus rendering helpers.

Formats:
  * binary PPM (P6) for RGB and PGM (P5) for grayscale, maxval 255
  * FMAP1, a tiny float container for heatmaps:
    ``FMAP1\\n<w> <h>\\n`` followed by w*h little-endian float32, row-major
"""

import functools
import os
import re

import numpy as np


class ImageFormatError(ValueError):
    """Malformed image or heatmap file; message carries the byte offset."""


# ---------------------------------------------------------------- netpbm

# netpbm headers are whitespace-separated; '#' starts a comment to the end
# of its line.  The token is group 1, empty at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_token(data, pos):
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise ImageFormatError(f"unexpected end of header at byte {match.start(1)}")
    return match[1], match.end()


def decode_netpbm(data):
    """Decode P5/P6 bytes into a uint8 array [H,W] or [H,W,3]."""
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"bad magic {magic!r} at byte 0")
    vals = []
    for _ in range(3):
        tok, pos = _read_token(data, pos)
        try:
            vals.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"non-numeric header token {tok!r} near byte {pos}")
    w, h, maxval = vals
    if w < 1 or h < 1:
        raise ImageFormatError(f"image extent {w}x{h} must be at least 1x1")
    if maxval != 255:
        raise ImageFormatError(f"maxval {maxval} unsupported (must be 255)")
    pos += 1  # exactly one whitespace byte after maxval
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            f"truncated payload: need {need} bytes at offset {pos}, "
            f"have {max(0, len(data) - pos)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(h, w, 3).copy()
    return arr.reshape(h, w).copy()


def encode_netpbm(arr):
    """Encode uint8 [H,W] as P5 or [H,W,3] as P6."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ImageFormatError(f"expected uint8 pixels, got {arr.dtype}")
    if arr.ndim == 2:
        magic, (h, w) = b"P5", arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic, (h, w) = b"P6", arr.shape[:2]
    else:
        raise ImageFormatError(f"cannot encode shape {arr.shape}")
    header = magic + b"\n" + f"{w} {h}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(arr).tobytes()


def read_image(path):
    with open(path, "rb") as fh:
        return decode_netpbm(fh.read())


def write_image(arr, path):
    write_bytes(path, encode_netpbm(arr))


# ----------------------------------------------------------------- FMAP

FMAP_MAGIC = b"FMAP1\n"


def encode_fmap(heat):
    heat = np.asarray(heat, dtype="<f4")
    if heat.ndim != 2:
        raise ImageFormatError(f"FMAP stores 2-D maps, got shape {heat.shape}")
    if heat.size == 0:
        raise ImageFormatError(f"FMAP stores maps of at least 1x1, got shape {heat.shape}")
    h, w = heat.shape
    return FMAP_MAGIC + f"{w} {h}\n".encode("ascii") + np.ascontiguousarray(heat).tobytes()


def decode_fmap(data):
    if not data.startswith(FMAP_MAGIC):
        raise ImageFormatError("bad FMAP magic at byte 0")
    end = data.find(b"\n", len(FMAP_MAGIC))
    if end < 0:
        raise ImageFormatError(f"unterminated FMAP size line at byte {len(FMAP_MAGIC)}")
    try:
        w, h = (int(t) for t in data[len(FMAP_MAGIC):end].split())
    except ValueError:
        raise ImageFormatError(f"bad FMAP size line at byte {len(FMAP_MAGIC)}")
    if w < 1 or h < 1:
        raise ImageFormatError(f"FMAP extent {w}x{h} must be at least 1x1")
    need = 4 * w * h
    payload = data[end + 1:]
    if len(payload) != need:
        raise ImageFormatError(
            f"FMAP payload is {len(payload)} bytes at offset {end + 1}, need {need}")
    return np.frombuffer(payload, dtype="<f4").reshape(h, w).copy()


def read_fmap(path):
    with open(path, "rb") as fh:
        return decode_fmap(fh.read())


def write_fmap(heat, path):
    write_bytes(path, encode_fmap(heat))


# --------------------------------------------------------------- output

def write_bytes(path, data):
    """Make `data` the whole content of `path`; every file camlab writes
    goes through here, its bytes encoded before the file is opened.

    An existing file is overwritten in place, not truncated first (on ext4,
    truncating a file with data to zero makes `close` start writeback), and
    cut to the bytes written whenever it was longer, also when a write
    fails: its inode, mode and hard links are kept, a pipe works, and a
    failed write leaves a short file, never the old length.  Until the
    kernel writes the file back, even after this process exits, a crash can
    leave old bytes, or new bytes followed by old ones.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old_size = os.fstat(fd).st_size
        view = memoryview(data)
        written = 0
        try:
            while written < len(view):
                written += os.write(fd, view[written:])
        finally:
            if old_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


# ------------------------------------------------------------- resizing

@functools.lru_cache(maxsize=64)
def _axis_coords(n_src, n_dst):
    """Clamped source indices lo, hi and weight frac of each destination
    pixel along one axis; read-only, as the cache shares them."""
    src = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    src = np.clip(src, 0, n_src - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_src - 1)
    frac = src - lo
    for arr in (lo, hi, frac):
        arr.setflags(write=False)
    return lo, hi, frac


def bilinear_resize(grid, new_w, new_h):
    """Bilinear resampling with half-pixel centers and clamped borders.

    Source coordinate of destination pixel d is (d + 0.5) * scale - 0.5.
    Each source row is blended along x once, then rows are blended along y;
    per pixel this is the same float64 expression as blending the four
    corner gathers.  A stack of grids [..., h, w] gives [..., new_h, new_w],
    each map byte for byte that of its grid alone.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim < 2:
        raise ValueError(f"expected a 2-D grid or a stack of them, got shape {grid.shape}")
    h, w = grid.shape[-2:]
    if new_w < 1 or new_h < 1:
        raise ValueError("target dims must be >= 1")
    if (new_h, new_w) == (h, w):
        return grid.astype(np.float32)
    ylo, yhi, fy = _axis_coords(h, new_h)
    xlo, xhi, fx = _axis_coords(w, new_w)
    left = grid[..., xlo]
    rows = left + (grid[..., xhi] - left) * fx
    top = rows[..., ylo, :]
    return (top + (rows[..., yhi, :] - top) * fy[:, None]).astype(np.float32)


# ------------------------------------------------------------ rendering

# piecewise-linear jet: value -> RGB control points
_JET_POINTS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_JET_COLORS = np.array([
    (0, 0, 131),
    (0, 60, 170),
    (5, 255, 255),
    (255, 255, 0),
    (255, 0, 0),
], dtype=np.float64)


def normalize_heatmap(heat):
    """Scale so the max positive value maps to 1; all-zero maps stay zero.
    A stack [..., h, w] scales each map by its own max."""
    heat = np.asarray(heat, dtype=np.float32)
    m = heat.max(axis=(-2, -1), keepdims=True, initial=0.0)
    # a map whose max is NaN is divided by it, not zeroed
    return np.divide(heat, m, out=np.zeros_like(heat), where=~(m <= 0))


def colormap_jet(norm):
    """Map a [0,1] grid through the jet colormap; returns uint8 [H,W,3]."""
    v = np.clip(np.asarray(norm, dtype=np.float64), 0.0, 1.0)
    rgb = np.empty(v.shape + (3,), dtype=np.float64)
    for ch in range(3):
        rgb[..., ch] = np.interp(v, _JET_POINTS, _JET_COLORS[:, ch])
    return np.floor(rgb + 0.5).astype(np.uint8)


def overlay(image, heat_rgb, alpha=0.5):
    """Blend a rendered heatmap over an image: round(a*heat + (1-a)*img)."""
    image = np.asarray(image, dtype=np.float64)
    heat_rgb = np.asarray(heat_rgb, dtype=np.float64)
    if image.ndim == 2:
        image = np.stack([image] * 3, axis=-1)
    if image.shape != heat_rgb.shape:
        raise ValueError(f"shape mismatch {image.shape} vs {heat_rgb.shape}")
    out = alpha * heat_rgb + (1 - alpha) * image
    return np.floor(out + 0.5).astype(np.uint8)


def heatmap_overlay(image, heat):
    """A heatmap over its image [C,H,W]: resized to the image, normalized,
    through the jet colormap and blended over it; uint8 [H,W,3]."""
    h, w = np.shape(image)[-2:]
    rgb = colormap_jet(normalize_heatmap(bilinear_resize(heat, w, h)))
    return overlay(tensor_to_image(image), rgb)


def tensor_to_image(x):
    """[C,H,W] float in [0,1] -> uint8 [H,W] or [H,W,3]."""
    x = np.asarray(x)
    q = np.floor(np.clip(x, 0, 1) * 255 + 0.5).astype(np.uint8)
    if q.shape[0] == 1:
        return q[0]
    return np.moveaxis(q, 0, -1)


def image_to_tensor(arr):
    """uint8 [H,W] or [H,W,3] -> [C,H,W] float32 in [0,1]."""
    arr = np.asarray(arr)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    else:
        arr = np.moveaxis(arr, -1, 0)
    return (arr.astype(np.float32) / 255.0)
