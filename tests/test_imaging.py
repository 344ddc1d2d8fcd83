"""Image/heatmap formats, the output writer, resampling, rendering."""

import ast
import errno
import os
import pathlib
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camlab import imaging
from camlab.imaging import (ImageFormatError, bilinear_resize, colormap_jet,
                            decode_fmap, decode_netpbm, encode_fmap,
                            encode_netpbm, image_to_tensor, overlay,
                            read_fmap, read_image, tensor_to_image,
                            write_bytes, write_fmap, write_image)


# ---------------------------------------------------------------- netpbm

def test_pgm_golden_bytes():
    assert encode_netpbm(np.array([[255]], np.uint8)) == b"P5\n1 1\n255\n\xff"


def test_ppm_golden_bytes():
    pix = np.array([[[255, 0, 10]]], np.uint8)
    assert encode_netpbm(pix) == b"P6\n1 1\n255\n\xff\x00\x0a"


def test_netpbm_round_trips(rng, tmp_path):
    gray = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    rgb = rng.integers(0, 256, (4, 3, 3), dtype=np.uint8)
    np.testing.assert_array_equal(decode_netpbm(encode_netpbm(gray)), gray)
    np.testing.assert_array_equal(decode_netpbm(encode_netpbm(rgb)), rgb)
    write_image(gray, tmp_path / "g.pgm")
    np.testing.assert_array_equal(read_image(tmp_path / "g.pgm"), gray)


def test_netpbm_header_comments_are_skipped():
    data = b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02"
    np.testing.assert_array_equal(decode_netpbm(data), [[1, 2]])


@pytest.mark.parametrize("data,fragment", [
    (b"P4\n1 1\n255\n\xff", "magic"),
    (b"P5\n1 1\n300\n\xff", "maxval"),
    (b"P5\nx 1\n255\n\xff", "non-numeric"),
    (b"P5\n2 2\n255\n\x00" * 1, "truncated"),
    (b"P5\n2 2", "end of header"),
    (b"P5\n-2 2\n255\n", "extent -2x2"),   # decoded to a (2, 0) array before
    (b"P5\n2 -2\n255\n", "extent 2x-2"),   # decoded to a (0, 2) array before
    (b"P6\n0 3\n255\n", "extent 0x3"),
    (b"P5 2 2 255", "need 4 bytes at offset 11, have 0"),   # reported have -1 before
])
def test_netpbm_decode_errors(data, fragment):
    with pytest.raises(ImageFormatError) as err:
        decode_netpbm(data)
    assert fragment in str(err.value)


def test_netpbm_encode_rejects_bad_arrays():
    with pytest.raises(ImageFormatError):
        encode_netpbm(np.zeros((2, 2), np.float32))
    with pytest.raises(ImageFormatError):
        encode_netpbm(np.zeros((2, 2, 4), np.uint8))


def test_truncation_error_reports_offset():
    with pytest.raises(ImageFormatError) as err:
        decode_netpbm(b"P6\n2 2\n255\n" + b"\x00" * 11)
    assert "need 12 bytes at offset 11" in str(err.value)


# ------------------------------------------------------------------ FMAP

def test_fmap_round_trip_bit_exact(rng, tmp_path):
    heat = rng.standard_normal((3, 5)).astype(np.float32)
    again = decode_fmap(encode_fmap(heat))
    assert again.tobytes() == heat.tobytes()
    write_fmap(heat, tmp_path / "h.fmap")
    assert read_fmap(tmp_path / "h.fmap").tobytes() == heat.tobytes()


def test_fmap_zeros_round_trip():
    z = np.zeros((4, 4), np.float32)
    np.testing.assert_array_equal(decode_fmap(encode_fmap(z)), z)


def test_fmap_golden_header():
    data = encode_fmap(np.zeros((2, 3), np.float32))
    assert data.startswith(b"FMAP1\n3 2\n")
    assert len(data) == len(b"FMAP1\n3 2\n") + 24


@pytest.mark.parametrize("data", [
    b"FMAPX\n2 2\n" + b"\x00" * 16,
    b"FMAP1\n2 2\n" + b"\x00" * 8,      # truncated payload
    b"FMAP1\n2 2\n" + b"\x00" * 24,     # oversized payload
    b"FMAP1\ntwo 2\n" + b"\x00" * 16,
    b"FMAP1\n2 2",                      # missing newline
    b"FMAP1\n-1 -4\n" + b"\x00" * 16,    # a bare ValueError before
    b"FMAP1\n0 5\n",                    # decoded to a (5, 0) map before
])
def test_fmap_decode_errors(data):
    with pytest.raises(ImageFormatError):
        decode_fmap(data)


def test_fmap_rejects_non_2d():
    with pytest.raises(ImageFormatError):
        encode_fmap(np.zeros((2, 2, 2), np.float32))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_fmap_rejects_empty_maps(shape):
    # its bytes would decode to an error
    with pytest.raises(ImageFormatError, match="at least 1x1"):
        encode_fmap(np.zeros(shape, np.float32))


# ---------------------------------------------------------------- output

@pytest.mark.parametrize("write,good,bad", [
    (write_fmap, np.ones((3, 3), np.float32), np.zeros((2, 2, 2), np.float32)),
    (write_image, np.ones((3, 3), np.uint8), np.zeros((4, 4, 2), np.uint8))])
def test_failed_encode_keeps_the_existing_output(tmp_path, write, good, bad):
    # opening the file before encoding emptied it
    path = tmp_path / "out"
    write(good, path)
    before = path.read_bytes()
    with pytest.raises(ImageFormatError):
        write(bad, path)
    assert path.read_bytes() == before


def test_write_bytes_shorter_over_longer_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "f"
    write_bytes(path, b"x" * 100)
    write_bytes(path, b"short")
    assert path.read_bytes() == b"short"
    write_bytes(path, b"")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("part", [0, 10])
def test_a_failed_write_leaves_a_short_file_not_the_old_length(tmp_path, monkeypatch, part):
    # an equal-length rewrite that fails must not pass for a whole file
    path = tmp_path / "f"
    write_bytes(path, b"o" * 100)
    real_write, calls = os.write, []

    def write_part_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:part])

    monkeypatch.setattr(os, "write", write_part_then_fail)
    with pytest.raises(OSError, match="No space left"):
        write_bytes(path, b"n" * 100)
    monkeypatch.undo()
    assert path.read_bytes() == b"n" * part


def test_write_bytes_overwrites_in_place(tmp_path):
    path, link = tmp_path / "f", tmp_path / "link"
    write_bytes(path, b"old bytes")
    os.link(path, link)
    inode = path.stat().st_ino
    write_bytes(path, b"new")
    assert path.stat().st_ino == inode and link.read_bytes() == b"new"


def test_write_bytes_to_a_pipe_delivers_its_bytes():
    read_end, write_end = os.pipe()
    try:
        write_bytes(f"/dev/fd/{write_end}", b"through the pipe")
        assert os.read(read_end, 64) == b"through the pipe"
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_write_bytes_new_file_mode_is_that_of_open(tmp_path, mask):
    old = os.umask(mask)
    try:
        write_bytes(tmp_path / "ours", b"x")
        with open(tmp_path / "theirs", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(old)
    mode = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("ours", "theirs")]
    assert mode[0] == mode[1] == 0o666 & ~mask


def _write_opens(tree):
    """Line numbers of the calls outside imaging.write_bytes that open a file
    for writing: open() with a literal write or append mode, and os.open()."""
    writer = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "write_bytes"
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in writer:
            continue
        func = ast.unparse(node.func)
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if func == "os.open" or func == "open" and any(
                isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_output_goes_through_the_one_writer():
    src = pathlib.Path(imaging.__file__).parent
    found = {path.name: _write_opens(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan sees each kind of write it rejects
    assert _write_opens(ast.parse(
        "open(p, 'w')\nopen(p, mode='ab')\nos.open(p, 1)\nopen(p, 'rb')\nopen(p)")) == [1, 2, 3]


# -------------------------------------------------------------- bilinear

def test_bilinear_identity_when_size_unchanged(rng):
    g = rng.standard_normal((5, 5))
    np.testing.assert_allclose(bilinear_resize(g, 5, 5), g, atol=1e-6)


def test_bilinear_2x_upsample_pinned_values():
    g = np.array([[0.0, 1.0], [2.0, 3.0]])
    up = bilinear_resize(g, 4, 4)
    # half-pixel centers: src = (d + 0.5)/2 - 0.5 -> [-0.25, .25, .75, 1.25]
    want = np.array([
        [0.00, 0.25, 0.75, 1.00],
        [0.50, 0.75, 1.25, 1.50],
        [1.50, 1.75, 2.25, 2.50],
        [2.00, 2.25, 2.75, 3.00],
    ])
    np.testing.assert_allclose(up, want, atol=1e-6)


def test_bilinear_preserves_bounds(rng):
    g = rng.standard_normal((7, 4))
    up = bilinear_resize(g, 13, 29)
    assert up.min() >= g.min() - 1e-6
    assert up.max() <= g.max() + 1e-6


def test_bilinear_downsample_constant_map():
    g = np.full((9, 9), 3.5)
    np.testing.assert_allclose(bilinear_resize(g, 4, 4), 3.5, atol=1e-6)


def test_bilinear_validates_arguments():
    with pytest.raises(ValueError):
        bilinear_resize(np.zeros((2, 2, 2)), 4, 4)
    with pytest.raises(ValueError):
        bilinear_resize(np.zeros((2, 2)), 0, 4)


def _four_gather_resize(grid, new_w, new_h):
    """The resize as first written: blend four corner gathers per pixel."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    if (new_h, new_w) == (h, w):
        return grid.astype(np.float32)

    def axis_coords(n_src, n_dst):
        src = np.clip((np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5, 0, n_src - 1)
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_src - 1), src - lo

    ylo, yhi, fy = axis_coords(h, new_h)
    xlo, xhi, fx = axis_coords(w, new_w)
    tl, tr = grid[np.ix_(ylo, xlo)], grid[np.ix_(ylo, xhi)]
    bl, br = grid[np.ix_(yhi, xlo)], grid[np.ix_(yhi, xhi)]
    top = tl + (tr - tl) * fx[None, :]
    bot = bl + (br - bl) * fx[None, :]
    return (top + (bot - top) * fy[:, None]).astype(np.float32)


# infinities and overflowing differences tell apart algebraically equal blends
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.floats(-1, 1) | st.sampled_from([np.inf, -np.inf, 1e308, -1e308]),
                  fill=st.nothing()),
       st.integers(1, 30), st.integers(1, 30), st.integers(-30, 30),
       st.sampled_from([np.float32, np.float64]))
def test_bilinear_matches_four_gather_oracle_bytewise(grid, new_w, new_h, exponent, dtype):
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.where(abs(grid) <= 1, grid * 10.0 ** exponent, grid).astype(dtype)
        got = bilinear_resize(grid, new_w, new_h)
        want = _four_gather_resize(grid, new_w, new_h)
    assert got.dtype == np.float32 and got.shape == (new_h, new_w)
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- rendering

def test_jet_control_points():
    v = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
    rgb = colormap_jet(v)[0]
    np.testing.assert_array_equal(rgb, [(0, 0, 131), (0, 60, 170),
                                        (5, 255, 255), (255, 255, 0),
                                        (255, 0, 0)])


def test_jet_midpoint_interpolation():
    rgb = colormap_jet(np.array([[0.375]]))[0, 0]
    np.testing.assert_array_equal(rgb, (3, 158, 213))


def test_jet_clips_out_of_range():
    rgb = colormap_jet(np.array([[-1.0, 2.0]]))[0]
    np.testing.assert_array_equal(rgb[0], (0, 0, 131))
    np.testing.assert_array_equal(rgb[1], (255, 0, 0))


def test_overlay_blend_and_rounding():
    img = np.full((1, 1, 3), 100, np.uint8)
    heat = np.full((1, 1, 3), 201, np.uint8)
    out = overlay(img, heat, alpha=0.5)
    assert out[0, 0, 0] == 151  # floor(150.5 + 0.5)
    gray = np.full((1, 1), 100, np.uint8)
    np.testing.assert_array_equal(overlay(gray, heat, 0.5), out)
    with pytest.raises(ValueError):
        overlay(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))


def test_tensor_image_round_trip(rng):
    arr = rng.integers(0, 256, (6, 6), dtype=np.uint8)
    tensor = image_to_tensor(arr)
    assert tensor.shape == (1, 6, 6)
    np.testing.assert_array_equal(tensor_to_image(tensor), arr)
    rgb = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
    np.testing.assert_array_equal(tensor_to_image(image_to_tensor(rgb)), rgb)


# ------------------------------------------------------ property oracles

_EXTENT = st.integers(1, 9)
_PIXELS = st.one_of(hnp.arrays(np.uint8, st.tuples(_EXTENT, _EXTENT)),
                    hnp.arrays(np.uint8, st.tuples(_EXTENT, _EXTENT, st.just(3))))
_HEATS = hnp.arrays(np.dtype("<f4"), st.tuples(_EXTENT, _EXTENT))


@given(_PIXELS)
def test_netpbm_round_trips_arbitrary_pixels(pixels):
    back = decode_netpbm(encode_netpbm(pixels))
    assert back.dtype == np.uint8 and back.shape == pixels.shape
    assert back.tobytes() == pixels.tobytes()


@given(_HEATS)
def test_fmap_round_trips_arbitrary_floats(heat):
    # NaN payloads and signed zeros included: the bytes come back
    back = decode_fmap(encode_fmap(heat))
    assert back.shape == heat.shape and back.tobytes() == heat.tobytes()


@given(st.one_of(_PIXELS.map(encode_netpbm).map(lambda d: (decode_netpbm, d)),
                 _HEATS.map(encode_fmap).map(lambda d: (decode_fmap, d))))
def test_every_truncation_of_a_valid_file_is_a_format_error(case):
    decode, data = case
    for end in range(len(data)):
        with pytest.raises(ImageFormatError):
            decode(data[:end])
