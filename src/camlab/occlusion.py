"""Occlusion-sensitivity maps: the locally-faithful reference explanation.

For each position on a stride grid, a patch of the input is replaced with a
fill value and the image is re-scored.  The map stores the drop in the
pre-softmax class score, so positive values mark evidence for the class.  The image is
conceptually zero-padded: patches centered near the border are cropped, and
the map always has the input's spatial size.

Like every explanation, the maps read an activation tape of N images:
each image's base score, and the records from which `score_occluded`
scores its masked images without building them.  A patch changes only a
window of each convolution, ReLU and max-pool output, so only that window
is computed again, and the layers from the first global one (GAP, flatten,
dense) run on the whole patched map.  Each score equals, byte for byte, the
score of the masked image through `nn.forward`; the tests hold the map to
that.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import check_categories


class OcclusionConfigError(ValueError):
    """OcclusionConfig field outside its range."""


@dataclass
class OcclusionConfig:
    patch: int            # odd side length in pixels
    stride: int = 1
    fill: float = None    # None -> per-channel mean of the image being probed

    def __post_init__(self):
        if self.patch < 1 or self.patch % 2 == 0:
            raise OcclusionConfigError(f"patch must be odd and >= 1, got {self.patch}")
        if self.stride < 1:
            raise OcclusionConfigError(f"stride must be >= 1, got {self.stride}")
        if self.fill is not None and not math.isfinite(self.fill):
            raise OcclusionConfigError(f"fill must be finite, got {self.fill}")


def default_patch(image_side):
    """Fixture analog of the paper-scale trade-off: ~side/6, rounded to odd."""
    p = max(1, round(image_side / 6))
    return p if p % 2 == 1 else p + 1


def _blocks(x, size):
    """Writeable view [N, C, H - h + 1, W - w + 1, h, w] of the h x w blocks
    of x [N, C, H, W]; [n, :, i, j] is the block of image n at row i, column j."""
    return np.lib.stride_tricks.sliding_window_view(x, tuple(size), axis=(2, 3),
                                                    writeable=True)


class _Canvas:
    """Copies of a base map [C, H, W], each with a window of one box pasted
    in, and the blocks read back from them.  The first batch of boxes, the
    largest, sizes the copies; later batches reuse them."""

    def __init__(self, base, win_size, crop_size):
        self.base, self.win_size, self.crop_size = base, win_size, crop_size
        self.x = None

    def paste(self, win, origin):
        """Copies [N, C, H, W] of the base, copy n with win[n] at origin[n]."""
        n = len(win)
        if self.x is None:
            self.x = np.empty((n,) + self.base.shape, dtype=self.base.dtype)
            self.write = _blocks(self.x, self.win_size)
            self.read = _blocks(self.x, self.crop_size)
        self.x[:n] = self.base
        self.write[np.arange(n), :, origin[:, 0], origin[:, 1]] = win
        return self.x[:n]

    def crops(self, origin):
        """Blocks [N, C, *crop_size] of the last N pasted copies at origin [N, 2]."""
        return self.read[np.arange(len(origin)), :, origin[:, 0], origin[:, 1]]


def score_occluded(tape, n, boxes, fill):
    """Pre-softmax scores [len(boxes), K] of the tape's image n with the box
    boxes[b] = (y0, y1, x0, x1), rows [y0, y1) and columns [x0, x1), set to
    `fill` (one value per channel, or one for all), in the tape's dtype.

    Row b equals, byte for byte, the `nn.forward` scores of image n masked
    by box b (on a float32 tape).  A box changes only a window of each
    spatially local layer's output (a kind with a `window`), so only that
    window is computed again: from a crop of the layer's zero-padded
    recorded input, with the previous layer's window pasted in, through the
    kind's forward with pad 0.  A window has one size per layer, the most a
    box can reach, and its origin is clamped into the map; where it is
    wider than the change it recomputes values equal to the recorded ones.
    At the first global layer the window is pasted into a copy of the whole
    recorded map, and the rest of the chain runs in full.  Boxes run in
    batches that keep the largest window buffer plus that whole map within
    `nn.BATCH_BYTES`; the window buffer counted is a conv's whole im2col
    matrix, which `ops.conv2d` builds in blocks of `ops.IM2COL_BYTES`.
    """
    image = tape.records[0].x[n]
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 2, 2)
    box_lo, box_hi = boxes[:, :, 0], boxes[:, :, 1]
    # a window is a size (rows, columns) and an origin per box [B, 2] on a
    # layer's output; the first one is the image window that holds the box
    extent = np.array(image.shape[1:])
    size = image_size = np.minimum(extent, (box_hi - box_lo).max(axis=0, initial=1))
    origin = image_origin = np.clip(box_lo, 0, extent - size)
    local, buffer = [], 0     # local: (record, canvas, window origin, crop origin)
    for rec in tape.records:
        step = rec.step
        if step.kind.window is None:
            break
        k, s, pad = step.kind.window(step.params)
        extent = np.array(step.out_shape[1:])
        out = np.minimum(extent, (size + k - 2) // s + 1)
        # the first output whose input window meets the previous window,
        # ceil((origin + pad - k + 1) / s), clamped into the map
        out_origin = np.clip(-((k - 1 - pad - origin) // s), 0, extent - out)
        crop = (out - 1) * s + k
        # a pointwise layer (a 1 x 1 window, stride 1) reads just the
        # previous window; any other reads crops of its padded recorded input
        canvas = None if (k, s, pad) == (1, 1, 0) else _Canvas(
            np.pad(rec.x[n], ((0, 0), (pad, pad), (pad, pad))), size, crop)
        local.append((rec, canvas, origin + pad, out_origin * s))
        buffer = max(buffer, step.kind.buffer(step.params, (rec.x.shape[1], *crop),
                                              (step.out_shape[0], *out)))
        size, origin = out, out_origin
    rest = tape.records[len(local):]
    whole = _Canvas(rest[0].x[n], size, size)
    per_box = buffer + max([whole.base.size] + [rec.step.buffer for rec in rest])
    batch = max(1, nn.BATCH_BYTES // (8 * per_box))
    image_blocks = _blocks(image[None], image_size)[0]
    fill = np.asarray(fill, dtype=image.dtype).reshape(1, -1, 1, 1)
    scores = np.empty((len(boxes),) + tape.scores.shape[-1:], dtype=tape.scores.dtype)
    for start in range(0, len(boxes), batch):
        at = slice(start, start + batch)
        rows = image_origin[at, :1] + np.arange(image_size[0])
        cols = image_origin[at, 1:] + np.arange(image_size[1])
        boxed = (((rows >= box_lo[at, :1]) & (rows < box_hi[at, :1]))[:, None, :, None]
                 & ((cols >= box_lo[at, 1:]) & (cols < box_hi[at, 1:]))[:, None, None, :])
        win = image_blocks[:, image_origin[at, 0], image_origin[at, 1]].swapaxes(0, 1)
        win = np.where(boxed, fill, win)
        for rec, canvas, win_origin, crop_origin in local:
            if canvas is not None:
                canvas.paste(win, win_origin[at])
                win = canvas.crops(crop_origin[at])
            # the crops hold their padding already
            win = rec.step.kind.forward(win, dict(rec.step.params, pad=0), rec.params,
                                        "tape")[0]
        x = whole.paste(win, origin[at])
        for rec in rest:
            x = rec.step.kind.forward(x, rec.step.params, rec.params, "tape")[0]
        scores[at] = x
    return scores


def occlusion_map(tape, categories, config):
    """Signed heatmaps of the tape's images: score(original) - score(masked at p).

    Takes categories as the explanations do (`autodiff.grad_at_layer`),
    and gives maps [H, W] with their leading axes.  The original's score is
    the tape's; the masked images are scored by `score_occluded`, one image
    at a time.
    """
    check_categories(tape, categories)
    x = tape.records[0].x
    h, w = x.shape[2:]
    half, stride = config.patch // 2, config.stride
    rows, cols = np.arange(0, h, stride), np.arange(0, w, stride)
    # the (y0, y1, x0, x1) of the patch at each grid point, cropped to the image
    ys = np.stack([np.maximum(rows - half, 0), np.minimum(rows + half + 1, h)], axis=1)
    xs = np.stack([np.maximum(cols - half, 0), np.minimum(cols + half + 1, w)], axis=1)
    boxes = np.concatenate(np.broadcast_arrays(ys[:, None], xs[None]), axis=2)
    # nearest-neighbor fill between grid points
    ridx = np.clip(np.round(np.arange(h) / stride).astype(int), 0, len(rows) - 1)
    cidx = np.clip(np.round(np.arange(w) / stride).astype(int), 0, len(cols) - 1)
    maps = []
    for n, (scores, cats) in enumerate(zip(tape.scores, np.reshape(categories, (len(x), -1)))):
        fill = x[n].mean(axis=(1, 2)) if config.fill is None else config.fill
        drops = (scores[cats].astype(np.float64)
                 - score_occluded(tape, n, boxes, fill)[:, cats].astype(np.float64))
        coarse = drops.astype(np.float32).T.reshape(len(cats), len(rows), len(cols))
        maps.append(coarse[:, ridx[:, None], cidx])
    return np.reshape(maps, np.shape(categories) + (h, w))
