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
is computed again, from a copy of just the block of the recorded map that
the layer reads; the layers from the first global one (GAP, flatten,
dense) run on the whole patched map.  Steps that fit within
`nn.BATCH_BYTES` for all patches at once run once, not once per batch
(the masking, c1 and r1 of the fixture specs at patch 5); the rest run in
batches of patches.  Each score equals, byte for byte, the score of the
masked image through `nn.forward`; the tests hold the map to that.
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


def _cropper(base, pad, win_origin, win_size, crop_origin, crop):
    """(crops, values): crops(win, at) gives the crops [N, C, *crop] at
    crop_origin[at] of `base` [C, H, W] zero-padded by `pad`, each with its
    window win[n] [C, *win_size] pasted at win_origin[at][n] (in padded
    coordinates); values is a box's cost in float64 values, its block.  A
    box copies only a block: its crop plus margins, the same for every box,
    wide enough for any window that overhangs its crop, as one does over
    rows that no output reads (where a stride exceeds the kernel, or at the
    far border).
    """
    lo = np.maximum(0, (crop_origin - win_origin).max(axis=0, initial=0))
    hi = np.maximum(0, (win_origin + win_size - crop_origin - crop).max(axis=0, initial=0))
    # block b of the map padded by the margins too starts at crop_origin[b]
    padded = np.pad(base, ((0, 0), (pad + lo[0], pad + hi[0]), (pad + lo[1], pad + hi[1])))
    read = _blocks(padded[None], crop + lo + hi)
    offset = win_origin + lo - crop_origin

    def crops(win, at):
        origin = crop_origin[at]
        block = read[0, :, origin[:, 0], origin[:, 1]]
        _blocks(block, win_size)[np.arange(len(block)), :, offset[at, 0], offset[at, 1]] = win
        return block[:, :, lo[0]:lo[0] + crop[0], lo[1]:lo[1] + crop[1]]

    return crops, base.shape[0] * math.prod(crop + lo + hi)


def _local(rec, crops):
    """A local layer's stage: win -> its output window for the boxes `at`,
    through the layer's forward with pad 0 on each box's crop (the crops
    hold their padding already), or on the window itself where `crops` is
    None: a pointwise layer reads just the previous window."""
    params = dict(rec.step.params, pad=0)

    def stage(win, at):
        x = win if crops is None else crops(win, at)
        return rec.step.kind.forward(x, params, rec.params, "tape")[0]

    return stage


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
    recorded map (the crop is the whole map), and the rest of the chain
    runs in full.

    The steps run in order: masking the image windows, each local layer,
    and the global rest.  Each leading step whose crops and windows for all
    boxes at once fit within `nn.BATCH_BYTES`, counted as float64 values,
    runs once over all boxes, one call where batches would make many small
    ones; on the fixture specs at patch 5 that is the masking, c1 and r1,
    whose windows are small.  From the first step that
    does not fit, boxes run in batches that keep the largest conv im2col
    matrix of a batched step plus the whole map at the first global layer
    within `nn.BATCH_BYTES` (`ops.conv2d` builds that matrix in blocks of
    `ops.IM2COL_BYTES`): c2 and the rest, 20 boxes a batch on GAP and 28 on
    FC.  The global rest always runs in batches.
    """
    image = tape.records[0].x[n]
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 2, 2)
    box_lo, box_hi = boxes[:, :, 0], boxes[:, :, 1]
    # a window is a size (rows, columns) and an origin per box [B, 2] on a
    # layer's output; the first one is the image window that holds the box
    extent = np.array(image.shape[1:])
    size = image_size = np.minimum(extent, (box_hi - box_lo).max(axis=0, initial=1))
    origin = image_origin = np.clip(box_lo, 0, extent - size)
    image_blocks = _blocks(image[None], image_size)
    fill = np.asarray(fill, dtype=image.dtype).reshape(1, -1, 1, 1)

    def mask(_, at):
        rows = image_origin[at, :1] + np.arange(image_size[0])
        cols = image_origin[at, 1:] + np.arange(image_size[1])
        boxed = (((rows >= box_lo[at, :1]) & (rows < box_hi[at, :1]))[:, None, :, None]
                 & ((cols >= box_lo[at, 1:]) & (cols < box_hi[at, 1:]))[:, None, None, :])
        return np.where(boxed, fill, image_blocks[0, :, image_origin[at, 0], image_origin[at, 1]])

    # (stage, float64 values per box of its crops and windows, im2col buffer)
    stages = [(mask, 2 * image.shape[0] * math.prod(image_size), 0)]
    local = 0
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
        values = step.out_shape[0] * math.prod(out)
        if (k, s, pad) == (1, 1, 0):
            crops, block = None, values
        else:
            crops, block = _cropper(rec.x[n], pad, origin + pad, size, out_origin * s, crop)
        stages.append((_local(rec, crops), block + values,
                       step.kind.buffer(step.params, (rec.x.shape[1], *crop),
                                        (step.out_shape[0], *out))))
        size, origin, local = out, out_origin, local + 1
    rest = tape.records[local:]
    whole, _ = _cropper(rest[0].x[n], 0, origin, size, np.zeros_like(origin),
                        np.array(rest[0].x.shape[2:]))
    win, everyone = None, slice(None)
    while stages and 8 * len(boxes) * stages[0][1] <= nn.BATCH_BYTES:
        win = stages.pop(0)[0](win, everyone)
    per_box = (max([buffer for _, _, buffer in stages], default=0)
               + max([rest[0].x[n].size] + [rec.step.buffer for rec in rest]))
    batch = max(1, nn.BATCH_BYTES // (8 * per_box))
    scores = np.empty((len(boxes),) + tape.scores.shape[-1:], dtype=tape.scores.dtype)
    for start in range(0, len(boxes), batch):
        at = slice(start, start + batch)
        x = None if win is None else win[at]
        for stage, _, _ in stages:
            x = stage(x, at)
        x = whole(x, at)
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
