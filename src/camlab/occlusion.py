"""Occlusion-sensitivity maps: the locally-faithful reference explanation.

For each position on a stride grid, a patch of the input is replaced with a
fill value and the image is re-scored.  The map stores the drop in the
pre-softmax class score, so positive values mark evidence for the class.  The image is
conceptually zero-padded: patches centered near the border are cropped, and
the map always has the input's spatial size.

Like every explanation, the map reads the image's activation tape: its
base score, and the records from which `nn.score_occluded` scores the
masked images without building them.  A patch changes only a window of each
convolution, ReLU and max-pool output, so only that window is computed
again, and the layers from the first global one (GAP, flatten, dense) run
on the whole patched map.  Each score equals, byte for byte, the score of
the masked image through `nn.score_batch`; the tests hold the map to that.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import check_category
from .ops import DimensionError


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


def grid_positions(extent, stride):
    return list(range(0, extent, stride))


def occlusion_map(tape, category, config):
    """Signed heatmap [H,W] of the tape's image: score(original) - score(masked at p).

    The original's score is the tape's; the masked images are scored by
    `nn.score_occluded`, which recomputes only the window of each layer
    that a patch reaches.
    """
    if not tape.single:
        raise DimensionError("an occlusion map reads the tape of one image")
    image = tape.input
    check_category(category, tape.scores.shape[0])
    c, h, w = image.shape
    fill = config.fill
    if fill is None:
        fill_vec = image.mean(axis=(1, 2))
    else:
        fill_vec = np.full(c, fill, dtype=image.dtype)

    half = config.patch // 2
    rows = grid_positions(h, config.stride)
    cols = grid_positions(w, config.stride)
    boxes = [(max(0, i - half), min(h, i + half + 1), max(0, j - half), min(w, j + half + 1))
             for i in rows for j in cols]
    drops = (np.float64(tape.scores[category])
             - nn.score_occluded(tape, boxes, fill_vec)[:, category].astype(np.float64))
    coarse = drops.astype(np.float32).reshape(len(rows), len(cols))
    if config.stride == 1:
        return coarse
    # nearest-neighbor fill between grid points
    ridx = np.clip(np.round(np.arange(h) / config.stride).astype(int), 0, len(rows) - 1)
    cidx = np.clip(np.round(np.arange(w) / config.stride).astype(int), 0, len(cols) - 1)
    return coarse[np.ix_(ridx, cidx)]
