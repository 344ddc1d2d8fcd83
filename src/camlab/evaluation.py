"""Quantitative protocols: weak localization, pointing game, faithfulness.

Localization binarizes a heatmap at a fraction of its max, keeps the
largest 8-connected segment, and scores its tight bounding box against the
ground truth by IoU.  The pointing game checks whether the heatmap argmax
falls inside the ground-truth mask.  Faithfulness is Spearman rank
correlation between an explanation map and the occlusion map.

`localize`, `point`, `modified_point` and `faithfulness` run a protocol
over a split of ShapesExamples and return its metrics; the CLI and the
acceptance suite both call them.  Each walks the split in the batches of
`nn.tapes`, which checks the split before any forward: one forward and
one backward walk per method and batch, for every map of its images;
faithfulness adds each image's occlusion map, scored from the same tape.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import explain, nn, occlusion, ops
from .imaging import bilinear_resize


class NoSegmentError(ValueError):
    """Heatmap has no positive mass; caller counts a localization miss."""


class ProtocolError(ValueError):
    """Protocol precondition violated (e.g. empty ground-truth mask)."""


@dataclass(frozen=True)
class BBox:
    x0: int
    y0: int
    x1: int  # inclusive
    y1: int  # inclusive

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValueError(f"degenerate box {self}")

    @classmethod
    def of(cls, mask):
        """Tight box of a 2-D boolean mask's true pixels."""
        rows = np.flatnonzero(mask.any(axis=1))
        if len(rows) == 0:
            raise ValueError("an empty mask has no box")
        cols = np.flatnonzero(mask.any(axis=0))
        return cls(int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1]))

    @property
    def area(self):
        return (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)


def iou(a, b):
    ix0, iy0 = max(a.x0, b.x0), max(a.y0, b.y0)
    ix1, iy1 = min(a.x1, b.x1), min(a.y1, b.y1)
    if ix0 > ix1 or iy0 > iy1:
        return 0.0
    inter = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
    return inter / (a.area + b.area - inter)


def extract_bbox(heat, threshold_frac=0.15):
    """Tight box of the largest 8-connected segment above the threshold.

    Threshold is threshold_frac * max(heat); size ties go to the segment
    whose first pixel comes first in row-major order.
    """
    heat = np.asarray(heat)
    m = float(heat.max(initial=0.0))
    if m <= 0:
        raise NoSegmentError("heatmap has no positive values")
    mask = heat >= threshold_frac * m
    if not mask.any():
        raise NoSegmentError("no pixels above threshold")
    return _largest_segment_box(mask)


def _largest_segment_box(mask):
    """extract_bbox's box of a 2-D boolean mask with a true pixel.

    Works on runs, the maximal stretches of true pixels in a row, each a
    start and an exclusive end index into the mask with one column appended:
    runs come in row-major order, and `stride` steps an index down a row.
    Runs in adjacent rows touch when their columns overlap once widened by
    one.  Each touching pair is a run's first touching run above or its
    first touching run below; union-find over those pairs labels each run
    with the lowest-numbered run of its segment, which holds the segment's
    first pixel.
    """
    h, w = mask.shape
    stride = w + 1
    padded = np.zeros((h, w + 2), bool)
    padded[:, 1:-1] = mask
    bounds = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    starts, ends = bounds[0::2], bounds[1::2]
    # Link each run to its first touching run above: each link climbs a row,
    # so log2(h) pointer jumps take every run to the top of its chain.
    above = np.searchsorted(ends, starts - stride)
    label = np.where(starts[above] <= ends - stride, above, np.arange(len(starts)))
    for _ in range(max(h - 1, 1).bit_length()):
        label = label[label]
    # Join the chains through each run's first touching run below: hook the
    # higher label of each crossing pair onto the lower (of several hooks on
    # one label, one lands and the other pairs cross again), jump to the
    # roots, repeat until no pair crosses two labels.
    below = np.searchsorted(ends, starts + stride)
    # a start past every row stands in where no run follows (below == len(starts))
    touch = np.append(starts, bounds[-1] + 2 * stride)[below] <= ends + stride
    a, b = label[touch], label[below[touch]]
    while (cross := a != b).any():
        a, b = a[cross], b[cross]
        label[np.maximum(a, b)] = np.minimum(a, b)
        while ((jumped := label[label]) != label).any():
            label = jumped
        a, b = label[a], label[b]
    # argmax takes the first of equal sizes: the lowest label
    win = label == np.argmax(np.bincount(label, weights=ends - starts))
    s, e = starts[win], ends[win]
    return BBox(int((s % stride).min()), int(s[0] // stride),
                int((e % stride).max()) - 1, int(s[-1] // stride))


def heatmap_argmax(heat):
    """(row, col) of the max; ties resolved to the first in row-major order."""
    heat = np.asarray(heat)
    idx = int(np.argmax(heat))
    return idx // heat.shape[1], idx % heat.shape[1]


def pointing_game(heat, gt_mask):
    """Hit iff the heatmap argmax lies inside the ground-truth mask; a map
    holding a NaN has no argmax, and misses."""
    gt_mask = np.asarray(gt_mask, dtype=bool)
    if not gt_mask.any():
        raise ProtocolError("empty ground-truth mask")
    heat = np.asarray(heat)
    if np.isnan(heat).any():
        return False
    if heat.shape != gt_mask.shape:
        heat = bilinear_resize(heat, gt_mask.shape[1], gt_mask.shape[0])
    r, c = heatmap_argmax(heat)
    return bool(gt_mask[r, c])


def calibrate_pointing_threshold(present_maxima, absent_maxima):
    """Midpoint of the mean max over present maps and over absent maps."""
    if not present_maxima or not absent_maxima:
        raise ProtocolError("calibration needs both present and absent maps")
    return (float(np.mean(present_maxima)) + float(np.mean(absent_maxima))) / 2


def modified_pointing(heats, gt_masks, threshold):
    """Pointing game over top-5 maps with a rejection option.

    heats: list of (category, heatmap) for the model's top predictions;
    gt_masks: the mask of each category present in the image.  An absent
    category is a hit iff its map max is below the threshold (correct
    rejection).  A present category is a hit iff its map max reaches the
    threshold and the plain pointing game hits.
    """
    out = {}
    for category, heat in heats:
        peak = float(np.asarray(heat).max())
        if category not in gt_masks:
            out[category] = peak < threshold
        else:
            out[category] = (peak >= threshold
                             and pointing_game(heat, gt_masks[category]))
    return out


def _average_ranks(values):
    """1-based ranks; each run of equal values shares the mean of its ranks,
    whatever order the sort leaves them in."""
    order = np.argsort(values)
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2 + 1, ends - starts)
    return ranks


def rank_correlation(a, b):
    """Spearman rho with average ranks for ties; NaN if either map is
    constant or holds a NaN, as `scipy.stats.spearmanr` gives.

    Maps of different resolution are aligned by bilinearly upsampling `a`
    to `b`'s resolution.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    if a.shape != b.shape:
        a = bilinear_resize(a, b.shape[1], b.shape[0]).astype(np.float64)
    ra = _average_ranks(a.ravel())
    rb = _average_ranks(b.ravel())
    sa, sb = ra.std(), rb.std()
    if sa == 0 or sb == 0:
        return math.nan
    cov = ((ra - ra.mean()) * (rb - rb.mean())).mean()
    return float(cov / (sa * sb))


def top_k(scores, k):
    """The k highest-scoring categories, best first; ties go to the lower index."""
    return [int(c) for c in np.argsort(-scores, kind="stable")[:k]]


def _target_layer(spec, layer, methods=()):
    """Check a protocol's methods; `layer` or the default target."""
    for method in methods:
        if method not in explain.METHODS:
            raise ProtocolError(f"unknown method {method!r}; choose from "
                                + ", ".join(explain.METHODS))
        if methods.count(method) > 1:
            raise ProtocolError(f"method {method!r} is named more than once")
    return explain.target_layer(spec, layer, methods)


def localize(spec, weights, examples, method="gradcam", layer=None, config=None,
             threshold_frac=0.15, iou_threshold=0.5):
    """Top-1 and top-5 localization error of `method`'s maps over a split.

    An image is correct at top-k if the true category is among its first k
    predictions and the tight box of that category's map reaches the IoU
    threshold.  No other map can score, so only that one is computed.
    """
    layer = _target_layer(spec, layer, [method])
    top1 = top5 = 0
    for batch, tape in nn.tapes(spec, weights, examples):
        heats = explain.METHODS[method](tape, [ex.label for ex in batch], layer, config)
        h, w = batch[0].gt_mask.shape    # each mask has its image's shape
        for ex, scores, heat in zip(batch, tape.scores, bilinear_resize(heats, w, h)):
            preds = top_k(scores, 5)
            hit = False
            if ex.label in preds:
                try:
                    box = extract_bbox(heat, threshold_frac)
                    hit = iou(box, ex.gt_box) >= iou_threshold
                except NoSegmentError:
                    pass
            top1 += not (hit and preds[0] == ex.label)
            top5 += not hit
    n = len(examples)
    return {"top1_localization_error": top1 / n, "top5_localization_error": top5 / n,
            "n_images": n}


def point(spec, weights, examples, layer=None):
    """Pointing game on the Grad-CAM map of each image's true category."""
    layer = _target_layer(spec, layer)
    hits = 0
    for batch, tape in nn.tapes(spec, weights, examples):
        heats = explain.gradcam(tape, [ex.label for ex in batch], layer)
        hits += sum(pointing_game(heat, ex.gt_mask) for ex, heat in zip(batch, heats))
    return {"pointing_accuracy": hits / len(examples), "n_images": len(examples)}


def modified_point(spec, weights, examples, calibration, layer=None):
    """Modified pointing game over each image's top-5 Grad-CAM maps, with the
    threshold calibrated on every category's map over `calibration`.

    Both splits are checked before any forward; an error of the calibration
    split says so."""
    layer = _target_layer(spec, layer)
    walk = nn.tapes(spec, weights, examples)
    try:
        calibrating = nn.tapes(spec, weights, calibration)
    except (nn.DatasetError, ops.DimensionError) as exc:
        raise type(exc)(f"calibration split: {exc}") from None
    present, absent = [], []
    categories = list(range(spec.num_categories))
    for batch, tape in calibrating:
        heats = explain.gradcam(tape, [categories] * len(batch), layer)
        for ex, maps in zip(batch, heats):
            labels = {obj.label for obj in ex.objects}
            for category, heat in zip(categories, maps):
                (present if category in labels else absent).append(float(heat.max()))
    threshold = calibrate_pointing_threshold(present, absent)
    outcomes = []
    for batch, tape in walk:
        tops = [top_k(scores, 5) for scores in tape.scores]
        for ex, top, maps in zip(batch, tops, explain.gradcam(tape, tops, layer)):
            masks = {obj.label: obj.mask for obj in ex.objects}
            outcomes += modified_pointing(zip(top, maps), masks, threshold).values()
    return {"modified_pointing_accuracy": sum(outcomes) / len(outcomes),
            "threshold": threshold, "n_images": len(examples)}


def faithfulness(spec, weights, examples, methods, occlusion_config, layer=None):
    """Rank correlation of each method's map with the occlusion map, both for
    the true category.

    Returns (metrics, rhos): rhos[method] lists the per-image rho, NaN where
    undefined; the metrics hold each method's mean over its defined rhos
    (NaN, without numpy's empty-mean warning, when there are none) and
    their count.
    """
    layer = _target_layer(spec, layer, methods)
    rhos = {m: [] for m in methods}
    for batch, tape in nn.tapes(spec, weights, examples):
        labels = [ex.label for ex in batch]
        occ = occlusion.occlusion_map(tape, labels, occlusion_config)
        for m in methods:
            rhos[m] += map(rank_correlation, explain.METHODS[m](tape, labels, layer, None), occ)
    metrics = {}
    for m, values in rhos.items():
        defined = [rho for rho in values if not math.isnan(rho)]
        metrics[f"mean_rank_correlation.{m}"] = float(np.mean(defined)) if defined else math.nan
        metrics[f"n_defined.{m}"] = len(defined)
    return metrics, rhos


def encode_report(metrics):
    """Machine-readable summary: one `key=value` line per metric."""
    return "".join(f"{key}={metrics[key]}\n" for key in sorted(metrics)).encode("ascii")


def format_report(metrics):
    return "\n".join(f"{k} = {metrics[k]}" for k in sorted(metrics))
