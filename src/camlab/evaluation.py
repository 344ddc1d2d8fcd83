"""Quantitative protocols: weak localization, pointing game, faithfulness.

Localization binarizes a heatmap at a fraction of its max, keeps the
largest 8-connected segment, and scores its tight bounding box against the
ground truth by IoU.  The pointing game checks whether the heatmap argmax
falls inside the ground-truth mask.  Faithfulness is Spearman rank
correlation between an explanation map and the occlusion map.

`localize`, `point`, `modified_point` and `faithfulness` run a protocol
over a split of ShapesExamples and return its metrics; the CLI and the
acceptance suite both call them.

scipy is loaded only by `extract_bbox`, on its first call: a process that
labels no heatmap (training, explaining, the pointing game, faithfulness)
never imports it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import explain, nn, occlusion
from .imaging import bilinear_resize, write_bytes


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
        """Tight box of a boolean mask's true pixels."""
        ys, xs = np.nonzero(mask)
        return cls(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))

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


_EIGHT = np.ones((3, 3), dtype=int)


def extract_bbox(heat, threshold_frac=0.15):
    """Tight box of the largest 8-connected segment above the threshold.

    Threshold is threshold_frac * max(heat); size ties go to the component
    containing the smallest row-major pixel index, which is the one
    `ndimage.label` numbers first.
    """
    from scipy import ndimage  # on first use: scipy is most of camlab's import cost

    heat = np.asarray(heat)
    m = float(heat.max(initial=0.0))
    if m <= 0:
        raise NoSegmentError("heatmap has no positive values")
    mask = heat >= threshold_frac * m
    labels, n = ndimage.label(mask, structure=_EIGHT)
    if n == 0:
        raise NoSegmentError("no pixels above threshold")
    sizes = np.bincount(labels.ravel())[1:]
    return BBox.of(labels == np.argmax(sizes) + 1)


def heatmap_argmax(heat):
    """(row, col) of the max; ties resolved to the first in row-major order."""
    heat = np.asarray(heat)
    idx = int(np.argmax(heat))
    return idx // heat.shape[1], idx % heat.shape[1]


def pointing_game(heat, gt_mask):
    """Hit iff the heatmap argmax lies inside the ground-truth mask."""
    gt_mask = np.asarray(gt_mask, dtype=bool)
    if not gt_mask.any():
        raise ProtocolError("empty ground-truth mask")
    heat = np.asarray(heat)
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
    """1-based ranks; each run of equal values shares the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2 + 1, ends - starts)
    return ranks


def rank_correlation(a, b):
    """Spearman rho with average ranks for ties; NaN if either map is constant.

    Maps of different resolution are aligned by bilinearly upsampling `a`
    to `b`'s resolution.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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


def _target_layer(spec, examples, layer, methods=()):
    """Check a protocol's split and methods; `layer` or the default target."""
    if not examples:
        raise ProtocolError("the split has no examples")
    nn.check_labels(spec, examples)
    for method in methods:
        if method not in explain.METHODS:
            raise ProtocolError(f"unknown method {method!r}; choose from "
                                + ", ".join(explain.METHODS))
        if methods.count(method) > 1:
            raise ProtocolError(f"method {method!r} is named more than once")
    return layer or explain.default_target_layer(spec)


def localize(spec, weights, examples, method="gradcam", layer=None, config=None,
             threshold_frac=0.15, iou_threshold=0.5):
    """Top-1 and top-5 localization error of `method`'s maps over a split.

    An image is correct at top-k if the true category is among its first k
    predictions and the tight box of that category's map reaches the IoU
    threshold.  No other map can score, so only that one is computed.
    """
    layer = _target_layer(spec, examples, layer, [method])
    top1 = top5 = 0
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        preds = top_k(tape.scores, 5)
        hit = False
        if ex.label in preds:
            heat = explain.METHODS[method](tape, ex.label, layer, config)
            h, w = ex.gt_mask.shape
            try:
                box = extract_bbox(bilinear_resize(heat, w, h), threshold_frac)
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
    layer = _target_layer(spec, examples, layer)
    hits = 0
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        hits += pointing_game(explain.gradcam(tape, ex.label, layer), ex.gt_mask)
    return {"pointing_accuracy": hits / len(examples), "n_images": len(examples)}


def modified_point(spec, weights, examples, calibration, layer=None):
    """Modified pointing game over each image's top-5 Grad-CAM maps, with the
    threshold calibrated on every category's map over `calibration`.  Each
    image's maps come from one backward walk."""
    layer = _target_layer(spec, examples, layer)
    nn.check_labels(spec, calibration)
    present, absent = [], []
    categories = list(range(spec.num_categories))
    for ex in calibration:
        _, tape = nn.forward(spec, weights, ex.image)
        labels = {obj.label for obj in ex.objects}
        for category, heat in zip(categories, explain.gradcam(tape, categories, layer)):
            (present if category in labels else absent).append(float(heat.max()))
    threshold = calibrate_pointing_threshold(present, absent)
    outcomes = []
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        masks = {obj.label: obj.mask for obj in ex.objects}
        top = top_k(tape.scores, 5)
        heats = zip(top, explain.gradcam(tape, top, layer))
        outcomes += modified_pointing(heats, masks, threshold).values()
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
    layer = _target_layer(spec, examples, layer, methods)
    rhos = {m: [] for m in methods}
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        occ = occlusion.occlusion_map(tape, ex.label, occlusion_config)
        for m in methods:
            rhos[m].append(rank_correlation(explain.METHODS[m](tape, ex.label, layer, None), occ))
    metrics = {}
    for m, values in rhos.items():
        defined = [rho for rho in values if not math.isnan(rho)]
        metrics[f"mean_rank_correlation.{m}"] = float(np.mean(defined)) if defined else math.nan
        metrics[f"n_defined.{m}"] = len(defined)
    return metrics, rhos


def write_report(metrics, path):
    """Machine-readable summary: one `key=value` line per metric."""
    write_bytes(path, "".join(f"{key}={metrics[key]}\n" for key in sorted(metrics))
                .encode("ascii"))


def format_report(metrics):
    return "\n".join(f"{k} = {metrics[k]}" for k in sorted(metrics))
