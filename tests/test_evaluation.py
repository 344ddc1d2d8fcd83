"""Evaluation protocols: boxes, pointing, rank correlation."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage
from scipy.stats import rankdata, spearmanr

from camlab import evaluation, explain, imaging, nn
from camlab.evaluation import (BBox, NoSegmentError, ProtocolError,
                               calibrate_pointing_threshold, extract_bbox,
                               heatmap_argmax, iou, modified_pointing,
                               pointing_game, rank_correlation)
from camlab.occlusion import OcclusionConfig


# ----------------------------------------------------------------- boxes

def test_bbox_area_and_validation():
    assert BBox(0, 0, 4, 4).area == 25
    assert BBox(2, 3, 2, 3).area == 1
    with pytest.raises(ValueError):
        BBox(3, 0, 2, 4)


@given(hnp.arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))))
def test_bbox_of_is_the_tight_box_of_the_true_pixels(mask):
    if not mask.any():
        with pytest.raises(ValueError, match="empty mask"):
            BBox.of(mask)
    else:
        ys, xs = np.nonzero(mask)
        assert BBox.of(mask) == BBox(xs.min(), ys.min(), xs.max(), ys.max())


def test_iou_hand_case():
    # 5x5 boxes overlapping in a 5x5-minus-offset corner: inter 25-ish
    a = BBox(0, 0, 9, 9)    # area 100
    b = BBox(5, 5, 14, 14)  # area 100, intersection 5x5 = 25
    assert iou(a, b) == pytest.approx(25 / 175)
    assert iou(a, a) == 1.0
    assert iou(a, BBox(20, 20, 24, 24)) == 0.0


def test_extract_bbox_largest_segment():
    heat = np.zeros((8, 8), np.float32)
    heat[1:4, 1:4] = 1.0          # 9-pixel segment
    heat[6, 6] = 1.0              # 1-pixel segment
    heat[0, 7] = 0.05             # below the 15% threshold
    assert extract_bbox(heat) == BBox(1, 1, 3, 3)


def test_extract_bbox_eight_connectivity():
    heat = np.zeros((4, 4), np.float32)
    heat[0, 0] = heat[1, 1] = heat[2, 2] = 1.0  # a diagonal chain
    assert extract_bbox(heat) == BBox(0, 0, 2, 2)


def test_extract_bbox_tie_breaks_to_first_row_major_segment():
    heat = np.zeros((5, 5), np.float32)
    heat[4, 0:2] = 1.0   # two-pixel segment, later in row-major order
    heat[0, 3:5] = 1.0   # two-pixel segment, seen first
    assert extract_bbox(heat) == BBox(3, 0, 4, 0)


def test_extract_bbox_scale_invariant(rng):
    heat = rng.random((6, 6)).astype(np.float32)
    assert extract_bbox(heat) == extract_bbox(heat * 123.0)


def test_extract_bbox_rejects_nonpositive_maps():
    with pytest.raises(NoSegmentError):
        extract_bbox(np.zeros((3, 3), np.float32))
    with pytest.raises(NoSegmentError):
        extract_bbox(np.full((3, 3), -2.0, np.float32))


def test_extract_bbox_map_with_nan_has_no_segment():
    # the max is NaN, and no pixel compares >= a NaN threshold
    with pytest.raises(NoSegmentError, match="no pixels above threshold"):
        extract_bbox(np.array([[np.nan, 1.0], [0.0, 1.0]], np.float32))


def _bbox_oracle(heat, threshold_frac):
    """extract_bbox by breadth-first search in row-major order; None when no
    pixel is positive."""
    m = float(heat.max())
    if m <= 0:
        return None
    mask = heat >= threshold_frac * m
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best = []
    for start in np.ndindex(h, w):
        if not mask[start] or seen[start]:
            continue
        seen[start] = True
        component, queue = [], collections.deque([start])
        while queue:
            y, x = queue.popleft()
            component.append((y, x))
            for v in range(max(y - 1, 0), min(y + 2, h)):
                for u in range(max(x - 1, 0), min(x + 2, w)):
                    if mask[v, u] and not seen[v, u]:
                        seen[v, u] = True
                        queue.append((v, u))
        if len(component) > len(best):  # a tie keeps the earlier component
            best = component
    ys, xs = zip(*best)
    return BBox(min(xs), min(ys), max(xs), max(ys))


# 0/1 draws give binary masks with many equal-size components
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 14), st.integers(1, 14)),
                  elements=st.sampled_from([0.0, 1.0]) | st.floats(-1, 1, width=32),
                  fill=st.nothing()),
       st.floats(0.05, 1.0))
def test_extract_bbox_matches_breadth_first_oracle(heat, threshold_frac):
    want = _bbox_oracle(heat, threshold_frac)
    if want is None:
        with pytest.raises(NoSegmentError):
            extract_bbox(heat, threshold_frac)
    else:
        assert extract_bbox(heat, threshold_frac) == want


def _scipy_bbox(mask):
    """Box of the largest segment by `ndimage.label`, which numbers segments
    in the row-major order of their first pixels; argmax keeps the first."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), int))
    sizes = np.bincount(labels.ravel())[1:]
    ys, xs = np.nonzero(labels == np.argmax(sizes) + 1)
    return BBox(xs.min(), ys.min(), xs.max(), ys.max())


def _random_field(seed, shape, density):
    return (np.random.default_rng(seed).random(shape) < density).astype(np.float32)


@settings(max_examples=300)
@given(st.one_of(
           # 0/1 draws give many equal-size segments
           hnp.arrays(np.float32,
                      st.one_of(st.tuples(st.integers(1, 16), st.integers(1, 16)),
                                st.tuples(st.just(1), st.integers(1, 48)),
                                st.tuples(st.integers(1, 48), st.just(1))),
                      elements=st.sampled_from([0.0, 1.0]) | st.floats(-1, 1, width=32),
                      fill=st.nothing()),
           # near the 8-connected percolation density, segments are long and
           # branch and merge across many rows
           st.builds(_random_field, st.integers(0, 2**32 - 1),
                     st.tuples(st.integers(1, 48), st.integers(1, 48)), st.floats(0.3, 0.6))),
       st.sampled_from(["as drawn", "full", "frame", "corners"]),
       st.floats(0.05, 1.0))
def test_extract_bbox_matches_scipy_label(heat, overlay, threshold_frac):
    # a frame or the four corners put segments on every border
    if overlay == "full":
        heat[...] = 1.0
    elif overlay == "frame":
        heat[[0, -1], :] = heat[:, [0, -1]] = 1.0
    elif overlay == "corners":
        heat[[0, 0, -1, -1], [0, -1, 0, -1]] = 1.0
    m = float(heat.max())
    if m <= 0:
        with pytest.raises(NoSegmentError):
            extract_bbox(heat, threshold_frac)
    else:
        want = _scipy_bbox(heat >= threshold_frac * m)
        assert extract_bbox(heat, threshold_frac) == want


def _reference_localization_error(spec, weights, examples, config):
    """The localization protocol as first written: a box for every top-5 map.

    An image is correct at top-k if any of its first k predictions names the
    true category and that prediction's box reaches IoU 0.5.
    """
    top1 = top5 = 0
    for ex in examples:
        scores, tape = nn.forward(spec, weights, ex.image)
        preds = [int(c) for c in np.argsort(-scores, kind="stable")[:5]]
        ok = []
        for c in preds:
            heat = explain.gradcam(tape, c, "r2", config)
            try:
                box = extract_bbox(imaging.bilinear_resize(heat, 48, 48))
            except NoSegmentError:
                box = None
            ok.append(c == ex.label and box is not None and iou(box, ex.gt_box) >= 0.5)
        top1 += not any(ok[:1])
        top5 += not any(ok[:5])
    return top1 / len(examples), top5 / len(examples)


@pytest.mark.parametrize("trained", [True, False])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_localize_matches_reference_over_all_top5_maps(request, monkeypatch, test_set,
                                                       arch, relu, trained):
    # untrained weights misclassify most images, so the true category's map
    # often ranks below 1 and only its top-5 credit is at stake
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = (request.getfixturevalue(f"{arch}_weights") if trained
               else nn.init_weights(spec, rng_seed=0))
    config = explain.GradCamConfig(apply_relu=relu)
    want = _reference_localization_error(spec, weights, test_set[:40], config)
    # one call per batch of nn.tapes, seen through the module name
    # explain.gradcam, for each image's true category only
    calls, gradcam = [], explain.gradcam
    monkeypatch.setattr(explain, "gradcam",
                        lambda tape, c, *rest: calls.append(c) or gradcam(tape, c, *rest))
    metrics = evaluation.localize(spec, weights, test_set[:40], config=config)
    assert (metrics["top1_localization_error"], metrics["top5_localization_error"]) == want
    labels, size = [ex.label for ex in test_set[:40]], nn.batch_size(spec)
    assert calls == [labels[start:start + size] for start in range(0, 40, size)]


# ------------------------------------------------------ batches of a split

def _protocol_metrics(spec, weights, examples, calibration):
    return (evaluation.localize(spec, weights, examples),
            evaluation.localize(spec, weights, examples, method="backprop"),
            evaluation.point(spec, weights, examples),
            evaluation.modified_point(spec, weights, examples, calibration),
            nn.accuracy(spec, weights, examples))


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_protocols_do_not_depend_on_the_batch_boundaries(request, monkeypatch, test_set,
                                                         two_object_set, arch):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    examples, calibration = test_set[:10], two_object_set[:6]
    per_image = 6 * 5 * 5 * 24 * 24 * 8   # the c2 im2col matrix, see nn.BATCH_BYTES
    runs = []
    # one image a batch; 3 a batch, so 10 = 3 + 3 + 3 + 1; the default 4,
    # so 10 = 4 + 4 + 2 and 6 = 4 + 2
    for size, budget in ((1, per_image), (3, 3 * per_image), (4, nn.BATCH_BYTES)):
        monkeypatch.setattr(nn, "BATCH_BYTES", budget)
        assert nn.batch_size(spec) == size
        runs.append(_protocol_metrics(spec, weights, examples, calibration))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_faithfulness_does_not_depend_on_the_batch_boundaries(request, monkeypatch, test_set,
                                                              arch):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    methods = ["gradcam", "guided-gradcam", "backprop", "counterfactual"]
    if arch == "gap":
        methods.append("cam")
    per_image = 6 * 5 * 5 * 24 * 24 * 8   # the c2 im2col matrix, see nn.BATCH_BYTES
    runs = []
    # one image a batch; 3 a batch, so 6 = 3 + 3 and 7 = 3 + 3 + 1; the
    # default 4, so 6 = 4 + 2 and 7 = 4 + 3
    for size, budget in ((1, per_image), (3, 3 * per_image), (4, nn.BATCH_BYTES)):
        monkeypatch.setattr(nn, "BATCH_BYTES", budget)
        assert nn.batch_size(spec) == size
        runs.append([evaluation.faithfulness(spec, weights, examples, methods,
                                             OcclusionConfig(patch=5, stride=4))
                     for examples in (test_set[:6], test_set[6:13])])
    assert all(len(rhos[m]) == len(examples) for (_, rhos), examples
               in zip(runs[0], (test_set[:6], test_set[6:13])) for m in methods)
    np.testing.assert_equal(runs[1], runs[0])
    np.testing.assert_equal(runs[2], runs[0])


def test_protocols_check_the_weights_once_per_split(monkeypatch, gap_spec, test_set,
                                                    two_object_set):
    weights = nn.init_weights(gap_spec, rng_seed=0)
    checked = []
    check_against = nn.WeightStore.check_against
    monkeypatch.setattr(nn.WeightStore, "check_against",
                        lambda self, s: checked.append(s) or check_against(self, s))
    _protocol_metrics(gap_spec, weights, test_set[:9], two_object_set[:5])
    # localize twice, point, modified_point on two splits, accuracy
    assert checked == [gap_spec] * 6
    with pytest.raises(nn.WeightStoreError):
        evaluation.point(gap_spec, nn.init_weights(nn.fix_fc_spec()), test_set[:9])


# -------------------------------------------------------------- pointing

def test_heatmap_argmax_tie_breaks_row_major():
    heat = np.zeros((3, 3), np.float32)
    heat[1, 2] = heat[2, 0] = 5.0
    assert heatmap_argmax(heat) == (1, 2)


def test_pointing_game_hit_and_miss():
    mask = np.zeros((4, 4), bool)
    mask[1, 1] = True
    heat = np.zeros((4, 4), np.float32)
    heat[1, 1] = 1.0
    assert pointing_game(heat, mask)
    heat[3, 3] = 2.0
    assert not pointing_game(heat, mask)


def test_pointing_game_resizes_coarse_maps():
    mask = np.zeros((8, 8), bool)
    mask[0:3, 0:3] = True
    coarse = np.zeros((2, 2), np.float32)
    coarse[0, 0] = 1.0
    assert pointing_game(coarse, mask)


def test_pointing_game_map_with_nan_misses():
    # np.argmax would point at the NaN, inside the mask, not at the real
    # maximum outside it
    mask = np.zeros((8, 8), bool)
    mask[1:4, 1:4] = True
    heat = np.zeros((8, 8), np.float32)
    heat[5, 5] = 1.0
    assert not pointing_game(heat, mask)
    heat[2, 2] = np.nan
    assert heatmap_argmax(heat) == (2, 2)
    assert not pointing_game(heat, mask)


def test_pointing_game_rejects_empty_mask():
    with pytest.raises(ProtocolError):
        pointing_game(np.ones((2, 2)), np.zeros((2, 2), bool))


def test_threshold_calibration_averaging_rule():
    # hand-built example: present maxima mean 0.7, absent mean 0.1
    assert calibrate_pointing_threshold([0.8, 0.6], [0.2, 0.0]) \
        == pytest.approx(0.4)
    with pytest.raises(ProtocolError):
        calibrate_pointing_threshold([], [0.1])


def test_modified_pointing_outcomes():
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = True
    hot = np.zeros((4, 4), np.float32)
    hot[0, 0] = 0.9
    faint = hot * 0.1
    wrong_spot = np.zeros((4, 4), np.float32)
    wrong_spot[3, 3] = 0.9
    heats = [(0, hot), (1, faint), (2, wrong_spot), (3, hot)]
    out = modified_pointing(heats, gt_masks={0: mask, 1: mask, 2: mask}, threshold=0.4)
    assert out[0] is True        # present, confident, points correctly
    assert out[1] is False       # present but wrongly rejected (max < thr)
    assert out[2] is False       # present, confident, points at the wrong spot
    assert out[3] is False       # absent but not rejected (max >= thr)
    out2 = modified_pointing([(3, faint)], {0: mask}, threshold=0.4)
    assert out2[3] is True       # absent and correctly rejected


# ------------------------------------------------------ rank correlation

def spearman_oracle(a, b):
    """Brute-force Spearman: O(n^2) average ranks, direct Pearson."""
    a = np.asarray(a, np.float64).ravel()
    b = np.asarray(b, np.float64).ravel()

    def ranks(v):
        r = np.empty(len(v))
        for i, x in enumerate(v):
            less = sum(1 for y in v if y < x)
            equal = sum(1 for y in v if y == x)
            r[i] = less + (equal + 1) / 2
        return r

    ra, rb = ranks(a), ranks(b)
    if ra.std() == 0 or rb.std() == 0:
        return math.nan
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).mean() / (ra.std() * rb.std()))


def test_rank_correlation_extremes():
    a = np.arange(9, dtype=np.float64).reshape(3, 3)
    assert rank_correlation(a, a) == pytest.approx(1.0)
    assert rank_correlation(a, -a) == pytest.approx(-1.0)


def test_rank_correlation_known_value():
    # classic 5-point example with one swapped pair
    a = np.array([[1, 2, 3, 4, 5]], np.float64)
    b = np.array([[1, 2, 3, 5, 4]], np.float64)
    assert rank_correlation(a, b) == pytest.approx(0.9)


def test_rank_correlation_matches_brute_force_oracle(rng):
    for _ in range(20):
        a = rng.integers(0, 6, size=(4, 5)).astype(np.float64)  # many ties
        b = rng.standard_normal((4, 5))
        got = rank_correlation(a, b)
        want = spearman_oracle(a, b)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-9)


@given(st.lists(st.one_of(st.integers(-3, 3).map(float),  # many ties
                          st.floats(-1e6, 1e6, allow_nan=False)),
                min_size=1, max_size=80))
def test_average_ranks_match_scipy_rankdata(values):
    values = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(evaluation._average_ranks(values),
                                  rankdata(values, method="average"))


def test_rank_correlation_constant_map_is_nan():
    assert math.isnan(rank_correlation(np.ones((3, 3)), np.arange(9).reshape(3, 3)))


def test_rank_correlation_map_with_nan_is_nan(rng):
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    a[1, 2] = a[6, 3] = np.nan
    assert math.isnan(rank_correlation(a, b))
    assert math.isnan(rank_correlation(b, a))
    # also where `a` is resized to `b`'s resolution first
    assert math.isnan(rank_correlation(a[:4, :4], b))


def tie_heavy_map(shape):
    return hnp.arrays(np.float64, shape, elements=st.one_of(
        st.integers(-2, 2).map(float), st.floats(-1e3, 1e3, allow_nan=False)))


@given(st.tuples(st.integers(1, 6), st.integers(1, 6)), st.data())
def test_rank_correlation_matches_scipy_spearmanr(shape, data):
    a, b = data.draw(tie_heavy_map(shape)), data.draw(tie_heavy_map(shape))
    nan_at = data.draw(st.none() | st.integers(0, a.size - 1))
    if nan_at is not None:
        a.flat[nan_at] = np.nan
    with warnings.catch_warnings():
        # spearmanr warns about a constant input, and gives NaN for it
        warnings.simplefilter("ignore")
        want = spearmanr(a.ravel(), b.ravel()).statistic
    got = rank_correlation(a, b)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, abs=1e-9)


def test_rank_correlation_invariant_to_monotone_transforms(rng):
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    base = rank_correlation(a, b)
    assert rank_correlation(np.exp(a), b) == pytest.approx(base, abs=1e-12)
    assert rank_correlation(a * 7 + 3, b) == pytest.approx(base, abs=1e-12)


def test_rank_correlation_aligns_resolutions():
    coarse = np.array([[0.0, 1.0], [2.0, 3.0]])
    fine = np.kron(coarse, np.ones((3, 3)))
    assert rank_correlation(coarse, fine) > 0.9


# --------------------------------------------------------------- reports

def test_report_round_trip(tmp_path):
    metrics = {"b_metric": 0.5, "a_metric": 2}
    path = tmp_path / "report.txt"
    imaging.write_bytes(path, evaluation.encode_report(metrics))
    text = path.read_text()
    assert text == "a_metric=2\nb_metric=0.5\n"
    formatted = evaluation.format_report(metrics)
    assert formatted.splitlines()[0] == "a_metric = 2"
