"""Occlusion-sensitivity maps against direct re-scoring."""

import numpy as np
import pytest

import camlab
from camlab import nn, occlusion, ops
from camlab.occlusion import OcclusionConfig, default_patch, occlusion_map


def small_model():
    spec = nn.parse_model_spec("""
img input shape=1x8x8
c1 conv filters=2 kernel=3 stride=1 pad=1
r1 relu
gap gap
head dense units=2
""")
    return spec, nn.init_weights(spec, rng_seed=11)


def test_config_validation():
    with pytest.raises(ValueError):
        OcclusionConfig(patch=4)
    with pytest.raises(ValueError):
        OcclusionConfig(patch=-3)
    with pytest.raises(ValueError):
        OcclusionConfig(patch=3, stride=0)
    with pytest.raises(ValueError):
        OcclusionConfig(patch=3, score_point="argmax")


def test_default_patch_is_about_a_sixth_and_odd():
    assert default_patch(48) == 9
    assert default_patch(32) == 5
    assert default_patch(6) == 1
    for side in range(16, 65):
        p = default_patch(side)
        assert p % 2 == 1 and p >= 1


def test_map_matches_direct_rescoring(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    cat = 1
    cfg = OcclusionConfig(patch=3, fill=0.0)
    heat = occlusion_map(spec, weights, img, cat, cfg)
    base, _ = camlab.forward(spec, weights, img)
    for i, j in [(0, 0), (3, 5), (7, 7), (4, 4)]:
        masked = img.copy()
        y0, y1 = max(0, i - 1), min(8, i + 2)
        x0, x1 = max(0, j - 1), min(8, j + 2)
        masked[:, y0:y1, x0:x1] = 0.0
        s, _ = camlab.forward(spec, weights, masked)
        assert heat[i, j] == pytest.approx(float(base[cat] - s[cat]), abs=1e-5)


def test_auto_fill_uses_per_channel_image_mean(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    auto = occlusion_map(spec, weights, img, 0, OcclusionConfig(patch=3))
    explicit = occlusion_map(spec, weights, img, 0,
                             OcclusionConfig(patch=3,
                                             fill=float(img.mean())))
    np.testing.assert_allclose(auto, explicit, atol=1e-6)


def test_patch_covering_whole_image_gives_constant_map(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    heat = occlusion_map(spec, weights, img, 0,
                         OcclusionConfig(patch=17, fill=0.25))
    # every probe blanks the full image, so all entries equal
    base, _ = camlab.forward(spec, weights, img)
    blank, _ = camlab.forward(spec, weights,
                              np.full(img.shape, 0.25, np.float32))
    np.testing.assert_allclose(heat, float(base[0] - blank[0]), atol=1e-5)


def test_stride_fills_by_nearest_grid_point(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    fine = occlusion_map(spec, weights, img, 0,
                         OcclusionConfig(patch=3, fill=0.0))
    coarse = occlusion_map(spec, weights, img, 0,
                           OcclusionConfig(patch=3, stride=2, fill=0.0))
    assert coarse.shape == (8, 8)
    # grid points carry the exact probe value
    for i in range(0, 8, 2):
        for j in range(0, 8, 2):
            assert coarse[i, j] == pytest.approx(fine[i, j], abs=1e-6)
    # off-grid pixels copy a neighboring grid value
    assert coarse[1, 0] in (coarse[0, 0], coarse[2, 0])


def test_config_errors_are_named():
    for bad in (dict(patch=4), dict(patch=3, stride=0), dict(patch=3, score_point="argmax")):
        with pytest.raises(occlusion.OcclusionConfigError):
            OcclusionConfig(**bad)


def test_category_range_checked(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    with pytest.raises(ValueError):
        occlusion_map(spec, weights, img, 7, OcclusionConfig(patch=3))


def test_signed_map_marks_the_evidence_region(gap_spec, gap_weights,
                                              test_set):
    ex = test_set[0]
    heat = occlusion_map(gap_spec, gap_weights, ex.image, ex.label,
                         OcclusionConfig(patch=9, stride=4))
    inside = heat[ex.gt_mask].mean()
    outside = heat[~ex.gt_mask].mean()
    assert inside > outside  # blanking the object hurts the score most


def rescoring_loop(spec, weights, image, category, cfg):
    """The coarse grid of drops, one nn.forward per masked image."""
    def score(img):
        s, _ = nn.forward(spec, weights, img)
        if cfg.score_point == "post_softmax":
            s = ops.softmax(s)
        return float(s[category])

    c, h, w = image.shape
    fill = image.mean(axis=(1, 2))
    half = cfg.patch // 2
    base = score(image)
    rows = occlusion.grid_positions(h, cfg.stride)
    cols = occlusion.grid_positions(w, cfg.stride)
    coarse = np.zeros((len(rows), len(cols)), dtype=np.float32)
    for ri, i in enumerate(rows):
        for ci, j in enumerate(cols):
            masked = image.copy()
            masked[:, max(0, i - half):i + half + 1,
                   max(0, j - half):j + half + 1] = fill[:, None, None]
            coarse[ri, ci] = base - score(masked)
    return coarse


@pytest.mark.parametrize("score_point", ["pre_softmax", "post_softmax"])
def test_batched_map_equals_rescoring_loop_with_a_partial_last_batch(
        monkeypatch, rng, score_point):
    spec = nn.fix_gap_spec()
    weights = nn.init_weights(spec, rng_seed=5)
    # 7 masked images per batch: the 24 x 24 = 576 grid points of a 48 x 48
    # image at stride 2 end in a batch of 2
    monkeypatch.setattr(nn, "BATCH_BYTES", 7 * 691_200)
    assert nn.batch_size(spec) == 7
    img = rng.random(spec.input_shape).astype(np.float32)
    cfg = OcclusionConfig(patch=5, stride=2, score_point=score_point)
    heat = occlusion_map(spec, weights, img, 2, cfg)
    want = rescoring_loop(spec, weights, img, 2, cfg)
    assert want.shape == (24, 24)
    assert heat[::2, ::2].tobytes() == want.tobytes()
