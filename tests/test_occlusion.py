"""Occlusion-sensitivity maps against direct re-scoring."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import camlab
from camlab import autodiff, evaluation, nn, occlusion, ops
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


def tape_of(spec, weights, image):
    return nn.forward(spec, weights, image)[1]


def test_config_validation():
    with pytest.raises(ValueError):
        OcclusionConfig(patch=4)
    with pytest.raises(ValueError):
        OcclusionConfig(patch=-3)
    with pytest.raises(ValueError):
        OcclusionConfig(patch=3, stride=0)


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
    heat = occlusion_map(tape_of(spec, weights, img), cat, cfg)
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
    auto = occlusion_map(tape_of(spec, weights, img), 0, OcclusionConfig(patch=3))
    explicit = occlusion_map(tape_of(spec, weights, img), 0,
                             OcclusionConfig(patch=3,
                                             fill=float(img.mean())))
    np.testing.assert_allclose(auto, explicit, atol=1e-6)


def test_patch_covering_whole_image_gives_constant_map(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    heat = occlusion_map(tape_of(spec, weights, img), 0,
                         OcclusionConfig(patch=17, fill=0.25))
    # every probe blanks the full image, so all entries equal
    base, _ = camlab.forward(spec, weights, img)
    blank, _ = camlab.forward(spec, weights,
                              np.full(img.shape, 0.25, np.float32))
    np.testing.assert_allclose(heat, float(base[0] - blank[0]), atol=1e-5)


def test_stride_fills_by_nearest_grid_point(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    fine = occlusion_map(tape_of(spec, weights, img), 0,
                         OcclusionConfig(patch=3, fill=0.0))
    coarse = occlusion_map(tape_of(spec, weights, img), 0,
                           OcclusionConfig(patch=3, stride=2, fill=0.0))
    assert coarse.shape == (8, 8)
    # grid points carry the exact probe value
    for i in range(0, 8, 2):
        for j in range(0, 8, 2):
            assert coarse[i, j] == pytest.approx(fine[i, j], abs=1e-6)
    # off-grid pixels copy a neighboring grid value
    assert coarse[1, 0] in (coarse[0, 0], coarse[2, 0])


def test_config_errors_are_named():
    for bad in (dict(patch=4), dict(patch=3, stride=0), dict(patch=3, fill=float("nan")),
                dict(patch=3, fill=float("-inf"))):
        with pytest.raises(occlusion.OcclusionConfigError):
            OcclusionConfig(**bad)


def test_category_range_checked(rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    with pytest.raises(ValueError):
        occlusion_map(tape_of(spec, weights, img), 7, OcclusionConfig(patch=3))


def test_signed_map_marks_the_evidence_region(gap_spec, gap_weights,
                                              test_set):
    ex = test_set[0]
    heat = occlusion_map(tape_of(gap_spec, gap_weights, ex.image), ex.label,
                         OcclusionConfig(patch=9, stride=4))
    inside = heat[ex.gt_mask].mean()
    outside = heat[~ex.gt_mask].mean()
    assert inside > outside  # blanking the object hurts the score most


def rescoring_loop(spec, weights, image, category, cfg):
    """The coarse grid of drops, one nn.forward per masked image."""
    def score(img):
        return float(nn.forward(spec, weights, img)[0][category])

    c, h, w = image.shape
    fill = image.mean(axis=(1, 2))
    half = cfg.patch // 2
    base = score(image)
    rows, cols = range(0, h, cfg.stride), range(0, w, cfg.stride)
    coarse = np.zeros((len(rows), len(cols)), dtype=np.float32)
    for ri, i in enumerate(rows):
        for ci, j in enumerate(cols):
            masked = image.copy()
            masked[:, max(0, i - half):i + half + 1,
                   max(0, j - half):j + half + 1] = fill[:, None, None]
            coarse[ri, ci] = base - score(masked)
    return coarse


def test_batched_map_equals_rescoring_loop_with_a_partial_last_batch(monkeypatch, rng):
    spec = nn.fix_gap_spec()
    weights = nn.init_weights(spec, rng_seed=5)
    # 25 boxes per batch, each budgeted for the c2 window's im2col matrix
    # (12 150 float64 values) plus the whole r2 map (6 912): the 24 x 24 = 576
    # grid points of a 48 x 48 image at stride 2 end in a batch of 1
    monkeypatch.setattr(nn, "BATCH_BYTES", 25 * 8 * (12_150 + 6_912))
    img = rng.random(spec.input_shape).astype(np.float32)
    cfg = OcclusionConfig(patch=5, stride=2)
    heat = occlusion_map(tape_of(spec, weights, img), 2, cfg)
    want = rescoring_loop(spec, weights, img, 2, cfg)
    assert want.shape == (24, 24)
    assert heat[::2, ::2].tobytes() == want.tobytes()


@pytest.mark.parametrize("make_spec,per_batch", [(nn.fix_gap_spec, 20), (nn.fix_fc_spec, 28)])
def test_boxes_per_batch_fill_the_byte_budget(monkeypatch, rng, make_spec, per_batch):
    # at patch 5 the c1 crops and windows of all 576 boxes fit in
    # nn.BATCH_BYTES, so c1 runs once; c2 does not, and a box in a batch
    # costs the c2 window's im2col matrix plus the whole map at the first
    # global layer, r2 (GAP) or p2 (FC); see nn.BATCH_BYTES
    spec = make_spec()
    tape = tape_of(spec, nn.init_weights(spec, rng_seed=0),
                   rng.random(spec.input_shape).astype(np.float32))
    calls, conv2d = [], ops.conv2d
    monkeypatch.setattr(ops, "conv2d", lambda x, *a, **k: calls.append(len(x))
                        or conv2d(x, *a, **k))
    occlusion_map(tape, 0, OcclusionConfig(patch=5, stride=2))
    first, *batches = calls
    assert first == 576
    assert batches[:-1] == [per_batch] * (len(batches) - 1)
    assert batches[-1] == 576 % per_batch
    assert sum(batches) == 576


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_no_im2col_matrix_exceeds_the_block_bytes(request, test_set, monkeypatch, arch):
    # a whole batch's matrix was 2.76 MB on a 4-image tape, and 1.94 MB (GAP)
    # or 2.72 MB (FC) on a batch of occlusion boxes
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    sizes, im2col = [], ops._im2col

    def recorded(xb, *args):
        cols = im2col(xb, *args)
        sizes.append((cols.nbytes, cols.nbytes // len(xb)))   # (matrix, one image's)
        return cols

    monkeypatch.setattr(ops, "_im2col", recorded)
    (batch, tape), = nn.tapes(spec, weights, test_set[:4])
    assert batch == test_set[:4]
    occlusion_map(tape_of(spec, weights, test_set[0].image), 0, OcclusionConfig(patch=5, stride=2))
    assert max(per_image for _, per_image in sizes) > ops.IM2COL_BYTES   # the tape's c2
    assert all(size <= max(ops.IM2COL_BYTES, per_image) for size, per_image in sizes)


def test_a_gap_occlusion_map_peaks_below_2_5_mb(gap_spec, gap_weights, test_set, traced_peak):
    # 2.05 MB while each batch of 20 boxes pasted its windows into copies of
    # the whole padded c1 input and c2 input
    tape = tape_of(gap_spec, gap_weights, test_set[0].image)
    cfg = OcclusionConfig(patch=5, stride=2)
    occlusion_map(tape, 0, cfg)   # anything made once per process
    assert traced_peak(lambda: occlusion_map(tape, 0, cfg)) < 2.5e6


def test_an_fc_occlusion_map_peaks_below_3_5_mb(fc_spec, fc_weights, test_set, traced_peak):
    # 5.1 MB while each batch of 28 boxes built one 2.72 MB c2 im2col matrix
    tape = tape_of(fc_spec, fc_weights, test_set[0].image)
    cfg = OcclusionConfig(patch=5, stride=2)
    occlusion_map(tape, 0, cfg)   # anything made once per process
    assert traced_peak(lambda: occlusion_map(tape, 0, cfg)) < 3.5e6


# -------------------------------------- windowed scoring against re-masking

def remasked_map(spec, weights, image, category, cfg):
    """The reference map from whole masked images: every patch position
    masks a copy of the image, and the copies are scored through
    nn.forward in batches of nn.batch_size."""
    c, h, w = image.shape
    fill = (image.mean(axis=(1, 2)) if cfg.fill is None
            else np.full(c, cfg.fill, dtype=np.float32))

    def score(batch):
        return nn.forward(spec, weights, batch)[0][:, category].astype(np.float64)

    base = score(image[None])[0]
    half = cfg.patch // 2
    rows, cols = range(0, h, cfg.stride), range(0, w, cfg.stride)
    masked = np.repeat(image[None], len(rows) * len(cols), axis=0)
    for img, (i, j) in zip(masked, [(i, j) for i in rows for j in cols]):
        img[:, max(0, i - half):i + half + 1, max(0, j - half):j + half + 1] = \
            fill[:, None, None]
    step = nn.batch_size(spec)
    drops = np.concatenate([base - score(masked[k:k + step])
                            for k in range(0, len(masked), step)]).astype(np.float32)
    coarse = drops.reshape(len(rows), len(cols))
    ridx = np.clip(np.round(np.arange(h) / cfg.stride).astype(int), 0, len(rows) - 1)
    cidx = np.clip(np.round(np.arange(w) / cfg.stride).astype(int), 0, len(cols) - 1)
    return coarse[np.ix_(ridx, cidx)]


@pytest.mark.parametrize("arch", ["gap", "fc"])
@pytest.mark.parametrize("patch,stride", [(5, 2), (9, 4)])
def test_fixture_maps_equal_remasking_byte_for_byte(request, test_set, arch, patch, stride):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    cfg = OcclusionConfig(patch=patch, stride=stride)
    for ex in test_set[:2]:
        heat = occlusion_map(tape_of(spec, weights, ex.image), ex.label, cfg)
        assert heat.tobytes() == remasked_map(spec, weights, ex.image, ex.label, cfg).tobytes()


@pytest.mark.parametrize("layers,patch,stride", [
    # between two outputs of a conv whose stride exceeds its kernel lie
    # rows that no output reads: the windows overhang their crops there
    ("c1 conv filters=2 kernel=2 stride=3\nr1 relu\nc2 conv filters=2 kernel=3 pad=1",
     3, 1),
    ("c1 conv filters=3 kernel=1 stride=2 pad=1\nc2 conv filters=2 kernel=2 stride=3",
     5, 2),
    # a 3 x 3 pool at stride 3 on 14 x 13 maps reads no output from rows 12
    # and 13 or column 12, which the windows clamped at the far border hold
    ("c1 conv filters=2 kernel=3 pad=1\np1 maxpool window=3", 3, 1),
    ("c1 conv filters=2 kernel=3 stride=2\nr1 relu\np1 maxpool window=2 stride=3", 5, 3),
], ids=["conv-stride-3-kernel-2", "conv-1x1-then-stride-3", "pool-far-border",
        "strided-pool-far-border"])
def test_windows_that_overhang_their_crops_equal_remasking(rng, layers, patch, stride):
    spec = nn.parse_model_spec(f"img input shape=2x14x13\n{layers}\ngap gap\n"
                               "head dense units=3\n")
    weights = nn.init_weights(spec, rng_seed=4)
    img = rng.random(spec.input_shape).astype(np.float32)
    cfg = OcclusionConfig(patch=patch, stride=stride)
    for category in range(3):
        heat = occlusion_map(tape_of(spec, weights, img), category, cfg)
        assert heat.tobytes() == remasked_map(spec, weights, img, category, cfg).tobytes()


def test_spec_without_a_local_layer_equals_remasking(rng):
    # the first layer is global: the patched image itself goes to flatten
    spec = nn.parse_model_spec("img input shape=2x9x7\nfl flatten\nhead dense units=3\n")
    weights = nn.init_weights(spec, rng_seed=3)
    img = rng.random(spec.input_shape).astype(np.float32)
    for cfg in (OcclusionConfig(patch=3, fill=0.5), OcclusionConfig(patch=5, stride=2)):
        heat = occlusion_map(tape_of(spec, weights, img), 1, cfg)
        assert heat.tobytes() == remasked_map(spec, weights, img, 1, cfg).tobytes()


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_patch_covering_the_whole_image_equals_remasking(rng, arch):
    spec = getattr(nn, f"fix_{arch}_spec")()
    weights = nn.init_weights(spec, rng_seed=8)
    img = rng.random(spec.input_shape).astype(np.float32)
    cfg = OcclusionConfig(patch=97, stride=8, fill=0.25)
    heat = occlusion_map(tape_of(spec, weights, img), 0, cfg)
    assert heat.tobytes() == remasked_map(spec, weights, img, 0, cfg).tobytes()
    assert np.unique(heat).size == 1


@st.composite
def chain_cases(draw):
    """A small chain spec (1-2 convs with optional ReLUs, an optional
    max-pool, a GAP or flatten + dense head), its image and weights seed,
    and an occlusion config."""
    c, h, w = draw(st.integers(1, 2)), draw(st.integers(5, 13)), draw(st.integers(5, 13))
    lines = [f"img input shape={c}x{h}x{w}"]
    for i in range(draw(st.integers(1, 2))):
        k, stride, pad = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
        lines.append(f"c{i} conv filters={draw(st.integers(1, 3))} kernel={k} "
                     f"stride={stride} pad={pad}")
        if draw(st.booleans()):
            lines.append(f"r{i} relu")
    if draw(st.booleans()):
        lines.append(f"p maxpool window={draw(st.integers(1, 3))} stride={draw(st.integers(1, 3))}")
    lines += (["g gap"] if draw(st.booleans()) else ["fl flatten", "fc dense units=4", "rf relu"])
    lines.append("head dense units=3")
    try:
        spec = nn.parse_model_spec("\n".join(lines))
    except nn.SpecError:  # a window larger than its input: no local layer then
        spec = nn.parse_model_spec("\n".join(lines[:1] + ["fl flatten", "head dense units=3"]))
    patch = draw(st.integers(0, 4)) * 2 + 1
    cfg = OcclusionConfig(patch=patch, stride=draw(st.integers(1, 4)),
                          fill=draw(st.none() | st.floats(-1, 2)))
    return spec, draw(st.integers(0, 2 ** 32 - 1)), cfg, draw(st.integers(0, 2))


@given(chain_cases())
def test_windowed_map_equals_remasking_on_random_chains(case):
    spec, seed, cfg, category = case
    weights = nn.init_weights(spec, rng_seed=seed % 1000)
    img = np.random.default_rng(seed).random(spec.input_shape).astype(np.float32)
    heat = occlusion_map(tape_of(spec, weights, img), category, cfg)
    np.testing.assert_allclose(heat, remasked_map(spec, weights, img, category, cfg),
                               rtol=0, atol=1e-6)


# ------------------------------------------------------ tapes of N images

def assert_maps_of_each_image(spec, weights, images, categories, cfg):
    """The maps of tapes of the first n images, n = 1..N, equal, byte for
    byte, each image's maps on its own tape, for one category or one list
    per image."""
    want = [occlusion_map(tape_of(spec, weights, img), cats, cfg).tobytes()
            for img, cats in zip(images, categories)]
    for n in range(1, len(images) + 1):
        heat = occlusion_map(tape_of(spec, weights, images[:n]), categories[:n], cfg)
        assert heat.shape == np.shape(categories[:n]) + images.shape[2:]
        assert [got.tobytes() for got in heat] == want[:n]


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_maps_of_a_tape_of_images_equal_one_image_maps(request, test_set, arch):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    images = np.stack([ex.image for ex in test_set[:5]])
    labels = [ex.label for ex in test_set[:5]]
    cfg = OcclusionConfig(patch=5, stride=2)
    assert_maps_of_each_image(spec, weights, images, labels, cfg)
    # a list of two per image, in an order of its own
    assert_maps_of_each_image(spec, weights, images, [[c, (c + 2) % 3] for c in labels], cfg)


@given(chain_cases(), st.integers(1, 4))
def test_maps_of_a_tape_of_images_equal_one_image_maps_on_random_chains(case, n):
    spec, seed, cfg, category = case
    weights = nn.init_weights(spec, rng_seed=seed % 1000)
    images = np.random.default_rng(seed).random((n,) + spec.input_shape).astype(np.float32)
    categories = [(category + k) % 3 for k in range(n)]
    assert_maps_of_each_image(spec, weights, images, categories, cfg)
    assert_maps_of_each_image(spec, weights, images, [[c, 2 - c] for c in categories], cfg)


def test_one_image_tape_takes_a_category_or_a_list(rng):
    spec, weights = small_model()
    tape = tape_of(spec, weights, rng.random(spec.input_shape).astype(np.float32))
    cfg = OcclusionConfig(patch=3)
    heat = occlusion_map(tape, [1, 0, 1], cfg)
    assert heat.shape == (3, 8, 8)
    for c, got in zip([1, 0, 1], heat):
        assert got.tobytes() == occlusion_map(tape, c, cfg).tobytes()


def test_categories_of_the_wrong_shape_are_refused(rng):
    spec, weights = small_model()
    images = rng.random((2,) + spec.input_shape).astype(np.float32)
    cfg = OcclusionConfig(patch=3)
    with pytest.raises(autodiff.SeedError):
        occlusion_map(tape_of(spec, weights, images), 1, cfg)
    with pytest.raises(autodiff.SeedError):
        occlusion_map(tape_of(spec, weights, images), [0, 1, 1], cfg)
    with pytest.raises(autodiff.SeedError):
        occlusion_map(tape_of(spec, weights, images[0]), [[0], [1]], cfg)
    with pytest.raises(autodiff.CategoryError):
        occlusion_map(tape_of(spec, weights, images), [0, 2], cfg)


@given(chain_cases(), st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                                         st.floats(0, 1)), min_size=1, max_size=9))
def test_score_occluded_rows_equal_masked_scores(case, corners):
    # boxes of any size and place, a few to a batch
    spec, seed, _, _ = case
    weights = nn.init_weights(spec, rng_seed=seed % 1000)
    img = np.random.default_rng(seed).random(spec.input_shape).astype(np.float32)
    c, h, w = img.shape
    boxes = []
    for a, b, d, e in corners:
        y0, x0 = int(a * (h - 1)), int(d * (w - 1))
        boxes.append((y0, y0 + 1 + int(b * (h - 1 - y0)), x0, x0 + 1 + int(e * (w - 1 - x0))))
    fill = np.linspace(-1, 1, c).astype(np.float32)
    masked = np.repeat(img[None], len(boxes), axis=0)
    for m, (y0, y1, x0, x1) in zip(masked, boxes):
        m[:, y0:y1, x0:x1] = fill[:, None, None]
    tape = tape_of(spec, weights, img)
    with mock.patch.object(nn, "BATCH_BYTES", 8 * 10_000):
        got = occlusion.score_occluded(tape, 0, boxes, fill)
    np.testing.assert_allclose(got, nn.forward(spec, weights, masked)[0], rtol=0, atol=1e-6)
    # the windows start from the tape, whose scores are byte for byte those of a batch
    assert tape.scores.tobytes() == nn.forward(spec, weights, img[None])[0].tobytes()


def count_runs(monkeypatch):
    """The input shape of each nn._tape call from now on."""
    runs, tape = [], nn._tape
    monkeypatch.setattr(nn, "_tape", lambda *a, **k: runs.append(np.shape(a[2]))
                        or tape(*a, **k))
    return runs


def test_occlusion_map_runs_no_forward_of_its_own(monkeypatch, rng):
    spec, weights = small_model()
    img = rng.random(spec.input_shape).astype(np.float32)
    tape = tape_of(spec, weights, img)
    runs = count_runs(monkeypatch)
    occlusion_map(tape, 1, OcclusionConfig(patch=3, stride=2))
    assert runs == []


def test_faithfulness_runs_one_forward_per_batch(monkeypatch, test_set):
    spec = nn.fix_gap_spec()
    weights = nn.init_weights(spec, rng_seed=4)
    # two images a batch: the c2 im2col matrix of each, see nn.BATCH_BYTES
    monkeypatch.setattr(nn, "BATCH_BYTES", 2 * 6 * 5 * 5 * 24 * 24 * 8)
    runs = count_runs(monkeypatch)
    evaluation.faithfulness(spec, weights, test_set[:5], ["gradcam", "backprop"],
                            OcclusionConfig(patch=5, stride=4))
    assert runs == [(2,) + spec.input_shape] * 2 + [(1,) + spec.input_shape]
