"""Synthetic dataset generator, persistence, adversarial attack."""

import hashlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import camlab
from camlab import fixtures, nn
from camlab.evaluation import BBox
from camlab.fixtures import (CATEGORIES, adversarial_attack, load_dataset,
                             make_shapes_dataset, save_dataset)


def test_generator_is_deterministic():
    a = make_shapes_dataset(10, 48, rng_seed=5)
    b = make_shapes_dataset(10, 48, rng_seed=5)
    for ea, eb in zip(a, b):
        assert ea.image.tobytes() == eb.image.tobytes()
        assert ea.label == eb.label and ea.gt_box == eb.gt_box
    c = make_shapes_dataset(10, 48, rng_seed=6)
    assert any(x.image.tobytes() != y.image.tobytes() for x, y in zip(a, c))


def test_generator_rejects_tiny_images():
    with pytest.raises(ValueError):
        make_shapes_dataset(1, image_side=8)
    with pytest.raises(nn.DatasetError, match="image side must be >= 16, got 8"):
        make_shapes_dataset(1, image_side=8)


def test_ground_truth_consistency():
    for ex in make_shapes_dataset(30, 48, rng_seed=1):
        assert ex.gt_mask.any()
        ys, xs = np.nonzero(ex.gt_mask)
        assert (ex.gt_box.x0, ex.gt_box.y0, ex.gt_box.x1, ex.gt_box.y1) \
            == (xs.min(), ys.min(), xs.max(), ys.max())
        assert 0 <= ex.label < len(CATEGORIES)
        assert ex.image.shape == (1, 48, 48)
        assert 0.0 <= ex.image.min() and ex.image.max() <= 1.0
        # foreground is brighter than its background surroundings
        assert ex.image[0][ex.gt_mask].mean() > ex.image[0][~ex.gt_mask].mean()


def test_shape_scale_bounds():
    # single-object radius range [side//6, side//4] bounds the mask area
    side = 48
    lo, hi = side // 6, side // 4
    for ex in make_shapes_dataset(60, side, rng_seed=9):
        area = int(ex.gt_mask.sum())
        # triangle of radius r is the smallest shape: area ~ r^2 / something
        assert (lo ** 2) / 2 <= area <= (2 * hi + 1) ** 2


def test_two_object_images_occupy_opposite_halves():
    side = 48
    examples = make_shapes_dataset(25, side, rng_seed=2,
                                   two_object_fraction=1.0)
    for ex in examples:
        first, second = ex.objects
        assert ex.label == first.label and ex.gt_box == first.box
        assert ex.gt_mask is first.mask
        assert first.label != second.label
        assert not (first.mask & second.mask).any()
        assert second.box == BBox.of(second.mask)
        ys, xs = np.nonzero(first.mask)
        assert xs.max() < side // 2          # primary object left
        ys2, xs2 = np.nonzero(second.mask)
        assert xs2.min() >= side // 2        # secondary object right
    with pytest.raises(AttributeError):
        examples[0].label = 0                # read from objects[0] only


# sha256 of every image, label, box and mask, taken before the one- and
# two-object branches of the generator were merged; a changed draw order,
# shape or quantization changes them
@pytest.mark.parametrize("side,seed,frac,digest", [
    (48, 2, 0.0, "ab7c08de55bba5c532b424267d1108a10d92dda3fdf619065e109f138cd599d7"),
    (48, 3, 1.0, "cd24f5b2c79d880bbe0735c9be45c8ba96f0e80554209cc06d34390a3ced0169"),
    (48, 5, 0.5, "b7f344082f42bfbc16e2d9c0e8359da75340512ce301df35f404d701ca60a25a"),
    (37, 2, 0.0, "6809c0462098e80259395cfe7b7dd19501a456294b222413fccabb1ba1164ba1"),
    (37, 3, 1.0, "ca06f10a1fae82dd671f9bc85c3587c7c6e5bf688f43476fbca74309b09072bf"),
    (37, 5, 0.5, "6029312bacd2ad471ce76729c626e82451a0b3e3477112aec8cf38525a0a908a"),
])
def test_generator_bytes_are_pinned(side, seed, frac, digest):
    h = hashlib.sha256()
    for ex in make_shapes_dataset(40, side, rng_seed=seed, two_object_fraction=frac):
        h.update(ex.image.tobytes())
        for label, box, mask in ex.objects:
            h.update(np.array([label, box.x0, box.y0, box.x1, box.y1], np.int64).tobytes())
            h.update(mask.tobytes())
    assert h.hexdigest() == digest


def test_quantization_matches_on_disk_precision():
    for ex in make_shapes_dataset(5, 48, rng_seed=3):
        q = np.floor(ex.image * 255 + 0.5) / 255
        np.testing.assert_allclose(ex.image, q.astype(np.float32), atol=0)


def _assert_same_examples(got, want):
    assert len(got) == len(want)
    for eg, ew in zip(got, want):
        assert eg.image_id == ew.image_id
        assert eg.image.dtype == ew.image.dtype and eg.image.tobytes() == ew.image.tobytes()
        assert len(eg.objects) == len(ew.objects)
        for og, ow in zip(eg.objects, ew.objects):
            assert (og.label, og.box) == (ow.label, ow.box)
            assert og.mask.dtype == ow.mask.dtype == bool
            np.testing.assert_array_equal(og.mask, ow.mask)


def test_dataset_save_load_round_trip(tmp_path):
    examples = make_shapes_dataset(8, 48, rng_seed=4, two_object_fraction=0.5)
    assert {len(ex.objects) for ex in examples} == {1, 2}
    save_dataset(examples, tmp_path / "data")
    _assert_same_examples(load_dataset(tmp_path / "data"), examples)


@given(n=st.integers(1, 6), side=st.integers(16, 48), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0, 1))
@settings(max_examples=25)
def test_save_load_round_trip_keeps_every_annotation(n, side, seed, frac):
    examples = make_shapes_dataset(n, side, rng_seed=seed, two_object_fraction=frac)
    with tempfile.TemporaryDirectory() as directory:
        save_dataset(examples, directory)
        _assert_same_examples(load_dataset(directory), examples)


def test_mask_of_another_shape_is_dataset_error(tmp_path):
    # localize used to score boxes on the mask's scale and report them
    examples = make_shapes_dataset(2, 48, rng_seed=4, two_object_fraction=1.0)
    save_dataset(examples, tmp_path / "data")
    camlab.imaging.write_image(np.zeros((48, 40), np.uint8),
                               tmp_path / "data" / "00001_maskb.pgm")
    with pytest.raises(nn.DatasetError, match=r"00001_maskb.pgm: mask shape \(48, 40\)"):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize("box", ["40 40 47 47", "0 0 900 900"])
def test_box_other_than_the_masks_tight_box_is_dataset_error(tmp_path, box):
    # localize scored the maps against the index box: with every box of a
    # split moved to 40 40 47 47 it reported an error of 1.0 and exited 0
    save_dataset(make_shapes_dataset(2, 48, rng_seed=4, two_object_fraction=1.0),
                 tmp_path / "data")
    index = tmp_path / "data" / "index.txt"
    lines = index.read_text().splitlines()
    fields = lines[3].split()
    lines[3] = " ".join(fields[:2] + box.split() + fields[6:])
    index.write_text("\n".join(lines) + "\n")
    with pytest.raises(nn.DatasetError, match=f"index line 4: box {box} is not the tight "
                                              f"box of 00001_maskb.pgm, "):
        load_dataset(tmp_path / "data")


def test_empty_mask_is_dataset_error(tmp_path):
    save_dataset(make_shapes_dataset(1, 48, rng_seed=4), tmp_path / "data")
    camlab.imaging.write_image(np.zeros((48, 48), np.uint8),
                               tmp_path / "data" / "00000_mask.pgm")
    with pytest.raises(nn.DatasetError, match="00000_mask.pgm: mask of image 00000 is empty"):
        load_dataset(tmp_path / "data")


def test_third_object_line_is_dataset_error(tmp_path):
    # the third line of an id was dropped without a word
    examples = make_shapes_dataset(2, 48, rng_seed=4, two_object_fraction=1.0)
    save_dataset(examples, tmp_path / "data")
    index = tmp_path / "data" / "index.txt"
    lines = index.read_text().splitlines()
    assert [line.split()[0] for line in lines] == ["00000", "00000", "00001", "00001"]
    index.write_text("\n".join(lines + [lines[3]]) + "\n")
    with pytest.raises(nn.DatasetError, match="index line 5: image 00001 has 3 object lines"):
        load_dataset(tmp_path / "data")


# ---------------------------------------------------------------- attack

def test_attack_with_zero_budget_returns_input(fc_spec, fc_weights, test_set):
    ex = test_set[0]
    res = adversarial_attack(fc_spec, fc_weights, ex.image,
                             (ex.label + 1) % 3, epsilon=0.0, steps=5)
    np.testing.assert_array_equal(res.image, ex.image)
    assert not res.success


def test_attack_scores_each_iterate_once(fc_spec, fc_weights, test_set, monkeypatch):
    # an early stop used to score its last iterate a second time
    calls = []
    tape = nn._tape

    def counted(*args):
        calls.append(args)
        return tape(*args)
    monkeypatch.setattr(nn, "_tape", counted)
    ex = test_set[1]
    res = adversarial_attack(fc_spec, fc_weights, ex.image, (ex.label + 1) % 3,
                             epsilon=8 / 255, steps=80)
    assert res.success and res.steps_used < 80
    assert len(calls) == res.steps_used + 1
    calls.clear()
    res = adversarial_attack(fc_spec, fc_weights, ex.image, (ex.label + 1) % 3,
                             epsilon=8 / 255, steps=0)
    assert len(calls) == 1 and res.steps_used == 0
    np.testing.assert_array_equal(res.image, ex.image)


def test_attack_perturbation_stays_inside_budget(fc_spec, fc_weights,
                                                 test_set):
    ex = test_set[1]
    eps = 8 / 255
    res = adversarial_attack(fc_spec, fc_weights, ex.image,
                             (ex.label + 1) % 3, epsilon=eps, steps=40)
    delta = np.abs(res.image - ex.image)
    assert float(delta.max()) <= eps + 1e-6
    assert res.image.min() >= 0.0 and res.image.max() <= 1.0


def test_attack_flips_the_prediction(fc_spec, fc_weights, test_set):
    ex = test_set[1]
    target = (ex.label + 1) % 3
    res = adversarial_attack(fc_spec, fc_weights, ex.image, target,
                             epsilon=8 / 255, steps=80)
    assert res.success
    assert res.target_probability >= 0.99
    scores, _ = camlab.forward(fc_spec, fc_weights, res.image)
    assert int(np.argmax(scores)) == target
