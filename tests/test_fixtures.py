"""Synthetic dataset generator, persistence, adversarial attack."""

import numpy as np
import pytest

import camlab
from camlab import fixtures, nn
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
        assert ex.two_object
        assert ex.label != ex.label2
        assert not (ex.gt_mask & ex.gt_mask2).any()
        ys, xs = np.nonzero(ex.gt_mask)
        assert xs.max() < side // 2          # primary object left
        ys2, xs2 = np.nonzero(ex.gt_mask2)
        assert xs2.min() >= side // 2        # secondary object right


def test_quantization_matches_on_disk_precision():
    for ex in make_shapes_dataset(5, 48, rng_seed=3):
        q = np.floor(ex.image * 255 + 0.5) / 255
        np.testing.assert_allclose(ex.image, q.astype(np.float32), atol=0)


def test_dataset_save_load_round_trip(tmp_path):
    examples = make_shapes_dataset(8, 48, rng_seed=4, two_object_fraction=0.5)
    save_dataset(examples, tmp_path / "data")
    again = load_dataset(tmp_path / "data")
    assert len(again) == len(examples)
    for ea, eb in zip(examples, again):
        assert ea.image.tobytes() == eb.image.tobytes()
        assert ea.label == eb.label and ea.gt_box == eb.gt_box
        np.testing.assert_array_equal(ea.gt_mask, eb.gt_mask)
        assert ea.two_object == eb.two_object
        if ea.two_object:
            assert ea.label2 == eb.label2 and ea.gt_box2 == eb.gt_box2
            np.testing.assert_array_equal(ea.gt_mask2, eb.gt_mask2)


def test_mask_of_another_shape_is_dataset_error(tmp_path):
    # localize used to score boxes on the mask's scale and report them
    examples = make_shapes_dataset(2, 48, rng_seed=4, two_object_fraction=1.0)
    save_dataset(examples, tmp_path / "data")
    camlab.imaging.write_image(np.zeros((48, 40), np.uint8),
                               tmp_path / "data" / "00001_maskb.pgm")
    with pytest.raises(nn.DatasetError, match=r"00001_maskb.pgm: mask shape \(48, 40\)"):
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
