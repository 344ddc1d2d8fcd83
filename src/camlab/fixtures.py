"""Synthetic shapes dataset with localization ground truth, plus the
adversarial-image generator used for the robustness demonstration.

Images are grayscale, quantized to 8-bit at generation time so that the
on-disk PGM form round-trips the in-memory tensors exactly.  Backgrounds
are textured noise, so explanations cannot succeed by intensity
thresholding alone.
"""

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import nn
from .autodiff import check_category, grad_at_layer
from .evaluation import BBox
from .imaging import (bilinear_resize, image_to_tensor, read_image,
                      tensor_to_image, write_bytes, write_image)
from .ops import softmax

CATEGORIES = ("square", "disc", "triangle")


class Annotation(NamedTuple):
    """One object of an image: its category, tight box and mask."""
    label: int
    box: BBox
    mask: np.ndarray           # bool [S,S]


@dataclass
class ShapesExample:
    """An image and its objects, the labelled shape first.

    A one-object image holds one Annotation.  A two-object image holds a
    second one, of another category, in the right half of the image.
    `label`, `gt_box` and `gt_mask` read the labelled shape's fields.
    """
    image: np.ndarray          # [1,S,S] float32 in [0,1]
    objects: tuple             # Annotation per object
    image_id: str = ""

    @property
    def label(self):
        return self.objects[0].label

    @property
    def gt_box(self):
        return self.objects[0].box

    @property
    def gt_mask(self):
        return self.objects[0].mask


def _shape_mask(kind, side, cx, cy, r):
    yy, xx = np.mgrid[0:side, 0:side]
    if kind == 0:  # square
        return (np.abs(xx - cx) <= r) & (np.abs(yy - cy) <= r)
    if kind == 1:  # disc
        return (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    # upward triangle with apex at (cx, cy - r)
    t = yy - (cy - r)
    return (t >= 0) & (t <= 2 * r) & (np.abs(xx - cx) <= t / 2)


def _background(rng, side):
    # smooth low-frequency texture plus pixel noise
    coarse = rng.random((4, 4))
    tex = bilinear_resize(coarse, side, side)
    return 0.25 + 0.15 * tex + 0.06 * rng.random((side, side))


def _place(rng, r, lo, hi):
    return int(rng.integers(lo + r + 1, hi - r - 1))


def make_shapes_dataset(n, image_side=48, rng_seed=0, two_object_fraction=0.0):
    """Deterministic list of ShapesExamples; categories square/disc/triangle.

    With probability two_object_fraction an image holds two different
    shapes, one per horizontal half; the first (primary) shape provides the
    label and the second is recorded alongside it.
    """
    if image_side < 16:
        raise nn.DatasetError(f"image side must be >= 16, got {image_side}")
    rng = np.random.default_rng(rng_seed)
    side = image_side
    out = []
    for idx in range(n):
        two = rng.random() < two_object_fraction
        img = _background(rng, side)
        if two:
            r = int(rng.integers(side // 8, side // 6 + 1))
            cats = rng.choice(3, size=2, replace=False)
            spans = [(0, side // 2), (side // 2, side)]
        else:
            r = int(rng.integers(side // 6, side // 4 + 1))
            cats = [rng.integers(3)]
            spans = [(0, side)]
        # every x, then every y, then every shade: tests pin this draw order
        cxs = [_place(rng, r, lo, hi) for lo, hi in spans]
        cys = [_place(rng, r, 0, side) for _ in spans]
        masks = [_shape_mask(cat, side, cx, cy, r) for cat, cx, cy in zip(cats, cxs, cys)]
        for mask in masks:
            img[mask] = 0.75 + 0.2 * rng.random()
        out.append(ShapesExample(
            image=image_to_tensor(tensor_to_image(img[None])),
            objects=tuple(Annotation(int(cat), BBox.of(mask), mask)
                          for cat, mask in zip(cats, masks)),
            image_id=f"{idx:05d}"))
    return out


def save_dataset(examples, directory):
    """Persist as PGM images + masks and a line-oriented index.

    Index lines: ``id label x0 y0 x1 y1 maskfile``, one per object (same
    id), in the example's order; the box is the mask's tight box, which
    `load_dataset` checks.
    """
    os.makedirs(directory, exist_ok=True)
    lines = []
    for ex in examples:
        write_image(tensor_to_image(ex.image), os.path.join(directory, f"{ex.image_id}.pgm"))
        for i, (label, box, mask) in enumerate(ex.objects):
            mask_name = f"{ex.image_id}_mask{'b' * i}.pgm"  # _mask, then _maskb
            write_image((mask.astype(np.uint8) * 255),
                        os.path.join(directory, mask_name))
            lines.append(f"{ex.image_id} {label} {box.x0} {box.y0} "
                         f"{box.x1} {box.y1} {mask_name}")
    write_bytes(os.path.join(directory, "index.txt"),
                ("\n".join(lines) + "\n").encode("ascii"))


def load_dataset(directory):
    index = nn._read_ascii(os.path.join(directory, "index.txt"), nn.DatasetError)
    lines = [l for l in index.splitlines() if l.strip()]
    grouped = {}
    for lineno, line in enumerate(lines, 1):
        try:
            image_id, label, x0, y0, x1, y1, mask_name = line.split()
            obj = (int(label), BBox(int(x0), int(y0), int(x1), int(y1)), mask_name, lineno)
        except ValueError as exc:
            raise nn.DatasetError(f"index line {lineno}: {line!r}: {exc}") from None
        objs = grouped.setdefault(image_id, [])
        if len(objs) == 2:
            raise nn.DatasetError(f"index line {lineno}: image {image_id} has "
                                  f"3 object lines, at most 2")
        if objs and objs[0][0] == obj[0]:
            raise nn.DatasetError(f"index line {lineno}: image {image_id} names "
                                  f"category {obj[0]} on two object lines")
        objs.append(obj)
    out = []
    for image_id, objs in grouped.items():
        img = image_to_tensor(read_image(os.path.join(directory, f"{image_id}.pgm")))
        annotations = []
        for label, box, mask_name, lineno in objs:
            mask = read_image(os.path.join(directory, mask_name)) > 127
            if mask.shape != img.shape[1:]:
                raise nn.DatasetError(f"{mask_name}: mask shape {mask.shape} != image "
                                      f"{image_id} shape {img.shape[1:]}")
            if not mask.any():
                raise nn.DatasetError(f"{mask_name}: mask of image {image_id} is empty")
            tight = BBox.of(mask)
            if box != tight:
                raise nn.DatasetError(
                    f"index line {lineno}: box {box.x0} {box.y0} {box.x1} {box.y1} is not "
                    f"the tight box of {mask_name}, {tight.x0} {tight.y0} {tight.x1} {tight.y1}")
            annotations.append(Annotation(label, box, mask))
        out.append(ShapesExample(img, tuple(annotations), image_id))
    return out


@dataclass
class AttackResult:
    image: np.ndarray
    target_probability: float
    success: bool          # target probability reached 0.99
    steps_used: int


def adversarial_attack(spec, weights, image, target_category, epsilon,
                       steps=50, step_size=None):
    """Targeted sign-gradient ascent on the target's pre-softmax score.

    The perturbation is clipped to an infinity-norm ball of radius epsilon
    and to the valid pixel range.  Stops early once the target probability
    exceeds 0.9999; `success` reflects the 0.99 criterion.
    """
    check_category(target_category, spec.num_categories)
    image = np.asarray(image, dtype=np.float32)
    if step_size is None:
        step_size = epsilon / 4
    adv = image.copy()
    lo = np.clip(image - epsilon, 0, 1)
    hi = np.clip(image + epsilon, 0, 1)
    used = 0
    params = nn._layer_params(spec, weights, np.float32)   # one weight check per attack
    while True:
        scores, tape = nn._tape(spec, params, adv, np.float32, "tape")
        prob = float(softmax(scores)[target_category])
        if prob > 0.9999 or used >= steps:
            break
        g = grad_at_layer(tape, target_category, "input")
        adv = np.clip(adv + np.float32(step_size) * np.sign(g), lo, hi)
        used += 1
    return AttackResult(image=adv, target_probability=prob,
                        success=prob >= 0.99, steps_used=used)
