"""Synthetic shapes dataset with localization ground truth, plus the
adversarial-image generator used for the robustness demonstration.

Images are grayscale, quantized to 8-bit at generation time so that the
on-disk PGM form round-trips the in-memory tensors exactly.  Backgrounds
are textured noise, so explanations cannot succeed by intensity
thresholding alone.
"""

from dataclasses import dataclass

import numpy as np

from . import nn
from .autodiff import check_category, grad_at_layer
from .evaluation import BBox
from .imaging import (bilinear_resize, image_to_tensor, read_image,
                      tensor_to_image, write_image)
from .ops import softmax

CATEGORIES = ("square", "disc", "triangle")


@dataclass
class ShapesExample:
    image: np.ndarray          # [1,S,S] float32 in [0,1]
    label: int
    gt_box: BBox
    gt_mask: np.ndarray        # bool [S,S]
    image_id: str = ""
    # second object, present only on two-object images
    label2: int = None
    gt_box2: BBox = None
    gt_mask2: np.ndarray = None

    @property
    def two_object(self):
        return self.label2 is not None


def _tight_box(mask):
    ys, xs = np.nonzero(mask)
    return BBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))


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
        bg = _background(rng, side)
        if two:
            r = int(rng.integers(side // 8, side // 6 + 1))
            cat_a, cat_b = rng.choice(3, size=2, replace=False)
            cxa = _place(rng, r, 0, side // 2)
            cxb = _place(rng, r, side // 2, side)
            cya = _place(rng, r, 0, side)
            cyb = _place(rng, r, 0, side)
            mask_a = _shape_mask(cat_a, side, cxa, cya, r)
            mask_b = _shape_mask(cat_b, side, cxb, cyb, r)
            fg_a = 0.75 + 0.2 * rng.random()
            fg_b = 0.75 + 0.2 * rng.random()
            img = bg.copy()
            img[mask_a] = fg_a
            img[mask_b] = fg_b
            img = np.floor(np.clip(img, 0, 1) * 255 + 0.5) / 255.0
            out.append(ShapesExample(
                image=img[None].astype(np.float32),
                label=int(cat_a), gt_box=_tight_box(mask_a), gt_mask=mask_a,
                image_id=f"{idx:05d}",
                label2=int(cat_b), gt_box2=_tight_box(mask_b), gt_mask2=mask_b))
        else:
            r = int(rng.integers(side // 6, side // 4 + 1))
            cat = int(rng.integers(3))
            cx = _place(rng, r, 0, side)
            cy = _place(rng, r, 0, side)
            mask = _shape_mask(cat, side, cx, cy, r)
            fg = 0.75 + 0.2 * rng.random()
            img = bg.copy()
            img[mask] = fg
            img = np.floor(np.clip(img, 0, 1) * 255 + 0.5) / 255.0
            out.append(ShapesExample(
                image=img[None].astype(np.float32),
                label=cat, gt_box=_tight_box(mask), gt_mask=mask,
                image_id=f"{idx:05d}"))
    return out


def save_dataset(examples, directory):
    """Persist as PGM images + masks and a line-oriented index.

    Index lines: ``id label x0 y0 x1 y1 maskfile`` — two lines (same id)
    for two-object images.
    """
    import os
    os.makedirs(directory, exist_ok=True)
    lines = []
    for ex in examples:
        img_name = f"{ex.image_id}.pgm"
        write_image(tensor_to_image(ex.image), os.path.join(directory, img_name))
        objs = [(ex.label, ex.gt_box, ex.gt_mask, "")]
        if ex.two_object:
            objs.append((ex.label2, ex.gt_box2, ex.gt_mask2, "b"))
        for label, box, mask, suffix in objs:
            mask_name = f"{ex.image_id}_mask{suffix}.pgm"
            write_image((mask.astype(np.uint8) * 255),
                        os.path.join(directory, mask_name))
            lines.append(f"{ex.image_id} {label} {box.x0} {box.y0} "
                         f"{box.x1} {box.y1} {mask_name}")
    with open(os.path.join(directory, "index.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(directory):
    import os
    index = nn._read_ascii(os.path.join(directory, "index.txt"), nn.DatasetError)
    lines = [l for l in index.splitlines() if l.strip()]
    grouped = {}
    order = []
    for lineno, line in enumerate(lines, 1):
        try:
            image_id, label, x0, y0, x1, y1, mask_name = line.split()
            obj = (int(label), BBox(int(x0), int(y0), int(x1), int(y1)), mask_name)
        except ValueError as exc:
            raise nn.DatasetError(f"index line {lineno}: {line!r}: {exc}") from None
        if image_id not in grouped:
            grouped[image_id] = []
            order.append(image_id)
        grouped[image_id].append(obj)
        if len(grouped[image_id]) > 2:
            raise nn.DatasetError(f"index line {lineno}: image {image_id} has "
                                  f"{len(grouped[image_id])} object lines, at most 2")
    out = []
    for image_id in order:
        img = image_to_tensor(read_image(os.path.join(directory, f"{image_id}.pgm")))
        objs = []
        for label, box, mask_name in grouped[image_id]:
            mask = read_image(os.path.join(directory, mask_name)) > 127
            if mask.shape != img.shape[1:]:
                raise nn.DatasetError(f"{mask_name}: mask shape {mask.shape} != image "
                                      f"{image_id} shape {img.shape[1:]}")
            objs.append((label, box, mask))
        first = objs[0]
        second = objs[1] if len(objs) > 1 else (None, None, None)
        out.append(ShapesExample(image=img, label=first[0], gt_box=first[1],
                                 gt_mask=first[2], image_id=image_id,
                                 label2=second[0], gt_box2=second[1],
                                 gt_mask2=second[2]))
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
    prob = 0.0
    used = 0
    for step in range(steps):
        scores, tape = nn.forward(spec, weights, adv)
        prob = float(softmax(scores)[target_category])
        if prob > 0.9999:
            break
        g = grad_at_layer(tape, target_category, "input")
        adv = np.clip(adv + np.float32(step_size) * np.sign(g), lo, hi)
        used = step + 1
    scores, _ = nn.forward(spec, weights, adv)
    prob = float(softmax(scores)[target_category])
    return AttackResult(image=adv, target_probability=prob,
                        success=prob >= 0.99, steps_used=used)
