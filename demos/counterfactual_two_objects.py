"""Class discrimination and counterfactual maps on two-object images.

Each image holds two different shapes, one per horizontal half.  A good
class-discriminative explanation highlights only the queried category's
object; the counterfactual map (negated gradients) highlights the regions
whose removal would *raise* the score — i.e. the competing object.

    python3 demos/counterfactual_two_objects.py
"""

import os

import numpy as np

import camlab
from camlab import explain, imaging
from camlab.fixtures import CATEGORIES

OUT = "counterfactual_out"


def main():
    os.makedirs(OUT, exist_ok=True)
    train = camlab.make_shapes_dataset(400, 48, rng_seed=1)
    pairs = camlab.make_shapes_dataset(10, 48, rng_seed=3,
                                       two_object_fraction=1.0)
    spec = camlab.fix_gap_spec()
    print("training FIX-GAP...")
    weights = camlab.train_fixture(spec, train, epochs=30,
                                   learning_rate=0.05, rng_seed=0)

    for ex in pairs[:3]:
        scores, tape = camlab.forward(spec, weights, ex.image)
        pred = int(np.argmax(scores))
        left, right = (obj.label for obj in ex.objects)
        print(f"\nimage {ex.image_id}: left={CATEGORIES[left]} "
              f"right={CATEGORIES[right]} predicted={CATEGORIES[pred]}")
        for cat in (left, right):
            heat = explain.gradcam(tape, cat, "r2")
            imaging.write_image(imaging.heatmap_overlay(ex.image, heat),
                                os.path.join(OUT, f"{ex.image_id}_{CATEGORIES[cat]}.ppm"))
        cf = explain.counterfactual(tape, pred, "r2")
        imaging.write_image(imaging.heatmap_overlay(ex.image, cf),
                            os.path.join(OUT, f"{ex.image_id}_counterfactual.ppm"))
        # report where the counterfactual mass sits
        up = imaging.bilinear_resize(cf, 48, 48).astype(np.float64)
        if up.sum() > 0:
            cx = (up * np.arange(48)[None, :]).sum() / up.sum()
            side = "right" if cx >= 24 else "left"
            print(f"  counterfactual centroid in the {side} half "
                  f"(x={cx:.1f})")
    print(f"\nwrote overlays to {OUT}/")


if __name__ == "__main__":
    main()
