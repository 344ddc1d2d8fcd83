"""Train a small GAP-head CNN on the shapes dataset and render a
class-discriminative heatmap for one test image.

Run from the repository root:

    python3 demos/quickstart.py

Writes quickstart_out/ with the input image, the raw heatmap (FMAP), and
a jet-colormap overlay (PPM).
"""

import os

import numpy as np

import camlab
from camlab import explain, imaging

OUT = "quickstart_out"


def main():
    os.makedirs(OUT, exist_ok=True)

    # 1. data + model -----------------------------------------------------
    train = camlab.make_shapes_dataset(400, 48, rng_seed=1)
    test = camlab.make_shapes_dataset(200, 48, rng_seed=2)
    spec = camlab.fix_gap_spec()
    print("training FIX-GAP (30 epochs, ~15 s)...")
    weights = camlab.train_fixture(spec, train, epochs=30,
                                   learning_rate=0.05, rng_seed=0)
    acc = camlab.nn.accuracy(spec, weights, test)
    print(f"held-out accuracy: {acc:.3f}")

    # 2. explain one image ------------------------------------------------
    ex = test[0]
    scores, tape = camlab.forward(spec, weights, ex.image)
    pred = int(np.argmax(scores))
    print(f"image {ex.image_id}: true={camlab.fixtures.CATEGORIES[ex.label]}"
          f" predicted={camlab.fixtures.CATEGORIES[pred]}")

    heat = explain.gradcam(tape, pred, "r2")
    imaging.write_fmap(heat, os.path.join(OUT, "heat.fmap"))

    # 3. render an overlay ------------------------------------------------
    imaging.write_image(imaging.heatmap_overlay(ex.image, heat),
                        os.path.join(OUT, "overlay.ppm"))
    imaging.write_image(imaging.tensor_to_image(ex.image), os.path.join(OUT, "input.pgm"))
    print(f"wrote {OUT}/input.pgm, {OUT}/heat.fmap, {OUT}/overlay.ppm")


if __name__ == "__main__":
    main()
