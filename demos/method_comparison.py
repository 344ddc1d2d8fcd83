"""Compare explanation methods against occlusion maps.

Occlusion sensitivity (re-scoring the image with patches blanked out) is
the slow-but-faithful reference: a method whose map ranks pixels like the
occlusion map is telling the truth about what the model uses.  This demo
computes the Spearman rank correlation of several methods against it.

    python3 demos/method_comparison.py
"""

import camlab
from camlab import evaluation, occlusion

N_IMAGES = 15
METHODS = ("gradcam", "guided-gradcam", "guided-backprop", "backprop")


def main():
    train = camlab.make_shapes_dataset(400, 48, rng_seed=1)
    test = camlab.make_shapes_dataset(200, 48, rng_seed=2)
    spec = camlab.fix_gap_spec()
    print("training FIX-GAP...")
    weights = camlab.train_fixture(spec, train, epochs=30,
                                   learning_rate=0.05, rng_seed=0)

    print(f"scoring {N_IMAGES} images against occlusion maps...")
    metrics, _ = evaluation.faithfulness(
        spec, weights, test[:N_IMAGES], METHODS,
        occlusion.OcclusionConfig(patch=9, stride=2), layer="r2")
    means = {m: metrics[f"mean_rank_correlation.{m}"] for m in METHODS}

    print("\nmean Spearman rank correlation vs occlusion:")
    for name in sorted(METHODS, key=lambda m: -means[m]):
        print(f"  {name:16s} {means[name]:+.3f}")


if __name__ == "__main__":
    main()
