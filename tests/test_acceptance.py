"""End-to-end acceptance suite for the fixture benchmark.

Nine criteria, each a separate test that prints a single PASS line with
the measured values.  All randomness is seeded, so every number here is
exactly reproducible.
"""

import time

import numpy as np
import pytest

import camlab
from camlab import (autodiff, evaluation, explain, fixtures, imaging, nn,
                    occlusion)
from camlab.cli import main as cli_main
from test_autodiff import activation_patterns_match

SIDE = 48


def _upsampled(heat, side=SIDE):
    if heat.shape == (side, side):
        return heat
    return imaging.bilinear_resize(heat, side, side)


# --------------------------------------------------------------- 1. oracle

def test_criterion_1_gradient_matches_finite_differences(gap_spec, fc_spec):
    """Standard-policy backward vs central differences (eps=1e-3), 50
    coordinates per architecture, within 1% relative error.

    The networks are piecewise linear; coordinates where the probes flip a
    ReLU mask or maxpool winner straddle two linear pieces and are
    resampled (the difference quotient is not a derivative there).
    """
    start = time.time()
    eps = 1e-3
    worst = 0.0
    rng = np.random.default_rng(2024)
    for spec in (gap_spec, fc_spec):
        weights = nn.init_weights(spec, rng_seed=17)
        img = rng.random(spec.input_shape)
        scores, tape = camlab.forward(spec, weights, img, dtype=np.float64)
        c = int(np.argmax(scores))
        grad = autodiff.grad_at_layer(tape, c, "input")
        checked = 0
        while checked < 50:
            i = tuple(rng.integers(0, d) for d in img.shape)
            plus = img.copy(); plus[i] += eps
            minus = img.copy(); minus[i] -= eps
            sp, tp = camlab.forward(spec, weights, plus, dtype=np.float64)
            sm, tm = camlab.forward(spec, weights, minus, dtype=np.float64)
            if not (activation_patterns_match(tp, tape)
                    and activation_patterns_match(tm, tape)):
                continue
            fd = (sp[c] - sm[c]) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
            assert rel < 0.01, f"coordinate {i}: fd {fd} vs grad {grad[i]}"
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS gradient oracle: worst relative error "
          f"{worst:.2e} over 100 coordinates in {elapsed:.1f}s")


# ------------------------------------------------------- 2. CAM equivalence

def test_criterion_2_cam_equivalence(gap_spec, gap_weights, test_set):
    worst_dev = 0.0
    worst_var = 0.0
    for ex in test_set[:20]:
        scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
        c = int(np.argmax(scores))
        amaps = tape.checkpoint("r2")
        z = amaps.shape[-2] * amaps.shape[-1]
        gc = explain.gradcam(tape, c, "r2")
        cm = explain.cam(tape, c)
        worst_dev = max(worst_dev,
                        float(np.abs(np.maximum(cm, 0) / z - gc).max()))
        grads = autodiff.grad_at_layer(tape, c, "r2")
        worst_var = max(worst_var, float(grads.var(axis=(1, 2)).max()))
    assert worst_dev <= 1e-5
    assert worst_var <= 1e-7
    print(f"\n[criterion 2] PASS CAM equivalence: max deviation "
          f"{worst_dev:.2e} (<=1e-5), max gradient spatial variance "
          f"{worst_var:.2e} (<=1e-7)")


# --------------------------------------------------------- 3. localization

def _top1_error(spec, weights, test_set, **kwargs):
    metrics = evaluation.localize(spec, weights, test_set, layer="r2", **kwargs)
    return metrics["top1_localization_error"]


@pytest.fixture(scope="module")
def gradcam_loc_error(gap_spec, gap_weights, test_set):
    return _top1_error(gap_spec, gap_weights, test_set)


def test_criterion_3_localization_error(gap_spec, gap_weights, test_set,
                                        gradcam_loc_error):
    backprop_error = _top1_error(gap_spec, gap_weights, test_set,
                                 method="backprop")
    assert gradcam_loc_error <= 0.30
    assert gradcam_loc_error <= backprop_error
    print(f"\n[criterion 3] PASS localization: top-1 error "
          f"{gradcam_loc_error:.3f} (<=0.30) vs backprop baseline "
          f"{backprop_error:.3f}")


# ------------------------------------------------------- 4. ReLU ablation

def test_criterion_4_no_relu_is_strictly_worse(gap_spec, gap_weights,
                                               test_set, gradcam_loc_error):
    no_relu = _top1_error(gap_spec, gap_weights, test_set,
                          config=explain.GradCamConfig(apply_relu=False))
    assert no_relu > gradcam_loc_error
    print(f"\n[criterion 4] PASS rectification ablation: no-relu error "
          f"{no_relu:.3f} > default {gradcam_loc_error:.3f}")


# -------------------------------------------------------- 5. pointing game

def test_criterion_5_pointing_game(gap_spec, gap_weights, test_set):
    accuracy = evaluation.point(gap_spec, gap_weights, test_set,
                                layer="r2")["pointing_accuracy"]
    center = sum(bool(ex.gt_mask[SIDE // 2, SIDE // 2])
                 for ex in test_set) / len(test_set)
    assert accuracy >= 0.80
    assert accuracy >= center + 0.15
    # Appendix-style calibration rule on a hand-built 4-map example
    threshold = evaluation.calibrate_pointing_threshold([0.8, 0.6],
                                                        [0.2, 0.0])
    assert threshold == pytest.approx(0.4)
    print(f"\n[criterion 5] PASS pointing game: accuracy {accuracy:.3f} "
          f"(>=0.80) vs center baseline {center:.3f}; calibration "
          f"threshold {threshold:.2f} on the hand-built example")


# -------------------------------------------------------- 6. faithfulness

def test_criterion_6_faithfulness(gap_spec, gap_weights, test_set):
    _, rhos = evaluation.faithfulness(
        gap_spec, gap_weights, test_set[:30], ["gradcam", "guided-backprop"],
        occlusion.OcclusionConfig(patch=9, stride=2), layer="r2")
    rho_gradcam = np.array(rhos["gradcam"])
    rho_guided = np.array(rhos["guided-backprop"])
    positive_frac = float(np.mean(rho_gradcam > 0))
    mean_gc = float(np.nanmean(rho_gradcam))
    mean_gb = float(np.nanmean(rho_guided))
    assert positive_frac >= 0.80
    assert mean_gc > mean_gb

    # implementation vs brute-force rank oracle
    rng = np.random.default_rng(5)
    a = rng.integers(0, 5, size=30).astype(np.float64)
    b = rng.standard_normal(30)

    def oracle_ranks(v):
        return np.array([(v < x).sum() + ((v == x).sum() + 1) / 2 for x in v],
                        np.float64)

    ra, rb = oracle_ranks(a), oracle_ranks(b)
    want = float(((ra - ra.mean()) * (rb - rb.mean())).mean()
                 / (ra.std() * rb.std()))
    got = evaluation.rank_correlation(a.reshape(5, 6), b.reshape(5, 6))
    assert abs(got - want) <= 1e-9
    print(f"\n[criterion 6] PASS faithfulness: rho>0 on "
          f"{positive_frac:.0%} of images, mean rho {mean_gc:.3f} "
          f"(vs guided-backprop {mean_gb:.3f}); rank implementation "
          f"matches oracle to {abs(got - want):.1e}")


# ------------------------------------------------------- 7. counterfactual

def test_criterion_7_counterfactual_centroid(gap_spec, gap_weights,
                                             two_object_set):
    in_other_half = total = 0
    for ex in two_object_set:
        scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
        pred = int(np.argmax(scores))
        if pred not in [obj.label for obj in ex.objects]:
            continue
        heat = _upsampled(explain.counterfactual(tape, pred, "r2"))
        heat = heat.astype(np.float64)
        if heat.sum() <= 0:
            continue
        centroid_x = float((heat * np.arange(SIDE)[None, :]).sum()
                           / heat.sum())
        # primary object sits in the left half, secondary in the right
        other_is_right = (pred == ex.label)
        hit = centroid_x >= SIDE / 2 if other_is_right \
            else centroid_x < SIDE / 2
        in_other_half += hit
        total += 1
    rate = in_other_half / total
    assert rate >= 0.70
    print(f"\n[criterion 7] PASS counterfactual: centroid in the other "
          f"object's half on {in_other_half}/{total} images ({rate:.0%})")


# ---------------------------------------------------------- 8. robustness

def test_criterion_8_adversarial_robustness(fc_spec, fc_weights, test_set):
    attempts = successes = clean_hits = attacked_hits = 0
    for ex in test_set:
        scores, tape = camlab.forward(fc_spec, fc_weights, ex.image)
        if int(np.argmax(scores)) != ex.label:
            continue
        if attempts >= 40:
            break
        attempts += 1
        clean_hits += evaluation.pointing_game(
            explain.gradcam(tape, ex.label, "r2"), ex.gt_mask)
        result = fixtures.adversarial_attack(
            fc_spec, fc_weights, ex.image, (ex.label + 1) % 3,
            epsilon=8 / 255, steps=80)
        if result.success:
            successes += 1
            _, adv_tape = camlab.forward(fc_spec, fc_weights, result.image)
            attacked_hits += evaluation.pointing_game(
                explain.gradcam(adv_tape, ex.label, "r2"), ex.gt_mask)
    success_rate = successes / attempts
    clean_rate = clean_hits / attempts
    attacked_rate = attacked_hits / successes
    assert success_rate >= 0.80
    assert clean_rate - attacked_rate <= 0.15
    print(f"\n[criterion 8] PASS robustness: attack success "
          f"{success_rate:.0%} (>=80%), true-category pointing "
          f"{clean_rate:.3f} clean vs {attacked_rate:.3f} attacked "
          f"(degradation {clean_rate - attacked_rate:+.3f} <= 0.15)")


# -------------------------------------------------- 9. determinism/formats

def test_criterion_9_determinism_and_formats(tmp_path, rng):
    # CLI byte-reproducibility on a miniature end-to-end run
    data = tmp_path / "data"
    for out in (data, tmp_path / "data2"):
        assert cli_main(["make-dataset", "--out", str(out), "--n", "6",
                         "--side", "48", "--seed", "11"]) == 0
    assert (data / "index.txt").read_bytes() \
        == (tmp_path / "data2" / "index.txt").read_bytes()
    assert (data / "00003.pgm").read_bytes() \
        == (tmp_path / "data2" / "00003.pgm").read_bytes()

    spec = camlab.fix_gap_spec()
    nn.save_model_spec(spec, tmp_path / "m.spec")
    for tag in ("w1", "w2"):
        assert cli_main(["train", "--spec", str(tmp_path / "m.spec"),
                         "--data", str(data), "--epochs", "1",
                         "--lr", "0.05", "--seed", "0",
                         "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "w1.bin").read_bytes() \
        == (tmp_path / "w2.bin").read_bytes()
    for tag in ("h1", "h2"):
        assert cli_main(["explain", "--spec", str(tmp_path / "m.spec"),
                         "--weights", str(tmp_path / "w1"),
                         "--image", str(data / "00000.pgm"),
                         "--category", "0", "--method", "gradcam",
                         "--out-heat", str(tmp_path / f"{tag}.fmap"),
                         "--out-png", str(tmp_path / f"{tag}.ppm")]) == 0
    assert (tmp_path / "h1.fmap").read_bytes() \
        == (tmp_path / "h2.fmap").read_bytes()
    assert (tmp_path / "h1.ppm").read_bytes() \
        == (tmp_path / "h2.ppm").read_bytes()

    # golden files round-trip
    heat = imaging.read_fmap(tmp_path / "h1.fmap")
    imaging.write_fmap(heat, tmp_path / "h3.fmap")
    assert (tmp_path / "h3.fmap").read_bytes() \
        == (tmp_path / "h1.fmap").read_bytes()
    ppm = imaging.read_image(tmp_path / "h1.ppm")
    imaging.write_image(ppm, tmp_path / "h3.ppm")
    assert (tmp_path / "h3.ppm").read_bytes() \
        == (tmp_path / "h1.ppm").read_bytes()

    # tensor ops vs naive loop oracles on 100 randomized shapes
    from test_ops import conv2d_loop, maxpool_loop
    from camlab import ops
    checked = 0
    worst = 0.0
    while checked < 100:
        kind = checked % 4
        if kind == 0:
            c = int(rng.integers(1, 4)); k = int(rng.integers(1, 4))
            kh = int(rng.integers(1, 4)); h = int(rng.integers(kh, 8))
            s = int(rng.integers(1, 3)); p = int(rng.integers(0, 2))
            x = rng.standard_normal((c, h, h)).astype(np.float32)
            kern = rng.standard_normal((k, c, kh, kh)).astype(np.float32)
            bias = rng.standard_normal(k).astype(np.float32)
            got = ops.conv2d(x, kern, bias, s, p)
            want = conv2d_loop(x, kern, bias, s, p)
        elif kind == 1:
            c = int(rng.integers(1, 4)); win = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3)); h = int(rng.integers(win, 8))
            x = rng.standard_normal((c, h, h)).astype(np.float32)
            got, _ = ops.maxpool2d(x, win, s)
            want, _ = maxpool_loop(x, win, s)
        elif kind == 2:
            c = int(rng.integers(1, 5)); h = int(rng.integers(1, 8))
            x = rng.standard_normal((c, h, h)).astype(np.float32)
            got = ops.global_avg_pool(x)
            want = [float(x[ch].astype(np.float64).mean()) for ch in range(c)]
        else:
            n = int(rng.integers(1, 9)); m = int(rng.integers(1, 5))
            x = rng.standard_normal(n).astype(np.float32)
            w = rng.standard_normal((m, n)).astype(np.float32)
            b = rng.standard_normal(m).astype(np.float32)
            got = ops.dense(x, w, b)
            want = [sum(float(w[i, j]) * float(x[j]) for j in range(n))
                    + float(b[i]) for i in range(m)]
        diff = float(np.abs(np.asarray(got, np.float64)
                            - np.asarray(want, np.float64)).max())
        worst = max(worst, diff)
        assert diff <= 1e-5
        checked += 1
    print(f"\n[criterion 9] PASS determinism & formats: CLI outputs "
          f"byte-identical across runs, formats round-trip, 100 op shapes "
          f"within {worst:.1e} of loop oracles")
