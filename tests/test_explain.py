"""Heatmap construction: equivalences, ablation flags, fusion."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import camlab
from camlab import explain, nn
from camlab.autodiff import RELU_POLICIES, CheckpointError
from camlab.explain import (CamIncompatibleError, GradCamConfig, cam,
                            counterfactual, gradcam, guided_gradcam,
                            neuron_weights, normalize_heatmap, pixel_saliency,
                            saliency_to_heatmap, target_layer)
from test_occlusion import chain_cases


def test_config_validation():
    with pytest.raises(ValueError):
        GradCamConfig(weight_pooling="median")
    with pytest.raises(ValueError):
        GradCamConfig(gradient_sign=0)
    with pytest.raises(ValueError):
        GradCamConfig(score_point="mid")


def test_config_errors_are_named():
    for bad in (dict(weight_pooling="median"), dict(gradient_sign=0), dict(score_point="mid"),
                dict(relu_policy="mystery")):
        with pytest.raises(explain.GradCamConfigError):
            GradCamConfig(**bad)


def test_default_target_layer_is_last_rectified_conv(gap_spec, fc_spec):
    assert target_layer(gap_spec) == "r2"
    assert target_layer(fc_spec) == "r2"


def test_neuron_weights_pooling_modes():
    g = np.array([[[1.0, -3.0], [2.0, 0.0]]])
    assert neuron_weights(g)[0] == pytest.approx(0.0)
    assert neuron_weights(g, GradCamConfig(weight_pooling="max"))[0] == 2.0
    assert neuron_weights(
        g, GradCamConfig(absolute_gradients=True))[0] == pytest.approx(1.5)
    assert neuron_weights(
        g, GradCamConfig(gradient_sign=-1))[0] == pytest.approx(0.0)
    assert neuron_weights(
        g, GradCamConfig(gradient_sign=-1, weight_pooling="max"))[0] == 3.0


# --------------------------------------------------------- toy identities

def single_map_model():
    """One 1-filter conv stage feeding GAP -> dense with weight 1."""
    spec = nn.parse_model_spec("""
img input shape=1x4x4
c1 conv filters=1 kernel=1
r1 relu
gap gap
head dense units=1
""")
    weights = nn.WeightStore({
        "c1": {"weights": np.ones((1, 1, 1, 1), np.float32),
               "bias": np.zeros(1, np.float32)},
        "head": {"weights": np.full((1, 1), 16.0, np.float32),
                 "bias": np.zeros(1, np.float32)},
    })
    return spec, weights


def test_single_nonnegative_map_with_unit_weight_is_identity():
    spec, weights = single_map_model()
    img = np.abs(np.arange(16, dtype=np.float32)).reshape(1, 4, 4) / 16
    _, tape = camlab.forward(spec, weights, img)
    heat = gradcam(tape, 0, "r1")
    # alpha = mean grad = head weight / Z = 1, map non-negative
    np.testing.assert_allclose(heat, tape.checkpoint("r1")[0, 0], atol=1e-6)


def test_counterfactual_zero_when_evidence_is_all_positive():
    spec, weights = single_map_model()
    img = np.full((1, 4, 4), 0.5, np.float32)
    _, tape = camlab.forward(spec, weights, img)
    np.testing.assert_array_equal(counterfactual(tape, 0, "r1"),
                                  np.zeros((4, 4), np.float32))


def test_counterfactual_equals_negated_gradcam_before_rectification():
    spec, weights = single_map_model()
    weights.params["head"]["weights"][:] = -16.0  # evidence now negative
    img = np.full((1, 4, 4), 0.5, np.float32)
    _, tape = camlab.forward(spec, weights, img)
    assert gradcam(tape, 0, "r1").max() == 0.0
    np.testing.assert_allclose(counterfactual(tape, 0, "r1"),
                               np.full((4, 4), 0.5), atol=1e-6)


# ------------------------------------------------------ CAM relationships

def test_cam_equivalence_on_gap_model(gap_spec, gap_weights, test_set):
    ex = test_set[0]
    scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
    c = int(np.argmax(scores))
    amaps = tape.checkpoint("r2")
    z = amaps.shape[-2] * amaps.shape[-1]
    gc = gradcam(tape, c, "r2")
    cm = cam(tape, c)
    assert np.abs(np.maximum(cm, 0) / z - gc).max() <= 1e-5
    # normalized views coincide
    np.testing.assert_allclose(normalize_heatmap(np.maximum(cm, 0)),
                               normalize_heatmap(gc), atol=1e-6)


def test_cam_rejects_fc_model(fc_spec, fc_weights, test_set):
    _, tape = camlab.forward(fc_spec, fc_weights, test_set[0].image)
    with pytest.raises(CamIncompatibleError):
        cam(tape, 0)


def test_normalized_map_invariant_to_head_weight_scale(
        gap_spec, gap_weights, test_set):
    ex = test_set[0]
    scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
    c = int(np.argmax(scores))
    base = normalize_heatmap(gradcam(tape, c, "r2"))

    scaled = nn.WeightStore({
        name: {key: arr.copy() for key, arr in group.items()}
        for name, group in gap_weights.params.items()})
    scaled.params["head"]["weights"][c] *= 3.0
    scaled.params["head"]["bias"][c] *= 3.0
    _, tape2 = camlab.forward(gap_spec, scaled, ex.image)
    np.testing.assert_allclose(normalize_heatmap(gradcam(tape2, c, "r2")),
                               base, atol=1e-6)


# ----------------------------------------------------------- ablations

def test_ablation_flags_produce_distinct_maps(gap_spec, gap_weights, test_set):
    ex = test_set[0]
    scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
    c = int(np.argmax(scores))
    base = gradcam(tape, c, "r2")
    variants = [
        gradcam(tape, c, "r2", GradCamConfig(apply_relu=False)),
        gradcam(tape, c, "r2", GradCamConfig(weight_pooling="max")),
        gradcam(tape, c, "r2", GradCamConfig(absolute_gradients=True)),
        gradcam(tape, c, "r2", GradCamConfig(relu_policy="guided")),
        gradcam(tape, c, "r2", GradCamConfig(relu_policy="deconv")),
        gradcam(tape, c, "r2", GradCamConfig(score_point="post_softmax")),
    ]
    for v in variants:
        assert v.shape == base.shape
    # the no-relu variant restores the clipped negative lobes
    assert variants[0].min() < 0 <= base.min()
    # the post-softmax map rescales the gradients
    assert not np.array_equal(variants[5], base)
    # GAP-head gradients are spatially constant, so max pooling equals
    # average pooling here; no ReLU lies between the scores and r2, so the
    # deconv policy changes nothing
    for config in (GradCamConfig(weight_pooling="max"), GradCamConfig(relu_policy="deconv")):
        assert_gap_maps_equal_the_default(gap_spec, gap_weights, test_set, config)


@pytest.mark.parametrize("method", list(explain.METHODS))
def test_config_free_methods_are_those_the_config_leaves_alone(gap_spec, gap_weights,
                                                               test_set, method):
    # the CLI refuses the ablation flags for the methods of CONFIG_FREE
    assert set(explain.CONFIG_FREE) <= set(explain.METHODS)
    scores, tape = camlab.forward(gap_spec, gap_weights, test_set[0].image)
    c, layer, run = int(np.argmax(scores)), target_layer(gap_spec), explain.METHODS[method]
    config = GradCamConfig(absolute_gradients=True, score_point="post_softmax",
                           apply_relu=False)
    same = run(tape, c, layer, config).tobytes() == run(tape, c, layer, None).tobytes()
    assert same == (method in explain.CONFIG_FREE)


def assert_gap_maps_equal_the_default(gap_spec, gap_weights, test_set, config):
    """Grad-CAM at r2 under `config` equals the default map byte for byte,
    for every category of every image of the split."""
    categories = list(range(gap_spec.num_categories))
    for ex in test_set:
        _, tape = camlab.forward(gap_spec, gap_weights, ex.image)
        want = gradcam(tape, categories, "r2")
        assert gradcam(tape, categories, "r2", config).tobytes() == want.tobytes()


def test_policy_substitution_leaves_target_activations_alone(
        gap_spec, gap_weights, test_set):
    """Guided policy applies to ReLUs traversed on the backward path; on
    FIX-GAP there are none between scores and r2, so maps coincide."""
    assert_gap_maps_equal_the_default(gap_spec, gap_weights, test_set,
                                      GradCamConfig(relu_policy="guided"))


def test_gradcam_at_earlier_layer_differs(gap_spec, gap_weights, test_set):
    ex = test_set[0]
    scores, tape = camlab.forward(gap_spec, gap_weights, ex.image)
    c = int(np.argmax(scores))
    early = gradcam(tape, c, "r1")
    late = gradcam(tape, c, "r2")
    assert early.shape == late.shape == (24, 24)
    assert not np.allclose(early, late)


# ------------------------------------------------------------- saliency

def test_pixel_saliency_shapes_and_policies(fc_spec, fc_weights, test_set):
    ex = test_set[0]
    _, tape = camlab.forward(fc_spec, fc_weights, ex.image)
    sal_std = pixel_saliency(tape, ex.label, "standard")
    sal_g = pixel_saliency(tape, ex.label, "guided")
    sal_d = pixel_saliency(tape, ex.label, "deconv")
    for s in (sal_std, sal_g, sal_d):
        assert s.shape == tuple(fc_spec.input_shape)
    assert not np.array_equal(sal_std, sal_g)
    assert not np.array_equal(sal_g, sal_d)


def test_normalize_heatmap_contract():
    assert normalize_heatmap(np.zeros((2, 2))).max() == 0.0
    assert normalize_heatmap(np.full((2, 2), -1.0)).max() == 0.0
    h = normalize_heatmap(np.array([[0.0, 4.0]]))
    np.testing.assert_allclose(h, [[0.0, 1.0]])


@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=4, max_side=5),
                  elements=st.floats(-4, 4, width=32)
                  | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])))
def test_normalize_heatmap_of_a_stack_equals_its_maps_bytewise(stack):
    # all-zero, all-negative and NaN maps among them
    with np.errstate(invalid="ignore"):
        got = normalize_heatmap(stack)
        assert got.dtype == np.float32 and got.shape == stack.shape
        for at in np.ndindex(stack.shape[:-2]):
            assert got[at].tobytes() == normalize_heatmap(stack[at]).tobytes()


def test_guided_gradcam_identity_when_heat_is_flat():
    sal = np.arange(12, dtype=np.float32).reshape(3, 2, 2) - 5
    out = guided_gradcam(sal, np.ones((1, 1), np.float32))
    np.testing.assert_allclose(out, sal, atol=1e-6)


def test_guided_gradcam_masks_out_cold_regions():
    sal = np.ones((1, 2, 4), np.float32)
    heat = np.array([[0.0, 1.0]], np.float32)  # left cold, right hot
    out = guided_gradcam(sal, heat)
    assert out[0, 0, 0] < out[0, 0, 3]
    assert out[0, 0, 3] == pytest.approx(1.0)


def test_saliency_to_heatmap_channel_max_of_abs():
    sal = np.array([[[1.0, -2.0]], [[-3.0, 0.5]]], np.float32)
    np.testing.assert_allclose(saliency_to_heatmap(sal), [[3.0, 2.0]])


# ------------------------------------------------------ lists of categories

@pytest.mark.parametrize("arch", ["gap", "fc"])
@pytest.mark.parametrize("method", list(explain.METHODS))
def test_method_of_a_list_equals_a_loop_byte_for_byte(request, test_set, arch, method):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    run = explain.METHODS[method]
    configs = [None, GradCamConfig(score_point="post_softmax", relu_policy="guided"),
               GradCamConfig(apply_relu=False, weight_pooling="max")]
    for ex, config in zip(test_set[:3], configs):
        _, tape = camlab.forward(spec, weights, ex.image)
        for categories in ([2, 0, 1], [1], [0, 2]):
            if method == "cam" and arch == "fc":
                with pytest.raises(CamIncompatibleError):
                    run(tape, categories, "r2", config)
                continue
            stack = run(tape, categories, "r2", config)
            assert stack.shape[0] == len(categories)
            for c, heat in zip(categories, stack):
                alone = run(tape, c, "r2", config)
                assert heat.dtype == alone.dtype and heat.tobytes() == alone.tobytes()


def test_guided_gradcam_fuses_stacks_pairwise(rng):
    sal = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    heat = rng.random((2, 2, 2)).astype(np.float32)
    fused = guided_gradcam(sal, heat)
    assert fused.shape == sal.shape
    for s, h, f in zip(sal, heat, fused):
        assert f.tobytes() == guided_gradcam(s, h).tobytes()
    assert saliency_to_heatmap(fused).tobytes() == np.stack(
        [saliency_to_heatmap(f) for f in fused]).tobytes()


# ------------------------------------------------------ tapes of N images

@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_a_tape_of_one_image_is_a_tape_of_n_1(request, test_set, arch):
    """forward(x), forward(x[None]) and the nn.tapes shard of x give the same
    tape: scores [1, K], every checkpoint with its image axis, and the same
    maps, byte for byte, for every METHODS entry and the occlusion map, for
    a category, [c], [c0, c1] and [[c0, c1]]."""
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    x = test_set[0].image
    tapes = [nn.forward(spec, weights, x)[1], nn.forward(spec, weights, x[None])[1],
             next(nn.tapes(spec, weights, test_set[:1]))[1]]
    shapes = dict(input=spec.input_shape, **spec.shapes())
    for tape in tapes:
        assert tape.scores.shape == (1, spec.num_categories)
        assert tape.scores.tobytes() == tapes[0].scores.tobytes()
        for name, shape in shapes.items():
            assert tape.checkpoint(name).shape == (1,) + tuple(shape)
            assert tape.checkpoint(name).tobytes() == tapes[0].checkpoint(name).tobytes()
    occlude = camlab.OcclusionConfig(patch=5, stride=2)
    runs = dict(explain.METHODS, occlusion=lambda tape, c, layer, config:
                camlab.occlusion_map(tape, c, occlude))
    if arch == "fc":
        for tape in tapes:
            with pytest.raises(CamIncompatibleError):
                runs["cam"](tape, 0, "r2", None)
        del runs["cam"]
    c0, c1 = test_set[0].label, (test_set[0].label + 1) % spec.num_categories
    for run in runs.values():
        maps = []
        for categories in (c0, [c0], [c0, c1], [[c0, c1]]):
            got = [run(tape, categories, "r2", None) for tape in tapes]
            assert got[0].ndim == np.ndim(categories) + 2
            for heat in got[1:]:
                assert heat.dtype == got[0].dtype and heat.tobytes() == got[0].tobytes()
            maps.append(got[0])
        one, listed, pair, nested = maps
        # [c] is c's map with a leading axis, [[c0, c1]] that of [c0, c1]
        assert listed.tobytes() == one.tobytes() and nested.tobytes() == pair.tobytes()
        assert pair[0].tobytes() == one.tobytes()


def assert_tape_of_images_equals_one_image_tapes(spec, weights, images, rng):
    """A tape of N images against N one-image tapes, byte for byte: the
    scores, every checkpoint, `grad_at_layer` under each ReLU policy and
    score point, and every METHODS entry, with one category per image and
    with a list of two per image."""
    scores, tape = nn.forward(spec, weights, images)
    alone = [nn.forward(spec, weights, image)[1] for image in images]

    def same(got, want):
        want = np.stack(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    same(scores, [t.scores[0] for t in alone])
    for name in ["input"] + [rec.name for rec in tape.records]:
        same(tape.checkpoint(name), [t.checkpoint(name)[0] for t in alone])
    try:
        layer = target_layer(spec)
    except CheckpointError:   # no conv: Grad-CAM on the image itself
        layer = "input"
    k = spec.num_categories
    one = [int(c) for c in rng.integers(0, k, len(images))]
    lists = rng.integers(0, k, (len(images), 2)).tolist()
    configs = [None, GradCamConfig(score_point="post_softmax", relu_policy="guided",
                                   apply_relu=False)]
    for categories in (one, lists):
        for policy in RELU_POLICIES:
            for point in ("pre_softmax", "post_softmax"):
                for at in {layer, "input"}:
                    same(camlab.grad_at_layer(tape, categories, at, policy, point),
                         [camlab.grad_at_layer(t, c, at, policy, point)
                          for t, c in zip(alone, categories)])
        for method, run in explain.METHODS.items():
            if method == "cam" and spec.layers[-2].kind != "gap":
                continue
            for config in configs:
                same(run(tape, categories, layer, config),
                     [run(t, c, layer, config) for t, c in zip(alone, categories)])


@pytest.mark.parametrize("arch", ["gap", "fc"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tape_of_n_images_equals_n_one_image_tapes_on_the_fixtures(request, test_set,
                                                                   arch, n):
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    images = np.stack([ex.image for ex in test_set[5 * n:6 * n]])
    assert_tape_of_images_equals_one_image_tapes(spec, weights, images,
                                                 np.random.default_rng(n))


# a chain with both a max-pool and a flatten, drawn at once
POOL_FLATTEN = nn.parse_model_spec("""
img input shape=2x9x8
c0 conv filters=3 kernel=3 stride=1 pad=1
r0 relu
p maxpool window=2 stride=2
fl flatten
fc dense units=4
rf relu
head dense units=3
""")


@given(chain_cases(), st.integers(1, 5))
@example((POOL_FLATTEN, 11, None, 0), 5)
def test_tape_of_n_images_equals_n_one_image_tapes_on_random_chains(case, n):
    spec, seed, _, _ = case
    weights = nn.init_weights(spec, rng_seed=seed % 1000)
    rng = np.random.default_rng(seed)
    images = rng.random((n,) + spec.input_shape).astype(np.float32)
    assert_tape_of_images_equals_one_image_tapes(spec, weights, images, rng)
