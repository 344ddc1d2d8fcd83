"""Backward pass: policies, seeds, checkpoints, finite-difference checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import camlab
from camlab import autodiff, nn, ops
from camlab.autodiff import (ActivationTape, CheckpointError, SeedError,
                             backward_from_cotangent, grad_at_layer,
                             one_hot, _relu_backward)
from test_occlusion import chain_cases


# ---------------------------------------------------------- policy table

@pytest.mark.parametrize("x,g,expected", [
    # (forward input, incoming grad) -> (standard, guided, deconv)
    (-1.0, 1.0, (0.0, 0.0, 1.0)),
    (1.0, 1.0, (1.0, 1.0, 1.0)),
    (1.0, -1.0, (-1.0, 0.0, 0.0)),
    (-1.0, -1.0, (0.0, 0.0, 0.0)),
])
def test_relu_backward_policy_table(x, g, expected):
    for policy, want in zip(("standard", "guided", "deconv"), expected):
        got = _relu_backward(np.array([g]), np.array([x]), policy)
        assert got[0] == want


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        _relu_backward(np.ones(1), np.ones(1), "mystery")


# --------------------------------------------------------- small helpers

def tiny_dense_model():
    spec = nn.parse_model_spec("""
img input shape=1x4x4
fl flatten
fc1 dense units=5
r1 relu
head dense units=3
""")
    weights = nn.init_weights(spec, rng_seed=3)
    return spec, weights


def test_backward_unknown_checkpoint():
    spec, weights = tiny_dense_model()
    _, tape = nn.forward(spec, weights, np.ones(spec.input_shape, np.float32))
    with pytest.raises(CheckpointError):
        backward_from_cotangent(tape, one_hot(0, 3), stop_at="nowhere")


def test_checkpoint_lookup():
    spec, weights = tiny_dense_model()
    img = np.ones(spec.input_shape, np.float32)
    _, tape = nn.forward(spec, weights, img)
    # the image, with its image axis, is the first record's input
    point = tape.checkpoint("input")
    assert point.shape == (1,) + img.shape and np.shares_memory(point, tape.records[0].x)
    np.testing.assert_array_equal(point[0], img)
    images = np.stack([img, 2 * img])
    assert nn.forward(spec, weights, images)[1].checkpoint("input").tobytes() == images.tobytes()
    for rec in tape.records:
        # the record's output, with its image axis, without a copy
        point = tape.checkpoint(rec.name)
        assert point.shape == rec.y.shape and np.shares_memory(point, rec.y)
        np.testing.assert_array_equal(point, rec.y)
    with pytest.raises(CheckpointError):
        tape.checkpoint("r9")


def test_stop_at_returns_cotangent_at_that_layer():
    spec, weights = tiny_dense_model()
    _, tape = nn.forward(spec, weights, np.ones(spec.input_shape, np.float32))
    g = backward_from_cotangent(tape, one_hot(1, 3), stop_at="r1")
    # one dense layer above r1: cotangent is its weight row
    np.testing.assert_allclose(g, weights.params["head"]["weights"][1],
                               atol=1e-6)


def activation_patterns_match(tape_a, tape_b):
    """Whether two tapes of one chain share every ReLU mask and max-pool
    winner: the finite-difference checks skip probes that change either."""
    for ra, rb in zip(tape_a.records, tape_b.records):
        if ra.kind == "relu" and not np.array_equal(ra.y > 0, rb.y > 0):
            return False
        if ra.kind == "maxpool" and not np.array_equal(
                ra.extras["argmax"], rb.extras["argmax"]):
            return False
    return True


def finite_difference_check(spec, weights, img, n_coords, eps, rng, rel_tol):
    """Compare the pixel gradient against central differences on random coordinates.

    The networks are piecewise linear, so coordinates where the +/-eps
    probes change any ReLU mask or maxpool winner are skipped: there the
    function is not differentiable over the probed interval and the
    difference quotient straddles two linear pieces.
    """
    scores, tape = camlab.forward(spec, weights, img, dtype=np.float64)
    c = int(np.argmax(scores))
    g = grad_at_layer(tape, c, "input")
    checked = 0
    worst = 0.0
    while checked < n_coords:
        i = tuple(rng.integers(0, d) for d in img.shape)
        plus = img.copy(); plus[i] += eps
        minus = img.copy(); minus[i] -= eps
        sp, tp = camlab.forward(spec, weights, plus, dtype=np.float64)
        sm, tm = camlab.forward(spec, weights, minus, dtype=np.float64)
        if not (activation_patterns_match(tp, tape)
                and activation_patterns_match(tm, tape)):
            continue
        fd = (sp[c] - sm[c]) / (2 * eps)
        rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8)
        worst = max(worst, rel)
        assert rel < rel_tol, f"coordinate {i}: fd {fd} vs grad {g[i]}"
        checked += 1
    return worst


def test_dense_model_gradient_matches_finite_differences(rng):
    spec, weights = tiny_dense_model()
    img = rng.random(spec.input_shape)
    finite_difference_check(spec, weights, img, 16, 1e-5, rng, 1e-4)


def test_conv_model_gradient_matches_finite_differences(rng):
    spec = nn.parse_model_spec("""
img input shape=1x8x8
c1 conv filters=3 kernel=3 stride=1 pad=1
r1 relu
p1 maxpool window=2 stride=2
c2 conv filters=4 kernel=3 stride=1 pad=1
r2 relu
gap gap
head dense units=3
""")
    weights = nn.init_weights(spec, rng_seed=5)
    img = rng.random(spec.input_shape)
    finite_difference_check(spec, weights, img, 20, 1e-5, rng, 1e-4)


# ------------------------------------------------- guided-path exhaustive

def one_relu_net(w1, w2):
    """4-pixel input -> dense(2) -> relu -> dense(1) score."""
    spec = nn.parse_model_spec("""
img input shape=1x2x2
fl flatten
fc1 dense units=2
r1 relu
head dense units=1
""")
    weights = nn.WeightStore({
        "fc1": {"weights": np.asarray(w1, np.float32),
                "bias": np.zeros(2, np.float32)},
        "head": {"weights": np.asarray(w2, np.float32),
                 "bias": np.zeros(1, np.float32)},
    })
    return spec, weights


def test_guided_gradient_support_on_one_relu_net_exhaustively():
    """Guided gradient per hidden unit = standard contribution kept only
    when the unit was active AND its incoming gradient was positive.
    Checked over all sign patterns of both weight layers."""
    x = np.array([[0.3, -0.7], [0.5, -0.2]], np.float32).reshape(1, 2, 2)
    for signs in itertools.product([-1.0, 1.0], repeat=6):
        w1 = np.array(signs[:4], np.float32).reshape(2, 2) * 0.9
        w1 = np.concatenate([w1.reshape(1, 4), -w1.reshape(1, 4)], axis=0) / 2
        w2 = np.array([signs[4:6]], np.float32)
        spec, weights = one_relu_net(w1, w2)
        _, tape = nn.forward(spec, weights, x)
        pre = tape.checkpoint("fc1")[0]
        expected = np.zeros(4, np.float64)
        for u in range(2):
            incoming = float(w2[0, u])
            if pre[u] > 0 and incoming > 0:
                expected += incoming * w1[u].astype(np.float64)
        got = grad_at_layer(tape, 0, "input", policy="guided")
        np.testing.assert_allclose(got.reshape(-1), expected, atol=1e-6)


def test_linear_model_policies_agree():
    spec = nn.parse_model_spec("""
img input shape=1x2x2
fl flatten
head dense units=2
""")
    weights = nn.init_weights(spec, rng_seed=0)
    _, tape = nn.forward(spec, weights, np.ones((1, 2, 2), np.float32))
    grads = [grad_at_layer(tape, 1, "input", policy=p)
             for p in ("standard", "guided", "deconv")]
    row = weights.params["head"]["weights"][1].reshape(1, 2, 2)
    for g in grads:
        np.testing.assert_allclose(g, row, atol=1e-6)


# --------------------------------------------------------- grad_at_layer

def test_grad_at_layer_requires_spatial_checkpoint():
    spec, weights = tiny_dense_model()
    _, tape = nn.forward(spec, weights, np.ones(spec.input_shape, np.float32))
    with pytest.raises(ops.DimensionError):
        grad_at_layer(tape, 0, "fc1")


def test_post_softmax_gradient_matches_finite_differences(rng):
    spec = nn.parse_model_spec("""
img input shape=1x6x6
c1 conv filters=2 kernel=3 stride=1 pad=1
r1 relu
gap gap
head dense units=3
""")
    weights = nn.init_weights(spec, rng_seed=9)
    img = rng.random(spec.input_shape)
    scores, tape = camlab.forward(spec, weights, img, dtype=np.float64)
    c = 1
    g = grad_at_layer(tape, c, "r1", score_point="post_softmax")
    target = tape.checkpoint("r1")[0]
    eps = 1e-6
    # differentiate the softmax probability w.r.t. the feature map by
    # replaying only the head (gap + dense) on perturbed activations
    head_w = weights.params["head"]["weights"].astype(np.float64)
    head_b = weights.params["head"]["bias"].astype(np.float64)

    def prob(a):
        s = head_w @ ops.global_avg_pool(a) + head_b
        return float(ops.softmax(s)[c])

    for _ in range(10):
        i = tuple(rng.integers(0, d) for d in target.shape)
        p = target.copy(); p[i] += eps
        m = target.copy(); m[i] -= eps
        fd = (prob(p) - prob(m)) / (2 * eps)
        assert abs(fd - g[i]) < 1e-6


def test_gap_head_gradients_are_spatially_constant(gap_spec, gap_weights,
                                                   test_set):
    _, tape = camlab.forward(gap_spec, gap_weights, test_set[0].image)
    g = grad_at_layer(tape, 0, "r2")
    assert float(g.var(axis=(1, 2)).max()) <= 1e-7


def test_param_grads_match_finite_differences(rng):
    spec, weights = tiny_dense_model()
    # float64 parameters so finite differences are not dominated by rounding
    weights = nn.WeightStore({
        name: {key: arr.astype(np.float64) for key, arr in group.items()}
        for name, group in weights.params.items()})
    img = rng.random(spec.input_shape)
    scores, tape = camlab.forward(spec, weights, img, dtype=np.float64)
    cot = np.array([0.3, -1.2, 0.9])
    grads = backward_from_cotangent(tape, cot, stop_at=None)
    eps = 1e-6
    for name in ("fc1", "head"):
        for key in ("weights", "bias"):
            arr = weights.params[name][key]
            for _ in range(4):
                i = tuple(rng.integers(0, d) for d in arr.shape)
                orig = arr[i]
                arr[i] = orig + eps
                sp, _ = camlab.forward(spec, weights, img, dtype=np.float64)
                arr[i] = orig - eps
                sm, _ = camlab.forward(spec, weights, img, dtype=np.float64)
                arr[i] = orig
                fd = float(((sp - sm) * cot).sum()) / (2 * eps)
                assert abs(fd - grads[name][key][i]) < 1e-4


@given(chain_cases())
def test_param_grads_match_central_differences_on_random_chains(case):
    """stop_at=None gradients of float64 weights: each conv and dense
    layer's weights and bias against central differences of the scores."""
    spec, seed, _, _ = case
    rng = np.random.default_rng(seed)
    weights = nn.WeightStore({
        name: {key: arr.astype(np.float64) for key, arr in group.items()}
        for name, group in nn.init_weights(spec, rng_seed=seed % 1000).params.items()})
    for group in weights.params.values():
        # nonzero biases, so no ReLU input sits on its kink at 0
        group["bias"][:] = rng.uniform(0.05, 0.5, group["bias"].shape) * rng.choice([-1, 1])
    img = rng.random(spec.input_shape)
    scores, tape = nn.forward(spec, weights, img, dtype=np.float64)
    cot = rng.standard_normal(scores.shape)
    grads = backward_from_cotangent(tape, cot, stop_at=None)
    assert set(grads) == set(spec.parameter_shapes())
    eps = 1e-6
    for name, group in grads.items():
        for key, grad in group.items():
            assert grad.dtype == np.float64
            arr = weights.params[name][key]
            for _ in range(3):
                i = tuple(rng.integers(0, d) for d in arr.shape)
                orig = arr[i]
                arr[i] = orig + eps
                sp = nn.forward(spec, weights, img, dtype=np.float64)[0]
                arr[i] = orig - eps
                sm = nn.forward(spec, weights, img, dtype=np.float64)[0]
                arr[i] = orig
                fd = float((sp - sm) @ cot) / (2 * eps)
                assert abs(fd - grad[i]) <= 1e-6 * (1 + abs(fd)), (name, key, i)


# ------------------------------------------------------ many seeds, one walk

@given(chain_cases(), st.data())
def test_stacked_seeds_walk_equals_one_walk_per_category(case, data):
    """S <= K categories in any order, through one walk of a float32 tape,
    give the S one-category walks byte for byte: every relu policy, every
    stop (the input and each checkpoint), pre- and post-softmax seeds."""
    spec, seed, _, _ = case
    weights = nn.init_weights(spec, rng_seed=seed % 1000)
    img = np.random.default_rng(seed).random(spec.input_shape).astype(np.float32)
    _, tape = nn.forward(spec, weights, img)
    order = data.draw(st.permutations(range(spec.num_categories)))
    categories = order[:data.draw(st.integers(1, len(order)))]
    for point in ("pre_softmax", "post_softmax"):
        block = autodiff._cotangents(tape, categories, point)
        assert block.shape == (len(categories), spec.num_categories)
        for c, row in zip(categories, block):
            assert row.tobytes() == autodiff._cotangents(tape, c, point).tobytes()
        for policy in autodiff.RELU_POLICIES:
            for stop_at in ["input"] + [rec.name for rec in tape.records]:
                got = backward_from_cotangent(tape, block, policy, stop_at)
                assert got.shape == (len(categories),) + tape.checkpoint(stop_at).shape[1:]
                for row, g in zip(block, got):
                    want = backward_from_cotangent(tape, row, policy, stop_at)
                    assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def test_grad_at_layer_of_a_list_is_one_walk(monkeypatch, gap_spec, gap_weights, test_set):
    _, tape = camlab.forward(gap_spec, gap_weights, test_set[0].image)
    walks, walk = [], autodiff.backward_from_cotangent
    monkeypatch.setattr(autodiff, "backward_from_cotangent",
                        lambda tape, cot, *rest, **kw: walks.append(cot) or walk(tape, cot, *rest, **kw))
    for point in ("pre_softmax", "post_softmax"):
        walks.clear()
        grads = grad_at_layer(tape, [2, 0], "r2", score_point=point)
        assert len(walks) == 1 and grads.shape == (2, 12, 24, 24)
        assert grads[1].tobytes() == grad_at_layer(tape, 0, "r2", score_point=point).tobytes()


def test_stacked_seeds_are_checked_row_by_row():
    spec, weights = tiny_dense_model()
    _, tape = nn.forward(spec, weights, np.ones(spec.input_shape, np.float32))
    for bad in (np.zeros(4), np.zeros((0, 3)), np.zeros((2, 4)), np.zeros((2, 1, 3)),
                np.zeros((1, 1, 2, 3))):
        with pytest.raises(SeedError):
            backward_from_cotangent(tape, np.array(bad, np.float32))
    with pytest.raises(autodiff.CategoryError):
        grad_at_layer(tape, [0, 3], "input")
    with pytest.raises(SeedError):    # parameter gradients take one cotangent
        backward_from_cotangent(tape, one_hot([0, 1], 3), stop_at=None)


def test_a_tape_of_images_takes_cotangents_and_categories_per_image():
    spec, weights = tiny_dense_model()
    images = np.linspace(-1, 1, 3 * 16, dtype=np.float32).reshape(3, 1, 4, 4)
    scores, tape = nn.forward(spec, weights, images)
    assert scores.shape == tape.scores.shape == (3, 3)
    assert backward_from_cotangent(tape, one_hot([0, 2, 1], 3)).shape == (3, 1, 4, 4)
    assert backward_from_cotangent(tape, one_hot([[0, 1]] * 3, 3)).shape == (3, 2, 1, 4, 4)
    assert grad_at_layer(tape, [[2], [1], [0]], "input").shape == (3, 1, 1, 4, 4)
    # a cotangent of one image, or of another image count, or a list per
    # image of lists
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((3, 1, 2, 3))):
        with pytest.raises(SeedError):
            backward_from_cotangent(tape, np.array(bad, np.float32))
    for categories in (0, [0, 1], [[0]] * 4, [[[0]]] * 3):
        with pytest.raises(SeedError):
            grad_at_layer(tape, categories, "input")
        with pytest.raises(SeedError):
            camlab.gradcam(tape, categories, "input")
    with pytest.raises(autodiff.CategoryError):
        grad_at_layer(tape, [0, 3, 1], "input")
    for cot in (one_hot([0, 1, 2], 3), one_hot(0, 3)):   # parameter gradients take
        with pytest.raises(SeedError):                   # a tape of one image
            backward_from_cotangent(tape, cot, stop_at=None)
    _, alone = nn.forward(spec, weights, images[:1])   # a batch of one is N = 1
    assert alone.checkpoint("r1").shape == (1, 5)
    assert grad_at_layer(alone, [1], "input").shape == (1, 1, 4, 4)
