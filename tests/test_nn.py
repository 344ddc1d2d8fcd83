"""Model specs, weight persistence, forward pass, trainer."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import camlab
from camlab import autodiff, fixtures, nn, ops


SPEC_TEXT = """\
img input shape=1x8x8
c1 conv filters=2 kernel=3 stride=1 pad=1
r1 relu
p1 maxpool window=2 stride=2
gap gap
head dense units=3
"""


def test_parse_and_format_round_trip():
    spec = nn.parse_model_spec(SPEC_TEXT)
    assert spec.input_shape == (1, 8, 8)
    assert [l.name for l in spec.layers] == ["c1", "r1", "p1", "gap", "head"]
    assert spec.num_categories == 3
    again = nn.parse_model_spec(nn.format_model_spec(spec))
    assert nn.format_model_spec(again) == nn.format_model_spec(spec)


def test_parse_ignores_comments_and_blank_lines():
    spec = nn.parse_model_spec(
        "# a model\nimg input shape=1x8x8\n\nfl flatten  # flattens\n"
        "head dense units=2\n")
    assert [l.name for l in spec.layers] == ["fl", "head"]


@pytest.mark.parametrize("text,fragment", [
    ("fl flatten\nhead dense units=2\n", "input"),
    ("img input shape=1x8x8\n", "no layers"),
    ("img input shape=1x8x8\nx1 warp a=1\nhead dense units=2\n", "warp"),
    ("img input shape=1x8x8\nfl flatten\nfl flatten\nhead dense units=2\n",
     "duplicate"),
    ("img input shape=1x8x8\nc1 conv filters=two kernel=3\n"
     "fl flatten\nhead dense units=2\n", "c1: non-integer parameter filters=two"),
    ("img input shape=1x8x8\nfl flatten\n", "dense"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=9\nfl flatten\n"
     "head dense units=2\n", "kernel"),
    ("img input shape=1x8x8\nhead dense units=2\nr1 relu\n", "dense"),
    ("img input shape=1x8x8\nc1 conv kernel=3\nfl flatten\nhead dense units=2\n",
     "c1 conv: needs filters"),
    ("img input shape=1x8x8\np1 maxpool stride=2\nfl flatten\nhead dense units=2\n",
     "p1 maxpool: needs window"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=3 stride=0\nfl flatten\n"
     "head dense units=2\n", "c1 conv: stride=0 is below its minimum 1"),
    ("img input shape=1x8x8\np1 maxpool window=2 stride=0\nfl flatten\n"
     "head dense units=2\n", "p1 maxpool: stride=0 is below its minimum 1"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=0\nfl flatten\n"
     "head dense units=2\n", "c1 conv: kernel=0 is below its minimum 1"),
    ("img input shape=1x8x8\nc1 conv filters=0 kernel=3\nfl flatten\n"
     "head dense units=2\n", "c1 conv: filters=0 is below its minimum 1"),
    ("img input shape=1x8x8\nfl flatten\nhead dense units=0\n",
     "head dense: units=0 is below its minimum 1"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=3 pad=-1\nfl flatten\n"
     "head dense units=2\n", "c1 conv: pad=-1 is below its minimum 0"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=3 strid=2\nfl flatten\n"
     "head dense units=2\n", "c1 conv: takes no parameter strid"),
    ("img input shape=1x8x8\nfl flatten\nr1 relu slope=1\nhead dense units=2\n",
     "r1 relu: takes no parameter slope"),
    ("img input shape=1x8x8\nc1 conv filters=1 kernel=3 kernel=5\nfl flatten\n"
     "head dense units=2\n", "c1: duplicate parameter kernel"),
    ("img input shape=1x8x8\nimg2 input shape=1x4x4\nfl flatten\nhead dense units=2\n",
     "img2: a second input line"),
    ("img input shape=1x8\nfl flatten\nhead dense units=2\n", "img: input takes only"),
    ("img input shape=0x8x8\nfl flatten\nhead dense units=2\n", "img: input takes only"),
    ("img input shape=1x8x8\ninput flatten\nhead dense units=2\n",
     "layer name 'input' is reserved"),
])
def test_spec_errors(text, fragment):
    with pytest.raises(nn.SpecError) as err:
        nn.parse_model_spec(text)
    assert fragment.lower() in str(err.value).lower()


def test_shapes_chain_matches_forward(gap_spec, fc_spec):
    for spec in (gap_spec, fc_spec):
        weights = nn.init_weights(spec, rng_seed=0)
        img = np.zeros(spec.input_shape, np.float32)
        _, tape = nn.forward(spec, weights, img)
        static = spec.shapes()
        for rec in tape.records:
            assert tuple(rec.y.shape) == (1,) + tuple(static[rec.name]), rec.name


def spec_line(name, kind, **params):
    return f"{name} {kind}" + "".join(f" {k}={v}" for k, v in params.items()
                                      if v is not None)


@st.composite
def valid_spec_texts(draw):
    """A valid chain: conv, relu, maybe maxpool, gap or flatten, dense layers.

    Optional params are left out at random, so the defaults are drawn too.
    """
    side = draw(st.integers(3, 12))
    lines = [f"img input shape={draw(st.integers(1, 2))}x{side}x{side}"]
    stride, pad = draw(st.none() | st.integers(1, 3)), draw(st.none() | st.integers(0, 2))
    padded = side + 2 * (pad or 0)
    kernel = draw(st.integers(1, min(5, padded)))
    lines.append(spec_line("c1", "conv", filters=draw(st.integers(1, 3)), kernel=kernel,
                           stride=stride, pad=pad))
    side = (padded - kernel) // (stride or 1) + 1
    lines.append("r1 relu")
    if draw(st.booleans()):
        lines.append(spec_line("p1", "maxpool", window=draw(st.integers(1, side)),
                               stride=draw(st.none() | st.integers(1, 3))))
    lines.append(draw(st.sampled_from(["gap gap", "fl flatten"])))
    if draw(st.booleans()):
        lines += [f"fc1 dense units={draw(st.integers(1, 4))}", "r2 relu"]
    lines.append(f"head dense units={draw(st.integers(1, 4))}")
    return "\n".join(lines) + "\n"


@given(valid_spec_texts())
def test_layer_table_agrees_with_forward_backward_and_init(text):
    spec = nn.parse_model_spec(text)
    assert nn.format_model_spec(spec) == text
    weights = nn.init_weights(spec, rng_seed=0)
    want = spec.parameter_shapes()
    assert {name: {key: arr.shape for key, arr in group.items()}
            for name, group in weights.params.items()} == want
    image = np.linspace(-1, 1, int(np.prod(spec.input_shape)), dtype=np.float32)
    scores, tape = nn.forward(spec, weights, image.reshape(spec.input_shape))
    assert {rec.name: rec.y.shape[1:] for rec in tape.records} == spec.shapes()
    g = camlab.autodiff.backward_from_cotangent(tape, np.ones_like(scores))
    assert g.shape == spec.input_shape
    grads = camlab.autodiff.backward_from_cotangent(tape, np.ones_like(scores), stop_at=None)
    assert {name: {key: arr.shape for key, arr in group.items()}
            for name, group in grads.items()} == want


def test_fixture_specs_share_target_layer(gap_spec, fc_spec):
    assert gap_spec.shapes()["r2"] == fc_spec.shapes()["r2"] == (12, 24, 24)


def test_spec_file_round_trip(tmp_path):
    spec = nn.parse_model_spec(SPEC_TEXT)
    path = tmp_path / "model.spec"
    nn.save_model_spec(spec, path)
    assert nn.format_model_spec(nn.load_model_spec(path)) \
        == nn.format_model_spec(spec)


# ------------------------------------------------------------ WeightStore

def test_weight_store_round_trip(tmp_path, gap_spec):
    w = nn.init_weights(gap_spec, rng_seed=7)
    w.save(tmp_path / "w")
    again = nn.WeightStore.load(tmp_path / "w")
    assert again == w
    again.check_against(gap_spec)


def test_weight_store_detects_truncated_blob(tmp_path, gap_spec):
    w = nn.init_weights(gap_spec, rng_seed=7)
    w.save(tmp_path / "w")
    blob = (tmp_path / "w.bin").read_bytes()
    (tmp_path / "w.bin").write_bytes(blob[:-4])
    with pytest.raises(nn.WeightStoreError):
        nn.WeightStore.load(tmp_path / "w")


def test_weight_store_detects_bad_manifest(tmp_path, gap_spec):
    w = nn.init_weights(gap_spec, rng_seed=7)
    w.save(tmp_path / "w")
    (tmp_path / "w.manifest").write_text("garbage line\n")
    with pytest.raises(nn.WeightStoreError):
        nn.WeightStore.load(tmp_path / "w")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weight_store_rejects_non_finite_values(tmp_path, gap_spec, value):
    w = nn.init_weights(gap_spec, rng_seed=7)
    w.params["c2"]["weights"][1, 2, 3, 4] = value
    w.save(tmp_path / "w")
    with pytest.raises(nn.WeightStoreError, match="c2.weights holds 1 non-finite values"):
        nn.WeightStore.load(tmp_path / "w")


def _edit_manifest(path, edit):
    lines = (path / "w.manifest").read_text().splitlines()
    (path / "w.manifest").write_text("\n".join(edit(lines)) + "\n")


def test_weight_store_rejects_overlapping_entries(tmp_path, gap_spec):
    # an offset that points into another entry loaded those bytes as the
    # entry's values, and passed check_against
    nn.init_weights(gap_spec, rng_seed=7).save(tmp_path / "w")
    _edit_manifest(tmp_path, lambda lines: [
        line.rsplit(" ", 1)[0] + " 0" if line.startswith("c1 bias") else line
        for line in lines])
    with pytest.raises(nn.WeightStoreError,
                       match="manifest line 2: c1.bias starts at byte 0, not 600"):
        nn.WeightStore.load(tmp_path / "w")


def test_weight_store_rejects_a_repeated_entry(tmp_path, gap_spec):
    # a second `c1 bias` line, its bytes appended, replaced the first
    nn.init_weights(gap_spec, rng_seed=7).save(tmp_path / "w")
    size = (tmp_path / "w.bin").stat().st_size
    _edit_manifest(tmp_path, lambda lines: lines + [f"c1 bias 6 {size}"])
    with open(tmp_path / "w.bin", "ab") as fh:
        fh.write(bytes(24))
    with pytest.raises(nn.WeightStoreError, match="manifest line 7: c1.bias appears twice"):
        nn.WeightStore.load(tmp_path / "w")


def test_weight_store_spec_mismatch(gap_spec, fc_spec):
    w = nn.init_weights(gap_spec, rng_seed=0)
    with pytest.raises(nn.WeightStoreError):
        w.check_against(fc_spec)


@pytest.mark.parametrize("make_spec", [camlab.fix_fc_spec,
                                       lambda: camlab.fix_gap_spec(categories=4)])
def test_forward_and_score_batch_reject_weights_of_another_spec(gap_spec, make_spec):
    # other layers, or a head of another shape, which ops.dense would run
    spec = make_spec()
    w = nn.init_weights(gap_spec, rng_seed=0)
    image = np.zeros(spec.input_shape, np.float32)
    with pytest.raises(nn.WeightStoreError):
        nn.forward(spec, w, image)
    with pytest.raises(nn.WeightStoreError):
        nn.forward(spec, w, image[None])


def test_weight_store_equality_is_bitwise():
    a = nn.WeightStore({"l": {"w": np.zeros(3, np.float32)}})
    b = nn.WeightStore({"l": {"w": np.zeros(3, np.float32)}})
    assert a == b
    b.params["l"]["w"][0] = np.float32(1e-30)
    assert a != b


# ---------------------------------------------------------------- forward

def test_forward_rejects_wrong_image_shape(gap_spec):
    w = nn.init_weights(gap_spec, rng_seed=0)
    with pytest.raises(ops.DimensionError):
        nn.forward(gap_spec, w, np.zeros((1, 32, 32), np.float32))


def test_forward_is_deterministic(gap_spec, rng):
    w = nn.init_weights(gap_spec, rng_seed=0)
    img = rng.random(gap_spec.input_shape).astype(np.float32)
    s1, _ = nn.forward(gap_spec, w, img)
    s2, _ = nn.forward(gap_spec, w, img)
    np.testing.assert_array_equal(s1, s2)


@pytest.mark.parametrize("make_spec", [nn.fix_gap_spec, nn.fix_fc_spec])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_score_batch_equals_forward_per_image(make_spec, n, rng):
    spec = make_spec()
    w = nn.init_weights(spec, rng_seed=3)
    images = rng.random((n, *spec.input_shape)).astype(np.float32)
    want = np.stack([nn.forward(spec, w, img)[0] for img in images])
    assert nn.forward(spec, w, images)[0].tobytes() == want.tobytes()


def test_batch_size_divides_the_byte_budget_by_the_largest_im2col(gap_spec, fc_spec):
    # c2: 6 channels x 5 x 5 kernel rows, 24 x 24 columns, float64
    per_image = 6 * 5 * 5 * 24 * 24 * 8
    assert per_image == 691_200
    for spec in (gap_spec, fc_spec):
        assert nn.batch_size(spec) == nn.BATCH_BYTES // per_image == 4


def test_accuracy_matches_per_image_argmax(monkeypatch):
    spec = nn.parse_model_spec(TOY_SPEC)
    # c1 im2col: 1 x 3 x 3 rows, 8 x 8 columns; 5 images per batch, so the
    # 23 images end in a partial batch
    monkeypatch.setattr(nn, "BATCH_BYTES", 5 * 9 * 64 * 8)
    assert nn.batch_size(spec) == 5
    data = separable_toy_set(23)
    w = nn.init_weights(spec, rng_seed=2)
    want = sum(int(np.argmax(nn.forward(spec, w, img)[0]) == label)
               for img, label in data) / len(data)
    assert nn.accuracy(spec, w, data) == want


def test_accuracy_of_an_empty_split_is_a_dataset_error():
    spec = nn.parse_model_spec(TOY_SPEC)
    with pytest.raises(nn.DatasetError, match="empty"):
        nn.accuracy(spec, nn.init_weights(spec), [])


def test_accuracy_rejects_a_label_outside_the_categories(gap_spec):
    # it was scored as a miss
    image = np.zeros(gap_spec.input_shape, np.float32)
    with pytest.raises(nn.DatasetError, match="label 7 out of range for 3"):
        nn.accuracy(gap_spec, nn.init_weights(gap_spec), [(image, 7)])


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 8, 8), (8, 8)])
def test_accuracy_of_a_split_of_mixed_image_shapes_is_a_dimension_error(shape, monkeypatch):
    # it was numpy's "all input arrays must have the same shape"
    spec = nn.parse_model_spec(TOY_SPEC)
    data = separable_toy_set(12)
    data[9] = (np.zeros(shape, np.float32), 0)   # in the second batch of 5
    monkeypatch.setattr(nn, "BATCH_BYTES", 5 * 9 * 64 * 8)
    runs, tape = [], nn._tape
    monkeypatch.setattr(nn, "_tape", lambda *a: runs.append(a) or tape(*a))
    with pytest.raises(ops.DimensionError,
                       match=re.escape(f"image 9 of the split: shape {shape} != spec input")):
        nn.accuracy(spec, nn.init_weights(spec), data)
    assert runs == []   # refused before the first batch


# ---------------------------------------------------------------- trainer

def separable_toy_set(n=60, seed=0):
    """Trivially separable 2-category set: bright left vs bright right."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        label = int(rng.integers(2))
        img = rng.random((1, 8, 8)).astype(np.float32) * 0.2
        if label == 0:
            img[:, :, :4] += 0.7
        else:
            img[:, :, 4:] += 0.7
        out.append((img, label))
    return out


TOY_SPEC = """\
img input shape=1x8x8
c1 conv filters=2 kernel=3 stride=1 pad=1
r1 relu
gap gap
head dense units=2
"""


def test_trainer_fits_separable_toy_set():
    spec = nn.parse_model_spec(TOY_SPEC)
    data = separable_toy_set()
    w = nn.train_fixture(spec, data, epochs=20, learning_rate=0.1, rng_seed=0)
    assert nn.accuracy(spec, w, data) == 1.0


def test_trainer_is_deterministic():
    spec = nn.parse_model_spec(TOY_SPEC)
    data = separable_toy_set()
    w1 = nn.train_fixture(spec, data, epochs=3, learning_rate=0.1, rng_seed=4)
    w2 = nn.train_fixture(spec, data, epochs=3, learning_rate=0.1, rng_seed=4)
    assert w1 == w2


def test_trainer_rejects_bad_labels():
    spec = nn.parse_model_spec(TOY_SPEC)
    with pytest.raises(ValueError):
        nn.train_fixture(spec, [(np.zeros((1, 8, 8), np.float32), 5)],
                         epochs=1, learning_rate=0.1)
    with pytest.raises(ValueError):
        nn.train_fixture(spec, [], epochs=1, learning_rate=0.1)


def test_trainer_dataset_errors_are_named():
    spec = nn.parse_model_spec(TOY_SPEC)
    with pytest.raises(nn.DatasetError, match="label 5 out of range for 2"):
        nn.train_fixture(spec, [(np.zeros((1, 8, 8), np.float32), 5)],
                         epochs=1, learning_rate=0.1)
    with pytest.raises(nn.DatasetError, match="empty"):
        nn.train_fixture(spec, [], epochs=1, learning_rate=0.1)


@pytest.mark.parametrize("shape", [(1, 4, 4), (2, 8, 8), (8, 8)])
def test_training_on_a_split_of_mixed_image_shapes_is_a_dimension_error(shape, monkeypatch):
    # it was refused at that image's step, up to an epoch of steps in, by a
    # message that named no image
    spec = nn.parse_model_spec(TOY_SPEC)
    data = separable_toy_set(12)
    data[9] = (np.zeros(shape, np.float32), 0)
    runs, tape = [], nn._tape
    monkeypatch.setattr(nn, "_tape", lambda *a: runs.append(a) or tape(*a))
    with pytest.raises(ops.DimensionError,
                       match=re.escape(f"image 9 of the split: shape {shape} != spec input")):
        nn.train_fixture(spec, data, epochs=1, learning_rate=0.1)
    assert runs == []   # refused before the first step


def test_trainer_checks_the_weights_once_per_training(monkeypatch):
    spec = nn.parse_model_spec(TOY_SPEC)
    checked = []
    check_against = nn.WeightStore.check_against
    monkeypatch.setattr(nn.WeightStore, "check_against",
                        lambda self, s: checked.append(s) or check_against(self, s))
    nn.train_fixture(spec, separable_toy_set(5), epochs=2, learning_rate=0.1)
    assert checked == [spec]


def test_trainer_raises_on_divergence():
    # two stacked dense layers: an absurd learning rate makes the layer
    # product overflow float32 within a couple of updates
    spec = nn.parse_model_spec("""
img input shape=1x8x8
fl flatten
fc1 dense units=4
head dense units=2
""")
    data = separable_toy_set(20)
    # the loss check names the failure, so numpy's overflow warnings are noise
    with warnings.catch_warnings(), pytest.raises(nn.TrainingError) as err:
        warnings.simplefilter("error", RuntimeWarning)
        nn.train_fixture(spec, data, epochs=5, learning_rate=1e30, rng_seed=0)
    assert "epoch" in str(err.value)


def test_trainer_raises_on_non_finite_weights():
    # 1e39 is inf in float32: the only update of a one-image epoch made every
    # weight non-finite after a finite loss, and the run saved weights that
    # WeightStore.load refuses
    spec = nn.parse_model_spec(SPEC_TEXT)
    with warnings.catch_warnings(), pytest.raises(
            nn.TrainingError, match=r"non-finite weights at epoch 0: c1\.weights holds 18 "):
        warnings.simplefilter("error", RuntimeWarning)
        nn.train_fixture(spec, separable_toy_set(1), epochs=2, learning_rate=1e39)


def test_fixture_models_reach_high_held_out_accuracy(
        gap_spec, fc_spec, gap_weights, fc_weights, test_set):
    assert nn.accuracy(gap_spec, gap_weights, test_set) >= 0.95
    assert nn.accuracy(fc_spec, fc_weights, test_set) >= 0.95


# sha256 of each session fixture's weight blob, the bytes WeightStore.save
# writes; perfbench/fixtures/{gap,fc}.bin hold the same bytes
PINNED_WEIGHTS = {
    "gap_weights": "f47d62784a1f7ccbcd6502cbb62df3b467340b46d6245028111ad5de7da6e00a",
    "fc_weights": "12c1f24b340e1e0979965ee326c655554b32832a1f34d1ced46779e7de6e9295",
}


@pytest.mark.parametrize("fixture", sorted(PINNED_WEIGHTS))
def test_fixture_weights_are_pinned_byte_for_byte(fixture, request):
    """Every kernel of the 12 000-step trainings, forward and backward,
    still rounds each float64 sum as it did."""
    weights = request.getfixturevalue(fixture)
    blob = hashlib.sha256()
    for group in weights.params.values():
        for arr in group.values():
            blob.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    assert blob.hexdigest() == PINNED_WEIGHTS[fixture]


def reference_sgd(spec, dataset, epochs, learning_rate, rng_seed):
    """train_fixture's SGD, each layer's parameter gradients computed from
    its own walk down to the layer's output: a conv's from a fresh im2col
    matrix, a dense layer's as the outer product of that cotangent and the
    layer's recorded input."""
    pairs = [(ex.image, ex.label) for ex in dataset]
    rng = np.random.default_rng(rng_seed)
    weights = nn.init_weights(spec, rng_seed)
    lr = np.float32(learning_rate)
    for _ in range(epochs):
        for idx in rng.permutation(len(pairs)):
            image, label = pairs[idx]
            scores, tape = nn.forward(spec, weights, image)
            cot = ops.softmax(scores).astype(np.float32)
            cot[label] -= 1
            grads = {}
            for rec in tape.records:
                if rec.kind not in ("conv", "dense"):
                    continue
                g = autodiff.backward_from_cotangent(tape, cot, stop_at=rec.name)
                if rec.kind == "conv":
                    dk, db = ops.conv2d_param_grad(g, rec.x[0], rec.params["weights"].shape,
                                                   rec.step.params["stride"],
                                                   rec.step.params["pad"])
                else:
                    dk, db = np.outer(g, rec.x[0]), g
                grads[rec.name] = {"weights": dk, "bias": db}
            for name, group in grads.items():
                for key, grad in group.items():
                    weights.params[name][key] -= lr * grad
    return weights


@pytest.mark.parametrize("make_spec", [camlab.fix_gap_spec, camlab.fix_fc_spec])
def test_trainer_equals_full_backward_reference_byte_for_byte(make_spec):
    spec = make_spec()
    data = fixtures.make_shapes_dataset(16, 48, rng_seed=7)
    got = nn.train_fixture(spec, data, epochs=2, learning_rate=0.05, rng_seed=3)
    want = reference_sgd(spec, data, epochs=2, learning_rate=0.05, rng_seed=3)
    assert got == want
    assert got != nn.init_weights(spec, 3)


@pytest.mark.parametrize("make_spec", [camlab.fix_gap_spec, camlab.fix_fc_spec])
def test_params_only_backward_skips_the_input_cotangent(make_spec, rng, monkeypatch):
    spec = make_spec()
    weights = nn.init_weights(spec, rng_seed=0)
    image = rng.random(spec.input_shape).astype(np.float32)
    scores, tape = nn.forward(spec, weights, image)
    cot = rng.standard_normal(scores.shape).astype(np.float32)
    input_grads = []
    conv2d_input_grad = ops.conv2d_input_grad
    monkeypatch.setattr(ops, "conv2d_input_grad",
                        lambda g, x_shape, *a: input_grads.append(x_shape)
                        or conv2d_input_grad(g, x_shape, *a))
    g = autodiff.backward_from_cotangent(tape, cot)
    assert g.shape == image.shape
    assert input_grads == [(6, 24, 24), spec.input_shape]
    del input_grads[:]
    grads = autodiff.backward_from_cotangent(tape, cot, stop_at=None)
    assert input_grads == [(6, 24, 24)]   # c2's only: the walk ends at c1
    # top layer first, each with the shapes of its parameters
    names = [rec.name for rec in reversed(tape.records) if rec.kind in ("conv", "dense")]
    assert list(grads) == names
    assert {name: {key: arr.shape for key, arr in group.items()}
            for name, group in grads.items()} == spec.parameter_shapes()


def tape_bytes(tape):
    """Bytes of the arrays a tape holds, each buffer once; the params are
    the WeightStore's arrays, not the tape's."""
    arrays = [tape.scores]
    for rec in tape.records:
        arrays += [rec.x, rec.y, *rec.extras.values()]
    owners = {}
    for arr in arrays:
        while arr.base is not None:
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


@pytest.mark.parametrize("make_spec", [camlab.fix_gap_spec, camlab.fix_fc_spec])
def test_forward_tapes_keep_no_im2col_matrix(make_spec, rng):
    spec = make_spec()
    weights = nn.init_weights(spec, rng_seed=0)
    image = rng.random(spec.input_shape).astype(np.float32)
    _, tape = nn.forward(spec, weights, image)
    assert all("cols" not in rec.extras for rec in tape.records)
    # nor a dense layer's float64 weights, which only the trainer's records keep
    assert all("w64" not in rec.extras for rec in tape.records)
    _, kept = nn._tape(spec, nn._layer_params(spec, weights, np.float32), image, np.float32,
                       "train")
    dense = [rec for rec in kept.records if rec.kind == "dense"]
    assert dense and all(rec.extras["w64"].dtype == np.float64 and np.array_equal(
        rec.extras["w64"], rec.params["weights"]) for rec in dense)
    # 90 KiB (GAP) and 110 KiB (FC): the activations and the max-pool argmax
    assert tape_bytes(tape) < 128 << 10


@pytest.mark.parametrize("make_spec", [camlab.fix_gap_spec, camlab.fix_fc_spec])
def test_trainer_builds_each_im2col_matrix_once_per_step(make_spec, rng, monkeypatch):
    spec = make_spec()
    inputs = []
    im2col = ops._im2col
    monkeypatch.setattr(ops, "_im2col", lambda xb, *a: inputs.append(xb.shape)
                        or im2col(xb, *a))
    image = rng.random(spec.input_shape).astype(np.float32)
    nn.train_fixture(spec, [(image, 1)], epochs=1, learning_rate=0.05)
    # the forward's matrices serve the parameter gradients
    assert inputs == [(1,) + spec.input_shape, (1, 6, 24, 24)]


@pytest.mark.parametrize("arch", ["gap", "fc"])
def test_a_four_image_forward_peaks_below_1_5_mb(request, test_set, traced_peak, arch):
    # 3.2 MB while the c2 conv built the batch's whole 2.76 MB im2col matrix
    spec = request.getfixturevalue(f"{arch}_spec")
    weights = request.getfixturevalue(f"{arch}_weights")
    images = np.stack([ex.image for ex in test_set[:4]])
    assert nn.batch_size(spec) == 4
    nn.forward(spec, weights, images)   # anything made once per process
    assert traced_peak(lambda: nn.forward(spec, weights, images)) < 1.5e6


@pytest.mark.parametrize("make_spec", [camlab.fix_gap_spec, camlab.fix_fc_spec])
def test_param_grads_of_a_forward_tape_equal_the_trainers(make_spec, rng):
    spec = make_spec()
    weights = nn.init_weights(spec, rng_seed=0)
    image = rng.random(spec.input_shape).astype(np.float32)
    scores, lean = nn.forward(spec, weights, image)
    _, kept = nn._tape(spec, nn._layer_params(spec, weights, np.float32), image, np.float32,
                       "train")
    assert all("cols" in rec.extras for rec in kept.records if rec.kind == "conv")
    assert kept.scores.tobytes() == scores.tobytes()
    cot = rng.standard_normal(scores.shape).astype(np.float32)
    got = autodiff.backward_from_cotangent(lean, cot, stop_at=None)
    want = autodiff.backward_from_cotangent(kept, cot, stop_at=None)
    assert list(got) == list(want) and set(got) == set(spec.parameter_shapes())
    for name, group in want.items():
        assert group.keys() == got[name].keys()
        for key, arr in group.items():
            assert arr.tobytes() == got[name][key].tobytes()
