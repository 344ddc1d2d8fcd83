"""Network assembly, weight persistence, and the fixture trainer.

A model is a plain chain of layers described by a ModelSpec.  The spec file
format is line-oriented, one layer per line::

    img input shape=1x32x32
    c1 conv filters=8 kernel=3 stride=1 pad=1
    r1 relu
    p1 maxpool window=2 stride=2
    gap gap
    head dense units=3

The last dense layer produces the score vector; its `units` is the number
of categories.  Weights live in a WeightStore persisted as a human-readable
manifest plus a little-endian float32 blob.
"""

import io
import logging
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autodiff import ActivationTape, LayerRecord, backward_from_cotangent

log = logging.getLogger(__name__)

LAYER_KINDS = ("conv", "relu", "maxpool", "gap", "flatten", "dense")


class SpecError(ValueError):
    """Malformed or internally inconsistent model spec."""


class WeightStoreError(ValueError):
    """Weight store does not parse or does not match its spec."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


@dataclass
class LayerSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class ModelSpec:
    input_shape: tuple          # (C, H, W)
    layers: list                # LayerSpec, in forward order

    def __post_init__(self):
        self.validate()

    @property
    def num_categories(self):
        return self.layers[-1].params["units"]

    def layer(self, name):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise SpecError(f"no layer named {name!r}")

    def validate(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise SpecError("duplicate layer names")
        shapes = self.shapes()
        last = self.layers[-1]
        if last.kind != "dense":
            raise SpecError("model must end in a dense score layer")
        if len(shapes[last.name]) != 1:
            raise SpecError("score vector must be 1-D")

    def shapes(self):
        """Chain-check shapes statically; returns {layer name: output shape}."""
        shape = tuple(self.input_shape)
        out = {}
        for layer in self.layers:
            p = layer.params
            if layer.kind == "conv":
                if len(shape) != 3:
                    raise SpecError(f"{layer.name}: conv needs a 3-D input, got {shape}")
                c, h, w = shape
                k, s, pad = p["kernel"], p.get("stride", 1), p.get("pad", 0)
                if k > h + 2 * pad or k > w + 2 * pad:
                    raise SpecError(f"{layer.name}: kernel {k} exceeds padded input")
                shape = (p["filters"],
                         (h + 2 * pad - k) // s + 1,
                         (w + 2 * pad - k) // s + 1)
            elif layer.kind == "maxpool":
                if len(shape) != 3:
                    raise SpecError(f"{layer.name}: maxpool needs a 3-D input")
                c, h, w = shape
                win, s = p["window"], p.get("stride", p["window"])
                if win > h or win > w:
                    raise SpecError(f"{layer.name}: window {win} exceeds input {h}x{w}")
                shape = (c, (h - win) // s + 1, (w - win) // s + 1)
            elif layer.kind == "gap":
                if len(shape) != 3:
                    raise SpecError(f"{layer.name}: gap needs a 3-D input")
                shape = (shape[0],)
            elif layer.kind == "flatten":
                shape = (int(np.prod(shape)),)
            elif layer.kind == "dense":
                if len(shape) != 1:
                    raise SpecError(f"{layer.name}: dense needs a flat input, got {shape}")
                shape = (p["units"],)
            elif layer.kind == "relu":
                pass
            else:
                raise SpecError(f"{layer.name}: unknown kind {layer.kind!r}")
            out[layer.name] = shape
        return out

    def parameter_shapes(self):
        """{layer name: {param name: shape}} for parameterized layers."""
        shape = tuple(self.input_shape)
        shapes = self.shapes()
        out = {}
        prev = None
        for layer in self.layers:
            inp = shape if prev is None else shapes[prev]
            if layer.kind == "conv":
                p = layer.params
                out[layer.name] = {
                    "weights": (p["filters"], inp[0], p["kernel"], p["kernel"]),
                    "bias": (p["filters"],),
                }
            elif layer.kind == "dense":
                out[layer.name] = {
                    "weights": (layer.params["units"], inp[0]),
                    "bias": (layer.params["units"],),
                }
            prev = layer.name
        return out


def parse_model_spec(text):
    """Parse the line-oriented spec format (see module docstring)."""
    input_shape = None
    layers = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise SpecError(f"line {lineno}: expected 'name kind k=v ...'")
        name, kind = parts[0], parts[1]
        params = {}
        for kv in parts[2:]:
            if "=" not in kv:
                raise SpecError(f"line {lineno}: bad parameter {kv!r}")
            key, val = kv.split("=", 1)
            params[key] = val
        if kind == "input":
            try:
                input_shape = tuple(int(v) for v in params["shape"].split("x"))
            except (KeyError, ValueError) as exc:
                raise SpecError(f"line {lineno}: input needs shape=CxHxW") from exc
            continue
        if kind not in LAYER_KINDS:
            raise SpecError(f"line {lineno}: unknown layer kind {kind!r}")
        try:
            params = {k: int(v) for k, v in params.items()}
        except ValueError as exc:
            raise SpecError(f"line {lineno}: non-integer parameter") from exc
        layers.append(LayerSpec(name, kind, params))
    if input_shape is None:
        raise SpecError("missing 'input' line")
    if not layers:
        raise SpecError("no layers")
    return ModelSpec(input_shape=input_shape, layers=layers)


def format_model_spec(spec):
    lines = ["img input shape=" + "x".join(str(e) for e in spec.input_shape)]
    for layer in spec.layers:
        kv = " ".join(f"{k}={v}" for k, v in layer.params.items())
        lines.append(f"{layer.name} {layer.kind} {kv}".rstrip())
    return "\n".join(lines) + "\n"


def load_model_spec(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_model_spec(fh.read())


def save_model_spec(spec, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_model_spec(spec))


class WeightStore:
    """Per-layer parameter arrays with a manifest/blob serialization."""

    def __init__(self, params=None):
        self.params = params or {}  # {layer name: {param name: float32 array}}

    def __eq__(self, other):
        if not isinstance(other, WeightStore):
            return NotImplemented
        if self.params.keys() != other.params.keys():
            return False
        for name, group in self.params.items():
            if group.keys() != other.params[name].keys():
                return False
            for key, arr in group.items():
                o = other.params[name][key]
                if arr.shape != o.shape or arr.tobytes() != o.tobytes():
                    return False
        return True

    def check_against(self, spec):
        want = spec.parameter_shapes()
        if set(want) != set(self.params):
            raise WeightStoreError(
                f"weight layers {sorted(self.params)} != spec layers {sorted(want)}")
        for name, group in want.items():
            for key, shape in group.items():
                got = self.params[name][key].shape
                if tuple(got) != tuple(shape):
                    raise WeightStoreError(
                        f"{name}.{key}: shape {got} != spec {tuple(shape)}")

    def save(self, path):
        """Write <path>.manifest (text) and <path>.bin (LE float32 blob)."""
        manifest = io.StringIO()
        blob = io.BytesIO()
        offset = 0
        for name, group in self.params.items():
            for key, arr in group.items():
                arr = np.ascontiguousarray(arr, dtype="<f4")
                shape = ",".join(str(e) for e in arr.shape)
                manifest.write(f"{name} {key} {shape} {offset}\n")
                blob.write(arr.tobytes())
                offset += arr.nbytes
        with open(str(path) + ".manifest", "w", encoding="ascii") as fh:
            fh.write(manifest.getvalue())
        with open(str(path) + ".bin", "wb") as fh:
            fh.write(blob.getvalue())

    @classmethod
    def load(cls, path):
        with open(str(path) + ".manifest", "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        with open(str(path) + ".bin", "rb") as fh:
            blob = fh.read()
        params = {}
        total = 0
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                name, key, shape_s, offset_s = line.split()
                shape = tuple(int(e) for e in shape_s.split(","))
                offset = int(offset_s)
            except ValueError as exc:
                raise WeightStoreError(f"manifest line {lineno}: {line!r}") from exc
            nbytes = int(np.prod(shape)) * 4
            if offset + nbytes > len(blob):
                raise WeightStoreError(
                    f"manifest line {lineno}: {name}.{key} needs bytes "
                    f"[{offset}, {offset + nbytes}) but blob has {len(blob)}")
            arr = np.frombuffer(blob, dtype="<f4", count=int(np.prod(shape)),
                                offset=offset).reshape(shape).copy()
            params.setdefault(name, {})[key] = arr
            total += nbytes
        if total != len(blob):
            raise WeightStoreError(
                f"blob has {len(blob)} bytes but manifest declares {total}")
        return cls(params)


# Byte budget of one batched forward.  Each image in a batch costs its
# largest float64 buffer, an im2col matrix or an activation; both fixture
# specs need 691 200 bytes per image for the c2 im2col matrix, so a batch
# holds 4 images.  Larger batches scored occlusion maps no faster and took
# more memory.
BATCH_BYTES = 3 << 20


def batch_size(spec):
    """Images per batched forward that keep within BATCH_BYTES, at least 1."""
    shapes = spec.shapes()
    sizes = [int(np.prod(spec.input_shape))] + [int(np.prod(s)) for s in shapes.values()]
    for name, group in spec.parameter_shapes().items():
        if spec.layer(name).kind == "conv":
            sizes.append(int(np.prod(group["weights"][1:])) * int(np.prod(shapes[name][1:])))
    return max(1, BATCH_BYTES // (8 * max(sizes)))


def _run_layers(spec, weights, x, dtype, batched, records=None):
    """The layer loop over one image [C, H, W] or a batch [N, C, H, W].

    Returns the scores, [K] or [N, K]; the ops run one image as a batch of
    one.  With `records`, appends a LayerRecord per layer.
    """
    if tuple(x.shape[batched:]) != tuple(spec.input_shape):
        raise ops.DimensionError(
            f"image shape {x.shape[batched:]} != spec input {tuple(spec.input_shape)}")
    weights.check_against(spec)
    for layer in spec.layers:
        p = layer.params
        params, extras = {}, {}
        if layer.kind in ("conv", "dense"):
            group = weights.params[layer.name]
            params = {key: group[key].astype(dtype, copy=False)
                      for key in ("weights", "bias")}
        if layer.kind == "conv":
            extras = {"stride": p.get("stride", 1), "padding": p.get("pad", 0)}
            y = ops.conv2d(x, params["weights"], params["bias"],
                           extras["stride"], extras["padding"])
        elif layer.kind == "relu":
            y = ops.relu(x)
        elif layer.kind == "maxpool":
            y, extras["argmax"] = ops.maxpool2d(x, p["window"],
                                                p.get("stride", p["window"]))
        elif layer.kind == "gap":
            y = ops.global_avg_pool(x)
        elif layer.kind == "flatten":
            y = x.reshape(x.shape[:batched] + (-1,))
        elif layer.kind == "dense":
            y = ops.dense(x, params["weights"], params["bias"])
        if records is not None:
            records.append(LayerRecord(layer.name, layer.kind, x, y, params, extras))
        x = y
    return x


def forward(spec, weights, image, dtype=np.float32):
    """Run the chain on one image; returns (pre-softmax scores, activation tape).

    Where the weights already have `dtype`, the tape's conv and dense params
    are the WeightStore arrays themselves, so do not update those in place
    while the tape is still in use.
    """
    image = np.asarray(image, dtype=dtype)
    records = []
    scores = _run_layers(spec, weights, image, dtype, False, records)
    return scores, ActivationTape(records=records, input=image, scores=scores)


def score_batch(spec, weights, images):
    """Float32 pre-softmax scores [N, K] of a batch [N, C, H, W]; no tape.

    Row i equals the scores `forward` gives for images[i].  The caller
    sizes the batch, for example by `batch_size`.
    """
    return _run_layers(spec, weights, np.asarray(images, dtype=np.float32),
                       np.float32, True)


def init_weights(spec, rng_seed=0):
    """He-style init, deterministic given the seed."""
    rng = np.random.default_rng(rng_seed)
    params = {}
    for name, group in spec.parameter_shapes().items():
        shape = group["weights"]
        fan_in = int(np.prod(shape[1:]))
        std = np.sqrt(2.0 / fan_in)
        params[name] = {
            "weights": (rng.standard_normal(shape) * std).astype(np.float32),
            "bias": np.zeros(group["bias"], dtype=np.float32),
        }
    return WeightStore(params)


def accuracy(spec, weights, dataset):
    """Top-1 accuracy over (image, label) pairs or ShapesExamples."""
    pairs = [_as_pair(ex) for ex in dataset]
    step = batch_size(spec)
    correct = 0
    for start in range(0, len(pairs), step):
        images, labels = zip(*pairs[start:start + step])
        scores = score_batch(spec, weights, np.stack(images))
        correct += int((np.argmax(scores, axis=1) == labels).sum())
    return correct / len(dataset)


def _as_pair(ex):
    if isinstance(ex, tuple):
        return ex
    return ex.image, ex.label


def train_fixture(spec, dataset, epochs, learning_rate, rng_seed=0):
    """Plain per-example SGD on softmax cross-entropy.

    Deterministic given rng_seed.  Returns the trained WeightStore; the mean
    loss of each epoch is logged.  Raises TrainingError (naming the epoch)
    if the loss goes non-finite.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    ncat = spec.num_categories
    pairs = [_as_pair(ex) for ex in dataset]
    for _, label in pairs:
        if not 0 <= label < ncat:
            raise ValueError(f"label {label} out of range for {ncat} categories")
    rng = np.random.default_rng(rng_seed)
    weights = init_weights(spec, rng_seed)
    lr = np.float32(learning_rate)
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        total_loss = 0.0
        for idx in order:
            image, label = pairs[idx]
            scores, tape = forward(spec, weights, image)
            probs = ops.softmax(scores)
            loss = -np.log(max(float(probs[label]), 1e-30))
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            total_loss += loss
            cot = probs.astype(np.float32)
            cot[label] -= 1
            grads = {}
            backward_from_cotangent(tape, cot, param_grads=grads)
            for name, group in grads.items():
                for key, g in group.items():
                    weights.params[name][key] -= lr * g
        log.debug("epoch %d: mean loss %.4f", epoch, total_loss / len(pairs))
    return weights


def fix_gap_spec(image_side=48, channels=1, categories=3):
    """CAM-compatible fixture: conv stack -> GAP -> dense scores.

    Deliberately narrow (6 and 12 filters) so the last convolutional layer
    must encode whole-shape evidence rather than sparse discriminative
    cues; this keeps its class activation maps tight around the object.
    The explanation target layer is ``r2``.
    """
    text = f"""
img input shape={channels}x{image_side}x{image_side}
c1 conv filters=6 kernel=5 stride=2 pad=2
r1 relu
c2 conv filters=12 kernel=5 stride=1 pad=2
r2 relu
gap gap
head dense units={categories}
"""
    return parse_model_spec(text)


def fix_fc_spec(image_side=48, channels=1, categories=3):
    """CAM-incompatible fixture: conv stack -> maxpool -> dense head.

    Shares the convolutional trunk of fix_gap_spec, so ``r2`` is again the
    explanation target layer, but the fully-connected head makes the class
    activation mapping construction inapplicable.
    """
    text = f"""
img input shape={channels}x{image_side}x{image_side}
c1 conv filters=6 kernel=5 stride=2 pad=2
r1 relu
c2 conv filters=12 kernel=5 stride=1 pad=2
r2 relu
p2 maxpool window=2 stride=2
fl flatten
fc1 dense units=32
r3 relu
head dense units={categories}
"""
    return parse_model_spec(text)
