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
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff, ops
from .autodiff import ActivationTape, LayerRecord, backward_from_cotangent
from .imaging import write_bytes

log = logging.getLogger(__name__)


class SpecError(ValueError):
    """Malformed or internally inconsistent model spec."""


class WeightStoreError(ValueError):
    """Weight store does not parse, holds a non-finite value or does not
    match its spec."""


class TrainingError(RuntimeError):
    """Training diverged (a non-finite loss or weight)."""


class DatasetError(ValueError):
    """Unusable dataset: empty for training, a label outside the model's
    categories, a malformed index line, a third object line for one image,
    two object lines of one image naming the same category, a mask of
    another shape than its image, an empty mask, a box other than its
    mask's tight box, or too small an image side."""


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

    def validate(self):
        """Check the spec and resolve its layer plan, one _Step per layer."""
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise SpecError("duplicate layer names")
        if "input" in names:
            raise SpecError("layer name 'input' is reserved for the image checkpoint")
        self._plan = []
        shape = tuple(self.input_shape)
        for layer in self.layers:
            self._plan.append(_resolve(layer, shape))
            shape = self._plan[-1].out_shape
        if not self._plan[-1].kind.scores:
            raise SpecError("model must end in a dense score layer")

    def shapes(self):
        """{layer name: per-image output shape}, in forward order."""
        return {step.layer.name: step.out_shape for step in self._plan}

    def parameter_shapes(self):
        """{layer name: {param name: shape}} for parameterized layers."""
        return {step.layer.name: dict(step.param_shapes)
                for step in self._plan if step.param_shapes}


@dataclass(frozen=True)
class _Kind:
    """Everything that depends on a layer kind; `_KINDS` maps names to these."""
    out_shape: object       # (params, per-image input shape) -> output shape
    # (x, params, weight arrays, mode "tape" or "train") -> (y, record
    # extras) for one image or a batch [N, ...]; see _tape
    forward: object
    # (record, cotangents [N, S, ...], relu policy) -> input cotangents
    # [N, S, ...]: S cotangents of each of the N images the record holds
    backward: object
    # (record of one image, its cotangent) -> {param: gradient}
    param_backward: object = None
    # key -> (minimum, default); the default None marks a required key, and
    # a string default takes the value of that earlier key
    schema: dict = field(default_factory=dict)
    rank: int = 0           # rank of the per-image input it needs, 0 for any
    param_shapes: object = lambda p, shape: {}
    # float64 values per image of its largest buffer, which batch_size budgets for
    buffer: object = lambda p, shape, out: math.prod(out)
    scores: bool = False    # whether its output can be the score vector
    # params -> (kernel, stride, pad) of a layer whose output at (i, j) reads
    # only a window of its input, which occlusion.score_occluded recomputes;
    # None marks a global layer
    window: object = None


# One layer of a resolved spec: its params with the defaults filled in, its
# output and parameter shapes (empty without parameters), and its buffer
_Step = namedtuple("_Step", "layer kind params out_shape param_shapes buffer")


def _resolve(layer, shape):
    """The _Step of `layer` on a per-image input of `shape`."""
    where = f"{layer.name} {layer.kind}:"
    kind = _KINDS.get(layer.kind)
    if kind is None:
        raise SpecError(f"{where} unknown layer kind")
    for key in layer.params:
        if key not in kind.schema:
            raise SpecError(f"{where} takes no parameter {key}")
    p = {}
    for key, (minimum, default) in kind.schema.items():
        if isinstance(default, str):
            default = p[default]
        value = layer.params.get(key, default)
        if value is None:
            raise SpecError(f"{where} needs {key}")
        if value < minimum:
            raise SpecError(f"{where} {key}={value} is below its minimum {minimum}")
        p[key] = value
    if kind.rank and len(shape) != kind.rank:
        raise SpecError(f"{where} needs a {kind.rank}-D input, got {shape}")
    out = kind.out_shape(p, shape)
    if min(out) < 1:
        params = " ".join(f"{k}={v}" for k, v in p.items())
        raise SpecError(f"{where} {params} gives an empty output {out} on input {shape}")
    return _Step(layer, kind, p, out, kind.param_shapes(p, shape),
                 kind.buffer(p, shape, out))


def _slide(shape, k, stride, pad):
    """(h, w) of a k x k window moving by `stride` over shape[1:] padded by `pad`."""
    return tuple((n + 2 * pad - k) // stride + 1 for n in shape[1:])


def _conv_forward(x, p, params, mode):
    conv = (x, params["weights"], params["bias"], p["stride"], p["pad"])
    if mode != "train":
        return ops.conv2d(*conv), {}
    y, cols = ops.conv2d(*conv, return_cols=True)
    # the trainer's record keeps the im2col matrix for the parameter gradient
    return y, {"cols": cols}


def _conv_param_backward(rec, g):
    # a tape from `forward` has no im2col matrix, and conv2d_param_grad
    # builds the same one again
    dk, db = ops.conv2d_param_grad(g, rec.x[0], rec.params["weights"].shape,
                                   rec.step.params["stride"], rec.step.params["pad"],
                                   cols=rec.extras.get("cols"))
    return {"weights": dk, "bias": db}


def _maxpool_forward(x, p, params, mode):
    y, argmax = ops.maxpool2d(x, p["window"], p["stride"])
    return y, {"argmax": argmax}


def _dense_forward(x, p, params, mode):
    w = params["weights"]
    if mode != "train":
        return ops.dense(x, w, params["bias"]), {}
    # the trainer's record keeps the float64 weights for the input cotangent
    w = w.astype(np.float64, copy=False)
    return ops.dense(x, w, params["bias"]), {"w64": w}


def _conv_backward(rec, g, policy):
    # the kernel reads only the input's shape, so the N*S cotangents are one stack
    per_image = rec.x.shape[1:]
    gx = ops.conv2d_input_grad(g.reshape((-1,) + g.shape[2:]), per_image,
                               rec.params["weights"], rec.step.params["stride"],
                               rec.step.params["pad"])
    return gx.reshape(g.shape[:2] + per_image)


def _dense_backward(rec, g, policy):
    # numpy runs one GEMM per image [S, U], a GEMV where S = 1
    w = rec.extras.get("w64", rec.params["weights"])
    return (g.astype(np.float64) @ w.astype(np.float64, copy=False)).astype(g.dtype)


_KINDS = {
    "conv": _Kind(
        schema={"filters": (1, None), "kernel": (1, None), "stride": (1, 1),
                "pad": (0, 0)},
        rank=3,
        out_shape=lambda p, shape: (p["filters"],) + _slide(shape, p["kernel"], p["stride"],
                                                            p["pad"]),
        forward=_conv_forward,
        backward=_conv_backward,
        param_backward=_conv_param_backward,
        param_shapes=lambda p, shape: {
            "weights": (p["filters"], shape[0], p["kernel"], p["kernel"]),
            "bias": (p["filters"],)},
        # the im2col matrix, C*kh*kw rows by h_out*w_out columns
        buffer=lambda p, shape, out: max(math.prod(out),
                                         shape[0] * p["kernel"] ** 2 * out[1] * out[2]),
        window=lambda p: (p["kernel"], p["stride"], p["pad"])),
    "relu": _Kind(
        out_shape=lambda p, shape: shape,
        forward=lambda x, p, params, mode: (ops.relu(x), {}),
        backward=lambda rec, g, policy: autodiff._relu_backward(g, rec.x[:, None], policy),
        window=lambda p: (1, 1, 0)),
    "maxpool": _Kind(
        schema={"window": (1, None), "stride": (1, "window")},
        rank=3,
        out_shape=lambda p, shape: (shape[0],) + _slide(shape, p["window"], p["stride"], 0),
        forward=_maxpool_forward,
        # the argmax of one image, which the ops run in their one-example
        # form, has no image axis
        backward=lambda rec, g, policy: ops.maxpool2d_grad(
            g, rec.extras["argmax"].reshape(rec.y.shape)[:, None], rec.x.shape[1:]),
        window=lambda p: (p["window"], p["stride"], 0)),
    "gap": _Kind(
        rank=3,
        out_shape=lambda p, shape: (shape[0],),
        forward=lambda x, p, params, mode: (ops.global_avg_pool(x), {}),
        backward=lambda rec, g, policy: np.broadcast_to(
            (g / (rec.x.shape[2] * rec.x.shape[3]))[..., None, None],
            g.shape + rec.x.shape[2:]).astype(g.dtype)),
    "flatten": _Kind(
        out_shape=lambda p, shape: (math.prod(shape),),
        # a per-image input is [C, H, W] or a vector, which passes through
        forward=lambda x, p, params, mode: (
            x.reshape(x.shape[:-3] + (-1,)) if x.ndim >= 3 else x, {}),
        backward=lambda rec, g, policy: g.reshape(g.shape[:2] + rec.x.shape[1:])),
    "dense": _Kind(
        schema={"units": (1, None)}, rank=1,
        out_shape=lambda p, shape: (p["units"],),
        forward=_dense_forward,
        backward=_dense_backward,
        param_backward=lambda rec, g: {
            "weights": np.outer(g, rec.x[0]).astype(g.dtype, copy=False), "bias": g.copy()},
        param_shapes=lambda p, shape: {"weights": (p["units"], shape[0]),
                                       "bias": (p["units"],)},
        scores=True),
}


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
            if key in params:
                raise SpecError(f"line {lineno}: {name}: duplicate parameter {key}")
            params[key] = val
        if kind == "input":
            if input_shape is not None:
                raise SpecError(f"line {lineno}: {name}: a second input line")
            extents = params.pop("shape", "").split("x")
            if params or len(extents) != 3 or not all(e.isdecimal() and int(e) > 0
                                                     for e in extents):
                raise SpecError(f"line {lineno}: {name}: input takes only "
                                "shape=CxHxW, each extent at least 1")
            input_shape = tuple(int(e) for e in extents)
            continue
        for key, val in params.items():
            try:
                params[key] = int(val)
            except ValueError:
                raise SpecError(f"line {lineno}: {name}: non-integer parameter "
                                f"{key}={val}") from None
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


def _read_ascii(path, error):
    """The text of an ASCII file; a byte outside ASCII raises `error`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not ASCII") from None


def load_model_spec(path):
    return parse_model_spec(_read_ascii(path, SpecError))


def save_model_spec(spec, path):
    write_bytes(path, format_model_spec(spec).encode("ascii"))


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
        write_bytes(str(path) + ".manifest", manifest.getvalue().encode("ascii"))
        write_bytes(str(path) + ".bin", blob.getvalue())

    @classmethod
    def load(cls, path):
        lines = _read_ascii(str(path) + ".manifest", WeightStoreError).splitlines()
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
                if offset < 0 or min(shape) < 0:
                    raise ValueError("negative offset or extent")
            except ValueError as exc:
                raise WeightStoreError(f"manifest line {lineno}: {line!r}") from exc
            # save writes the entries back to back, each pair once
            if offset != total:
                raise WeightStoreError(f"manifest line {lineno}: {name}.{key} starts at "
                                       f"byte {offset}, not {total} where the one before ends")
            if key in params.get(name, {}):
                raise WeightStoreError(f"manifest line {lineno}: {name}.{key} appears twice")
            nbytes = int(np.prod(shape)) * 4
            if offset + nbytes > len(blob):
                raise WeightStoreError(
                    f"manifest line {lineno}: {name}.{key} needs bytes "
                    f"[{offset}, {offset + nbytes}) but blob has {len(blob)}")
            arr = np.frombuffer(blob, dtype="<f4", count=int(np.prod(shape)),
                                offset=offset).reshape(shape).copy()
            bad = arr.size - np.count_nonzero(np.isfinite(arr))
            if bad:
                raise WeightStoreError(
                    f"manifest line {lineno}: {name}.{key} holds {bad} non-finite values")
            params.setdefault(name, {})[key] = arr
            total += nbytes
        if total != len(blob):
            raise WeightStoreError(
                f"blob has {len(blob)} bytes but manifest declares {total}")
        return cls(params)


# Byte budget of one batched forward.  Each image in a batch costs its
# largest float64 buffer, an im2col matrix or an activation; both fixture
# specs need 691 200 bytes per image for the c2 im2col matrix, so a batch
# holds 4 images.  `ops.conv2d` builds that matrix in blocks of at most
# `ops.IM2COL_BYTES` (one image, here), but the budget still counts it
# whole, which keeps the batches, and the backward stacks that follow them,
# at their size.  `occlusion.score_occluded` budgets a box for its largest
# window buffer plus the whole map at the first global layer: at patch 5
# that is the c2 window im2col matrix and r2 (GAP, 20 boxes a batch) or p2
# (FC, 28).
BATCH_BYTES = 3 << 20


def batch_size(spec):
    """Images per batched forward that keep within BATCH_BYTES, at least 1."""
    per_image = max([math.prod(spec.input_shape)] + [s.buffer for s in spec._plan])
    return max(1, BATCH_BYTES // (8 * per_image))


def _layer_params(spec, weights, dtype):
    """Each layer's weight arrays in `dtype`, one dict per layer of the plan.

    Raises WeightStoreError unless the weights match the spec.  Where the
    weights already have `dtype`, the arrays are the WeightStore's own, so
    an in-place update of the weights shows in the dicts.
    """
    weights.check_against(spec)
    return [{key: weights.params[step.layer.name][key].astype(dtype, copy=False)
             for key in step.param_shapes} for step in spec._plan]


def _tape(spec, params, images, dtype, mode):
    """(scores, tape) of one image [C, H, W] or of a batch [N, C, H, W] in
    `dtype`, on `params`, the `_layer_params` of that dtype: the one layer
    loop, which `forward`, `tapes`, the trainer and the attack run.

    One image gives scores [K] and a batch scores [N, K]; either way the
    tape is a tape of N images (N = 1 for one image), its `scores` [N, K]
    and every record's input and output with the leading image axis.  Only
    the "train" records, not the "tape" ones, keep a conv's float64 im2col
    matrix and a dense layer's float64 weights, for the trainer's gradients.
    """
    x = np.asarray(images, dtype=dtype)
    single = x.ndim == len(spec.input_shape)
    if tuple(x.shape[not single:]) != tuple(spec.input_shape):
        raise ops.DimensionError(
            f"image shape {x.shape[not single:]} != spec input {tuple(spec.input_shape)}")
    # One image runs through the ops in their one-example form, not as
    # x[None]: perfbench's ShapeTagger tags each op by its per-image
    # operand shapes, and perfbench's tests pin those tags.  Once it tags
    # batched operands, one image can run as x[None], and `ops._batched`
    # with its four call sites can go.
    records = []
    for step, arrays in zip(spec._plan, params):
        y, extras = step.kind.forward(x, step.params, arrays, mode)
        layer = step.layer
        records.append(LayerRecord(layer.name, layer.kind, step, x[None] if single else x,
                                   y[None] if single else y, arrays, extras))
        x = y
    return x, ActivationTape(records=records, scores=records[-1].y)


def forward(spec, weights, images, dtype=np.float32):
    """Run the chain on one image [C, H, W] or a batch [N, C, H, W]; returns
    (pre-softmax scores [K] or [N, K], activation tape).

    The tape is a tape of N images, N = 1 for one image: the same tape as
    that of the batch x[None].  The scores of a batch, and its tape's
    checkpoints and explanations, equal those of its images run one by
    one, byte for byte.  The tape is all that the explanations, occlusion
    maps among them, read; each record carries its layer's `_Step`.  Where
    the weights already have `dtype`, the tape's conv and dense params are
    the WeightStore arrays themselves, so do not update those in place
    while the tape is still in use.  The records keep the layers' inputs
    and outputs and the max-pool argmax, but no im2col matrix: a fixture
    tape holds ~0.1 MB per image, and its parameter gradients build each
    conv's matrix again.  Raises WeightStoreError unless the weights match
    the spec.
    """
    return _tape(spec, _layer_params(spec, weights, dtype), images, dtype, "tape")
def tapes(spec, weights, images):
    """Float32 tapes of a split, `batch_size(spec)` images at a time.

    Yields (slice, tape): the tape of the batch images[slice], each equal
    to the `forward` of that batch.  Before the first batch, each image's
    shape is checked against the spec's input, a mismatch raising
    DimensionError that names the image's index, and the weights against
    the spec, a mismatch raising WeightStoreError.
    """
    _check_shapes(spec, images)
    params = _layer_params(spec, weights, np.float32)
    size = batch_size(spec)
    for start in range(0, len(images), size):
        at = slice(start, start + size)
        yield at, _tape(spec, params, np.stack(images[at]), np.float32, "tape")[1]


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
    """Top-1 accuracy over (image, label) pairs or ShapesExamples.

    Raises DatasetError for an empty dataset or a label outside the
    model's categories, as `train_fixture` does.
    """
    if not dataset:
        raise DatasetError("dataset is empty")
    check_labels(spec, dataset)
    images, labels = zip(*map(_as_pair, dataset))
    labels = np.array(labels)
    correct = 0
    for at, tape in tapes(spec, weights, images):
        correct += int((np.argmax(tape.scores, axis=1) == labels[at]).sum())
    return correct / len(dataset)


def check_labels(spec, examples):
    """Raise DatasetError unless each label of the examples, (image, label)
    pairs or ShapesExamples with the labels of all their objects, is a
    category of `spec`."""
    n = spec.num_categories
    for ex in examples:
        for label in (ex[1],) if isinstance(ex, tuple) else (obj.label for obj in ex.objects):
            if not 0 <= label < n:
                raise DatasetError(f"label {label} out of range for {n} categories")


def _check_shapes(spec, images):
    """Raise DimensionError, naming the first image whose shape is not the
    spec's input, by its index in `images`."""
    want = tuple(spec.input_shape)
    for i, image in enumerate(images):
        if np.shape(image) != want:
            raise ops.DimensionError(f"image {i} of the split: shape {np.shape(image)} "
                                     f"!= spec input {want}")


def _as_pair(ex):
    if isinstance(ex, tuple):
        return ex
    return ex.image, ex.label


def train_fixture(spec, dataset, epochs, learning_rate, rng_seed=0):
    """Plain per-example SGD on softmax cross-entropy.

    Deterministic given rng_seed.  Returns the trained WeightStore; the mean
    loss of each epoch is logged.  Before the first step, raises
    DatasetError for an empty dataset or a label outside the categories,
    and DimensionError naming the first image of another shape than the
    spec's input, by its index.  Raises TrainingError (naming the epoch) if
    the loss goes non-finite, or a weight does by the end of an epoch.
    numpy's overflow and invalid-value warnings are silenced, as these
    checks name the failure.
    """
    if not dataset:
        raise DatasetError("dataset is empty")
    check_labels(spec, dataset)
    pairs = [_as_pair(ex) for ex in dataset]
    _check_shapes(spec, [image for image, _ in pairs])
    rng = np.random.default_rng(rng_seed)
    weights = init_weights(spec, rng_seed)
    # the WeightStore's own arrays, which the steps update in place
    params = _layer_params(spec, weights, np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        lr = np.float32(learning_rate)
        for epoch in range(epochs):
            order = rng.permutation(len(pairs))
            total_loss = 0.0
            for idx in order:
                image, label = pairs[idx]
                scores, tape = _tape(spec, params, image, np.float32, "train")
                probs = ops.softmax(scores)
                loss = -np.log(max(float(probs[label]), 1e-30))
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}")
                total_loss += loss
                cot = probs.astype(np.float32)
                cot[label] -= 1
                for name, group in backward_from_cotangent(tape, cot, stop_at=None).items():
                    for key, g in group.items():
                        # the rounding of `-= lr * g`, without a temporary
                        np.multiply(g, lr, out=g)
                        weights.params[name][key] -= g
            for name, group in weights.params.items():
                for key, value in group.items():
                    bad = value.size - np.count_nonzero(np.isfinite(value))
                    if bad:
                        raise TrainingError(f"non-finite weights at epoch {epoch}: "
                                            f"{name}.{key} holds {bad} non-finite values")
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
