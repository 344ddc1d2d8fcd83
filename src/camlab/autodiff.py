"""Reverse-mode differentiation over a recorded forward pass.

The tape is a linear sequence of layer executions (the networks here are
plain chains), with each layer's output addressable by name as a checkpoint.
The ReLU backward rule is pluggable, one rule (incoming gradient g,
forward input x) -> gradient of x per entry of `RELU_POLICIES`, which
realizes standard backprop, Guided Backpropagation and Deconvolution in
one mechanism:

    standard  gradient passes where the forward input was positive
    guided    ... and the incoming gradient is positive
    deconv    gradient passes where the incoming gradient is positive
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops

RELU_POLICIES = {
    "standard": lambda g, x: g * (x > 0),
    "guided": lambda g, x: g * (x > 0) * (g > 0),
    "deconv": lambda g, x: g * (g > 0),
}


class CheckpointError(LookupError):
    """Unknown checkpoint name."""


class CategoryError(ValueError):
    """Category index outside [0, number of categories)."""


class SeedError(ValueError):
    """Cotangent or categories of another shape than the tape's images take
    (see `_images`), or anything but one cotangent [K] of a tape of one
    image with stop_at=None."""


@dataclass
class LayerRecord:
    """One layer of a recorded forward; x and y carry the leading image
    axis [N, ...]."""
    name: str
    kind: str  # conv | relu | maxpool | gap | flatten | dense
    step: object  # its nn._Step: resolved params, and step.kind's backward rules
    x: np.ndarray
    y: np.ndarray
    params: dict = field(default_factory=dict)   # weights/bias for conv, dense
    # maxpool argmax; in the trainer's records a conv's im2col matrix and a
    # dense layer's float64 weights
    extras: dict = field(default_factory=dict)


@dataclass
class ActivationTape:
    """Recorded forward pass of N images (N = 1 for one image); immutable
    once built, safe to share.

    It holds `scores` [N, K].  The first record's input is the images, the
    checkpoint "input" [N, C, H, W]; every checkpoint has the image axis.
    """
    records: list
    scores: np.ndarray

    def checkpoint(self, name):
        if name == "input":
            return self.records[0].x
        x = next((rec.y for rec in self.records if rec.name == name), None)
        if x is None:
            raise CheckpointError(f"no checkpoint named {name!r}")
        return x


def _images(tape, lead, what):
    """N, the tape's image count, once `lead`, the leading axes of a
    cotangent or of categories, is checked: (N,) or (N, S), and on a tape
    of one image also () or (S,), S >= 1.  Raises SeedError."""
    n = len(tape.scores)
    per_image = lead[:1] == (n,) and len(lead) <= 2
    if not (per_image or n == 1 and len(lead) <= 1) or 0 in lead:
        raise SeedError(f"{what} with leading axes {lead}; a tape of N = {n} images takes "
                        "[N] or [N, S], S >= 1")
    return n


def backward_from_cotangent(tape, cotangent, policy="standard", stop_at="input"):
    """Propagate score-vector cotangents down to `stop_at` in one walk of
    the tape.

    A tape of N images takes one cotangent per image [N, K] or S per image
    [N, S, K]; a tape of one image also takes one cotangent [K] or S of
    them [S, K].  The walk runs on per-image stacks [N, S, ...] and returns
    the checkpoint's cotangents with the cotangent's leading axes.
    stop_at=None asks for the parameter gradients of one cotangent [K] of
    a tape of one image instead and returns them as
    {layer: {param: gradient}}, top layer first: the walk ends at the
    lowest layer with parameters, once its gradients are in, without
    computing its input cotangent.

    The trainer passes its softmax cross-entropy cotangent; explanations
    go through `grad_at_layer`, which builds the cotangents of categories.
    """
    records = tape.records
    if stop_at is None:
        # the walk ends at the lowest layer with parameters
        records = records[next(i for i, r in enumerate(records) if r.step.kind.param_backward):]
    else:
        tape.checkpoint(stop_at)  # CheckpointError for an unknown name
    if policy not in RELU_POLICIES:
        raise ValueError(f"unknown relu policy {policy!r}")
    g = np.asarray(cotangent, dtype=tape.scores.dtype)
    k = tape.scores.shape[-1]
    if g.shape[-1:] != (k,):
        raise SeedError(f"cotangent of shape {g.shape} does not end in the {k} scores")
    n = _images(tape, g.shape[:-1], "cotangent")
    if stop_at is None and g.ndim > 1:
        raise SeedError("parameter gradients take one cotangent [K] of a tape of one image")
    out_shape = g.shape[:-1]
    g = g.reshape(n, -1, k)
    grads = {}
    for rec in reversed(records):
        if rec.name == stop_at:
            break
        kind = rec.step.kind
        if stop_at is None and kind.param_backward:
            grads[rec.name] = kind.param_backward(rec, g[0, 0])
            if rec is records[0]:
                return grads
        g = kind.backward(rec, g, policy)
    return g.reshape(out_shape + g.shape[2:])


def check_category(categories, n):
    """Raise CategoryError unless 0 <= category < n for the category, or for
    each of a list of them; a negative index is an error."""
    for category in np.ravel(categories):
        if not 0 <= category < n:
            raise CategoryError(f"category {category} out of range for {n} categories")


def check_categories(tape, categories):
    """Raise CategoryError unless each category is one of the tape's scores,
    and SeedError unless the categories have a shape that the tape takes:
    one category or a list per image, and on a tape of one image also a
    category or a list (see `grad_at_layer`)."""
    check_category(categories, tape.scores.shape[-1])
    _images(tape, np.shape(categories), "categories")


def one_hot(categories, n, dtype=np.float32):
    """One-hot seeds categories.shape + [n]: [n] of a category, rows [S, n]
    of a list of S, and so on."""
    check_category(categories, n)
    return (np.arange(n) == np.asarray(categories)[..., None]).astype(dtype)


def _cotangents(tape, categories, score_point):
    """Score-vector cotangent of each category, with the categories' shape:
    one-hot for the pre-softmax score, p_c (e_c - p) for the probability,
    with p the softmax of its own image's scores."""
    n = _images(tape, np.shape(categories), "categories")
    seeds = one_hot(categories, tape.scores.shape[-1], tape.scores.dtype)
    if score_point != "post_softmax":
        return seeds
    p = ops.softmax(tape.scores).reshape(n, 1, -1)
    rows = np.asarray(categories).reshape(n, -1)
    pc = np.take_along_axis(p[:, 0], rows, axis=1)
    cot = (-pc[..., None] * p).astype(tape.scores.dtype)
    cot[np.arange(n)[:, None], np.arange(rows.shape[1]), rows] += pc
    return cot.reshape(seeds.shape)


def grad_at_layer(tape, categories, layer, policy="standard", score_point="pre_softmax"):
    """Full gradient of a class score w.r.t. a spatial checkpoint.

    `layer` names the rectified feature maps of a convolutional stage, or
    "input" for the pixel gradient; any other layer is a CheckpointError,
    as an unknown one is.  The categories are one per image, giving
    [N, ...] (N the tape's images), or a list of S per image ([N, S]
    categories), giving [N, S, ...]; on a tape of one image a category
    gives the checkpoint's per-image shape [...], and a list of S a stack
    [S, ...].  Either way all the gradients come from one walk.
    """
    target = tape.checkpoint(layer)
    if target.ndim != 4:
        raise CheckpointError(
            f"checkpoint {layer!r} is not spatial (shape {target.shape})")
    return backward_from_cotangent(tape, _cotangents(tape, categories, score_point),
                                   policy=policy, stop_at=layer)
