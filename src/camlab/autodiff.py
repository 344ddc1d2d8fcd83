"""Reverse-mode differentiation over a recorded forward pass.

The tape is a linear sequence of layer executions (the networks here are
plain chains), with each layer's output addressable by name as a checkpoint.
The ReLU backward rule is pluggable, which realizes standard backprop,
Guided Backpropagation and Deconvolution in one mechanism:

    standard  gradient passes where the forward input was positive
    guided    ... and the incoming gradient is positive
    deconv    gradient passes where the incoming gradient is positive
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops

RELU_POLICIES = ("standard", "guided", "deconv")


class CheckpointError(KeyError):
    """Unknown checkpoint name."""


class CategoryError(ValueError):
    """Category index outside [0, number of categories)."""


class SeedError(ValueError):
    """Cotangent is neither the score shape [K] nor a stack [S, K], or is a
    stack given with `param_grads`."""


@dataclass
class LayerRecord:
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
    """Recorded forward pass; immutable once built, safe to share."""
    records: list
    input: np.ndarray
    scores: np.ndarray

    def checkpoint(self, name):
        if name == "input":
            return self.input
        for rec in self.records:
            if rec.name == name:
                return rec.y
        raise CheckpointError(f"no checkpoint named {name!r}")


def _relu_backward(g, x, policy):
    if policy == "standard":
        return g * (x > 0)
    if policy == "guided":
        return g * (x > 0) * (g > 0)
    if policy == "deconv":
        return g * (g > 0)
    raise ValueError(f"unknown relu policy {policy!r}")


def _check_seed_shape(tape, seed):
    k = tape.scores.shape[0]
    if seed.ndim not in (1, 2) or seed.shape[-1:] != (k,) or seed.size == 0:
        raise SeedError(f"seed shape {seed.shape} is neither the score shape ({k},) "
                        f"nor [S, {k}] with S >= 1")


def backward_from_cotangent(tape, cotangent, policy="standard", stop_at="input",
                            param_grads=None):
    """Propagate a score-vector cotangent [K], or S of them [S, K], down to
    `stop_at` in one walk of the tape.

    S cotangents give a stack [S, ...] of the checkpoint's cotangents; one
    cotangent runs as S=1 and gives the checkpoint's shape.  With
    `param_grads`, a dict, and one cotangent, also fills the dict with
    {layer: {param: gradient}} for every layer with parameters that the
    walk passes.  stop_at=None asks for those gradients only: the walk ends
    at the lowest layer with parameters, once its parameter gradients are
    in, without computing its input cotangent, and returns None.

    The trainer passes its softmax cross-entropy cotangent; explanations
    go through `grad_at_layer`, which builds the cotangents of categories.
    """
    records = tape.records
    last = None
    if stop_at is None:
        if param_grads is None:
            raise ValueError("stop_at=None computes only param_grads, which is None")
        # the walk ends at the lowest layer with parameters
        records = records[next(i for i, r in enumerate(records) if r.step.kind.param_backward):]
        last = records[0]
    else:
        tape.checkpoint(stop_at)  # CheckpointError for an unknown name
    if policy not in RELU_POLICIES:
        raise ValueError(f"unknown relu policy {policy!r}")
    g = np.asarray(cotangent, dtype=tape.scores.dtype)
    _check_seed_shape(tape, g)
    single = g.ndim == 1
    if param_grads is not None and not single:
        raise SeedError("parameter gradients take one cotangent, not a stack")
    g = g[None] if single else g
    for rec in reversed(records):
        if rec.name == stop_at:
            break
        kind = rec.step.kind
        if param_grads is not None and kind.param_backward:
            param_grads[rec.name] = kind.param_backward(rec, g[0])
        if rec is last:
            return None
        g = kind.backward(rec, g, policy)
    return g[0] if single else g


def check_category(categories, n):
    """Raise CategoryError unless 0 <= category < n for the category, or for
    each of a list of them; a negative index is an error."""
    for category in np.ravel(categories):
        if not 0 <= category < n:
            raise CategoryError(f"category {category} out of range for {n} categories")


def one_hot(categories, n, dtype=np.float32):
    """One-hot seed [n] of a category, or rows [S, n] of a list of S."""
    check_category(categories, n)
    return (np.arange(n) == np.asarray(categories)[..., None]).astype(dtype)


def _cotangents(tape, categories, score_point):
    """Score-vector cotangent of a category [K], or of each of a list [S, K]:
    one-hot for the pre-softmax score, p_c (e_c - p) for the probability."""
    seeds = one_hot(categories, tape.scores.shape[0], tape.scores.dtype)
    if score_point != "post_softmax":
        return seeds
    p = ops.softmax(tape.scores)
    rows = np.atleast_1d(categories)
    cot = (-p[rows][:, None] * p).astype(tape.scores.dtype)
    cot[np.arange(len(rows)), rows] += p[rows]
    return cot.reshape(seeds.shape)


def grad_at_layer(tape, categories, layer, policy="standard", score_point="pre_softmax"):
    """Full gradient of a class score w.r.t. a spatial checkpoint.

    `layer` names the rectified feature maps of a convolutional stage, or
    "input" for the pixel gradient; the result has the checkpoint's shape
    for one category, and is a stack [S, ...] from one walk of the tape for
    a list of S.
    """
    target = tape.checkpoint(layer)
    if target.ndim != 3:
        raise ops.DimensionError(
            f"checkpoint {layer!r} is not spatial (shape {target.shape})")
    return backward_from_cotangent(tape, _cotangents(tape, categories, score_point),
                                   policy=policy, stop_at=layer)
