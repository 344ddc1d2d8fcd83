"""Class-discriminative heatmaps and pixel-space saliency.

Grad-CAM weights each rectified feature map of a chosen convolutional
checkpoint by the spatially-pooled gradient of a class score, sums, and
rectifies.  CAM is the special case available only on GAP-head models,
computed from the learned head weights.  Counterfactual maps negate the
gradient before pooling.  Guided Grad-CAM fuses the upsampled heatmap with
a guided-backprop saliency map.

Each explanation reads a tape of N images (N = 1 for one image) and takes
the categories that `autodiff.grad_at_layer` takes: one or a list of S per
image, giving maps [N, ...] or [N, S, ...], and on a tape of one image
also a category or a list, giving [...] or [S, ...].  All of them come
from one backward walk of the tape, each map equal to that of its
category on its image alone.
"""

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import RELU_POLICIES, CheckpointError, check_categories, grad_at_layer
from .imaging import bilinear_resize, normalize_heatmap


class CamIncompatibleError(ValueError):
    """CAM requested on a model without a GAP -> dense scoring head."""


class GradCamConfigError(ValueError):
    """GradCamConfig field outside its choices."""


@dataclass
class GradCamConfig:
    weight_pooling: str = "avg"          # avg | max (GMP-gradients ablation)
    apply_relu: bool = True              # final rectification of the map
    absolute_gradients: bool = False
    gradient_sign: int = 1               # -1 selects the counterfactual mode
    relu_policy: str = "standard"        # backward rule for upstream ReLUs
    score_point: str = "pre_softmax"     # pre_softmax | post_softmax

    def __post_init__(self):
        if self.weight_pooling not in ("avg", "max"):
            raise GradCamConfigError(
                f"weight_pooling must be avg or max, got {self.weight_pooling!r}")
        if self.gradient_sign not in (1, -1):
            raise GradCamConfigError("gradient_sign must be +1 or -1")
        if self.score_point not in ("pre_softmax", "post_softmax"):
            raise GradCamConfigError(f"bad score_point {self.score_point!r}")
        if self.relu_policy not in RELU_POLICIES:
            raise GradCamConfigError(f"relu_policy must be one of {', '.join(RELU_POLICIES)}, "
                                     f"got {self.relu_policy!r}")


def target_layer(spec, named=None, methods=()):
    """The layer whose maps `methods` explain, checked before any forward,
    whatever the method: `named`, "input" or a layer whose output is maps
    [C, H, W], or else the last relu that directly follows a conv, else the
    last conv (CheckpointError otherwise).  With "cam" among the methods,
    the spec must have the head CAM reads, and `named` be the layer it
    reads (CamIncompatibleError otherwise)."""
    layers, shapes = spec.layers, spec.shapes()
    picks = ([b.name for a, b in zip(layers, layers[1:]) if (a.kind, b.kind) == ("conv", "relu")]
             or [layer.name for layer in layers if layer.kind == "conv"])
    maps = ["input"] + [name for name, shape in shapes.items() if len(shape) == 3]
    if named is None and not picks:
        raise CheckpointError("model has no convolutional checkpoint")
    if named not in maps + [None]:
        what = (f"no checkpoint named {named!r}" if named not in shapes
                else f"checkpoint {named!r} is not spatial (shape {shapes[named]})")
        raise CheckpointError(f"{what}; choose from " + ", ".join(maps))
    if "cam" in methods:
        cam_layer(layers, named)
    return picks[-1] if named is None else named


def neuron_weights(grads, config=None):
    """Pool a [K,u,v] gradient block into per-map importance weights [K];
    a stack [S,K,u,v] gives [S,K]."""
    config = config or GradCamConfig()
    g = np.asarray(grads, dtype=np.float64)
    if config.gradient_sign == -1:
        g = -g
    if config.absolute_gradients:
        g = np.abs(g)
    if config.weight_pooling == "max":
        return g.max(axis=(-2, -1)).astype(np.float32)
    return g.mean(axis=(-2, -1)).astype(np.float32)


def _weigh_maps(alpha, amaps):
    """Float64 sum over k of alpha[..., k] * amaps[n, k] per image n:
    weights [(N,) (S,) K] and a checkpoint [N, K, u, v] give
    [(N,) (S,) u, v], one GEMV (S absent) or GEMM per image."""
    k, u, v = amaps.shape[-3:]
    maps = amaps.astype(np.float64).reshape(-1, k, u * v)
    weights = alpha.astype(np.float64).reshape(len(maps), -1, k)
    return (weights @ maps).reshape(alpha.shape[:-1] + (u, v))


def gradcam(tape, categories, layer, config=None):
    """Grad-CAM heatmaps [u,v] at the named spatial checkpoint, with the
    categories' leading axes."""
    config = config or GradCamConfig()
    grads = grad_at_layer(tape, categories, layer,
                          policy=config.relu_policy,
                          score_point=config.score_point)
    heat = _weigh_maps(neuron_weights(grads, config), tape.checkpoint(layer))
    if config.apply_relu:
        heat = np.maximum(heat, 0)
    return heat.astype(np.float32)


def cam_layer(layers, named=None):
    """Name of the layer whose maps feed GAP -> dense scores, of a spec's
    layers or a tape's records.  Raises CamIncompatibleError without one,
    or if `named`, a layer a caller names for CAM, is another: CAM reads
    no other."""
    if len(layers) < 3 or layers[-1].kind != "dense" or layers[-2].kind != "gap":
        raise CamIncompatibleError(
            "CAM needs spatial maps -> global average pooling -> dense scores")
    if named not in (None, layers[-3].name):
        raise CamIncompatibleError(f"CAM reads layer {layers[-3].name!r}, the maps that "
                                   f"feed GAP, not {named!r}")
    return layers[-3].name


def cam(tape, categories):
    """CAM heatmaps [u,v] from the learned head weights (GAP-head models
    only), with the categories' leading axes.

    No ReLU is applied; callers comparing against Grad-CAM rectify both
    sides themselves.
    """
    maps = cam_layer(tape.records)
    check_categories(tape, categories)
    w = tape.records[-1].params["weights"].astype(np.float64)[categories]
    return _weigh_maps(w, tape.checkpoint(maps)).astype(np.float32)


def counterfactual(tape, categories, layer, config=None):
    """Regions whose removal would raise the category score: Grad-CAM of
    `config` with the gradient negated."""
    return gradcam(tape, categories, layer, replace(config or GradCamConfig(), gradient_sign=-1))


def pixel_saliency(tape, categories, policy="guided"):
    """Gradient of the class score w.r.t. input pixels under a ReLU policy:
    [C,H,W] with the categories' leading axes.

    policy "standard" is the plain-backprop baseline; "guided" and "deconv"
    are the sharpened variants used for fusion.
    """
    return grad_at_layer(tape, categories, "input", policy)


def guided_gradcam(saliency, heat):
    """Fuse pixel saliency with a coarse heatmap by pointwise product.

    The heatmap is bilinearly upsampled to the saliency resolution,
    normalized to [0,1], and multiplied into every saliency channel.  A
    stack of saliencies [..., C,H,W] and one of heatmaps [..., u,v] fuse
    pairwise.
    """
    saliency = np.asarray(saliency, dtype=np.float32)
    h, w = saliency.shape[-2], saliency.shape[-1]
    up = normalize_heatmap(bilinear_resize(heat, w, h))
    return (saliency * up[..., None, :, :]).astype(np.float32)


def saliency_to_heatmap(saliency):
    """Canonical scalar reduction: per-pixel channel-max of absolute values,
    [C,H,W] -> [H,W], or a stack [..., C,H,W] -> [..., H,W]."""
    s = np.abs(np.asarray(saliency, dtype=np.float32))
    if s.ndim >= 3:
        s = s.max(axis=-3)
    return s


# Scalar heatmap of each method, called as (tape, categories, layer, config)
# with the categories that `grad_at_layer` takes: feature resolution for the
# CAM family, image resolution for pixel saliency.  CAM reads the maps that
# feed GAP whatever `layer` is; callers that take a layer from the user
# check it first with `target_layer`.
# The entries look the functions up by name at call time, so rebinding a
# module attribute (a tracer, a test) also reaches calls made through here.
METHODS = {
    "gradcam": lambda tape, c, layer, config: gradcam(tape, c, layer, config),
    "cam": lambda tape, c, layer, config: cam(tape, c),
    "counterfactual": lambda tape, c, layer, config: counterfactual(tape, c, layer, config),
    "guided-backprop": lambda tape, c, layer, config: saliency_to_heatmap(
        pixel_saliency(tape, c, "guided")),
    "deconv": lambda tape, c, layer, config: saliency_to_heatmap(
        pixel_saliency(tape, c, "deconv")),
    "guided-gradcam": lambda tape, c, layer, config: saliency_to_heatmap(
        guided_gradcam(pixel_saliency(tape, c, "guided"), gradcam(tape, c, layer, config))),
    "backprop": lambda tape, c, layer, config: saliency_to_heatmap(
        pixel_saliency(tape, c, "standard")),
}

# The methods of METHODS that read no GradCamConfig: `config` changes none
# of their maps.
CONFIG_FREE = ("cam", "guided-backprop", "deconv", "backprop")
