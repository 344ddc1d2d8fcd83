"""Command-line surface for the whole pipeline.

Exit codes: 0 success, 2 usage error, 3 domain error (CAM on an
incompatible architecture, failed attack, ...).
All outputs are deterministic given flags and seeds.
Each command's parser is built once per process and shared by every
in-process `main` call; the spec, weights, images and datasets are read
anew at each call.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import autodiff, evaluation, explain, fixtures, imaging, nn, occlusion, ops

# Errors a user's input can cause; anything else is a bug and keeps its traceback
DOMAIN_ERRORS = (explain.CamIncompatibleError, explain.GradCamConfigError,
                 evaluation.NoSegmentError, evaluation.ProtocolError, nn.SpecError,
                 nn.WeightStoreError, nn.TrainingError, nn.DatasetError,
                 occlusion.OcclusionConfigError, ops.DimensionError,
                 imaging.ImageFormatError, autodiff.CheckpointError,
                 autodiff.CategoryError, OSError)


def _load_model(args):
    """The spec and the weights; the forward or protocol that reads them
    checks that they match."""
    return nn.load_model_spec(args.spec), nn.WeightStore.load(args.weights)


def _load_image(path):
    return imaging.image_to_tensor(imaging.read_image(path))


def _config_from(args):
    return explain.GradCamConfig(
        weight_pooling=args.pool,
        apply_relu=not args.no_relu,
        absolute_gradients=args.abs_grads,
        relu_policy=args.relu_policy,
        score_point={"pre": "pre_softmax", "post": "post_softmax"}[args.score],
    )


# Each GradCamConfig field, and the layer, -> the flag that sets it
_FLAGS = {"weight_pooling": "--pool", "apply_relu": "--no-relu",
          "absolute_gradients": "--abs-grads", "relu_policy": "--relu-policy",
          "score_point": "--score", "layer": "--layer"}


def _refuses_unread_flag(named, methods, layer, config=None):
    """Print the usage error and return 2 if a flag sets the layer or `config`
    away from its default and no method of `methods` (`named` on the command
    line) reads it; a name outside METHODS is the protocol's to refuse."""
    if not set(methods) <= set(explain.METHODS):
        return None
    reads = set().union(*(explain.METHODS[method].reads for method in methods))
    given = dict(vars(config or explain.GradCamConfig()), layer=layer)
    default = dict(vars(explain.GradCamConfig()), layer=None)
    for field, flag in _FLAGS.items():
        if given[field] != default[field] and field not in reads:
            print(f"error: {named} does not read {flag}", file=sys.stderr)
            return 2


def _emit(heat, image, args, suffix=""):
    def with_suffix(path):
        stem, ext = os.path.splitext(path)
        return f"{stem}{suffix}{ext}"

    if args.out_heat:
        imaging.write_fmap(np.asarray(heat, np.float32), with_suffix(args.out_heat))
    if args.out_png:
        imaging.write_image(imaging.heatmap_overlay(image, heat), with_suffix(args.out_png))


def cmd_make_dataset(args):
    examples = fixtures.make_shapes_dataset(
        args.n, args.side, args.seed, args.two_object_frac)
    fixtures.save_dataset(examples, args.out)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def cmd_train(args):
    spec = nn.load_model_spec(args.spec)
    dataset = fixtures.load_dataset(args.data)
    weights = nn.train_fixture(spec, dataset, args.epochs, args.lr, args.seed)
    weights.save(args.out)
    acc = nn.accuracy(spec, weights, dataset)
    print(f"train_accuracy={acc:.4f}")
    return 0


def cmd_explain(args):
    config = _config_from(args)
    if _refuses_unread_flag(f"--method {args.method}", [args.method], args.layer, config):
        return 2
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    layer = explain.target_layer(spec, args.layer, [args.method])
    scores, tape = nn.forward(spec, weights, image)
    if args.category is not None:
        categories = [args.category]
    else:
        categories = evaluation.top_k(scores, args.top_k)
    heats = explain.METHODS[args.method].heat(tape, categories, layer, config)
    multi = len(categories) > 1
    for category, heat in zip(categories, heats):
        _emit(heat, image, args, suffix=f".c{category}" if multi else "")
    return 0


def cmd_occlude(args):
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    patch = args.patch if args.patch is not None else occlusion.default_patch(image.shape[-1])
    config = occlusion.OcclusionConfig(patch=patch, stride=args.stride, fill=args.fill)
    heat = occlusion.occlusion_map(nn.forward(spec, weights, image)[1], args.category, config)
    _emit(heat, image, args)
    return 0


def _report(metrics, path):
    """Write the metrics, rounded to 6 decimals, to the report and stdout.

    A report path that names the file open as stdout is written through
    stdout: opened anew, it would start at offset 0, where the summary
    printed next would overwrite it.
    """
    metrics = {key: round(value, 6) for key, value in metrics.items()}
    report = evaluation.encode_report(metrics)
    if _is_stdout(path):
        sys.stdout.write(report.decode("ascii"))
    else:
        imaging.write_bytes(path, report)
    print(evaluation.format_report(metrics))
    return 0


def _is_stdout(path):
    """Whether `path` names the file open on descriptor 1."""
    try:
        named, out = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (named.st_dev, named.st_ino) == (out.st_dev, out.st_ino)


def cmd_localize(args):
    config = explain.GradCamConfig(apply_relu=not args.no_relu)
    if _refuses_unread_flag(f"--method {args.method}", [args.method], args.layer, config):
        return 2
    spec, weights = _load_model(args)
    return _report(evaluation.localize(
        spec, weights, fixtures.load_dataset(args.data), args.method, args.layer, config,
        args.threshold_frac, args.iou), args.report)


def cmd_point(args):
    if args.modified != bool(args.calibrate_split):
        print("error: --modified and --calibrate-split must be given together", file=sys.stderr)
        return 2
    spec, weights = _load_model(args)
    examples = fixtures.load_dataset(args.data)
    if args.modified:
        metrics = evaluation.modified_point(
            spec, weights, examples, fixtures.load_dataset(args.calibrate_split), args.layer)
    else:
        metrics = evaluation.point(spec, weights, examples, args.layer)
    return _report(metrics, args.report)


def cmd_faithfulness(args):
    if _refuses_unread_flag(f"--methods {args.methods}", args.methods.split(","), args.layer):
        return 2
    spec, weights = _load_model(args)
    occ_cfg = occlusion.OcclusionConfig(patch=args.patch, stride=args.stride)
    metrics, _ = evaluation.faithfulness(spec, weights, fixtures.load_dataset(args.data),
                                         args.methods.split(","), occ_cfg, args.layer)
    return _report(metrics, args.report)


def cmd_attack(args):
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    result = fixtures.adversarial_attack(
        spec, weights, image, args.target, args.epsilon,
        steps=args.steps, step_size=args.step_size)
    imaging.write_image(imaging.tensor_to_image(result.image), args.out)
    print(f"target_probability={result.target_probability:.6f}")
    if not result.success:
        print(f"error: attack failed: target probability {result.target_probability:.4f} "
              f"< 0.99 after {args.steps} steps (--steps)", file=sys.stderr)
        return 3
    return 0


def _add_model_flags(p):
    p.add_argument("--spec", required=True, help="model spec file")
    p.add_argument("--weights", required=True, help="weight store path (no extension)")


def _fill(text):
    """--fill: a pixel value, or auto (None) for the image's channel means."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or auto, got {text!r}") from None


def _bounded(kind, minimum, maximum=None):
    """An argparse type: a finite `kind` number of at least `minimum` and, if
    given, at most `maximum`; NaN is neither."""
    def parse(text):
        value = kind(text)
        if not (value >= minimum and (maximum is None or value <= maximum)):
            bound = (f"at least {minimum}" if maximum is None
                     else f"between {minimum} and {maximum}")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        if not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _make_dataset_flags(p):
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_bounded(int, 1), required=True)
    p.add_argument("--side", type=int, default=48)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--two-object-frac", type=_bounded(float, 0, 1), default=0.0)


def _train_flags(p):
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_bounded(int, 0), default=20)
    p.add_argument("--lr", type=_bounded(float, 0), default=0.05)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)


def _explain_flags(p):
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--category", type=int)
    group.add_argument("--top-k", type=_bounded(int, 1))
    p.add_argument("--layer", default=None)
    p.add_argument("--method", choices=explain.METHODS, required=True)
    p.add_argument("--pool", choices=("avg", "max"), default="avg")
    p.add_argument("--no-relu", action="store_true")
    p.add_argument("--abs-grads", action="store_true")
    p.add_argument("--relu-policy", choices=autodiff.RELU_POLICIES, default="standard")
    p.add_argument("--score", choices=("pre", "post"), default="pre")
    p.add_argument("--out-heat", default=None)
    p.add_argument("--out-png", default=None)


def _occlude_flags(p):
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    p.add_argument("--category", type=int, required=True)
    p.add_argument("--patch", type=_bounded(int, 1), default=None)
    p.add_argument("--stride", type=_bounded(int, 1), default=1)
    p.add_argument("--fill", type=_fill, default="auto")
    p.add_argument("--out-heat", default=None)
    p.add_argument("--out-png", default=None)


def _localize_flags(p):
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold-frac", type=_bounded(float, 0, 1), default=0.15)
    p.add_argument("--iou", type=_bounded(float, 0, 1), default=0.5)
    p.add_argument("--layer", default=None)
    p.add_argument("--method", choices=explain.METHODS, default="gradcam")
    p.add_argument("--no-relu", action="store_true")
    p.add_argument("--report", required=True)


def _point_flags(p):
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--modified", action="store_true")
    p.add_argument("--calibrate-split", default=None)
    p.add_argument("--layer", default=None)
    p.add_argument("--report", required=True)


def _faithfulness_flags(p):
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of " + ",".join(explain.METHODS))
    p.add_argument("--patch", type=_bounded(int, 1), default=5)
    p.add_argument("--stride", type=_bounded(int, 1), default=2)
    p.add_argument("--layer", default=None)
    p.add_argument("--report", required=True)


def _attack_flags(p):
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--epsilon", type=_bounded(float, 0), required=True)
    p.add_argument("--steps", type=_bounded(int, 0), default=50)
    p.add_argument("--step-size", type=_bounded(float, 0), default=None)
    p.add_argument("--out", required=True)


# command -> (help, function adding its flags); command c runs cmd_<c>
COMMANDS = {
    "make-dataset": ("generate the synthetic shapes dataset", _make_dataset_flags),
    "train": ("train a fixture model", _train_flags),
    "explain": ("emit an explanation heatmap", _explain_flags),
    "occlude": ("occlusion-sensitivity map", _occlude_flags),
    "localize": ("weak localization protocol", _localize_flags),
    "point": ("pointing game protocol", _point_flags),
    "faithfulness": ("rank correlation vs occlusion maps", _faithfulness_flags),
    "attack": ("targeted adversarial perturbation", _attack_flags),
}


def build_parser(command=None):
    """The camlab argument parser.

    When `command` names one of COMMANDS, only that command's sub-parser is
    built, which is all that parsing its arguments needs; otherwise (None,
    an unknown name, --help) every sub-parser is, so usage errors and help
    list all commands. Each of these len(COMMANDS) + 1 parsers is built once
    per process and shared, so a caller must not change it; parsing leaves
    no state in it.
    """
    return _parser(command if command in COMMANDS else None)


@functools.cache
def _parser(command):
    names = [command] if command else list(COMMANDS)
    parser = argparse.ArgumentParser(prog="camlab")
    # the usage line names every command even when one sub-parser is built
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(COMMANDS) + "}" if command else None))
    for name in names:
        help_text, add_flags = COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        # looked up by name at each call, so a rebound module attribute (a
        # tracer, a test) is the function that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
