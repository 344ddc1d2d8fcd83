"""Command-line surface for the whole pipeline.

Exit codes: 0 success, 2 usage error, 3 domain error (no segment above
threshold, CAM on an incompatible architecture, failed attack, ...).
All outputs are deterministic given flags and seeds.
"""

import argparse
import math
import sys

import numpy as np

from . import autodiff, evaluation, explain, fixtures, imaging, nn, occlusion

DOMAIN_ERRORS = (explain.CamIncompatibleError, evaluation.NoSegmentError,
                 evaluation.ProtocolError, nn.SpecError, nn.WeightStoreError,
                 nn.TrainingError, imaging.ImageFormatError,
                 autodiff.CheckpointError, FileNotFoundError, ValueError)

METHODS = ("gradcam", "cam", "counterfactual", "guided-backprop", "deconv",
           "guided-gradcam", "backprop")


class AttackFailed(RuntimeError):
    pass


def _load_model(args):
    spec = nn.load_model_spec(args.spec)
    weights = nn.WeightStore.load(args.weights)
    weights.check_against(spec)
    return spec, weights


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


def method_heatmap(method, spec, tape, category, layer, config):
    """Scalar heatmap for one method; feature-res for CAM-family methods,
    image-res for pixel-saliency methods."""
    if method == "gradcam":
        return explain.gradcam(tape, category, layer, config)
    if method == "cam":
        return explain.cam(tape, category)
    if method == "counterfactual":
        return explain.counterfactual(tape, category, layer, config)
    if method in ("guided-backprop", "deconv", "backprop"):
        policy = {"guided-backprop": "guided", "deconv": "deconv",
                  "backprop": "standard"}[method]
        return explain.saliency_to_heatmap(
            explain.pixel_saliency(tape, category, policy))
    if method == "guided-gradcam":
        heat = explain.gradcam(tape, category, layer, config)
        sal = explain.pixel_saliency(tape, category, "guided")
        return explain.saliency_to_heatmap(explain.guided_gradcam(sal, heat))
    raise ValueError(f"unknown method {method!r}")


def _emit(heat, image, args, suffix=""):
    def with_suffix(path):
        if not suffix:
            return path
        stem, dot, ext = path.rpartition(".")
        return f"{stem}{suffix}{dot}{ext}" if dot else f"{path}{suffix}"

    if args.out_heat:
        imaging.write_fmap(np.asarray(heat, np.float32), with_suffix(args.out_heat))
    if args.out_png:
        h, w = image.shape[1], image.shape[2]
        up = imaging.bilinear_resize(heat, w, h)
        rgb = imaging.colormap_jet(explain.normalize_heatmap(up))
        base = imaging.tensor_to_image(image)
        if base.ndim == 2:
            base = np.stack([base] * 3, axis=-1)
        imaging.write_image(imaging.overlay(base, rgb), with_suffix(args.out_png))


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
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    _, tape = nn.forward(spec, weights, image)
    layer = args.layer or explain.default_target_layer(spec)
    config = _config_from(args)
    if args.category is not None:
        categories = [args.category]
    else:
        order = np.argsort(-tape.scores, kind="stable")
        categories = [int(c) for c in order[:args.top_k]]
    multi = len(categories) > 1
    for category in categories:
        heat = method_heatmap(args.method, spec, tape, category, layer, config)
        _emit(heat, image, args, suffix=f".c{category}" if multi else "")
    return 0


def cmd_occlude(args):
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    fill = None if args.fill == "auto" else float(args.fill)
    patch = args.patch or occlusion.default_patch(image.shape[-1])
    config = occlusion.OcclusionConfig(patch=patch, stride=args.stride, fill=fill)
    heat = occlusion.occlusion_map(spec, weights, image, args.category, config)
    _emit(heat, image, args)
    return 0


def _predictions(spec, tape, k=5):
    order = np.argsort(-tape.scores, kind="stable")
    return [int(c) for c in order[:k]]


def cmd_localize(args):
    spec, weights = _load_model(args)
    examples = fixtures.load_dataset(args.data)
    layer = args.layer or explain.default_target_layer(spec)
    config = explain.GradCamConfig(apply_relu=not args.no_relu)
    records = []
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        preds = _predictions(spec, tape)
        boxes = []
        for category in preds:
            if args.method == "backprop":
                heat = explain.saliency_to_heatmap(
                    explain.pixel_saliency(tape, category, "standard"))
            else:
                heat = explain.gradcam(tape, category, layer, config)
            h, w = ex.gt_mask.shape
            up = imaging.bilinear_resize(heat, w, h)
            try:
                boxes.append(evaluation.extract_bbox(up, args.threshold_frac))
            except evaluation.NoSegmentError:
                boxes.append(None)
        records.append(evaluation.EvalRecord(
            image_id=ex.image_id, true_category=ex.label, predictions=preds,
            boxes=boxes, gt_box=ex.gt_box))
    top1, top5 = evaluation.localization_error(records, args.iou)
    metrics = {"top1_localization_error": round(top1, 6),
               "top5_localization_error": round(top5, 6),
               "n_images": len(records)}
    evaluation.write_report(metrics, args.report)
    print(evaluation.format_report(metrics))
    return 0


def _true_category_heat(spec, weights, ex, layer, category=None):
    _, tape = nn.forward(spec, weights, ex.image)
    cat = ex.label if category is None else category
    return explain.gradcam(tape, cat, layer), tape


def cmd_point(args):
    spec, weights = _load_model(args)
    examples = fixtures.load_dataset(args.data)
    layer = args.layer or explain.default_target_layer(spec)
    metrics = {}
    if args.modified:
        calib = fixtures.load_dataset(args.calibrate_split)
        present, absent = [], []
        for ex in calib:
            _, tape = nn.forward(spec, weights, ex.image)
            gt = {ex.label} | ({ex.label2} if ex.two_object else set())
            for category in range(spec.num_categories):
                peak = float(explain.gradcam(tape, category, layer).max())
                (present if category in gt else absent).append(peak)
        threshold = evaluation.calibrate_pointing_threshold(present, absent)
        hits = total = 0
        for ex in examples:
            _, tape = nn.forward(spec, weights, ex.image)
            gt = {ex.label} | ({ex.label2} if ex.two_object else set())
            masks = {ex.label: ex.gt_mask}
            if ex.two_object:
                masks[ex.label2] = ex.gt_mask2
            heats = [(c, explain.gradcam(tape, c, layer))
                     for c in _predictions(spec, tape)]
            outcome = evaluation.modified_pointing(heats, gt, masks, threshold)
            hits += sum(outcome.values())
            total += len(outcome)
        metrics["modified_pointing_accuracy"] = round(hits / total, 6)
        metrics["threshold"] = round(threshold, 6)
    else:
        hits = 0
        for ex in examples:
            heat, _ = _true_category_heat(spec, weights, ex, layer)
            hits += evaluation.pointing_game(heat, ex.gt_mask)
        metrics["pointing_accuracy"] = round(hits / len(examples), 6)
    metrics["n_images"] = len(examples)
    evaluation.write_report(metrics, args.report)
    print(evaluation.format_report(metrics))
    return 0


def cmd_faithfulness(args):
    spec, weights = _load_model(args)
    examples = fixtures.load_dataset(args.data)
    layer = args.layer or explain.default_target_layer(spec)
    methods = args.methods.split(",")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method in --methods: {m!r}")
    occ_cfg = occlusion.OcclusionConfig(patch=args.patch, stride=args.stride)
    sums = {m: [] for m in methods}
    config = explain.GradCamConfig()
    for ex in examples:
        _, tape = nn.forward(spec, weights, ex.image)
        occ = occlusion.occlusion_map(spec, weights, ex.image, ex.label, occ_cfg)
        for m in methods:
            heat = method_heatmap(m, spec, tape, ex.label, layer, config)
            rho = evaluation.rank_correlation(heat, occ)
            if not np.isnan(rho):
                sums[m].append(rho)
    metrics = {}
    for m in methods:
        # every rho of the method undefined: report nan, with no empty-mean warning
        mean = float(np.mean(sums[m])) if sums[m] else math.nan
        metrics[f"mean_rank_correlation.{m}"] = round(mean, 6)
        metrics[f"n_defined.{m}"] = len(sums[m])
    evaluation.write_report(metrics, args.report)
    print(evaluation.format_report(metrics))
    return 0


def cmd_attack(args):
    spec, weights = _load_model(args)
    image = _load_image(args.image)
    result = fixtures.adversarial_attack(
        spec, weights, image, args.target, args.epsilon,
        steps=args.steps, step_size=args.step_size)
    imaging.write_image(imaging.tensor_to_image(result.image), args.out)
    print(f"target_probability={result.target_probability:.6f}")
    if not result.success:
        raise AttackFailed(
            f"attack failed: target probability {result.target_probability:.4f} "
            f"< 0.99 after {args.steps} steps (--steps)")
    return 0


def _add_model_flags(p):
    p.add_argument("--spec", required=True, help="model spec file")
    p.add_argument("--weights", required=True, help="weight store path (no extension)")


def build_parser():
    parser = argparse.ArgumentParser(prog="camlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-dataset", help="generate the synthetic shapes dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--side", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-object-frac", type=float, default=0.0)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="train a fixture model")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="emit an explanation heatmap")
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--category", type=int)
    group.add_argument("--top-k", type=int)
    p.add_argument("--layer", default=None)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--pool", choices=("avg", "max"), default="avg")
    p.add_argument("--no-relu", action="store_true")
    p.add_argument("--abs-grads", action="store_true")
    p.add_argument("--relu-policy", choices=("standard", "guided", "deconv"),
                   default="standard")
    p.add_argument("--score", choices=("pre", "post"), default="pre")
    p.add_argument("--out-heat", default=None)
    p.add_argument("--out-png", default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("occlude", help="occlusion-sensitivity map")
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    p.add_argument("--category", type=int, required=True)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--fill", default="auto")
    p.add_argument("--out-heat", default=None)
    p.add_argument("--out-png", default=None)
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("localize", help="weak localization protocol")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold-frac", type=float, default=0.15)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--layer", default=None)
    p.add_argument("--method", choices=("gradcam", "backprop"), default="gradcam")
    p.add_argument("--no-relu", action="store_true")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("point", help="pointing game protocol")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--modified", action="store_true")
    p.add_argument("--calibrate-split", default=None)
    p.add_argument("--layer", default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("faithfulness", help="rank correlation vs occlusion maps")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--methods", required=True,
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--patch", type=int, default=5)
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--layer", default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_faithfulness)

    p = sub.add_parser("attack", help="targeted adversarial perturbation")
    _add_model_flags(p)
    p.add_argument("--image", required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--step-size", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if args.command == "point" and args.modified and not args.calibrate_split:
        print("error: --modified requires --calibrate-split", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (AttackFailed, *DOMAIN_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
