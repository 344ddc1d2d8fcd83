"""The benchmark's workloads: inputs made from the seed, items, output checks.

Every operation is one `camlab` CLI invocation run in-process through
``camlab.cli.main``.  An item is a fixed list of operations; a round is the
list of items that covers every shard once.  `setup` makes the inputs with
``camlab make-dataset``; `check` returns a list of failed checks.
"""

import hashlib
import os

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
SIDE = 48
ARCHS = ("gap", "fc")


def _digests(directory):
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _image(directory, image_id):
    """The float32 tensor [1,H,W] the CLI reads from a shard image."""
    return (checks.read_pgm(f"{directory}/{image_id}.pgm").astype(np.float32) / 255.0)[None]


class Workload:
    """Base: spec files, seeded shards and the repeat-identical-output check."""

    def __init__(self, camlab, runner, seed):
        self.camlab, self.runner, self.seed = camlab, runner, seed
        self.work = self.out = None
        self._snapshot = None
        self.observed = {}  # figures the checks compared, for the run's info line

    def shard_seed(self, k):
        # Dataset seeds 1-3 are the pinned train/test/two-object splits of the
        # fixtures; workload seeds map to disjoint ranges from 1000 upwards.
        return 1000 + 64 * self.seed + k

    def setup(self, work):
        self.work, self.out = work, os.path.join(work, "out")
        os.makedirs(self.out)
        os.makedirs(os.path.join(work, "check"))
        make_spec = {"gap": self.camlab.fix_gap_spec, "fc": self.camlab.fix_fc_spec}
        for arch in ARCHS:
            self.camlab.save_model_spec(make_spec[arch](), self.spec(arch))
        self.make_inputs()

    def spec(self, arch):
        return os.path.join(self.work, f"{arch}.spec")

    def make_shard(self, name, n, k, two_object_frac=0.0):
        path = os.path.join(self.work, name)
        self.runner.must(["make-dataset", "--out", path, "--n", str(n),
                          "--side", str(SIDE), "--seed", str(self.shard_seed(k)),
                          "--two-object-frac", str(two_object_frac)])
        return path

    def snapshot(self):
        """Record the outputs of the warm-up round."""
        self._snapshot = _digests(self.out)

    def check(self):
        now = _digests(self.out)
        errors = [f"output {name} differs from the warm-up round"
                  for name in sorted(self._snapshot) if now.get(name) != self._snapshot[name]]
        if now.keys() != self._snapshot.keys():
            errors.append("the set of output files changed after the warm-up round")
        return errors + self.check_outputs()


class Train(Workload):
    """Item: `camlab train` for one epoch on the shard, once per fixture spec."""

    SHARD = 24
    # (learning rate, seed) pinned as in tests/conftest.py
    RECIPES = {"gap": ("0.05", "0"), "fc": ("0.01", "1")}
    STEP_COORDS = 3     # checked coordinates per parameter tensor

    def make_inputs(self):
        self.shard = self.make_shard("shard", self.SHARD, 0)
        self.step_shard = self.make_shard("step", 1, 1)

    def train_argv(self, arch, data, out, epochs):
        lr, seed = self.RECIPES[arch]
        return ["train", "--spec", self.spec(arch), "--data", data, "--out", out,
                "--epochs", str(epochs), "--lr", lr, "--seed", seed]

    def rounds(self):
        return [[self.train_argv(a, self.shard, os.path.join(self.out, a), 1)
                 for a in ARCHS]]

    def check_outputs(self):
        errors = []
        (image_id, [(label, _, _)]), = checks.read_index(self.step_shard)
        x = _image(self.step_shard, image_id)
        rng = np.random.default_rng(self.seed)
        for arch in ARCHS:
            paths = [os.path.join(self.work, "check", f"{arch}{e}") for e in (0, 1)]
            for epochs, path in enumerate(paths):
                self.runner.must(self.train_argv(arch, self.step_shard, path, epochs))
            errors += self.check_sgd_step(arch, *map(checks.read_weights, paths),
                                          x, label, rng)
        return errors

    def check_sgd_step(self, arch, w0, w1, x, label, rng, h=1e-5):
        """W1 - W0 == -lr * dL/dW at W0, L the cross-entropy of one image.

        dL/dW is a central difference of the float64 reference forward; a
        coordinate whose probes change a ReLU mask or max-pool winner sits
        on a kink and is skipped, as is one whose step is too small to
        resolve against float32 rounding of the weights.
        """
        plan = checks.parse_spec(self.spec(arch))
        lr = float(self.RECIPES[arch][0])
        _, _, pattern = checks.ref_forward(plan, w0, x)
        errors = []
        for layer, group in w0.items():
            for key, arr in group.items():
                done = 0
                for _ in range(100):
                    if done == self.STEP_COORDS:
                        break
                    idx = tuple(int(rng.integers(e)) for e in arr.shape)
                    losses = []
                    for sign in (1, -1):
                        probe = {n: dict(g) for n, g in w0.items()}
                        probe[layer][key] = arr.copy()
                        probe[layer][key][idx] += sign * h
                        scores, _, pat = checks.ref_forward(plan, probe, x)
                        losses.append(None if not checks.same_piece(pat, pattern)
                                      else checks.cross_entropy(scores, label))
                    if None in losses:
                        continue
                    want = -lr * (losses[0] - losses[1]) / (2 * h)
                    if abs(want) < 1e-6:
                        continue
                    done += 1
                    got = w1[layer][key][idx] - arr[idx]
                    if abs(got - want) > 2e-7 + 1e-3 * abs(want):
                        errors.append(f"train {arch}: {layer}.{key}{list(idx)} moved "
                                      f"{got:.6e}, -lr x finite difference {want:.6e}")
                if done < self.STEP_COORDS:
                    errors.append(f"train {arch}: {layer}.{key}: only {done} "
                                  "coordinates off kinks with a resolvable step")
        return errors


class Explain(Workload):
    """Item: localize, point --modified and explain --top-k 3 on one shard,
    for both fixture specs."""

    SHARDS = 4
    SHARD = 8
    CALIB = 8
    CHECKED_IMAGES = 2  # per shard, for the Grad-CAM map checks

    def weights(self, arch):
        return os.path.join(FIXTURES, arch)

    def model(self, arch):
        return ["--spec", self.spec(arch), "--weights", self.weights(arch)]

    def make_inputs(self):
        self.shards = [self.make_shard(f"test{k}", self.SHARD, k) for k in range(self.SHARDS)]
        self.calib = self.make_shard("calib", self.CALIB, self.SHARDS, 1.0)
        self.index = [checks.read_index(s) for s in self.shards]
        for arch in ARCHS:
            for k in range(self.SHARDS):
                os.makedirs(os.path.join(self.out, arch, str(k)))

    def rounds(self):
        items = []
        for k, shard in enumerate(self.shards):
            ops = []
            for arch in ARCHS:
                out = os.path.join(self.out, arch, str(k))
                ops.append(["localize", *self.model(arch), "--data", shard,
                            "--report", f"{out}/localize.txt"])
                ops.append(["point", *self.model(arch), "--data", shard, "--modified",
                            "--calibrate-split", self.calib, "--report", f"{out}/point.txt"])
                for image_id, _ in self.index[k]:
                    ops.append(["explain", *self.model(arch),
                                "--image", f"{shard}/{image_id}.pgm", "--top-k", "3",
                                "--method", "guided-gradcam",
                                "--out-heat", f"{out}/{image_id}.fmap",
                                "--out-png", f"{out}/{image_id}.ppm"])
            items.append(ops)
        return items

    def check_outputs(self):
        errors = []
        objects = [objs[0] for index in self.index for _, objs in index]
        full = (0, 0, SIDE - 1, SIDE - 1)
        full_box_error = np.mean([checks.box_iou(full, box) < 0.5 for _, box, _ in objects])
        centre = np.mean([checks.read_pgm(f"{shard}/{mask}")[SIDE // 2, SIDE // 2] > 127
                          for shard, index in zip(self.shards, self.index)
                          for _, [(_, _, mask), *_] in index])
        self.observed.update(full_box_error=full_box_error, centre_pointing=centre)
        for arch in ARCHS:
            loc, hits = [], []
            for k, shard in enumerate(self.shards):
                out = os.path.join(self.out, arch, str(k))
                loc.append(float(checks.read_report(f"{out}/localize.txt")
                                 ["top1_localization_error"]))
                report = os.path.join(self.work, "check", f"point-{arch}-{k}.txt")
                self.runner.must(["point", *self.model(arch), "--data", shard,
                                  "--report", report])
                hits.append(float(checks.read_report(report)["pointing_accuracy"]))
            self.observed.update({f"{arch}_top1_localization_error": np.mean(loc),
                                  f"{arch}_pointing_accuracy": np.mean(hits)})
        # Localization and pointing are claims about the CAM-compatible GAP
        # fixture, as in the acceptance suite.  The FC fixture's figures are
        # recorded only: its top-1 localization error reaches the full-image
        # box's 1.0 and its pointing accuracy falls below the centre-pixel
        # baseline on some seeds.
        gap_loc, gap_hits = (self.observed[f"gap_{m}"]
                             for m in ("top1_localization_error", "pointing_accuracy"))
        if not gap_loc < full_box_error:
            errors.append(f"explain gap: top-1 localization error {gap_loc:.3f} "
                          f"not below the full-image box's {full_box_error:.3f}")
        if not gap_hits >= centre:
            errors.append(f"explain gap: pointing accuracy {gap_hits:.3f} "
                          f"below the centre-pixel baseline {centre:.3f}")
        return errors + self.check_gradcam_maps()

    def check_gradcam_maps(self):
        """GAP: Grad-CAM == ReLU(CAM)/Z.  FC: alpha == finite differences."""
        errors, checked = [], 0
        camlab = self.camlab
        models = {a: (camlab.load_model_spec(self.spec(a)),
                      camlab.WeightStore.load(self.weights(a))) for a in ARCHS}
        refs = {a: (checks.parse_spec(self.spec(a)), checks.read_weights(self.weights(a)))
                for a in ARCHS}
        for k, shard in enumerate(self.shards):
            for image_id, _ in self.index[k][:self.CHECKED_IMAGES]:
                x = _image(shard, image_id)
                for arch in ARCHS:
                    plan, w = refs[arch]
                    _, acts, _ = checks.ref_forward(plan, w, x)
                    amaps = acts["r2"]
                    _, tape = camlab.forward(*models[arch], x)
                    for c in range(3):
                        heat = os.path.join(self.work, "check", f"{arch}-{k}-{image_id}-{c}.fmap")
                        self.runner.must(["explain", *self.model(arch), "--image",
                                          f"{shard}/{image_id}.pgm", "--category", str(c),
                                          "--method", "gradcam", "--out-heat", heat])
                        got = checks.read_fmap(heat)
                        if arch == "gap":
                            cam = np.tensordot(w["head"]["weights"][c], amaps, axes=1)
                            err = np.abs(got - np.maximum(cam, 0) / amaps[0].size).max()
                            if err > 1e-5:
                                errors.append(f"explain gap {k}/{image_id} c{c}: Grad-CAM "
                                              f"differs from ReLU(CAM)/Z by {err:.2e}")
                            checked += 1
                            continue
                        alpha = checks.spatial_mean_weights(plan, w, acts, "r2", c)
                        if alpha is None:
                            continue
                        got_alpha = camlab.explain.neuron_weights(
                            camlab.grad_at_layer(tape, c, "r2"))
                        scale = np.abs(alpha).max()
                        want = np.maximum(np.tensordot(alpha, amaps, axes=1), 0)
                        if (np.abs(got_alpha - alpha).max() > 1e-4 * scale
                                or np.abs(got - want).max() > 1e-4 * want.max() + 1e-7):
                            errors.append(f"explain fc {k}/{image_id} c{c}: Grad-CAM weights "
                                          "differ from finite differences at r2")
                        checked += 1
        if checked < len(self.shards) * self.CHECKED_IMAGES * 3 * len(ARCHS) // 2:
            errors.append(f"explain: only {checked} Grad-CAM maps could be checked")
        return errors


class Faithfulness(Workload):
    """Item: `camlab faithfulness` (patch 5, stride 2) on a one-image shard,
    GAP fixture."""

    SHARDS = 6
    METHODS = ("gradcam", "guided-backprop", "guided-gradcam")
    PATCH, STRIDE = 5, 2
    POINTS = 6          # occlusion grid points recomputed per image

    def make_inputs(self):
        self.shards = [self.make_shard(f"shard{k}", 1, k) for k in range(self.SHARDS)]

    def model(self):
        return ["--spec", self.spec("gap"), "--weights", os.path.join(FIXTURES, "gap")]

    def report(self, k):
        return os.path.join(self.out, f"faithfulness{k}.txt")

    def rounds(self):
        return [[["faithfulness", *self.model(), "--data", shard,
                  "--methods", ",".join(self.METHODS), "--patch", str(self.PATCH),
                  "--stride", str(self.STRIDE), "--report", self.report(k)]]
                for k, shard in enumerate(self.shards)]

    def check_outputs(self):
        # Imported here, after peak RSS is read: camlab itself needs only
        # scipy.ndimage.
        from scipy import stats

        camlab = self.camlab
        spec = camlab.load_model_spec(self.spec("gap"))
        weights = camlab.WeightStore.load(os.path.join(FIXTURES, "gap"))
        rng = np.random.default_rng(self.seed)
        errors = []
        rho = {m: [] for m in self.METHODS}
        for k, shard in enumerate(self.shards):
            (image_id, [(label, _, _)]), = checks.read_index(shard)
            report = checks.read_report(self.report(k))
            for m in self.METHODS:
                rho[m].append(float(report[f"mean_rank_correlation.{m}"]))
            paths = {m: os.path.join(self.work, "check", f"{m}{k}.fmap")
                     for m in ("occlude", "gradcam")}
            image = ["--image", f"{shard}/{image_id}.pgm", "--category", str(label)]
            self.runner.must(["occlude", *self.model(), *image, "--patch", str(self.PATCH),
                              "--stride", str(self.STRIDE), "--out-heat", paths["occlude"]])
            self.runner.must(["explain", *self.model(), *image, "--method", "gradcam",
                              "--out-heat", paths["gradcam"]])
            occ = checks.read_fmap(paths["occlude"])
            x = _image(shard, image_id)
            errors += self.check_occlusion(spec, weights, x, label, occ, rng)
            heat = camlab.imaging.bilinear_resize(
                checks.read_fmap(paths["gradcam"]).astype(np.float64), SIDE, SIDE)
            want = stats.spearmanr(heat.ravel(), occ.ravel()).statistic
            got, reported = camlab.evaluation.rank_correlation(heat, occ), rho["gradcam"][-1]
            if np.isnan(want):
                agree = np.isnan(got) and np.isnan(reported)
            else:  # the report rounds to 6 decimals
                agree = abs(got - want) <= 1e-9 and abs(reported - want) <= 1e-6
            if not agree:
                errors.append(f"faithfulness {k}: rank correlation {got!r} (report "
                              f"{reported!r}) vs scipy spearmanr {want!r}")
        gradcam, guided = np.nanmean(rho["gradcam"]), np.nanmean(rho["guided-backprop"])
        self.observed.update({f"mean_rho.{m}": np.nanmean(v) for m, v in rho.items()})
        if not gradcam > guided:
            errors.append(f"faithfulness: mean rho(Grad-CAM) {gradcam:.4f} not above "
                          f"mean rho(guided backprop) {guided:.4f}")
        return errors

    def check_occlusion(self, spec, weights, x, label, occ, rng):
        """Occlusion map values at grid points == score drop, recomputed."""
        def score(img):
            return float(self.camlab.forward(spec, weights, img)[0][label])

        base = score(x)
        fill = x.mean(axis=(1, 2))
        half = self.PATCH // 2
        grid = np.arange(0, SIDE, self.STRIDE)
        errors = []
        for _ in range(self.POINTS):
            i, j = (int(v) for v in rng.choice(grid, 2))
            masked = x.copy()
            rows, cols = slice(max(0, i - half), i + half + 1), slice(max(0, j - half), j + half + 1)
            masked[:, rows, cols] = fill[:, None, None]
            want = base - score(masked)
            if abs(occ[i, j] - want) > 1e-5 * max(1.0, abs(base)):
                errors.append(f"faithfulness: occlusion at ({i},{j}) is {occ[i, j]:.6f}, "
                              f"masking the patch gives {want:.6f}")
        return errors


WORKLOADS = {"train": Train, "explain": Explain, "faithfulness": Faithfulness}
