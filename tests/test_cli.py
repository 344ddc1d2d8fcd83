"""Command-line surface: exit codes, emitted files, reproducibility."""

import argparse
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import camlab
from camlab import autodiff, cli, explain, imaging, nn
from camlab.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end CLI workspace: dataset, specs, quick weights."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["make-dataset", "--out", str(data), "--n", "12",
                 "--side", "48", "--seed", "2"]) == 0

    gap_spec = camlab.fix_gap_spec()
    fc_spec = camlab.fix_fc_spec()
    nn.save_model_spec(gap_spec, root / "gap.spec")
    nn.save_model_spec(fc_spec, root / "fc.spec")

    train = camlab.fixtures.make_shapes_dataset(40, 48, rng_seed=1)
    gap_w = camlab.train_fixture(gap_spec, train, epochs=2,
                                 learning_rate=0.05, rng_seed=0)
    fc_w = camlab.train_fixture(fc_spec, train, epochs=2,
                                learning_rate=0.01, rng_seed=0)
    gap_w.save(root / "gap_w")
    fc_w.save(root / "fc_w")
    return root


def gap_args(ws):
    return ["--spec", str(ws / "gap.spec"), "--weights", str(ws / "gap_w")]


def fc_args(ws):
    return ["--spec", str(ws / "fc.spec"), "--weights", str(ws / "fc_w")]


def first_image(ws):
    return str(ws / "data" / "00000.pgm")


# ------------------------------------------------------------ exit codes

def test_unknown_method_is_usage_error(workspace):
    code = main(["explain", *gap_args(workspace),
                 "--image", first_image(workspace), "--category", "0",
                 "--method", "telepathy"])
    assert code == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_missing_image_is_domain_error(workspace):
    code = main(["explain", *gap_args(workspace),
                 "--image", str(workspace / "absent.pgm"),
                 "--category", "0", "--method", "gradcam",
                 "--out-heat", str(workspace / "x.fmap")])
    assert code == 3


def test_cam_on_fc_architecture_is_domain_error(workspace):
    code = main(["explain", *fc_args(workspace),
                 "--image", first_image(workspace), "--category", "0",
                 "--method", "cam",
                 "--out-heat", str(workspace / "cam.fmap")])
    assert code == 3


@pytest.mark.parametrize("spec_text,extra,message", [
    # conv without filters: a KeyError traceback before the spec schema
    ("img input shape=1x48x48\nc1 conv kernel=3\nr1 relu\ngap gap\n"
     "head dense units=3\n", [], "c1 conv: needs filters"),
    # an unknown checkpoint: an uncaught CheckpointError before
    (None, ["--layer", "nope"], "no checkpoint named 'nope'"),
])
def test_bad_spec_or_layer_is_named_domain_error(workspace, capsys, spec_text, extra,
                                                 message):
    args = gap_args(workspace)
    if spec_text is not None:
        (workspace / "bad.spec").write_text(spec_text, encoding="ascii")
        args[1] = str(workspace / "bad.spec")
    code = main(["explain", *args, "--image", first_image(workspace),
                 "--category", "0", "--method", "gradcam", *extra,
                 "--out-heat", str(workspace / "bad.fmap")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["explain", "--category", "5"], 3),
    (["explain", "--category", "-1"], 3),    # explained category 2 before
    (["explain", "--category", "5", "--score", "post"], 3),
    (["attack", "--target", "5"], 3),
    (["attack", "--target", "-1"], 3),       # attacked category 2 before
    (["explain", "--top-k", "0"], 2),        # wrote nothing and exited 0 before
    (["explain", "--top-k", "-1"], 2),       # explained 2 of the 3 categories before
])
def test_bad_category_or_top_k_is_rejected(workspace, tmp_path, capsys, argv, code):
    rest = (["--method", "gradcam", "--out-heat", str(tmp_path / "h.fmap")]
            if argv[0] == "explain" else ["--epsilon", "0.1", "--out", str(tmp_path / "a.pgm")])
    assert main([argv[0], *gap_args(workspace), "--image", first_image(workspace),
                 *argv[1:], *rest]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert err == f"error: category {argv[2]} out of range for 3 categories\n"


@pytest.mark.parametrize("argv", [["localize"], ["point"],
                                  ["faithfulness", "--methods", "gradcam"]])
def test_empty_split_is_protocol_error(workspace, tmp_path, capsys, argv):
    camlab.fixtures.save_dataset([], tmp_path / "empty")
    assert main([argv[0], *gap_args(workspace), "--data", str(tmp_path / "empty"),
                 *argv[1:], "--report", str(tmp_path / "r.txt")]) == 3
    assert capsys.readouterr().err == "error: the split has no examples\n"


def _no_conv_model(ws, tmp):
    spec = nn.parse_model_spec("img input shape=1x48x48\nfl flatten\nhead dense units=3\n")
    nn.save_model_spec(spec, tmp / "flat.spec")
    nn.init_weights(spec).save(tmp / "flat_w")
    return ["--spec", str(tmp / "flat.spec"), "--weights", str(tmp / "flat_w")]


def _negative_offset_weights(ws, tmp):
    manifest = (ws / "gap_w.manifest").read_text().replace(" 0\n", " -4\n", 1)
    (tmp / "neg_w.manifest").write_text(manifest)
    (tmp / "neg_w.bin").write_bytes((ws / "gap_w.bin").read_bytes())
    return ["--spec", str(ws / "gap.spec"), "--weights", str(tmp / "neg_w")]


def _non_finite_weights(ws, tmp, layer, value):
    weights = nn.WeightStore.load(ws / "gap_w")
    weights.params[layer]["weights"].flat[3] = value
    weights.save(tmp / "bad_w")
    return ["--spec", str(ws / "gap.spec"), "--weights", str(tmp / "bad_w")]


def _two_category_spec(ws, tmp):
    nn.save_model_spec(camlab.fix_gap_spec(categories=2), tmp / "two.spec")
    return str(tmp / "two.spec")


def _bad_index(ws, tmp):
    camlab.fixtures.save_dataset([], tmp / "bad")
    (tmp / "bad" / "index.txt").write_text("00000 0 5 5 1 1 00000_mask.pgm\n")
    return str(tmp / "bad")


def _label_7_split(ws, tmp):
    examples = camlab.fixtures.make_shapes_dataset(2, 48, 0)
    examples[0].objects = (examples[0].objects[0]._replace(label=7),)
    camlab.fixtures.save_dataset(examples, tmp / "l7")
    return str(tmp / "l7")


def _repeated_category_split(ws, tmp):
    examples = camlab.fixtures.make_shapes_dataset(2, 48, 3, two_object_fraction=1.0)
    first, second = examples[1].objects
    examples[1].objects = (first, second._replace(label=first.label))
    camlab.fixtures.save_dataset(examples, tmp / "rc")
    return str(tmp / "rc")


def _overlapping_weights(ws, tmp):
    manifest = (ws / "gap_w.manifest").read_text().replace("c1 bias 6 600", "c1 bias 6 0")
    (tmp / "ov_w.manifest").write_text(manifest)
    (tmp / "ov_w.bin").write_bytes((ws / "gap_w.bin").read_bytes())
    return ["--spec", str(ws / "gap.spec"), "--weights", str(tmp / "ov_w")]


def _non_ascii(tmp, name):
    (tmp / name).parent.mkdir(exist_ok=True)
    (tmp / name).write_bytes(b"img input shape=1x48x48\n\xff\n")
    return str(tmp / name)


def _mixed_shape_split(ws, tmp):
    # image 5 of six, in the second batch of four, is 32 x 32 among 48 x 48
    examples = camlab.fixtures.make_shapes_dataset(6, 48, 0)
    examples[5] = camlab.fixtures.make_shapes_dataset(1, 32, 0)[0]
    examples[5].image_id = "00005"
    camlab.fixtures.save_dataset(examples, tmp / "mixed")
    return str(tmp / "mixed")


MIXED_SHAPES = "image 5 of the split: shape (1, 32, 32) != spec input (1, 48, 48)"


def _small_image(ws, tmp):
    imaging.write_image(np.zeros((32, 32), np.uint8), tmp / "small.pgm")
    return str(tmp / "small.pgm")


def _empty_split(ws, tmp):
    camlab.fixtures.save_dataset([], tmp / "empty")
    return str(tmp / "empty")


def _moved_box(ws, tmp):
    camlab.fixtures.save_dataset(camlab.fixtures.make_shapes_dataset(2, 48, 0), tmp / "mb")
    index = tmp / "mb" / "index.txt"
    lines = index.read_text().splitlines()
    fields = lines[1].split()
    lines[1] = " ".join(fields[:2] + ["40", "40", "47", "47"] + fields[6:])
    index.write_text("\n".join(lines) + "\n")
    return str(tmp / "mb")


def _small_mask(ws, tmp):
    camlab.fixtures.save_dataset(camlab.fixtures.make_shapes_dataset(1, 48, 0), tmp / "m")
    imaging.write_image(np.zeros((20, 20), np.uint8), tmp / "m" / "00000_mask.pgm")
    return str(tmp / "m")


def _directory(tmp, name):
    (tmp / name).mkdir()
    return str(tmp / name)


# Each of these ended in exit 3 only because cli.DOMAIN_ERRORS held bare
# ValueError, which also turned internal bugs into exit 3; the
# faithfulness row counted every image twice and exited 0.
@pytest.mark.parametrize("argv,message", [
    (lambda ws, tmp: ["train", "--spec", str(ws / "gap.spec"), "--data", _empty_split(ws, tmp),
                      "--out", str(tmp / "w")], "dataset is empty"),
    (lambda ws, tmp: ["train", "--spec", _two_category_spec(ws, tmp), "--data",
                      str(ws / "data"), "--out", str(tmp / "w")],
     "out of range for 2 categories"),
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", _bad_index(ws, tmp),
                      "--report", str(tmp / "r.txt")], "index line 1"),
    (lambda ws, tmp: ["make-dataset", "--out", str(tmp / "d"), "--n", "2", "--side", "8"],
     "image side must be >= 16"),
    (lambda ws, tmp: ["occlude", *gap_args(ws), "--image", first_image(ws), "--category", "0",
                      "--patch", "4"], "patch must be odd"),
    (lambda ws, tmp: ["faithfulness", *gap_args(ws), "--data", str(ws / "data"),
                      "--methods", "gradcam", "--patch", "4", "--report", str(tmp / "r.txt")],
     "patch must be odd"),
    (lambda ws, tmp: ["faithfulness", *gap_args(ws), "--data", str(ws / "data"),
                      "--methods", "gradcam,backprop,gradcam", "--report", str(tmp / "r.txt")],
     "method 'gradcam' is named more than once"),
    (lambda ws, tmp: ["explain", *gap_args(ws), "--image", _small_image(ws, tmp),
                      "--category", "0", "--method", "gradcam"], "image shape (1, 32, 32)"),
    (lambda ws, tmp: ["explain", *_no_conv_model(ws, tmp), "--image", first_image(ws),
                      "--category", "0", "--method", "gradcam"], "no convolutional checkpoint"),
    (lambda ws, tmp: ["explain", *_negative_offset_weights(ws, tmp), "--image",
                      first_image(ws), "--category", "0", "--method", "gradcam"],
     "manifest line 1"),
    # a non-ASCII spec, manifest or index was a UnicodeDecodeError, a ValueError
    (lambda ws, tmp: ["explain", "--spec", _non_ascii(tmp, "x.spec"), "--weights",
                      str(ws / "gap_w"), "--image", first_image(ws), "--category", "0",
                      "--method", "gradcam"], "x.spec: byte 24 is not ASCII"),
    (lambda ws, tmp: ["explain", *gap_args(ws)[:3],
                      _non_ascii(tmp, "x.manifest").removesuffix(".manifest"),
                      "--image", first_image(ws), "--category", "0", "--method", "gradcam"],
     "x.manifest: byte 24 is not ASCII"),
    (lambda ws, tmp: ["point", *gap_args(ws), "--data",
                      _non_ascii(tmp, "d/index.txt").removesuffix("/index.txt"),
                      "--report", str(tmp / "r.txt")], "index.txt: byte 24 is not ASCII"),
    # ran to exit 0: a map of NaN, and boxes on the scale of a 20 x 20 mask
    (lambda ws, tmp: ["occlude", *gap_args(ws), "--image", first_image(ws), "--category", "0",
                      "--fill", "nan", "--out-heat", str(tmp / "h.fmap")],
     "fill must be finite, got nan"),
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", _small_mask(ws, tmp),
                      "--report", str(tmp / "r.txt")],
     "mask shape (20, 20) != image 00000 shape (48, 48)"),
    # ran to exit 0, scoring the maps against the moved box
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", _moved_box(ws, tmp),
                      "--report", str(tmp / "r.txt")],
     "index line 2: box 40 40 47 47 is not the tight box of 00001_mask.pgm"),
    # a directory, or a file where a directory belongs: tracebacks before
    (lambda ws, tmp: ["explain", "--spec", _directory(tmp, "s"), "--weights", str(ws / "gap_w"),
                      "--image", first_image(ws), "--category", "0", "--method", "gradcam"],
     "Is a directory"),
    (lambda ws, tmp: ["explain", *gap_args(ws)[:3],
                      _directory(tmp, "w.manifest").removesuffix(".manifest"),
                      "--image", first_image(ws), "--category", "0", "--method", "gradcam"],
     "Is a directory"),
    (lambda ws, tmp: ["explain", *gap_args(ws), "--image", _directory(tmp, "i.pgm"),
                      "--category", "0", "--method", "gradcam"], "Is a directory"),
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", first_image(ws),
                      "--report", str(tmp / "r.txt")], "Not a directory"),
    # outputs are opened without truncation; a directory is still refused
    (lambda ws, tmp: ["explain", *gap_args(ws), "--image", first_image(ws), "--category", "0",
                      "--method", "gradcam", "--out-heat", _directory(tmp, "h.fmap")],
     "Is a directory"),
    (lambda ws, tmp: ["point", *gap_args(ws), "--data", str(ws / "data"),
                      "--report", _directory(tmp, "report")], "Is a directory"),
    # ran to exit 0: a map of NaN, and an error rate of 1.0
    (lambda ws, tmp: ["explain", *_non_finite_weights(ws, tmp, "c2", np.inf), "--image",
                      first_image(ws), "--category", "0", "--method", "guided-backprop",
                      "--out-heat", str(tmp / "h.fmap")],
     "c2.weights holds 1 non-finite values"),
    (lambda ws, tmp: ["localize", *_non_finite_weights(ws, tmp, "head", np.nan), "--data",
                      str(ws / "data"), "--report", str(tmp / "r.txt")],
     "head.weights holds 1 non-finite values"),
    # ran to exit 0: a label outside the categories counted as a miss, and as
    # calibration maps of absent categories; the c1 bias read from c1.weights
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", _label_7_split(ws, tmp),
                      "--report", str(tmp / "r.txt")], "label 7 out of range for 3 categories"),
    (lambda ws, tmp: ["point", *gap_args(ws), "--data", str(ws / "data"), "--modified",
                      "--calibrate-split", _label_7_split(ws, tmp), "--report", str(tmp / "r.txt")],
     "label 7 out of range for 3 categories"),
    # ran to exit 0: the second mask replaced the first, so pointing at the
    # first object scored a miss
    (lambda ws, tmp: ["point", *gap_args(ws), "--data", _repeated_category_split(ws, tmp),
                      "--modified", "--calibrate-split", str(ws / "data"),
                      "--report", str(tmp / "r.txt")],
     "index line 4: image 00001 names category 2 on two object lines"),
    (lambda ws, tmp: ["explain", *_overlapping_weights(ws, tmp), "--image", first_image(ws),
                      "--category", "0", "--method", "gradcam"],
     "manifest line 2: c1.bias starts at byte 0"),
    # a split of mixed image shapes, refused before the first batch or step
    (lambda ws, tmp: ["localize", *gap_args(ws), "--data", _mixed_shape_split(ws, tmp),
                      "--report", str(tmp / "r.txt")], MIXED_SHAPES),
    (lambda ws, tmp: ["point", *gap_args(ws), "--data", _mixed_shape_split(ws, tmp),
                      "--report", str(tmp / "r.txt")], MIXED_SHAPES),
    (lambda ws, tmp: ["point", *gap_args(ws), "--data", _mixed_shape_split(ws, tmp),
                      "--modified", "--calibrate-split", str(ws / "data"),
                      "--report", str(tmp / "r.txt")], MIXED_SHAPES),
    (lambda ws, tmp: ["faithfulness", *gap_args(ws), "--data", _mixed_shape_split(ws, tmp),
                      "--methods", "gradcam", "--patch", "9", "--stride", "8",
                      "--report", str(tmp / "r.txt")], MIXED_SHAPES),
    (lambda ws, tmp: ["train", "--spec", str(ws / "gap.spec"), "--data",
                      _mixed_shape_split(ws, tmp), "--out", str(tmp / "w"), "--epochs", "1"],
     MIXED_SHAPES),
    # ran to exit 0 and wrote the r2 CAM map: CAM reads no other layer
    (lambda ws, tmp: ["explain", *gap_args(ws), "--image", first_image(ws), "--category", "0",
                      "--method", "cam", "--layer", "r1", "--out-heat", str(tmp / "r.txt")],
     "CAM reads layer 'r2', the maps that feed GAP, not 'r1'"),
    (lambda ws, tmp: ["explain", *gap_args(ws), "--image", first_image(ws), "--category", "0",
                      "--method", "cam", "--layer", "c1", "--out-heat", str(tmp / "r.txt")],
     "CAM reads layer 'r2', the maps that feed GAP, not 'c1'"),
    (lambda ws, tmp: ["faithfulness", *gap_args(ws), "--data", str(ws / "data"),
                      "--methods", "gradcam,cam", "--layer", "r1", "--patch", "9",
                      "--stride", "8", "--report", str(tmp / "r.txt")],
     "CAM reads layer 'r2', the maps that feed GAP, not 'r1'"),
])
def test_user_input_errors_are_named_domain_errors(workspace, tmp_path, capsys, argv, message):
    assert main(argv(workspace, tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.txt").exists()


def test_bad_fill_is_usage_error(workspace, capsys):
    assert main(["occlude", *gap_args(workspace), "--image", first_image(workspace),
                 "--category", "0", "--fill", "grey"]) == 2
    assert "expected a number or auto, got 'grey'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--steps", "-1"), ("--epsilon", "-0.1"),
                                        ("--epsilon", "nan"), ("--step-size", "nan")])
def test_negative_attack_budget_is_usage_error(workspace, tmp_path, capsys, flag, value):
    # --steps -1 reported a failed attack "after -1 steps"; --epsilon -0.1
    # ran 50 steps with an empty clipping box, --step-size nan 50 NaN steps
    argv = {"--epsilon": "0.1", flag: value}
    assert main(["attack", *gap_args(workspace), "--image", first_image(workspace),
                 "--target", "0", *(x for kv in argv.items() for x in kv),
                 "--out", str(tmp_path / "a.pgm")]) == 2
    assert f"must be at least 0, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "a.pgm").exists()


# Each of these exited 0 with a wrong or empty result: error rates of 1.0,
# the default patch in place of 0, an empty split, a NaN object fraction,
# untrained weights
@pytest.mark.parametrize("argv,message", [
    (["localize", "--threshold-frac", "-1"], "must be between 0 and 1, got -1.0"),
    (["localize", "--threshold-frac", "nan"], "must be between 0 and 1, got nan"),
    (["localize", "--iou", "2"], "must be between 0 and 1, got 2.0"),
    (["localize", "--iou", "nan"], "must be between 0 and 1, got nan"),
    (["occlude", "--patch", "0"], "must be at least 1, got 0"),
    (["make-dataset", "--n", "0"], "must be at least 1, got 0"),
    (["make-dataset", "--n", "-2"], "must be at least 1, got -2"),
    (["make-dataset", "--n", "2", "--two-object-frac", "nan"], "must be between 0 and 1, got nan"),
    (["train", "--epochs", "-1"], "must be at least 0, got -1"),
    # a bare ValueError traceback from the random generator
    (["make-dataset", "--n", "2", "--seed", "-1"], "must be at least 0, got -1"),
    (["train", "--seed", "-1"], "must be at least 0, got -1"),
    # NaN weights, saved with exit 0; a NaN image and "target probability nan"
    (["train", "--lr", "nan"], "must be at least 0, got nan"),
    (["attack", "--epsilon", "inf"], "must be finite, got inf"),
    (["attack", "--epsilon", "0.1", "--step-size", "inf"], "must be finite, got inf"),
    # zero patch or stride exited 3 with an OcclusionConfigError
    (["occlude", "--stride", "0"], "must be at least 1, got 0"),
    (["faithfulness", "--patch", "0"], "must be at least 1, got 0"),
    (["faithfulness", "--stride", "0"], "must be at least 1, got 0"),
])
def test_out_of_range_flag_is_usage_error(workspace, tmp_path, capsys, argv, message):
    ws, command = workspace, argv[0]
    rest = {"localize": [*gap_args(ws), "--data", str(ws / "data"),
                         "--report", str(tmp_path / "r.txt")],
            "occlude": [*gap_args(ws), "--image", first_image(ws), "--category", "0",
                        "--out-heat", str(tmp_path / "h.fmap")],
            "faithfulness": [*gap_args(ws), "--data", str(ws / "data"), "--methods", "gradcam",
                             "--report", str(tmp_path / "r.txt")],
            "make-dataset": ["--out", str(tmp_path / "d")],
            "train": ["--spec", str(ws / "gap.spec"), "--data", str(ws / "data"),
                      "--out", str(tmp_path / "w")],
            "attack": [*gap_args(ws), "--image", first_image(ws), "--target", "0",
                       "--out", str(tmp_path / "a.pgm")]}[command]
    assert main([command, *rest, *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_zero_epochs_stays_valid(workspace, tmp_path):
    # zero epochs save the initial weights, which the benchmark's SGD check uses
    assert main(["train", "--spec", str(workspace / "gap.spec"), "--data",
                 str(workspace / "data"), "--epochs", "0", "--out", str(tmp_path / "w")]) == 0
    assert nn.WeightStore.load(tmp_path / "w") == nn.init_weights(camlab.fix_gap_spec())


@pytest.mark.parametrize("argv", [[], ["telepathy"], ["--help"]])
def test_usage_and_help_list_every_command(capsys, argv):
    assert main(argv) == (0 if argv == ["--help"] else 2)
    out = capsys.readouterr()
    for name in cli.COMMANDS:
        assert name in out.out + out.err
    assert len(cli.COMMANDS) == 8


def _actions(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings, a.dest, a.default, a.required, a.choices, a.nargs, a.const,
             getattr(a.type, "__name__", a.type), a.help)
            for a in sub.choices[command]._actions]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_parser_is_the_same_alone_or_with_the_others(command):
    alone, full = cli.build_parser(command), cli.build_parser()
    sub = next(a for a in alone._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [command]
    assert _actions(alone, command) == _actions(full, command)
    assert alone.format_usage() == full.format_usage()


# raised only when camlab calls itself wrongly, never by a user's input
INTERNAL_ERRORS = {autodiff.SeedError}


def test_every_camlab_error_is_a_domain_error_or_internal():
    # an error class missing from DOMAIN_ERRORS ends in a traceback, not exit 3
    defined = set()
    for info in pkgutil.iter_modules(camlab.__path__):
        module = importlib.import_module(f"camlab.{info.name}")
        defined |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__}
    assert {error for error in defined if error not in cli.DOMAIN_ERRORS} == INTERNAL_ERRORS


def test_internal_value_error_is_not_a_domain_error(workspace, monkeypatch):
    def broken(*args):
        raise ValueError("a bug")
    monkeypatch.setitem(explain.METHODS, "gradcam", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["explain", *gap_args(workspace), "--image", first_image(workspace),
              "--category", "0", "--method", "gradcam"])


def test_modified_pointing_requires_calibration_split(workspace, capsys):
    code = main(["point", *gap_args(workspace),
                 "--data", str(workspace / "data"), "--modified",
                 "--report", str(workspace / "r.txt")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --modified and --calibrate-split must be given together\n")


def test_calibration_split_without_modified_is_usage_error(workspace, tmp_path, capsys):
    # was ignored: the plain pointing game ran and exited 0
    report = tmp_path / "r.txt"
    code = main(["point", *gap_args(workspace),
                 "--data", str(workspace / "data"),
                 "--calibrate-split", str(workspace / "data"),
                 "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --modified and --calibrate-split must be given together\n")
    assert not report.exists()


def test_failed_attack_is_domain_error(workspace, capsys):
    code = main(["attack", *fc_args(workspace),
                 "--image", first_image(workspace), "--target", "2",
                 "--epsilon", "0.0001", "--steps", "1",
                 "--out", str(workspace / "adv.pgm")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out.startswith("target_probability=")
    assert err.startswith("error: attack failed: target probability ")
    assert err.endswith(" < 0.99 after 1 steps (--steps)\n")


@pytest.mark.parametrize("lr,message", [
    # the loss stays finite but the weights do not: exit 0 and weights that
    # WeightStore.load refuses
    ("1e39", "error: non-finite weights at epoch 0: c1.weights holds 150 non-finite values"),
    ("1e30", "error: non-finite loss at epoch 1"),
])
def test_diverging_train_prints_only_its_error_line(workspace, tmp_path, lr, message):
    # numpy's RuntimeWarnings, each with its source line, came first
    camlab.fixtures.save_dataset(camlab.fixtures.make_shapes_dataset(1, 48, 0), tmp_path / "d")
    done = subprocess.run(
        [sys.executable, "-m", "camlab.cli", "train", "--spec", str(workspace / "gap.spec"),
         "--data", str(tmp_path / "d"), "--out", str(tmp_path / "w"), "--epochs", "2",
         "--lr", lr], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": _SRC})
    assert (done.returncode, done.stdout, done.stderr) == (3, "", message + "\n")
    assert not (tmp_path / "w.manifest").exists()


def test_unknown_faithfulness_method_is_domain_error(workspace):
    code = main(["faithfulness", *gap_args(workspace),
                 "--data", str(workspace / "data"),
                 "--methods", "gradcam,telepathy",
                 "--report", str(workspace / "f.txt")])
    assert code == 3


# --------------------------------------------------------- emitted files

def test_make_dataset_is_byte_reproducible(workspace, tmp_path):
    other = tmp_path / "again"
    assert main(["make-dataset", "--out", str(other), "--n", "12",
                 "--side", "48", "--seed", "2"]) == 0
    for name in ("index.txt", "00000.pgm", "00007_mask.pgm"):
        assert (other / name).read_bytes() \
            == (workspace / "data" / name).read_bytes()


def test_train_is_byte_reproducible(workspace, tmp_path):
    args = ["train", "--spec", str(workspace / "gap.spec"),
            "--data", str(workspace / "data"),
            "--epochs", "1", "--lr", "0.05", "--seed", "3"]
    assert main([*args, "--out", str(tmp_path / "w1")]) == 0
    assert main([*args, "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1.bin").read_bytes() \
        == (tmp_path / "w2.bin").read_bytes()
    assert (tmp_path / "w1.manifest").read_bytes() \
        == (tmp_path / "w2.manifest").read_bytes()


def test_explain_emits_fmap_matching_in_process_pipeline(workspace, tmp_path):
    heat_path = tmp_path / "h.fmap"
    png_path = tmp_path / "h.ppm"
    assert main(["explain", *gap_args(workspace),
                 "--image", first_image(workspace), "--category", "1",
                 "--method", "gradcam",
                 "--out-heat", str(heat_path),
                 "--out-png", str(png_path)]) == 0
    emitted = imaging.read_fmap(heat_path)

    spec = nn.load_model_spec(workspace / "gap.spec")
    weights = nn.WeightStore.load(workspace / "gap_w")
    image = imaging.image_to_tensor(imaging.read_image(first_image(workspace)))
    _, tape = camlab.forward(spec, weights, image)
    direct = explain.gradcam(tape, 1, explain.default_target_layer(spec))
    assert emitted.tobytes() == np.asarray(direct, np.float32).tobytes()
    assert png_path.exists()


def test_explain_is_byte_reproducible(workspace, tmp_path):
    args = ["explain", *gap_args(workspace),
            "--image", first_image(workspace), "--category", "0",
            "--method", "guided-gradcam"]
    a, b = tmp_path / "a.fmap", tmp_path / "b.fmap"
    assert main([*args, "--out-heat", str(a)]) == 0
    assert main([*args, "--out-heat", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_explain_top_k_emits_suffixed_files(workspace, tmp_path):
    out = tmp_path / "multi.fmap"
    assert main(["explain", *gap_args(workspace),
                 "--image", first_image(workspace), "--top-k", "3",
                 "--method", "gradcam", "--out-heat", str(out)]) == 0
    for cat in range(3):
        assert (tmp_path / f"multi.c{cat}.fmap").exists()
    assert not out.exists()


def test_top_k_suffix_goes_into_the_file_name(workspace, tmp_path):
    # the suffix went before the last dot of the path, here a directory's
    (tmp_path / "runs.v1").mkdir()
    assert main(["explain", *gap_args(workspace), "--image", first_image(workspace),
                 "--top-k", "3", "--method", "gradcam",
                 "--out-heat", str(tmp_path / "runs.v1" / "heat")]) == 0
    assert sorted(p.name for p in (tmp_path / "runs.v1").iterdir()) == [
        "heat.c0", "heat.c1", "heat.c2"]


def test_cam_with_the_layer_that_feeds_gap_named_writes_the_same_map(workspace, tmp_path):
    maps = []
    for extra in ([], ["--layer", "r2"]):
        out = tmp_path / f"cam{len(extra)}.fmap"
        assert main(["explain", *gap_args(workspace), "--image", first_image(workspace),
                     "--category", "0", "--method", "cam", "--out-heat", str(out), *extra]) == 0
        maps.append(out.read_bytes())
    assert maps[0] == maps[1]


def test_explain_flag_variants_run(workspace, tmp_path):
    for extra in (["--no-relu"], ["--abs-grads"], ["--pool", "max"],
                  ["--relu-policy", "guided"], ["--score", "post"],
                  ["--method", "counterfactual"],
                  ["--method", "deconv"], ["--method", "backprop"]):
        args = ["explain", *gap_args(workspace),
                "--image", first_image(workspace), "--category", "0",
                "--method", "gradcam",
                "--out-heat", str(tmp_path / "v.fmap")]
        if extra[0] == "--method":
            args[args.index("gradcam")] = extra[1]
            extra = []
        assert main([*args, *extra]) == 0


def test_occlude_emits_signed_fmap(workspace, tmp_path):
    out = tmp_path / "occ.fmap"
    assert main(["occlude", *gap_args(workspace),
                 "--image", first_image(workspace), "--category", "0",
                 "--patch", "9", "--stride", "6",
                 "--out-heat", str(out)]) == 0
    heat = imaging.read_fmap(out)
    assert heat.shape == (48, 48)


def test_localize_writes_report(workspace, tmp_path):
    report = tmp_path / "loc.txt"
    assert main(["localize", *gap_args(workspace),
                 "--data", str(workspace / "data"),
                 "--report", str(report)]) == 0
    text = report.read_text()
    assert "top1_localization_error=" in text
    assert "top5_localization_error=" in text
    assert "n_images=12" in text


def test_point_writes_report(workspace, tmp_path):
    report = tmp_path / "pt.txt"
    assert main(["point", *gap_args(workspace),
                 "--data", str(workspace / "data"),
                 "--report", str(report)]) == 0
    assert "pointing_accuracy=" in report.read_text()


def test_modified_point_writes_report(workspace, tmp_path):
    report = tmp_path / "mpt.txt"
    assert main(["point", *gap_args(workspace),
                 "--data", str(workspace / "data"), "--modified",
                 "--calibrate-split", str(workspace / "data"),
                 "--report", str(report)]) == 0
    text = report.read_text()
    assert "modified_pointing_accuracy=" in text
    assert "threshold=" in text


def test_faithfulness_writes_report(workspace, tmp_path):
    report = tmp_path / "faith.txt"
    assert main(["faithfulness", *gap_args(workspace),
                 "--data", str(workspace / "data"),
                 "--methods", "gradcam,guided-backprop",
                 "--patch", "9", "--stride", "8",
                 "--report", str(report)]) == 0
    text = report.read_text()
    assert "mean_rank_correlation.gradcam=" in text
    assert "mean_rank_correlation.guided-backprop=" in text


# each command line, as (workspace, output directory) -> argv, the weight
# checks it makes (one per split it reads, or one for its image) and its
# exit code
WEIGHT_CHECKS = {
    "explain": (lambda ws, out: [
        "explain", *gap_args(ws), "--image", first_image(ws), "--top-k", "2",
        "--method", "guided-gradcam", "--out-heat", str(out / "h.fmap")], 1, 0),
    "occlude": (lambda ws, out: [
        "occlude", *gap_args(ws), "--image", first_image(ws), "--category", "1",
        "--patch", "9", "--stride", "8", "--out-heat", str(out / "o.fmap")], 1, 0),
    "localize": (lambda ws, out: [
        "localize", *gap_args(ws), "--data", str(ws / "data"),
        "--report", str(out / "r.txt")], 1, 0),
    "point": (lambda ws, out: [
        "point", *gap_args(ws), "--data", str(ws / "data"), "--report", str(out / "r.txt")],
        1, 0),
    "point --modified": (lambda ws, out: [
        "point", *gap_args(ws), "--data", str(ws / "data"), "--modified",
        "--calibrate-split", str(ws / "data"), "--report", str(out / "r.txt")], 2, 0),
    "faithfulness": (lambda ws, out: [
        "faithfulness", *gap_args(ws), "--data", str(ws / "data"), "--methods",
        "gradcam,backprop", "--patch", "9", "--stride", "8", "--report", str(out / "r.txt")],
        1, 0),
    # a budget too small to succeed: all 5 steps run, and exit 3
    "attack": (lambda ws, out: [
        "attack", *fc_args(ws), "--image", first_image(ws), "--target", "2",
        "--epsilon", "0.0001", "--steps", "5", "--out", str(out / "a.pgm")], 1, 3),
}


@pytest.mark.parametrize("command", list(WEIGHT_CHECKS))
def test_a_command_checks_the_weights_once_per_split(workspace, tmp_path, monkeypatch,
                                                     command):
    # the forward or protocol that reads the weights checks them
    checked = []
    check_against = nn.WeightStore.check_against
    monkeypatch.setattr(nn.WeightStore, "check_against",
                        lambda self, s: checked.append(s) or check_against(self, s))
    argv, checks, code = WEIGHT_CHECKS[command]
    assert main(argv(workspace, tmp_path)) == code
    assert len(checked) == checks


def _point_cli(ws, report, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "camlab.cli", "point", *gap_args(ws),
         "--data", str(ws / "data"), "--report", report],
        check=True, timeout=300, env={**os.environ, "PYTHONPATH": _SRC}, **kwargs)


@pytest.mark.parametrize("into", ["file", "pipe"])
def test_report_path_naming_stdout_keeps_report_then_summary(workspace, tmp_path, into):
    # into a file, the summary was printed at offset 0 over the report
    report = tmp_path / "pt.txt"
    summary = _point_cli(workspace, str(report), capture_output=True).stdout
    want = report.read_bytes() + summary
    if into == "file":
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            _point_cli(workspace, "/dev/stdout", stdout=fh)
        assert out.read_bytes() == want
    else:
        assert _point_cli(workspace, "/dev/stdout", capture_output=True).stdout == want


def test_faithfulness_with_no_defined_rho_reports_nan_without_warning(
        workspace, tmp_path):
    # a constant image has a constant occlusion map, so every rho is undefined
    ex = camlab.fixtures.make_shapes_dataset(1, 48, rng_seed=4)[0]
    ex = dataclasses.replace(ex, image=np.full_like(ex.image, 0.5))
    camlab.fixtures.save_dataset([ex], tmp_path / "const")
    report = tmp_path / "faith.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["faithfulness", *gap_args(workspace),
                     "--data", str(tmp_path / "const"),
                     "--methods", "gradcam,backprop",
                     "--report", str(report)]) == 0
    assert report.read_text().splitlines() == [
        "mean_rank_correlation.backprop=nan",
        "mean_rank_correlation.gradcam=nan",
        "n_defined.backprop=0",
        "n_defined.gradcam=0",
    ]


# ------------------------------------------------------ no scipy in camlab

_SRC = os.path.dirname(os.path.dirname(camlab.__file__))


def _fresh(body, *args):
    """Run `body` in a new interpreter importing camlab from this tree; return
    its stdout lines, the last one whether scipy was imported."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\nprint('scipy' in sys.modules)", *args],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": _SRC})
    return done.stdout.splitlines()


_MAIN = "from camlab import cli\nprint('exit', cli.main(sys.argv[1:]))"


@pytest.mark.parametrize("module", ["camlab", "camlab.cli"])
def test_import_does_not_load_scipy(module):
    assert _fresh(f"import {module}") == ["False"]


def _run_argv(command, ws, out):
    """(argv, exit code) of a run of `command`."""
    data = str(ws / "data")
    image = ["--image", first_image(ws)]
    return {
        "localize": ([*gap_args(ws), "--data", data, "--report", str(out / "l.txt")], 0),
        "make-dataset": (["--out", str(out / "d"), "--n", "2"], 0),
        "train": (["--spec", str(ws / "gap.spec"), "--data", data,
                   "--out", str(out / "w"), "--epochs", "1"], 0),
        "explain": ([*gap_args(ws), *image, "--top-k", "2", "--method", "guided-gradcam",
                     "--out-heat", str(out / "h.fmap"), "--out-png", str(out / "h.ppm")], 0),
        "occlude": ([*gap_args(ws), *image, "--category", "0", "--patch", "9",
                     "--stride", "6", "--out-png", str(out / "o.ppm")], 0),
        "point": ([*gap_args(ws), "--data", data, "--modified", "--calibrate-split", data,
                   "--report", str(out / "p.txt")], 0),
        "faithfulness": ([*gap_args(ws), "--data", data, "--methods", "gradcam,guided-gradcam",
                          "--patch", "9", "--stride", "8", "--report", str(out / "f.txt")], 0),
        # a budget too small to succeed: exit 3 after the full attack
        "attack": ([*fc_args(ws), *image, "--target", "2", "--epsilon", "0.0001",
                    "--steps", "1", "--out", str(out / "a.pgm")], 3),
    }[command]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_no_command_loads_scipy(workspace, tmp_path, command):
    argv, code = _run_argv(command, workspace, tmp_path)
    lines = _fresh(_MAIN, command, *argv)
    assert lines[-2:] == [f"exit {code}", "False"]

