"""Tests of the benchmark's own arithmetic: self time, layer tags, tail,
host speed scaling.

    python3 -m pytest perfbench
"""

import random

import numpy as np
import pytest

import checks
import hostspeed
import run
import tracing

camlab = run.load_program()


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(it))


def test_self_time_excludes_direct_children_only(monkeypatch):
    # outer [0, 100] holds mid [10, 60], which holds leaf [20, 50];
    # outer also holds a second leaf [70, 75].
    _fake_clock(monkeypatch, [0, 10, 20, 50, 60, 70, 75, 100])
    tracer = tracing.Tracer(None)
    leaf = tracer._wrap("m.leaf", lambda: None)
    mid = tracer._wrap("m.mid", lambda: leaf())

    def body():
        mid()
        leaf()
    outer = tracer._wrap("m.outer", body)
    outer()
    stats = {}
    tracing.accumulate(stats, tracer.take())
    assert stats[("m.outer", None)] == [1, 100, 100 - 50 - 5, 0]
    assert stats[("m.mid", None)] == [1, 50, 50 - 30, 0]
    assert stats[("m.leaf", None)] == [2, 35, 35, 0]
    assert tracing.layer_metric("m.outer.self_ms", stats, 1) == 45 / 1e6
    assert tracing.layer_metric("m.leaf.us", stats, 1) == 17.5 / 1e3
    assert tracing.layer_metric("m.leaf.calls", stats, 2) == 1.0
    # the module sums its functions' self time: the whole outer interval
    assert tracing.layer_metric("m.self_ms", stats, 1) == 100 / 1e6


def test_self_time_survives_an_exception(monkeypatch):
    _fake_clock(monkeypatch, [0, 5, 9, 20])
    tracer = tracing.Tracer(None)

    def fail():
        raise KeyError("x")
    inner = tracer._wrap("m.inner", fail)

    def body():
        with pytest.raises(KeyError):
            inner()
    tracer._wrap("m.outer", body)()
    stats = {}
    tracing.accumulate(stats, tracer.take())
    assert stats[("m.outer", None)][2] == 20 - 4
    assert stats[("m.inner", None)][:3] == [1, 4, 4]


def test_unknown_or_uncalled_metrics_read_zero():
    stats = {("ops.conv2d", "c1"): [2, 4000, 3000, 10]}
    assert tracing.layer_metric("ops.conv2d.c2.us", stats, 1) == 0.0
    assert tracing.layer_metric("ops.conv2d_param_grad.c1.calls", stats, 1) == 0.0
    assert tracing.layer_metric("ops.conv2d.c1.us", stats, 1) == 2.0
    assert tracing.layer_metric("ops.gflop", stats, 2) == 5 / 1e9


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = tmp_path_factory.mktemp("specs")
    plans = {}
    for name, build in (("gap", camlab.fix_gap_spec), ("fc", camlab.fix_fc_spec)):
        camlab.save_model_spec(build(), out / f"{name}.spec")
        plans[name] = checks.parse_spec(out / f"{name}.spec")
    return plans


def test_ops_calls_are_tagged_by_operand_shapes(plans):
    tagger = tracing.ShapeTagger(plans.values())
    z = np.zeros

    def tag(name, *args):
        return tagger.rule(name)(args, {})

    conv1 = 2 * 6 * 1 * 5 * 5 * 24 * 24
    conv2 = 2 * 12 * 6 * 5 * 5 * 24 * 24
    assert tag("ops.conv2d", z((1, 48, 48)), z((6, 1, 5, 5)), z(6), 2, 2) == ("c1", conv1)
    assert tag("ops.conv2d", z((6, 24, 24)), z((12, 6, 5, 5)), z(12), 1, 2) == ("c2", conv2)
    assert tag("ops.conv2d_input_grad", z((6, 24, 24)), (1, 48, 48), z((6, 1, 5, 5))) == ("c1", conv1)
    assert tag("ops.conv2d_param_grad", z((12, 24, 24)), z((6, 24, 24)), (12, 6, 5, 5)) == ("c2", conv2)
    assert tag("ops.relu", z((6, 24, 24))) == ("r1", 0)
    assert tag("ops.relu", z(32)) == ("r3", 0)
    assert tag("ops.maxpool2d", z((12, 24, 24)), 2, 2) == ("p2", 0)
    assert tag("ops.maxpool2d_grad", z((12, 12, 12)), z((12, 12, 12)), (12, 24, 24)) == ("p2", 0)
    assert tag("ops.global_avg_pool", z((12, 24, 24))) == ("gap", 0)
    assert tag("ops.dense", z(1728), z((32, 1728)), z(32)) == ("fc1", 2 * 32 * 1728)
    assert tag("ops.dense", z(12), z((3, 12)), z(3)) == ("head", 2 * 3 * 12)
    assert tag("ops.dense", z(32), z((3, 32)), z(3)) == ("head", 2 * 3 * 32)
    assert tag("ops.dense", z(7), z((3, 7)), z(3)) == (None, 0)
    assert tagger.rule("nn.forward") is None


def test_layers_with_equal_shapes_and_different_names_are_refused(plans):
    renamed = [(("k1" if n == "c1" else n), kind, p, s) for n, kind, p, s in plans["gap"]]
    with pytest.raises(ValueError, match="same operand shapes"):
        tracing.ShapeTagger([plans["gap"], renamed])


def test_install_rebinds_every_name_and_uninstall_restores(plans):
    original = camlab.nn.backward_from_cotangent
    tracer = tracing.Tracer(camlab, tracing.ShapeTagger(plans.values()))
    tracer.install()
    try:
        assert camlab.nn.backward_from_cotangent is camlab.autodiff.backward_from_cotangent
        assert camlab.nn.backward_from_cotangent is not original
        assert camlab.explain.bilinear_resize is camlab.imaging.bilinear_resize
        spec = camlab.fix_fc_spec()
        weights = camlab.nn.init_weights(spec, 0)
        camlab.forward(spec, weights, np.zeros((1, 48, 48), np.float32))
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert camlab.nn.backward_from_cotangent is original
    tags = [(s[tracing.NAME], s[tracing.TAG]) for s in spans if s[tracing.NAME].startswith("ops.")]
    assert tags == [("ops.conv2d", "c1"), ("ops.relu", "r1"), ("ops.conv2d", "c2"),
                    ("ops.relu", "r2"), ("ops.maxpool2d", "p2"), ("ops.dense", "fc1"),
                    ("ops.relu", "r3"), ("ops.dense", "head")]
    assert {"nn.forward", "nn.WeightStore.check_against"} <= {s[tracing.NAME] for s in spans}


@pytest.mark.parametrize("n, value, percentile", [(40, 29, 75.0), (100, 89, 90.0),
                                                  (1000, 989, 99.0)])
def test_tail_is_the_highest_order_statistic_with_ten_items_beyond(n, value, percentile):
    times = list(range(n))
    random.Random(n).shuffle(times)
    got, pct = run.item_tail(times)
    assert (got, pct) == (value, percentile)
    assert sum(t > got for t in times) == 10


def test_fewer_than_forty_items_have_no_tail():
    with pytest.raises(ValueError):
        run.item_tail(list(range(39)))


def test_host_speed_scales_by_the_passes_on_either_side():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed()
    speed.samples = [ref * k for k in range(1, 11)]     # host slowing down
    # a measurement at mark m lies between samples m-1 and m
    assert hostspeed.WINDOW == 1
    assert speed.scale(5) == pytest.approx(1 / 5.5)     # samples 5 and 6
    assert speed.scale(0) == pytest.approx(1 / 1)       # only the one after
    assert speed.scale(10) == pytest.approx(1 / 10)     # only the one before
    assert speed.scaled([(2.0, 5), (3.0, 0)]) == pytest.approx([2.0 / 5.5, 3.0])
    assert speed.factors() == pytest.approx([1 / q for q in (8.25, 5.5, 2.75)], abs=1e-4)
