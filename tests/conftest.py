"""Shared fixtures: datasets and trained models, built once per session.

Everything is deterministic: dataset seeds 1/2/3 and training seeds are
pinned, so all downstream metrics are exactly reproducible.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

import camlab
from camlab import fixtures

# Property tests draw the same examples on every run and have no per-example
# deadline, so they neither change between runs nor fail on a slow host.
settings.register_profile("camlab", derandomize=True, deadline=None)
settings.load_profile("camlab")

IMAGE_SIDE = 48

GAP_TRAIN = dict(epochs=30, learning_rate=0.05, rng_seed=0)
FC_TRAIN = dict(epochs=30, learning_rate=0.01, rng_seed=1)


@pytest.fixture(scope="session")
def train_set():
    return fixtures.make_shapes_dataset(400, IMAGE_SIDE, rng_seed=1)


@pytest.fixture(scope="session")
def test_set():
    return fixtures.make_shapes_dataset(200, IMAGE_SIDE, rng_seed=2)


@pytest.fixture(scope="session")
def two_object_set():
    return fixtures.make_shapes_dataset(80, IMAGE_SIDE, rng_seed=3,
                                        two_object_fraction=1.0)


@pytest.fixture(scope="session")
def gap_spec():
    return camlab.fix_gap_spec()


@pytest.fixture(scope="session")
def fc_spec():
    return camlab.fix_fc_spec()


@pytest.fixture(scope="session")
def gap_weights(gap_spec, train_set):
    return camlab.train_fixture(gap_spec, train_set, **GAP_TRAIN)


@pytest.fixture(scope="session")
def fc_weights(fc_spec, train_set):
    return camlab.train_fixture(fc_spec, train_set, **FC_TRAIN)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def traced_peak():
    """peak(f): the most bytes that f() held at once, as tracemalloc counts
    them; numpy reports its arrays' buffers to tracemalloc."""
    def peak(f):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
    return peak
