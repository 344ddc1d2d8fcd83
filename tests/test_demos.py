"""Each demo runs end to end on the current API.

Training is replaced by the untrained initial weights, so a demo takes
about a second; what is checked is that it runs and writes its outputs,
not what the maps show.
"""

import importlib.util
import os

import pytest

import camlab
from camlab import nn

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name,outputs", [
    ("quickstart", ["quickstart_out/input.pgm", "quickstart_out/heat.fmap",
                    "quickstart_out/overlay.ppm"]),
    ("method_comparison", []),
    ("counterfactual_two_objects", ["counterfactual_out/00000_counterfactual.ppm"]),
])
def test_demo_runs(name, outputs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(camlab, "train_fixture",
                        lambda spec, train, **kwargs: nn.init_weights(spec))
    module_spec = importlib.util.spec_from_file_location(
        name, os.path.join(DEMOS, f"{name}.py"))
    demo = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out
    for path in outputs:
        assert (tmp_path / path).stat().st_size > 0
