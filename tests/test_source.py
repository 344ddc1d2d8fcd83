"""Checks on the source text of the package, its tests and its demos."""

import ast
import importlib
import inspect
import json
import pathlib
import pkgutil
import re

import camlab
from camlab import autodiff, cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _redefined(tree):
    """(line, name) of each module-level def or class whose name an earlier
    one at module level already took; the later one silently replaces it."""
    seen, again = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in seen:
                again.append((node.lineno, node.name))
            seen.add(node.name)
    return again


def test_no_module_level_def_or_class_is_defined_twice():
    paths = sorted(path for top in ("src/camlab", "tests", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    found = {str(path.relative_to(ROOT)): _redefined(ast.parse(path.read_text()))
             for path in paths}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan sees each kind of redefinition, decorated or not, and no
    # other binding of the name
    assert _redefined(ast.parse("def f(): pass\nclass C: pass\n@g\ndef f(): pass\n"
                                "class C: pass\nf = 1\ndef h(): pass\n")) == [(4, "f"), (5, "C")]


# what a per-layer metric measures of the code it names, see perfbench/tracing.py
STATS = ("calls", "ms", "us", "self_ms", "self_us", "gflop")


def _traced_names():
    """The names the per-layer tracer gives camlab's code: each module, each
    public function defined in it as module.function, and each public
    method of a public class that is not an exception as module.Class.method."""
    names = set()
    for info in pkgutil.iter_modules(camlab.__path__):
        mod = importlib.import_module(f"camlab.{info.name}")
        names.add(info.name)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                names.add(f"{info.name}.{attr}")
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                names.update(f"{info.name}.{attr}.{m}" for m, raw in vars(obj).items()
                             if not m.startswith("_") and (inspect.isfunction(raw) or isinstance(
                                 raw, (classmethod, staticmethod))))
    return names


def _unnamed(metrics, names, layers):
    """The metrics that name no code: each must read `<name>.<stat>`, or
    `<function>.<layer>.<stat>` with a layer of a fixture spec."""
    def names_code(metric):
        base, _, stat = metric.rpartition(".")
        fn, _, layer = base.rpartition(".")
        return stat in STATS and (base in names or ("." in fn and fn in names
                                                    and layer in layers))
    return [m for m in metrics if not names_code(m)]


def test_every_per_layer_metric_names_code():
    """A function that moves or is renamed would read 0 in the benchmark."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["per_layer"] if not m["name"].startswith("trace.")]
    assert len(metrics) > 30
    names = _traced_names()
    layers = {layer.name for spec in (camlab.fix_gap_spec(), camlab.fix_fc_spec())
              for layer in spec.layers}
    assert _unnamed(metrics, names, layers) == []
    # a private, missing or misspelt name, an unknown layer or stat is refused
    bad = ["nn._tape.us", "nn.run_layers.us", "ops.conv2d.c9.us", "ops.conv2d.c1.mean",
           "nn.WeightStore.params.us", "nn.SpecError.us", "evaluation.c1.us", "imaging"]
    assert _unnamed(bad + ["ops.self_ms", "ops.dense.fc1.us"], names, layers) == bad


def test_every_camlab_error_is_a_cli_domain_error():
    """An error class that `cli.DOMAIN_ERRORS` leaves out ends in a
    traceback.  Only `autodiff.SeedError` is left out: it marks misuse of
    the API, and the CLI builds every cotangent itself."""
    errors = {obj for info in pkgutil.iter_modules(camlab.__path__)
              for obj in vars(importlib.import_module(f"camlab.{info.name}")).values()
              if inspect.isclass(obj) and issubclass(obj, BaseException)
              and obj.__module__.startswith("camlab.")}
    assert len(errors) > 10
    assert errors - set(cli.DOMAIN_ERRORS) == {autodiff.SeedError}


def _resolves(name):
    """Whether a dotted name, led by camlab or one of its modules, names
    an attribute through getattr."""
    head, *rest = name.split(".")
    obj = camlab if head == "camlab" else importlib.import_module(f"camlab.{head}")
    try:
        for part in rest:
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return True


def test_every_camlab_name_in_the_readme_resolves():
    """A README that names a deleted or renamed function sends its reader
    looking for nothing."""
    modules = {info.name for info in pkgutil.iter_modules(camlab.__path__)} | {"camlab"}
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`",
                                         (ROOT / "README.md").read_text())
             if name.split(".")[0] in modules}
    assert len(names) >= 20
    assert sorted(name for name in names if not _resolves(name)) == []
    assert not _resolves("explain.no_such_name")
