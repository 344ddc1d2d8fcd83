"""Per-module spans for camlab, recorded from outside the program.

`Tracer.install` wraps every public function and method of every camlab
module and rebinds each wrapper at every name the original is bound to
(``nn`` binds ``backward_from_cotangent``, ``explain`` binds ``backward``,
``fixtures`` binds the imaging readers, ...).  Each call appends one span
to an in-memory list; the runner takes the list after every item and
folds it into per-(function, layer) totals.

A span is a list ``[name, tag, start_ns, end_ns, parent, child_ns, flop]``.
Its self time is its duration minus ``child_ns``, the summed duration of
its direct children; in one thread, children nest inside their parent and
do not overlap, so that sum is the part of the parent's interval they
cover.
"""

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

from checks import out_shape

NAME, TAG, START, END, PARENT, CHILD_NS, FLOP = range(7)


class Tracer:
    def __init__(self, package, tagger=None):
        self.package = package
        self.tagger = tagger
        self.spans = []
        self.names = set()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tag_of = self.tagger.rule(name) if self.tagger else None
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag, flop = tag_of(args, kwargs) if tag_of else (None, 0)
            parent = stack[-1] if stack else None
            span = [name, tag, 0, 0, parent, 0, flop]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_NS] += end - span[START]
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = self.package
        modules = [importlib.import_module(f"{pkg.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in modules + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _wrap_methods(self, cls, qualname):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded since the last call, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _shape(a):
    return tuple(np.shape(a))


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# ops function -> (layer kind, key of its operand shapes)
_OPS_KEYS = {
    "ops.conv2d": lambda a, k: ("conv", _shape(_arg(a, k, 0, "x")),
                                _shape(_arg(a, k, 1, "kernels"))),
    "ops.conv2d_input_grad": lambda a, k: ("conv", tuple(_arg(a, k, 1, "x_shape")),
                                           _shape(_arg(a, k, 2, "kernels"))),
    "ops.conv2d_param_grad": lambda a, k: ("conv", _shape(_arg(a, k, 1, "x")),
                                           tuple(_arg(a, k, 2, "kernel_shape"))),
    "ops.relu": lambda a, k: ("relu", _shape(_arg(a, k, 0, "x"))),
    "ops.maxpool2d": lambda a, k: ("maxpool", _shape(_arg(a, k, 0, "x"))),
    "ops.maxpool2d_grad": lambda a, k: ("maxpool", tuple(_arg(a, k, 2, "x_shape"))),
    "ops.global_avg_pool": lambda a, k: ("gap", _shape(_arg(a, k, 0, "x"))),
    "ops.dense": lambda a, k: ("dense", _shape(_arg(a, k, 0, "x")),
                               _shape(_arg(a, k, 1, "weights"))),
}


class ShapeTagger:
    """Names the spec layer an ops call serves, from its operand shapes.

    Built from layer plans (see `checks.parse_spec`).  A conv call is keyed
    by its input and kernel shapes, a dense call by its input and weight
    shapes, the others by their input shape.  The flop count of a tagged
    conv or dense call is 2 x its multiply-adds, the same for the forward
    and for either gradient.
    """

    def __init__(self, plans):
        self.table = {}
        for plan in plans:
            for name, kind, p, in_shape in plan:
                key, flop = self._key(kind, p, in_shape)
                if key is None:
                    continue
                if self.table.get(key, (name,))[0] != name:
                    raise ValueError(f"layers {self.table[key][0]!r} and {name!r} "
                                     f"have the same operand shapes {key}")
                self.table[key] = (name, flop)

    @staticmethod
    def _key(kind, p, in_shape):
        if kind == "conv":
            kernel = (p["filters"], in_shape[0], p["kernel"], p["kernel"])
            out = out_shape(kind, p, in_shape)
            return ("conv", in_shape, kernel), 2 * int(np.prod(kernel)) * out[1] * out[2]
        if kind == "dense":
            return ("dense", in_shape, (p["units"], in_shape[0])), 2 * p["units"] * in_shape[0]
        if kind in ("relu", "maxpool", "gap"):
            return (kind, in_shape), 0
        return None, 0

    def rule(self, name):
        """(args, kwargs) -> (layer or None, flop) for an ops function, else None."""
        key_of = _OPS_KEYS.get(name)
        if key_of is None:
            return None
        table = self.table

        def tag(args, kwargs):
            return table.get(key_of(args, kwargs), (None, 0))
        return tag


# ------------------------------------------------------------ aggregation


def accumulate(stats, spans):
    """Fold spans into stats[(name, tag)] = [calls, total_ns, self_ns, flop]."""
    for s in spans:
        row = stats.setdefault((s[NAME], s[TAG]), [0, 0, 0, 0])
        dur = s[END] - s[START]
        row[0] += 1
        row[1] += dur
        row[2] += dur - s[CHILD_NS]
        row[3] += s[FLOP]


def _rows(base, stats):
    names = {name for name, _ in stats}
    if base in names:
        return [r for (name, _), r in stats.items() if name == base]
    fn, _, tag = base.rpartition(".")
    if fn in names:
        return [r for (name, t), r in stats.items() if name == fn and t == tag]
    return [r for (name, _), r in stats.items() if name.startswith(base + ".")]


def known(metric, names):
    """Whether a per-layer metric names a traced function, layer or module."""
    base = metric.rsplit(".", 1)[0]
    return (base in names or base.rpartition(".")[0] in names
            or any(n.startswith(base + ".") for n in names))


def layer_metric(metric, stats, units):
    """Value of `<function>[.<layer>].<stat>` or `<module>.<stat>`.

    stat is calls (per unit), ms (per unit), us (per call), self_ms (per
    unit), self_us (per call) or gflop (per unit).  A unit is an item, or a
    set-up for the set-up functions.  A function never called reads 0.
    """
    base, stat = metric.rsplit(".", 1)
    calls, total, own, flop = (sum(col) for col in zip(*_rows(base, stats) or [[0] * 4]))
    per_call = (lambda ns: ns / calls / 1e3) if calls else (lambda ns: 0.0)
    return {
        "calls": calls / units,
        "ms": total / units / 1e6,
        "us": per_call(total),
        "self_ms": own / units / 1e6,
        "self_us": per_call(own),
        "gflop": flop / units / 1e9,
    }[stat]


def dump_spans(spans):
    """Spans as JSON-ready dicts, times in µs from the first span's start."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0][START] if spans else 0
    return [{"name": s[NAME], "tag": s[TAG], "parent": index.get(id(s[PARENT])),
             "start_us": (s[START] - t0) / 1e3, "dur_us": (s[END] - s[START]) / 1e3,
             "self_us": (s[END] - s[START] - s[CHILD_NS]) / 1e3}
            for s in spans]
