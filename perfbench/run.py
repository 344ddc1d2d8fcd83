"""camlab benchmark: train, explain and faithfulness through the CLI.

    python3 perfbench/run.py --workload explain --seed 3 --seconds 30 --trace 0

Run from the repository root.  One process, one thread: BLAS is pinned to
one thread before numpy loads, and every operation is a ``camlab.cli.main``
call in this process.  A run sets the workload up, runs one untimed
warm-up round, then times whole rounds of items until --seconds have
passed and at least 40 items ran (setup_s is the median of set-ups timed
before and between rounds), and finally checks the outputs.  Every item
and set-up time is scaled to the nominal host by the reference passes
timed between them (see hostspeed.py).  With --trace 1, rounds alternate
between untraced and traced (every camlab function wrapped, see
tracing.py), and the per-layer metrics of BENCHMARK.json are reported
instead of the end-to-end ones.

Standard output ends with an environment line and then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

SETUPS = 40         # set-ups per run, spread over it; setup_s is their median
MIN_ITEMS = 40      # the tail needs ten items beyond it
TAIL_BEYOND = 10
# Functions that run only while the inputs are made; their per-layer
# metrics are per set-up rather than per item.
SETUP_LAYERS = ("fixtures.make_shapes_dataset", "fixtures.save_dataset")


def item_tail(times, beyond=TAIL_BEYOND, min_count=MIN_ITEMS):
    """(value, percentile) of the highest order statistic that has at least
    `beyond` items above it.  Fewer than `min_count` items have no tail."""
    if len(times) < min_count:
        raise ValueError(f"{len(times)} items have no tail; need {min_count}")
    k = len(times) - beyond - 1
    return sorted(times)[k], 100.0 * (k + 1) / len(times)


class Runner:
    """Runs CLI invocations in-process and counts the timed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = self.failed = 0
        self.first_failure = self.last_failure = None
        self._sink = io.StringIO()

    def call(self, argv):
        """Exit code of `camlab <argv>`; an uncaught exception counts as 1."""
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            try:
                code = self.cli.main(argv)  # looked up per call, so tracing sees it
            except Exception:
                traceback.print_exc()
                code = 1
        if code != 0:
            self.last_failure = f"camlab {' '.join(argv)} -> {code}\n{self._sink.getvalue()}"
            self.first_failure = self.first_failure or self.last_failure
        return code

    def must(self, argv):
        if self.call(argv) != 0:
            raise RuntimeError(f"set-up or check operation failed: {self.last_failure}")

    def item(self, ops):
        for argv in ops:
            self.attempted += 1
            self.failed += self.call(argv) != 0

    def timed_round(self, items, tracer=None, stats=None):
        """Item times (s) of one round; with a tracer, fold its spans into stats."""
        times = []
        for ops in items:
            t0 = time.perf_counter()
            self.item(ops)
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                spans = tracer.take()
                stats.setdefault("first_item", spans)
                tracing.accumulate(stats["rows"], spans)
        return times

    def timed(self, items, seconds, between, speed):
        """[(item time, speed mark)] of whole rounds run until `seconds`
        and MIN_ITEMS, with a reference pass after every item.

        `between(elapsed)` runs before every round, untimed.
        """
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(times) < MIN_ITEMS:
            between(time.perf_counter() - start)
            for ops in items:
                t0 = time.perf_counter()
                self.item(ops)
                times.append((time.perf_counter() - t0, speed.mark()))
                speed.sample()
        return times


def environment(camlab):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # show_config's layout varies across numpy versions
        blas = "unknown"
    return {"commit": _commit(), "src_sha256": _src_digest(), "camlab": camlab.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def _commit():
    """HEAD of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def _src_digest():
    """sha256 over src/camlab/*.py, which names the code also without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "camlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def load_program():
    sys.path.insert(0, SRC)
    import camlab
    import camlab.cli  # noqa: F401  (the benchmark drives the CLI)
    if os.path.dirname(os.path.dirname(os.path.abspath(camlab.__file__))) != SRC:
        raise ImportError(f"camlab was imported from {camlab.__file__}, not {SRC}")
    return camlab


def measure(camlab, bench, args, work):
    runner = Runner(camlab.cli)
    make = workloads.WORKLOADS[args.workload]
    workload = make(camlab, runner, args.seed)
    speed = hostspeed.HostSpeed()
    speed.sample()
    setup_s = [timed_setup(workload, os.path.join(work, "inputs"), speed)]
    if args.trace:
        tagger = tracing.ShapeTagger([checks.parse_spec(workload.spec(a))
                                      for a in workloads.ARCHS])
        tracer = tracing.Tracer(camlab, tagger)
        setup_rows, stats = {}, {"rows": {}}
        tracer.install()
        try:
            make(camlab, runner, args.seed).setup(os.path.join(work, "traced-setup"))
            tracing.accumulate(setup_rows, tracer.take())
        finally:
            tracer.uninstall()
        unknown = [m["name"] for m in bench["per_layer"] if not m["name"].startswith("trace.")
                   and not tracing.known(m["name"], tracer.names)]
        if unknown:
            raise ValueError(f"per-layer metrics name no traced function: {unknown}")

    def more_setups(elapsed):
        # Set-ups spread over the run meet the same host load as the items;
        # elapsed=None makes all that are still due.
        due = SETUPS if elapsed is None else min(SETUPS, 1 + int(SETUPS * elapsed / args.seconds))
        while len(setup_s) < due:
            again = os.path.join(work, "setup-again")
            setup_s.append(timed_setup(make(camlab, runner, args.seed), again, speed))
            shutil.rmtree(again)

    items = workload.rounds()
    for ops in items:   # warm-up round
        runner.item(ops)
    runner.attempted = runner.failed = 0
    workload.snapshot()

    if not args.trace:
        measured = runner.timed(items, args.seconds, more_setups, speed)
        more_setups(None)
        times = speed.scaled(measured)
        wall = [t for t, _ in measured]
        tail_s, tail_pct = item_tail(times)
        metrics = {"setup_s": statistics.median(speed.scaled(setup_s)),
                   "items_per_s": len(times) / sum(times),
                   "item_ms.p50": 1e3 * statistics.median(times),
                   "item_ms.tail": 1e3 * tail_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        info = {"items": len(times), "tail_percentile": tail_pct,
                "host_speed_quartiles": speed.factors(),
                "wall": {"setup_s": statistics.median(t for t, _ in setup_s),
                         "items_per_s": len(wall) / sum(wall),
                         "item_ms.p50": 1e3 * statistics.median(wall)}}
        wanted = bench["end_to_end"]
    else:
        # Traced and untraced rounds alternate, so host drift during the
        # run does not show up as tracing overhead.
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(traced) < MIN_ITEMS // 2:
            plain += runner.timed_round(items)
            tracer.install()
            try:
                traced += runner.timed_round(items, tracer, stats)
            finally:
                tracer.uninstall()
        wanted = bench["per_layer"]
        p50 = [1e3 * statistics.median(t) for t in (plain, traced)]
        metrics = {"trace.overhead_ms": p50[1] - p50[0],
                   "trace.overhead_pct": 100 * (p50[1] - p50[0]) / p50[0]}
        for m in wanted:
            name = m["name"]
            if name.startswith(SETUP_LAYERS):
                metrics[name] = tracing.layer_metric(name, setup_rows, 1)
            elif name not in metrics:
                metrics[name] = tracing.layer_metric(name, stats["rows"], len(traced))
        info = {"items": len(plain), "traced_items": len(traced),
                "item_ms.p50": p50[0], "traced_item_ms.p50": p50[1],
                "trace_file": write_trace(args, metrics, stats)}

    try:
        errors = workload.check()
    except Exception:
        errors = [f"checking the outputs raised:\n{traceback.format_exc()}"]
    result = {"correct": not errors, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    info.update(setup_s=[t for t, _ in setup_s], errors=errors, first_failure=runner.first_failure,
                checked={k: round(float(v), 6) for k, v in workload.observed.items()})
    return result, info


def timed_setup(workload, work, speed):
    """(set-up time, speed mark), followed by a reference pass."""
    t0 = time.perf_counter()
    workload.setup(work)
    measured = (time.perf_counter() - t0, speed.mark())
    speed.sample()
    return measured


def write_trace(args, metrics, stats):
    """Write the per-function totals and the spans of the first traced item."""
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"trace-{args.workload}-s{args.seed}.json")
    rows = [{"name": n, "tag": t, "calls": r[0], "total_ns": r[1], "self_ns": r[2],
             "flop": r[3]} for (n, t), r in sorted(stats["rows"].items(), key=str)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "rows": rows, "first_item_spans": tracing.dump_spans(stats["first_item"])},
                  fh)
    return os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        camlab = load_program()
    except (OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    work = os.path.join(RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        result, info = measure(camlab, bench, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in info["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if info["first_failure"]:
        print(f"perfbench: first failed operation: {info['first_failure']}", file=sys.stderr)
    print(json.dumps({"env": environment(camlab), "workload": args.workload,
                      "seed": args.seed, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
