"""Make the fixture weights that the explain and faithfulness workloads read.

Runs ``camlab train`` in-process on the pinned recipe of tests/conftest.py
(400 images at seed 1, 30 epochs; GAP: lr 0.05, seed 0; FC: lr 0.01,
seed 1) and writes ``perfbench/fixtures/{gap,fc}.{manifest,bin}``.
Run from the repository root::

    python3 perfbench/make_fixtures.py

The run takes about a minute per model on one core and reproduces the
committed files byte for byte.
"""

import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import camlab  # noqa: E402
from camlab import cli  # noqa: E402

TRAIN_SET = dict(n=400, seed=1)
RECIPES = {
    "gap": (camlab.fix_gap_spec, dict(epochs=30, lr=0.05, seed=0)),
    "fc": (camlab.fix_fc_spec, dict(epochs=30, lr=0.01, seed=1)),
}


def main():
    out_dir = os.path.join(HERE, "fixtures")
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_runs")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        data = os.path.join(tmp, "train")
        code = cli.main(["make-dataset", "--out", data, "--n", str(TRAIN_SET["n"]),
                         "--side", "48", "--seed", str(TRAIN_SET["seed"])])
        if code:
            return code
        for name, (make_spec, r) in RECIPES.items():
            spec = os.path.join(tmp, f"{name}.spec")
            camlab.save_model_spec(make_spec(), spec)
            code = cli.main(["train", "--spec", spec, "--data", data,
                             "--out", os.path.join(out_dir, name),
                             "--epochs", str(r["epochs"]), "--lr", str(r["lr"]),
                             "--seed", str(r["seed"])])
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
