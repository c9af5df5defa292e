"""One timed set-up of sectorlab in a fresh process.

    python3 benchmarks/setup_once.py --workload pair-default

Imports sectorlab from src/ and makes the workload's cache-filling calls,
timed and speed-corrected as run.py times operations, and prints one JSON
line {"raw_s": ..., "ref_s": ...}.  run.py starts this three times per run
for `setup_s`: in a fresh process nothing the program loads (its own
modules, scipy for rules above 64 nodes, its rule cache) is loaded before
the timer starts.  Only numpy is, which the reference kernel needs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh_import():
    """Import sectorlab from scratch, so its rule cache starts empty."""
    for name in [n for n in sys.modules if n == "sectorlab" or n.startswith("sectorlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sl = importlib.import_module("sectorlab")
    return SimpleNamespace(sl=sl, cli=importlib.import_module("sectorlab.cli"))


def import_and_warm(workload):
    lib = fresh_import()
    workload.warm(lib)
    return lib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    with kernel.SpeedMeter() as meter:
        meter.settle()
        _, t0, t1, raw = meter.timed(import_and_warm, workload)
        meter.settle(2)
        ref = raw * meter.factor(t0, t1)
    print(json.dumps({"raw_s": raw, "ref_s": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
