"""Alternating parent/change benchmark pairs, summarized as a BENCH_<pr>.json file.

    python tools/bench_pairs.py --parent ../parent --change . --pairs 10 --seconds 15 \
        --seed 3201 --claim adaptive-wide:ops_per_s --out BENCH_32.json

Each pair runs ``benchmarks/run.py`` once in each tree, one run at a time, on the
same seed: the parent first on odd seeds and the change first on even ones.
Every run's end-to-end metrics come from the JSON summary on its last line.
The file holds, per workload, the medians and inclusive quartiles of each
metric on both sides, every run's value under ``per_seed``, ``change_wins``
(pairs where the change is better; ties count for neither), and the runs'
``correct_all``, ``failed`` and ``attempted``.  Each metric also gets a
``regression`` verdict against its ``BENCHMARK.json`` bound, a fraction of the
parent's median: ``worse`` where the change's median is worse than the parent's
by more than the bound; ``unresolved`` where the parent's interquartile range
exceeds the bound, unless every run of the change is better than every run of the
parent; ``held`` otherwise.
A change that claims no gain reads its acceptance from these verdicts.  A
claimed metric is met when the change wins at least 9 of 10 pairs and its
median beats the parent's by more than the parent's interquartile range.
Set-ups compile the package's source, as ``PYTHONDONTWRITEBYTECODE=1`` is set
for every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    # one run is its own median and quartiles; statistics.quantiles wants two before Python 3.13
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def regression(m: dict, bound: float) -> str:
    # the verdict on one metric's summary m against its bound (see the module docstring)
    parent, change = m["parent"], m["change"]
    loss = change["median"] - parent["median"]
    runs = m["per_seed"]
    if m["better"] == "higher":
        loss = -loss
        clear = min(runs["change"]) > max(runs["parent"])
    else:
        clear = max(runs["change"]) < min(runs["parent"])
    scale = bound * abs(parent["median"])
    if loss > scale:
        return "worse"
    if parent["q3"] - parent["q1"] > scale and not clear:
        return "unresolved"
    return "held"


def workload_summary(seeds: list, runs: dict, metrics: dict) -> dict:
    out = {"seeds": seeds, "runs": len(seeds),
           "correct_all": all(r["correct"] for side in SIDES for r in runs[side]),
           "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
           "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
           "metrics": {}}
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        better = (lambda c, p: c > p) if spec["better"] == "higher" else (lambda c, p: c < p)
        wins = sum(better(c, p) for p, c in zip(values["parent"], values["change"]))
        stats = {side: summarize(values[side]) for side in SIDES}
        m = out["metrics"][name] = {"unit": spec["unit"], "better": spec["better"], **stats,
                                    "change_wins": f"{wins}/{len(seeds)}",
                                    "ratio_of_medians": stats["change"]["median"] / stats["parent"]["median"],
                                    "per_seed": values}
        m["regression"] = regression(m, spec["bound"])
    return out


def claim_note(summary: dict, workload: str, metric: str) -> dict:
    m = summary[workload]["metrics"][metric]
    parent, change = m["parent"], m["change"]
    gain = change["median"] - parent["median"]
    if m["better"] == "lower":
        gain = -gain
    wins, total = (int(x) for x in m["change_wins"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    met = wins >= 0.9 * total and gain > iqr
    return {"workload": workload, "metric": metric, "met": met,
            "note": f"change wins {m['change_wins']} pairs; median gain {gain:.4g} {m['unit']} "
                    f"({100.0 * gain / parent['median']:+.1f}%) against a parent interquartile range of {iqr:.4g}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, required=True, help="first seed; pair k runs seed + k")
    parser.add_argument("--workloads", default=None, help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs-for", action="append", default=[], metavar="WORKLOAD=N",
                        help="a workload's own number of pairs")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--description", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    counts = dict(item.split("=") for item in args.pairs_for)
    summary = {}
    for name in names:
        seeds = [args.seed + k for k in range(int(counts.get(name, args.pairs)))]
        runs = {side: [] for side in SIDES}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(getattr(args, side), name, seed, args.seconds))
                print(f"{name} seed {seed} {side}: ops_per_s {runs[side][-1]['metrics']['ops_per_s']['value']:.1f}",
                      file=sys.stderr, flush=True)
        summary[name] = workload_summary(seeds, runs, metrics)

    doc = {"description": args.description,
           "command": f"python3 benchmarks/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0",
           "method": "Alternating parent/change pairs (odd seeds parent first), one run at a time, written by "
                     "tools/bench_pairs.py; medians and quartiles (inclusive method) of the per-run values, and "
                     "every run's value under per_seed; change_wins counts pairs where the change is better, "
                     "ties for neither. PYTHONDONTWRITEBYTECODE=1 was set, so every set-up compiled the "
                     "package's source.",
           "machine": f"{os.cpu_count()} CPUs, BLAS pinned to one thread, numpy {numpy.__version__}, "
                      f"Python {platform.python_version()}"}
    if args.claim:
        doc["claim"] = claim_note(summary, *args.claim.split(":"))
    doc["end_to_end"] = summary
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
