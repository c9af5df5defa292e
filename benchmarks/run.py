"""sectorlab benchmark: one workload per run, speed-corrected timings.

    python3 benchmarks/run.py --workload pair-default --seed 1 --seconds 10 --trace 0

Runs on one thread (BLAS pinned to one thread).  With ``--trace 0`` it
times three set-ups of sectorlab (fresh import plus the calls that fill the
rule cache), each in a fresh process started from setup_once.py, then sets
up in this process and runs whole rounds of the workload's operations for
``--seconds`` seconds, checks every result against the oracle, and prints
the end-to-end metrics.  With ``--trace 1`` it runs the
workload untraced for half the time, sets up afresh, runs the same rounds
again under the per-layer tracer, and prints the per-layer metrics with the
tracing overhead.  Every time is converted to reference seconds with the
kernel in kernel.py; raw wall-clock figures are printed next to them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run details go to benchmarks/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import kernel  # noqa: E402
from setup_once import import_and_warm  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3


def fresh_setup(workload) -> tuple[float, float]:
    """One set-up timed in a fresh process; (raw s, reference s)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_once.py"), "--workload", workload.name],
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["raw_s"], out["ref_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Operations of one measured phase: spans, failures and check errors.

    Each round's operations run first and are checked after the round.
    ``rss_mb`` is the peak resident set before the first check: the oracle
    loads scipy, which the program itself may not.
    """

    def __init__(self):
        self.spans: list[list[tuple[float, float, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.bad_checks = 0
        self.worst_err = 0.0
        self.rounds = 0
        self.rss_mb = math.nan
        self.raw: list[float] = []
        self.ref: list[float] = []

    def run(self, workload, lib, seed, meter, *, deadline=None, rounds=None):
        r = 0
        while (r < rounds) if rounds is not None else (time.perf_counter() < deadline):
            done = []
            for op in workload.round(seed, r):
                self.attempted += 1
                outs, steps = [], []
                try:
                    for call in op.calls:
                        out, *step = meter.timed(call, lib)
                        outs.append(out)
                        steps.append(step)
                except Exception:
                    self.failed += 1
                    if self.failed == 1:
                        traceback.print_exc(file=sys.stderr)
                    continue
                self.spans.append(steps)
                done.append((op, outs))
            if r == 0:
                self.rss_mb = peak_rss_mb()
            for op, outs in done:
                try:
                    err = op.check(*outs)
                except Exception:  # a result of the wrong form fails its check
                    traceback.print_exc(file=sys.stderr)
                    err = math.inf
                self.worst_err = max(self.worst_err, err)
                if not err <= op.tol:
                    self.bad_checks += 1
            r += 1
        self.rounds = r
        meter.settle(2)
        self.raw = [sum(work for _, _, work in steps) for steps in self.spans]
        self.ref = [sum(work * meter.factor(t0, t1) for t0, t1, work in steps)
                    for steps in self.spans]
        return self

    def ops_per_s(self, ref=True) -> float:
        total = sum(self.ref if ref else self.raw)
        return len(self.spans) / total if total else math.nan


def percentile_ms(values, q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0] if values else math.nan
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setups: list[tuple[float, float]], ref=True) -> dict:
    lat = phase.ref if ref else phase.raw
    return {
        "ops_per_s": (phase.ops_per_s(ref), "1/s"),
        "latency_ms_p50": (percentile_ms(lat, 50), "ms"),
        "setup_s": (statistics.median(s[1 if ref else 0] for s in setups), "s"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
    }


def tails(phase: Phase) -> dict:
    """p90 and p99 in reference ms, each with the count of samples beyond it.

    Printed and kept in the run details only: on the workloads with few,
    long operations a tail has too few samples beyond it to repeat."""
    n = len(phase.ref)
    return {f"latency_ms_p{q}": {"value": percentile_ms(phase.ref, q),
                                 "samples_beyond": n - math.ceil(n * q / 100)}
            for q in (90, 99)}


def measure_plain(workload, args, meter, detail):
    """Time SETUP_REPS fresh set-ups, then set up here and run the workload for --seconds."""
    setups = [fresh_setup(workload) for _ in range(SETUP_REPS)]
    lib = import_and_warm(workload)
    phase = Phase().run(workload, lib, args.seed, meter,
                        deadline=time.perf_counter() + args.seconds)
    detail["raw"] = {k: v for k, (v, _) in end_to_end(phase, setups, ref=False).items()}
    detail["setups_raw_ref_s"] = setups
    detail["tails"] = tails(phase)
    return lib, [phase], end_to_end(phase, setups)


def measure_traced(workload, args, meter, detail):
    """Run half the time untraced, then the same rounds traced from a fresh set-up."""
    lib = import_and_warm(workload)
    plain = Phase().run(workload, lib, args.seed, meter,
                        deadline=time.perf_counter() + args.seconds / 2)
    lib = import_and_warm(workload)
    tracer = Tracer(clock=lambda: time.perf_counter() - meter.stolen)
    tracer.install()
    try:
        traced = Phase().run(workload, lib, args.seed, meter, rounds=plain.rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(max(len(traced.spans), 1), workload.trials,
                             sum(traced.ref) / sum(traced.raw) if traced.spans else 1.0)
    metrics["trace.overhead_ratio"] = (traced.ops_per_s() / plain.ops_per_s(), "ratio")
    metrics["check.rel_err_max"] = (max(plain.worst_err, traced.worst_err), "rel")
    detail["absent"] = tracer.absent
    detail["raw"] = {"ops_per_s_untraced": plain.ops_per_s(False),
                     "ops_per_s_traced": traced.ops_per_s(False)}
    return lib, [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = importlib.util.find_spec("sectorlab")
    if spec is None or not str(spec.origin).startswith(str(SRC)):
        print(f"error: sectorlab sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "kernel_nominal_s": kernel.NOMINAL_S}
    with kernel.SpeedMeter() as meter:
        meter.settle()
        measure = measure_traced if args.trace else measure_plain
        lib, phases, metrics = measure(workload, args, meter, detail)
        final_check = getattr(workload, "final_check", None)
        final_ok = final_check is None or final_check(lib) == 0.0
    correct = final_ok and all(p.bad_checks == 0 for p in phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    detail.update(
        kernel_raw_rate_per_s=meter.raw_rate(),
        kernel_samples=len(meter.durations),
        rounds=[p.rounds for p in phases],
        worst_err=max(p.worst_err for p in phases),
        latencies_ref_s=phases[-1].ref,
        latencies_raw_s=phases[-1].raw,
        metrics={k: v for k, (v, _) in metrics.items()},
        correct=correct, attempted=attempted, failed=failed,
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {detail['rounds']}  "
          f"ops {attempted}  failed {failed}  worst oracle error {detail['worst_err']:.2e}  "
          f"repeat check {'ok' if final_ok else 'FAILED'}")
    print(f"reference kernel: {meter.raw_rate():.1f} runs/s raw "
          f"(nominal {1.0 / kernel.NOMINAL_S:.1f}), {len(meter.durations)} samples")
    raw = detail["raw"]
    for name, (value, unit) in metrics.items():
        note = f"   raw {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    for name, tail in detail.get("tails", {}).items():
        print(f"  {name:48s} {tail['value']:14.6g} ms   "
              f"({tail['samples_beyond']} samples beyond; not gated)")
    for name, value in raw.items():
        if name not in metrics:
            print(f"  {name:48s} {value:14.6g} raw")
    if detail.get("absent"):
        print(f"  absent from the program: {', '.join(detail['absent'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
