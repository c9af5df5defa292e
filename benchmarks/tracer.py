"""Per-layer tracing of sectorlab from outside the package.

`Tracer.install` wraps the public functions of each sectorlab module and
puts the wrapper everywhere the original is reachable: the defining module,
every module that imported a copy with ``from .x import y``, and the
module-level tuples and dicts that hold them (the verify check table).  A
function that the program no longer defines is recorded as absent and its
metrics read 0.  Each wrapper keeps a call count, inclusive time and self
time (inclusive minus the traced calls made inside it); recursive calls count
once, at the outermost level.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

CHECK_IDS = (
    "check_re_geometric",
    "check_re_harmonic",
    "check_re_relative_entropy",
    "check_re_tsallis",
    "check_vector_family",
    "check_norm_inequality",
    "check_bilinear",
    "check_homogeneity",
    "check_symmetry",
)

LAYERS = {
    "linalg": ("inverse", "herm_eig", "hpd_power", "hpd_log", "op_norm"),
    "quadrature": ("gauss_jacobi", "gauss_legendre", "integrate_matrix", "integrate_adaptive"),
    "means": ("geometric_mean", "drury_mean", "harmonic_mean", "geometric_mean_hpd"),
    "entropy": ("relative_entropy", "tsallis_entropy", "relative_entropy_hpd"),
    "ensemble": ("random_accretive",),
    "verify": CHECK_IDS,
    "serialize": ("to_json",),
    "cli": ("main",),
}

_RULE_KEYS = ("quadrature.gauss_jacobi", "quadrature.gauss_legendre")


class Tracer:
    """``clock`` gives the time spans are measured with; the benchmark passes
    one that stops while the reference kernel samples."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self.nodes = 0
        self.adaptive_used = 0
        self.adaptive_evaluated = 0
        self.specs: set = set()
        self._active: Counter = Counter()
        self._children: list[list[float]] = []
        self._undo: list = []

    def _observe(self, key, args, result) -> None:
        if key == "quadrature.integrate_matrix" and args:
            n = len(args[0].nodes)
            self.nodes += n
            if self._active["quadrature.integrate_adaptive"]:
                self.adaptive_evaluated += n
        elif key == "quadrature.integrate_adaptive":
            self.adaptive_used += getattr(result, "nodes_used", 0)
        elif key == "ensemble.random_accretive" and args:
            self.specs.add(args[0])

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._active[key]:
                return fn(*args, **kwargs)
            self._active[key] += 1
            children = [0.0]
            self._children.append(children)
            t0 = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._clock() - t0
                self._children.pop()
                self._active[key] -= 1
                if self._children:
                    self._children[-1][0] += dur
                self.calls[key] += 1
                self.total[key] += dur
                self.self_time[key] += dur - children[0]
            self._observe(key, args, result)
            return result

        return traced

    def install(self) -> None:
        swap = {}
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"sectorlab.{layer}")
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    swap[id(fn)] = self._wrap(f"{layer}.{name}", fn)
                else:
                    self.absent.append(f"{layer}.{name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "sectorlab" or n.startswith("sectorlab.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in swap:
                    new = swap[id(val)]
                elif isinstance(val, tuple) and any(id(v) in swap for v in val):
                    new = tuple(swap.get(id(v), v) for v in val)
                elif isinstance(val, dict) and any(id(v) in swap for v in val.values()):
                    for k, v in list(val.items()):
                        if id(v) in swap:
                            self._undo.append((val.__setitem__, k, v))
                            val[k] = swap[id(v)]
                    continue
                else:
                    continue
                self._undo.append((functools.partial(setattr, mod), attr, val))
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        for put, key, old in reversed(self._undo):
            put(key, old)
        self._undo.clear()

    def metrics(self, ops: int, trials: int, time_scale: float) -> dict:
        """Per-operation layer metrics; times are scaled to reference ms."""
        ms = 1e3 * time_scale / ops

        def per_op(key, what="calls"):
            if what == "calls":
                return self.calls[key] / ops
            if what == "self":
                return self.self_time[key] * ms
            return self.total[key] * ms

        out = {}
        for key in ("linalg.inverse", "linalg.herm_eig", "quadrature.integrate_matrix",
                    "means.geometric_mean", "ensemble.random_accretive"):
            out[f"{key}.calls"] = (per_op(key), "calls/op")
        for key in ("linalg.inverse", "linalg.herm_eig", "linalg.hpd_power", "linalg.hpd_log",
                    "linalg.op_norm", "means.geometric_mean", "means.drury_mean",
                    "means.harmonic_mean", "means.geometric_mean_hpd",
                    "entropy.relative_entropy", "entropy.tsallis_entropy",
                    "entropy.relative_entropy_hpd", "ensemble.random_accretive",
                    "serialize.to_json") + tuple(f"verify.{c}" for c in CHECK_IDS):
            out[f"{key}.ms"] = (per_op(key, "ms"), "ms/op")
        out["quadrature.rule.calls"] = (sum(per_op(k) for k in _RULE_KEYS), "calls/op")
        out["quadrature.rule.ms"] = (sum(per_op(k, "ms") for k in _RULE_KEYS), "ms/op")
        out["quadrature.integrate_matrix.nodes"] = (self.nodes / ops, "nodes/op")
        out["quadrature.integrate_matrix.self_ms"] = (
            per_op("quadrature.integrate_matrix", "self"), "ms/op")
        out["quadrature.integrate_adaptive.nodes_used"] = (self.adaptive_used / ops, "nodes/op")
        out["quadrature.integrate_adaptive.nodes_evaluated"] = (
            self.adaptive_evaluated / ops, "nodes/op")
        out["quadrature.integrate_adaptive.useful_ratio"] = (
            self.adaptive_used / self.adaptive_evaluated if self.adaptive_evaluated else 0.0,
            "ratio")
        draws = self.calls["ensemble.random_accretive"]
        out["ensemble.unique_ratio"] = (len(self.specs) / draws if draws else 0.0, "ratio")
        out["verify.geometric_mean_calls_per_trial"] = (
            self.calls["means.geometric_mean"] / (ops * trials) if trials else 0.0,
            "calls/trial")
        out["cli.main.self_ms"] = (per_op("cli.main", "self"), "ms/op")
        return out
