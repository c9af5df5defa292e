"""The four benchmark workloads.

A workload yields rounds of operations.  Every round of a workload holds the
same operations on fresh seeded inputs, so each run attempts whole rounds of
the same work.  An operation calls sectorlab only through its public names
(``sectorlab.__all__`` and ``sectorlab.cli.main``); its check compares the
result with the oracle and returns the error, which must not exceed ``tol``.
Input generation and checks are benchmark work and are never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs
import oracle
from tracer import CHECK_IDS

#: closed-form agreement the sectorlab README documents for the integral forms
ORACLE_TOL = 1e-8

#: verify-report margins are normalised to order one; recomputation with
#: LAPACK instead of sectorlab's own solvers agrees to rounding
MARGIN_TOL = 1e-9

HALF_PI = math.pi / 2

# Fixed pair for the set-up calls: the same for every seed, so set-up work
# does not depend on the inputs.
WARM_A = np.array([[2, 1j], [1j, 2]], dtype=complex)
WARM_B = np.array([[1, 1], [-1, 1]], dtype=complex)


@dataclass
class Op:
    """Timed library calls and the check of their results.

    Each call is timed and speed-corrected on its own; the operation's
    latency is their sum.  ``check`` gets one result per call and returns the
    error, which must not exceed ``tol``.
    """

    calls: tuple[Callable[[Any], Any], ...]
    check: Callable[..., float]
    tol: float = ORACLE_TOL


class PairDefault:
    """Single library calls at the default 64 nodes, rule cache warm."""

    name = "pair-default"
    trials = 0
    dims = tuple(range(2, 17))
    lambdas = (0.25, 0.5)

    def warm(self, lib) -> None:
        sl = lib.sl
        for lam in self.lambdas:
            sl.geometric_mean(WARM_A, WARM_B, lam)
            sl.tsallis_entropy(WARM_A, WARM_B, lam)
        sl.relative_entropy(WARM_A, WARM_B)
        sl.drury_mean(WARM_A, WARM_B)

    def round(self, seed: int, r: int) -> list[Op]:
        g = inputs.stream(seed, 1, r)
        ops = []
        for d in self.dims:
            theta = g.uniform(0.2, 0.8) * HALF_PI
            a, b = inputs.sector_pair(g, d, theta, math.exp(g.uniform(0.0, math.log(100.0))))
            lam = self.lambdas[(r + d) % len(self.lambdas)]
            ops += [
                Op((lambda lib, a=a, b=b, lam=lam: lib.sl.geometric_mean(a, b, lam),),
                   lambda x, a=a, b=b, lam=lam: oracle.rel_err(x, oracle.geometric_mean(a, b, lam))),
                Op((lambda lib, a=a, b=b: lib.sl.relative_entropy(a, b),),
                   lambda x, a=a, b=b: oracle.rel_err(x, oracle.relative_entropy(a, b))),
                Op((lambda lib, a=a, b=b, lam=lam: lib.sl.tsallis_entropy(a, b, lam),),
                   lambda x, a=a, b=b, lam=lam: oracle.rel_err(x, oracle.tsallis_entropy(a, b, lam))),
                Op((lambda lib, a=a, b=b: lib.sl.drury_mean(a, b),),
                   lambda x, a=a, b=b: oracle.rel_err(x, oracle.drury_mean(a, b))),
            ]
        return ops


class AdaptiveWide:
    """Node-doubling mean and relative entropy at tol 1e-12 on wide sectors.

    The round's pairs are fixed base draws (dims 2-6, angles 0.90-0.97 pi/2,
    each matrix scaled to unit norm) under a fresh seeded unitary similarity
    per round.  The similarity changes every entry but keeps the spectrum of
    A^-1 B, so each call needs the same node count on every seed: the work
    per round does not depend on the seed.  One operation is both calls on
    one pair; an odd number of pairs puts the median inside one pair's
    latencies instead of in the gap between two.
    """

    name = "adaptive-wide"
    trials = 0
    tol = 1e-12
    lambdas = (0.3, 0.7)
    _BASE_SEED = 0
    _DIMS = (2, 3, 4, 5, 6, 2, 3, 4, 5)

    def __init__(self):
        self.slots = []
        for k, (d, frac) in enumerate(zip(self._DIMS, np.linspace(0.90, 0.97, len(self._DIMS)))):
            pair = inputs.sector_pair(inputs.stream(self._BASE_SEED, k), d, frac * HALF_PI, 100.0)
            self.slots.append((inputs.unit_norm(pair), self.lambdas[k % len(self.lambdas)]))

    def _op(self, a, b, lam) -> Op:
        def check(mean, entropy):
            return max(oracle.rel_err(mean, oracle.geometric_mean(a, b, lam)),
                       oracle.rel_err(entropy, oracle.relative_entropy(a, b)))

        return Op((lambda lib: lib.sl.geometric_mean_adaptive(a, b, lam, tol=self.tol).value,
                   lambda lib: lib.sl.relative_entropy_adaptive(a, b, tol=self.tol).value),
                  check)

    def warm(self, lib) -> None:
        for (a, b), lam in self.slots:
            for call in self._op(a, b, lam).calls:
                call(lib)

    def round(self, seed: int, r: int) -> list[Op]:
        ops = []
        for k, (pair, lam) in enumerate(self.slots):
            u = inputs.haar_unitary(pair[0].shape[0], inputs.stream(seed, 2, r, k))
            ops.append(self._op(*inputs.rotate(pair, u), lam))
        return ops


class LambdaSweep:
    """A fresh weight on every operation, so every call misses the rule cache."""

    name = "lambda-sweep"
    trials = 0
    # Weyl sequences with irrational steps never repeat a weight.
    _LAM_STEP = (math.sqrt(5.0) - 1.0) / 2.0
    _MU_STEP = math.sqrt(2.0) - 1.0

    def warm(self, lib) -> None:
        # The probe's relative entropy uses the one weight-free rule.
        lib.sl.relative_entropy(WARM_A, WARM_B)

    def round(self, seed: int, r: int) -> list[Op]:
        lam0, mu0 = inputs.stream(seed, 3).uniform(size=2)
        lam = 0.05 + 0.9 * ((lam0 + r * self._LAM_STEP) % 1.0)
        mu = 0.12 + 0.38 * ((mu0 + r * self._MU_STEP) % 1.0)
        grid = (mu, mu / 3.0)
        g = inputs.stream(seed, 4, r)
        theta = g.uniform(0.2, 0.8) * HALF_PI
        a, b = inputs.sector_pair(g, 2 + r % 5, theta, math.exp(g.uniform(0.0, math.log(100.0))))

        calls = (lambda lib: lib.sl.geometric_mean(a, b, lam),
                 lambda lib: lib.sl.tsallis_entropy(a, b, lam),
                 lambda lib: lib.sl.tsallis_limit_probe(a, b, grid))

        def check(mean, tsallis, probe):
            s = oracle.relative_entropy(a, b)
            scale = np.linalg.norm(s)
            errs = [oracle.rel_err(mean, oracle.geometric_mean(a, b, lam)),
                    oracle.rel_err(tsallis, oracle.tsallis_entropy(a, b, lam))]
            if [p[0] for p in probe] != list(grid):
                return math.inf
            for mu_k, dev in probe:
                want = np.linalg.norm(oracle.tsallis_entropy(a, b, mu_k) - s)
                errs.append(abs(dev - want) / scale)
            return max(errs)

        return [Op(calls, check)]


class VerifyEnsemble:
    """`sectorlab verify` reports through the command-line entry point."""

    name = "verify-ensemble"
    trials = 2
    dim = 3
    angle = 0.4
    lambdas = (0.1, 0.5, 0.9)

    def __init__(self):
        self.first: tuple[list[str], str] | None = None

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        return ["verify", "--dim", str(self.dim), "--trials", str(trials or self.trials),
                "--seed", str(seed), "--angle", repr(self.angle),
                "--lambdas", ",".join(map(repr, self.lambdas)), "--report", "-"]

    @staticmethod
    def run_cli(lib, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def warm(self, lib) -> None:
        # A one-trial report builds every rule a report needs, including the
        # ones for the weights 1 - lam that the symmetry check asks for.
        code, _ = self.run_cli(lib, self.argv(0, trials=1))
        if code != 0:
            raise RuntimeError(f"set-up report exited {code}")

    def round(self, seed: int, r: int) -> list[Op]:
        report_seed = int(inputs.stream(seed, 5, r).integers(0, 2**31))
        argv = self.argv(report_seed)
        return [Op((lambda lib: self.run_cli(lib, argv),),
                   lambda out: self.check(report_seed, argv, out), tol=MARGIN_TOL)]

    def check(self, seed: int, argv, out) -> float:
        code, text = out
        if self.first is None:
            self.first = (argv, text)
        if code != 0:
            return math.inf
        reports = {rep["property_id"]: rep for rep in json.loads(text)["reports"]}
        if sorted(reports) != sorted(CHECK_IDS):
            return math.inf
        if any(rep["trials"] != self.trials or rep["violations"] != 0 or "status" in rep
               for rep in reports.values()):
            return math.inf
        errs = []
        for check_id, lhs, rhs in self.RECOMPUTED:
            worst, worst_trial = self.worst_margin(seed, lhs, rhs)
            rep = reports[check_id]
            if rep["worst_seed"] != worst_trial:
                return math.inf
            errs.append(abs(rep["worst_margin"] - worst))
        return max(errs)

    #: checks whose worst margin is recomputed: (check id, the accretive
    #: side's mean of (A, B, lam), the HPD side's mean of (Re A, Re B, lam))
    RECOMPUTED = (
        ("check_re_geometric", oracle.geometric_mean, oracle.geometric_mean_hpd),
        ("check_re_harmonic", oracle.harmonic_mean, oracle.harmonic_mean),
    )

    def worst_margin(self, seed: int, lhs, rhs) -> tuple[float, int]:
        """Worst normalised Loewner margin of Re lhs(A, B) >= rhs(Re A, Re B)
        over the report's trials and weights, and the trial it falls on."""
        worst, worst_trial = math.inf, 0
        for i in range(self.trials):
            a, b = inputs.verify_pair(seed, i, self.dim, self.angle * HALF_PI)
            ra, rb = oracle.real_part(a), oracle.real_part(b)
            low = math.inf
            for lam in self.lambdas:
                x, y = oracle.real_part(lhs(a, b, lam)), oracle.real_part(rhs(ra, rb, lam))
                big = max(np.abs(np.linalg.eigvalsh(x)).max(), np.abs(np.linalg.eigvalsh(y)).max())
                low = min(low, np.linalg.eigvalsh(x - y)[0] / big)
            if low < worst:
                worst, worst_trial = low, i
        return float(worst), worst_trial

    def final_check(self, lib) -> float:
        """A repeated seed must give a byte-identical report."""
        if self.first is None:
            return math.inf
        argv, text = self.first
        return 0.0 if self.run_cli(lib, argv) == (0, text) else math.inf


WORKLOADS = {w.name: w for w in (VerifyEnsemble, PairDefault, AdaptiveWide, LambdaSweep)}
