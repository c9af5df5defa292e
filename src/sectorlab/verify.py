"""Property-verification engine for the operator-mean and entropy inequalities.

Each check runs one proved inequality over a seeded random ensemble and
reports trials, violations, and the worst margin observed.  Margins use one
comparable unit everywhere: Loewner failures are the most negative eigenvalue
of (LHS - RHS) relative to the larger operator norm, scalar failures the
signed relative gap (RHS - LHS)/|RHS|.  A violation anywhere in a
theorem-backed check is a numerical bug, not a math failure; the one
deliberate exception is the arithmetic-geometric-harmonic chain search, which
*expects* to find violations for strongly non-Hermitian inputs.

The checks are small predicates over two evaluations of their ensemble.  The
pair evaluation draws every trial pair once, with Re A, Re B and their
inverses.  The mean evaluation holds A #_lam B, B #_(1-lam) A, the
homogeneity means and the HPD means (Re A) #_lam (Re B) for every weight of
the grid; all means of one weight, over all trials, are one batch through the
quadrature engine, one stacked inverse over every node.  The means are
bitwise those of ``geometric_mean``, so the reports do not depend on the
batching.  ``run_all`` evaluates each once and shares it among its nine
checks; a check called alone evaluates what it uses itself.  When the mean
evaluation raises, the seven checks that use it report the error, and the
harmonic and relative-entropy checks still run.  The AGH search reads the
same trial pairs and batched means; it and the harmonic check take A !_lam B
from the means module's harmonic path over their weights.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensemble import GENERATOR_NAME, SectorSpec, derive_seed, random_accretive, random_unit_vectors
from .entropy import EntropyConfig, relative_entropy, relative_entropy_hpd
from .errors import SectorlabError
from .linalg import (
    MAX_DIM,
    LoewnerTolerance,
    frob,
    inverse,
    loewner_margin,
    op_norm,
    real_part,
    symmetrize,
)
from .means import (
    GeometricMeanConfig,
    _geometric_means,
    _harmonic_path,
    arithmetic_mean,
    geometric_mean_hpd,
    scalar_geometric,
)

DEFAULT_TOLERANCE = LoewnerTolerance(absolute=1e-10, relative=1e-10)

#: condition bound used for every verification ensemble draw
ENSEMBLE_COND_CAP = 100.0

HOMOGENEITY_SCALES = ((1.0, 1.0), (4.0, 9.0), (0.5, 7.3))
HOMOGENEITY_RTOL = 1e-9
SYMMETRY_RTOL = 1e-10

# purpose tags for per-trial stream derivation
_TAG_PAIR_A = 10
_TAG_PAIR_B = 11
_TAG_FAMILY = 12
_TAG_BILIN_X = 13
_TAG_BILIN_XSTAR = 14


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded recipe for one verification ensemble."""

    dim: int = 3
    trials: int = 100
    seed: int = 0
    sector_angle: float = 0.4 * (math.pi / 2)
    lambda_grid: tuple[float, ...] = (0.1, 0.5, 0.9)

    def __post_init__(self):
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must lie in [1, {MAX_DIM}], got {self.dim}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0.0 <= self.sector_angle < math.pi / 2):
            raise ValueError(f"sector_angle must lie in [0, pi/2), got {self.sector_angle}")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must not be empty")
        for lam in self.lambda_grid:
            if not (0.0 < lam < 1.0):
                raise ValueError(f"lambda grid entries must lie in (0, 1), got {lam}")


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one inequality check over an ensemble."""

    property_id: str
    trials: int
    violations: int
    worst_margin: float
    worst_seed: int
    tolerance_used: LoewnerTolerance
    status: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        out = {
            "property_id": self.property_id,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "worst_seed": self.worst_seed,
            "tolerance": {
                "absolute": self.tolerance_used.absolute,
                "relative": self.tolerance_used.relative,
            },
        }
        if self.status is not None:
            out["status"] = self.status
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def trial_pair(spec: EnsembleSpec, trial: int):
    """The deterministic accretive pair used by every check for this trial."""
    a = random_accretive(SectorSpec(dim=spec.dim, angle=spec.sector_angle,
                                    cond_cap=ENSEMBLE_COND_CAP,
                                    seed=derive_seed(spec.seed, _TAG_PAIR_A, trial)))
    b = random_accretive(SectorSpec(dim=spec.dim, angle=spec.sector_angle,
                                    cond_cap=ENSEMBLE_COND_CAP,
                                    seed=derive_seed(spec.seed, _TAG_PAIR_B, trial)))
    return a, b


# ------------------------------------------------------- shared evaluations

#: Inside run_all: (its spec, the evaluations made so far for its checks).
_SHARED: ContextVar = ContextVar("sectorlab_verify_shared", default=None)


def _shared(spec: EnsembleSpec, key, evaluate):
    # Inside run_all, evaluate once per key and give every check the same
    # result; a check called alone evaluates afresh, and so does each check
    # after an evaluation raised.  The spec is matched by identity, so it
    # need not be hashable.
    scope = _SHARED.get()
    if scope is None or scope[0] is not spec:
        return evaluate()
    memo = scope[1]
    if key not in memo:
        memo[key] = evaluate()
    return memo[key]


class _Pairs(NamedTuple):
    """Every trial pair of an ensemble, each array stacked over trials."""

    a: np.ndarray
    b: np.ndarray
    re_a: np.ndarray
    re_b: np.ndarray
    inv_re_a: np.ndarray
    inv_re_b: np.ndarray


def _evaluate_pairs(spec: EnsembleSpec) -> _Pairs:
    drawn = [trial_pair(spec, i) for i in range(spec.trials)]
    a = np.stack([x.mat for x, _ in drawn])
    b = np.stack([y.mat for _, y in drawn])
    re_a = np.stack([real_part(x) for x in a])
    re_b = np.stack([real_part(y) for y in b])
    inv_re_a, inv_re_b = np.split(inverse(np.concatenate([re_a, re_b])), 2)
    return _Pairs(a, b, re_a, re_b, inv_re_a, inv_re_b)


def _pairs(spec: EnsembleSpec) -> _Pairs:
    return _shared(spec, "pairs", lambda: _evaluate_pairs(spec))


class _Means(NamedTuple):
    """The means of an ensemble, indexed [trial, weight] (then [scale])."""

    sharp: np.ndarray  # A #_lam B
    re_sharp: np.ndarray  # Re(A #_lam B)
    inv_re_sharp: np.ndarray  # (Re(A #_lam B))^-1
    flip: np.ndarray  # B #_(1-lam) A
    scaled: np.ndarray  # (alpha A) #_lam (beta B), one per homogeneity scale
    hpd: np.ndarray  # (Re A) #_lam (Re B)


def _evaluate_means(spec: EnsembleSpec, cfg: GeometricMeanConfig, scales) -> _Means:
    # Every mean of one weight, over all trials, is one batch; B #_(1-lam) A
    # joins the batch of 1-lam when that weight is also on the grid.  The
    # unit homogeneity scale is A #_lam B itself, bitwise, as 1.0 * A == A.
    p = _pairs(spec)
    batches = defaultdict(list)
    for j, lam in enumerate(spec.lambda_grid):
        batches[lam].append((("sharp", j), p.a, p.b))
        for k, (alpha, beta) in enumerate(scales):
            if (alpha, beta) != (1.0, 1.0):
                batches[lam].append((("scaled", j, k), alpha * p.a, beta * p.b))
        batches[1.0 - lam].append((("flip", j), p.b, p.a))
    got = {}
    for lam, jobs in batches.items():
        means = _geometric_means(np.concatenate([x for _, x, _ in jobs]),
                                 np.concatenate([y for _, _, y in jobs]), lam, cfg)
        got.update(zip([slot for slot, _, _ in jobs], np.split(means, len(jobs))))
    grid = range(len(spec.lambda_grid))
    for j in grid:
        for k in range(len(scales)):
            got.setdefault(("scaled", j, k), got["sharp", j])

    def over_grid(*slot):
        return np.stack([got[(slot[0], j) + slot[1:]] for j in grid], axis=1)

    sharp = over_grid("sharp")
    re_sharp = np.stack([real_part(x) for x in sharp.reshape((-1,) + sharp.shape[-2:])])
    return _Means(
        sharp=sharp,
        re_sharp=re_sharp.reshape(sharp.shape),
        inv_re_sharp=inverse(re_sharp).reshape(sharp.shape),
        flip=over_grid("flip"),
        scaled=np.stack([over_grid("scaled", k) for k in range(len(scales))], axis=2),
        hpd=np.stack([[geometric_mean_hpd(ra, rb, lam) for lam in spec.lambda_grid]
                      for ra, rb in zip(p.re_a, p.re_b)]),
    )


def _means(spec: EnsembleSpec, cfg: GeometricMeanConfig,
           scales=HOMOGENEITY_SCALES) -> _Means:
    scales = tuple((float(alpha), float(beta)) for alpha, beta in scales)
    return _shared(spec, ("means", cfg, scales), lambda: _evaluate_means(spec, cfg, scales))


# ------------------------------------------------------------------ checks


def _scalar_margin(lhs: float, rhs: float, tol: LoewnerTolerance) -> tuple[bool, float]:
    gap = rhs - lhs
    holds = gap >= -(tol.absolute + tol.relative * abs(rhs))
    return holds, gap / max(abs(rhs), 1e-30)


def _loewner(x, y, tol: LoewnerTolerance) -> tuple[bool, float]:
    # X >= Y with the normalized margin, the one unit every report uses.
    holds, _, margin = loewner_margin(x, y, tol)
    return holds, margin


class _Tally:
    def __init__(self):
        self.worst = math.inf
        self.worst_seed = 0
        self.violations = 0
        self.trials = 0

    def trial(self, trial_index: int, outcomes):
        # outcomes: the (holds, margin) of every comparison in the trial
        self.trials += 1
        if not all(holds for holds, _ in outcomes):
            self.violations += 1
        low = min(margin for _, margin in outcomes)
        if low < self.worst:
            self.worst = low
            self.worst_seed = trial_index

    def report(self, property_id: str, tol: LoewnerTolerance, **extra) -> PropertyReport:
        worst = self.worst if math.isfinite(self.worst) else 0.0
        return PropertyReport(property_id=property_id, trials=self.trials,
                              violations=self.violations, worst_margin=worst,
                              worst_seed=self.worst_seed, tolerance_used=tol, **extra)


def _report(property_id: str, spec: EnsembleSpec, tol: LoewnerTolerance,
            outcomes) -> PropertyReport:
    # outcomes(i) lists the (holds, margin) of trial i's comparisons.
    tally = _Tally()
    for i in range(spec.trials):
        tally.trial(i, outcomes(i))
    return tally.report(property_id, tol)


def check_re_geometric(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                       cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Re(A #_lam B) >= (Re A) #_lam (Re B)."""
    m = _means(spec, cfg)
    return _report("check_re_geometric", spec, tol, lambda i: [
        _loewner(m.re_sharp[i, j], m.hpd[i, j], tol) for j in range(len(spec.lambda_grid))])


def check_re_harmonic(spec: EnsembleSpec,
                      tol: LoewnerTolerance = DEFAULT_TOLERANCE) -> PropertyReport:
    """Re(A !_lam B) >= (Re A) !_lam (Re B)."""
    p = _pairs(spec)
    # A_i !_lam B_i, indexed [trial, weight], one stacked inverse per side
    lhs = _harmonic_path(p.a, p.b)(spec.lambda_grid)
    rhs = _harmonic_path(p.re_a, p.re_b)(spec.lambda_grid)
    return _report("check_re_harmonic", spec, tol, lambda i: [
        _loewner(real_part(lhs[i, j]), symmetrize(rhs[i, j]), tol)
        for j in range(len(spec.lambda_grid))])


def check_re_relative_entropy(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                              cfg: EntropyConfig = EntropyConfig()) -> PropertyReport:
    """Re(S(A|B)) >= S(Re A | Re B)."""
    p = _pairs(spec)
    return _report("check_re_relative_entropy", spec, tol, lambda i: [
        _loewner(real_part(relative_entropy(p.a[i], p.b[i], cfg)),
                 relative_entropy_hpd(p.re_a[i], p.re_b[i]), tol)])


def check_re_tsallis(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                     cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Re(T_lam(A|B)) >= T_lam(Re A | Re B), with T_lam(A|B) = (A #_lam B - A)/lam."""
    p = _pairs(spec)
    m = _means(spec, cfg)
    return _report("check_re_tsallis", spec, tol, lambda i: [
        _loewner(real_part((m.sharp[i, j] - p.a[i]) / lam),
                 symmetrize((m.hpd[i, j] - p.re_a[i]) / lam), tol)
        for j, lam in enumerate(spec.lambda_grid)])


def check_vector_family(spec: EnsembleSpec, family_size: int = 3,
                        tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                        cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """sum_k <(Re(A #_lam B))^-1 x_k, x_k> <= geometric mean of the Re-part sums."""
    if family_size < 1:
        raise ValueError(f"family_size must be >= 1, got {family_size}")
    p = _pairs(spec)
    m = _means(spec, cfg)

    def outcomes(i):
        xs = random_unit_vectors(spec.dim, family_size, derive_seed(spec.seed, _TAG_FAMILY, i))
        sum_a = sum(np.vdot(x, p.inv_re_a[i] @ x).real for x in xs)
        sum_b = sum(np.vdot(x, p.inv_re_b[i] @ x).real for x in xs)
        return [_scalar_margin(sum(np.vdot(x, m.inv_re_sharp[i, j] @ x).real for x in xs),
                               scalar_geometric(sum_a, sum_b, lam), tol)
                for j, lam in enumerate(spec.lambda_grid)]

    return _report("check_vector_family", spec, tol, outcomes)


def check_norm_inequality(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                          cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """||(Re(A #_lam B))^-1|| <= ||(Re A)^-1||^(1-lam) * ||(Re B)^-1||^lam."""
    p = _pairs(spec)
    m = _means(spec, cfg)

    def outcomes(i):
        norm_a = op_norm(p.inv_re_a[i])
        norm_b = op_norm(p.inv_re_b[i])
        return [_scalar_margin(op_norm(m.inv_re_sharp[i, j]),
                               scalar_geometric(norm_a, norm_b, lam), tol)
                for j, lam in enumerate(spec.lambda_grid)]

    return _report("check_norm_inequality", spec, tol, outcomes)


def check_bilinear(spec: EnsembleSpec, pairs_per_trial: int = 8,
                   tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                   cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(Re <x*, x>)^2 <= <Re(A #_lam B) x*, x*> * (<(Re A)^-1 x,x> #_lam <(Re B)^-1 x,x>)."""
    if pairs_per_trial < 1:
        raise ValueError(f"pairs_per_trial must be >= 1, got {pairs_per_trial}")
    p = _pairs(spec)
    m = _means(spec, cfg)

    def outcomes(i):
        xs = random_unit_vectors(spec.dim, pairs_per_trial,
                                 derive_seed(spec.seed, _TAG_BILIN_X, i))
        xstars = random_unit_vectors(spec.dim, pairs_per_trial,
                                     derive_seed(spec.seed, _TAG_BILIN_XSTAR, i))
        out = []
        for j, lam in enumerate(spec.lambda_grid):
            for x, xstar in zip(xs, xstars):
                lhs = float(np.vdot(x, xstar).real) ** 2
                quad_mean = np.vdot(xstar, m.re_sharp[i, j] @ xstar).real
                quad_ab = scalar_geometric(np.vdot(x, p.inv_re_a[i] @ x).real,
                                           np.vdot(x, p.inv_re_b[i] @ x).real, lam)
                out.append(_scalar_margin(lhs, quad_mean * quad_ab, tol))
        return out

    return _report("check_bilinear", spec, tol, outcomes)


def check_homogeneity(spec: EnsembleSpec, scales=HOMOGENEITY_SCALES,
                      cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(alpha A) #_lam (beta B) = alpha^(1-lam) beta^lam (A #_lam B)."""
    tol = LoewnerTolerance(absolute=0.0, relative=HOMOGENEITY_RTOL)
    m = _means(spec, cfg, scales)

    def outcomes(i):
        out = []
        for j, lam in enumerate(spec.lambda_grid):
            base = m.sharp[i, j]
            scale_norm = frob(base)
            for k, (alpha, beta) in enumerate(scales):
                dev = frob(m.scaled[i, j, k] - scalar_geometric(alpha, beta, lam) * base)
                rel = dev / max(scale_norm, 1e-30)
                out.append((not rel > HOMOGENEITY_RTOL, -rel))
        return out

    return _report("check_homogeneity", spec, tol, outcomes)


def check_symmetry(spec: EnsembleSpec,
                   cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """A #_lam B = B #_(1-lam) A."""
    tol = LoewnerTolerance(absolute=0.0, relative=SYMMETRY_RTOL)
    m = _means(spec, cfg)

    def outcome(left, right):
        rel = frob(left - right) / max(frob(left), 1e-30)
        return not rel > SYMMETRY_RTOL, -rel

    return _report("check_symmetry", spec, tol, lambda i: [
        outcome(m.sharp[i, j], m.flip[i, j]) for j in range(len(spec.lambda_grid))])


def search_agh_counterexample(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                              cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Hunt for accretive pairs breaking Re(A !_lam B) <= Re(A #_lam B) <= Re(A nabla_lam B).

    For positive definite pairs (angle 0) the chain provably holds; for wide
    sectors it is expected to fail, and `violations` counts the trials where
    at least one link broke.  Success of the search means violations >= 1.
    """
    lams = [0.5] + [l for l in spec.lambda_grid if l != 0.5]
    p = _pairs(spec)
    sharp = np.stack([_geometric_means(p.a, p.b, lam, cfg) for lam in lams], axis=1)
    low = _harmonic_path(p.a, p.b)(lams)
    tally = _Tally()
    witness_detail = None
    for i in range(spec.trials):
        outcomes = []
        broke = None
        for j, lam in enumerate(lams):
            re_sharp = real_part(sharp[i, j])
            high = real_part(arithmetic_mean(p.a[i], p.b[i], lam))
            ok_low, m_low = _loewner(re_sharp, real_part(low[i, j]), tol)
            ok_high, m_high = _loewner(high, re_sharp, tol)
            outcomes.extend([(ok_low, m_low), (ok_high, m_high)])
            if not ok_low and broke is None:
                broke = (lam, "harmonic<=geometric")
            if not ok_high and broke is None:
                broke = (lam, "geometric<=arithmetic")
        tally.trial(i, outcomes)
        if broke is not None and witness_detail is None:
            witness_detail = f"trial {i}: {broke[1]} fails at lambda={broke[0]:g}"
    status = "found" if tally.violations >= 1 else "warning"
    return tally.report("search_agh_counterexample", tol, status=status, detail=witness_detail)


THEOREM_CHECKS = (
    check_re_geometric,
    check_re_harmonic,
    check_re_relative_entropy,
    check_re_tsallis,
    check_vector_family,
    check_norm_inequality,
    check_bilinear,
    check_homogeneity,
    check_symmetry,
)

CHECKS_BY_ID = {fn.__name__: fn for fn in THEOREM_CHECKS + (search_agh_counterexample,)}


def run_all(spec: EnsembleSpec) -> list[PropertyReport]:
    """Run the nine theorem-backed checks on one shared evaluation.

    The trial pairs and the means are evaluated once and shared by every
    check.  Per-check errors become reports with status "error" instead of
    aborting the remaining checks; an error of the means evaluation is
    reported by each of the seven checks that use the means.
    """
    reports = []
    token = _SHARED.set((spec, {}))
    try:
        for fn in THEOREM_CHECKS:
            try:
                reports.append(fn(spec))
            except SectorlabError as exc:
                reports.append(PropertyReport(
                    property_id=fn.__name__, trials=0, violations=0, worst_margin=0.0,
                    worst_seed=0, tolerance_used=DEFAULT_TOLERANCE,
                    status="error", detail=f"{type(exc).__name__}: {exc}"))
    finally:
        _SHARED.reset(token)
    return reports


def reports_to_dict(spec: EnsembleSpec, reports: list[PropertyReport]) -> dict:
    """Assemble the machine-readable report document."""
    return {
        "spec": {
            "dim": spec.dim,
            "trials": spec.trials,
            "seed": spec.seed,
            "sector_angle": spec.sector_angle,
            "lambda_grid": list(spec.lambda_grid),
            "generator": GENERATOR_NAME,
        },
        "reports": [r.to_dict() for r in reports],
    }


def all_theorem_checks_clean(reports: list[PropertyReport]) -> bool:
    """True when every theorem-backed report ran and saw zero violations."""
    for r in reports:
        if r.property_id == "search_agh_counterexample":
            continue
        if r.violations > 0 or r.status == "error":
            return False
    return True
