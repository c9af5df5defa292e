"""Property-verification engine for the operator-mean and entropy inequalities.

Each check runs one proved inequality over a seeded random ensemble and
reports trials, violations, and the worst margin observed.  Margins use one
comparable unit everywhere: Loewner failures are the most negative eigenvalue
of (LHS - RHS) relative to the larger operator norm, scalar failures the
signed relative gap (RHS - LHS)/|RHS|.  A violation anywhere in a
theorem-backed check is a numerical bug, not a math failure; the one
deliberate exception is the arithmetic-geometric-harmonic chain search, which
*expects* to find violations for strongly non-Hermitian inputs.

The checks are small predicates over two evaluations of their ensemble,
stacked over trials: the pairs (every trial pair drawn once, with Re A, Re B
and their inverses) and the means (A #_lam B, B #_(1-lam) A, the homogeneity
means and the HPD means (Re A) #_lam (Re B), each weight's means over all
trials one batch through the quadrature engine).  A predicate returns whether
each comparison holds and its margin as arrays indexed [trial, ...], and one
reduction makes the report: a trial with a failed comparison is a violation,
and the worst margin is the first minimum in trial order.  ``run_all`` makes
both evaluations once for its nine predicates, and a check called alone makes
its own.  When the means raise, the seven checks that read them report the
error.  Every stacked value is bitwise what the public functions give for one
trial alone, so a report does not depend on the stacking.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .ensemble import GENERATOR_NAME, SectorSpec, derive_seed, random_accretive, random_unit_vectors
from .entropy import EntropyConfig, _entropy
from .errors import SectorlabError
from .linalg import (
    MAX_DIM,
    LoewnerTolerance,
    frob,
    hpd_log,
    hpd_power,
    inverse,
    loewner_margin,
    op_norm,
    real_part,
)
from .means import (
    GeometricMeanConfig,
    _geometric_mean,
    _harmonic_path,
    _hpd_congruence,
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
    return tuple(random_accretive(SectorSpec(dim=spec.dim, angle=spec.sector_angle,
                                             cond_cap=ENSEMBLE_COND_CAP,
                                             seed=derive_seed(spec.seed, tag, trial)))
                 for tag in (_TAG_PAIR_A, _TAG_PAIR_B))


# --------------------------------------------------------------- evaluation


class _Pairs(NamedTuple):
    """Every trial pair of an ensemble, each array stacked over trials."""

    a: np.ndarray
    b: np.ndarray
    re: np.ndarray  # Re A and Re B, indexed [side, trial]
    inv_re: np.ndarray  # (Re A)^-1 and (Re B)^-1, indexed [side, trial]


def _evaluate_pairs(spec: EnsembleSpec) -> _Pairs:
    pairs = np.stack([[x.mat for x in trial_pair(spec, i)] for i in range(spec.trials)], axis=1)
    re = real_part(pairs)
    return _Pairs(*pairs, re, inverse(re))


class _Means(NamedTuple):
    """The means of an ensemble, indexed [trial, weight] (then [scale])."""

    sharp: np.ndarray  # A #_lam B
    re_sharp: np.ndarray  # Re(A #_lam B)
    inv_re_sharp: np.ndarray  # (Re(A #_lam B))^-1
    flip: np.ndarray  # B #_(1-lam) A
    scales: tuple  # the homogeneity scales (alpha, beta)
    scaled: np.ndarray  # (alpha A) #_lam (beta B), one per homogeneity scale
    hpd: np.ndarray  # (Re A) #_lam (Re B)


def _evaluate_means(spec: EnsembleSpec, p: _Pairs, cfg: GeometricMeanConfig,
                    scales=HOMOGENEITY_SCALES) -> _Means:
    # Every mean of one weight, over all trials, is one batch; B #_(1-lam) A
    # joins the batch of 1-lam when that weight is also on the grid.  The
    # unit homogeneity scale is A #_lam B itself, bitwise, as 1.0 * A == A.
    scales = tuple((float(alpha), float(beta)) for alpha, beta in scales)
    batches = defaultdict(list)
    for j, lam in enumerate(spec.lambda_grid):
        batches[lam].append((("sharp", j), p.a, p.b))
        for k, (alpha, beta) in enumerate(scales):
            if (alpha, beta) != (1.0, 1.0):
                batches[lam].append((("scaled", j, k), alpha * p.a, beta * p.b))
        batches[1.0 - lam].append((("flip", j), p.b, p.a))
    got = {}
    for lam, jobs in batches.items():
        means = _geometric_mean(np.concatenate([x for _, x, _ in jobs]),
                                np.concatenate([y for _, _, y in jobs]), lam, cfg).value
        got.update(zip([slot for slot, _, _ in jobs], np.split(means, len(jobs))))
    grid = range(len(spec.lambda_grid))
    for j in grid:
        for k in range(len(scales)):
            got.setdefault(("scaled", j, k), got["sharp", j])

    def over_grid(*slot):
        return np.stack([got[(slot[0], j) + slot[1:]] for j in grid], axis=1)

    sharp = over_grid("sharp")
    re_sharp = real_part(sharp)
    return _Means(
        sharp=sharp,
        re_sharp=re_sharp,
        inv_re_sharp=inverse(re_sharp),
        flip=over_grid("flip"),
        scales=scales,
        scaled=np.stack([over_grid("scaled", k) for k in range(len(scales))], axis=2),
        # geometric_mean_hpd of every trial: the closed form on the stack
        hpd=np.stack([_hpd_congruence(*p.re, partial(hpd_power, p=lam))
                      for lam in spec.lambda_grid], axis=1),
    )


# -------------------------------------------------------------- predicates
#
# A predicate takes the spec, the pair and mean evaluations and the tolerance,
# and returns (holds, margin) arrays indexed [trial, comparison...], with a
# trial's comparisons in the order a per-trial check makes them.  For Loewner
# comparisons that is loewner_margin(...)[::2], its holds and normalized margin.


def _scalar_margin(lhs, rhs, tol: LoewnerTolerance):
    gap = rhs - lhs
    holds = gap >= -(tol.absolute + tol.relative * np.abs(rhs))
    return holds, gap / np.maximum(np.abs(rhs), 1e-30)


def _relative_margin(dev, norm, tol: LoewnerTolerance):
    rel = dev / np.maximum(norm, 1e-30)
    return ~(rel > tol.relative), -rel


# One call per element or matrix: numpy's vectorized power, its x * x and its
# norm over the last two axes round differently from these scalar forms.
_scalar_geometrics = np.vectorize(scalar_geometric, otypes=[float])
_squares = np.vectorize(lambda x: x**2, otypes=[float])
_frobs = np.vectorize(frob, signature="(n,n)->()", otypes=[float])


def _unit_vectors(spec: EnsembleSpec, tag: int, count: int) -> np.ndarray:
    # (trials, count, dim): each trial's vectors from its own seeded stream
    return np.stack([random_unit_vectors(spec.dim, count, derive_seed(spec.seed, tag, i))
                     for i in range(spec.trials)])


def _quadratic_forms(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # np.vdot(x, M @ x).real for m (..., d, d) and the vectors xs (..., count, d)
    return (xs.conj()[..., None, :] @ (m[..., None, :, :] @ xs[..., None]))[..., 0, 0].real


def _sum(terms: np.ndarray) -> np.ndarray:
    # Python's sum over the last axis, left to right from 0, on every element;
    # numpy's sum pairs the terms of a long axis.
    return sum(np.moveaxis(terms, -1, 0))


def _re_geometric(spec, p: _Pairs, m: _Means, tol):
    return loewner_margin(m.re_sharp, m.hpd, tol)[::2]


def _re_harmonic(spec, p: _Pairs, m, tol):
    # A !_lam B and (Re A) !_lam (Re B), indexed [side, trial, weight]
    lhs, rhs = _harmonic_path(np.stack([p.a, p.re[0]]), np.stack([p.b, p.re[1]]))(spec.lambda_grid)
    return loewner_margin(real_part(lhs), rhs, tol)[::2]


def _re_relative_entropy(spec, p: _Pairs, m, tol, cfg: EntropyConfig = EntropyConfig()):
    # relative_entropy_hpd of every trial: the closed form on the stack
    return loewner_margin(real_part(_entropy(p.a, p.b, cfg).value),
                          _hpd_congruence(*p.re, hpd_log), tol)[::2]


def _re_tsallis(spec, p: _Pairs, m: _Means, tol):
    lam = np.array(spec.lambda_grid)[:, None, None]
    return loewner_margin(real_part((m.sharp - p.a[:, None]) / lam),
                          (m.hpd - p.re[0][:, None]) / lam, tol)[::2]


def _vector_family(spec, p: _Pairs, m: _Means, tol, family_size: int = 3):
    xs = _unit_vectors(spec, _TAG_FAMILY, family_size)
    sum_a, sum_b = _sum(_quadratic_forms(p.inv_re, xs))[..., None]
    return _scalar_margin(_sum(_quadratic_forms(m.inv_re_sharp, xs[:, None])),
                          _scalar_geometrics(sum_a, sum_b, spec.lambda_grid), tol)


def _norm_inequality(spec, p: _Pairs, m: _Means, tol):
    norm_a, norm_b = op_norm(p.inv_re)[..., None]
    return _scalar_margin(op_norm(m.inv_re_sharp),
                          _scalar_geometrics(norm_a, norm_b, spec.lambda_grid), tol)


def _bilinear(spec, p: _Pairs, m: _Means, tol, pairs_per_trial: int = 8):
    xs = _unit_vectors(spec, _TAG_BILIN_X, pairs_per_trial)
    xstars = _unit_vectors(spec, _TAG_BILIN_XSTAR, pairs_per_trial)
    lhs = _squares((xs.conj()[..., None, :] @ xstars[..., None])[:, None, :, 0, 0].real)
    lam = np.array(spec.lambda_grid)[:, None]
    quad_ab = _scalar_geometrics(*_quadratic_forms(p.inv_re, xs)[:, :, None], lam)
    return _scalar_margin(lhs, _quadratic_forms(m.re_sharp, xstars[:, None]) * quad_ab, tol)


def _homogeneity(spec, p, m: _Means, tol):
    factor = _scalar_geometrics(*np.array(m.scales).T, np.array(spec.lambda_grid)[:, None])
    dev = _frobs(m.scaled - factor[..., None, None] * m.sharp[:, :, None])
    return _relative_margin(dev, _frobs(m.sharp)[..., None], tol)


def _symmetry(spec, p, m: _Means, tol):
    return _relative_margin(_frobs(m.sharp - m.flip), _frobs(m.sharp), tol)


#: the predicates of THEOREM_CHECKS, in order; the pair predicates read no means
_PREDICATES = (_re_geometric, _re_harmonic, _re_relative_entropy, _re_tsallis, _vector_family,
               _norm_inequality, _bilinear, _homogeneity, _symmetry)
_PAIR_PREDICATES = (_re_harmonic, _re_relative_entropy)
_TOLERANCES = {_homogeneity: LoewnerTolerance(absolute=0.0, relative=HOMOGENEITY_RTOL),
               _symmetry: LoewnerTolerance(absolute=0.0, relative=SYMMETRY_RTOL)}


def _reduce(property_id: str, tol: LoewnerTolerance, holds, margins, **extra) -> PropertyReport:
    # A trial with any failed comparison is a violation; the worst margin is
    # the first minimum in trial and comparison order.
    margins = np.reshape(margins, (len(margins), -1))
    k = int(np.argmin(margins))
    worst = float(margins.flat[k])
    return PropertyReport(
        property_id=property_id, trials=len(margins),
        violations=int(np.count_nonzero(~np.reshape(holds, margins.shape).all(axis=1))),
        worst_margin=worst if math.isfinite(worst) else 0.0,
        worst_seed=k // margins.shape[1], tolerance_used=tol, **extra)


def _alone(property_id: str, predicate, spec: EnsembleSpec, tol=DEFAULT_TOLERANCE,
           means_cfg=None, scales=HOMOGENEITY_SCALES, **options) -> PropertyReport:
    # A check called alone: its own evaluation (the means only when it reads
    # them), its predicate, the reduction.
    p = _evaluate_pairs(spec)
    m = None if means_cfg is None else _evaluate_means(spec, p, means_cfg, scales)
    tol = _TOLERANCES.get(predicate, tol)
    return _reduce(property_id, tol, *predicate(spec, p, m, tol, **options))


# ------------------------------------------------------------------ checks


def check_re_geometric(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                       cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Re(A #_lam B) >= (Re A) #_lam (Re B)."""
    return _alone("check_re_geometric", _re_geometric, spec, tol, cfg)


def check_re_harmonic(spec: EnsembleSpec,
                      tol: LoewnerTolerance = DEFAULT_TOLERANCE) -> PropertyReport:
    """Re(A !_lam B) >= (Re A) !_lam (Re B)."""
    return _alone("check_re_harmonic", _re_harmonic, spec, tol)


def check_re_relative_entropy(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                              cfg: EntropyConfig = EntropyConfig()) -> PropertyReport:
    """Re(S(A|B)) >= S(Re A | Re B)."""
    return _alone("check_re_relative_entropy", _re_relative_entropy, spec, tol, cfg=cfg)


def check_re_tsallis(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                     cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Re(T_lam(A|B)) >= T_lam(Re A | Re B), with T_lam(A|B) = (A #_lam B - A)/lam."""
    return _alone("check_re_tsallis", _re_tsallis, spec, tol, cfg)


def check_vector_family(spec: EnsembleSpec, family_size: int = 3,
                        tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                        cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """sum_k <(Re(A #_lam B))^-1 x_k, x_k> <= geometric mean of the Re-part sums."""
    if family_size < 1:
        raise ValueError(f"family_size must be >= 1, got {family_size}")
    return _alone("check_vector_family", _vector_family, spec, tol, cfg, family_size=family_size)


def check_norm_inequality(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                          cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """||(Re(A #_lam B))^-1|| <= ||(Re A)^-1||^(1-lam) * ||(Re B)^-1||^lam."""
    return _alone("check_norm_inequality", _norm_inequality, spec, tol, cfg)


def check_bilinear(spec: EnsembleSpec, pairs_per_trial: int = 8,
                   tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                   cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(Re <x*, x>)^2 <= <Re(A #_lam B) x*, x*> * (<(Re A)^-1 x,x> #_lam <(Re B)^-1 x,x>)."""
    if pairs_per_trial < 1:
        raise ValueError(f"pairs_per_trial must be >= 1, got {pairs_per_trial}")
    return _alone("check_bilinear", _bilinear, spec, tol, cfg, pairs_per_trial=pairs_per_trial)


def check_homogeneity(spec: EnsembleSpec, scales=HOMOGENEITY_SCALES,
                      cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(alpha A) #_lam (beta B) = alpha^(1-lam) beta^lam (A #_lam B)."""
    return _alone("check_homogeneity", _homogeneity, spec, means_cfg=cfg, scales=scales)


def check_symmetry(spec: EnsembleSpec,
                   cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """A #_lam B = B #_(1-lam) A."""
    return _alone("check_symmetry", _symmetry, spec, means_cfg=cfg)


def search_agh_counterexample(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                              cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """Hunt for accretive pairs breaking Re(A !_lam B) <= Re(A #_lam B) <= Re(A nabla_lam B).

    For positive definite pairs (angle 0) the chain provably holds; for wide
    sectors it is expected to fail, and `violations` counts the trials where
    at least one link broke.  Success of the search means violations >= 1.
    """
    lams = [0.5] + [l for l in spec.lambda_grid if l != 0.5]
    p = _evaluate_pairs(spec)
    # indexed [trial, weight]; the arithmetic mean is (1-lam) A + lam B
    re_sharp = real_part(np.stack([_geometric_mean(p.a, p.b, lam, cfg).value for lam in lams],
                                  axis=1))
    low = _harmonic_path(p.a, p.b)(lams)
    lam = np.array(lams)[:, None, None]
    high = (1.0 - lam) * p.a[:, None] + lam * p.b[:, None]
    links = ("harmonic<=geometric", "geometric<=arithmetic")
    holds, _, margins = loewner_margin(np.stack([re_sharp, real_part(high)], axis=2),
                                       np.stack([real_part(low), re_sharp], axis=2), tol)
    broken = np.flatnonzero(~holds)
    detail = None
    if broken.size:
        i, j, link = np.unravel_index(broken[0], holds.shape)
        detail = f"trial {i}: {links[link]} fails at lambda={lams[j]:g}"
    return _reduce("search_agh_counterexample", tol, holds, margins,
                   status="found" if broken.size else "warning", detail=detail)


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
    """Run the nine theorem-backed checks on one evaluation of the ensemble.

    The trial pairs and the means are evaluated once and passed to every
    check's predicate.  Per-check errors become reports with status "error"
    instead of aborting the remaining checks; an error of the means
    evaluation is reported by each of the seven checks that use the means.
    """
    p = m = failure = None
    try:
        p = _evaluate_pairs(spec)
        m = _evaluate_means(spec, p, GeometricMeanConfig())
    except SectorlabError as exc:
        failure = exc
    reports = []
    for fn, predicate in zip(THEOREM_CHECKS, _PREDICATES):
        tol = _TOLERANCES.get(predicate, DEFAULT_TOLERANCE)
        try:
            if (p if predicate in _PAIR_PREDICATES else m) is None:
                raise failure
            reports.append(_reduce(fn.__name__, tol, *predicate(spec, p, m, tol)))
        except SectorlabError as exc:
            reports.append(PropertyReport(
                property_id=fn.__name__, trials=0, violations=0, worst_margin=0.0,
                worst_seed=0, tolerance_used=DEFAULT_TOLERANCE,
                status="error", detail=f"{type(exc).__name__}: {exc}"))
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
    return all(r.violations == 0 and r.status != "error" for r in reports
               if r.property_id != "search_agh_counterexample")
