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
stacked over trials.  The pairs: every trial pair, all drawn in one stacked
pass with per-trial seeding (see ``ensemble``), with Re A, Re B, their inverses
and the HPD closed forms, which factor Re A and (Re A)^-1/2 Re B (Re A)^-1/2
once and give (Re A) #_lam (Re B) of every weight and S(Re A | Re B).  The
means: A #_lam B, B #_(1-lam) A and the homogeneity means of every weight and
trial in one call, whose node rows the quadrature engine inverts in one
LAPACK call per batch.  The arrays built here go to ``linalg``'s private
cores, not back through its public validators.  A predicate
returns whether each comparison holds and its margin as arrays indexed
[trial, ...], and one reduction makes the report: a trial with a failed
comparison is a violation, and the worst margin is the first minimum in trial
order.  ``run_all`` makes both evaluations once for its nine predicates; a
check called alone makes its own, with only the means it reads.  When the
means raise, the seven checks that read them report the error.  Stacked means
and inverses are bitwise the public functions' for one trial alone.  Margins
use numpy's stacked power, square and per-slice norm, sums add in Python's
order, and the tests' per-trial reference pins that no report depends on the stacking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ensemble import (
    GENERATOR_NAME,
    _random_accretive_stack,
    _random_accretives,
    _random_unit_vectors,
    derive_seed,
)
from .entropy import EntropyConfig, _tsallis_entropy
from .errors import SectorlabError
from .linalg import (
    _LOG,
    MAX_DIM,
    LoewnerTolerance,
    _check_integer,
    _frob_scaled,
    _is_real,
    _inv,
    _op_norm,
    _power,
    _symmetrize,
    loewner_margin,
)
from .means import (
    GeometricMeanConfig,
    _geometric_mean,
    _harmonic_path,
    _hpd_congruence,
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
        for name, low, high in (("dim", 1, MAX_DIM), ("trials", 1, None), ("seed", 0, None)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low, high))
        if not (_is_real(self.sector_angle) and 0.0 <= self.sector_angle < math.pi / 2):
            raise ValueError(f"sector_angle must lie in [0, pi/2), got {self.sector_angle}")
        if not isinstance(self.lambda_grid, (tuple, list)):
            raise ValueError(f"lambda_grid must be a tuple or list of weights, got {self.lambda_grid!r}")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must not be empty")
        for lam in self.lambda_grid:
            if not (_is_real(lam) and 0.0 < lam < 1.0):
                raise ValueError(f"lambda grid entries must lie in (0, 1), got {lam}")
        object.__setattr__(self, "sector_angle", float(self.sector_angle))
        object.__setattr__(self, "lambda_grid", tuple(float(lam) for lam in self.lambda_grid))


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
        tol = self.tolerance_used
        out = {"property_id": self.property_id, "trials": self.trials, "violations": self.violations,
               "worst_margin": self.worst_margin, "worst_seed": self.worst_seed,
               "tolerance": {"absolute": tol.absolute, "relative": tol.relative},
               "status": self.status, "detail": self.detail}
        return {k: v for k, v in out.items() if v is not None}  # status and detail where set


def _draw(spec: EnsembleSpec, trials, draws=_random_accretives):
    # the A of every listed trial, then their B, in one stacked draw
    return draws(spec.dim, spec.sector_angle, ENSEMBLE_COND_CAP,
                 [derive_seed(spec.seed, tag, i) for tag in (_TAG_PAIR_A, _TAG_PAIR_B) for i in trials])


def trial_pair(spec: EnsembleSpec, trial: int):
    """The deterministic accretive pair used by every check for this trial."""
    return tuple(_draw(spec, [trial]))


# --------------------------------------------------------------- evaluation


class _Pairs(NamedTuple):
    """Every trial pair of an ensemble, each array stacked over trials."""

    a: np.ndarray
    b: np.ndarray
    re: np.ndarray  # Re A and Re B, indexed [side, trial]
    inv_re: np.ndarray  # (Re A)^-1 and (Re B)^-1, indexed [side, trial]
    hpd: Callable  # means._hpd_congruence of (Re A, Re B), stacked over trials


def _evaluate_pairs(spec: EnsembleSpec) -> _Pairs:
    # every trial pair of the report from one stacked draw, bitwise trial_pair's
    pairs = _draw(spec, range(spec.trials), _random_accretive_stack)
    pairs = pairs.reshape(2, spec.trials, *pairs.shape[1:])
    re = _symmetrize(pairs)
    return _Pairs(*pairs, re, _inv(re), _hpd_congruence(*re))


class _Means(NamedTuple):
    """The means of an ensemble, indexed [trial, weight] (then [scale]); flip is
    None and scaled empty where the evaluation was not asked for them."""

    sharp: np.ndarray  # A #_lam B
    re_sharp: np.ndarray  # Re(A #_lam B)
    inv_re_sharp: np.ndarray  # (Re(A #_lam B))^-1
    flip: np.ndarray  # B #_(1-lam) A
    scales: tuple  # the homogeneity scales (alpha, beta)
    scaled: np.ndarray  # (alpha A) #_lam (beta B), one per homogeneity scale
    hpd: np.ndarray  # (Re A) #_lam (Re B)


def _evaluate_means(spec: EnsembleSpec, p: _Pairs, cfg: GeometricMeanConfig,
                    scales=HOMOGENEITY_SCALES, flip: bool = True) -> _Means:
    # All the means are one call: per weight, A #_lam B, the homogeneity means
    # of the given scales and, if flip, B #_(1-lam) A, each over all trials.  The
    # unit scale's mean is A #_lam B itself, bitwise, as 1.0 * A == A.  A mean
    # does not depend on the others in the call, so a check alone asks only for
    # the means it reads.
    scales = tuple((float(alpha), float(beta)) for alpha, beta in scales)
    own = list(dict.fromkeys([(1.0, 1.0), *scales]))  # each scale once, the unit first
    jobs = []
    for lam in spec.lambda_grid:
        jobs += [(alpha * p.a, beta * p.b, lam) for alpha, beta in own]
        if flip:
            jobs.append((p.b, p.a, 1.0 - lam))
    x, y, lams = zip(*jobs)
    means = _geometric_mean(np.concatenate(x), np.concatenate(y),
                            [lam for lam in lams for _ in range(spec.trials)], cfg).value
    # indexed [trial, weight, job of the weight]
    means = np.moveaxis(means.reshape(len(spec.lambda_grid), -1, *p.a.shape), 2, 0)
    sharp = means[:, :, 0]
    re_sharp = _symmetrize(sharp)
    return _Means(
        sharp=sharp,
        re_sharp=re_sharp,
        inv_re_sharp=_inv(re_sharp),
        flip=means[:, :, -1] if flip else None,
        scales=scales,
        scaled=means[:, :, [own.index(s) for s in scales]],
        # geometric_mean_hpd of every trial: the closed form on the stack
        hpd=np.stack([p.hpd(_power(lam)) for lam in spec.lambda_grid], axis=1),
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
    rel = dev / np.maximum(norm, np.finfo(float).tiny)  # a guard for an exact zero only
    return ~(rel > tol.relative), -rel


def _unit_vectors(spec: EnsembleSpec, tag: int, count: int) -> np.ndarray:
    # (trials, count, dim): each trial's vectors from its own seeded stream
    return _random_unit_vectors(spec.dim, count, [derive_seed(spec.seed, tag, i)
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
    lhs, rhs = _harmonic_path(np.array([[p.a, p.re[0]], [p.b, p.re[1]]]))(spec.lambda_grid)
    return loewner_margin(_symmetrize(lhs), rhs, tol)[::2]


def _re_relative_entropy(spec, p: _Pairs, m, tol, cfg: EntropyConfig = EntropyConfig()):
    # relative_entropy_hpd of every trial: the closed form on the stack
    return loewner_margin(_symmetrize(_tsallis_entropy(p.a, p.b, [0.0] * spec.trials, cfg).value),
                          p.hpd(_LOG), tol)[::2]


def _re_tsallis(spec, p: _Pairs, m: _Means, tol):
    lam = np.array(spec.lambda_grid)[:, None, None]
    return loewner_margin(_symmetrize((m.sharp - p.a[:, None]) / lam),
                          (m.hpd - p.re[0][:, None]) / lam, tol)[::2]


def _vector_family(spec, p: _Pairs, m: _Means, tol, family_size: int = 3):
    xs = _unit_vectors(spec, _TAG_FAMILY, family_size)
    sum_a, sum_b = _sum(_quadratic_forms(p.inv_re, xs))[..., None]
    lam = np.array(spec.lambda_grid)
    return _scalar_margin(_sum(_quadratic_forms(m.inv_re_sharp, xs[:, None])),
                          sum_a ** (1 - lam) * sum_b**lam, tol)


def _norm_inequality(spec, p: _Pairs, m: _Means, tol):
    norm_a, norm_b = _op_norm(p.inv_re)[..., None]
    lam = np.array(spec.lambda_grid)
    return _scalar_margin(_op_norm(m.inv_re_sharp), norm_a ** (1 - lam) * norm_b**lam, tol)


def _bilinear(spec, p: _Pairs, m: _Means, tol, pairs_per_trial: int = 8):
    xs = _unit_vectors(spec, _TAG_BILIN_X, pairs_per_trial)
    xstars = _unit_vectors(spec, _TAG_BILIN_XSTAR, pairs_per_trial)
    lhs = np.square((xs.conj()[..., None, :] @ xstars[..., None])[:, None, :, 0, 0].real)
    lam = np.array(spec.lambda_grid)[:, None]
    quad_a, quad_b = _quadratic_forms(p.inv_re, xs)[:, :, None]
    quad_ab = quad_a ** (1 - lam) * quad_b**lam
    return _scalar_margin(lhs, _quadratic_forms(m.re_sharp, xstars[:, None]) * quad_ab, tol)


def _homogeneity(spec, p, m: _Means, tol):
    (alpha, beta), lam = np.array(m.scales).T, np.array(spec.lambda_grid)[:, None]
    want = (alpha ** (1 - lam) * beta**lam)[..., None, None] * m.sharp[:, :, None]
    return _relative_margin(_frob_scaled(m.scaled - want), _frob_scaled(want), tol)


def _symmetry(spec, p, m: _Means, tol):
    return _relative_margin(_frob_scaled(m.sharp - m.flip), _frob_scaled(m.sharp), tol)


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
           means_cfg=None, scales=(), **options) -> PropertyReport:
    # A check called alone: its own evaluation, with only the means it reads
    # (none, or A #_lam B with the homogeneity check's scales or the symmetry
    # check's flipped means), its predicate, the reduction.
    p = _evaluate_pairs(spec)
    m = None if means_cfg is None else _evaluate_means(spec, p, means_cfg, scales,
                                                       flip=predicate is _symmetry)
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
    _check_integer("family_size", family_size, 1)
    return _alone("check_vector_family", _vector_family, spec, tol, cfg, family_size=family_size)


def check_norm_inequality(spec: EnsembleSpec, tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                          cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """||(Re(A #_lam B))^-1|| <= ||(Re A)^-1||^(1-lam) * ||(Re B)^-1||^lam."""
    return _alone("check_norm_inequality", _norm_inequality, spec, tol, cfg)


def check_bilinear(spec: EnsembleSpec, pairs_per_trial: int = 8,
                   tol: LoewnerTolerance = DEFAULT_TOLERANCE,
                   cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(Re <x*, x>)^2 <= <Re(A #_lam B) x*, x*> * (<(Re A)^-1 x,x> #_lam <(Re B)^-1 x,x>)."""
    _check_integer("pairs_per_trial", pairs_per_trial, 1)
    return _alone("check_bilinear", _bilinear, spec, tol, cfg, pairs_per_trial=pairs_per_trial)


def check_homogeneity(spec: EnsembleSpec, scales=HOMOGENEITY_SCALES,
                      cfg: GeometricMeanConfig = GeometricMeanConfig()) -> PropertyReport:
    """(alpha A) #_lam (beta B) = alpha^(1-lam) beta^lam (A #_lam B), the deviation
    relative to the Frobenius norm of the right side."""
    scales = tuple(scales)
    if len(scales) == 0:
        raise ValueError("scales must not be empty")
    for entry in scales:
        if not (isinstance(entry, (tuple, list, np.ndarray)) and len(entry) == 2
                and all(_is_real(v) and 0.0 < v < math.inf for v in entry)):
            raise ValueError("scales must be (alpha, beta) pairs of positive finite reals, "
                             f"got {entry!r}")
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
    # all weights in one call, indexed [trial, weight]; the arithmetic mean is (1-lam) A + lam B
    sharp = _geometric_mean(np.concatenate([p.a] * len(lams)), np.concatenate([p.b] * len(lams)),
                            [lam for lam in lams for _ in range(spec.trials)], cfg).value
    re_sharp = _symmetrize(np.moveaxis(sharp.reshape(len(lams), *p.a.shape), 0, 1))
    low = _harmonic_path(np.array((p.a, p.b)))(lams)
    lam = np.array(lams)[:, None, None]
    high = (1.0 - lam) * p.a[:, None] + lam * p.b[:, None]
    links = ("harmonic<=geometric", "geometric<=arithmetic")
    holds, _, margins = loewner_margin(np.stack([re_sharp, _symmetrize(high)], axis=2),
                                       np.stack([_symmetrize(low), re_sharp], axis=2), tol)
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


def _reported(property_id: str, check, *args) -> PropertyReport:
    # check(*args), or where it raises a SectorlabError, the report with status "error"
    try:
        return check(*args)
    except SectorlabError as exc:
        return PropertyReport(property_id, 0, 0, 0.0, 0, DEFAULT_TOLERANCE, "error",
                              f"{type(exc).__name__}: {exc}")


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

    def check(property_id, predicate):
        if (p if predicate in _PAIR_PREDICATES else m) is None:
            raise failure
        tol = _TOLERANCES.get(predicate, DEFAULT_TOLERANCE)
        return _reduce(property_id, tol, *predicate(spec, p, m, tol))

    return [_reported(fn.__name__, check, fn.__name__, predicate)
            for fn, predicate in zip(THEOREM_CHECKS, _PREDICATES)]


def run_checks(spec: EnsembleSpec, property_ids) -> list[PropertyReport]:
    """Run the named checks alone; a SectorlabError is reported as ``run_all`` reports it."""
    return [_reported(i, CHECKS_BY_ID[i], spec) for i in property_ids]


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
    """True when every theorem-backed report ran and saw zero violations; a
    search is told apart by its status, "found" or "warning", which only it sets."""
    return all(r.violations == 0 and r.status != "error" for r in reports
               if r.status not in ("found", "warning"))
