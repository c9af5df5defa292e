"""Gaussian quadrature on (0, 1) for matrix-valued integrands.

Rules are generated by the Golub-Welsch construction: eigenvalues of the
symmetric tridiagonal matrix built from the three-term recurrence of the
orthogonal polynomial family give the nodes, squared first eigenvector
components give the weights.  Up to 512 nodes one real symmetric LAPACK
``eigh`` solves it; scipy's ``eigh_tridiagonal``, imported only then, solves
larger ones.  Jacobi rules integrate against the weight ``t^beta * (1-t)^alpha``,
which absorbs the endpoint singularities of the Beta-type kernels used
throughout this package, so smooth factors converge spectrally.

One engine evaluates every integral: the integrand takes the whole node
array and returns the stack ``(n, d, d)`` of its values, so the library's
paths invert all nodes of a rule in one LAPACK call.  A batch of integrands
over one rule returns ``(jobs, n, d, d)`` and is still one LAPACK call and one
sum; each job's sum is bitwise the one it would get alone.  Finiteness is
checked on the reduced sum ``(jobs, d, d)``, which a non-finite node value
always reaches; only a non-finite sum is traced back to its first non-finite
node.  The engine alone names a node where the integrand raises: the first
that raises alone, unless the integrand raised ``EvaluationFailure`` itself.
The public ``integrate_matrix`` and ``integrate_adaptive`` take a per-node
integrand and stack its values node by node onto the same engine.
Rules are cached as validated objects.  Every node count, of a rule, of a
config (its fixed count and its cap, checked when the config is built) or of
``integrate_adaptive``'s cap, obeys the package's one integer rule,
``linalg._check_integer``, every mean weight ``check_weight`` and every tol ``_check_tol``.
One :class:`QuadratureConfig` sets every library integral, and ``_evaluate``
alone applies it, to stacked pairs with one job each: the exponents of the
pair's Gauss-Jacobi rule, its factor and the constant K of its error bound.
It groups the pairs by rule, a node count and exponents, and builds each rule
once.  The path then takes one row per node of each pair, with the pair's
index, so the node rows of all groups are inverted in one LAPACK call per
batch of whole pairs and at most ``_BATCH_ENTRIES`` entries: one per
evaluation unless it is large.  Each group's rows are its ``(pairs, n, d, d)``
block, summed as above, so each sum keeps its bits.  Where pairs fail, the
first raises what its lone call raises: ``linalg._inv`` names the first node
row that fails, with the error that row raises alone.  ``_evaluate`` returns
the values as one stack, with each pair's estimate and node count; a lone pair
keeps its own path, with no rows.

Every library path is t -> ((1-t) X + t Y)^-1 or built on it, with poles at
t = 1/(1 - mu) over the eigenvalues mu of its ratio X^-1 Y, and the Gauss error
of an integrand analytic inside the Bernstein ellipse through the nearest pole
falls like rho^(-2n) (Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Rev. 50, 2008).  The default ``rule_nodes="auto"``
takes mu for all pairs from one stacked ``eigvals`` and gives each pair the
fewest nodes on a fixed ladder, 8, 16, ... 512, 768, ... 4096, up to the
config's ``max_nodes`` (512 by default), with K rho^(-2n) <= tol, where K is
calibrated per integral kind against scipy's spectral forms and given in
each pair's job; the rules above 512 nodes load scipy.  Each
pair's rule is evaluated once, at its count, so every result is bitwise the
fixed rule's at its node count.  That bound, times
||A||_F of the pair and scaled like the value, is the pair's error estimate: it
bounds the truncation error, not the rounding.  So a tolerance below four
rounding units, which no rule can meet, raises ``NoConvergence`` before
anything is integrated.  A pole on (0, 1], a real mu <= 0, which no accretive
pair has, raises it too, and so does a pair that needs more nodes than the
ladder's top, with its result at that top count as payload.  An integer
``rule_nodes`` is a fixed rule of that many nodes for every pair, with no
estimate.

The public ``integrate_adaptive`` takes any per-node integrand, whose poles it
cannot see, so it doubles the node count from 16 until two successive
integrals agree to the tolerance, and reports their difference as the
estimate.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    EvaluationFailure,
    InvalidNodeCount,
    InvalidParameters,
    InvalidWeight,
    NoConvergence,
    SectorlabError,
)
from .linalg import _check_integer, _is_real, _slice_frobs, frob

MAX_NODES = 4096

_EPS = float(np.finfo(float).eps)

_POLE_ON_INTERVAL = "the integrand has a pole on (0, 1]: the pair is not accretive"

#: Rules of up to this many nodes come from one real symmetric LAPACK ``eigh``
#: of the dense Jacobi matrix's lower triangle: at 512 nodes 39 ms and 8 MB of
#: workspace, against 14 ms for scipy's ``eigh_tridiagonal`` plus a one-time 0.3 s,
#: 27 MB import (one BLAS thread, 2-vCPU x86 machine).  At 1024 nodes it takes
#: 217 ms and 33 MB against 59 ms, so larger rules, up to MAX_NODES, load scipy.
_OWN_EIG_LIMIT = 512

#: The node counts that the error bound chooses from, up to the config's
#: ``max_nodes``; its default, _OWN_EIG_LIMIT, keeps an automatic rule from
#: loading scipy.
_LADDER = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)

#: The smallest ``tol`` the error bound takes, relative to ||A||_F: four rounding
#: units.  Below it rounding, not truncation, sets the error of every rule, so no
#: node count can meet the tolerance, however small its bound.
_TOL_FLOOR = 4.0 * _EPS

#: Largest batch of pairs integrated in one stack, in complex entries of the
#: (jobs, nodes, d, d) node stack (4 MiB): batching saves per-call overhead on
#: small matrices, and this cap keeps large-dimension batches from piling up
#: memory that a pair integrated alone never needs.
_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes on the open interval (0, 1) and positive, finite weights."""

    kind: str  # "legendre" or "jacobi"
    alpha: float
    beta: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.nodes
        w = self.weights
        if n.ndim != 1 or w.shape != n.shape:
            raise InvalidParameters("nodes and weights must be 1-d arrays of equal length")
        if not n.size:
            raise InvalidParameters("a rule needs at least one node")
        # Increasing nodes lie inside (0, 1) when the end nodes do; a NaN fails a comparison,
        # and min propagates it.
        if not (n[0] > 0.0 and n[-1] < 1.0 and np.all(n[1:] > n[:-1])):
            raise InvalidParameters("nodes must be strictly increasing inside (0, 1)")
        if not (w.min() > 0.0 and w.max() < math.inf):
            raise InvalidParameters("weights must be strictly positive and finite")

    @property
    def count(self) -> int:
        return len(self.nodes)


def _beta_fn(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@lru_cache(maxsize=256)
def _rule_cached(kind: str, n: int, alpha: float, beta: float) -> QuadratureRule:
    # Monic Jacobi recurrence on [-1, 1] with weight (1-x)^alpha (1+x)^beta,
    # then the affine map to (0, 1).  The validated rule itself is cached, so
    # a warm call skips the construction and the checks in __post_init__.
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1, n, dtype=float)
    diag[1:] = (beta**2 - alpha**2) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.empty(n - 1)
    if n > 1:
        off[0] = math.sqrt(4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0)))
    k = np.arange(2, n, dtype=float)
    num = 4.0 * k * (k + alpha) * (k + beta) * (k + ab)
    den = (2.0 * k + ab) ** 2 * (2.0 * k + ab + 1.0) * (2.0 * k + ab - 1.0)
    off[1:] = np.sqrt(num / den)
    if n <= _OWN_EIG_LIMIT:
        # the diagonal and, for UPLO="L", the subdiagonal, each one strided write
        tri = np.zeros((n, n))
        tri.ravel()[::n + 1] = diag
        tri.ravel()[n::n + 1] = off
        try:
            x, vecs = np.linalg.eigh(tri, UPLO="L")
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc
    else:
        from scipy.linalg import eigh_tridiagonal

        x, vecs = eigh_tridiagonal(diag, off)
    first = vecs[0, :] ** 2
    mass = _beta_fn(beta + 1.0, alpha + 1.0)
    nodes = (x + 1.0) / 2.0
    # Rescale so the weights carry the analytic total mass to one ulp; the
    # raw |v_0|^2 components sum to 1 only up to eigensolver rounding.
    weights = (mass / float(np.sum(first))) * first
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind, alpha, beta, nodes, weights)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [0, 1] (weight 1)."""
    n = _check_integer("node count", n, 1, MAX_NODES, InvalidNodeCount)
    return _rule_cached("legendre", n, 0.0, 0.0)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """n-node Gauss-Jacobi rule on [0, 1] for the weight t^beta (1-t)^alpha."""
    n = _check_integer("node count", n, 1, MAX_NODES, InvalidNodeCount)
    if not (alpha > -1.0 and beta > -1.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidParameters(f"Jacobi exponents must be > -1, got alpha={alpha}, beta={beta}")
    return _rule_cached("jacobi", n, float(alpha), float(beta))


def check_weight(lam: float) -> float:
    """Validate a mean weight, a real number but not a bool; the endpoints 0
    and 1 are rejected."""
    if not _is_real(lam):
        raise InvalidWeight(f"weight must be a real number, got {lam!r}")
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise InvalidWeight(f"weight must lie strictly inside (0, 1), got {lam!r}")
    return lam


def beta_normalization(lam: float) -> float:
    """B(lam, 1-lam) = pi / sin(lam*pi), the total mass of the mean's kernel."""
    return math.pi / math.sin(check_weight(lam) * math.pi)


@dataclass(frozen=True)
class IntegralResult:
    """Integration outcome: the value, its error estimate and the node count.

    An integer ``rule_nodes`` gives no error estimate (``None``); a count
    chosen from the pair's poles, and ``integrate_adaptive``, give one.
    """

    value: np.ndarray
    error_estimate: float | None
    nodes_used: int

    def __post_init__(self):
        err = self.error_estimate
        if err is not None and not (math.isfinite(err) and err >= 0.0):
            raise ValueError(f"error estimate must be finite and >= 0, got {err}")


def _scaled(value, err, factor):
    # Multiply integrals and their error estimates by factor: a float, or one per job
    # (jobs, 1, 1).  No estimate stays None.
    return factor * value, None if err is None else factor * err


#: An integrand over the whole node array: nodes (n,) -> values (n, d, d).
#: A batch of integrands returns (jobs, n, d, d), one stack per job.
StackedIntegrand = Callable[[np.ndarray], np.ndarray]


def _integrate(rule: QuadratureRule, f: StackedIntegrand) -> np.ndarray:
    # Sum w_k * f(t)_k over the stacked values f(nodes), in ascending node order.
    # A batch (jobs, n, d, d) reduces over its node axis in one sum, which
    # leaves every job bitwise the sum it would get alone.
    # A non-finite node value makes its job's sum non-finite, so the sum is
    # checked; only a non-finite sum pays for the scan of the node stack.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            vals = np.asarray(f(rule.nodes), dtype=np.complex128)
        except EvaluationFailure:
            raise
        except Exception:
            # A stacked failure does not say which node failed: name the first that raises
            # alone.  If none does (per-node values that do not stack), the failure stands.
            for t in rule.nodes:
                try:
                    f(np.array([t]))
                except Exception as exc:
                    raise _raised_at(float(t), exc) from exc
            raise
        total = np.sum(vals * rule.weights[:, None, None], axis=-3)
    if not np.isfinite(total).all():
        _check_nodes(rule.nodes, np.isfinite(vals).all(axis=(-2, -1)).reshape(-1, rule.count).all(axis=0))
    return total


def _raised_at(t: float, exc: Exception) -> EvaluationFailure:
    return EvaluationFailure(f"integrand raised at node t={t!r}: {exc}", node=t)


def _check_nodes(nodes: np.ndarray, finite: np.ndarray) -> None:
    # raise for the first of the nodes whose value is not finite, by finite, one flag per node
    if not finite.all():
        t = float(nodes[np.argmin(finite)])
        raise EvaluationFailure(f"integrand non-finite at node t={t!r}", node=t)


def _log_rho(mu: np.ndarray) -> np.ndarray:
    # The log Bernstein-ellipse parameter of each pole t = 1/(1 - mu) of a path.  With
    # x = 2t - 1 and s = sqrt(mu) on the principal branch, rho = |x + sqrt(x^2 - 1)|
    # = |1 + s| / |1 - s|, and log rho = log1p(4 Re s / |1 - s|^2) / 2 keeps its digits
    # for poles near [0, 1].  It is 0 exactly for real mu <= 0, a pole on (0, 1].
    s = np.sqrt(mu)
    r = np.maximum(np.abs(1.0 - s), 1e-150)  # no pole is at least as far as mu = 1 +- 1e-150
    return 0.5 * np.log1p(4.0 * s.real / r / r)


def _check_tol(tol) -> float:
    if not _is_real(tol):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not 0.0 < tol <= sys.float_info.max:
        raise ValueError(f"tol must be {'finite' if tol > 0.0 else '> 0'}, got {tol}")
    return float(tol)


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature of every integral.  With ``rule_nodes="auto"``, each pair's
    rule has the fewest nodes on a fixed ladder, up to ``max_nodes``, whose
    error bound from the poles of the pair's path meets ``tol``; an integer
    gives a fixed rule of that many nodes.  ``max_nodes``, in [32, 4096], is
    512 by default, so an automatic rule never loads scipy; 4096 is the
    ``*_adaptive`` functions' default.  The tolerance, a finite real > 0, is
    relative to ||A||_F of the pair being integrated; one below four rounding
    units raises ``NoConvergence`` wherever the bound chooses the count.
    ``GeometricMeanConfig`` and ``EntropyConfig`` are this class.
    """

    rule_nodes: int | str = "auto"
    tol: float = 1e-12
    max_nodes: int = _OWN_EIG_LIMIT

    def __post_init__(self):
        if not (isinstance(self.rule_nodes, str) and self.rule_nodes == "auto"):
            nodes = _check_integer("rule_nodes", self.rule_nodes, 1, MAX_NODES)
            object.__setattr__(self, "rule_nodes", nodes)  # a Python int, so nodes_used serializes
        object.__setattr__(self, "tol", _check_tol(self.tol))
        object.__setattr__(self, "max_nodes", _check_integer("max_nodes", self.max_nodes, 32, MAX_NODES))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class _Integrals:
    # The integrals of stacked pairs, (jobs, d, d), with each pair's estimate and node count.
    value: np.ndarray
    error_estimates: list
    nodes_used: list

    def __getitem__(self, k: int) -> IntegralResult:
        return IntegralResult(self.value[k], self.error_estimates[k], self.nodes_used[k])


def _evaluate(path, ab: np.ndarray, jobs: list, cfg: QuadratureConfig,
              finish=_scaled) -> _Integrals:
    # path(ab) integrated for the stacked pairs ab = (A, B), (2, jobs, d, d), one job per pair:
    # (alpha, beta, factor, bound), its Gauss-Jacobi exponents, the factor that
    # finish(values, estimates, factors) -> (values, estimates) applies and K, its bound
    # constant, calibrated per integral kind.  The path is built once for all pairs; each
    # pair's count is cfg.rule_nodes or, under "auto", the smallest on _LADDER, up to
    # cfg.max_nodes, with K rho^(-2n) <= cfg.tol (see the module docstring).  The pairs are
    # grouped by rule, a count and exponents, before any rule is built, so each is built once
    # per evaluation; the node rows of all groups are inverted together, in batches (see
    # _integrate_rows), and all pairs are finished at once.
    ladder = None
    if cfg.rule_nodes == "auto":
        ladder = _LADDER[:bisect_right(_LADDER, cfg.max_nodes)]
        if not cfg.tol >= _TOL_FLOOR:
            raise NoConvergence(f"tol={cfg.tol:g} is below the rounding floor {_TOL_FLOOR:.1e}")
    # A lone pair skips the job axis, on which numpy's ops cost a few microseconds more.
    lone = len(jobs) == 1
    p = path(ab[:, 0] if lone else ab)
    counts, errs = [cfg.rule_nodes] * len(jobs), [None] * len(jobs)
    if ladder:
        # Scalar work per pair: numpy's overhead on arrays this small exceeds it.
        counts, errs = [], []
        log_rho = _log_rho(np.linalg.eigvals(p.ratio())).reshape(len(jobs), -1).min(axis=1)
        norms = [frob(ab[0, 0])] if lone else _slice_frobs(ab[0])
        for k, (r, norm, (alpha, beta, factor, bound)) in enumerate(zip(log_rho.tolist(), norms, jobs)):
            if not r > 0.0:
                raise NoConvergence(_POLE_ON_INTERVAL)
            i = bisect_left(ladder, math.log(bound / cfg.tol) / 2.0 / r)
            counts.append(ladder[min(i, len(ladder) - 1)])
            errs.append(bound * math.exp(-2.0 * counts[k] * r) * (norm or 1.0))
            if i == len(ladder):
                message = f"tol={cfg.tol:g} needs more than {ladder[-1]} nodes"
                rule = (counts[k], alpha, beta)
                try:  # the payload, unless it fails or its bound overflows to inf
                    value = (_integrate(gauss_jacobi(*rule), p) if lone
                             else _integrate_rows(p, {rule: [k]}, ab.shape[1:])[k])
                    payload = IntegralResult(*finish(value, errs[k], factor), counts[k])
                except (SectorlabError, ValueError) as exc:
                    raise NoConvergence(message) from exc
                raise NoConvergence(message, payload)
    if lone:
        # Python floats for the factor and the estimate, not (1, 1, 1) arrays
        alpha, beta, factor, _ = jobs[0]
        value, err = finish(_integrate(gauss_jacobi(counts[0], alpha, beta), p), errs[0], factor)
        return _Integrals(value[None], [err], counts)
    groups = {}
    for k, (n, (alpha, beta, _, _)) in enumerate(zip(counts, jobs)):
        groups.setdefault((n, alpha, beta), []).append(k)
    value, errs = finish(_integrate_rows(p, groups, ab.shape[1:]),
                         np.array(errs)[:, None, None] if ladder else None,
                         np.array([factor for _, _, factor, _ in jobs])[:, None, None])
    return _Integrals(value, [None] * len(jobs) if errs is None else errs.ravel().tolist(), counts)


def _integrate_rows(p, groups: dict, shape: tuple) -> np.ndarray:
    # The integrals (pairs, d, d) of the listed pairs of every group {(count, alpha, beta):
    # pairs} of the stacked path p, whose node rows are inverted in one call per batch.  A
    # batch holds whole pairs, and at most _BATCH_ENTRIES complex entries unless one pair
    # alone has more.  Its rows are group-major, pair-major and node-minor, so each group's
    # rows in it are the (pairs, n, d, d) block that _integrate would sum, and every sum
    # keeps its bits.  A failure is the first failing pair's, as its lone call raises it:
    # where the path raises, _inv names the first failing row, and where a group's sums are
    # not finite, the first pair with a non-finite node value names its first such node.
    size = math.prod(shape[1:])
    raw = np.empty(shape, dtype=np.complex128)
    batches, room = [], 0
    for (n, alpha, beta), pairs in groups.items():
        rule, per_pair = gauss_jacobi(n, alpha, beta), n * size
        while pairs:
            if room < per_pair:  # a new batch, which one pair alone may overfill
                batches.append([])
                room = max(_BATCH_ENTRIES, per_pair)
            head, pairs = pairs[:room // per_pair], pairs[room // per_pair:]
            batches[-1].append((rule, head))
            room -= len(head) * per_pair
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in batches:
            nodes = np.concatenate([np.tile(rule.nodes, len(pairs)) for rule, pairs in batch])
            rows = np.concatenate([np.repeat(pairs, rule.count) for rule, pairs in batch])
            try:
                vals = p(nodes, rows)
            except SectorlabError as exc:
                if not hasattr(exc, "slice"):
                    raise
                # the batch's pairs before the failing row's, whose rows pass, fail first
                # where a value is not finite
                head = int(np.argmax(rows == rows[exc.slice]))
                if head:
                    _check_nodes(nodes[:head], np.isfinite(p(nodes[:head], rows[:head])).all(axis=(-2, -1)))
                raise _raised_at(float(nodes[exc.slice]), exc) from exc
            start = 0
            for rule, pairs in batch:
                block = vals[start:start + len(pairs) * rule.count]
                block = block.reshape(len(pairs), rule.count, *shape[1:])
                sums = np.sum(block * rule.weights[:, None, None], axis=-3)
                if not np.isfinite(sums).all():
                    for finite in np.isfinite(block).all(axis=(-2, -1)):
                        _check_nodes(rule.nodes, finite)
                raw[pairs] = sums
                start += len(pairs) * rule.count
    return raw


def _stacked(f: Callable[[float], np.ndarray]) -> StackedIntegrand:
    # Adapt a per-node integrand to the engine; _integrate names a node it fails at.
    return lambda nodes: np.stack([np.asarray(f(float(t)), dtype=np.complex128) for t in nodes])


def integrate_matrix(rule: QuadratureRule, f: Callable[[float], np.ndarray]) -> np.ndarray:
    """Sum w_k * f(t_k) over the rule's nodes, in ascending node order; each
    f(t_k) is a (d, d) matrix.

    The reduction adds the node terms one after another in that fixed order,
    so results are deterministic, and the rounding bound grows like n * eps.
    """
    return _integrate(rule, _stacked(f))


def integrate_adaptive(
    f: Callable[[float], np.ndarray],
    rule_factory: Callable[[int], QuadratureRule],
    tol: float,
    max_nodes: int = MAX_NODES,
) -> IntegralResult:
    """Node-doubling integration from 16 nodes until successive results agree.

    Doubles the node count until the Frobenius distance between consecutive
    results drops to ``tol``.  Raises :class:`NoConvergence` if ``max_nodes``
    is reached first; the best result rides along as the error's ``payload``.
    """
    tol = _check_tol(tol)
    _check_integer("max_nodes", max_nodes, 32, MAX_NODES)  # 32 allows one doubling
    f = _stacked(f)
    n = 16
    prev = _integrate(rule_factory(n), f)
    while 2 * n <= max_nodes:
        n *= 2
        cur = _integrate(rule_factory(n), f)
        err = frob(cur - prev)
        if err <= tol:
            return IntegralResult(value=cur, error_estimate=err, nodes_used=n)
        prev = cur
    raise NoConvergence(
        f"adaptive integration did not reach tol={tol:g} within {max_nodes} nodes",
        payload=IntegralResult(value=prev, error_estimate=err, nodes_used=n),
    )
