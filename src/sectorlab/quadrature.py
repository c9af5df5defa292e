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
node.  The public ``integrate_matrix`` and ``integrate_adaptive`` take a
per-node integrand and stack its values node by node onto the same engine.
Rules are cached as validated objects.  One :class:`QuadratureConfig` sets
every library integral, and ``_evaluate`` alone applies it, to stacked pairs
in batches or one by one; it returns their values as one stack, with each
pair's estimate and node count.
"""

from __future__ import annotations

import math
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
from .linalg import frob

MAX_NODES = 4096

#: Rules of up to this many nodes come from one real symmetric LAPACK ``eigh``
#: of the dense Jacobi matrix's lower triangle: at 512 nodes 39 ms and 8 MB of
#: workspace, against 14 ms for scipy's ``eigh_tridiagonal`` plus a one-time 0.3 s,
#: 27 MB import (one BLAS thread, 2-vCPU x86 machine).  At 1024 nodes it takes
#: 217 ms and 33 MB against 59 ms, so larger rules, up to MAX_NODES, load scipy.
_OWN_EIG_LIMIT = 512

#: Largest batch of pairs integrated in one stack, in complex entries of the
#: (jobs, nodes, d, d) node stack (4 MiB): batching saves per-call overhead on
#: small matrices, and this cap keeps large-dimension batches from piling up
#: memory that a pair integrated alone never needs.
_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights on the open interval (0, 1)."""

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
        if not (np.all(n > 0.0) and np.all(n < 1.0) and np.all(np.diff(n) > 0.0)):
            raise InvalidParameters("nodes must be strictly increasing inside (0, 1)")
        if not np.all(w > 0.0):
            raise InvalidParameters("weights must be strictly positive")

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
        tri = np.diag(diag)
        tri[np.arange(1, n), np.arange(n - 1)] = off
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
    order = np.argsort(nodes, kind="stable")
    nodes = nodes[order]
    weights = weights[order]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(kind, alpha, beta, nodes, weights)


def gauss_legendre(n: int) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [0, 1] (weight 1)."""
    if not (isinstance(n, int) and 1 <= n <= MAX_NODES):
        raise InvalidNodeCount(f"node count must be an integer in [1, {MAX_NODES}], got {n!r}")
    return _rule_cached("legendre", n, 0.0, 0.0)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """n-node Gauss-Jacobi rule on [0, 1] for the weight t^beta (1-t)^alpha."""
    if not (isinstance(n, int) and 1 <= n <= MAX_NODES):
        raise InvalidNodeCount(f"node count must be an integer in [1, {MAX_NODES}], got {n!r}")
    if not (alpha > -1.0 and beta > -1.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidParameters(f"Jacobi exponents must be > -1, got alpha={alpha}, beta={beta}")
    return _rule_cached("jacobi", n, float(alpha), float(beta))


def beta_normalization(lam: float) -> float:
    """B(lam, 1-lam) = pi / sin(lam*pi), the total mass of the mean's kernel."""
    if not (0.0 < lam < 1.0):
        raise InvalidWeight(f"weight must lie strictly inside (0, 1), got {lam!r}")
    return math.pi / math.sin(lam * math.pi)


@dataclass(frozen=True)
class IntegralResult:
    """Integration outcome; a fixed rule gives no error estimate (``None``)."""

    value: np.ndarray
    error_estimate: float | None
    nodes_used: int

    def __post_init__(self):
        err = self.error_estimate
        if err is not None and not (math.isfinite(err) and err >= 0.0):
            raise ValueError(f"error estimate must be finite and >= 0, got {err}")


def _scaled(res: IntegralResult, scale) -> IntegralResult:
    # Multiply an integral's value and error estimate by scale: a float, one
    # factor per job (jobs, 1, 1), or None for none.  No estimate stays None.
    if scale is None:
        return res
    err = res.error_estimate
    return IntegralResult(value=scale * res.value,
                          error_estimate=None if err is None else scale * err,
                          nodes_used=res.nodes_used)


#: An integrand over the whole node array: nodes (n,) -> values (n, d, d).
#: A batch of integrands returns (jobs, n, d, d), one stack per job.
StackedIntegrand = Callable[[np.ndarray], np.ndarray]


def _integrate(rule: QuadratureRule, f: StackedIntegrand) -> np.ndarray:
    # Sum w_k * f(t)_k over the stacked values f(nodes), in ascending node order.
    # A batch (jobs, n, d, d) reduces over its node axis in one sum, which
    # leaves every job bitwise the sum it would get alone.
    try:
        vals = np.asarray(f(rule.nodes), dtype=np.complex128)
    except EvaluationFailure:
        raise
    except SectorlabError:
        # A stacked LAPACK failure does not say which slice failed: evaluate
        # the nodes one at a time and report the first that raises.
        for t in rule.nodes:
            try:
                f(np.array([t]))
            except SectorlabError as exc:
                raise EvaluationFailure(f"integrand raised at node t={float(t)!r}: {exc}",
                                        node=float(t)) from exc
        raise
    # A non-finite node value makes its job's sum non-finite, so the sum is
    # checked; only a non-finite sum pays for the scan of the node stack.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(vals * rule.weights[:, None, None], axis=-3)
    if not np.isfinite(total).all():
        finite = np.isfinite(vals).all(axis=(-2, -1)).reshape(-1, rule.count).all(axis=0)
        if not finite.all():
            t = float(rule.nodes[np.argmin(finite)])
            raise EvaluationFailure(f"integrand non-finite at node t={t!r}", node=t)
    return total


def _integrate_doubling(
    f: StackedIntegrand,
    rule_factory: Callable[[int], QuadratureRule],
    tol: float,
    max_nodes: int,
    finish: Callable[[IntegralResult], IntegralResult] = lambda res: res,
    norm: float = 1.0,
) -> IntegralResult:
    # Node doubling on the stacked engine; see integrate_adaptive.  Doubling
    # stops at a Frobenius difference of tol * norm.  ``finish`` turns the raw
    # integral into the caller's result (scale factors, the Drury inverse); it
    # is applied to the NoConvergence payload as well, so the payload is the
    # caller's best result, not the raw integral.
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 32 <= max_nodes <= MAX_NODES:
        raise ValueError(f"max_nodes must allow one doubling and lie in [32, {MAX_NODES}], "
                         f"got {max_nodes}")
    n = 16
    prev = _integrate(rule_factory(n), f)
    while 2 * n <= max_nodes:
        n *= 2
        cur = _integrate(rule_factory(n), f)
        err = frob(cur - prev)
        if err <= tol * norm:
            return finish(IntegralResult(value=cur, error_estimate=err, nodes_used=n))
        prev = cur
    raise NoConvergence(
        f"adaptive integration did not reach tol={tol:g} within {max_nodes} nodes",
        payload=finish(IntegralResult(value=prev, error_estimate=err, nodes_used=n)),
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Quadrature of every integral: a fixed ``rule_nodes``-node rule, or with
    ``adaptive`` node doubling from 16 nodes until successive results agree to
    ``tol`` times ||A||_F of the pair being integrated.  ``GeometricMeanConfig``
    and ``EntropyConfig`` are this class.
    """

    rule_nodes: int = 64
    adaptive: bool = False
    tol: float = 1e-12

    def __post_init__(self):
        if self.rule_nodes < 1:
            raise ValueError(f"rule_nodes must be >= 1, got {self.rule_nodes}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class _Integrals:
    # The integrals of stacked pairs, (jobs, d, d), with each pair's estimate and node count.
    value: np.ndarray
    error_estimates: list
    nodes_used: list

    def __getitem__(self, k: int) -> IntegralResult:
        return IntegralResult(self.value[k], self.error_estimates[k], self.nodes_used[k])


def _evaluate(path, a: np.ndarray, b: np.ndarray, scale, family, cfg: QuadratureConfig,
              finish=_scaled, max_nodes: int = MAX_NODES) -> _Integrals:
    # path(A_k, B_k) integrated over family(n)'s rules for the stacked pairs, then
    # finish(res, scale_k) with the pair's factor from the list scale, or None.  A fixed
    # rule integrates batches of at most _BATCH_ENTRIES node-stack entries and finishes
    # all pairs at once.  Node doubling takes each pair alone, payload included, until
    # successive integrals agree to cfg.tol * ||A_k||_F (cfg.tol if A_k = 0), as they
    # scale with the pair; each result is bitwise the fixed rule's at its node count.
    if cfg.adaptive:
        out = [_integrate_doubling(path(x, y), family, cfg.tol, max_nodes,
                                   lambda res, s=s: finish(res, s), frob(x) or 1.0)
               for x, y, s in zip(a, b, scale or [None] * len(a))]
        return _Integrals(np.stack([r.value for r in out]), [r.error_estimate for r in out],
                          [r.nodes_used for r in out])
    rule = family(cfg.rule_nodes)
    step = max(1, _BATCH_ENTRIES // (rule.count * a[0].size))
    # A lone pair skips the job axis, on which numpy's ops cost a few microseconds more.
    raw = (_integrate(rule, path(a[0], b[0]))[None] if len(a) == 1 else
           np.concatenate([_integrate(rule, path(a[k:k + step], b[k:k + step]))
                           for k in range(0, len(a), step)]))
    res = finish(IntegralResult(value=raw, error_estimate=None, nodes_used=rule.count),
                 None if scale is None else np.array(scale)[:, None, None])
    return _Integrals(res.value, [None] * len(a), [rule.count] * len(a))


def _stacked(f: Callable[[float], np.ndarray]) -> StackedIntegrand:
    # Adapt a per-node integrand to the engine, reporting the node it fails at.
    def stacked(nodes: np.ndarray) -> np.ndarray:
        vals = []
        for t in nodes:
            t = float(t)
            try:
                vals.append(np.asarray(f(t), dtype=np.complex128))
            except EvaluationFailure:
                raise
            except Exception as exc:
                raise EvaluationFailure(f"integrand raised at node t={t!r}: {exc}", node=t) from exc
        return np.stack(vals)

    return stacked


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
    return _integrate_doubling(_stacked(f), rule_factory, tol, max_nodes)
