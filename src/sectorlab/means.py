"""Weighted operator means of accretive matrices.

The weighted arithmetic and harmonic means carry over to accretive inputs by
their algebraic formulas.  The weighted geometric mean does not; it is defined
here through its integral representation

    A #_lam B = sin(lam*pi)/pi * integral_0^1 t^(lam-1) (1-t)^(-lam) (A !_t B) dt,

evaluated with a Gauss-Jacobi rule whose weight absorbs the Beta kernel.  The
path t -> A !_t B is written once, in ``_harmonic_path``: the harmonic mean is
it at one weight, and the geometric mean and the entropies integrate it.  For
Hermitian positive definite inputs the classical closed form is available as
an independent oracle, and the half-weight Drury mean gives a second integral
route at lam = 1/2.  Each integral mean has one body; the ``*_adaptive``
function is that body with node doubling.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DimensionMismatch, InvalidScalar, InvalidWeight
from .linalg import as_matrix, frob, hpd_power, inverse, symmetrize
from .quadrature import (
    DEFAULT_CONFIG,
    MAX_NODES,
    IntegralResult,
    QuadratureConfig,
    _evaluate,
    _integrate,
    _scaled,
    gauss_jacobi,
)

GeometricMeanConfig = QuadratureConfig

#: Largest batch of means evaluated in one stack, in complex entries of the
#: (jobs, nodes, d, d) node stack (4 MiB): batching saves per-call overhead on
#: small matrices, and this cap keeps large-dimension batches from piling up
#: memory that a mean evaluated alone never needs.
_BATCH_ENTRIES = 1 << 18


def check_weight(lam: float) -> float:
    """Validate a mean weight; the endpoints 0 and 1 are rejected."""
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise InvalidWeight(f"weight must lie strictly inside (0, 1), got {lam!r}")
    return lam


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shape {am.shape} vs {bm.shape}")
    return am, bm


def arithmetic_mean(a, b, lam: float) -> np.ndarray:
    """(1-lam) A + lam B."""
    lam = check_weight(lam)
    am, bm = _pair(a, b)
    return (1.0 - lam) * am + lam * bm


def harmonic_mean(a, b, lam: float) -> np.ndarray:
    """((1-lam) A^-1 + lam B^-1)^-1."""
    lam = check_weight(lam)
    return _harmonic_path(*_pair(a, b))(lam)[0]


def _hpd_congruence(a: np.ndarray, b: np.ndarray, fn) -> np.ndarray:
    # A^(1/2) fn(A^(-1/2) B A^(-1/2)) A^(1/2) for HPD A, B, the closed form
    # of the HPD geometric mean and relative entropy.
    root = hpd_power(a, 0.5)
    iroot = hpd_power(a, -0.5)
    return symmetrize(root @ fn(symmetrize(iroot @ b @ iroot)) @ root)


def geometric_mean_hpd(a, b, lam: float) -> np.ndarray:
    """Closed-form A^(1/2) (A^(-1/2) B A^(-1/2))^lam A^(1/2) for HPD inputs."""
    lam = check_weight(lam)
    return _hpd_congruence(*_pair(a, b), partial(hpd_power, p=lam))


def _harmonic_path(a: np.ndarray, b: np.ndarray):
    # t -> A !_t B = ((1-t) A^-1 + t B^-1)^-1 over a 1-d array of weights t
    # (a scalar is one weight), one batched inverse for all of them; the two
    # fixed inverses are hoisted out of the path.  One pair (d, d) gives
    # (n, d, d); stacked pairs (jobs, d, d) give (jobs, n, d, d).
    ia = inverse(a)[..., None, :, :]
    ib = inverse(b)[..., None, :, :]

    def path(t) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(-1, 1, 1)
        return inverse((1.0 - t) * ia + t * ib)

    return path


def _gauges(am: np.ndarray, bm: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    # The mean is homogeneous: (aA) #_lam (bB) = a^(1-lam) b^lam (A #_lam B).
    # Normalizing each argument to unit Frobenius norm before quadrature makes
    # the computed mean scaling-equivariant to rounding and keeps the
    # integrand's poles where the node count was calibrated.
    sa = frob(am)
    sb = frob(bm)
    if sa <= 0.0 or sb <= 0.0:
        return am, bm, 1.0
    return am / sa, bm / sb, sa ** (1.0 - lam) * sb**lam


def _geometric_mean(a, b, lam: float, cfg: GeometricMeanConfig,
                    max_nodes: int = MAX_NODES) -> IntegralResult:
    lam = check_weight(lam)
    am, bm = _pair(a, b)
    am, bm, gauge = _gauges(am, bm, lam)
    return _evaluate(_harmonic_path(am, bm), partial(gauss_jacobi, alpha=-lam, beta=lam - 1.0),
                     cfg, _scaled(gauge * math.sin(lam * math.pi) / math.pi), max_nodes)


def geometric_mean(a, b, lam: float, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Weighted geometric mean of two accretive matrices (integral form)."""
    return _geometric_mean(a, b, lam, cfg).value


def geometric_mean_adaptive(a, b, lam: float, tol: float = 1e-12,
                            max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the geometric-mean integral.

    On :class:`NoConvergence` the payload is the mean at the last node count,
    with its error estimate, scaled like a converged result.
    """
    return _geometric_mean(a, b, lam, GeometricMeanConfig(adaptive=True, tol=tol), max_nodes)


def _batches(rule, a: np.ndarray) -> list[slice]:
    # Slices of stacked pairs (jobs, d, d) whose node stacks under the rule
    # hold at most _BATCH_ENTRIES matrix entries each.
    step = max(1, _BATCH_ENTRIES // (rule.count * a[0].size))
    return [slice(k, k + step) for k in range(0, len(a), step)]


def _geometric_means(a: np.ndarray, b: np.ndarray, lam: float,
                     cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    # A_k #_lam B_k for stacked pairs (jobs, d, d): one rule and one stacked
    # inverse per batch.  Every slice is bitwise the mean that geometric_mean
    # gives for that pair alone.
    lam = check_weight(lam)
    if cfg.adaptive:
        return np.stack([_geometric_mean(x, y, lam, cfg).value for x, y in zip(a, b)])
    rule = gauss_jacobi(cfg.rule_nodes, alpha=-lam, beta=lam - 1.0)
    out = []
    for k in _batches(rule, a):
        gauged = [_gauges(x, y, lam) for x, y in zip(a[k], b[k])]
        path = _harmonic_path(np.stack([g[0] for g in gauged]), np.stack([g[1] for g in gauged]))
        scale = np.array([g[2] * math.sin(lam * math.pi) / math.pi for g in gauged])
        out.append(scale[:, None, None] * _integrate(rule, path))
    return np.concatenate(out)


def _convex_inverse_path(a: np.ndarray, b: np.ndarray):
    # u -> (uA + (1-u)B)^-1 over a node array (or a scalar u), one batched inverse.
    def path(u) -> np.ndarray:
        u = np.asarray(u, dtype=float)[..., None, None]
        return inverse(u * a + (1.0 - u) * b)

    return path


def _drury_mean(a, b, cfg: GeometricMeanConfig, max_nodes: int = MAX_NODES) -> IntegralResult:
    am, bm = _pair(a, b)
    am, bm, gauge = _gauges(am, bm, 0.5)

    def finish(res: IntegralResult) -> IntegralResult:
        # The mean inverts the integral; the estimate is the integral's, scaled.
        return IntegralResult(value=gauge * inverse(res.value / math.pi),
                              error_estimate=gauge * res.error_estimate / math.pi,
                              nodes_used=res.nodes_used)

    return _evaluate(_convex_inverse_path(am, bm), partial(gauss_jacobi, alpha=-0.5, beta=-0.5),
                     cfg, finish, max_nodes)


def drury_mean(a, b, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Half-weight geometric mean by Drury's resolvent integral.

    The half-line integral is mapped to (0, 1) by u = t^2/(1+t^2); that leaves
    the smooth, A<->B symmetric factor (u A + (1-u) B)^-1 under a
    Gauss-Jacobi(-1/2, -1/2) weight:

        A # B = ( 1/pi * integral_0^1 (uA + (1-u)B)^-1 [u(1-u)]^(-1/2) du )^-1.
    """
    return _drury_mean(a, b, cfg).value


def drury_mean_adaptive(a, b, tol: float = 1e-12, max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the Drury half-weight mean.

    On :class:`NoConvergence` the payload is the mean at the last node count,
    with its error estimate, scaled like a converged result.
    """
    return _drury_mean(a, b, GeometricMeanConfig(adaptive=True, tol=tol), max_nodes)


def scalar_geometric(alpha: float, beta: float, lam: float) -> float:
    """alpha^(1-lam) * beta^lam for positive reals."""
    lam = check_weight(lam)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvalidScalar(f"alpha must be a positive real, got {alpha!r}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidScalar(f"beta must be a positive real, got {beta!r}")
    return float(alpha ** (1.0 - lam) * beta**lam)
