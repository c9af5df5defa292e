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
route at lam = 1/2.  Each integral mean has one body over stacked pairs
(jobs, d, d), which ``verify`` calls on its ensembles; the public functions
call it on a stack of one pair, and the ``*_adaptive`` function is that body
with node doubling.  How the pairs are batched is up to ``quadrature``.
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
    _Integrals,
    gauss_jacobi,
)

GeometricMeanConfig = QuadratureConfig


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


def _lone(a, b) -> tuple[np.ndarray, np.ndarray]:
    # one validated pair as a stack of one, for the integral bodies
    return tuple(m[None] for m in _pair(a, b))


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


def _convex_inverse_path(x: np.ndarray, y: np.ndarray):
    # t -> ((1-t) X + t Y)^-1 over a 1-d array of weights t (a scalar is one
    # weight), one batched inverse for all of them.  One pair (d, d) gives
    # (n, d, d); stacked pairs (jobs, d, d) give (jobs, n, d, d).
    x = x[..., None, :, :]
    y = y[..., None, :, :]

    def path(t) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(-1, 1, 1)
        return inverse((1.0 - t) * x + t * y)

    return path


def _harmonic_path(a: np.ndarray, b: np.ndarray):
    # t -> A !_t B = ((1-t) A^-1 + t B^-1)^-1, with the two fixed inverses
    # hoisted out of the path
    return _convex_inverse_path(inverse(a), inverse(b))


def _gauges(a: np.ndarray, b: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, list]:
    # The mean is homogeneous: (aA) #_lam (bB) = a^(1-lam) b^lam (A #_lam B).
    # Normalizing each argument of each pair to unit Frobenius norm before
    # quadrature makes the computed mean scaling-equivariant to rounding and
    # keeps the integrand's poles where the node count was calibrated.
    norms = [(frob(x), frob(y)) for x, y in zip(a, b)]
    norms = [(sa, sb) if sa > 0.0 and sb > 0.0 else (1.0, 1.0) for sa, sb in norms]
    div = np.array(norms).T[..., None, None]
    return a / div[0], b / div[1], [sa ** (1.0 - lam) * sb**lam for sa, sb in norms]


def _geometric_mean(a: np.ndarray, b: np.ndarray, lam: float, cfg: GeometricMeanConfig,
                    max_nodes: int = MAX_NODES) -> _Integrals:
    # A_k #_lam B_k for every pair of the stacks (jobs, d, d); lam is checked
    a, b, gauges = _gauges(a, b, lam)
    return _evaluate(_harmonic_path, a, b, [g * math.sin(lam * math.pi) / math.pi for g in gauges],
                     partial(gauss_jacobi, alpha=-lam, beta=lam - 1.0), cfg, max_nodes=max_nodes)


def geometric_mean(a, b, lam: float, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Weighted geometric mean of two accretive matrices (integral form)."""
    lam = check_weight(lam)
    return _geometric_mean(*_lone(a, b), lam, cfg).value[0]


def geometric_mean_adaptive(a, b, lam: float, tol: float = 1e-12,
                            max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the geometric-mean integral.

    On :class:`NoConvergence` the payload is the mean at the last node count,
    with its error estimate, scaled like a converged result.
    """
    lam = check_weight(lam)
    return _geometric_mean(*_lone(a, b), lam, GeometricMeanConfig(adaptive=True, tol=tol),
                           max_nodes)[0]


def _drury_finish(res: IntegralResult, gauge) -> IntegralResult:
    # The mean inverts the integral; the estimate is the integral's, scaled.
    err = res.error_estimate
    return IntegralResult(value=gauge * inverse(res.value / math.pi),
                          error_estimate=None if err is None else gauge * err / math.pi,
                          nodes_used=res.nodes_used)


def _drury_mean(a: np.ndarray, b: np.ndarray, cfg: GeometricMeanConfig,
                max_nodes: int = MAX_NODES) -> _Integrals:
    # A_k # B_k for every pair of the stacks (jobs, d, d); the
    # integrand (uA + (1-u)B)^-1 is the convex path from B to A
    a, b, gauges = _gauges(a, b, 0.5)
    return _evaluate(lambda x, y: _convex_inverse_path(y, x), a, b, gauges,
                     partial(gauss_jacobi, alpha=-0.5, beta=-0.5), cfg, _drury_finish, max_nodes)


def drury_mean(a, b, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Half-weight geometric mean by Drury's resolvent integral.

    The half-line integral is mapped to (0, 1) by u = t^2/(1+t^2); that leaves
    the smooth, A<->B symmetric factor (u A + (1-u) B)^-1 under a
    Gauss-Jacobi(-1/2, -1/2) weight:

        A # B = ( 1/pi * integral_0^1 (uA + (1-u)B)^-1 [u(1-u)]^(-1/2) du )^-1.
    """
    return _drury_mean(*_lone(a, b), cfg).value[0]


def drury_mean_adaptive(a, b, tol: float = 1e-12, max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the Drury half-weight mean.

    On :class:`NoConvergence` the payload is the mean at the last node count,
    with its error estimate, scaled like a converged result.
    """
    return _drury_mean(*_lone(a, b), GeometricMeanConfig(adaptive=True, tol=tol), max_nodes)[0]


def scalar_geometric(alpha: float, beta: float, lam: float) -> float:
    """alpha^(1-lam) * beta^lam for positive reals."""
    lam = check_weight(lam)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvalidScalar(f"alpha must be a positive real, got {alpha!r}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidScalar(f"beta must be a positive real, got {beta!r}")
    return float(alpha ** (1.0 - lam) * beta**lam)
