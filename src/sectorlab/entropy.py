"""Relative and Tsallis operator entropies of accretive matrices.

Both entropies are integrals of the harmonic-mean path through the removable
singularity at t = 0:

    S(A|B)      = integral_0^1 (A !_t B - A) / t dt
    T_lam(A|B)  = sin(lam*pi)/(lam*pi)
                  * integral_0^1 t^lam (1-t)^(-lam) * (A !_t B - A)/t dt

Both integrands are built on the mean's harmonic path ``means._harmonic_path``.
The Tsallis kernel splits into a Gauss-Jacobi weight (singular Beta factor)
and the bounded path factor, which keeps the quadrature spectral; the relative
entropy integrand is analytic on [0, 1] (limit A - A B^-1 A at t = 0), so a
plain Gauss-Legendre rule suffices.  (A #_lam B - A)/lam is the cheaper
single-quadrature route to the Tsallis entropy and is what most callers want;
the direct integral stays as an independent cross-check.  Both share one
body; the ``*_adaptive`` functions are that body with node doubling.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import InvalidWeight
from .linalg import frob, hpd_log
from .means import _harmonic_path, _hpd_congruence, _batches, _pair, check_weight, geometric_mean
from .quadrature import (
    DEFAULT_CONFIG,
    MAX_NODES,
    IntegralResult,
    QuadratureConfig,
    _evaluate,
    _integrate,
    _scaled,
    gauss_jacobi,
    gauss_legendre,
)

EntropyConfig = QuadratureConfig


def _entropy_path(a: np.ndarray, b: np.ndarray):
    # t -> (A !_t B - A)/t over a node array; bounded on (0, 1), limit
    # A - A B^-1 A at t -> 0.  Stacked pairs (jobs, d, d) give (jobs, n, d, d).
    harmonic = _harmonic_path(a, b)
    return lambda t: (harmonic(t) - a[..., None, :, :]) / np.reshape(t, (-1, 1, 1))


def _entropy(a, b, family, cfg: EntropyConfig, max_nodes: int = MAX_NODES,
             finish=lambda res: res) -> IntegralResult:
    am, bm = _pair(a, b)
    if cfg.adaptive:
        # S(sA|sB) = s S(A|B), likewise T_lam: doubling on the pair scaled by
        # s = ||A||_F makes ``tol`` relative to ||A||_F, so results of large
        # norm do not stall at the rounding floor.  The result (or payload) is
        # scaled back before ``finish``.  A fixed rule keeps the pair's bits.
        s = frob(am)
        if s <= 0.0:
            s = 1.0
        am, bm, outer = am / s, bm / s, finish
        finish = lambda res: outer(_scaled(s)(res))
    return _evaluate(_entropy_path(am, bm), family, cfg, finish, max_nodes)


def relative_entropy(a, b, cfg: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Relative operator entropy S(A|B) by Gauss-Legendre quadrature."""
    return _entropy(a, b, gauss_legendre, cfg).value


def _relative_entropies(a, b, cfg: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    # S(A_k|B_k) for stacked pairs (jobs, d, d), batched like the means; every
    # slice is bitwise the relative_entropy of that pair alone.
    if cfg.adaptive:
        return np.stack([relative_entropy(x, y, cfg) for x, y in zip(a, b)])
    rule = gauss_legendre(cfg.rule_nodes)
    return np.concatenate([_integrate(rule, _entropy_path(a[k], b[k])) for k in _batches(rule, a)])


def relative_entropy_adaptive(a, b, tol: float = 1e-12, max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the relative-entropy integral.

    ``tol`` is relative to ||A||_F: doubling stops when successive results
    agree to ``tol * ||A||_F`` in the Frobenius norm.  On
    :class:`NoConvergence` the payload is the entropy at the last node count,
    with its error estimate, scaled like a converged result.
    """
    return _entropy(a, b, gauss_legendre, EntropyConfig(adaptive=True, tol=tol), max_nodes)


def relative_entropy_hpd(a, b) -> np.ndarray:
    """Closed form A^(1/2) log(A^(-1/2) B A^(-1/2)) A^(1/2) for HPD inputs."""
    return _hpd_congruence(*_pair(a, b), hpd_log)


def _tsallis_entropy(a, b, lam: float, cfg: EntropyConfig,
                     max_nodes: int = MAX_NODES) -> IntegralResult:
    lam = check_weight(lam)
    return _entropy(a, b, partial(gauss_jacobi, alpha=-lam, beta=lam), cfg, max_nodes,
                    _scaled(math.sin(lam * math.pi) / (lam * math.pi)))


def tsallis_entropy(a, b, lam: float, cfg: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tsallis relative operator entropy T_lam(A|B), direct integral form."""
    return _tsallis_entropy(a, b, lam, cfg).value


def tsallis_entropy_adaptive(a, b, lam: float, tol: float = 1e-12,
                             max_nodes: int = MAX_NODES) -> IntegralResult:
    """Node-doubling evaluation of the Tsallis-entropy integral.

    ``tol`` is relative to ||A||_F, and the :class:`NoConvergence` payload
    is scaled like a converged result, as in :func:`relative_entropy_adaptive`.
    """
    return _tsallis_entropy(a, b, lam, EntropyConfig(adaptive=True, tol=tol), max_nodes)


def tsallis_from_mean(a, b, lam: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """T_lam(A|B) = (A #_lam B - A)/lam via the geometric mean."""
    lam = check_weight(lam)
    am, bm = _pair(a, b)
    return (geometric_mean(am, bm, lam, cfg) - am) / lam


def tsallis_limit_probe(a, b, lambdas,
                        cfg: EntropyConfig = DEFAULT_CONFIG) -> list[tuple[float, float]]:
    """Deviation ||T_lam(A|B) - S(A|B)||_F along a descending weight grid.

    Every weight must lie in (0, 1/2]; the grid must be strictly decreasing.
    Returns (lam, deviation) pairs for limit diagnostics.
    """
    lams = [float(l) for l in lambdas]
    if any(not (0.0 < l <= 0.5) for l in lams):
        raise InvalidWeight(f"probe weights must lie in (0, 1/2], got {lams}")
    if any(y >= x for x, y in zip(lams, lams[1:], strict=False)):
        raise ValueError("probe weights must be strictly decreasing")
    am, bm = _pair(a, b)
    base = relative_entropy(am, bm, cfg)
    out = []
    for lam in lams:
        dev = frob(tsallis_entropy(am, bm, lam, cfg) - base)
        out.append((lam, float(dev)))
    return out
