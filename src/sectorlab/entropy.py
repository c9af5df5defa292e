"""Relative and Tsallis operator entropies of accretive matrices.

Both entropies are integrals of the harmonic-mean path through the removable
singularity at t = 0:

    S(A|B)      = integral_0^1 (A !_t B - A) / t dt
    T_lam(A|B)  = sin(lam*pi)/(lam*pi)
                  * integral_0^1 t^lam (1-t)^(-lam) * (A !_t B - A)/t dt

so S is T_0.  The integrand is built on the mean's harmonic path
``means._harmonic_path``.  The Tsallis kernel splits into a Gauss-Jacobi
weight (singular Beta factor) and the bounded path factor, which keeps the
quadrature spectral; at lam = 0 the weight is 1, the Jacobi rule is bitwise
Gauss-Legendre's, and the integrand is analytic on [0, 1] (limit
A - A B^-1 A at t = 0).  (A #_lam B - A)/lam is the cheaper
single-quadrature route to the Tsallis entropy and is what most callers want;
the direct integral stays as an independent cross-check.  Both entropies are
one body over stacked pairs (jobs, d, d) on the shared integrand
``_entropy_path``, with one weight per pair, 0 for S; ``verify`` calls it on
its ensembles, the public functions on a stack of one pair and a list of one
weight, and the ``*_adaptive`` functions are that body under a config whose
ladder goes up to their ``max_nodes``.  How the pairs are batched and how many
nodes each gets is up to ``quadrature``, whose tolerance relative to ||A||_F
suits S(sA|sB) = s S(A|B) and T_lam alike, so both integrate the caller's pair
as it is.  The entropy path has the harmonic path's poles, so by default each
pair's node count comes from the eigenvalues of A B^-1, as for the mean.  With
a weight per pair, ``tsallis_limit_probe`` is one evaluation: S and every
T_lam of its pair, from one path and one ``eigvals`` call, each bitwise its
lone call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidWeight
from .linalg import _LOG, frob
from .means import _geometric_mean, _harmonic_path, _hpd_congruence, _lone, _pair
from .quadrature import (
    DEFAULT_CONFIG,
    MAX_NODES,
    IntegralResult,
    QuadratureConfig,
    _evaluate,
    _Integrals,
    check_weight,
)

EntropyConfig = QuadratureConfig

#: K of the bound K rho^(-2n) on S(A|B) and on T_lam(A|B) under
#: rule_nodes="auto", relative to ||A||_F.  Against scipy's logm and
#: fractional_matrix_power on 560 seeded pairs (dims 1, 2, 3, 4, 8 and 16, sector
#: angles 0.2-0.99 pi/2, condition caps 10-1e5), the Gauss error above its
#: rounding floor reached 25 rho^(-2n) for S and 2e4 rho^(-2n) for T_lam.
_RELATIVE_BOUND = 1e3
_TSALLIS_BOUND = 1e5


def _entropy_path(ab: np.ndarray):
    # t -> (A !_t B - A)/t over a node array, for the pair ab = (A, B); bounded on (0, 1),
    # limit A - A B^-1 A at t -> 0.  Stacked pairs (2, jobs, d, d) give (jobs, n, d, d),
    # or with rows, one pair index per node, the rows (n, d, d).
    harmonic, a = _harmonic_path(ab), ab[0]

    def path(t, rows=None) -> np.ndarray:
        h = harmonic(t, rows)
        h -= a[..., None, :, :] if rows is None else a[rows]
        h /= np.reshape(t, (-1, 1, 1))
        return h

    path.ratio = harmonic.ratio
    return path


def relative_entropy(a, b, cfg: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Relative operator entropy S(A|B) by Gauss-Legendre quadrature, with the
    node count chosen as for :func:`sectorlab.means.geometric_mean`."""
    return _tsallis_entropy(*_lone(a, b), [0.0], cfg).value[0]


def relative_entropy_adaptive(a, b, tol: float = 1e-12, max_nodes: int = MAX_NODES) -> IntegralResult:
    """Relative-entropy integral with its node count chosen up to ``max_nodes``.

    The count is the fewest nodes on the ladder 8, 16, ... 4096, up to
    ``max_nodes``, whose error bound from the poles of A B^-1 meets ``tol``.
    The value is :func:`relative_entropy`'s under ``EntropyConfig(tol=tol,
    max_nodes=max_nodes)``, the fixed rule's at that count, and the error
    estimate that bound times ||A||_F
    (see :mod:`sectorlab.quadrature`).  :class:`NoConvergence` is raised for a
    ``tol`` below four rounding units, for a pole on (0, 1], and where no count
    up to ``max_nodes`` meets ``tol``; then the payload is the entropy at the
    largest count, with its estimate.
    """
    return _tsallis_entropy(*_lone(a, b), [0.0], EntropyConfig(tol=tol, max_nodes=max_nodes))[0]


def relative_entropy_hpd(a, b) -> np.ndarray:
    """Closed form A^(1/2) log(A^(-1/2) B A^(-1/2)) A^(1/2) for HPD inputs."""
    return _hpd_congruence(*_pair(a, b))(_LOG)


def _tsallis_entropy(a: np.ndarray, b: np.ndarray, lams: list, cfg: EntropyConfig) -> _Integrals:
    # T_lam_k(A_k|B_k) for every pair of the stacks (jobs, d, d), one checked weight per pair.
    # lam = 0 gives S(A_k|B_k): Jacobi(-0.0, 0.0) is the Gauss-Legendre rule, and S's factor
    # 1.0 changes no bit of its sums unless an entry is -0 - 0j at every node.
    return _evaluate(_entropy_path, np.array((a, b)),
                     [(-lam, lam, math.sin(lam * math.pi) / (lam * math.pi), _TSALLIS_BOUND) if lam
                      else (-0.0, 0.0, 1.0, _RELATIVE_BOUND) for lam in lams], cfg)


def tsallis_entropy(a, b, lam: float, cfg: EntropyConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Tsallis relative operator entropy T_lam(A|B), direct integral form."""
    lam = check_weight(lam)
    return _tsallis_entropy(*_lone(a, b), [lam], cfg).value[0]


def tsallis_entropy_adaptive(a, b, lam: float, tol: float = 1e-12,
                             max_nodes: int = MAX_NODES) -> IntegralResult:
    """Tsallis-entropy integral with its node count chosen up to ``max_nodes``.

    The count, the value, the error estimate, scaled like the entropy, and
    :class:`NoConvergence` are as in :func:`relative_entropy_adaptive`.
    """
    lam = check_weight(lam)
    return _tsallis_entropy(*_lone(a, b), [lam], EntropyConfig(tol=tol, max_nodes=max_nodes))[0]


def tsallis_from_mean(a, b, lam: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """T_lam(A|B) = (A #_lam B - A)/lam via the geometric mean."""
    lam = check_weight(lam)
    am, bm = _lone(a, b)
    return (_geometric_mean(am, bm, [lam], cfg).value[0] - am[0]) / lam


def tsallis_limit_probe(a, b, lambdas,
                        cfg: EntropyConfig = DEFAULT_CONFIG) -> list[tuple[float, float]]:
    """Deviation ||T_lam(A|B) - S(A|B)||_F along a descending weight grid.

    Every weight must be a weight (see :func:`sectorlab.quadrature.check_weight`)
    in (0, 1/2]; the grid must be strictly decreasing.  Returns (lam, deviation)
    pairs for limit diagnostics.  S and every T_lam are one evaluation of the
    pair stacked once per weight, each with its own rule and node count, and
    bitwise the lone calls'; where more than one of them raises, S's error does.
    """
    lams = [check_weight(l) for l in lambdas]
    if any(not (0.0 < l <= 0.5) for l in lams):
        raise InvalidWeight(f"probe weights must lie in (0, 1/2], got {lams}")
    if any(y >= x for x, y in zip(lams, lams[1:], strict=False)):
        raise ValueError("probe weights must be strictly decreasing")
    # S first, so that its error is the one raised where several would be
    am, bm = (np.repeat(m, len(lams) + 1, axis=0) for m in _lone(a, b))
    values = _tsallis_entropy(am, bm, [0.0, *lams], cfg).value
    return [(lam, float(frob(t - values[0]))) for lam, t in zip(lams, values[1:])]
