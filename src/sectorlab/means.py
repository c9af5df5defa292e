"""Weighted operator means of accretive matrices.

The weighted arithmetic and harmonic means carry over to accretive inputs by
their algebraic formulas.  The weighted geometric mean does not; it is defined
here through its integral representation

    A #_lam B = sin(lam*pi)/pi * integral_0^1 t^(lam-1) (1-t)^(-lam) (A !_t B) dt,

evaluated with a Gauss-Jacobi rule whose weight absorbs the Beta kernel.  By
default each pair gets its own node count, from the poles of its path, which
lie at t = 1/(1 - mu) over the eigenvalues mu of A B^-1 (B^-1 A for Drury's
path); each path exposes that ratio.  The path t -> A !_t B is written once,
in ``_harmonic_path``: the harmonic mean is it at one weight, and the
geometric mean and the entropies integrate it.  For Hermitian positive
definite inputs the classical closed form is available as an independent
oracle, and the half-weight Drury mean gives a second integral
route at lam = 1/2.  Each integral mean has one body over stacked pairs
(jobs, d, d), with one weight per pair, which ``verify`` calls on its
ensembles; the public functions call it on a stack of one pair and a list of
one weight, and each ``*_adaptive`` function is that body
under a config whose ladder goes up to its ``max_nodes``.  How the pairs are
batched, and how many nodes each gets, is up to ``quadrature``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DimensionMismatch, InvalidScalar
from .linalg import (
    _finite,
    _herm_eig,
    _hpd_apply,
    _inv,
    _power,
    _slice_frobs,
    _symmetrize,
    as_matrix,
    frob,
)
from .quadrature import (
    DEFAULT_CONFIG,
    MAX_NODES,
    IntegralResult,
    QuadratureConfig,
    _evaluate,
    _Integrals,
    check_weight,
)

GeometricMeanConfig = QuadratureConfig

#: K of the bound K rho^(-2n) on a mean's integral under rule_nodes="auto",
#: relative to ||A||_F, for the weighted and for Drury's mean.  Against scipy's
#: spectral mean on 560 seeded pairs (dims 1, 2, 3, 4, 8 and 16, sector angles
#: 0.2-0.99 pi/2, condition caps 10-1e5), the Gauss error above its rounding
#: floor reached 60 rho^(-2n) and 4e3 rho^(-2n).
_MEAN_BOUND = 1e3
_DRURY_BOUND = 1e5


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
    return _harmonic_path(np.array(_pair(a, b)))(lam)[0]


def _hpd_congruence(a: np.ndarray, b: np.ndarray):
    # f -> A^(1/2) f(A^(-1/2) B A^(-1/2)) A^(1/2) for HPD A, B (or stacks), the
    # closed form of the HPD geometric mean (f = linalg._power(lam)) and relative
    # entropy (f = linalg._LOG).  A and the inner matrix are factored once, at the
    # first f, for every f; each f is checked on the inner eigenvalues as
    # hpd_power and hpd_log check theirs.  A failed factorization is not kept.
    @cache
    def factors():
        w, v = _herm_eig(a)
        root = _hpd_apply(w, v, *_power(0.5))
        iroot = _hpd_apply(w, v, *_power(-0.5))
        return root, _herm_eig(_symmetrize(_finite(iroot @ b @ iroot)))

    def congruence(f) -> np.ndarray:
        root, inner = factors()
        return _symmetrize(_finite(root @ _hpd_apply(*inner, *f) @ root))

    return congruence


def geometric_mean_hpd(a, b, lam: float) -> np.ndarray:
    """Closed-form A^(1/2) (A^(-1/2) B A^(-1/2))^lam A^(1/2) for HPD inputs."""
    lam = check_weight(lam)
    return _hpd_congruence(*_pair(a, b))(_power(lam))


def _convex_inverse_path(x: np.ndarray, y: np.ndarray, x_inv: np.ndarray | None = None):
    # t -> ((1-t) X + t Y)^-1 over a 1-d array of weights t (a scalar is one
    # weight), one batched inverse for all of them.  One pair (d, d) gives
    # (n, d, d) and stacked pairs (jobs, d, d) give (jobs, n, d, d); with rows,
    # one pair index per weight, the stacked pairs give the rows (n, d, d), weight
    # t[i] of pair rows[i].  X and Y are validated, so the path calls the inverse
    # core.  x_inv is X^-1 if the caller has it.
    xs = x[..., None, :, :]
    ys = y[..., None, :, :]

    def path(t, rows=None) -> np.ndarray:
        t = np.asarray(t, dtype=float).reshape(-1, 1, 1)
        s = (1.0 - t) * (xs if rows is None else x[rows])
        s += t * (ys if rows is None else y[rows])
        return _inv(s)

    def ratio():
        # X^-1 Y, of each pair: path(t) = ((1-t) I + t X^-1 Y)^-1 X^-1, whose poles
        # lie at t = 1/(1 - mu) over the eigenvalues mu of X^-1 Y
        return (_inv(x) if x_inv is None else x_inv) @ y

    path.ratio = ratio
    return path


def _harmonic_path(ab: np.ndarray):
    # t -> A !_t B = ((1-t) A^-1 + t B^-1)^-1 of the validated pair ab = (A, B), (2, ..., d, d),
    # with the two fixed inverses, from one _inv call, hoisted out of the path, so its ratio is
    # A B^-1; A's failure comes before B's
    x, y = _inv(ab)
    return _convex_inverse_path(x, y, ab[0])


def _gauges(a: np.ndarray, b: np.ndarray, lams: list) -> tuple[np.ndarray, list]:
    # The mean is homogeneous: (aA) #_lam (bB) = a^(1-lam) b^lam (A #_lam B).
    # Normalizing each argument of each pair to unit Frobenius norm before
    # quadrature makes the computed mean scaling-equivariant to rounding and
    # keeps the integrand's poles where the node count was calibrated.
    # A lone pair takes frob, a stack one pass over each side, bitwise frob per slice.
    # The pairs come back divided into one array (A, B), (2, jobs, d, d), with their gauges.
    norms = [(frob(a[0]), frob(b[0]))] if len(a) == 1 else zip(_slice_frobs(a), _slice_frobs(b))
    norms = [(sa, sb) if sa > 0.0 and sb > 0.0 else (1.0, 1.0) for sa, sb in norms]
    gauges = [sa ** (1.0 - lam) * sb**lam for (sa, sb), lam in zip(norms, lams)]
    # a lone pair divides by its two norms, with no (2, 1, 1, 1) array
    div = norms[0] if len(a) == 1 else np.array(norms).T[..., None, None]
    ab = np.empty((2, *a.shape), dtype=np.complex128)
    np.divide(a, div[0], out=ab[0])
    np.divide(b, div[1], out=ab[1])
    return ab, gauges


def _geometric_mean(a: np.ndarray, b: np.ndarray, lams: list, cfg: GeometricMeanConfig) -> _Integrals:
    # A_k #_lam_k B_k for every pair of the stacks (jobs, d, d), one checked weight per pair
    ab, gauges = _gauges(a, b, lams)
    return _evaluate(_harmonic_path, ab,
                     [(-lam, lam - 1.0, g * math.sin(lam * math.pi) / math.pi, _MEAN_BOUND)
                      for g, lam in zip(gauges, lams)], cfg)


def geometric_mean(a, b, lam: float, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Weighted geometric mean of two accretive matrices (integral form).

    By default the rule has the fewest nodes, up to ``cfg.max_nodes`` (512),
    whose bound from the pair's poles meets ``cfg.tol``; :class:`NoConvergence`
    is raised where none does, or where the path has a pole on (0, 1], as no
    accretive pair's path has (see :mod:`sectorlab.quadrature`).
    """
    lam = check_weight(lam)
    return _geometric_mean(*_lone(a, b), [lam], cfg).value[0]


def geometric_mean_adaptive(a, b, lam: float, tol: float = 1e-12,
                            max_nodes: int = MAX_NODES) -> IntegralResult:
    """Geometric-mean integral with its node count chosen up to ``max_nodes``.

    The count is the fewest nodes on the ladder 8, 16, ... 4096, up to
    ``max_nodes``, whose error bound from the pair's poles meets ``tol``; the
    value is :func:`geometric_mean`'s under ``GeometricMeanConfig(tol=tol,
    max_nodes=max_nodes)``, the fixed rule's at that count, and the error
    estimate that bound, scaled like the mean (see
    :mod:`sectorlab.quadrature`).  :class:`NoConvergence` is raised for a
    ``tol`` below four rounding units, for a pole on (0, 1], and where no count
    up to ``max_nodes`` meets ``tol``; then the payload is the mean at the
    largest count, with its estimate.
    """
    lam = check_weight(lam)
    return _geometric_mean(*_lone(a, b), [lam], GeometricMeanConfig(tol=tol, max_nodes=max_nodes))[0]


def _drury_finish(value, err, gauge):
    # The mean inverts the integrals; the estimates are the integrals', scaled.
    return gauge * _inv(value / math.pi), None if err is None else gauge * err / math.pi


def _drury_mean(a: np.ndarray, b: np.ndarray, cfg: GeometricMeanConfig) -> _Integrals:
    # A_k # B_k for every pair of the stacks (jobs, d, d); the
    # integrand (uA + (1-u)B)^-1 is the convex path from B to A
    ab, gauges = _gauges(a, b, [0.5] * len(a))
    return _evaluate(lambda ab: _convex_inverse_path(ab[1], ab[0]), ab,
                     [(-0.5, -0.5, g, _DRURY_BOUND) for g in gauges], cfg, _drury_finish)


def drury_mean(a, b, cfg: GeometricMeanConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Half-weight geometric mean by Drury's resolvent integral.

    The half-line integral is mapped to (0, 1) by u = t^2/(1+t^2); that leaves
    the smooth, A<->B symmetric factor (u A + (1-u) B)^-1 under a
    Gauss-Jacobi(-1/2, -1/2) weight:

        A # B = ( 1/pi * integral_0^1 (uA + (1-u)B)^-1 [u(1-u)]^(-1/2) du )^-1.
    """
    return _drury_mean(*_lone(a, b), cfg).value[0]


def drury_mean_adaptive(a, b, tol: float = 1e-12, max_nodes: int = MAX_NODES) -> IntegralResult:
    """Drury half-weight mean with its node count chosen up to ``max_nodes``.

    The count, the value, the error estimate and :class:`NoConvergence` are
    as in :func:`geometric_mean_adaptive`, with the estimate scaled like the
    mean.
    """
    return _drury_mean(*_lone(a, b), GeometricMeanConfig(tol=tol, max_nodes=max_nodes))[0]


def scalar_geometric(alpha: float, beta: float, lam: float) -> float:
    """alpha^(1-lam) * beta^lam for positive reals."""
    lam = check_weight(lam)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InvalidScalar(f"alpha must be a positive real, got {alpha!r}")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise InvalidScalar(f"beta must be a positive real, got {beta!r}")
    return float(alpha ** (1.0 - lam) * beta**lam)
