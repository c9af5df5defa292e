"""Seeded accretive inputs for the benchmark, built with numpy alone.

Every matrix follows A = P + i tan(theta) P^(1/2) H P^(1/2): P is Hermitian
positive definite with eigenvalues log-uniform under a condition cap and a
Haar-random eigenbasis, H is a Hermitian direction with spectrum clipped to
[-1, 1].  Then Re A = P and the numerical range of A lies in the sector of
half-angle theta.

`verify_pair` rebuilds the trial pair behind a `sectorlab verify` report from
the recipe its README documents (PCG64 streams keyed by SeedSequence spawn
keys, condition cap 100), so report margins can be recomputed on the very
matrices the report was computed from.
"""

from __future__ import annotations

import math

import numpy as np

VERIFY_COND_CAP = 100.0
_VERIFY_TAG_A = 10
_VERIFY_TAG_B = 11


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def haar_unitary(dim: int, g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def hpd(dim: int, cond: float, g_basis: np.random.Generator,
        g_eigs: np.random.Generator) -> np.ndarray:
    u = haar_unitary(dim, g_basis)
    half = 0.5 * math.log(cond)
    mu = np.exp(g_eigs.uniform(-half, half, size=dim))
    return _herm((u * mu) @ u.conj().T)


def clipped_direction(dim: int, g: np.random.Generator) -> np.ndarray:
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    w, v = np.linalg.eigh(_herm(z))
    return _herm((v * np.clip(w, -1.0, 1.0)) @ v.conj().T)


def accretive(p: np.ndarray, h: np.ndarray, theta: float) -> np.ndarray:
    """P + i tan(theta) P^(1/2) H P^(1/2)."""
    w, v = np.linalg.eigh(p)
    root = (v * np.sqrt(w)) @ v.conj().T
    return p + 1j * (math.tan(theta) * _herm(root @ h @ root))


def sector_pair(g: np.random.Generator, dim: int, theta: float,
                cond: float) -> tuple[np.ndarray, np.ndarray]:
    """Two independent accretive draws from one generator."""
    return tuple(accretive(hpd(dim, cond, g, g), clipped_direction(dim, g), theta)
                 for _ in range(2))


def unit_norm(pair) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix scaled to unit Frobenius norm; scaling keeps the sector."""
    return tuple(m / np.linalg.norm(m) for m in pair)


def rotate(pair, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint unitary similarity: keeps the sector, the form of the draw and
    the spectrum of A^-1 B, so quadrature node counts do not change."""
    return tuple(u @ m @ u.conj().T for m in pair)


def _derive_seed(seed: int, purpose: int, index: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(purpose, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _verify_matrix(seed: int, dim: int, theta: float) -> np.ndarray:
    p = hpd(dim, VERIFY_COND_CAP, stream(seed, 0), stream(seed, 1))
    if theta == 0.0:
        return p
    return accretive(p, clipped_direction(dim, stream(seed, 2)), theta)


def verify_pair(seed: int, trial: int, dim: int,
                theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) pair of trial ``trial`` in a verify ensemble."""
    return (_verify_matrix(_derive_seed(seed, _VERIFY_TAG_A, trial), dim, theta),
            _verify_matrix(_derive_seed(seed, _VERIFY_TAG_B, trial), dim, theta))
