"""Seeded random matrix and vector ensembles.

All generators are pure functions of their argument list: streams come from
``numpy.random.SeedSequence(seed, spawn_key=...)`` feeding PCG64, so a fixed
seed reproduces the same objects on any machine and in any execution order.

Accretive draws use the construction A = P + i*tan(angle) * P^(1/2) H P^(1/2)
with P positive definite and ||H|| <= 1: then Re A = P exactly and every
Rayleigh quotient satisfies |Im <Ax,x>| <= tan(angle) * Re <Ax,x>, so `angle`
is a true dial for the numerical-range sector half-angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, AccretiveMatrix, _check_integer, symmetrize

#: recorded in verification reports so frozen baselines stay portable
GENERATOR_NAME = "pcg64-seedsequence"

# spawn-key purpose tags
_TAG_UNITARY = 0
_TAG_EIGS = 1
_TAG_DIRECTION = 2
_TAG_VECTORS = 3


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, purpose: int, index: int) -> int:
    """Stable per-trial sub-seed for ensemble streams."""
    ss = np.random.SeedSequence(seed, spawn_key=(purpose, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class SectorSpec:
    """Recipe for one random sector-matrix draw."""

    dim: int
    angle: float
    cond_cap: float
    seed: int

    def __post_init__(self):
        _check_integer("dim", self.dim, 1, MAX_DIM)
        if not (0.0 <= self.angle < math.pi / 2):
            raise ValueError(f"angle must lie in [0, pi/2), got {self.angle}")
        if not self.cond_cap >= 1.0:
            raise ValueError(f"cond_cap must be >= 1, got {self.cond_cap}")
        _check_integer("seed", self.seed, 0)


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def random_hpd(dim: int, cond_cap: float, seed: int) -> np.ndarray:
    """Random Hermitian positive definite matrix.

    Eigenvalues are log-uniform in [1/sqrt(cond_cap), sqrt(cond_cap)] under a
    Haar-random unitary conjugation, so the condition number never exceeds
    ``cond_cap``.
    """
    _check_integer("dim", dim, 1, MAX_DIM)
    if not cond_cap >= 1.0:
        raise ValueError(f"cond_cap must be >= 1, got {cond_cap}")
    u = _haar_unitary(dim, _rng(seed, _TAG_UNITARY))
    half = 0.5 * math.log(cond_cap)
    mu = np.exp(_rng(seed, _TAG_EIGS).uniform(-half, half, size=dim))
    return symmetrize((u * mu) @ u.conj().T)


def _clipped_hermitian_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = symmetrize(g)
    w, v = np.linalg.eigh(h)
    return symmetrize((v * np.clip(w, -1.0, 1.0)) @ v.conj().T)


def random_accretive(spec: SectorSpec) -> AccretiveMatrix:
    """Random accretive matrix with numerical range inside the given sector."""
    p = random_hpd(spec.dim, spec.cond_cap, spec.seed)
    if spec.angle == 0.0:
        return AccretiveMatrix.from_matrix(p)
    h = _clipped_hermitian_direction(spec.dim, _rng(spec.seed, _TAG_DIRECTION))
    w, v = np.linalg.eigh(p)
    root = (v * np.sqrt(w)) @ v.conj().T
    m = math.tan(spec.angle) * symmetrize(root @ h @ root)
    return AccretiveMatrix.from_matrix(p + 1j * m)


def random_unit_vectors(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) array of unit-norm complex Gaussian vectors."""
    _check_integer("dim", dim, 1)
    _check_integer("count", count, 1)
    rng = _rng(seed, _TAG_VECTORS)
    g = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)
