"""Seeded random matrix and vector ensembles.

All generators are pure functions of their argument list: streams come from
``numpy.random.SeedSequence(seed, spawn_key=...)`` feeding PCG64, so a fixed
seed reproduces the same objects on any machine and in any execution order.

Accretive draws use the construction A = P + i*tan(angle) * P^(1/2) H P^(1/2)
with P positive definite and ||H|| <= 1: then Re A = P exactly and every
Rayleigh quotient satisfies |Im <Ax,x>| <= tan(angle) * Re <Ax,x>, so `angle`
is a true dial for the numerical-range sector half-angle.

Matrices are drawn as a stack, in one pass: one QR for the Haar unitaries, one
``eigh`` for the directions H, one for the roots P^(1/2), and one stacked
accretivity check (``AccretiveMatrix``'s).  ``verify`` draws all 2 * trials
matrices of a report so, as one checked stack, and all of its unit vectors of
one purpose with one normalization; ``random_hpd``, ``random_accretive`` and
``random_unit_vectors`` are those passes on a stack of one.  Each matrix and
vector still comes from its own seed's streams, and every stacked LAPACK call
and normalization treats each slice as it would alone, so a draw is bitwise
the same in any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, AccretiveMatrix, _check_accretive, _check_integer, _symmetrize

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


def _gaussians(seeds, tag: int, dim: int) -> np.ndarray:
    # (len(seeds), dim, dim) complex Gaussians, each from its own seed's stream
    g = np.stack([_rng(seed, tag).standard_normal((2, dim, dim)) for seed in seeds])
    return g[:, 0] + 1j * g[:, 1]


def _random_hpds(dim: int, cond_cap: float, seeds) -> np.ndarray:
    # random_hpd of every seed, stacked: one QR for the Haar unitaries
    q, r = np.linalg.qr(_gaussians(seeds, _TAG_UNITARY, dim))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d.conj() / np.abs(d))[:, None, :]
    half = 0.5 * math.log(cond_cap)
    mu = np.exp(np.stack([_rng(seed, _TAG_EIGS).uniform(-half, half, size=dim) for seed in seeds]))
    return _symmetrize((u * mu[:, None, :]) @ u.conj().swapaxes(-1, -2))


def random_hpd(dim: int, cond_cap: float, seed: int) -> np.ndarray:
    """Random Hermitian positive definite matrix.

    Eigenvalues are log-uniform in [1/sqrt(cond_cap), sqrt(cond_cap)] under a
    Haar-random unitary conjugation, so the condition number never exceeds
    ``cond_cap``.
    """
    _check_integer("dim", dim, 1, MAX_DIM)
    if not cond_cap >= 1.0:
        raise ValueError(f"cond_cap must be >= 1, got {cond_cap}")
    return _random_hpds(dim, cond_cap, [seed])[0]


def _accretive_draws(dim: int, angle: float, cond_cap: float, seeds) -> np.ndarray:
    # random_accretive of every seed, in one stacked pass, before its accretivity
    # check: one QR and two eigh for the whole stack, each matrix from its own streams
    p = _random_hpds(dim, cond_cap, seeds)
    if angle == 0.0:
        return p
    g = _symmetrize(_gaussians(seeds, _TAG_DIRECTION, dim))
    w, v = np.linalg.eigh(g)
    h = _symmetrize((v * np.clip(w, -1.0, 1.0)[:, None, :]) @ v.conj().swapaxes(-1, -2))
    w, v = np.linalg.eigh(p)
    # rounding can leave an eigenvalue of an ill-conditioned P below 0: its root
    # is 0, so the accretivity check, not a NaN, reports the draw
    root = (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    m = math.tan(angle) * _symmetrize(root @ h @ root)
    return p + 1j * m


def _random_accretives(dim: int, angle: float, cond_cap: float, seeds) -> list[AccretiveMatrix]:
    # random_accretive of every seed, from one stacked pass and one accretivity check
    return AccretiveMatrix._from_stack(_accretive_draws(dim, angle, cond_cap, seeds))


def _random_accretive_stack(dim: int, angle: float, cond_cap: float, seeds) -> np.ndarray:
    # the matrices of _random_accretives as one checked stack, for callers that stack them
    m = _accretive_draws(dim, angle, cond_cap, seeds)
    _check_accretive(m)
    return m


def random_accretive(spec: SectorSpec) -> AccretiveMatrix:
    """Random accretive matrix with numerical range inside the given sector."""
    return _random_accretives(spec.dim, spec.angle, spec.cond_cap, [spec.seed])[0]


def random_unit_vectors(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) array of unit-norm complex Gaussian vectors."""
    _check_integer("dim", dim, 1)
    _check_integer("count", count, 1)
    return _random_unit_vectors(dim, count, [seed])[0]


def _random_unit_vectors(dim: int, count: int, seeds) -> np.ndarray:
    # random_unit_vectors of every seed, (len(seeds), count, dim), each from its own
    # seed's stream, normalized in one pass
    rngs = [_rng(seed, _TAG_VECTORS) for seed in seeds]
    g = np.stack([rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
                  for rng in rngs])
    return g / np.linalg.norm(g, axis=-1, keepdims=True)
