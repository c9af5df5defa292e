"""Independent oracle for the benchmark's correctness checks.

Every value here comes from scipy's general matrix functions on the
spectral form of the operations, or from numpy, never from sectorlab:

    A #_lam B  = A (A^-1 B)^lam         (Schur-Pade fractional power)
    S(A|B)     = A log(A^-1 B)          (inverse scaling-and-squaring log)
    T_lam(A|B) = (A #_lam B - A) / lam
    Drury mean = A #_1/2 B

with the HPD closed form of the mean and the harmonic mean
((1 - lam) A^-1 + lam B^-1)^-1 for the verify-report margins.

For accretive A and B the spectrum of A^-1 B avoids the closed negative real
axis, so the principal branches are the ones the integral definitions pick.

scipy is imported inside the functions: sectorlab itself loads scipy only
for rules above 64 nodes, and an import at module load would put the
benchmark's own scipy into the program's set-up time and memory.
"""

from __future__ import annotations

import numpy as np


def ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 B, the matrix whose principal functions give every oracle value."""
    return np.linalg.solve(a, b)


def geometric_mean(a, b, lam: float) -> np.ndarray:
    from scipy.linalg import fractional_matrix_power

    return a @ fractional_matrix_power(ratio(a, b), lam)


def geometric_mean_hpd(a, b, lam: float) -> np.ndarray:
    """A^(1/2) (A^(-1/2) B A^(-1/2))^lam A^(1/2) for Hermitian positive definite A, B."""
    w, v = np.linalg.eigh(a)
    root, iroot = (v * np.sqrt(w)) @ v.conj().T, (v / np.sqrt(w)) @ v.conj().T
    w, v = np.linalg.eigh(iroot @ b @ iroot)
    return root @ ((v * w**lam) @ v.conj().T) @ root


def harmonic_mean(a, b, lam: float) -> np.ndarray:
    """((1 - lam) A^-1 + lam B^-1)^-1."""
    return np.linalg.inv((1 - lam) * np.linalg.inv(a) + lam * np.linalg.inv(b))


def real_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, the Hermitian part."""
    return (m + m.conj().T) / 2


def relative_entropy(a, b) -> np.ndarray:
    from scipy.linalg import logm

    return a @ logm(ratio(a, b))


def tsallis_entropy(a, b, lam: float) -> np.ndarray:
    return (geometric_mean(a, b, lam) - a) / lam


def drury_mean(a, b) -> np.ndarray:
    return geometric_mean(a, b, 0.5)


def rel_err(x, ref) -> float:
    """Relative Frobenius error of ``x`` against ``ref``."""
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))
