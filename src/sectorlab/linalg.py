"""Dense complex matrix arithmetic on top of numpy arrays.

Everything here works on square ``complex128`` arrays.  Hermitian inputs and
outputs are Hermitian *bitwise* (constructed by symmetrization), so downstream
code may rely on ``H == H.conj().T`` exactly rather than approximately.  The
inverse and the Hermitian eigensolver are LAPACK's, through ``np.linalg``.
The functions that say so also take a stack ``(..., d, d)`` of matrices and
treat each slice bitwise as they would treat it alone.  The public
:func:`inverse` validates its input and then calls the private core ``_inv``,
one LAPACK call and a condition estimate; the library's own paths call
``_inv`` directly on the stacks they have already validated or built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NoConvergence,
    NotAccretive,
    NotPositiveDefinite,
    SingularMatrix,
)

#: Hard cap on matrix dimension for validated inputs.
MAX_DIM = 64

#: Default cap for the condition estimate of `inverse`.
DEFAULT_COND_CAP = 1e14

#: Relative floor for the smallest eigenvalue of the real part at
#: AccretiveMatrix construction.
ACCRETIVE_REL_FLOOR = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square C-contiguous complex128 array with finite entries.

    C order makes every result independent of the input's memory layout:
    some reductions sum in memory order.
    """
    if isinstance(a, AccretiveMatrix):
        return a.mat
    m = np.asarray(a, dtype=np.complex128, order="C")
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _as_stack(a) -> np.ndarray:
    # as_matrix, extended to stacks (..., d, d) of square matrices
    if np.ndim(a) <= 2:
        return as_matrix(a)
    m = np.asarray(a, dtype=np.complex128, order="C")
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix stack has non-finite entries")
    return m


def symmetrize(a) -> np.ndarray:
    """Return (A + A*)/2, bitwise Hermitian; of each slice of a stack."""
    m = _as_stack(a)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def real_part(a) -> np.ndarray:
    """Hermitian real part (A + A*)/2 of the Cartesian decomposition (per slice)."""
    return symmetrize(a)


def imag_part(a) -> np.ndarray:
    """Hermitian imaginary part (A - A*)/(2i) of the Cartesian decomposition."""
    m = as_matrix(a)
    return (m - m.conj().T) / 2j


def frob(a) -> float:
    """Frobenius norm, summed in C order whatever the argument's memory layout."""
    return float(np.linalg.norm(np.ascontiguousarray(a)))


def inverse(a, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    """Invert a square complex matrix, or every slice of a stack ``(..., d, d)``.

    One LAPACK call (``np.linalg.inv``) covers the whole stack.

    Raises:
        SingularMatrix: LAPACK met an exactly zero pivot in some slice.
        IllConditioned: in some slice the estimate ||A||_F * ||X||_F exceeded
            ``cond_cap``.
    """
    return _inv(_as_stack(a), cond_cap)


def _frob_sq(m: np.ndarray) -> np.ndarray:
    # squared Frobenius norm of each slice, in any memory layout
    v = np.ascontiguousarray(m).view(np.float64)
    return np.einsum("...ij,...ij->...", v, v)


def _frob_scaled(m: np.ndarray) -> np.ndarray:
    # Frobenius norm of each slice, scaled by its largest modulus s so that no
    # square overflows or underflows.  The sum is >= 1, as s contributes 1; fmax
    # keeps an infinite, NaN or zero slice's norm s where m / s is NaN.
    a = np.abs(m)
    s = np.max(a, axis=(-2, -1), keepdims=True)
    a /= s
    return s[..., 0, 0] * np.sqrt(np.fmax(np.einsum("...ij,...ij->...", a, a), 1.0))


def _inv(m: np.ndarray, cond_cap: float = DEFAULT_COND_CAP) -> np.ndarray:
    # inverse of a validated complex128 stack; see inverse
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"LAPACK inversion failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        # max propagates a NaN estimate, which then fails the finiteness test.
        cond_est = math.sqrt((_frob_sq(m) * _frob_sq(x)).max())
        if not math.isfinite(cond_est) or cond_est > cond_cap:
            # the squares may have overflowed or underflowed: recompute scale-safely
            cond_est = float((_frob_scaled(m) * _frob_scaled(x)).max())
    if not math.isfinite(cond_est) or cond_est > cond_cap:
        raise IllConditioned(f"condition estimate {cond_est:.3e} exceeds cap {cond_cap:g}")
    return x


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``.

    Parameters
    ----------
    h : array_like
        Hermitian matrix or stack of them (symmetrized on entry, so
        near-Hermitian input is tolerated).

    Returns
    -------
    (w, v)
        ``w`` ascending real eigenvalues, ``v`` unitary with columns the
        eigenvectors, so that ``h = v @ diag(w) @ v.conj().T`` (per slice).

    Raises
    ------
    NoConvergence
        If LAPACK reports that the eigenvalues did not converge.
    """
    try:
        return np.linalg.eigh(symmetrize(h))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc


def _hpd_map(h, fn, what: str) -> np.ndarray:
    w, v = herm_eig(h)
    if np.min(w) <= 0.0:
        raise NotPositiveDefinite(f"{what} needs a positive definite argument "
                                  f"(smallest eigenvalue {np.min(w):.3e})")
    return symmetrize((v * fn(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def hpd_power(h, p: float) -> np.ndarray:
    """Fractional power H^p of a Hermitian positive definite matrix (or stack)."""
    return _hpd_map(h, lambda w: w**p, f"hpd_power(p={p})")


def hpd_log(h) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive definite matrix (or stack)."""
    return _hpd_map(h, np.log, "hpd_log")


def _item(x):
    # A lone matrix's result as a Python scalar, a stack's as an array.
    return x.item() if np.ndim(x) == 0 else x


def op_norm(a):
    """Operator (spectral) norm: largest singular value (of each slice of a stack)."""
    m = _as_stack(a)
    w, _ = herm_eig(m.conj().swapaxes(-1, -2) @ m)
    return _item(np.sqrt(np.maximum(w[..., -1], 0.0)))


@dataclass(frozen=True)
class LoewnerTolerance:
    """Tolerance policy for floating-point Loewner comparisons.

    ``relative`` is scaled by the larger operator norm of the comparands.
    """

    absolute: float = 1e-10
    relative: float = 1e-10

    def __post_init__(self):
        for name in ("absolute", "relative"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} tolerance must be finite and >= 0, got {val}")


DEFAULT_LOEWNER_TOL = LoewnerTolerance()


def loewner_margin(x, y, tol: LoewnerTolerance = DEFAULT_LOEWNER_TOL) -> tuple[bool, float, float]:
    """Test X >= Y in the Loewner order and return both margins.

    Returns ``(holds, margin, normalized)``: ``margin`` is the smallest
    eigenvalue of X - Y and ``normalized`` is margin over the larger operator
    norm of X and Y; the comparison passes when
    ``margin >= -(tol.absolute + tol.relative * max(||X||, ||Y||))``.  For
    stacks ``(..., d, d)`` each of the three is an array over the stack.
    """
    xm = symmetrize(x)
    ym = symmetrize(y)
    if xm.shape != ym.shape:
        raise DimensionMismatch(f"shape {xm.shape} vs {ym.shape}")
    w, _ = herm_eig(np.stack([xm - ym, xm, ym]))
    margin = w[0, ..., 0]
    big = np.max(np.abs(w[1:, ..., [0, -1]]), axis=(0, -1))
    holds = margin >= -(tol.absolute + tol.relative * big)
    return _item(holds), _item(margin), _item(margin / np.maximum(big, 1e-30))


def loewner_geq(x, y, tol: LoewnerTolerance = DEFAULT_LOEWNER_TOL) -> tuple[bool, float]:
    """Test X >= Y in the Loewner order, within tolerance.

    Returns ``(holds, margin)`` where margin is the smallest eigenvalue of
    X - Y; see :func:`loewner_margin`.
    """
    return loewner_margin(x, y, tol)[:2]


@dataclass(frozen=True, eq=False)
class AccretiveMatrix:
    """A validated accretive matrix: real part strictly positive definite.

    ``re_min_eig`` caches the smallest eigenvalue of the real part.  Use
    :meth:`from_matrix` to construct; direct construction skips validation.
    """

    mat: np.ndarray
    re_min_eig: float

    @classmethod
    def from_matrix(cls, a) -> "AccretiveMatrix":
        m = as_matrix(a)
        if m.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {m.shape[0]} exceeds the supported cap {MAX_DIM}")
        w, _ = herm_eig(real_part(m))
        lo = float(w[0])
        norm = max(abs(float(w[0])), abs(float(w[-1])))
        if lo <= ACCRETIVE_REL_FLOOR * norm or lo <= 0.0:
            raise NotAccretive(
                f"smallest eigenvalue of the real part is {lo:.6e} "
                f"(needs > {ACCRETIVE_REL_FLOOR:g} * ||Re A|| = {ACCRETIVE_REL_FLOOR * norm:.6e})"
            )
        m = m.copy()
        m.setflags(write=False)
        return cls(mat=m, re_min_eig=lo)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]
