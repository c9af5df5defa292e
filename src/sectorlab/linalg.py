"""Dense complex matrix arithmetic on top of numpy arrays.

Everything here works on square ``complex128`` arrays.  Hermitian inputs and
outputs are Hermitian *bitwise* (constructed by symmetrization), so downstream
code may rely on ``H == H.conj().T`` exactly rather than approximately.  The
inverse and the Hermitian eigensolver are LAPACK's, through ``np.linalg``.
The functions that say so also take a stack ``(..., d, d)`` of matrices and
treat each slice bitwise as they would treat it alone.  One validator checks
every input: ``None`` entries raise ``TypeError``, non-square or empty input
raises ``DimensionMismatch``, and non-finite entries raise ``ValueError``.
One rule, ``_check_integer``, checks every integer argument of the package,
node counts and sizes alike: a Python or numpy integer in range, not
``bool``.  The public functions validate their input and then call private
cores, which the library's own paths call directly on the stacks they have
already validated or built: ``_inv``, one LAPACK call and a condition
estimate, under :func:`inverse`; ``_symmetrize`` under :func:`symmetrize`,
:func:`real_part` and the Hermitian eigensolver ``_herm_eig``, which checks
only that its matrices are finite, as a product of validated matrices may
overflow; and ``_op_norm`` under :func:`op_norm`.  ``_slice_frobs`` gives
:func:`frob` of every slice of a stack in one pass.
"""

from __future__ import annotations

import math
import numbers
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
    return _as_stack(a, lone=True)


def _as_stack(a, lone: bool = False) -> np.ndarray:
    # The one input validator: as_matrix, or unless lone a stack (..., d, d) of square
    # matrices; a scalar is a 1x1 matrix.
    if isinstance(a, AccretiveMatrix):
        return a.mat
    m = np.asarray(a)
    # numpy would coerce None to NaN, and the finiteness test would misname it
    if m.dtype == object and any(x is None for x in m.flat):
        raise TypeError("matrix entries must be numbers, got None")
    m = np.asarray(m, dtype=np.complex128, order="C")
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim < 2 or (lone and m.ndim > 2) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise DimensionMismatch(f"expected a non-empty matrix, got shape {m.shape}")
    return _finite(m)


def _finite(m: np.ndarray) -> np.ndarray:
    # m, if every entry is finite: _as_stack's last check, alone, for arrays the library built
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _check_integer(name: str, value, low: int, high: int | None = None, error=ValueError) -> int:
    # The one integer rule, for node counts and sizes: numpy integers count, bool does not.
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
            and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def symmetrize(a) -> np.ndarray:
    """Return (A + A*)/2, bitwise Hermitian; of each slice of a stack."""
    return _symmetrize(_as_stack(a))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # symmetrize of a complex stack the library built, in C order as _as_stack gives it
    m = np.ascontiguousarray(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def real_part(a) -> np.ndarray:
    """Hermitian real part (A + A*)/2 of the Cartesian decomposition (per slice)."""
    return symmetrize(a)


def imag_part(a) -> np.ndarray:
    """Hermitian imaginary part (A - A*)/(2i) of the Cartesian decomposition."""
    m = as_matrix(a)
    return (m - m.conj().T) / 2j


@np.errstate(over="ignore", invalid="ignore")
def frob(a) -> float:
    """Frobenius norm, summed in C order whatever the argument's memory layout, and
    scaled by the largest modulus where the sum of squares overflows or falls below 1e-150."""
    norm = float(np.linalg.norm(np.ascontiguousarray(a)))
    if norm == math.inf or (norm < 1e-150 and np.any(a)):
        norm = float(_frob_scaled(np.reshape(a, (1, -1))))
    return norm


def _slice_frobs(m: np.ndarray) -> list[float]:
    # frob of each slice of a stack (k, d, d), in one pass: frob's dot products,
    # sqrt(re.re + im.im), on the same strides, by one stacked BLAS call, so each is
    # bitwise frob of its slice; frob itself rescales where the squares overflow or underflow
    v = m.reshape(len(m), 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = v.real @ v.real.swapaxes(-1, -2) + v.imag @ v.imag.swapaxes(-1, -2)
    norms = np.sqrt(sq[:, 0, 0]).tolist()
    return [frob(x) if n == math.inf or n < 1e-150 else n for x, n in zip(m, norms)]


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
    # Frobenius norm of each slice in any layout, scaled by its largest modulus s
    # so that no square overflows or underflows.  The sum is >= 1, as s gives 1;
    # fmax keeps an infinite, NaN or zero slice's norm s where m / s is NaN.
    a = np.abs(m, order="C")
    s = np.max(a, axis=(-2, -1), keepdims=True)
    with np.errstate(invalid="ignore"):
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
    return _herm_eig(_as_stack(h))


def _herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # herm_eig of a complex stack the library built, whose entries must be finite
    try:
        return np.linalg.eigh(_symmetrize(_finite(m)))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc


def _hpd_apply(w: np.ndarray, v: np.ndarray, fn, what: str) -> np.ndarray:
    # fn of the Hermitian matrix (or stack) with eigenvalues w and eigenvectors v,
    # which must be positive definite; what names fn in the error
    if np.min(w) <= 0.0:
        raise NotPositiveDefinite(f"{what} needs a positive definite argument "
                                  f"(smallest eigenvalue {np.min(w):.3e})")
    return _symmetrize(_finite((v * fn(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)))


def _power(p: float):
    # hpd_power's spectral function w -> w^p, with its name for _hpd_apply
    return (lambda w: w**p), f"hpd_power(p={p})"


#: hpd_log's spectral function, with its name for _hpd_apply
_LOG = (np.log, "hpd_log")


def hpd_power(h, p: float) -> np.ndarray:
    """Fractional power H^p of a Hermitian positive definite matrix (or stack)."""
    return _hpd_apply(*herm_eig(h), *_power(p))


def hpd_log(h) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive definite matrix (or stack)."""
    return _hpd_apply(*herm_eig(h), *_LOG)


def _item(x):
    # A lone matrix's result as a Python scalar, a stack's as an array.
    return x.item() if np.ndim(x) == 0 else x


def op_norm(a):
    """Operator (spectral) norm: largest singular value (of each slice of a stack)."""
    return _item(_op_norm(_as_stack(a)))


def _op_norm(m: np.ndarray) -> np.ndarray:
    # op_norm of each slice of a validated complex stack, as an array
    w, _ = _herm_eig(m.conj().swapaxes(-1, -2) @ m)
    return np.sqrt(np.maximum(w[..., -1], 0.0))


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
    w, _ = _herm_eig(np.stack([xm - ym, xm, ym]))
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
        return cls._from_stack(as_matrix(a)[None])[0]

    @classmethod
    def _from_stack(cls, m: np.ndarray) -> list["AccretiveMatrix"]:
        # every slice of a validated stack (n, d, d) as a read-only AccretiveMatrix,
        # or NotAccretive for the first slice that fails _check_accretive
        lo = _check_accretive(m)
        m = m.copy()
        m.setflags(write=False)
        return [cls(mat=x, re_min_eig=float(x_lo)) for x, x_lo in zip(m, lo)]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _check_accretive(m: np.ndarray) -> np.ndarray:
    # The one accretivity rule, on a validated stack (n, d, d): the smallest eigenvalue
    # of each slice's real part, from one stacked eigh, or NotAccretive for the first
    # slice that fails.
    if m.shape[-1] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds the supported cap {MAX_DIM}")
    w, _ = _herm_eig(_symmetrize(m))
    lo = w[:, 0]
    norm = np.maximum(np.abs(lo), np.abs(w[:, -1]))
    bad = np.flatnonzero((lo <= ACCRETIVE_REL_FLOOR * norm) | (lo <= 0.0))
    if bad.size:
        k = bad[0]
        raise NotAccretive(
            f"smallest eigenvalue of the real part is {lo[k]:.6e} "
            f"(needs > {ACCRETIVE_REL_FLOOR:g} * ||Re A|| = {ACCRETIVE_REL_FLOOR * norm[k]:.6e})"
        )
    return lo
