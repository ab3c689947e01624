"""Dense complex linear algebra for small (≤ ~100×100) matrices.

Conventions used throughout the package:

* the matrix real/imaginary parts are the Hermitian matrices
  ``Re M = (M + M*) / 2`` and ``Im M = (M - M*) / (2i)``, where ``M*`` is the
  conjugate transpose, so ``M = Re M + i·Im M``;
* the standard inner product conjugates the second argument,
  ``(a, b) = a^T conj(b)``;
* "positive definite" always refers to a Hermitian matrix.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, NumericRangeError, SingularMatrixError

__all__ = [
    "HermitianPair",
    "as_cmatrix",
    "hermitian_parts",
    "min_im_eig",
    "mat_exp",
    "solve",
    "condition_1norm",
    "split_blocks",
]

#: 1-norm condition number beyond which solves are refused
SINGULAR_CONDITION_LIMIT = 1e12


class HermitianPair(NamedTuple):
    """Hermitian matrices ``real`` and ``imag`` with ``M = real + i*imag``."""

    real: np.ndarray
    imag: np.ndarray


def as_cmatrix(M, name: str = "matrix", shape: tuple | None = None,
               square: bool = False, batch: bool = False) -> np.ndarray:
    """Coerce ``M`` to a complex128 matrix (or batch of them) and validate it.

    Parameters
    ----------
    M : array_like
        Input data.
    name : str
        Name used in error messages.
    shape : tuple, optional
        Exact matrix shape to require.
    square : bool
        Require square matrices.
    batch : bool
        Accept leading batch axes; ``shape``/``square`` apply to the last two.

    Returns
    -------
    numpy.ndarray
        The validated complex array (a copy only when coercion needs one).
    """
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 and not (batch and A.ndim > 2):
        raise DimensionError(f"{name} must be 2-D or a batch, got ndim={A.ndim}")
    if shape is not None and A.shape[-2:] != tuple(shape):
        raise DimensionError(f"{name} must have shape {tuple(shape)}, got {A.shape}")
    if square and A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"{name} must be square, got {A.shape}")
    if not np.all(np.isfinite(A)):  # complex isfinite: both parts, any strides
        raise NumericRangeError(f"{name} contains non-finite entries")
    return A


def hermitian_parts(M) -> HermitianPair:
    """Split ``M`` into its matrix real and imaginary parts.

    ``Re M = (M + M*)/2`` and ``Im M = (M - M*)/(2i)`` are both Hermitian and
    satisfy ``M = Re M + i·Im M`` (batched over leading axes).
    """
    A = as_cmatrix(M, "M", square=True, batch=True)
    Ah = np.swapaxes(A, -1, -2).conj()
    return HermitianPair((A + Ah) / 2.0, (A - Ah) / 2.0j)


def min_im_eig(M) -> np.ndarray:
    """Smallest eigenvalue of ``Im M`` (one ``eigvalsh`` call over a batch)."""
    return np.linalg.eigvalsh(hermitian_parts(M).imag)[..., 0]


#: Padé coefficients by degree, and the largest 1-norm at which each unscaled
#: approximant below degree 13 is accurate to double precision; degree 13
#: scales by a power of two down to its own bound (Higham 2005, Table 2.3)
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}
_DEGREES = (3, 5, 7, 9, 13)
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068)
_THETA13 = 5.371920351148152


def _pade(A: np.ndarray, b: tuple) -> np.ndarray:
    """Unscaled Padé approximant of degree below 13 of a batch of matrices."""
    eye = np.eye(A.shape[-1], dtype=complex)
    A2 = A @ A
    powers = [eye, A2]  # the even powers A^0, A^2, ..., A^(m-1)
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ A2)
    U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
    V = sum(b[2 * k] * P for k, P in enumerate(powers))
    return np.linalg.solve(V - U, V + U)


def _pade13(A: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Degree-13 Padé approximant with per-matrix scaling and squaring."""
    b = _PADE[13]
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    A = A * np.exp2(-s)[..., None, None]
    eye = np.eye(A.shape[-1], dtype=complex)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for k in range(int(s.max(initial=0))):
        E = np.where((s > k)[..., None, None], E @ E, E)
    return E


def mat_exp(M) -> np.ndarray:
    """Matrix exponential of a square complex matrix or a batch of them.

    Padé approximation with scaling and squaring (N. J. Higham, SIAM J.
    Matrix Anal. Appl. 26:1179, 2005), vectorised over leading batch axes.
    Each matrix gets the lowest degree in {3, 5, 7, 9} whose bound covers
    its 1-norm, unscaled, or else degree 13 with its own power-of-two
    scaling, so a matrix gets the same result in any batch. Relative
    accuracy is about 1e-14 for 1-norms up to ~100. Raises
    :class:`NumericRangeError` if any result overflows.
    """
    A = as_cmatrix(M, "exponent", square=True, batch=True)
    flat = A.reshape((-1,) + A.shape[-2:])
    E = np.empty_like(flat)
    with np.errstate(all="ignore"):
        norm = np.abs(flat).sum(axis=-2).max(axis=-1)
        band = np.searchsorted(_THETA, norm)  # index into _DEGREES
        for i in np.unique(band):
            rows = np.flatnonzero(band == i)
            m = _DEGREES[i]
            E[rows] = (_pade13(flat[rows], norm[rows]) if m == 13
                       else _pade(flat[rows], _PADE[m]))
    if not np.all(np.isfinite(E.view(float))):
        raise NumericRangeError(f"mat_exp overflowed (input norm {np.max(norm):.3e})")
    return E.reshape(A.shape)


def condition_1norm(A):
    """1-norm condition number of ``A``, or an array for a batch (``inf`` if singular)."""
    A = as_cmatrix(A, "A", square=True, batch=True)
    c = np.abs(np.linalg.cond(A, 1))  # numpy returns complex dtype for complex A
    c = np.where(np.isfinite(c), c, np.inf)
    return float(c) if c.ndim == 0 else c


def solve(A, B) -> np.ndarray:
    """Solve ``A X = B`` for square ``A`` with a singularity guard.

    ``A`` may carry leading batch axes; ``B`` broadcasts against it.

    Raises
    ------
    SingularMatrixError
        If any ``A`` is singular or its 1-norm condition number exceeds
        ``1e12``. The error carries the worst condition estimate.
    """
    A = as_cmatrix(A, "A", square=True, batch=True)
    Barr = np.asarray(B, dtype=complex)
    cond = float(np.max(condition_1norm(A)))
    if not cond <= SINGULAR_CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond_1 ~ {cond:.3e})",
            condition=cond,
        )
    try:
        return np.linalg.solve(A, Barr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularMatrixError(f"singular system: {exc}") from exc


def split_blocks(M) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split an even-sized square matrix into its four half-size blocks.

    Returns ``(M11, M12, M21, M22)`` with respect to the splitting of the
    coordinates into first half ⊕ second half (for 4×4 inputs: the two
    2×2-block rows/columns).
    """
    A = as_cmatrix(M, "M", square=True)
    n = A.shape[0]
    if n % 2:
        raise DimensionError(f"block split needs even size, got {n}")
    h = n // 2
    return (A[:h, :h].copy(), A[:h, h:].copy(),
            A[h:, :h].copy(), A[h:, h:].copy())

