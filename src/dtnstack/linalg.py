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
    "inverse",
    "condition_1norm",
]

#: 1-norm condition number beyond which inversions are refused
SINGULAR_CONDITION_LIMIT = 1e12

#: most matrices a batched pass (a grid chunk, a field profile's anchors) hands
#: one :func:`mat_exp` call, and most samples a field profile evaluates at once:
#: bounds their temporaries whatever the input size
MAT_EXP_BATCH = 1024


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


#: Padé coefficients by degree, and the largest 1-norm at which each
#: approximant is accurate to double precision (Higham 2005, Table 2.3); a
#: matrix beyond the degree-9 bound takes degree 13 after dividing by a power
#: of two down to its bound, and is squared back
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

#: the Padé coefficients of each degree, one row per band, padded with zeros
#: to degree 13
_PADE_BANDS = np.array([_PADE[m] + (0.0,) * (13 - m) for m in _DEGREES])


def _slots(base_of: np.ndarray) -> np.ndarray:
    """For each entry, how many earlier entries equal it."""
    order = np.argsort(base_of, kind="stable")
    slot = np.empty_like(base_of)
    slot[order] = np.arange(slot.size) - np.searchsorted(base_of[order], base_of[order])
    return slot


def _exp_scaled(B: np.ndarray, w: np.ndarray,
                base_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(w[j] B[n, base_of[j]])`` for bases ``B`` of shape (N, P, m, m),
    shape (N, L, m, m), and the 1-norms ``|w[j]| ||B[n, base_of[j]]||_1``
    of the scaled matrices (see :func:`mat_exp`).

    Each base is divided by a power of two, 2^e, which is exact: its 1-norm
    lies in [1/2, 1), so none of its powers overflows, and the scale carries
    2^e. Its even powers are formed once, up to the highest degree any
    scaled matrix of the call needs. A scaled matrix below the degree-9
    bound takes the lowest degree whose bound covers its 1-norm, with
    ``s = 0``; one beyond it takes degree 13 with ``s`` the least power of
    two that brings its 1-norm to the degree-13 bound. Per scaled matrix,
    with ``c_i = b_i (w 2^(e-s))^i``, the odd sum
    ``S = sum_k c_(2k+1) B^(2k)`` and the even sum ``V = sum_k c_(2k) B^(2k)``
    are taken elementwise, one term at a time in increasing ``k`` (the
    identity's term first), broadcasting each base's powers over its slots;
    ``U = B S`` is one product and ``(V - U)^{-1} (V + U)`` one solve over
    the rows in use, and each result is squared ``s`` times. So a matrix's
    value does not depend on its batch, and at a power-of-two ``w`` it is
    the bits of the same sums over the powers of ``w B`` itself.
    """
    N, P, m = B.shape[0], B.shape[1], B.shape[-1]
    base = (np.arange(N)[:, None] * P + base_of).reshape(-1)
    slot = np.tile(_slots(base_of), N)
    w = np.tile(w, N)
    with np.errstate(all="ignore"):
        base_norm = np.abs(B).sum(axis=-2).max(axis=-1).reshape(-1)
        norm = np.abs(w) * base_norm[base]
        if not np.all(np.isfinite(norm)):
            raise NumericRangeError("exponent contains non-finite entries")
        if not norm.size * m:
            return np.empty((N, base_of.size, m, m), dtype=complex), norm
        band = np.searchsorted(_THETA, norm)
        s = np.where(band == len(_THETA),
                     np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)), 0).astype(int)
        e = np.frexp(base_norm)[1]
        Bs = np.ldexp(B.reshape(-1, m, m).view(float), -e[:, None, None]).view(complex)
        B2 = Bs @ Bs
        powers = [B2]
        while 2 * len(powers) < _DEGREES[band.max()] - 1:
            powers.append(powers[-1] @ B2)
        c = np.zeros((Bs.shape[0], int(slot.max()) + 1, _PADE_BANDS.shape[1]))
        c[base, slot] = _PADE_BANDS[band] * np.vander(np.ldexp(w, e[base] - s), c.shape[-1],
                                                      increasing=True)
        cf = c[..., np.newaxis, np.newaxis]
        G = [Bk.view(float)[:, np.newaxis] for Bk in powers]
        S, V = cf[:, :, 3] * G[0], cf[:, :, 2] * G[0]
        d = np.arange(m)
        S.view(complex)[:, :, d, d] += c[:, :, 1, np.newaxis]  # the identity's term comes first
        V.view(complex)[:, :, d, d] += c[:, :, 0, np.newaxis]
        for i in range(1, len(powers)):
            S += cf[:, :, 2 * i + 3] * G[i]
            V += cf[:, :, 2 * i + 2] * G[i]
        V, U = V.view(complex)[base, slot], (Bs[:, np.newaxis] @ S.view(complex))[base, slot]
        D = V - U
        V += U
        E = np.linalg.solve(D, V)
        for k in range(s.max()):
            E = np.where((s > k)[:, None, None], E @ E, E)
    return E.reshape(N, base_of.size, m, m), norm


def mat_exp(M, scales=None, base_of=None) -> np.ndarray:
    """Matrix exponential of a square complex matrix or a batch of them.

    Padé approximation with scaling and squaring (N. J. Higham, SIAM J.
    Matrix Anal. Appl. 26:1179, 2005), vectorised over leading batch axes.
    Each matrix gets the lowest degree in {3, 5, 7, 9} whose bound covers
    its 1-norm, unscaled, or else degree 13 with its own power-of-two
    scaling, so a matrix gets the same result in any batch. Relative
    accuracy is about 1e-14 for 1-norms up to ~100. Raises
    :class:`NumericRangeError` if any result overflows.

    Without ``scales``, every matrix of ``M`` is its own base at scale 1.
    With ``scales`` and ``base_of``, ``M`` holds bases of shape (..., P, n,
    n) and the result is ``exp(scales[j] * M[..., base_of[j], :, :])`` for
    each ``j``, shape (..., len(scales), n, n). Both go through one kernel.
    Exponentials of one base at many scales ``w`` share its even powers,
    since ``(w B)^k = w^k B^k`` (Al-Mohy & Higham, SIAM J. Sci. Comput.
    33:488, 2011): each base is divided by a power of two to a 1-norm in
    [1/2, 1), which is exact, and its even powers are formed once, up to
    the highest degree any scaled matrix of the call needs. Each scaled
    matrix takes its degree from ``|w| ||B||_1`` and costs its
    coefficients ``b_i w^i``, one product and one solve; one beyond the
    degree-9 bound takes degree 13 from the same powers, at its own
    power-of-two scaling, and is squared back. Every result depends only
    on its own base and scale, whatever the batch. Raises
    :class:`DimensionError` unless ``base_of`` holds one integer in
    ``[0, P)`` per scale.
    """
    A = as_cmatrix(M, "exponent", square=True, batch=True)
    if scales is None:
        B = A.reshape((1, -1) + A.shape[-2:])
        w, idx = np.ones(B.shape[1]), np.arange(B.shape[1])
        shape = A.shape
    else:
        w = np.asarray(scales, dtype=float).reshape(-1)
        idx = np.asarray(base_of).reshape(-1)
        if A.ndim < 3 or idx.shape != w.shape:
            raise DimensionError(f"scaled exponentials need bases (..., P, n, n) and "
                                 f"one base per scale, got {A.shape}, {w.size} scales "
                                 f"and {idx.size} bases")
        if idx.size and not (idx.dtype.kind in "iu" and idx.min() >= 0
                             and idx.max() < A.shape[-3]):
            raise DimensionError(f"base_of must hold integers in [0, {A.shape[-3]}), "
                                 f"got {idx}")
        idx = idx.astype(int)
        B = A.reshape((-1,) + A.shape[-3:])
        shape = A.shape[:-3] + (w.size,) + A.shape[-2:]
    E, norm = _exp_scaled(B, w, idx)
    if not np.all(np.isfinite(E.view(float))):
        raise NumericRangeError(f"mat_exp overflowed (input norm {np.max(norm):.3e})")
    return E.reshape(shape)


def condition_1norm(A):
    """1-norm condition number of ``A``, or an array for a batch (``inf`` if singular)."""
    A = as_cmatrix(A, "A", square=True, batch=True)
    c = np.abs(np.linalg.cond(A, 1))  # numpy returns complex dtype for complex A
    c = np.where(np.isfinite(c), c, np.inf)
    return float(c) if c.ndim == 0 else c


def inverse(A, name: str = "matrix") -> np.ndarray:
    """Inverse of square ``A`` (or of each matrix of a batch) with a
    singularity guard; ``name`` names ``A`` in the error.

    The 1-norm condition number is ``||A||_1 ||A^{-1}||_1`` from the same
    inverse, so each matrix is inverted once.

    Raises
    ------
    SingularMatrixError
        If any ``A`` is singular or its 1-norm condition number exceeds
        ``1e12``. The error carries the worst condition estimate.
    """
    A = as_cmatrix(A, "A", square=True, batch=True)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # exactly singular
        cond = np.inf
    else:
        with np.errstate(all="ignore"):
            c = (np.abs(A).sum(axis=-2).max(axis=-1)
                 * np.abs(inv).sum(axis=-2).max(axis=-1))
        cond = float(np.max(np.where(np.isfinite(c), c, np.inf)))
    if not cond <= SINGULAR_CONDITION_LIMIT:
        raise SingularMatrixError(
            f"{name} is singular to working precision (cond_1 ~ {cond:.3e})",
            condition=cond,
        )
    return inv

