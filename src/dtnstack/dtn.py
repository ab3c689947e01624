"""Electromagnetic Dirichlet-to-Neumann maps for layered passive media.

Given the transfer matrix ``T`` of a slab, the map ``Gamma`` rearranges the
two-point relation ``T (u0; v0) = (u1; v1)`` (tangential electric data ``u``,
tangential magnetic data ``v``) into ``(v1; v0) = Gamma (u1; u0)``. The
boundary operator

    Lambda [E×n |top; E×n |bottom] = [i n×H×n |top; i n×H×n |bottom]

is then a linear 6×6 map built from ``Gamma`` by embedding the tangential
planes into 3-space. For passive media at frequencies in the open upper
half-plane the flux form ``J - T* J T`` is positive definite, all four blocks
of ``T`` are invertible, and ``Im Lambda`` restricted to the tangential
coordinates is positive definite — these are the facts the certificates in
this module check numerically.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, GeometryError, NumericRangeError
from .herglotz import PassivityCertificate, passivity_anomalies, passivity_check
from .linalg import (
    SINGULAR_CONDITION_LIMIT,
    as_cmatrix,
    condition_1norm,
    hermitian_parts,
    inverse,
    min_im_eig,
)
from .stack import StackSpec, locate
from .transfer import (
    _TAYLOR_K,
    J,
    RHO,
    TransferMatrix,
    _chunk_rows,
    _layer_stage,
    _nearest_anchors,
    _normal_map,
    _taylor_coefficients,
    _taylor_values,
    propagate,
    resolve_stack,
)

__all__ = [
    "P_T",
    "E3_CROSS",
    "FluxForm",
    "GammaMatrix",
    "DtnMap",
    "WellDefinedCertificate",
    "DtnCertificate",
    "EnergyReport",
    "flux_form",
    "flux_block_expression",
    "check_well_defined",
    "gamma",
    "lambda_map",
    "dtn",
    "dtn_from_tensors",
    "energy_balance",
]

#: embedding of the tangential plane into 3-space (third row zero)
P_T = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)

#: cross-product matrix of the stacking direction, e3 × (·)
E3_CROSS = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                    dtype=complex)

#: indices of the tangential rows/columns of a 6×6 boundary operator
TANGENTIAL_INDICES = np.array([0, 1, 3, 4])

_TINY = np.finfo(float).tiny


def _as_transfer_matrix(T) -> np.ndarray:
    """The 4×4 transfer matrix, or a batch (..., 4, 4) of them."""
    if isinstance(T, TransferMatrix):
        return T.matrix
    A = np.asarray(T, dtype=complex)
    if A.shape[-2:] != (4, 4):
        raise GeometryError(f"expected a 4×4 transfer matrix, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class FluxForm:
    """Hermitian flux form ``J - T* J T`` of a transfer matrix (or a batch)."""

    matrix: np.ndarray

    @property
    def min_eig(self):
        """Smallest eigenvalue: a scalar, or an array over a batch."""
        return np.linalg.eigvalsh(hermitian_parts(self.matrix).real)[..., 0]


def flux_form(T) -> FluxForm:
    """Compute ``J - T* J T`` directly from the transfer matrix. Raises
    :class:`NumericRangeError` if a finite ``T`` overflows it."""
    M = _as_transfer_matrix(T)
    with np.errstate(over="ignore", invalid="ignore"):
        F = J - np.swapaxes(M.conj(), -1, -2) @ J @ M
    if not np.all(np.isfinite(F)) and np.all(np.isfinite(M)):
        raise NumericRangeError(f"flux form overflowed (max |T_ij| = {np.max(np.abs(M)):.3e})")
    return FluxForm(F)


def flux_block_expression(T) -> np.ndarray:
    """Assemble the flux form from the 2×2 blocks of ``T``.

    The diagonal blocks are ``2 Re(T11* RHO* T21)`` and
    ``2 Re(T12* RHO* T22)``; the off-diagonal block is
    ``RHO - (T21* RHO* T12 + T11* RHO T22)`` with its adjoint opposite.
    Agrees with :func:`flux_form` entrywise (identically in exact
    arithmetic).
    """
    M = as_cmatrix(_as_transfer_matrix(T), "T", shape=(4, 4))
    T11, T12, T21, T22 = M[:2, :2], M[:2, 2:], M[2:, :2], M[2:, 2:]
    rs = RHO.conj().T
    re = lambda M: (M + M.conj().T) / 2.0
    F11 = 2.0 * re(T11.conj().T @ rs @ T21)
    F22 = 2.0 * re(T12.conj().T @ rs @ T22)
    F12 = RHO - (T21.conj().T @ rs @ T12 + T11.conj().T @ RHO @ T22)
    return np.block([[F11, F12], [F12.conj().T, F22]])


class WellDefinedCertificate(NamedTuple):
    """Flux positivity plus block invertibility of a transfer matrix.

    ``flux_resolution`` is the rounding-noise floor of the computed flux
    form, roughly ``machine eps * |T|^2``: forming ``J - T* J T`` cancels
    catastrophically once the transfer matrix grows (thick strongly
    absorbing stacks), and margins smaller than this floor carry no
    information. Verdicts are still fail-closed in that regime; the
    accompanying anomaly text distinguishes "resolution exhausted" from a
    genuine sign violation.
    """

    flux_positive: bool
    flux_min_eig: float
    blocks_invertible: tuple[bool, bool, bool, bool]
    condition_T12: float
    transfer_norm: float
    flux_resolution: float


def _row(cert: NamedTuple, i) -> NamedTuple:
    """Entry ``i`` of a certificate of arrays, as Python scalars (a tuple for
    a trailing axis)."""
    values = (np.asarray(a)[i].tolist() for a in cert)
    return type(cert)(*(tuple(v) if isinstance(v, list) else v for v in values))


def check_well_defined(T) -> WellDefinedCertificate:
    """Certify that the boundary operator construction is well posed.

    Checks positive definiteness of the flux form (smallest eigenvalue above
    0) and invertibility of all four 2×2 blocks of ``T`` (1-norm
    condition below the singularity limit). The full condition estimate of
    the pivotal block ``T12`` is reported, together with the numerical
    resolution floor of the flux margin. Python scalars for one transfer
    matrix; for a batch (..., 4, 4), arrays over the leading axes, with
    ``blocks_invertible`` on a trailing axis of four.
    """
    M = _as_transfer_matrix(T)
    min_eig = flux_form(M).min_eig
    norm_T = np.linalg.norm(M, 2, axis=(-2, -1))
    # float_power calls libm pow as a Python float's ** does (numpy's ** 2
    # squares), so a batch row has the floor bits of a single matrix
    resolution = np.finfo(float).eps * np.float_power(np.maximum(norm_T, 1.0), 2)
    conds = condition_1norm(np.stack([M[..., :2, :2], M[..., :2, 2:],
                                      M[..., 2:, :2], M[..., 2:, 2:]], axis=-3))
    wd = WellDefinedCertificate(min_eig > 0.0, min_eig, conds <= SINGULAR_CONDITION_LIMIT,
                                conds[..., 1], norm_T, resolution)
    return _row(wd, ()) if M.ndim == 2 else wd


@dataclass(frozen=True)
class GammaMatrix:
    """Rearranged two-point relation: ``(v1; v0) = Gamma (u1; u0)``."""

    matrix: np.ndarray


def _gamma_matrix(T: np.ndarray) -> np.ndarray:
    """``Gamma`` of a transfer matrix or a batch (..., 4, 4) of them."""
    T11, T12 = T[..., :2, :2], T[..., :2, 2:]
    T21, T22 = T[..., 2:, :2], T[..., 2:, 2:]
    inv_T12 = inverse(T12, "T12")
    return np.block([[T22 @ inv_T12, T21 - T22 @ inv_T12 @ T11],
                     [inv_T12, -inv_T12 @ T11]])


def gamma(T) -> GammaMatrix:
    """Build ``Gamma`` from the transfer-matrix blocks.

    ``Gamma = [[T22 T12^{-1}, T21 - T22 T12^{-1} T11],
    [T12^{-1}, -T12^{-1} T11]]``. Raises a singularity error (carrying the
    condition estimate) if ``T12`` is numerically singular — for passive
    inputs that contradicts flux positivity and is surfaced by
    :func:`dtn` as an anomaly, never silently.
    """
    return GammaMatrix(_gamma_matrix(_as_transfer_matrix(T)))


@dataclass(frozen=True)
class DtnMap:
    """Boundary operator on tangential traces at the two faces.

    ``matrix`` is 6×6 acting on stacked 3-vectors (top face first); rows and
    columns 3 and 6 are identically zero because both the inputs and outputs
    are tangential. A batch of operators has ``matrix`` of shape
    ``(..., 6, 6)``; ``tangential_compression`` indexes the last two axes.
    """

    z0: float
    z1: float
    matrix: np.ndarray

    @property
    def tangential_compression(self) -> np.ndarray:
        """The 4×4 restriction to rows/columns 1, 2, 4, 5."""
        return self.matrix[..., TANGENTIAL_INDICES[:, None], TANGENTIAL_INDICES]


def _lambda_matrix(G: np.ndarray) -> np.ndarray:
    """6×6 boundary operators of a ``Gamma`` matrix or a batch of them."""
    Pt, E = P_T, E3_CROSS
    return np.block([[1j * Pt @ G[..., :2, :2] @ Pt.T @ E, -1j * Pt @ G[..., :2, 2:] @ Pt.T @ E],
                     [1j * Pt @ G[..., 2:, :2] @ Pt.T @ E, -1j * Pt @ G[..., 2:, 2:] @ Pt.T @ E]])


def lambda_map(G: GammaMatrix, z0: float = 0.0, z1: float = 1.0) -> DtnMap:
    """Assemble the 6×6 boundary operator from ``Gamma``.

    ``Lambda = i diag(P_T, P_T) Gamma diag(P_T^T, P_T^T) diag(e3×, -e3×)``.
    """
    return DtnMap(float(z0), float(z1), _lambda_matrix(G.matrix))


@dataclass(frozen=True)
class DtnCertificate:
    """Everything checked along the way to a boundary operator."""

    layer_passivity: tuple[PassivityCertificate, ...]
    passive: bool
    well_defined: WellDefinedCertificate
    im_min_eig: float
    anomalies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.anomalies


def _certified_dtn(thickness, omega_eps, omega_mu, kappa, c: float, z_min: float,
                   z0: float | None = None, z1: float | None = None,
                   certify=True, phase_of_layer=None
                   ) -> tuple[np.ndarray, tuple[DtnCertificate, ...]]:
    """Boundary operators ``batch + (6, 6)`` of resolved stacks with tensors of
    shape ``batch + (L, 3, 3)`` (per phase, with ``phase_of_layer``: see
    :func:`~dtnstack.transfer.propagate`), and the certificates of the
    entries where ``certify`` (broadcast to ``batch``) is true, in C order.
    Every entry goes through the ``T12`` singularity guard; the certified
    ones get the passivity, well-posedness and positivity checks, one
    batched call each."""
    T = propagate(thickness, omega_eps, omega_mu, kappa, c, z_min, z0, z1, phase_of_layer)
    L = _lambda_matrix(_gamma_matrix(T))
    mask = np.broadcast_to(certify, T.shape[:-2])
    if not mask.any():
        return L, ()
    we, wm = omega_eps[mask], omega_mu[mask]
    if phase_of_layer is not None:  # passivity is certified per layer
        we, wm = we[:, phase_of_layer], wm[:, phase_of_layer]
    pc = passivity_check(we, wm)  # (entries, layers) arrays
    wds = check_well_defined(T[mask])
    im_mins = min_im_eig(L[mask][:, TANGENTIAL_INDICES[:, None], TANGENTIAL_INDICES])
    certs = []
    for i, im_min in enumerate(im_mins.tolist()):
        passivity = tuple(PassivityCertificate(*v) for v in zip(*(a[i].tolist() for a in pc)))
        passive = all(p.ok for p in passivity)
        wd = _row(wds, i)
        anomalies = [] if passive else passivity_anomalies(
            PassivityCertificate(*(a[i] for a in pc)),
            [f"layer {j}" for j in range(len(passivity))])
        # margins are meaningless once |min eig| sinks below the rounding floor
        # of J - T*JT: a failed flux or compression check there is
        # indeterminate, not a contradiction (the verdict stays fail-closed)
        exhausted = abs(wd.flux_min_eig) <= wd.flux_resolution
        compression_positive = im_min > 0.0
        if passive and exhausted and not (wd.flux_positive and compression_positive):
            anomalies.append(
                f"flux margin below the numerical resolution of the transfer "
                f"route (|T| = {wd.transfer_norm:.3e}, resolution = "
                f"{wd.flux_resolution:.3e}); result indeterminate in double "
                f"precision")
        elif passive and not wd.flux_positive:
            anomalies.append(
                f"flux form not positive definite for passive input "
                f"(min eig {wd.flux_min_eig:.3e})")
        if passive and not all(wd.blocks_invertible):
            anomalies.append(
                f"transfer-matrix block numerically singular for passive input "
                f"(cond T12 {wd.condition_T12:.3e})")
        if passive and wd.flux_positive and not exhausted and not compression_positive:
            anomalies.append(
                f"Im of the tangential compression not positive definite "
                f"(min eig {im_min:.3e})")
        certs.append(DtnCertificate(passivity, passive, wd, im_min, tuple(anomalies)))
    return L, tuple(certs)


def _validate_kappa_real(kappa) -> tuple[float, float]:
    k = np.asarray(kappa, dtype=complex).reshape(2)
    if np.max(np.abs(k.imag)) != 0.0:
        raise DomainError(f"kappa must be real for boundary-operator "
                          f"certification, got {kappa}")
    return float(k[0].real), float(k[1].real)


def _certified_inputs(kappa, omegas, z0: float,
                      z1: float) -> tuple[np.ndarray, tuple[float, float]]:
    """The frequencies as an array and the real wavevector, after the gates of
    the certified routes: ``Im omega > 0`` everywhere, real ``kappa`` and
    ``z0 < z1``."""
    w = np.asarray(omegas, dtype=complex)
    if np.any(w.imag <= 0.0):
        raise DomainError(f"omega must satisfy Im omega > 0, got "
                          f"{complex(w[w.imag <= 0.0][0])}")
    k = _validate_kappa_real(kappa)
    if not z0 < z1:
        raise GeometryError(f"need z0 < z1, got z0={z0}, z1={z1}")
    return w, k


def dtn(stack: StackSpec, kappa, omega, z0: float, z1: float) -> tuple[DtnMap, DtnCertificate]:
    """Boundary operator of the slab ``[z0, z1]`` with its certificate.

    Parameters
    ----------
    stack : StackSpec
    kappa : real pair
        In-plane wavevector (complex values are rejected here).
    omega : complex
        Frequency with ``Im omega > 0``.
    z0, z1 : float
        Faces of the sub-slab, ``z0 < z1``, both inside the stack.

    Returns
    -------
    (DtnMap, DtnCertificate)
        The certificate carries per-layer passivity margins, the flux/
        invertibility checks, and the positivity margin of
        ``Im`` of the tangential compression. Every failed check, a
        non-passive layer included, is reported in ``certificate.anomalies``
        rather than raised; ``certificate.ok`` is true iff there is none.
    """
    w, k = _certified_inputs(kappa, complex(omega), z0, z1)
    L, (cert,) = _certified_dtn(*resolve_stack(stack, w), k, stack.c, stack.z_min, z0, z1)
    return DtnMap(float(z0), float(z1), L), cert


def _tensor_dtn(thickness, phase_of_layer, Z, kappa, c: float, z_min: float,
                certify: bool) -> tuple[DtnMap, tuple[DtnCertificate, ...]]:
    """:func:`dtn_from_tensors` of layers ``thickness``, layer ``j`` taking phase
    ``phase_of_layer[j]`` of ``Z`` (omega*eps per phase, then omega*mu per
    phase), with every entry's certificate or none. The per-phase tensors
    go to :func:`~dtnstack.transfer.propagate` with the layer-to-phase
    index (the phase route), so ``build_A`` and the Padé powers run once
    per (entry, phase); only certification expands them to layers."""
    k = _validate_kappa_real(kappa)
    S = np.stack(np.broadcast_arrays(*Z), axis=-3)
    P = len(Z) // 2
    L, certs = _certified_dtn(thickness, S[..., :P, :, :], S[..., P:, :, :], k, c, z_min,
                              certify=certify, phase_of_layer=np.asarray(phase_of_layer))
    return DtnMap(float(z_min), float(np.cumsum((z_min, *thickness))[-1]), L), certs


def dtn_from_tensors(layer_tensors, kappa, c: float = 1.0, z_min: float = 0.0
                     ) -> tuple[DtnMap, tuple[DtnCertificate, ...]]:
    """Boundary operator across explicitly resolved layer tensors.

    The tensor route drives the analyticity slices and trajectory
    certificates, where the response tensors are perturbed directly instead
    of coming from material models at a frequency.

    ``layer_tensors`` lists ``(thickness, omega_eps, omega_mu)`` bottom to
    top. Returns the :class:`DtnMap` and a tuple of :class:`DtnCertificate`,
    one per entry in C order (one for unbatched tensors). Tensors with
    (broadcasting) leading batch axes are one propagation: ``matrix`` has
    shape ``batch + (6, 6)``, and each entry's certificate equals that
    entry's own call.
    """
    t, we, wm = zip(*layer_tensors)
    return _tensor_dtn(t, range(len(t)), we + wm, kappa, c, z_min, True)


@dataclass(frozen=True)
class EnergyReport:
    """Energy-law sides, their mismatch, and every layer's passivity margins."""

    boundary_flux: float
    absorption_integral: float
    relative_gap: float
    n_points: int
    passivity: PassivityCertificate


def _layer_point_counts(segments: list[float], n_points: int) -> list[int]:
    """Distribute quadrature points over segments proportionally to length."""
    total = sum(segments)
    counts = [max(1, int(round(n_points * s / total))) for s in segments]
    # nudge the largest segment so the total stays close to the request
    drift = n_points - sum(counts)
    if drift != 0 and counts:
        k = int(np.argmax(segments))
        counts[k] = max(1, counts[k] + drift)
    return counts


#: Bernoulli numbers B_0, B_2, ..., B_2K as (numerator, denominator) (DLMF Table 24.2.1)
_BERNOULLI = ((1, 1), (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730), (8553103, 6), (-23749461029, 870),
              (8615841276005, 14322), (-7709321041217, 510))

#: Euler–Maclaurin weights ``B_2j C(s + 1, 2j) / (s + 1)`` of :func:`_power_sums`,
#: row ``j``, column ``s`` (zero where ``2j > s``): one correctly rounded
#: division of exact integers each
_EULER_MACLAURIN = np.array([[num * comb(s + 1, 2 * j) / (den * (s + 1)) if 2 * j <= s else 0.0
                              for s in range(2 * _TAYLOR_K + 1)]
                             for j, (num, den) in enumerate(_BERNOULLI)])


def _power_sums(a: np.ndarray, b: np.ndarray, count: np.ndarray,
                step: np.ndarray) -> np.ndarray:
    """``sum_n x_n^s`` for ``s = 0 .. 2K`` over each arithmetic progression
    ``x_n = a + n step``, ``n < count``, ending at ``b``: shape (len(a), 2K + 1).

    The Euler–Maclaurin formula (DLMF 2.10.1, Bernoulli numbers §24.2) is
    exact for polynomials, and with ``b^r - a^r = (b - a) h_(r-1)(a, b)``,
    ``h_n(a, b) = sum_k a^k b^(n-k)`` and ``b - a = (count - 1) step`` it reads
    ``(a^s + b^s) / 2 + (count - 1) sum_j B_2j C(s+1, 2j) / (s+1) step^2j
    h_(s-2j)(a, b)``: no difference of nearly equal powers is formed, so a
    short progression keeps its digits."""
    K2 = 2 * _TAYLOR_K
    pa, pb = a[:, np.newaxis] ** np.arange(K2 + 1), b[:, np.newaxis] ** np.arange(K2 + 1)
    h = np.empty_like(pa)
    h[:, 0] = 1.0
    for n in range(1, K2 + 1):
        h[:, n] = b * h[:, n - 1] + pa[:, n]
    d2 = np.where(count > 1, step, 0.0) ** 2  # a single term has no step
    tail = h * _EULER_MACLAURIN[0]
    d2j = np.ones_like(d2)
    for j in range(1, _TAYLOR_K + 1):
        d2j = d2j * d2
        tail[:, 2 * j:] += d2j[:, np.newaxis] * _EULER_MACLAURIN[j, 2 * j:] * h[:, :K2 + 1 - 2 * j]
    return (pa + pb) / 2.0 + (count - 1)[:, np.newaxis] * tail


def _segment_anchors(per_length: np.ndarray, layer: np.ndarray, start: np.ndarray,
                     width: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The anchors of each segment's midpoints ``start + (i + 1/2) width``,
    ``i < counts``, offsets in its layer (see
    :func:`~dtnstack.transfer.field_profile`), and their power sums.

    Every anchor that owns a midpoint comes once, as its key ``layer +
    i*multiple`` (:func:`~dtnstack.transfer._nearest_anchors`), with the
    power sums of its midpoints' unit offsets (:func:`_power_sums`): in the
    unit of the layer's spacing the midpoints are ``y0 + i d``, anchor ``m``
    owns those with ``rint(y) = m``, an index range found from ``m`` itself.
    The candidate multiples run from the first midpoint's to the last's, or
    are the midpoints' own where they are sparser than the multiples, so no
    array outgrows the anchors or the midpoints, whichever are fewer."""
    pl = per_length[layer]
    y0, d = (start + 0.5 * width) * pl, width * pl
    m0 = np.rint(y0)
    size = np.minimum(np.rint(y0 + (counts - 1) * d) - m0 + 1, counts).astype(int)
    seg = np.repeat(np.arange(layer.size), size)
    first_of_seg = np.cumsum(size) - size
    i = np.arange(seg.size) - first_of_seg[seg]
    y0, d, counts = y0[seg], d[seg], counts[seg]
    m = np.where(size[seg] < counts, m0[seg] + i, np.rint(y0 + i * d))
    # anchor m's first midpoint is the first with y >= m - 1/2 (the first
    # candidate, rint(y0), gets midpoint 0)
    first = np.clip(np.ceil((m - 0.5 - y0) / d), 0, counts).astype(int)
    stop = np.append(first[1:], 0)
    stop[first_of_seg + size - 1] = counts[first_of_seg]
    own = stop > first
    first, stop, m, y0, d = first[own], stop[own], m[own], y0[own], d[own]
    sums = _power_sums(y0 + first * d - m, y0 + (stop - 1) * d - m, stop - first, d)
    return layer[seg[own]] + 1j * m, sums


def _absorption_forms(omega_eps, omega_mu, kappa, c: float) -> np.ndarray:
    """Hermitian ``Q`` per layer, shape (L, 4, 4), with absorbed density
    ``(E, Im[omega*eps] E) + (H, Im[omega*mu] H) = psi* Q psi``: with the
    normal components ``phi = R psi``, ``E = P_eps psi`` and ``H = P_mu psi``
    for ``P_eps = [e1; e2; R_0]`` and ``P_mu = [e3; e4; R_1]``, and
    ``Q = P_eps* Im[omega*eps] P_eps + P_mu* Im[omega*mu] P_mu``."""
    R = _normal_map(omega_eps, omega_mu, kappa, c)
    P = np.zeros(R.shape[:-2] + (2, 3, 4), dtype=complex)
    P[..., 0, [0, 1], [0, 1]] = 1.0
    P[..., 1, [0, 1], [2, 3]] = 1.0
    P[..., 2, :] = R
    W = np.stack([hermitian_parts(omega_eps).imag, hermitian_parts(omega_mu).imag], axis=-3)
    return (np.swapaxes(P.conj(), -1, -2) @ W @ P).sum(axis=-3)


def energy_balance(stack: StackSpec, psi0, kappa, omega,
                   z0: float | None = None, z1: float | None = None,
                   n_points: int = 2000) -> EnergyReport:
    """Numerically certify energy conservation for one solution.

    The solution with tangential data ``psi0`` at ``z0`` is propagated across
    ``[z0, z1]``; the boundary side is the indefinite product
    ``(c/16π)(J psi, psi)`` evaluated at the endpoints (bottom minus top),
    and the absorbed side is the composite-midpoint quadrature of
    ``(1/8π)[(H, Im[omega*mu] H) + (E, Im[omega*eps] E)]`` with the full
    3-component fields. For passive media at ``Im omega > 0`` both sides are
    positive and equal, so the report also holds the layers' passivity.

    The absorbed side never forms a field sample. In layer ``j`` the density
    is ``psi* Q_j psi`` for one Hermitian 4×4 ``Q_j`` (the normal components
    are a fixed linear map of ``psi`` there), and each sample is a Taylor
    polynomial ``psi_n = sum_p c_p x_n^p`` from its nearest anchor (see
    :func:`~dtnstack.transfer.field_profile`), so the samples of anchor
    ``a`` sum to ``tr(Q_j G_a)`` with the Gram matrix
    ``G_a = sum_n psi_n psi_n* = C^T H_a conj(C)``, ``H_a[p, q]`` the power
    sum of ``x_n^(p+q)`` over the anchor's samples. The absorbed side is
    ``(1/8π) sum_a h_j Re tr(Q_j G_a)``, ``h_j`` the cell width in layer
    ``j``. An anchor's samples are equally spaced, so its power sums are
    closed forms in its first and last offset, its sample count and the
    spacing (the Euler–Maclaurin formula, exact for polynomials): the cost
    follows the anchors, not ``n_points``, and no array per sample is
    formed. The two endpoints are Taylor polynomials from their nearest
    anchors, evaluated as :func:`~dtnstack.transfer.field_profile`
    evaluates them.

    Parameters
    ----------
    stack : StackSpec
    psi0 : array_like
        Tangential data at ``z0``.
    kappa : real pair
    omega : complex, ``Im omega > 0``
    z0, z1 : float, optional
        Integration interval (defaults: the whole stack).
    n_points : int
        Total quadrature points, distributed over layers by thickness.

    Returns
    -------
    EnergyReport
    """
    z0 = stack.z_min if z0 is None else float(z0)
    z1 = stack.z_max if z1 is None else float(z1)
    w, k = _certified_inputs(kappa, complex(omega), z0, z1)
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points}")
    b = stack.boundaries

    # overlap segments of [z0, z1] with each layer, split into equal cells
    lo, hi = np.maximum(z0, b[:-1]), np.minimum(z1, b[1:])
    seg = np.flatnonzero(hi > lo)
    counts = np.array(_layer_point_counts(list(hi[seg] - lo[seg]), int(n_points)))
    width = np.zeros(b.size - 1)
    width[seg] = (hi[seg] - lo[seg]) / counts

    layers = _layer_stage(stack, psi0, k, w, z0)
    seg_keys, seg_sums = _segment_anchors(layers.per_length, seg, lo[seg] - b[seg],
                                          width[seg], counts)
    # the two endpoints ride along for the boundary side
    end_keys, end_x = _nearest_anchors(layers.per_length, *locate(stack, np.array([z0, z1])))
    keys, anchor_of = np.unique(np.append(seg_keys, end_keys), return_inverse=True)
    sums = np.zeros((keys.size, 2 * _TAYLOR_K + 1))
    sums[anchor_of[:-2]] = seg_sums
    end_anchor, a_layer = anchor_of[-2:], keys.real.astype(int)
    Q = _absorption_forms(layers.omega_eps, layers.omega_mu, k, stack.c)
    hankel = np.add.outer(np.arange(_TAYLOR_K + 1), np.arange(_TAYLOR_K + 1))

    absorbed, ends = 0.0, np.empty((2, 4), dtype=complex)
    for chunk, coef in _taylor_coefficients(layers, keys):
        rows = _chunk_rows(end_anchor, chunk)
        ends[rows] = _taylor_values(coef, end_anchor[rows] - chunk[0], end_x[rows])
        C = coef.transpose(1, 0, 2)  # (anchor, p, 4)
        G = np.swapaxes(C, -1, -2) @ (sums[chunk][:, hankel] @ C.conj())
        j = a_layer[chunk]
        absorbed += float(width[j] @ np.einsum("aki,aik->a", Q[j], G).real)
    absorbed /= 8.0 * np.pi

    flux = [float(np.vdot(p, J @ p).real) for p in ends]
    boundary = (stack.c / (16.0 * np.pi)) * (flux[0] - flux[1])

    gap = abs(boundary - absorbed) / max(abs(boundary), abs(absorbed), _TINY)
    return EnergyReport(boundary, absorbed, float(gap), int(counts.sum()),
                        passivity_check(layers.omega_eps, layers.omega_mu))
