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
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, GeometryError
from .herglotz import PassivityCertificate, passivity_check
from .linalg import (
    SINGULAR_CONDITION_LIMIT,
    condition_1norm,
    hermitian_parts,
    solve,
    split_blocks,
)
from .stack import StackSpec
from .transfer import J, RHO, TransferMatrix, field_profile, propagate, resolve_stack

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
    "boundary_operators",
    "dtn_from_tensors",
    "apply_dtn",
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
    if isinstance(T, TransferMatrix):
        return T.matrix
    A = np.asarray(T, dtype=complex)
    if A.shape != (4, 4):
        raise GeometryError(f"expected a 4×4 transfer matrix, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class FluxForm:
    """Hermitian flux form ``J - T* J T`` of a transfer matrix."""

    matrix: np.ndarray

    @property
    def blocks(self):
        return split_blocks(self.matrix)

    @property
    def min_eig(self) -> float:
        H = (self.matrix + self.matrix.conj().T) / 2.0
        return float(np.linalg.eigvalsh(H)[0])


def flux_form(T) -> FluxForm:
    """Compute ``J - T* J T`` directly from the transfer matrix."""
    M = _as_transfer_matrix(T)
    return FluxForm(J - M.conj().T @ J @ M)


def flux_block_expression(T) -> np.ndarray:
    """Assemble the flux form from the 2×2 blocks of ``T``.

    The diagonal blocks are ``2 Re(T11* RHO* T21)`` and
    ``2 Re(T12* RHO* T22)``; the off-diagonal block is
    ``RHO - (T21* RHO* T12 + T11* RHO T22)`` with its adjoint opposite.
    Agrees with :func:`flux_form` entrywise (identically in exact
    arithmetic).
    """
    T11, T12, T21, T22 = split_blocks(_as_transfer_matrix(T))
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


def check_well_defined(T, tol: float = 0.0) -> WellDefinedCertificate:
    """Certify that the boundary operator construction is well posed.

    Checks positive definiteness of the flux form (smallest eigenvalue above
    ``tol``) and invertibility of all four 2×2 blocks of ``T`` (1-norm
    condition below the singularity limit). The full condition estimate of
    the pivotal block ``T12`` is reported, together with the numerical
    resolution floor of the flux margin.
    """
    M = _as_transfer_matrix(T)
    F = flux_form(M)
    norm_T = float(np.linalg.norm(M, 2))
    resolution = float(np.finfo(float).eps) * max(norm_T, 1.0) ** 2
    conds = condition_1norm(np.stack(split_blocks(M)))
    invertible = tuple(bool(c <= SINGULAR_CONDITION_LIMIT) for c in conds)
    return WellDefinedCertificate(
        flux_positive=bool(F.min_eig > tol),
        flux_min_eig=F.min_eig,
        blocks_invertible=invertible,
        condition_T12=float(conds[1]),
        transfer_norm=norm_T,
        flux_resolution=resolution,
    )


@dataclass(frozen=True)
class GammaMatrix:
    """Rearranged two-point relation: ``(v1; v0) = Gamma (u1; u0)``."""

    matrix: np.ndarray


def _gamma_matrix(T: np.ndarray) -> np.ndarray:
    """``Gamma`` of a transfer matrix or a batch (..., 4, 4) of them."""
    T11, T12 = T[..., :2, :2], T[..., :2, 2:]
    T21, T22 = T[..., 2:, :2], T[..., 2:, 2:]
    inv_T12 = solve(T12, np.eye(2, dtype=complex))
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
    ``(..., 6, 6)``; ``blocks`` and ``tangential_compression`` index the last
    two axes.
    """

    z0: float
    z1: float
    matrix: np.ndarray

    @property
    def blocks(self):
        M = self.matrix
        return (M[..., :3, :3].copy(), M[..., :3, 3:].copy(),
                M[..., 3:, :3].copy(), M[..., 3:, 3:].copy())

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
        return (self.passive and self.well_defined.flux_positive
                and all(self.well_defined.blocks_invertible)
                and self.im_min_eig > 0.0 and not self.anomalies)


def _certified_dtn(thickness, omega_eps, omega_mu, kappa, c: float, z_min: float,
                   z0: float | None = None,
                   z1: float | None = None) -> tuple[np.ndarray, DtnCertificate]:
    """Boundary operators (n, 6, 6) of resolved stacks with tensors of shape
    (n, L, 3, 3). All go through the ``T12`` singularity guard; entry 0 also
    gets the passivity, well-posedness and positivity checks."""
    pc = passivity_check(omega_eps[0], omega_mu[0])  # one eigvalsh over the layers
    passivity = tuple(PassivityCertificate(*v) for v in zip(*(a.tolist() for a in pc)))
    passive = all(p.ok for p in passivity)
    T = propagate(thickness, omega_eps, omega_mu, kappa, c, z_min, z0, z1)
    wd = check_well_defined(T[0])
    anomalies = []
    # margins are meaningless once |min eig| sinks below the rounding floor
    # of J - T*JT; keep the verdict fail-closed but diagnose it honestly
    exhausted = abs(wd.flux_min_eig) <= wd.flux_resolution
    if passive and not wd.flux_positive:
        if exhausted:
            anomalies.append(
                f"flux margin below the numerical resolution of the transfer "
                f"route (|T| = {wd.transfer_norm:.3e}, resolution = "
                f"{wd.flux_resolution:.3e}); result indeterminate in double "
                f"precision")
        else:
            anomalies.append(
                f"flux form not positive definite for passive input "
                f"(min eig {wd.flux_min_eig:.3e})")
    if passive and not all(wd.blocks_invertible):
        anomalies.append(
            f"transfer-matrix block numerically singular for passive input "
            f"(cond T12 {wd.condition_T12:.3e})")
    L = _lambda_matrix(_gamma_matrix(T))
    comp_im = hermitian_parts(L[0, TANGENTIAL_INDICES[:, None], TANGENTIAL_INDICES]).imag
    im_min = float(np.linalg.eigvalsh(comp_im)[0])
    if passive and wd.flux_positive and im_min <= 0.0:
        anomalies.append(
            f"Im of the tangential compression not positive definite "
            f"(min eig {im_min:.3e})")
    cert = DtnCertificate(passivity, passive, wd, im_min, tuple(anomalies))
    return L, cert


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


def boundary_operators(stack: StackSpec, kappa, omegas, z0: float,
                       z1: float) -> tuple[np.ndarray, DtnCertificate]:
    """Boundary operators of the slab ``[z0, z1]`` at frequencies ``omegas``
    (all with ``Im omega > 0``) from one batched propagation: the matrices,
    shape (n, 6, 6), and the certificate (see :func:`dtn`) of the first."""
    w, k = _certified_inputs(kappa, np.reshape(omegas, -1), z0, z1)
    thickness, we, wm = resolve_stack(stack, w)
    return _certified_dtn(thickness, we, wm, k, stack.c, stack.z_min, z0, z1)


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
        ``Im`` of the tangential compression. Theorem-contradicting outcomes
        are reported in ``certificate.anomalies`` rather than raised.
    """
    L, cert = boundary_operators(stack, kappa, [complex(omega)], z0, z1)
    return DtnMap(float(z0), float(z1), L[0]), cert


def dtn_from_tensors(layer_tensors, kappa, c: float = 1.0,
                     z_min: float = 0.0) -> tuple[DtnMap, DtnCertificate]:
    """Boundary operator across explicitly resolved layer tensors.

    The tensor route drives the analyticity slices and trajectory
    certificates, where the response tensors are perturbed directly instead
    of coming from material models at a frequency.

    ``layer_tensors`` lists ``(thickness, omega_eps, omega_mu)`` bottom to
    top. Tensors with (broadcasting) leading batch axes are one propagation:
    ``matrix`` has shape ``batch + (6, 6)``, the certificate is entry 0's,
    and every entry passes the ``T12``, normal-block and overflow guards.
    """
    k = _validate_kappa_real(kappa)
    t, we, wm = zip(*layer_tensors)
    Z = np.stack(np.broadcast_arrays(*we, *wm), axis=-3)
    flat = Z.reshape((-1,) + Z.shape[-3:])
    L, cert = _certified_dtn(t, flat[:, :len(t)], flat[:, len(t):], k, c, z_min)
    return (DtnMap(float(z_min), float(np.cumsum((z_min,) + t)[-1]),
                   L.reshape(Z.shape[:-3] + (6, 6))), cert)


def apply_dtn(L: DtnMap, f_top, f_bottom) -> tuple[np.ndarray, np.ndarray]:
    """Apply the boundary operator to a pair of tangential traces.

    Parameters
    ----------
    L : DtnMap
    f_top, f_bottom : array_like
        Tangential 3-vectors ``E×n`` at the top and bottom faces (third
        component must vanish).

    Returns
    -------
    (g_top, g_bottom) : numpy.ndarray
        The tangential outputs ``i n×H×n`` at the two faces.
    """
    ft = np.asarray(f_top, dtype=complex).reshape(3)
    fb = np.asarray(f_bottom, dtype=complex).reshape(3)
    scale = max(float(np.linalg.norm(ft)), float(np.linalg.norm(fb)), 1.0)
    if max(abs(ft[2]), abs(fb[2])) > 1e-13 * scale:
        raise DomainError("traces must be tangential (zero third component)")
    g = L.matrix @ np.concatenate([ft, fb])
    return g[..., :3], g[..., 3:]


@dataclass(frozen=True)
class EnergyReport:
    """Two sides of the energy-conservation law and their mismatch."""

    boundary_flux: float
    absorption_integral: float
    relative_gap: float
    n_points: int


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
    positive and equal.

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
    w = complex(omega)
    if w.imag <= 0.0:
        raise DomainError(f"omega must satisfy Im omega > 0, got {w}")
    k = _validate_kappa_real(kappa)
    z0 = stack.z_min if z0 is None else float(z0)
    z1 = stack.z_max if z1 is None else float(z1)
    if not z0 < z1:
        raise GeometryError(f"need z0 < z1, got z0={z0}, z1={z1}")
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points}")

    psi0 = np.asarray(psi0, dtype=complex).reshape(4)
    _, we, wm = resolve_stack(stack, w)
    b = stack.boundaries

    # overlap segments of [z0, z1] with each layer, split into equal cells
    lo, hi = np.maximum(z0, b[:-1]), np.minimum(z1, b[1:])
    seg = np.flatnonzero(hi > lo)
    counts = np.array(_layer_point_counts(list(hi[seg] - lo[seg]), int(n_points)))
    zlayer = np.repeat(seg, counts)
    n = zlayer.size
    h = np.repeat((hi[seg] - lo[seg]) / counts, counts)
    cell = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    zs = np.repeat(lo[seg], counts) + (cell + 0.5) * h

    # the two endpoints ride along for the boundary side
    psi, phi = field_profile(stack, psi0, k, w, np.append(zs, [z0, z1]), z_ref=z0)
    E = np.concatenate([psi[:n, :2], phi[:n, :1]], axis=1)
    H = np.concatenate([psi[:n, 2:], phi[:n, 1:]], axis=1)
    im_we, im_wm = hermitian_parts(we).imag[zlayer], hermitian_parts(wm).imag[zlayer]
    dens = (np.einsum("ni,nij,nj->n", H.conj(), im_wm, H)
            + np.einsum("ni,nij,nj->n", E.conj(), im_we, E)).real
    absorbed = float(h @ dens) / (8.0 * np.pi)

    flux = [float(np.vdot(p, J @ p).real) for p in psi[n:]]
    boundary = (stack.c / (16.0 * np.pi)) * (flux[0] - flux[1])

    gap = abs(boundary - absorbed) / max(abs(boundary), abs(absorbed), _TINY)
    return EnergyReport(boundary, absorbed, float(gap), n)
