"""Hermitian coordinates, the positive-semidefinite cone, and trajectories.

The space of N×N Hermitian matrices is identified with ``R^{N²}`` through the
isometry ``phi`` (``Tr(AB) = phi(A)·phi(B)``); matrices with positive-definite
imaginary part form the tube ``R^{N²} + i·(interior PSD cone)`` in these
coordinates. The PSD cone is closed, convex, acute, and self-dual — probed
numerically here by sampling.

Trajectories: any tensor ``L`` with ``Im L > 0`` is the ``s = i`` point of the
curve ``L'(s) = L0 - (A + sB)^{-1}`` with ``A = Re (L0-L)^{-1}`` and
``B = Im (L0-L)^{-1} > 0``; the curve maps the open upper half-plane into the
tube, so scalar boundary samples composed with it inherit the Herglotz
property, which :func:`herglotz_along_trajectory` certifies on a grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analyticity import CR_TOL, _stencil_pass, cr_anomalies, scalar_sample
from .dtn import DtnMap
from .exceptions import ContractError, DomainError, ParameterError, SingularMatrixError
from .herglotz import _PSD_RTOL, _require_hermitian
from .linalg import as_cmatrix, condition_1norm, hermitian_parts, inverse, min_im_eig

__all__ = [
    "phi",
    "phi_inv",
    "basis",
    "cone_member",
    "self_duality_check",
    "ConeMembership",
    "SelfDualityReport",
    "TrajectorySpec",
    "trajectory_coeffs",
    "trajectory_point",
    "trajectory_roundtrip",
    "herglotz_along_trajectory",
    "TrajectoryCertificate",
]


def phi(A) -> np.ndarray:
    """Coordinates of a Hermitian matrix: diagonal, then ``√2·Re`` and
    ``√2·Im`` of the upper triangle (row-major)."""
    H = _require_hermitian(A, "A")
    upper = H[np.triu_indices(H.shape[0], 1)]
    return np.concatenate([np.diag(H).real, np.sqrt(2.0) * upper.real,
                           np.sqrt(2.0) * upper.imag])


def phi_inv(x) -> np.ndarray:
    """Inverse of :func:`phi`; the input length must be a perfect square."""
    v = np.asarray(x, dtype=float).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ParameterError(f"coordinate length {v.size} is not a perfect square")
    H = np.zeros((n, n), dtype=complex)
    H[np.diag_indices(n)] = v[:n]
    k, l = np.triu_indices(n, 1)
    H[k, l] = (v[n:n + k.size] + 1j * v[n + k.size:]) / np.sqrt(2.0)
    H[l, k] = H[k, l].conj()
    return H


def basis(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis matching the :func:`phi` coordinates.

    Order: ``E_kk`` for each diagonal, then ``(E_kl + E_lk)/√2`` and
    ``i(E_kl - E_lk)/√2`` over the upper triangle row-major. ``phi`` maps
    each element to the corresponding one-hot vector.
    """
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    return np.array([phi_inv(e) for e in np.eye(n * n)])


class ConeMembership(NamedTuple):
    """PSD-cone membership verdicts with the eigenvalue margin."""

    in_closed: bool
    in_interior: bool
    margin: float


def cone_member(H) -> ConeMembership:
    """Membership of a Hermitian matrix in the PSD cone.

    ``in_closed`` iff the smallest eigenvalue is ``>= 0``; ``in_interior``
    iff it is ``> 0``. The margin is the smallest eigenvalue itself.
    """
    A = _require_hermitian(H, "H")
    margin = float(np.linalg.eigvalsh(A)[0])
    return ConeMembership(margin >= 0.0, margin > 0.0, margin)


class SelfDualityReport(NamedTuple):
    """Sampling evidence for self-duality of the PSD cone."""

    consistent: bool
    min_pairing: float
    witness: np.ndarray | None


def self_duality_check(H, seed: int = 0) -> SelfDualityReport:
    """Probe ``H ⪰ 0  ⟺  Tr(H B) ≥ 0 for all B ⪰ 0`` by sampling.

    For ``H`` in the cone (smallest eigenvalue above ``-1e-12`` relative):
    pairs against 200 random PSD samples and reports the smallest pairing
    (consistency requires it above ``-1e-12`` relative).
    For ``H`` outside: returns the rank-one eigenvector witness ``v v*`` with
    ``Tr(H v v*) < 0``, confirming the dual separation.
    """
    A = _require_hermitian(H, "H")
    n = A.shape[0]
    eigs, vecs = np.linalg.eigh(A)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    if eigs[0] >= -_PSD_RTOL * scale:
        rng = np.random.default_rng(seed)
        worst = np.inf
        for _ in range(200):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            B = G.conj().T @ G
            B /= max(np.trace(B).real, 1.0)
            worst = min(worst, float(np.trace(A @ B).real))
        return SelfDualityReport(worst >= -_PSD_RTOL * scale, worst, None)
    v = vecs[:, 0]
    witness = np.outer(v, v.conj())
    pairing = float(np.trace(A @ witness).real)
    return SelfDualityReport(pairing < 0.0, pairing, witness)


@dataclass(frozen=True)
class TrajectorySpec:
    """Base point and per-tensor coefficients of a tube trajectory."""

    L0: np.ndarray
    coeffs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        L0 = _require_hermitian(self.L0, "L0")
        if np.linalg.norm(L0.imag) > _PSD_RTOL * max(np.linalg.norm(L0), 1.0):
            raise ContractError("L0 must be real symmetric")
        object.__setattr__(self, "L0", L0.real.astype(float))
        object.__setattr__(self, "coeffs", tuple(
            (np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))
            for A, B in self.coeffs))


def trajectory_coeffs(L0, tensors: Sequence) -> TrajectorySpec:
    """Coefficients ``(A_j, B_j)`` reproducing each tensor at ``s = i``.

    ``A_j = Re (L0 - L_j)^{-1}`` and ``B_j = Im (L0 - L_j)^{-1}``; the domain
    requires ``Im L_j`` positive definite, which forces ``B_j`` positive
    definite.
    """
    L0 = _require_hermitian(L0, "L0").real
    pairs = []
    for j, L in enumerate(tensors):
        Lj = as_cmatrix(L, f"tensors[{j}]", square=True)
        if Lj.shape != L0.shape:
            raise ParameterError(f"tensors[{j}] shape {Lj.shape} does not match "
                                 f"L0 shape {L0.shape}")
        if min_im_eig(Lj) <= 0.0:
            raise DomainError(f"Im of tensors[{j}] must be positive definite")
        G = inverse(L0 - Lj)
        A, B = hermitian_parts(G)
        if np.linalg.eigvalsh(B)[0] <= 0.0:
            raise ContractError(
                f"coefficient B[{j}] lost positive definiteness numerically")
        pairs.append((A, B))
    return TrajectorySpec(L0, tuple(pairs))


def trajectory_point(spec: TrajectorySpec, s) -> tuple[np.ndarray, ...]:
    """Tensors ``L'_j(s) = L0 - (A_j + s B_j)^{-1}`` at ``Im s > 0``.

    ``s`` may be an array: each returned tensor then has leading shape
    ``s.shape``, and all of them come from one guarded inversion of the
    (parameter, tensor) batch of ``A_j + s B_j``.
    """
    sc = np.asarray(s, dtype=complex)
    bad = ~(sc.imag > 0.0)
    if np.any(bad):
        raise DomainError(f"trajectory parameter must satisfy Im s > 0, "
                          f"got {complex(sc[bad][0])}")
    if not spec.coeffs:
        return ()
    A, B = (np.stack(M) for M in zip(*spec.coeffs))
    M = A + sc[..., None, None, None] * B
    try:
        inv = inverse(M)
    except SingularMatrixError as exc:
        cond = condition_1norm(M).reshape(-1, len(spec.coeffs))
        raise SingularMatrixError(
            f"anomaly: A + sB singular at Im s > 0 for tensor "
            f"{int(np.argmax(cond.max(axis=0)))} (contradicts B > 0): {exc}",
            condition=exc.condition) from exc
    out = spec.L0 - inv
    return tuple(out[..., j, :, :] for j in range(len(spec.coeffs)))


def trajectory_roundtrip(L0, tensors: Sequence) -> float:
    """Worst relative deviation of the ``s = i`` reconstruction.

    Builds coefficients from the tensors and evaluates the trajectory at
    ``s = i``, which must reproduce the inputs; returns
    ``max_j ||L'_j(i) - L_j|| / max(1, ||L_j||)``.
    """
    spec = trajectory_coeffs(L0, tensors)
    return _roundtrip_deviation(tensors, trajectory_point(spec, 1j))


def _roundtrip_deviation(tensors: Sequence, back: Sequence) -> float:
    """``max_j ||back_j - L_j|| / max(1, ||L_j||)`` over the tensors ``L_j``."""
    worst = 0.0
    for L, R in zip(tensors, back):
        L = np.asarray(L, dtype=complex)
        dev = np.linalg.norm(R - L) / max(1.0, np.linalg.norm(L))
        worst = max(worst, float(dev))
    return worst


class TrajectoryCertificate(NamedTuple):
    """Herglotz evidence for a scalar boundary sample along a trajectory."""

    grid: tuple[complex, ...]
    min_im: float
    worst_cr: float
    values: tuple[complex, ...]
    anomalies: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.anomalies


def herglotz_along_trajectory(builder: Callable[[Sequence[np.ndarray]], DtnMap],
                              spec: TrajectorySpec, f, s_grid: Sequence[complex],
                              cr_tol: float = CR_TOL,
                              step: float | None = None,
                              layers: int = 1) -> TrajectoryCertificate:
    """Certify that ``s -> (Lambda(Z(s)) f, f)`` behaves as a Herglotz map.

    The grid is evaluated in the chunks of the stencil pass, one builder call
    each. The first error of a chunk's trajectory tensors or builder call ends
    the certification; a singular or overflowing chunk is re-run point by
    point, raising its first failing s-point's own error.

    Parameters
    ----------
    builder : callable
        Maps the tuple of trajectory tensors to a boundary operator
        (typically wrapping the tensor-route pipeline with fixed geometry,
        wavevector, and constant). It gets tensors of leading shape
        (k, len(CR_OFFSETS)), k s-points each with its CR stencil, and must
        return the batched (k, len(CR_OFFSETS), 6, 6) map, as
        :func:`~dtnstack.dtn.dtn_from_tensors` does.
    spec : TrajectorySpec
    f : array_like
        Tangential 6-vector sample direction.
    s_grid : sequence of complex
        Evaluation points in the open upper half-plane.
    cr_tol : float
        CR-residual threshold. The verdict is "no anomaly": a worst residual
        not below it, or a sample with ``Im <= 0``, records one.
    step : float, optional
        CR stencil width (default ``1e-4·max(1, |s|)``), clamped to
        ``Im s / 2`` at each point.
    layers : int
        Layer count of the stacks ``builder`` propagates (a positive integer,
        else :class:`ParameterError`); it sizes the chunks
        (:func:`~dtnstack.analyticity._stencil_pass`).
    """
    if not len(s_grid):
        raise ParameterError("s_grid must be nonempty")
    if isinstance(layers, bool) or not isinstance(layers, (int, np.integer)) or layers < 1:
        raise ParameterError(f"layers must be a positive integer, got {layers!r}")

    def evaluate(stencils):
        return (scalar_sample(builder(trajectory_point(spec, stencils)), f),)

    values, residuals = zip(*_stencil_pass(s_grid, step, int(layers), evaluate, "s"))
    min_im = float(min(v.imag for v in values))
    worst_cr = float(max(residuals))
    anomalies = cr_anomalies(worst_cr, cr_tol)
    if not min_im > 0.0:
        anomalies = (f"Im of the boundary sample not positive along the "
                     f"trajectory (min {min_im:.3e})", *anomalies)
    return TrajectoryCertificate(tuple(complex(s) for s in s_grid), min_im, worst_cr,
                                 tuple(map(complex, values)), anomalies)
