"""Tangential-field transfer matrices for layered anisotropic media.

The tangential field ``psi = (E1, E2, H1, H2)`` of a time-harmonic wave with
in-plane wavevector ``kappa = (k1, k2)`` satisfies the linear ODE
``psi' = i J A(z) psi`` along the stacking axis, where ``J`` is the constant
flux matrix below and ``A(z)`` is built pointwise from the material response
tensors. Over a homogeneous layer the propagator is a single matrix
exponential, and the transfer matrix of any interval is the ordered product
of layer propagators (later layers multiply on the left).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryError, NumericRangeError, SingularMatrixError
from .herglotz import eval_responses
from .linalg import as_cmatrix, mat_exp, solve
from .stack import StackSpec, locate

__all__ = [
    "RHO",
    "J",
    "TransferMatrix",
    "resolve_stack",
    "resolve_layers",
    "build_A",
    "normal_components",
    "layer_propagator",
    "propagate",
    "transfer",
    "field_profile",
]

#: 2×2 rotation generator; RHO* = -RHO = RHO^{-1}
RHO = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

#: 4×4 flux matrix [[0, RHO], [RHO*, 0]]; Hermitian, J @ J = I
J = np.block([[np.zeros((2, 2)), RHO], [RHO.conj().T, np.zeros((2, 2))]]).astype(complex)

#: most sample offsets exponentiated per call: bounds the temporaries of
#: :func:`field_profile` (about 4 KB per offset) whatever the sample count
FIELD_BATCH = 4096


def resolve_stack(stack: StackSpec, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thicknesses (L,) and ``omega*eps``, ``omega*mu`` of shape
    ``omega.shape + (L, 3, 3)`` at one frequency or an array of them, from
    one evaluation per model kind (:func:`~dtnstack.herglotz.eval_responses`,
    every eps model before every mu model)."""
    L = len(stack.layers)
    Z = eval_responses([ly.material.eps_model for ly in stack.layers]
                       + [ly.material.mu_model for ly in stack.layers], omega)
    return np.array([ly.thickness for ly in stack.layers]), Z[..., :L, :, :], Z[..., L:, :, :]


def resolve_layers(stack: StackSpec, omega) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Every layer's ``(thickness, omega*eps, omega*mu)`` at one frequency."""
    return [(float(t), e, m) for t, e, m in zip(*resolve_stack(stack, complex(omega)))]


def _v_blocks(omega_eps: np.ndarray, omega_mu: np.ndarray, kappa, c: float):
    """The blocks of the first-order system, batched over leading axes."""
    k1, k2 = complex(kappa[0]), complex(kappa[1])
    we, wm = omega_eps / c, omega_mu / c
    batch = we.shape[:-2]
    Vpp = np.zeros(batch + (4, 4), dtype=complex)
    Vpp[..., :2, :2] = we[..., :2, :2]
    Vpp[..., 2:, 2:] = wm[..., :2, :2]

    Vpo = np.zeros(batch + (4, 2), dtype=complex)
    Vpo[..., :2, 0] = we[..., :2, 2]
    Vpo[..., 2:, 1] = wm[..., :2, 2]
    Vpo += np.array([[0.0, k2], [0.0, -k1], [-k2, 0.0], [k1, 0.0]])

    Vop = np.zeros(batch + (2, 4), dtype=complex)
    Vop[..., 0, :2] = we[..., 2, :2]
    Vop[..., 1, 2:] = wm[..., 2, :2]
    Vop += np.array([[0.0, 0.0, -k2, k1], [k2, -k1, 0.0, 0.0]])

    voo = np.stack([we[..., 2, 2], wm[..., 2, 2]], axis=-1)  # diagonal of the normal block
    if np.min(np.abs(voo), initial=np.inf) == 0.0:
        raise SingularMatrixError(
            "normal response block is singular (omega*eps_33 or omega*mu_33 vanishes)")
    return Vpp, Vpo, Vop, voo


def build_A(omega_eps, omega_mu, kappa, c: float = 1.0) -> np.ndarray:
    """System matrix of the tangential ODE ``psi' = i J A psi``.

    Parameters
    ----------
    omega_eps, omega_mu : array_like
        Response tensors ``omega*eps(omega)`` and ``omega*mu(omega)``, 3×3,
        optionally with matching leading batch axes.
    kappa : sequence of two scalars
        In-plane wavevector; complex values are accepted.
    c : float
        Speed-of-light constant (default 1).

    Returns
    -------
    numpy.ndarray
        The 4×4 matrices ``A = Vpp - Vpo Voo^{-1} Vop`` after eliminating the
        normal field components.

    Raises
    ------
    NumericRangeError
        If an entry of ``A`` overflows (e.g. a huge wavevector).
    """
    we = as_cmatrix(omega_eps, "omega_eps", shape=(3, 3), batch=True)
    wm = as_cmatrix(omega_mu, "omega_mu", shape=(3, 3), batch=True)
    with np.errstate(all="ignore"):
        Vpp, Vpo, Vop, voo = _v_blocks(we, wm, kappa, float(c))
        A = Vpp - (Vpo / voo[..., np.newaxis, :]) @ Vop
    if not np.all(np.isfinite(A.view(float))):
        raise NumericRangeError(f"system matrix overflowed (kappa = {np.asarray(kappa).tolist()})")
    return A


def normal_components(omega_eps, omega_mu, kappa, psi, c: float = 1.0) -> np.ndarray:
    """Normal components ``phi = (E3, H3)`` induced by tangential data ``psi``.

    ``phi = -Voo^{-1} Vop psi`` with the same block conventions as
    :func:`build_A`; ``psi`` may carry leading batch axes, shape (..., 4).
    """
    we = as_cmatrix(omega_eps, "omega_eps", shape=(3, 3))
    wm = as_cmatrix(omega_mu, "omega_mu", shape=(3, 3))
    psi = np.asarray(psi, dtype=complex)
    _, _, Vop, voo = _v_blocks(we, wm, kappa, float(c))
    return -(psi @ Vop.T) / voo


def layer_propagator(A, dz) -> np.ndarray:
    """Propagators ``exp(i J A dz)`` across homogeneous slabs of width ``dz``,
    in one :func:`mat_exp` call; ``dz`` broadcasts against A's batch axes."""
    A = as_cmatrix(A, "A", shape=(4, 4), batch=True)
    dz = np.asarray(dz, dtype=float)[..., np.newaxis, np.newaxis]
    with np.errstate(all="ignore"):  # an overflow is named by mat_exp
        M = 1j * (J @ A) * dz
    return mat_exp(M)


def propagate(thickness, omega_eps, omega_mu, kappa, c: float = 1.0,
              z_min: float = 0.0, z0: float | None = None,
              z1: float | None = None) -> np.ndarray:
    """Transfer matrices ``T(z0, z1)`` of resolved stacks, shape (..., 4, 4).

    ``thickness`` has shape (L,) and the tensors (..., L, 3, 3), one stack
    per leading index; ``z_min`` is the bottom face and ``[z0, z1]``
    defaults to the whole stack. The layers overlapping it, clipped to it,
    go through one :func:`mat_exp` call and multiply in layer order.
    """
    t = np.asarray(thickness, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise GeometryError(f"layer thicknesses must be > 0, got {t}")
    we, wm = np.asarray(omega_eps, dtype=complex), np.asarray(omega_mu, dtype=complex)
    if z0 is None and z1 is None:
        widths = t
    else:
        b = float(z_min) + np.concatenate(([0.0], np.cumsum(t)))
        for z in (z0, z1):
            if not b[0] <= z <= b[-1]:
                raise GeometryError(f"z={z} outside the stack [{b[0]}, {b[-1]}]")
        widths = np.minimum(z1, b[:-1] + t) - np.maximum(z0, b[:-1])
    keep = np.flatnonzero(widths > 0)
    T = np.broadcast_to(np.eye(4, dtype=complex), we.shape[:-3] + (4, 4)).copy()
    if keep.size:
        A = build_A(we[..., keep, :, :], wm[..., keep, :, :], kappa, c)
        P = layer_propagator(A, widths[keep])
        for k in range(keep.size):
            T = P[..., k, :, :] @ T
    if not np.all(np.isfinite(T.view(float))):
        raise NumericRangeError("transfer matrix overflowed")
    return T


@dataclass(frozen=True)
class TransferMatrix:
    """Transfer matrix ``T`` with ``psi(z1) = T psi(z0)``."""

    z0: float
    z1: float
    matrix: np.ndarray


def transfer(stack: StackSpec, kappa, omega, z0: float, z1: float) -> TransferMatrix:
    """Transfer matrix of the stack between two coordinates.

    Satisfies ``T(z0, z0) = I``, the composition rule
    ``T(z0, z) = T(zm, z) T(z0, zm)``, and ``T(z0, z1)^{-1} = T(z1, z0)``.
    Both real and complex ``omega``/``kappa`` are accepted; certification
    pipelines impose their stricter domains separately.
    """
    a, b = (z0, z1) if z0 <= z1 else (z1, z0)
    T = propagate(*resolve_stack(stack, complex(omega)), kappa, stack.c,
                  stack.z_min, a, b)
    if z0 > z1:
        T = solve(T, np.eye(4, dtype=complex))
    return TransferMatrix(float(z0), float(z1), T)


def field_profile(stack: StackSpec, psi0, kappa, omega, zs,
                  z_ref: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Propagate tangential data through the stack and sample the fields.

    Parameters
    ----------
    stack : StackSpec
    psi0 : array_like
        Tangential data ``(E1, E2, H1, H2)`` prescribed at ``z_ref``.
    kappa, omega :
        In-plane wavevector and frequency.
    zs : array_like
        Sample coordinates inside the stack (any order).
    z_ref : float, optional
        Anchor coordinate for ``psi0`` (default: the bottom face).

    Returns
    -------
    (psi, phi) : numpy.ndarray
        Arrays of shape (n, 4) and (n, 2): the tangential field
        ``psi(z) = T(z_ref, z) psi0`` and the normal components recovered
        from the tensors of the layer owning each sample point.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(4)
    z_ref = stack.z_min if z_ref is None else float(z_ref)
    j_ref, d_ref = locate(stack, z_ref)
    layer_of, offset = locate(stack, np.atleast_1d(np.asarray(zs, dtype=float)))

    t, we, wm = resolve_stack(stack, complex(omega))
    A = build_A(we, wm, kappa, stack.c)
    # field at every layer's left face: whole-layer steps away from the layer
    # holding z_ref (backwards below it), plus the step from z_ref to its face
    n = t.size
    steps = layer_propagator(np.concatenate([A, A[j_ref:j_ref + 1]]),
                             np.concatenate([np.where(np.arange(n) < j_ref, -t, t),
                                             [-d_ref]]))
    left = np.empty((n, 4), dtype=complex)
    left[j_ref] = steps[n] @ psi0
    for j in range(j_ref, n - 1):
        left[j + 1] = steps[j] @ left[j]
    for j in range(j_ref - 1, -1, -1):
        left[j] = steps[j] @ left[j + 1]

    psi_out = np.zeros((layer_of.size, 4), dtype=complex)
    phi_out = np.zeros((layer_of.size, 2), dtype=complex)
    for j in np.unique(layer_of):
        rows = np.flatnonzero(layer_of == j)
        for part in np.array_split(rows, -(-rows.size // FIELD_BATCH)):
            psi_out[part] = layer_propagator(A[j], offset[part]) @ left[j]
            phi_out[part] = normal_components(we[j], wm[j], kappa, psi_out[part], stack.c)
    return psi_out, phi_out
