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

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import GeometryError, NumericRangeError, ParameterError, SingularMatrixError
from .herglotz import eval_responses
from .linalg import MAT_EXP_BATCH, as_cmatrix, inverse, mat_exp
from .stack import StackSpec, locate

__all__ = [
    "RHO",
    "J",
    "TransferMatrix",
    "resolve_stack",
    "resolve_layers",
    "build_A",
    "normal_components",
    "propagate",
    "transfer",
    "field_profile",
]

#: 2×2 rotation generator; RHO* = -RHO = RHO^{-1}
RHO = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

#: 4×4 flux matrix [[0, RHO], [RHO*, 0]]; Hermitian, J @ J = I
J = np.block([[np.zeros((2, 2)), RHO], [RHO.conj().T, np.zeros((2, 2))]]).astype(complex)

#: i times the signs of J's nonzero entries, row by row (see :func:`_ij`)
_IJ_SIGNS = np.array([1j, -1j, -1j, 1j])[:, np.newaxis]

#: field_profile's Taylor steps: each sample lies within _TAYLOR_R / ||i J A||_1
#: of its anchor, so truncating exp after degree _TAYLOR_K leaves an error of at
#: most about R^(K+1) / (K+1)! ~ 2e-20 relative to the anchor's field (Moler &
#: Van Loan, SIAM Rev. 45:3, 2003; Al-Mohy & Higham, SIAM J. Sci. Comput. 33:488, 2011)
_TAYLOR_R = 0.5
_TAYLOR_K = 16


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
    if _normal_entry_vanishes(we) or _normal_entry_vanishes(wm):
        raise SingularMatrixError(
            "normal response block is singular (omega*eps_33 or omega*mu_33 vanishes)")
    return Vpp, Vpo, Vop, voo


def _normal_entry_vanishes(V: np.ndarray) -> bool:
    """Whether some ``V[..., 2, 2]`` is at or below eps times the largest entry
    of its own 3×3 tensor (``V`` of any strides: one that is not C-contiguous
    is read from a contiguous copy). An entry's size is max(|Re|, |Im|) and
    eps is a power of two, so nothing overflows or rounds; one elementwise
    comparison covers the whole batch."""
    flat, eps = np.ascontiguousarray(V).view(float), np.finfo(float).eps
    normal = np.maximum(np.abs(flat[..., 2, 4]), np.abs(flat[..., 2, 5]))
    size = np.abs(flat).reshape(V.shape[:-2] + (18,))
    return bool(np.any(eps * size >= normal[..., np.newaxis]))


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

    ``phi = R psi`` with ``R = -Voo^{-1} Vop`` from :func:`_normal_map`, the
    one normal map (same block conventions as :func:`build_A`); ``psi`` may
    carry leading batch axes, shape (..., 4). Each sample's product is an
    elementwise sum in a fixed order, so its value does not depend on the
    batch it comes in (a BLAS product's does).
    """
    we = as_cmatrix(omega_eps, "omega_eps", shape=(3, 3))
    wm = as_cmatrix(omega_mu, "omega_mu", shape=(3, 3))
    R = _normal_map(we, wm, kappa, c)
    psi = np.asarray(psi, dtype=complex)
    return sum(psi[..., j, np.newaxis] * R[:, j] for j in range(4))


def _normal_map(omega_eps, omega_mu, kappa, c: float) -> np.ndarray:
    """The matrices ``R = -Voo^{-1} Vop``, shape (..., 2, 4), with ``phi = R psi``."""
    _, _, Vop, voo = _v_blocks(omega_eps, omega_mu, kappa, float(c))
    return -Vop / voo[..., np.newaxis]


def _ij(A: np.ndarray) -> np.ndarray:
    """``i J A`` by a signed row permutation: row ``r`` of ``J A`` is ``A``'s row
    ``3 - r`` with sign ``+, -, -, +``. Bitwise ``1j * (J @ A)`` except for the
    signs of zeros."""
    return A[..., ::-1, :] * _IJ_SIGNS


def propagate(thickness, omega_eps, omega_mu, kappa, c: float = 1.0,
              z_min: float = 0.0, z0: float | None = None,
              z1: float | None = None, phase_of_layer=None) -> np.ndarray:
    """Transfer matrices ``T(z0, z1)`` of resolved stacks, shape (..., 4, 4).

    ``thickness`` has shape (L,) and the tensors (..., L, 3, 3), one stack
    per leading index; ``z_min`` is the bottom face and ``[z0, z1]``
    defaults to the whole stack. The layers overlapping it, clipped to it,
    go through one :func:`mat_exp` call and multiply in layer order.

    With ``phase_of_layer`` the tensors are per phase, shape (..., P, 3, 3),
    and layer ``j`` takes phase ``phase_of_layer[j]``, one integer in
    ``[0, P)`` per layer, and ``omega_mu`` holds as many phases as
    ``omega_eps``; without it layer ``j`` is phase ``j``, one tensor per
    layer (else :class:`ParameterError`). :func:`build_A` runs once per
    (entry, phase) in use, ``B_p = i J A_p`` comes from a signed row
    permutation, and the one :func:`mat_exp` call takes the bases with each
    layer's width as its scale, so the layers of one phase share its Padé
    powers.
    """
    t = np.asarray(thickness, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t) & (t > 0)):
        raise GeometryError(f"layer thicknesses must be > 0, got {t}")
    we, wm = np.asarray(omega_eps, dtype=complex), np.asarray(omega_mu, dtype=complex)
    if phase_of_layer is None and not we.shape[-3:-2] == wm.shape[-3:-2] == t.shape:
        raise ParameterError(f"need one tensor per layer ({t.size}), got {we.shape}, {wm.shape}")
    if phase_of_layer is not None:
        if wm.shape[-3:-2] != we.shape[-3:-2]:
            raise ParameterError(f"need one omega_mu tensor per omega_eps phase, "
                                 f"got {we.shape}, {wm.shape}")
        phase_of_layer = np.asarray(phase_of_layer)
        if phase_of_layer.shape != t.shape or t.size and not (
                phase_of_layer.dtype.kind in "iu" and phase_of_layer.min() >= 0
                and phase_of_layer.max() < we.shape[-3]):
            raise ParameterError(f"phase_of_layer must give each of the {t.size} layers "
                                 f"an integer phase in [0, {we.shape[-3]}), "
                                 f"got {phase_of_layer}")
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
        phase = keep if phase_of_layer is None else phase_of_layer[keep]
        phases, base_of = np.unique(phase, return_inverse=True)
        A = build_A(we[..., phases, :, :], wm[..., phases, :, :], kappa, c)
        P = mat_exp(_ij(A), widths[keep], base_of)
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
        T = inverse(T)
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

    Notes
    -----
    Whole-layer exponentials give the field at every layer's left face,
    except in the layer holding ``z_ref``: its two faces are single steps
    from ``z_ref``. Inside a layer, with ``M = i J A``, the anchors are the
    multiples of ``2R / ||M||_1`` nearest to some sample (never more anchors
    than samples), and their fields come from :func:`mat_exp` calls of at
    most ``MAT_EXP_BATCH`` matrices, each a step from the layer's left face
    or, in the layer holding ``z_ref``, from ``z_ref`` itself (no round trip
    through the face, where growing and decaying modes would cancel). Every
    exponential is ``exp(w M)`` of one layer's ``M`` at some width ``w``, so
    each :func:`mat_exp` call takes the layers' ``M`` as its bases: the face
    steps, and the anchors of one chunk, share each layer's Padé powers.
    Each sample is the degree-``K`` Taylor polynomial of ``exp(r M)`` applied to
    its anchor's field, ``r`` the distance to the anchor: ``|r| ||M||_1 <=
    R = 1/2`` and ``K = 16`` bound the truncation error by ``R^(K+1) /
    (K+1)! ~ 2e-20`` relative to the anchor's field. The normal components
    are ``phi = R psi`` with each layer's ``R = -Voo^{-1} Vop`` from one
    :func:`_normal_map` call over all the layers, the map
    :func:`normal_components` applies. Samples are evaluated in parts of at
    most ``MAT_EXP_BATCH``, elementwise in a fixed order, so a sample's
    value does not depend on the order or the company it comes in.
    """
    layer_of, offset = locate(stack, np.atleast_1d(np.asarray(zs, dtype=float)))
    layers = _layer_stage(stack, psi0, kappa, omega, z_ref)
    keys, x = _nearest_anchors(layers.per_length, layer_of, offset)
    anchors, anchor_of = np.unique(keys, return_inverse=True)
    psi = np.empty((x.size, 4), dtype=complex)
    for chunk, coef in _taylor_coefficients(layers, anchors):
        for part in _parts(_chunk_rows(anchor_of, chunk)):
            psi[part] = _taylor_values(coef, anchor_of[part] - chunk[0], x[part])

    R = _normal_map(layers.omega_eps, layers.omega_mu, kappa, stack.c)
    phi = np.empty((x.size, 2), dtype=complex)
    for part in _parts(np.arange(x.size)):
        Rs = R[layer_of[part]]
        phi[part] = sum(psi[part, j, np.newaxis] * Rs[..., j] for j in range(4))
    return psi, phi


class _Layers(NamedTuple):
    """The layer stage of a field profile: the resolved tensors, each layer's
    ``B = i J A``, anchor spacing ``1 / per_length`` and field at its left
    face, and the data ``psi0`` at offset ``d_ref`` of layer ``j_ref``."""

    omega_eps: np.ndarray
    omega_mu: np.ndarray
    B: np.ndarray
    per_length: np.ndarray
    left: np.ndarray
    psi0: np.ndarray
    j_ref: int
    d_ref: float


def _layer_stage(stack: StackSpec, psi0, kappa, omega, z_ref: float | None) -> _Layers:
    """Layer faces and anchor spacings of :func:`field_profile` (see its Notes)."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(4)
    z_ref = stack.z_min if z_ref is None else float(z_ref)
    j_ref, d_ref = locate(stack, z_ref)

    t, we, wm = resolve_stack(stack, complex(omega))
    B = _ij(build_A(we, wm, kappa, stack.c))  # i J A, one base per layer
    # field at every layer's left face: whole-layer steps away from the layer
    # holding z_ref (backwards below it); that layer's own faces are steps
    # from z_ref itself
    n = t.size
    widths = np.where(np.arange(n) < j_ref, -t, t)
    widths[j_ref] = t[j_ref] - d_ref
    steps = mat_exp(B, np.append(widths, -d_ref), np.append(np.arange(n), j_ref))
    left = np.empty((n, 4), dtype=complex)
    left[j_ref] = steps[n] @ psi0
    if j_ref + 1 < n:
        left[j_ref + 1] = steps[j_ref] @ psi0
    for j in range(j_ref + 1, n - 1):
        left[j + 1] = steps[j] @ left[j]
    for j in range(j_ref - 1, -1, -1):
        left[j] = steps[j] @ left[j + 1]

    # anchors are multiples of delta = 2R / ||B||_1 in their layer, and a
    # sample's unit offset from its anchor is x = (z - a) / delta: with
    # |x| <= 1/2 and ||B delta||_1 = 2R no Taylor coefficient outgrows psi(a)
    per_length = np.abs(B).sum(axis=-2).max(axis=-1) / (2.0 * _TAYLOR_R)  # 1 / delta
    per_length[per_length == 0] = 1.0  # B = 0: any spacing is exact
    return _Layers(we, wm, B, per_length, left, psi0, j_ref, d_ref)


def _nearest_anchors(per_length: np.ndarray, layer_of: np.ndarray,
                     offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's nearest anchor, as the key ``layer + i*multiple`` (keys
    sort by layer, then by multiple), and the sample's unit offset ``x`` from it."""
    pl = per_length[layer_of]
    multiple = np.rint(offset * pl)
    return layer_of + 1j * multiple, (offset - multiple / pl) * pl


def _taylor_coefficients(layers: _Layers,
                         keys: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(anchors, coef)`` over consecutive chunks of at most ``MAT_EXP_BATCH``
    of the anchors ``keys`` (see :func:`_nearest_anchors`), ``coef[p, k]`` the
    degree-``p`` Taylor coefficient ``(B delta)^p psi(a) / p!`` of the chunk's
    ``k``-th anchor ``a``, shape (K + 1, chunk, 4). ``psi(a)`` is one step from
    ``z_ref`` in its layer and from the left face elsewhere."""
    a_layer = keys.real.astype(int)
    a_offset = keys.imag / layers.per_length[a_layer]
    Md = layers.B / layers.per_length[:, np.newaxis, np.newaxis]
    for chunk in _parts(np.arange(keys.size)):
        j = a_layer[chunk]
        at_ref = j == layers.j_ref
        start = layers.left[j]
        start[at_ref] = layers.psi0
        dz = np.where(at_ref, a_offset[chunk] - layers.d_ref, a_offset[chunk])
        coef = np.empty((_TAYLOR_K + 1, chunk.size, 4), dtype=complex)
        coef[0] = (mat_exp(layers.B, dz, j) @ start[:, :, np.newaxis])[..., 0]
        Mj = Md[j]
        for p in range(1, _TAYLOR_K + 1):
            coef[p] = (Mj @ coef[p - 1, :, :, np.newaxis])[..., 0] / p
        yield chunk, coef


def _taylor_values(coef: np.ndarray, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_p coef[p, k] x^p`` by Horner in ``x``, one sample per row:
    elementwise, so a sample's value does not depend on its company."""
    xp = x[:, np.newaxis]
    y = coef[_TAYLOR_K].take(k, axis=0)
    for p in range(_TAYLOR_K - 1, -1, -1):
        y *= xp
        y += coef[p].take(k, axis=0)
    return y


def _chunk_rows(anchor_of: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """The samples whose anchor lies in the chunk of consecutive anchors."""
    return np.flatnonzero((anchor_of >= chunk[0]) & (anchor_of <= chunk[-1]))


def _parts(rows: np.ndarray) -> list[np.ndarray]:
    """``rows`` in consecutive parts of at most ``MAT_EXP_BATCH`` entries."""
    return [rows[i:i + MAT_EXP_BATCH] for i in range(0, rows.size, MAT_EXP_BATCH)]
