"""Numerical surrogates for analyticity and Herglotz certification.

Analyticity cannot be proven from samples; it is *probed* with the
Cauchy–Riemann residual — a four-point estimate of ``2 ∂f/∂conj(z)`` from
``z``, ``z ± h`` and ``z + ih`` (Fornberg, Math. Comp. 51:699, 1988), which
vanishes to O(h²) for holomorphic ``f``, reproduces the size of any
conj-contamination, and samples nothing below ``Im z``.

The certificates in this module sweep boundary operators over grids in the
open upper half-plane, recording positivity margins of ``Im`` on the
tangential coordinates together with CR residuals in frequency, material
entries, or trajectory parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dtn import (TANGENTIAL_INDICES, DtnCertificate, DtnMap, _certified_dtn,
                  _certified_inputs, _tensor_dtn)
from .exceptions import DomainError, NumericRangeError, ParameterError, SingularMatrixError
from .linalg import MAT_EXP_BATCH, as_cmatrix, min_im_eig
from .stack import StackSpec
from .transfer import resolve_stack

__all__ = [
    "AnalyticityReport",
    "HerglotzCertificate",
    "PointRecord",
    "cr_residual",
    "cr_anomalies",
    "omega_grid_points",
    "certify_point",
    "herglotz_certify",
    "slice_analyticity",
    "scalar_sample",
    "phase_tensors",
    "phase_dtn",
]


#: CR stencil points ``z + h * CR_OFFSETS`` (centre first) for step ``h``
CR_OFFSETS = np.array([0.0, 1.0, -1.0, 1j])

#: default CR-residual threshold of the grid and trajectory verdicts
CR_TOL = 1e-5


def default_cr_step(z0: complex) -> float:
    """Default stencil step ``1e-4 * max(1, |z0|)``."""
    return 1e-4 * max(1.0, abs(complex(z0)))


def _stencil(z: complex, step: float | None = None) -> tuple[np.ndarray, float]:
    """The CR stencil ``z + h * CR_OFFSETS`` and its step ``h = step``
    (default :func:`default_cr_step`); no stencil point lies below ``z``.
    Raises :class:`ParameterError` unless ``h`` is finite and positive."""
    h = default_cr_step(z) if step is None else float(step)
    if not 0.0 < h < np.inf:
        raise ParameterError(f"stencil step must be finite and > 0, got {h}")
    return z + h * CR_OFFSETS, h


def _stencil_residual(f, h):
    """CR residual from the values ``f`` at the :data:`CR_OFFSETS` stencil
    points, along the first axis; further axes and ``h`` broadcast.

    ``2 ∂f/∂conj(z) ≈ (-4i f(z) + (1+i) f(z+h) + (i-1) f(z-h) + 2i f(z+ih)) / (2h)``
    annihilates 1, ``z - z0`` and ``(z - z0)²`` and reads ``conj(z - z0)`` as 2,
    over ``max(|f| over the non-centre points, 1)``."""
    f0, fp, fm, fip = np.asarray(f)
    deriv = (-4j * f0 + (1 + 1j) * fp + (1j - 1) * fm + 2j * fip) / (2.0 * h)
    scale = np.maximum.reduce([np.abs(v) for v in (fp, fm, fip)])
    return np.abs(deriv) / np.maximum(scale, 1.0)


def cr_residual(fn: Callable[[complex], complex], z0, h: float | None = None) -> float:
    """Cauchy–Riemann residual of ``fn`` at ``z0``.

    ``|-4i f(z0) + (1+i) f(z0+h) + (i-1) f(z0-h) + 2i f(z0+ih)| / (2h scale)``
    with ``scale = max(|f| over z0 ± h and z0 + ih, 1)``. Approximates
    ``2|∂f/∂conj(z)|`` — O(h²) for holomorphic maps, ``2|c|`` for
    ``f = g + c·conj(z)``. No point lies below ``z0``. Raises
    :class:`ParameterError` unless ``h`` is finite and positive.
    """
    stencil, h = _stencil(complex(z0), h)
    return float(_stencil_residual([complex(fn(z)) for z in stencil], h))


def scalar_sample(L: DtnMap, f):
    """Quadratic boundary sample ``(Lambda f, f)`` for tangential ``f``.

    Uses the standard inner product (conjugation on the second argument), so
    the value is ``conj(f)·(Lambda f)`` and its imaginary part equals the
    quadratic form of ``Im Lambda`` at ``f`` — positive for passive media.
    A complex number for one map; an array of the batch shape for a batched
    map (see :class:`DtnMap`).
    """
    fv = np.asarray(f, dtype=complex).reshape(6)
    norm = float(np.linalg.norm(fv))
    if norm == 0.0:
        raise ParameterError("sample vector must be nonzero")
    if max(abs(fv[2]), abs(fv[5])) > 1e-13 * norm:
        raise ParameterError("sample vector must be tangential "
                             "(components 3 and 6 zero)")
    v = (L.matrix @ fv) @ fv.conj()
    return complex(v) if v.ndim == 0 else v


def omega_grid_points(re_min: float, re_max: float, re_steps: int,
                      im_min: float, im_max: float, im_steps: int) -> list[complex]:
    """Rectangular frequency grid, sorted by (Re, Im)."""
    if re_steps < 1 or im_steps < 1:
        raise ParameterError("grid must be nonempty (steps >= 1)")
    if re_max < re_min or im_max < im_min:
        raise ParameterError("grid bounds must be ordered")
    res = np.linspace(re_min, re_max, re_steps)
    ims = np.linspace(im_min, im_max, im_steps)
    return [complex(r, i) for r in res for i in ims]


class PointRecord(NamedTuple):
    """One grid point of a certification sweep."""

    omega: complex
    min_im_eig: float
    worst_cr: float
    condition_T12: float
    compression: np.ndarray


def cr_anomalies(worst_cr: float, cr_tol: float) -> tuple[str, ...]:
    """The anomaly of a worst CR residual not below ``cr_tol``, if any."""
    return () if worst_cr < cr_tol else (
        f"worst CR residual {worst_cr:.3e} not below the tolerance {cr_tol:.3e}",)


def _stencil_pass(points, step: float | None, layers: int, evaluate: Callable,
                  label: str):
    """``(centre value, worst CR residual, *extras)`` of each point in turn,
    from one ``evaluate(stencils)`` per chunk of k points' stencils, shape
    (k, len(CR_OFFSETS)), which returns values of that leading shape and
    extras of k entries. ``evaluate`` propagates stacks of ``layers`` layers;
    k keeps a chunk within :data:`MAT_EXP_BATCH` layer matrices (or is 1). A
    chunk raising :class:`SingularMatrixError` or :class:`NumericRangeError`
    is re-run point by point, so its error is the first failing point's own,
    and its message names that point as ``label = z``."""
    per_call = max(1, MAT_EXP_BATCH // (len(CR_OFFSETS) * layers))
    points = [complex(z) for z in points]
    stencils, steps = map(np.array, zip(*(_stencil(z, step) for z in points)))
    for start in range(0, len(stencils), per_call):
        part = slice(start, start + per_call)
        try:
            values, *extras = evaluate(stencils[part])
        except (SingularMatrixError, NumericRangeError):
            for i in range(*part.indices(len(stencils))):
                try:
                    evaluate(stencils[i:i + 1])
                except (SingularMatrixError, NumericRangeError) as exc:
                    z = points[i]
                    exc.args = (f"{exc} in the CR stencil of {label} = "
                                f"{z.real:.6g}{z.imag:+.6g}i",)
                    raise
            raise
        v = np.moveaxis(values.reshape(values.shape[:2] + (-1,)), 1, 0)
        worst = np.max(_stencil_residual(v, steps[part, None]), axis=-1)
        yield from zip(values[:, 0], worst.tolist(), *extras)


def _certified_points(stack: StackSpec, kappa, grid: Sequence[complex],
                      z0: float | None, z1: float | None, step: float | None):
    """``(PointRecord, DtnCertificate)`` of each grid point in turn, after the
    ``Im omega > 0`` and real-``kappa`` gates of every point. Each
    :func:`_stencil_pass` chunk is resolved, propagated and certified in one
    pass."""
    z0 = stack.z_min if z0 is None else float(z0)
    z1 = stack.z_max if z1 is None else float(z1)
    omegas, k = _certified_inputs(kappa, grid, z0, z1)

    def evaluate(stencils):
        L, certs = _certified_dtn(*resolve_stack(stack, stencils), k, stack.c,
                                  stack.z_min, z0, z1, certify=CR_OFFSETS == 0)
        return L[..., TANGENTIAL_INDICES[:, None], TANGENTIAL_INDICES], certs

    for w, (centre, worst, cert) in zip(
            omegas.tolist(), _stencil_pass(omegas, step, len(stack.layers), evaluate,
                                              "omega")):
        yield PointRecord(w, cert.im_min_eig, worst,
                          cert.well_defined.condition_T12, centre), cert


def certify_point(stack: StackSpec, kappa, omega, z0: float | None = None,
                  z1: float | None = None,
                  step: float | None = None) -> tuple[PointRecord, DtnCertificate]:
    """Boundary-operator certificate at one frequency.

    Records the smallest eigenvalue of ``Im`` of the tangential compression,
    the worst CR residual in frequency over the compression entries (shared
    four-point :data:`CR_OFFSETS` stencil ``omega``, ``omega ± h``,
    ``omega + ih`` with ``h = step``, default :func:`default_cr_step`; see
    :func:`cr_residual`), and the condition estimate of the pivotal transfer
    block.
    """
    return next(_certified_points(stack, kappa, [omega], z0, z1, step))


@dataclass(frozen=True)
class HerglotzCertificate:
    """Grid certificate for the frequency-Herglotz behavior of the operator."""

    grid: tuple[complex, ...]
    min_im_eig: float
    worst_cr: float
    points: tuple[PointRecord, ...]
    anomalies: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.anomalies


def herglotz_certify(stack: StackSpec, kappa, grid: Sequence[complex],
                     z0: float | None = None, z1: float | None = None,
                     cr_tol: float = CR_TOL,
                     step: float | None = None) -> HerglotzCertificate:
    """Certify positivity and analyticity margins over a frequency grid.

    The verdict is "no anomaly": a non-passive layer, a failed well-posedness
    check or a non-positive smallest eigenvalue of ``Im`` on the tangential
    compression at any grid point, or a worst CR residual not below
    ``cr_tol``, each records one. Each chunk of grid points,
    with the stencil (:data:`CR_OFFSETS`) of each, is one resolve, propagate
    and certify pass. ``step`` overrides the per-point default CR stencil width
    (finite and positive, else :class:`ParameterError`).
    A response model that is not finite anywhere in a chunk raises before
    any point of that chunk is propagated, so it is reported ahead of a
    propagation error at an earlier point of the chunk; propagation and
    ``T12`` errors come in grid order.
    """
    if not len(grid):
        raise ParameterError("grid must be nonempty")
    points, certs = zip(*_certified_points(stack, kappa, grid, z0, z1, step))
    worst_cr = max(p.worst_cr for p in points)
    anomalies = (*(a for cert in certs for a in cert.anomalies),
                 *cr_anomalies(worst_cr, cr_tol))
    return HerglotzCertificate(tuple(complex(w) for w in grid),
                               float(min(p.min_im_eig for p in points)),
                               float(worst_cr), points, anomalies)


@dataclass(frozen=True)
class AnalyticityReport:
    """CR residual of one analytic slice."""

    label: str
    point: complex
    step: float
    residual: float


def phase_tensors(stack: StackSpec, omega) -> tuple[list[str], list[int], list[np.ndarray]]:
    """Distinct materials (by label), per-layer phase index, and the tensor
    tuple ``(omega*eps per phase..., omega*mu per phase...)`` at ``omega``
    (``Im omega > 0``) from each phase's first layer; layers sharing a label
    must share their tensors."""
    w = complex(omega)
    if not w.imag > 0.0:
        raise DomainError(f"omega must satisfy Im omega > 0, got {w}")
    _, we, wm = resolve_stack(stack, w)
    labels = [ly.material.label for ly in stack.layers]
    phases = list(dict.fromkeys(labels))
    first = [labels.index(label) for label in phases]
    for j, label in enumerate(labels):
        i = labels.index(label)
        if not (np.array_equal(we[j], we[i]) and np.array_equal(wm[j], wm[i])):
            raise ParameterError(
                f"layers {i} and {j} share the label {label!r} but not "
                f"their material tensors at omega={w}")
    return phases, [phases.index(label) for label in labels], [*we[first], *wm[first]]


def phase_dtn(stack: StackSpec, kappa, phase_of_layer: Sequence[int],
              Z: Sequence[np.ndarray]) -> DtnMap:
    """Boundary operator of ``stack`` with each layer's tensors taken from its
    phase in ``Z = (omega*eps per phase..., omega*mu per phase...)``.

    Tensors with leading batch axes give a batched map from one propagation
    (see :func:`~dtnstack.dtn.dtn_from_tensors`)."""
    return _tensor_dtn([ly.thickness for ly in stack.layers], phase_of_layer, Z,
                       kappa, stack.c, stack.z_min, False)[0]


def _index(value, name: str, n: int) -> None:
    """Raise :class:`ParameterError` naming ``name`` unless ``value`` is an
    integer in ``[0, n)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < n:
        raise ParameterError(f"{name} must be an integer in [0, {n}), got {value!r}")


def slice_analyticity(stack: StackSpec, omega, kappa, tensor_index: int,
                      row: int, col: int, base_Z: Sequence | None = None,
                      entry: tuple[int, int] = (0, 0),
                      step: float = 1e-4) -> AnalyticityReport:
    """Probe analyticity of the boundary operator in one tensor entry.

    The material tensors of the stack's distinct phases are listed as
    ``Z = (omega*eps_1, ..., omega*eps_P, omega*mu_1, ..., omega*mu_P)``
    (resolved at ``omega`` unless ``base_Z`` overrides them). The slice
    varies ``Z[tensor_index]`` along the Hermitian direction(s) attached to
    entry ``(row, col)`` — the diagonal unit for ``row == col``, otherwise
    the mirrored pair ``(E_rc + E_cr)/√2`` and ``i(E_rc - E_cr)/√2`` so that
    the Hermitian/anti-Hermitian split moves consistently — and reports the
    worst CR residual of the watched operator entry at slice parameter 0.
    Every direction and stencil offset is one batched propagation.

    Raises
    ------
    ParameterError
        Unless ``tensor_index`` is an integer in ``[0, 2P)``, ``row`` and
        ``col`` integers in ``[0, 3)``, ``step`` finite and positive, and
        ``entry`` a pair of tangential indices (0, 1, 3, 4): rows and columns
        2 and 5 of the operator are identically zero, so their residual could
        not fail.
    DomainError
        If a base tensor's imaginary part is not positive definite, or the
        step is so large a perturbed imaginary part loses definiteness.
    """
    labels, phase_of_layer, resolved = phase_tensors(stack, omega)
    P = len(labels)
    Z = [as_cmatrix(M, f"Z[{i}]", shape=(3, 3))
         for i, M in enumerate(base_Z)] if base_Z is not None else resolved
    if len(Z) != 2 * P:
        raise ParameterError(f"base_Z must list {2 * P} tensors, got {len(Z)}")
    _index(tensor_index, "tensor_index", 2 * P)
    _index(row, "row", 3)
    _index(col, "col", 3)
    tangential = tuple(TANGENTIAL_INDICES.tolist())
    if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(
            isinstance(e, (int, np.integer)) and not isinstance(e, bool) and e in tangential
            for e in entry)):
        raise ParameterError(f"entry must be a pair of tangential indices, each one of "
                             f"{tangential}, got {entry!r}")
    bad = np.flatnonzero(min_im_eig(np.stack(Z)) <= 0.0)
    if bad.size:
        raise DomainError(f"Im Z[{bad[0]}] must be positive definite at the base point")
    offsets, h = _stencil(0.0, step)

    D = np.zeros((1 if row == col else 2, 3, 3), dtype=complex)
    if row == col:
        D[0, row, col] = 1.0
    else:
        D[:, (row, col), (col, row)] = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
    Zt = list(Z)
    Zt[tensor_index] = Z[tensor_index] + offsets[:, None, None] * D[:, None]
    if np.any(min_im_eig(Zt[tensor_index]) <= 0.0):
        raise DomainError(f"step {h} pushes Im Z[{tensor_index}] out of positive "
                          f"definiteness; decrease the step")
    vals = phase_dtn(stack, kappa, phase_of_layer, Zt).matrix[..., entry[0], entry[1]]
    worst = float(np.max(_stencil_residual(vals.T, h)))
    what = "eps" if tensor_index < P else "mu"
    phase = labels[tensor_index % P]
    return AnalyticityReport(
        label=f"{what}[{phase}] entry ({row},{col}) -> Lambda[{entry[0]},{entry[1]}]",
        point=complex(omega), step=h, residual=worst)
