"""Frequency-response models for passive materials.

A passive material is described by the maps ``z -> z·eps(z)`` and
``z -> z·mu(z)`` on the open upper half-plane; passivity means both take
values with positive-definite imaginary part there. Three model variants
share one evaluation interface:

* :class:`HerglotzModel` — discrete pole/weight representation
  ``h(z) = alpha·z + beta + sum_k W_k [(p_k - z)^{-1} - p_k/(1 + p_k^2)]``
  with ``alpha >= 0`` and ``W_k >= 0`` Hermitian, ``beta`` Hermitian and
  ``p_k`` real;
* :class:`DrudeModel` — the collision-damped free-carrier response
  ``z - wp^2/(z + i·gamma)`` times the identity, kept in closed form;
* :class:`ConstantModel` — a frequency-independent tensor ``V`` with
  response ``z·V``.

All evaluations are gated to ``Im z > 0``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Sequence, Union

import numpy as np

from .exceptions import ContractError, DomainError, ParameterError
from .linalg import as_cmatrix, min_im_eig

__all__ = [
    "HerglotzModel",
    "DrudeModel",
    "ConstantModel",
    "ResponseModel",
    "MaterialSpec",
    "PassivityCertificate",
    "eval_herglotz",
    "eval_responses",
    "make_drude",
    "vacuum_material",
    "passivity_check",
    "passivity_anomalies",
]

_PSD_RTOL = 1e-12


def _require_hermitian(M, name: str) -> np.ndarray:
    A = as_cmatrix(M, name, square=True)
    scale = max(float(np.linalg.norm(A)), 1.0)
    if np.linalg.norm(A - A.conj().T) > _PSD_RTOL * scale:
        raise ContractError(f"{name} must be Hermitian")
    return (A + A.conj().T) / 2.0


def _require_psd(M, name: str) -> np.ndarray:
    A = _require_hermitian(M, name)
    eigs = np.linalg.eigvalsh(A)
    scale = max(float(np.max(np.abs(eigs))) if eigs.size else 0.0, 1.0)
    if eigs.size and eigs[0] < -_PSD_RTOL * scale:
        raise ContractError(f"{name} must be positive semidefinite "
                            f"(min eigenvalue {eigs[0]:.3e})")
    return A


@dataclass(frozen=True)
class HerglotzModel:
    """Discrete matrix-valued model on the upper half-plane.

    Parameters
    ----------
    dim : int
        Matrix dimension (1 for scalar responses, 3 for material tensors).
    alpha : array_like
        Linear coefficient, Hermitian positive semidefinite, shape (dim, dim).
    beta : array_like
        Constant term, Hermitian.
    poles : array_like
        Real pole locations, shape (K,). May be empty.
    weights : array_like
        Hermitian PSD residue weights, shape (K, dim, dim).
    """

    dim: int
    alpha: np.ndarray
    beta: np.ndarray
    poles: np.ndarray = field(default_factory=lambda: np.zeros(0))
    weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 1, 1)))

    kind = "herglotz_discrete"

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        d = int(self.dim)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "alpha",
                           _require_psd(as_cmatrix(self.alpha, "alpha", shape=(d, d)),
                                        "alpha"))
        object.__setattr__(self, "beta",
                           _require_hermitian(as_cmatrix(self.beta, "beta", shape=(d, d)),
                                              "beta"))
        poles = np.asarray(self.poles, dtype=float).reshape(-1)
        if not np.all(np.isfinite(poles)):
            raise ParameterError("poles must be finite real numbers")
        object.__setattr__(self, "poles", poles)
        W = np.asarray(self.weights, dtype=complex)
        if poles.size == 0:
            W = np.zeros((0, d, d), dtype=complex)
        if W.shape != (poles.size, d, d):
            raise ParameterError(
                f"weights must have shape {(poles.size, d, d)}, got {W.shape}")
        W = np.stack([_require_psd(W[k], f"weights[{k}]") for k in range(W.shape[0])]) \
            if W.shape[0] else W
        object.__setattr__(self, "weights", W)

    def _eval(self, z) -> np.ndarray:
        h = self.alpha * z + self.beta.astype(complex)
        for p, W in zip(self.poles, self.weights):
            h = h + W * (1.0 / (p - z) - p / (1.0 + p * p))
        return h


@dataclass(frozen=True)
class DrudeModel:
    """Free-carrier response ``z - wp^2 / (z + i·gamma)`` on the diagonal."""

    plasma_freq: float
    collision_rate: float
    dim: int = 1

    kind = "drude"

    def __post_init__(self):
        if self.plasma_freq < 0:
            raise ParameterError("plasma_freq must be >= 0")
        if self.collision_rate < 0:
            raise ParameterError("collision_rate must be >= 0")
        if int(self.dim) < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")

    def _eval(self, z) -> np.ndarray:
        wp2 = np.square(np.float64(self.plasma_freq))
        val = z - wp2 / (z + 1j * self.collision_rate)
        return val * np.eye(self.dim, dtype=complex)


@dataclass(frozen=True)
class ConstantModel:
    """Frequency-independent tensor ``V``; the response is ``z·V``.

    Passive on all of the upper half-plane exactly when ``V`` is Hermitian
    positive definite (checked at evaluation sites, not at construction,
    since non-passive constants are legitimate inputs for failure probes).
    """

    value: np.ndarray
    kind = "constant"

    def __post_init__(self):
        V = as_cmatrix(self.value, "value", square=True)
        object.__setattr__(self, "value", V)

    @property
    def dim(self) -> int:
        return self.value.shape[0]

    def _eval(self, z) -> np.ndarray:
        return z * self.value


ResponseModel = Union[HerglotzModel, DrudeModel, ConstantModel]


def _stacked(models: Sequence[ResponseModel]) -> SimpleNamespace:
    """Stand-in for models of one kind (Herglotz models: of one pole count)
    whose parameters carry a group axis ahead of the matrix axes (behind the
    pole axis for poles and weights), so that the kind's ``_eval`` takes all
    of them in one pass, elementwise as it takes each one."""
    def stack(name, axis=0):
        return np.stack([np.asarray(getattr(x, name)) for x in models], axis=axis)
    m = models[0]
    if isinstance(m, ConstantModel):
        return SimpleNamespace(value=stack("value"))
    if isinstance(m, DrudeModel):
        return SimpleNamespace(dim=m.dim, plasma_freq=stack("plasma_freq")[:, None, None],
                               collision_rate=stack("collision_rate")[:, None, None])
    return SimpleNamespace(alpha=stack("alpha"), beta=stack("beta"),
                           poles=stack("poles", 1)[..., None, None],
                           weights=stack("weights", 1))


def eval_responses(models: Sequence[ResponseModel], z) -> np.ndarray:
    """Responses of models of one dimension, shape
    ``z.shape + (len(models), dim, dim)``, wherever they are finite (no
    half-plane gate: propagation is defined on the real axis away from
    poles). Each kind is one evaluation. Raises :class:`DomainError` on an
    overflow or a pole, naming the first such z of the first such model."""
    zc = np.asarray(z, dtype=complex)
    d = models[0].dim
    out = np.empty(zc.shape + (len(models), d, d), dtype=complex)
    kinds: dict = {}
    for j, m in enumerate(models):
        kinds.setdefault((type(m), m.dim, len(getattr(m, "poles", ()))), []).append(j)
    with np.errstate(all="ignore"):
        for (kind, _, _), idx in kinds.items():
            out[..., idx, :, :] = kind._eval(_stacked([models[j] for j in idx]),
                                             zc[..., None, None, None])
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not np.all(finite):
        j = np.argmin(finite.reshape(-1, len(models)).all(axis=0))
        bad = np.broadcast_to(zc, finite.shape[:-1])[~finite[..., j]]
        raise DomainError(f"model response is not finite at z={bad.flat[0]}")
    return out


def eval_herglotz(model: ResponseModel, z) -> np.ndarray:
    """Evaluate a response model in the open upper half-plane.

    Parameters
    ----------
    model : HerglotzModel or DrudeModel or ConstantModel
    z : complex or array of complex
        Evaluation point(s) with ``Im z > 0``.

    Returns
    -------
    numpy.ndarray
        The response value(s), shape ``z.shape + (dim, dim)``.

    Raises
    ------
    DomainError
        If ``Im z <= 0`` or the response is not finite.
    """
    zc = np.asarray(z, dtype=complex)
    if np.any(zc.imag <= 0.0):
        raise DomainError(f"evaluation point must satisfy Im z > 0, got "
                          f"z={zc[zc.imag <= 0.0].flat[0]}")
    return eval_responses([model], zc)[..., 0, :, :]


def make_drude(plasma_freq: float, collision_rate: float, dim: int = 1) -> DrudeModel:
    """Scalar (or isotropic) Drude response ``z -> z - wp^2/(z + i·gamma)``."""
    return DrudeModel(float(plasma_freq), float(collision_rate), int(dim))


@dataclass(frozen=True)
class MaterialSpec:
    """Electric and magnetic response models of one material, both 3×3."""

    label: str
    eps_model: ResponseModel
    mu_model: ResponseModel

    def __post_init__(self):
        for name, m in (("eps_model", self.eps_model), ("mu_model", self.mu_model)):
            if m.dim != 3:
                raise ParameterError(f"{name} must have dim 3, got {m.dim}")


def vacuum_material(label: str = "vacuum") -> MaterialSpec:
    """Material with identity permittivity and permeability tensors."""
    eye = np.eye(3, dtype=complex)
    return MaterialSpec(label, ConstantModel(eye), ConstantModel(eye))


class PassivityCertificate(NamedTuple):
    """Smallest eigenvalues of the imaginary parts of the two responses."""

    ok: bool
    min_eig_eps: float
    min_eig_mu: float


def passivity_check(omega_eps, omega_mu) -> PassivityCertificate:
    """Certify positive definiteness of ``Im(omega·eps)`` and ``Im(omega·mu)``.

    Parameters
    ----------
    omega_eps, omega_mu : array_like
        Response tensors at one frequency, shape (3, 3), or batches of them
        with matching leading axes (e.g. one per layer).

    Returns
    -------
    PassivityCertificate
        Python scalars for one pair, arrays over the leading axes for a batch.
    """
    we = as_cmatrix(omega_eps, "omega_eps", shape=(3, 3), batch=True)
    wm = as_cmatrix(omega_mu, "omega_mu", shape=(3, 3), batch=True)
    min_e, min_m = min_im_eig(np.stack([we, wm]))
    ok = (min_e > 0.0) & (min_m > 0.0)
    if ok.ndim == 0:
        return PassivityCertificate(bool(ok), float(min_e), float(min_m))
    return PassivityCertificate(ok, min_e, min_m)


def passivity_anomalies(pc, names) -> list[str]:
    """One anomaly naming the first non-passive entry of a batched passivity
    certificate and both of its margins, or none."""
    gain = np.flatnonzero(~pc.ok)
    if not gain.size:
        return []
    j = gain[0]
    return [f"{names[j]} is not passive (min eig Im(omega*eps) "
            f"{pc.min_eig_eps[j]:.3e}, Im(omega*mu) {pc.min_eig_mu[j]:.3e})"]
