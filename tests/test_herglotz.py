import numpy as np
import pytest

from dtnstack import (
    ConstantModel,
    ContractError,
    DomainError,
    HerglotzModel,
    ParameterError,
    eval_herglotz,
    make_drude,
    passivity_check,
    vacuum_material,
)
from generators import rand_herglotz_model, rand_posdef


def _mirror(m: HerglotzModel) -> HerglotzModel:
    return HerglotzModel(dim=m.dim, alpha=m.alpha, beta=-m.beta,
                         poles=tuple(-p for p in m.poles), weights=m.weights)


def test_drude_frozen_values():
    m = make_drude(plasma_freq=1.0, collision_rate=0.5)
    # z - wp^2/(z + i*gamma) at z = 2i: 2i - 1/(2.5i) = 2.4i
    v = eval_herglotz(m, 2j)
    assert v.shape == (1, 1)
    assert v[0, 0] == pytest.approx(2.4j, abs=1e-15)
    # and at z = 1 + i: (1+i) - 1/(1+1.5i) = (1+i) - (1-1.5i)/3.25
    expected = (1 + 1j) - (1 - 1.5j) / 3.25
    assert v.dtype == complex
    assert eval_herglotz(m, 1 + 1j)[0, 0] == pytest.approx(expected, abs=1e-15)


def test_drude_lossless_equals_discrete_representation(rng):
    # A collisionless Drude term z - wp^2/z coincides with the discrete
    # model having linear slope 1, one pole at 0, and weight wp^2.
    wp = 1.7
    drude = make_drude(plasma_freq=wp, collision_rate=0.0)
    lam = 0.0
    disc = HerglotzModel(
        dim=1,
        alpha=np.array([[1.0]], dtype=complex),
        beta=np.array([[lam * wp**2 / (1 + lam**2)]], dtype=complex),
        poles=(lam,),
        weights=np.array([[[wp**2]]], dtype=complex),
    )
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        a = eval_herglotz(drude, z)[0, 0]
        b = eval_herglotz(disc, z)[0, 0]
        assert a == pytest.approx(b, rel=1e-12)


def test_eval_gated_to_upper_half_plane():
    m = make_drude(1.0, 0.1)
    for z in (0.5, 0.5 - 1e-9j, -2.0 + 0j):
        with pytest.raises(DomainError):
            eval_herglotz(m, z)


def test_herglotz_imaginary_part_positive(rng):
    # The defining property: the imaginary part is PSD throughout the
    # upper half plane (strictly positive whenever alpha or a weight is PD).
    for _ in range(20):
        m = rand_herglotz_model(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        v = eval_herglotz(m, z)
        im = (v - v.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() > 0


def test_mirror_symmetry_discrete(rng):
    # Mirroring the coefficient data realizes h(-conj(z)) = -h(z)^*
    # (conjugate transpose, the natural reflection for matrix values).
    m = rand_herglotz_model(rng, n_poles=3)
    mm = _mirror(m)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        lhs = eval_herglotz(mm, -np.conj(z))
        rhs = -eval_herglotz(m, z).conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_mirror_symmetry_drude(rng):
    # Drude models are symmetric under the same reflection without any
    # coefficient change.
    m = make_drude(1.3, 0.7)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        lhs = eval_herglotz(m, -np.conj(z))
        rhs = -eval_herglotz(m, z).conj()
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_model_constructor_contracts():
    with pytest.raises(ContractError):
        HerglotzModel(dim=2, alpha=np.diag([1.0, -1.0]).astype(complex),
                      beta=np.zeros((2, 2), dtype=complex),
                      poles=(), weights=np.zeros((0, 2, 2), dtype=complex))
    with pytest.raises(ContractError):
        HerglotzModel(dim=2, alpha=np.eye(2, dtype=complex),
                      beta=np.array([[0, 1], [0, 0]], dtype=complex),
                      poles=(), weights=np.zeros((0, 2, 2), dtype=complex))
    with pytest.raises(ParameterError):
        make_drude(plasma_freq=-1.0, collision_rate=0.0)
    with pytest.raises(ParameterError):
        make_drude(plasma_freq=1.0, collision_rate=-0.2)


def test_constant_model_linear_in_z(rng):
    V = rand_posdef(rng)
    m = ConstantModel(V)
    z = 0.3 + 0.8j
    assert np.allclose(eval_herglotz(m, z), z * V)


def test_constant_model_accepts_indefinite_values():
    # Deliberately non-passive data must be constructible so certification
    # failures can be exercised end to end.
    bad = ConstantModel(value=np.diag([1.0, -1.0, 1.0]).astype(complex))
    v = eval_herglotz(bad, 1j)
    im = (v - v.conj().T) / 2j
    assert np.linalg.eigvalsh(im).min() < 0


def test_passivity_check_frozen():
    vac = vacuum_material()
    we, wm = eval_herglotz(vac.eps_model, 1j), eval_herglotz(vac.mu_model, 1j)
    cert = passivity_check(we, wm)
    assert cert.ok
    assert cert.min_eig_eps == pytest.approx(1.0, abs=1e-12)
    assert cert.min_eig_mu == pytest.approx(1.0, abs=1e-12)


def test_passivity_check_flags_gain():
    bad = ConstantModel(np.diag([1.0, -1.0, 1.0]).astype(complex))
    we = eval_herglotz(bad, 1j)
    wm = 1j * np.eye(3)
    cert = passivity_check(we, wm)
    assert not cert.ok
    assert cert.min_eig_eps == pytest.approx(-1.0, abs=1e-12)


def test_passive_constant_material_everywhere(rng):
    # Hermitian PD constant tensors stay passive across the upper half plane.
    from generators import rand_constant_material
    mat = rand_constant_material(rng)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 5))
        we, wm = eval_herglotz(mat.eps_model, z), eval_herglotz(mat.mu_model, z)
        assert passivity_check(we, wm).ok
