import numpy as np
import pytest

from dtnstack import (
    ConstantModel,
    DomainError,
    GeometryError,
    Layer,
    MaterialSpec,
    SingularMatrixError,
    StackSpec,
    apply_dtn,
    check_well_defined,
    dtn,
    dtn_from_tensors,
    energy_balance,
    flux_block_expression,
    flux_form,
    gamma,
    lambda_map,
    transfer,
)
from dtnstack.transfer import J, RHO, resolve_layers
from generators import (
    rand_kappa,
    rand_omega,
    rand_stack,
    rand_tangential,
    vacuum_slab,
)
from oracles import gamma_oracle

RHO_STAR = RHO.conj().T


def gain_material():
    """Deliberately active medium: one negative in-plane tensor entry."""
    return MaterialSpec(
        label="gain",
        eps_model=ConstantModel(np.diag([1.0, -1.0, 1.0]).astype(complex)),
        mu_model=ConstantModel(np.eye(3, dtype=complex)))


# ---------------------------------------------------------------- flux form

def test_flux_frozen_vacuum_unit_slab():
    # Unit-width vacuum at omega = i: eigenvalues 1 - e^-2 and e^2 - 1,
    # each with multiplicity two.
    s = vacuum_slab(z_min=0.0, thickness=1.0)
    F = flux_form(transfer(s, (0.0, 0.0), 1j, 0.0, 1.0))
    eigs = np.sort(np.linalg.eigvalsh((F.matrix + F.matrix.conj().T) / 2))
    expected = np.sort([1 - np.exp(-2), 1 - np.exp(-2),
                        np.exp(2) - 1, np.exp(2) - 1])
    assert np.allclose(eigs, expected, atol=1e-12)
    assert F.min_eig == pytest.approx(1 - np.exp(-2), abs=1e-12)


def test_flux_block_expression_matches_direct(rng):
    for _ in range(6):
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.allclose(flux_block_expression(T), flux_form(T).matrix,
                           atol=1e-12)


def test_flux_vanishes_for_lossless_rotation():
    # exp(i theta J) preserves the indefinite product, so the form is zero.
    for theta in (0.3, 1.1, 2.7):
        T = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * J
        F = flux_form(T)
        assert np.abs(F.matrix).max() < 1e-14


def test_flux_positive_for_passive_stacks(rng):
    for _ in range(12):
        s = rand_stack(rng, max_layers=4, dispersive=True)
        T = transfer(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
        assert flux_form(T).min_eig > 0


def test_flux_positivity_implies_well_defined(rng):
    for _ in range(10):
        s = rand_stack(rng, max_layers=3, dispersive=True)
        T = transfer(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
        cert = check_well_defined(T)
        assert cert.flux_positive
        assert all(cert.blocks_invertible)
        assert np.isfinite(cert.condition_T12)


def test_check_well_defined_batch_rows_equal_single_calls(rng, monkeypatch):
    s = rand_stack(rng, max_layers=3, dispersive=True)
    Ts = np.stack([transfer(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max).matrix
                   for _ in range(4)]).reshape(2, 2, 4, 4)
    batch = check_well_defined(Ts)
    assert batch.flux_min_eig.shape == (2, 2)
    assert batch.blocks_invertible.shape == (2, 2, 4)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append(1) or eigvalsh(*a))
    for i, j in np.ndindex(2, 2):
        single = check_well_defined(Ts[i, j])
        assert type(single.flux_min_eig) is float
        assert type(single.blocks_invertible) is tuple
        assert single == (bool(batch.flux_positive[i, j]), float(batch.flux_min_eig[i, j]),
                          tuple(batch.blocks_invertible[i, j].tolist()),
                          float(batch.condition_T12[i, j]), float(batch.transfer_norm[i, j]),
                          float(batch.flux_resolution[i, j]))
    assert len(calls) == 4  # one flux eigvalsh per call


# -------------------------------------------------------------- rearrangement

def test_gamma_frozen_for_identity_coupling():
    G = gamma(J)
    expected = np.block([[np.zeros((2, 2)), RHO_STAR],
                         [RHO_STAR, np.zeros((2, 2))]])
    assert np.allclose(G.matrix, expected, atol=1e-15)


def test_gamma_defining_property(rng):
    # If T maps (u0; v0) to (u1; v1) then Gamma maps (u1; u0) to (v1; v0).
    for _ in range(8):
        s = rand_stack(rng, max_layers=3)
        T = transfer(s, rand_kappa(rng), rand_omega(rng),
                     s.z_min, s.z_max).matrix
        u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = T @ np.concatenate([u0, v0])
        u1, v1 = out[:2], out[2:]
        got = gamma(T).matrix @ np.concatenate([u1, u0])
        assert np.allclose(got, np.concatenate([v1, v0]),
                           rtol=1e-10, atol=1e-12)


def test_gamma_against_linear_system_oracle(rng):
    for _ in range(8):
        s = rand_stack(rng, max_layers=3, dispersive=True)
        T = transfer(s, rand_kappa(rng), rand_omega(rng),
                     s.z_min, s.z_max).matrix
        u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = gamma(T).matrix @ np.concatenate([u1, u0])
        assert np.allclose(direct, gamma_oracle(T, u1, u0),
                           rtol=1e-9, atol=1e-11)


# -------------------------------------------------------------- boundary map

def test_lambda_zero_normal_rows_and_columns(rng):
    s = rand_stack(rng, max_layers=3)
    L, _ = dtn(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
    assert np.array_equal(L.matrix[2, :], np.zeros(6))
    assert np.array_equal(L.matrix[5, :], np.zeros(6))
    assert np.array_equal(L.matrix[:, 2], np.zeros(6))
    assert np.array_equal(L.matrix[:, 5], np.zeros(6))


def test_lambda_frozen_vacuum_closed_form():
    # Vacuum on [-1, 1] at omega = i: i [[coth2 P, csch2 P], [csch2 P, coth2 P]]
    # with P = diag(1, 1, 0).
    L, cert = dtn(vacuum_slab(), (0.0, 0.0), 1j, -1.0, 1.0)
    P = np.diag([1.0, 1.0, 0.0])
    coth2, csch2 = np.cosh(2) / np.sinh(2), 1 / np.sinh(2)
    closed = 1j * np.block([[coth2 * P, csch2 * P], [csch2 * P, coth2 * P]])
    assert np.allclose(L.matrix, closed, atol=1e-13)
    assert cert.ok
    # Imaginary part of the tangential compression: eigenvalues tanh(1)
    # (twice) and coth(1) (twice).
    C = L.tangential_compression
    im = (C - C.conj().T) / 2j
    eigs = np.sort(np.linalg.eigvalsh(im))
    assert eigs[0] == pytest.approx(np.tanh(1.0), abs=1e-13)
    assert eigs[-1] == pytest.approx(np.cosh(1) / np.sinh(1), abs=1e-13)
    assert cert.im_min_eig == pytest.approx(np.tanh(1.0), abs=1e-13)


def test_lambda_map_from_gamma_consistency(rng):
    s = rand_stack(rng, max_layers=2)
    kap, om = rand_kappa(rng), rand_omega(rng)
    T = transfer(s, kap, om, s.z_min, s.z_max)
    L1 = lambda_map(gamma(T), s.z_min, s.z_max)
    L2, _ = dtn(s, kap, om, s.z_min, s.z_max)
    assert np.allclose(L1.matrix, L2.matrix, atol=1e-13)


def test_dtn_imaginary_part_positive_for_passive(rng):
    for _ in range(12):
        s = rand_stack(rng, max_layers=4, dispersive=True)
        L, cert = dtn(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
        assert cert.passive
        assert cert.ok, cert.anomalies
        C = L.tangential_compression
        im = (C - C.conj().T) / 2j
        assert np.linalg.eigvalsh(im).min() > 0
        assert cert.im_min_eig > 0


def test_dtn_quadratic_form_imaginary_positive(rng):
    # Im (L f, f) > 0 for every nonzero tangential trace pair.
    s = rand_stack(rng, max_layers=3)
    L, _ = dtn(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
    for _ in range(20):
        f = rand_tangential(rng)
        assert np.vdot(f, L.matrix @ f).imag > 0


def test_dtn_reports_resolution_exhaustion_not_violation():
    # A thick strongly absorbing slab drives |T| so high that J - T*JT
    # cancels past double precision. The certificate must fail closed and
    # say the margin is unresolvable instead of claiming a sign violation.
    heavy = MaterialSpec(
        label="heavy",
        eps_model=ConstantModel(6.25 * np.eye(3, dtype=complex)),
        mu_model=ConstantModel(6.25 * np.eye(3, dtype=complex)))
    s = StackSpec(z_min=0.0, layers=(Layer(5.0, heavy),))
    L, cert = dtn(s, (0.0, 0.0), 2j, 0.0, 5.0)
    assert cert.passive
    assert cert.well_defined.transfer_norm > 1e10
    assert not cert.ok
    assert any("resolution" in a for a in cert.anomalies)
    assert not any("not positive definite for passive" in a
                   for a in cert.anomalies)


def test_dtn_flags_gain_medium():
    s = StackSpec(z_min=0.0, layers=(Layer(1.0, gain_material()),))
    L, cert = dtn(s, (0.7, 0.0), 0.3 + 0.8j, 0.0, 1.0)
    assert not cert.passive
    assert not cert.ok
    assert any(not p.ok for p in cert.layer_passivity)


def test_dtn_domain_errors():
    s = vacuum_slab()
    with pytest.raises(DomainError):
        dtn(s, (0.0, 0.0), 1.0, -1.0, 1.0)          # real frequency
    with pytest.raises(DomainError):
        dtn(s, (0.0, 0.0), 0.5 - 0.1j, -1.0, 1.0)   # lower half plane
    with pytest.raises(DomainError):
        dtn(s, (0.3 + 0.1j, 0.0), 1j, -1.0, 1.0)    # complex wavevector
    with pytest.raises(GeometryError):
        dtn(s, (0.0, 0.0), 1j, 1.0, -1.0)           # inverted faces
    with pytest.raises(GeometryError):
        dtn(s, (0.0, 0.0), 1j, 0.0, 0.0)            # empty interval


def test_dtn_from_tensors_matches_stack_route(rng):
    s = rand_stack(rng, max_layers=3)
    kap, om = rand_kappa(rng), rand_omega(rng)
    L1, c1 = dtn(s, kap, om, s.z_min, s.z_max)
    L2, (c2,) = dtn_from_tensors(resolve_layers(s, om), kap, c=s.c,
                                 z_min=s.z_min)
    assert np.allclose(L1.matrix, L2.matrix, atol=1e-13)
    assert c1.ok and c2.ok


def test_dtn_from_tensors_batch_matches_single_entries(rng):
    # tensors with a leading batch axis go through one propagation; every
    # entry, and every entry's certificate, equals its own unbatched call
    s = rand_stack(rng, max_layers=3, dispersive=True)
    kap = rand_kappa(rng)
    per = [resolve_layers(s, rand_omega(rng)) for _ in range(5)]
    batched = [(d, np.stack([p[j][1] for p in per]), np.stack([p[j][2] for p in per]))
               for j, (d, _, _) in enumerate(per[0])]
    L, certs = dtn_from_tensors(batched, kap, c=s.c, z_min=s.z_min)
    assert L.matrix.shape == (5, 6, 6)
    assert L.tangential_compression.shape == (5, 4, 4)
    assert [b.shape for b in L.blocks] == [(5, 3, 3)] * 4
    assert len(certs) == 5
    for k, layers in enumerate(per):
        Lk, (ck,) = dtn_from_tensors(layers, kap, c=s.c, z_min=s.z_min)
        assert (L.z0, L.z1) == (Lk.z0, Lk.z1)
        assert np.array_equal(L.matrix[k], Lk.matrix)
        assert certs[k] == ck and ck.ok
    # unbatched tensors broadcast against batched ones
    mixed = [batched[0]] + per[0][1:]
    Lm, _ = dtn_from_tensors(mixed, kap, c=s.c, z_min=s.z_min)
    assert Lm.matrix.shape == (5, 6, 6)


def test_dtn_from_tensors_batch_guards_every_entry(rng):
    # a singular normal block in a later batch entry still raises
    s = rand_stack(rng, max_layers=2)
    layers = resolve_layers(s, rand_omega(rng))
    d, we, wm = layers[0]
    we = np.stack([we] * 5)
    we[3, 2, 2] = 0.0
    with pytest.raises(SingularMatrixError, match="normal response block"):
        dtn_from_tensors([(d, we, wm)] + layers[1:], rand_kappa(rng), c=s.c)


def test_apply_dtn_defining_relation(rng):
    # The boundary operator reproduces the trace relation of an actual
    # solution: for psi propagated across the stack,
    #   f_top = (psi2, -psi1, 0) at z1, f_bot = (-psi2, psi1, 0) at z0
    # map to i (psi3, psi4, 0) evaluated at the matching face.
    for _ in range(6):
        s = rand_stack(rng, max_layers=3, dispersive=True)
        kap, om = rand_kappa(rng), rand_omega(rng)
        L, cert = dtn(s, kap, om, s.z_min, s.z_max)
        assert cert.ok
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi1 = transfer(s, kap, om, s.z_min, s.z_max).matrix @ psi0
        f_top = np.array([psi1[1], -psi1[0], 0.0])
        f_bot = np.array([-psi0[1], psi0[0], 0.0])
        g_top, g_bot = apply_dtn(L, f_top, f_bot)
        assert np.allclose(g_top, 1j * np.array([psi1[2], psi1[3], 0.0]),
                           rtol=1e-9, atol=1e-11)
        assert np.allclose(g_bot, 1j * np.array([psi0[2], psi0[3], 0.0]),
                           rtol=1e-9, atol=1e-11)


def test_apply_dtn_rejects_normal_component():
    L, _ = dtn(vacuum_slab(), (0.0, 0.0), 1j, -1.0, 1.0)
    with pytest.raises(DomainError):
        apply_dtn(L, (1.0, 0.0, 0.2), (0.0, 1.0, 0.0))


# ------------------------------------------------------------- energy balance

def test_energy_frozen_vacuum():
    # psi0 = e1 on [-1, 1] at omega = i: the boundary side is exactly
    # sinh(4)/(16 pi) and the quadrature side converges to it.
    rep = energy_balance(vacuum_slab(), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0), 1j)
    exact = np.sinh(4.0) / (16.0 * np.pi)
    assert rep.boundary_flux == pytest.approx(exact, rel=1e-12)
    assert rep.absorption_integral == pytest.approx(exact, rel=1e-5)
    assert rep.relative_gap < 1e-6
    assert rep.n_points == 2000


def test_energy_quadrature_second_order():
    # Composite midpoint converges at second order: halving the step
    # divides the defect by about four.
    args = (vacuum_slab(), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0), 1j)
    g250 = energy_balance(*args, n_points=250).relative_gap
    g500 = energy_balance(*args, n_points=500).relative_gap
    assert 3.9 < g250 / g500 < 4.1


def test_energy_positive_and_balanced_random(rng):
    for _ in range(6):
        s = rand_stack(rng, max_layers=3)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = energy_balance(s, psi0, rand_kappa(rng), rand_omega(rng))
        assert rep.boundary_flux > 0
        assert rep.absorption_integral > 0
        assert rep.relative_gap < 1e-4


def test_energy_subinterval(rng):
    s = rand_stack(rng, max_layers=2)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z0 = s.z_min + 0.25 * (s.z_max - s.z_min)
    z1 = s.z_min + 0.75 * (s.z_max - s.z_min)
    rep = energy_balance(s, psi0, rand_kappa(rng), rand_omega(rng),
                         z0=z0, z1=z1)
    assert rep.relative_gap < 1e-4


def test_energy_domain_gate():
    with pytest.raises(DomainError):
        energy_balance(vacuum_slab(), (1.0, 0, 0, 0), (0.0, 0.0), 1.0)
