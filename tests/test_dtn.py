import numpy as np
import pytest

import dtnstack.transfer as transfer_module
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
)
from dtnstack.dtn import _layer_point_counts, _power_sums
from dtnstack.linalg import hermitian_parts
from dtnstack.transfer import (
    _TAYLOR_K,
    J,
    RHO,
    field_profile,
    resolve_layers,
    resolve_stack,
    transfer,
)
from generators import (
    rand_constant_material,
    rand_kappa,
    rand_omega,
    rand_stack,
    rand_tangential,
    vacuum_slab,
)
from oracles import energy_midpoint_oracle, gamma_oracle, power_sums_oracle

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


def _per_sample_energy(s, psi0, kap, om, z0, z1, n_points):
    """Both energy sides from field_profile samples and the explicit
    midpoint sum over the cells energy_balance uses."""
    b = s.boundaries
    lo, hi = np.maximum(z0, b[:-1]), np.minimum(z1, b[1:])
    seg = np.flatnonzero(hi > lo)
    counts = np.array(_layer_point_counts(list(hi[seg] - lo[seg]), n_points))
    h = np.repeat((hi[seg] - lo[seg]) / counts, counts)
    cell = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    zs = np.repeat(lo[seg], counts) + (cell + 0.5) * h
    layer = np.repeat(seg, counts)
    psi, phi = field_profile(s, psi0, kap, om, np.append(zs, [z0, z1]), z_ref=z0)
    _, we, wm = resolve_stack(s, om)
    absorbed = 0.0
    for n in range(h.size):
        E = np.append(psi[n, :2], phi[n, 0])
        H = np.append(psi[n, 2:], phi[n, 1])
        dens = (np.vdot(E, hermitian_parts(we[layer[n]]).imag @ E)
                + np.vdot(H, hermitian_parts(wm[layer[n]]).imag @ H)).real
        absorbed += h[n] * dens / (8.0 * np.pi)
    flux = [float(np.vdot(p, J @ p).real) for p in psi[h.size:]]
    return (s.c / (16.0 * np.pi)) * (flux[0] - flux[1]), absorbed


def test_energy_gram_matches_per_sample_sum(rng):
    # the absorbed side from per-anchor Gram matrices equals the sum of the
    # per-sample densities of field_profile's fields; the boundary side is
    # the same endpoint evaluation, bit for bit
    for trial in range(8):
        s = rand_stack(rng, max_layers=4)
        kap, om = rand_kappa(rng), rand_omega(rng)
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = s.boundaries
        z0, z1 = ((b[0], b[-1]) if trial % 2 == 0
                  else sorted(rng.uniform(b[0], b[-1], 2)))  # inside layers
        for n in (1, 7, 500, 3000):
            rep = energy_balance(s, psi0, kap, om, z0, z1, n_points=n)
            boundary, absorbed = _per_sample_energy(s, psi0, kap, om, z0, z1, n)
            assert rep.boundary_flux == boundary
            assert abs(rep.absorption_integral - absorbed) <= 1e-13 * abs(absorbed)


@pytest.mark.parametrize("d", [0.5, 5.0, 20.0])
def test_energy_matches_mpmath_midpoint_oracle(d):
    # ROADMAP item 5's lossy layer: both sides within 1e-13 of the 50-digit
    # boundary product and midpoint sum
    pytest.importorskip("mpmath")
    eps = ConstantModel(value=np.diag([2 + 0.5j, 3 + 0.3j, 2.5 + 0.4j]))
    mu = ConstantModel(value=np.eye(3, dtype=complex))
    s = StackSpec(z_min=0.0, layers=(Layer(d, MaterialSpec("lossy", eps, mu)),))
    om, kap = 1 + 0.3j, (0.8, 0.0)
    psi0 = np.array([1.0, 0.5 - 0.2j, -0.3j, 0.7])
    ((_, we, wm),) = resolve_layers(s, om)
    boundary, absorbed = energy_midpoint_oracle(we, wm, kap, psi0, d, 200, s.c)
    rep = energy_balance(s, psi0, kap, om, n_points=200)
    assert abs(rep.boundary_flux - boundary) <= 1e-13 * abs(boundary)
    assert abs(rep.absorption_integral - absorbed) <= 1e-13 * abs(absorbed)


def test_energy_chunked_anchors_match_one_chunk(rng, monkeypatch):
    # anchor chunks of three sum to the absorbed side of one chunk; the
    # endpoints, evaluated sample by sample, do not move at all
    s = StackSpec(z_min=0.0, layers=tuple(Layer(1.5, rand_constant_material(rng, f"m{k}"))
                                          for k in range(4)))
    kap, om = (1.5, -0.5), rand_omega(rng)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z0 = s.z_min + 0.3 * (s.z_max - s.z_min)
    stage = transfer_module._anchor_stage(s, psi0, kap, om, np.linspace(z0, s.z_max, 800), z0)
    assert stage.anchor_layer.size > 9  # more than three chunks of three
    whole = energy_balance(s, psi0, kap, om, z0=z0, n_points=800)
    monkeypatch.setattr(transfer_module, "MAT_EXP_BATCH", 3)
    chunked = energy_balance(s, psi0, kap, om, z0=z0, n_points=800)
    assert chunked.boundary_flux == whole.boundary_flux
    assert chunked.absorption_integral == pytest.approx(whole.absorption_integral, rel=1e-14)
    assert chunked.n_points == whole.n_points


@pytest.mark.parametrize("count", [1, 2, 7, 10_000])
@pytest.mark.parametrize("step", [1e-6, 1e-3, 0.1, 1.0, 2.0])
def test_power_sums_match_exact_oracle(step, count):
    # the closed-form power sums of an anchor's offsets against exact sums:
    # each x^s enters the Gram matrix with weight 1/(p! q!), p + q = s, and
    # the weighted error stays within 1e-14 of the count (of the count
    # times max|x|^s for a progression longer than one cell)
    mpmath = pytest.importorskip("mpmath")
    span = (count - 1) * step
    a = -0.5 + 0.3 * (1.0 - span) if span <= 1.0 else -0.4 * span  # off-centre
    b = a + span
    got = _power_sums(np.array([a]), np.array([b]), np.array([count]), np.array([step]))[0]
    exact = power_sums_oracle(a, step, count, 2 * _TAYLOR_K)
    scale = max(1.0, abs(a), abs(b))
    for s, (g, e) in enumerate(zip(got, exact)):
        weight = 1.0 / (mpmath.factorial(s // 2) * mpmath.factorial(s - s // 2))
        assert abs(g - e) * weight <= 1e-14 * count * scale ** s, (s, g, e)


def _energy_case():
    rng = np.random.default_rng(0)
    s = rand_stack(rng, max_layers=4)
    kap, om = rand_kappa(rng), rand_omega(rng)
    return s, rng.standard_normal(4) + 1j * rng.standard_normal(4), kap, om


def test_energy_cost_does_not_follow_the_point_count(monkeypatch):
    # the same mat_exp calls on the same matrices at 2,000 and at 1,000,000
    # points, and no array of one float per point
    import tracemalloc

    s, psi0, kap, om = _energy_case()
    mat_exp, calls = transfer_module.mat_exp, []

    def recording(*args):
        calls[-1].append(args)
        return mat_exp(*args)

    monkeypatch.setattr(transfer_module, "mat_exp", recording)
    for n in (2000, 1_000_000):
        calls.append([])
        tracemalloc.start()
        energy_balance(s, psi0, kap, om, n_points=n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 8 * 1_000_000  # one float64 per point would take 8 MB
    few, many = calls
    assert len(few) == len(many) > 1
    for args_few, args_many in zip(few, many):
        assert all(np.array_equal(x, y) for x, y in zip(args_few, args_many))


def test_energy_quadrature_second_order_to_a_million_points():
    # the midpoint rule's defect keeps falling as h^2 out to 10^6 points
    s, psi0, kap, om = _energy_case()
    g5, g6 = (energy_balance(s, psi0, kap, om, n_points=n).relative_gap
              for n in (100_000, 1_000_000))
    assert 99.0 <= g5 / g6 <= 101.0
