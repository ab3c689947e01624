import numpy as np
import pytest

import dtnstack.transfer as transfer_module
from dtnstack import (
    ConstantModel,
    DomainError,
    GeometryError,
    HerglotzModel,
    Layer,
    MaterialSpec,
    ParameterError,
    SingularMatrixError,
    StackSpec,
    build_A,
    field_profile,
    locate,
    make_drude,
    normal_components,
)
from dtnstack.transfer import J, propagate, resolve_layers, resolve_stack, transfer
from generators import (
    rand_constant_material,
    rand_drude_material,
    rand_herglotz_model,
    rand_kappa,
    rand_omega,
    rand_posdef,
    rand_stack,
    vacuum_slab,
)
from oracles import J_ORACLE, expm_action_oracle, ode_transfer_oracle


def _per_model(stack, z):
    """Each layer's models evaluated one at a time in resolve_stack's order
    (every eps model, then every mu model): the stacked evaluation's
    reference."""
    return [m._eval(np.asarray(z, dtype=complex)[..., None, None])
            for m in [ly.material.eps_model for ly in stack.layers]
            + [ly.material.mu_model for ly in stack.layers]]


def _mixed_stack(rng):
    # constant, Drude and Herglotz layers, the Herglotz ones of several pole
    # counts in eps and in mu
    layers = [Layer(0.3, rand_constant_material(rng, label="c")),
              Layer(0.2, rand_drude_material(rng, label="d"))]
    for j, (eps_poles, mu_poles) in enumerate([(1, 2), (3, 2), (1, 3)]):
        m = MaterialSpec(f"h{j}", rand_herglotz_model(rng, eps_poles),
                         rand_herglotz_model(rng, mu_poles))
        layers.append(Layer(0.1 * (j + 1), m))
    layers.append(Layer(0.4, rand_constant_material(rng, label="c2")))
    return StackSpec(z_min=-0.3, layers=tuple(layers))


def test_vacuum_system_matrix_normal_incidence():
    omega = 0.8 + 0.3j
    I3 = np.eye(3, dtype=complex)
    A = build_A(omega * I3, omega * I3, (0.0, 0.0))
    assert np.allclose(A, omega * np.eye(4), atol=1e-14)


def test_vacuum_system_matrix_oblique():
    # With kappa = (k, 0) the vacuum matrix picks up -k^2/omega on the
    # slots conjugate to E2 and H2.
    omega, k = 1.3 + 0.2j, 0.9
    I3 = np.eye(3, dtype=complex)
    A = build_A(omega * I3, omega * I3, (k, 0.0))
    expected = omega * np.eye(4) - (k**2 / omega) * np.diag([0, 1.0, 0, 1.0])
    assert np.allclose(A, expected, atol=1e-14)


def test_tangential_reduction_satisfies_curl_equations(rng):
    # First-principles oracle: reconstructing (E, H) from tangential data
    # through the reduced system must satisfy both curl equations
    #   curl E = (i/c) (omega mu) H,   curl H = -(i/c) (omega eps) E
    # for fully anisotropic tensors and arbitrary in-plane wavevectors.
    for c in (1.0, 2.0):
        for _ in range(8):
            we = rand_omega(rng) * rand_posdef(rng)
            wm = rand_omega(rng) * rand_posdef(rng)
            kap = np.array(rand_kappa(rng))
            A = build_A(we, wm, kap, c)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            dpsi = 1j * (J @ A) @ psi
            phi = normal_components(we, wm, kap, psi, c=c)
            E = np.array([psi[0], psi[1], phi[0]])
            H = np.array([psi[2], psi[3], phi[1]])
            k1, k2 = kap
            curl_e = np.array([1j * k2 * E[2] - dpsi[1],
                               dpsi[0] - 1j * k1 * E[2],
                               1j * k1 * E[1] - 1j * k2 * E[0]])
            curl_h = np.array([1j * k2 * H[2] - dpsi[3],
                               dpsi[2] - 1j * k1 * H[2],
                               1j * k1 * H[1] - 1j * k2 * H[0]])
            assert np.abs(curl_e - (1j / c) * (wm @ H)).max() < 1e-12
            assert np.abs(curl_h + (1j / c) * (we @ E)).max() < 1e-12


def test_normal_components_vacuum_oblique():
    # In vacuum with kappa = (k, 0), psi = (0,0,0,1) induces E3 = -c k/omega.
    omega, k, c = 1.1 + 0.4j, 0.7, 1.0
    I3 = np.eye(3, dtype=complex)
    phi = normal_components(omega * I3, omega * I3, (k, 0.0),
                            np.array([0, 0, 0, 1.0]), c=c)
    assert phi[0] == pytest.approx(-c * k / omega, abs=1e-14)
    assert phi[1] == pytest.approx(0.0, abs=1e-14)


def test_build_a_requires_invertible_normal_block():
    I3 = np.eye(3, dtype=complex)
    flat = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrixError):
        build_A(flat, I3, (0.0, 0.0))
    # singular relative to its own tensor, in mu and in one batch entry; a
    # uniformly small tensor is regular, alone or beside a large one
    small_mu33 = np.diag([1.0, 1.0, 1e-17]).astype(complex)
    with pytest.raises(SingularMatrixError, match="normal response block"):
        build_A(I3, small_mu33, (0.0, 0.0))
    with pytest.raises(SingularMatrixError, match="normal response block"):
        build_A(np.stack([I3, I3, small_mu33]), np.stack([I3] * 3), (0.0, 0.0))
    assert np.all(np.isfinite(build_A(1e-200 * I3, I3, (0.0, 0.0))))
    mixed = build_A(np.stack([1e-200 * I3, I3]), np.stack([I3] * 2), (0.0, 0.0))
    assert np.all(np.isfinite(mixed))


def test_propagator_rotation_closed_form():
    # omega*eps = omega*mu = omega I at kappa = 0 give A = omega I
    omega, L = 1.2, 0.8
    W = omega * np.eye(3, dtype=complex)[None]
    P = propagate([L], W, W, (0.0, 0.0))
    th = omega * L
    assert np.allclose(P, np.cos(th) * np.eye(4) + 1j * np.sin(th) * J,
                       atol=1e-14)


def test_propagator_imaginary_frequency_closed_form():
    # omega = i*a turns the rotation into cosh(aL) I - sinh(aL) J.
    a, L = 1.0, 2.0
    W = (1j * a) * np.eye(3, dtype=complex)[None]
    P = propagate([L], W, W, (0.0, 0.0))
    expected = np.cosh(a * L) * np.eye(4) - np.sinh(a * L) * J
    assert np.allclose(P, expected, atol=1e-12)


def test_transfer_identity_and_composition(rng):
    s = rand_stack(rng, max_layers=3, dispersive=True)
    kap = rand_kappa(rng)
    om = rand_omega(rng)
    zs = np.linspace(s.z_min, s.z_max, 5)
    zm = 0.5 * (s.z_min + s.z_max)

    T_same = transfer(s, kap, om, zm, zm)
    assert np.allclose(T_same.matrix, np.eye(4), atol=1e-13)

    T_full = transfer(s, kap, om, zs[0], zs[-1]).matrix
    T_lo = transfer(s, kap, om, zs[0], zs[2]).matrix
    T_hi = transfer(s, kap, om, zs[2], zs[-1]).matrix
    assert np.allclose(T_hi @ T_lo, T_full, rtol=1e-10, atol=1e-12)

    T_rev = transfer(s, kap, om, zs[-1], zs[0]).matrix
    assert np.allclose(T_rev @ T_full, np.eye(4), rtol=1e-9, atol=1e-11)


def test_transfer_against_ode_integration(rng):
    # Dual route: the exponential-product transfer matrix must agree with
    # a direct RK4 integration of the layered ODE.
    for _ in range(4):
        s = rand_stack(rng, max_layers=3, dispersive=True)
        kap = rand_kappa(rng)
        om = rand_omega(rng)
        T = transfer(s, kap, om, s.z_min, s.z_max).matrix
        segs = [(build_A(we, wm, kap, s.c), d)
                for d, we, wm in resolve_layers(s, om)]
        T_ode = ode_transfer_oracle(segs)
        rel = np.linalg.norm(T - T_ode) / np.linalg.norm(T_ode)
        assert rel < 1e-8


def test_transfer_layer_ordering(rng):
    # Across two distinct layers the product must apply the lower layer
    # first: T = P_upper @ P_lower.
    m1 = MaterialSpec(label="a", eps_model=ConstantModel(rand_posdef(rng)),
                      mu_model=ConstantModel(rand_posdef(rng)))
    m2 = MaterialSpec(label="b", eps_model=ConstantModel(rand_posdef(rng)),
                      mu_model=ConstantModel(rand_posdef(rng)))
    s = StackSpec(z_min=0.0, layers=(Layer(0.6, m1), Layer(0.9, m2)))
    kap, om = (0.4, -1.0), 0.7 + 0.5j
    tensors = resolve_layers(s, om)
    P1 = propagate([0.6], tensors[0][1][None], tensors[0][2][None], kap)
    P2 = propagate([0.9], tensors[1][1][None], tensors[1][2][None], kap)
    T = transfer(s, kap, om, 0.0, 1.5).matrix
    assert np.allclose(T, P2 @ P1, rtol=1e-12, atol=1e-13)
    assert not np.allclose(T, P1 @ P2, atol=1e-6)  # order actually matters


def test_transfer_accepts_complex_kappa():
    s = vacuum_slab()
    T = transfer(s, (0.3 + 0.1j, -0.2j), 1j, -1.0, 1.0)
    assert np.all(np.isfinite(T.matrix))


def test_transfer_rejects_out_of_range():
    s = vacuum_slab()
    with pytest.raises(GeometryError):
        transfer(s, (0.0, 0.0), 1j, -1.5, 1.0)
    with pytest.raises(GeometryError):
        transfer(s, (0.0, 0.0), 1j, -1.0, 1.2)


def test_propagate_without_phase_index_needs_one_tensor_per_layer():
    # on three layers, two tensors used to raise a bare IndexError and a
    # fourth tensor was silently ignored
    we = np.eye(3, dtype=complex) * (1 + 1j)
    for n_eps, n_mu in ((2, 3), (4, 3), (3, 2), (3, 4)):
        with pytest.raises(ParameterError, match=r"one tensor per layer \(3\)"):
            propagate([0.5] * 3, np.stack([we] * n_eps), np.stack([we] * n_mu), (0.1, 0.0))
    T = propagate([0.5] * 3, np.stack([we] * 3), np.stack([we] * 3), (0.1, 0.0))
    assert T.shape == (4, 4)


def test_propagate_with_phase_index_needs_one_mu_tensor_per_eps_phase():
    # two eps phases: three mu tensors used to be truncated silently and one
    # mu tensor raised a bare IndexError
    we = np.eye(3, dtype=complex) * (1 + 1j)
    for n_mu in (3, 1):
        with pytest.raises(ParameterError, match="one omega_mu tensor per omega_eps phase"):
            propagate([0.5] * 3, np.stack([we] * 2), np.stack([we] * n_mu), (0.1, 0.0),
                      phase_of_layer=[0, 1, 0])
    T = propagate([0.5] * 3, np.stack([we] * 2), np.stack([we] * 2), (0.1, 0.0),
                  phase_of_layer=[0, 1, 0])
    assert T.shape == (4, 4)


@pytest.mark.parametrize("phase_of_layer", [None, [0, 1, 0]])
def test_propagate_accepts_tensors_of_any_strides(rng, phase_of_layer):
    # swapped last axes are views that are not C-contiguous; they used to
    # raise a bare ValueError from the normal-entry check's float view
    n = 3 if phase_of_layer is None else 2
    omegas = [rand_omega(rng) for _ in range(2)]
    eps = np.stack([[w * rand_posdef(rng) for _ in range(n)] for w in omegas])
    mu = np.stack([[w * rand_posdef(rng) for _ in range(n)] for w in omegas])
    eps_t, mu_t = np.swapaxes(eps, -1, -2), np.swapaxes(mu, -1, -2)
    assert not (eps_t.flags.c_contiguous or mu_t.flags.c_contiguous)
    t, kap = [0.5, 0.2, 0.3], rand_kappa(rng)
    T = propagate(t, eps_t, mu_t, kap, phase_of_layer=phase_of_layer)
    T_copy = propagate(t, np.ascontiguousarray(eps_t), np.ascontiguousarray(mu_t), kap,
                       phase_of_layer=phase_of_layer)
    assert T.shape == (2, 4, 4)
    assert np.array_equal(T, T_copy)


def test_field_profile_continuity_and_endpoints(rng):
    s = rand_stack(rng, max_layers=4)
    kap, om = rand_kappa(rng), rand_omega(rng)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    eps_step = 1e-9
    for zb in s.boundaries[1:-1]:
        lo, hi = field_profile(s, psi0, kap, om,
                               [zb - eps_step, zb + eps_step])[0]
        assert np.allclose(lo, hi, rtol=1e-7, atol=1e-9)
    zs = [s.z_min, s.z_max]
    psi, phi = field_profile(s, psi0, kap, om, zs)
    assert np.allclose(psi[0], psi0, atol=1e-13)
    T = transfer(s, kap, om, s.z_min, s.z_max).matrix
    assert np.allclose(psi[1], T @ psi0, rtol=1e-12, atol=1e-13)
    assert phi.shape == (2, 2)


def test_field_profile_matches_transfer_both_directions(rng, monkeypatch):
    # anchored mid-stack, samples below z_ref propagate backwards; the
    # exponential batches may be split without changing the field
    layers = tuple(Layer(float(rng.uniform(0.2, 0.8)), rand_constant_material(rng, f"m{k}"))
                   for k in range(3))
    s = StackSpec(z_min=-0.4, layers=layers)
    kap, om = rand_kappa(rng), rand_omega(rng)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z_ref = s.z_min + 0.5 * (s.z_max - s.z_min)
    zs = np.linspace(s.z_min, s.z_max, 41)
    psi, phi = field_profile(s, psi0, kap, om, zs, z_ref=z_ref)
    for z, p in zip(zs, psi):
        expected = transfer(s, kap, om, z_ref, z).matrix @ psi0
        assert np.allclose(p, expected, rtol=1e-10, atol=1e-12)
    monkeypatch.setattr(transfer_module, "MAT_EXP_BATCH", 4)
    psi_split, phi_split = field_profile(s, psi0, kap, om, zs, z_ref=z_ref)
    assert np.array_equal(psi_split, psi)
    assert np.array_equal(phi_split, phi)


def test_field_profile_normal_components_consistent(rng):
    s = rand_stack(rng, max_layers=2)
    kap, om = rand_kappa(rng), rand_omega(rng)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z = s.z_min + 0.3 * (s.z_max - s.z_min)
    psi, phi = field_profile(s, psi0, kap, om, [z])
    idx, _ = locate(s, z)
    d, we, wm = resolve_layers(s, om)[idx]
    assert np.allclose(phi[0], normal_components(we, wm, kap, psi[0], c=s.c),
                       atol=1e-12)


def _lossy_layer(d):
    # ROADMAP item 5's lossy anisotropic layer
    eps = ConstantModel(value=np.diag([2 + 0.5j, 3 + 0.3j, 2.5 + 0.4j]))
    mu = ConstantModel(value=np.eye(3, dtype=complex))
    return StackSpec(z_min=0.0, layers=(Layer(d, MaterialSpec("lossy", eps, mu)),))


@pytest.mark.parametrize("d, ref", [(0.5, 0.0), (5.0, 0.0), (20.0, 0.0), (5.0, 0.5), (20.0, 0.5)])
def test_field_profile_matches_mpmath_oracle(d, ref):
    # every sample within 1e-13 (max-norm, relative) of the 50-digit action
    # exp((z - z_ref) i J A) psi0, z_ref at the bottom face or mid-layer
    pytest.importorskip("mpmath")
    om, kap = 1 + 0.3j, (0.8, 0.0)
    s = _lossy_layer(d)
    psi0 = np.array([1.0, 0.5 - 0.2j, -0.3j, 0.7])
    zs, z_ref = np.linspace(0.0, d, 23), ref * d
    psi, _ = field_profile(s, psi0, kap, om, zs, z_ref=z_ref)
    ((_, we, wm),) = resolve_layers(s, om)
    want = expm_action_oracle(1j * J_ORACLE @ build_A(we, wm, kap, s.c), psi0, zs - z_ref)
    err = np.abs(psi - want).max(axis=1) / np.abs(want).max(axis=1)
    assert err.max() <= 1e-13


def test_field_profile_anchor_cases_match_sorted_samples_bitwise(rng, monkeypatch):
    # samples unsorted, duplicated, on every face and exactly halfway between
    # two anchors give bitwise the fields of the same samples sorted, however
    # the batches are split
    layers = tuple(Layer(d, rand_constant_material(rng, f"m{k}"))
                   for k, d in enumerate((0.5, 0.75, 1.0)))
    s = StackSpec(z_min=0.0, layers=layers)
    kap, om = rand_kappa(rng), rand_omega(rng)
    psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z_ref = 0.8
    t, we, wm = resolve_stack(s, om)
    M = 1j * (J @ build_A(we, wm, kap, s.c))
    per_length = np.abs(M).sum(axis=-2).max(axis=-1) / (2.0 * transfer_module._TAYLOR_R)
    b = s.boundaries
    halfway = []
    for j in range(len(layers)):
        for k in range(int(t[j] * per_length[j])):
            z = b[j] + (k + 0.5) / per_length[j]
            layer, offset = locate(s, z)
            if layer == j and offset * per_length[j] == k + 0.5:  # an exact tie
                halfway.append(z)
    assert len(halfway) >= 3
    zs = np.concatenate([b, halfway, rng.uniform(b[0], b[-1], 30)])
    zs = np.sort(np.concatenate([zs, zs[::3]]))
    psi, phi = field_profile(s, psi0, kap, om, zs, z_ref=z_ref)
    perm = rng.permutation(zs.size)
    for batch in (transfer_module.MAT_EXP_BATCH, 4, 1):
        monkeypatch.setattr(transfer_module, "MAT_EXP_BATCH", batch)
        psi_u, phi_u = field_profile(s, psi0, kap, om, zs[perm], z_ref=z_ref)
        assert np.array_equal(psi_u, psi[perm])
        assert np.array_equal(phi_u, phi[perm])


def test_field_profile_zero_system_matrix_keeps_the_field():
    # eps = mu = diag(0, 0, 1) at kappa = 0 gives A = 0: ||i J A||_1 = 0 sets
    # no anchor spacing, and the field stays psi0 with no warning
    flat = ConstantModel(value=np.diag([0.0, 0.0, 1.0]).astype(complex))
    s = StackSpec(z_min=0.0, layers=(Layer(1.0, MaterialSpec("flat", flat, flat)),))
    psi0 = np.array([1.0, -2.0j, 0.5, 3.0])
    psi, _ = field_profile(s, psi0, (0.0, 0.0), 1 + 1j, [0.0, 0.3, 1.0], z_ref=0.6)
    assert np.array_equal(psi, np.tile(psi0, (3, 1)))


def test_oracle_j_matches_package_j():
    assert np.array_equal(J, J_ORACLE)


def test_resolve_stack_equals_per_model_evaluation_bitwise(rng):
    s = _mixed_stack(rng)
    z = rng.standard_normal((4, 5)) + 1j * rng.uniform(0.01, 2.0, (4, 5))
    thickness, we, wm = resolve_stack(s, z)
    L = len(s.layers)
    ref = _per_model(s, z)
    assert we.shape == wm.shape == (4, 5, L, 3, 3)
    assert np.array_equal(thickness, [ly.thickness for ly in s.layers])
    for j in range(L):
        for got, want in ((we[..., j, :, :], ref[j]), (wm[..., j, :, :], ref[L + j])):
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  want.view(np.uint64))


def test_resolve_stack_names_first_nonfinite_model_then_z(rng):
    # poles on the real axis: eps of layer 3 at 0.5, eps of layer 4 at -1
    # (earlier on the grid) and mu of layer 0 at 2; eps is resolved first,
    # so the error names layer 3's pole
    def pole_at(p):
        return HerglotzModel(dim=3, alpha=np.eye(3), beta=np.zeros((3, 3)),
                             poles=[p], weights=[0.1 * np.eye(3)])
    s = _mixed_stack(rng)
    layers = list(s.layers)
    layers[0] = Layer(0.3, MaterialSpec("p0", layers[0].material.eps_model, pole_at(2.0)))
    layers[3] = Layer(0.3, MaterialSpec("p3", pole_at(0.5), layers[3].material.mu_model))
    layers[4] = Layer(0.3, MaterialSpec("p4", pole_at(-1.0), layers[4].material.mu_model))
    s = StackSpec(z_min=0.0, layers=tuple(layers))
    z = np.array([[1 + 1j, -1.0], [2.0, 0.5]])
    with np.errstate(all="ignore"):
        ref = _per_model(s, z)
    j = next(j for j, v in enumerate(ref) if not np.isfinite(v).all())
    first = z[~np.isfinite(ref[j]).all(axis=(-2, -1))][0]
    assert (j, first) == (3, 0.5)
    with pytest.raises(DomainError) as exc:
        resolve_stack(s, z)
    assert str(exc.value) == f"model response is not finite at z={first}"
    # a Drude pole (gamma = 0 at z = 0) in mu is named after every eps pole
    drude = MaterialSpec("d", layers[1].material.eps_model, make_drude(1.0, 0.0, dim=3))
    s = StackSpec(z_min=0.0, layers=(Layer(1.0, drude), Layer(1.0, layers[3].material)))
    with pytest.raises(DomainError, match=r"z=\(0\.5\+0j\)"):
        resolve_stack(s, np.array([0.0, 0.5]))
