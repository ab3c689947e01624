import numpy as np
import pytest

from dtnstack import (
    ConstantModel,
    DomainError,
    Layer,
    MaterialSpec,
    NumericRangeError,
    ParameterError,
    SingularMatrixError,
    StackSpec,
    build_A,
    certify_point,
    cr_residual,
    dtn_from_tensors,
    herglotz_along_trajectory,
    herglotz_certify,
    make_drude,
    make_sandwich,
    omega_grid_points,
    scalar_sample,
    slice_analyticity,
    trajectory_coeffs,
)
from dtnstack import analyticity
from dtnstack.dtn import _gamma_matrix, _lambda_matrix, dtn
from dtnstack.transfer import propagate
from dtnstack.analyticity import (
    CR_OFFSETS,
    CR_TOL,
    MAT_EXP_BATCH,
    _certified_points,
    _stencil_residual,
    cr_anomalies,
    default_cr_step,
    phase_dtn,
    phase_tensors,
)
from generators import (
    rand_constant_material,
    rand_dispersive_material,
    rand_kappa,
    rand_omega,
    rand_posdef,
    rand_stack,
    vacuum_slab,
)
from oracles import expm_product_oracle


# ----------------------------------------------------------- residual probes

def test_cr_residual_conjugation_frozen():
    # f = conj(z): the residual estimates 2|d f / d conj(z)| = 2.
    assert cr_residual(np.conj, 0.3 + 0.4j) == pytest.approx(2.0, abs=1e-9)


def test_cr_residual_analytic_functions(rng):
    fns = [np.exp, np.sin, lambda z: z**3 - 2j * z + 0.5,
           lambda z: 1.0 / (z - 3.0), lambda z: np.exp(z) / (z + 2.5)]
    for fn in fns:
        for _ in range(4):
            z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert cr_residual(fn, z0) < 1e-7


def test_cr_residual_detects_contamination():
    # f = z^2 + c conj(z) has residual 2|c| (values stay below the scale
    # floor of 1 near this point).
    c = 0.05
    res = cr_residual(lambda z: z**2 + c * np.conj(z), 0.3 + 0.4j)
    assert res == pytest.approx(2 * c, rel=1e-2)


def _five_point_residual(fn, z0, h):
    """The central-difference estimate on z0 ± h, z0 ± ih, with the scale
    max(|f| over those four points, 1): a reference for the stencil."""
    fp, fm, fip, fim = (complex(fn(z0 + h * o)) for o in (1, -1, 1j, -1j))
    deriv = (fp - fm) / (2 * h) + 1j * (fip - fim) / (2 * h)
    return abs(deriv) / max(abs(fp), abs(fm), abs(fip), abs(fim), 1.0)


def test_cr_residual_truncation_falls_as_h_squared():
    # the stencil annihilates 1, z - z0 and (z - z0)^2, so on a holomorphic
    # function its residual halves twice per halved step; the point lies
    # closer to the real axis than the widest step
    def g(z):
        return np.exp(3 * z) / (z + 2j)

    r = [cr_residual(g, 0.3 + 0.01j, h) for h in (1e-2, 5e-3, 2.5e-3)]
    assert r[0] / r[1] == pytest.approx(4.0, rel=0.03)
    assert r[1] / r[2] == pytest.approx(4.0, rel=0.03)


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
def test_cr_residual_reads_a_conj_term_as_the_five_point_stencil(h):
    # f = g + c conj(z): both stencils read 2|c| times the scale
    # normalisation, and they agree to their O(h^2) truncation
    def f(z):
        return np.exp(3 * z) / (z + 2j) + 0.05 * np.conj(z)

    z0 = 0.3 + 0.01j
    assert cr_residual(f, z0, h) == pytest.approx(_five_point_residual(f, z0, h), rel=1e-4)
    if h == 1e-3:
        assert cr_residual(f, z0, h) == pytest.approx(0.08217, abs=1e-5)


def test_cr_offsets_lie_in_the_closed_upper_half_plane():
    # no stencil point lies below its centre, whatever the step
    assert len(CR_OFFSETS) == 4 and CR_OFFSETS[0] == 0
    assert np.all(CR_OFFSETS.imag >= 0)
    stencil, h = analyticity._stencil(1.0 + 1e-14j, 2e-5)
    assert h == 2e-5 and np.all(stencil.imag >= 1e-14)


def _trajectory_certificate(step):
    spec = trajectory_coeffs(np.zeros((3, 3)), [1j * np.eye(3), 1j * np.eye(3)])

    def builder(tensors):
        we, wm = tensors
        return dtn_from_tensors([(1.0, we, wm)], (0.0, 0.0))[0]

    return herglotz_along_trajectory(builder, spec, np.array([1.0, 0, 0, 0, 0, 0]),
                                     [0.2 + 1e-6j], step=step)


#: every entry point that builds a CR stencil, called with step ``h``
STENCIL_ENTRY_POINTS = {
    "cr_residual": lambda h: cr_residual(np.exp, 0.0, h=h),
    "slice_analyticity": lambda h: slice_analyticity(vacuum_slab(), 1j, (0.0, 0.0),
                                                     0, 0, 0, step=h),
    "herglotz_certify": lambda h: herglotz_certify(vacuum_slab(), (0.0, 0.0),
                                                   [1 + 1e-6j], step=h),
    "herglotz_along_trajectory": _trajectory_certificate,
}


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(STENCIL_ENTRY_POINTS))
def test_stencil_step_must_be_finite_and_positive(entry, step):
    # one check in _stencil: a negative step would sample below the point,
    # zero or inf would divide into a stray RuntimeWarning
    with pytest.raises(ParameterError, match="stencil step must be finite and > 0"):
        STENCIL_ENTRY_POINTS[entry](step)


def test_default_cr_step():
    assert default_cr_step(0.1j) == pytest.approx(1e-4)
    assert default_cr_step(3 + 4j) == pytest.approx(5e-4)


# ----------------------------------------------------------- scalar sampling

def test_scalar_sample_frozen_vacuum():
    L, _ = dtn(vacuum_slab(), (0.0, 0.0), 1j, -1.0, 1.0)
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    val = scalar_sample(L, e1)
    assert val == pytest.approx(1j * np.cosh(2) / np.sinh(2), abs=1e-13)


def test_scalar_sample_imaginary_identity(rng):
    s = rand_stack(rng, max_layers=3)
    L, _ = dtn(s, rand_kappa(rng), rand_omega(rng), s.z_min, s.z_max)
    im_L = (L.matrix - L.matrix.conj().T) / 2j
    for _ in range(10):
        f = np.zeros(6, dtype=complex)
        for i in (0, 1, 3, 4):
            f[i] = rng.standard_normal() + 1j * rng.standard_normal()
        assert scalar_sample(L, f).imag == pytest.approx(
            float(np.vdot(f, im_L @ f).real), rel=1e-12)


def test_scalar_sample_validation():
    L, _ = dtn(vacuum_slab(), (0.0, 0.0), 1j, -1.0, 1.0)
    with pytest.raises(ParameterError):
        scalar_sample(L, np.zeros(6))
    with pytest.raises(ParameterError):
        scalar_sample(L, np.array([1.0, 0, 0.5, 0, 0, 0]))


# ------------------------------------------------------------ grid and sweeps

def test_omega_grid_points_frozen():
    grid = omega_grid_points(-1.0, 1.0, 3, 0.5, 1.0, 2)
    assert grid == [complex(-1, 0.5), complex(-1, 1.0),
                    complex(0, 0.5), complex(0, 1.0),
                    complex(1, 0.5), complex(1, 1.0)]


def test_omega_grid_points_validation():
    with pytest.raises(ParameterError):
        omega_grid_points(0, 1, 0, 0.1, 1, 2)
    with pytest.raises(ParameterError):
        omega_grid_points(1, 0, 2, 0.1, 1, 2)


def test_certify_point_vacuum():
    rec, cert = certify_point(vacuum_slab(), (0.0, 0.0), 1j)
    assert rec.min_im_eig == pytest.approx(np.tanh(1.0), abs=1e-12)
    assert rec.worst_cr < 1e-6
    assert np.isfinite(rec.condition_T12)
    assert rec.compression.shape == (4, 4)
    assert cert.ok


def test_certify_point_shrinks_step_near_axis():
    # With Im omega tiny, the stencil must stay in the upper half-plane.
    s = vacuum_slab()
    rec, cert = certify_point(s, (0.0, 0.0), 0.5 + 1e-3j)
    assert cert.ok
    assert rec.worst_cr < 1e-4  # step-limited but still small


def test_herglotz_certify_passive(rng):
    s = rand_stack(rng, max_layers=3, dispersive=True)
    grid = omega_grid_points(-1.0, 1.0, 3, 0.3, 1.5, 2)
    cert = herglotz_certify(s, rand_kappa(rng), grid, s.z_min, s.z_max)
    assert cert.passed
    assert cert.min_im_eig > 0
    assert cert.worst_cr <= 1e-5
    assert len(cert.points) == len(grid)
    assert cert.anomalies == ()


def test_herglotz_certify_accepts_an_array_grid(rng):
    s = rand_stack(rng, max_layers=2)
    kappa, grid = rand_kappa(rng), [0.3 + 0.8j, -0.5 + 1.2j]
    from_array, from_list = (herglotz_certify(s, kappa, g) for g in (np.array(grid), grid))
    for field in ("grid", "min_im_eig", "worst_cr", "anomalies"):
        assert getattr(from_array, field) == getattr(from_list, field)
    for a, b in zip(from_array.points, from_list.points, strict=True):
        assert a[:4] == b[:4] and np.array_equal(a.compression, b.compression)
    with pytest.raises(ParameterError, match="grid must be nonempty"):
        herglotz_certify(s, kappa, np.array([], dtype=complex))


def test_herglotz_certify_chunks_match_certify_point(rng):
    # a 64-layer stack resolves a few grid points per chunk; the records must
    # not depend on how the grid was chunked
    layers = tuple(Layer(2.4 / 64, (rand_dispersive_material if j % 2 else
                                    rand_constant_material)(rng, label=f"layer{j}"))
                   for j in range(64))
    s = StackSpec(z_min=-0.7, layers=layers)
    kappa = rand_kappa(rng)
    grid = omega_grid_points(-1.0, 1.0, 4, 0.3, 1.2, 2)
    assert len(grid) > MAT_EXP_BATCH // (5 * 64)
    cert = herglotz_certify(s, kappa, grid, step=2e-5)
    for rec, w in zip(cert.points, grid):
        single, _ = certify_point(s, kappa, w, step=2e-5)
        assert rec[:4] == single[:4]
        assert np.array_equal(rec.compression, single.compression)


@pytest.mark.parametrize("points_per_chunk", [1, 12], ids=["one-point", "whole-grid"])
def test_chunk_size_changes_no_record_certificate_or_anomaly(monkeypatch, points_per_chunk):
    # thick lossy layers exhaust the flux resolution at some points (an
    # anomaly each); the default chunk holds the whole grid of 12 points
    def lossy(label, diag):
        return MaterialSpec(label, ConstantModel(np.diag(diag)), ConstantModel(np.eye(3)))
    s = StackSpec(z_min=0.0, layers=(
        Layer(7.5, lossy("a", [2 + 0.5j, 3 + 0.3j, 2.5 + 0.4j])),
        Layer(7.5, lossy("b", [2 + 0.4j] * 3))))
    grid = omega_grid_points(0.2, 1.5, 4, 0.2, 1.0, 3)
    reference = list(_certified_points(s, (0.8, 0.0), grid, None, None, None))
    monkeypatch.setattr(analyticity, "MAT_EXP_BATCH", 5 * len(s.layers) * points_per_chunk)
    chunked = list(_certified_points(s, (0.8, 0.0), grid, None, None, None))
    assert 0 < sum(len(cert.anomalies) for _, cert in reference) < len(grid)
    for (rec, cert), (ref_rec, ref_cert) in zip(chunked, reference, strict=True):
        assert rec[:4] == ref_rec[:4]
        assert np.array_equal(rec.compression, ref_rec.compression)
        assert cert == ref_cert
    hc = herglotz_certify(s, (0.8, 0.0), grid)
    # the points' anomalies, then the grid's own: its worst CR residual
    assert hc.anomalies == (*(a for _, cert in reference for a in cert.anomalies),
                            *cr_anomalies(hc.worst_cr, CR_TOL))
    assert len(hc.anomalies) == sum(len(cert.anomalies) for _, cert in reference) + 1


def _singular_then_overflowing_stack():
    # eps_11 = mu_22 = pi(1 - i)/2 over unit thickness: at omega = n(1 + i)
    # one polarisation's phase is n*pi, so T12 is singular; at 1000 + 1j the
    # gain overflows the layer exponential
    v = np.pi * (1 - 1j) / 2
    m = MaterialSpec("gain", ConstantModel(np.diag([v, 1, 1])),
                     ConstantModel(np.diag([1, v, 1])))
    return StackSpec(z_min=0.0, layers=(Layer(1.0, m),))


@pytest.mark.parametrize("grid, error, first", [
    ([1 + 1j, 1000 + 1j], SingularMatrixError, 1 + 1j),
    ([1000 + 1j, 1 + 1j], NumericRangeError, 1000 + 1j),
    ([1 + 1j, 2 + 2j], SingularMatrixError, 1 + 1j),
    ([2 + 2j, 1 + 1j], SingularMatrixError, 2 + 2j),
])
def test_errors_inside_a_chunk_come_in_grid_order(grid, error, first):
    # one chunk holds both points; its error is the first failing point's
    # own, message and condition estimate included, not the chunk's worst
    s = _singular_then_overflowing_stack()
    with pytest.raises(error) as own:
        certify_point(s, (0.0, 0.0), first)
    with pytest.raises(error) as chunk:
        herglotz_certify(s, (0.0, 0.0), grid)
    assert str(chunk.value) == str(own.value)
    assert getattr(chunk.value, "condition", None) == getattr(own.value, "condition", None)


def test_a_certificate_error_comes_before_a_later_points_propagation_error():
    # kappa = 200 over thickness 2: at 1 + 1j the transfer matrix is finite
    # (|T| ~ 1e175) but its flux form overflows, which only that centre's
    # certificate finds; at 300j the layer exponential itself overflows
    m = MaterialSpec("vacuum", ConstantModel(np.eye(3)), ConstantModel(np.eye(3)))
    s = StackSpec(z_min=-1.0, layers=(Layer(2.0, m),))
    with pytest.raises(NumericRangeError, match="flux form overflowed") as own:
        certify_point(s, (200.0, 0.0), 1 + 1j)
    with pytest.raises(NumericRangeError, match="mat_exp overflowed"):
        certify_point(s, (200.0, 0.0), 300j)
    with pytest.raises(NumericRangeError) as chunk:
        herglotz_certify(s, (200.0, 0.0), [1 + 1j, 300j])
    assert str(chunk.value) == str(own.value)


def test_herglotz_certify_reports_material_errors_of_a_chunk_first():
    # wp = 1e150: the response at 10+1j is finite but overflows the
    # propagation (exit 2); at 1e-10(1+i) the response itself overflows
    # (exit 1). Both points share a chunk, whose materials are resolved
    # before any of its points is propagated, so the material error wins.
    m = MaterialSpec(label="drude", eps_model=make_drude(1e150, 0.0, dim=3),
                     mu_model=ConstantModel(np.eye(3, dtype=complex)))
    s = StackSpec(z_min=0.0, layers=(Layer(1.0, m),))
    first, second = 10 + 1j, 1e-10 + 1e-10j
    with pytest.raises(NumericRangeError):
        herglotz_certify(s, (0.5, 0.0), [first])
    with pytest.raises(DomainError, match="not finite"):
        herglotz_certify(s, (0.5, 0.0), [first, second])


def test_herglotz_certify_flags_gain():
    gain = MaterialSpec(
        label="gain",
        eps_model=ConstantModel(np.diag([1.0, -1.0, 1.0]).astype(complex)),
        mu_model=ConstantModel(np.eye(3, dtype=complex)))
    s = StackSpec(z_min=0.0, layers=(Layer(1.0, gain),))
    grid = omega_grid_points(-0.5, 0.5, 2, 0.4, 1.0, 2)
    cert = herglotz_certify(s, (0.6, 0.0), grid, 0.0, 1.0)
    assert not cert.passed
    assert cert.min_im_eig < 0


# -------------------------------------------------------------- tensor slices

def _two_phase_stack(rng):
    m1 = rand_constant_material(rng, label="lower")
    m2 = rand_constant_material(rng, label="upper")
    return StackSpec(z_min=-0.5, layers=(Layer(0.6, m1), Layer(0.7, m2)))


def test_phase_tensors_dedupe(rng):
    m = rand_constant_material(rng, label="only")
    s = StackSpec(z_min=0.0, layers=(Layer(0.4, m), Layer(0.6, m)))
    labels, phase_of_layer, tensors = phase_tensors(s, 1j)
    assert labels == ["only"]
    assert phase_of_layer == [0, 0]
    assert len(tensors) == 2
    assert np.allclose(tensors[0], 1j * m.eps_model.value)


def test_phase_tensors_rejects_shared_label_with_other_tensors(rng):
    # layers that share a label form one phase, so they must share a material
    a = rand_constant_material(rng, label="phase0")
    b = rand_constant_material(rng, label="phase0")
    s = StackSpec(z_min=0.0, layers=(Layer(0.4, a), Layer(0.5, a), Layer(0.6, b)))
    with pytest.raises(ParameterError, match=r"layers 0 and 2 share the label 'phase0'"):
        phase_tensors(s, 0.3 + 1j)


def test_phase_tensors_rejects_real_frequency(rng):
    s = _two_phase_stack(rng)
    for omega in (0.5, 0.5 - 0.1j):
        with pytest.raises(DomainError):
            phase_tensors(s, omega)


def test_phase_dtn_matches_expanded_layers_and_stack_route(rng):
    # three layers over two phases; every route goes through one kernel, so
    # all three agree bit for bit, at dyadic widths and at others alike
    lower = rand_dispersive_material(rng, label="lower")
    upper = rand_constant_material(rng, label="upper")
    om, kap = 0.4 + 0.9j, (0.3, -0.5)
    for widths in ((0.25, 0.5, 0.75), (0.3, 0.7, 1.1)):
        s = StackSpec(z_min=-0.5, layers=tuple(Layer(w, m) for w, m in
                                               zip(widths, (lower, upper, lower))))
        labels, phase_of_layer, Z = phase_tensors(s, om)
        assert labels == ["lower", "upper"] and phase_of_layer == [0, 1, 0]

        def expanded(Z):
            return [(ly.thickness, Z[p], Z[2 + p]) for ly, p in zip(s.layers, phase_of_layer)]

        L = phase_dtn(s, kap, phase_of_layer, Z)
        assert np.array_equal(L.matrix,
                              dtn_from_tensors(expanded(Z), kap, s.c, s.z_min)[0].matrix)
        assert np.array_equal(L.matrix, dtn(s, kap, om, s.z_min, s.z_max)[0].matrix)

        batched = list(Z)
        batched[3] = Z[3] + 0.01j * np.arange(4)[:, None, None] * np.eye(3)
        Lb = phase_dtn(s, kap, phase_of_layer, batched)
        assert Lb.matrix.shape == (4, 6, 6)
        assert np.array_equal(Lb.matrix,
                              dtn_from_tensors(expanded(batched), kap, s.c, s.z_min)[0].matrix)
        assert np.array_equal(Lb.matrix[0], L.matrix)


def test_phase_dtn_rejects_a_phase_index_per_layer_out_of_range(rng):
    # on three layers, a fourth entry must not be ignored, -1 must not wrap
    # to the last phase, and a missing entry is no bare IndexError
    s = make_sandwich(d=1.0, d2=0.25, outer=rand_constant_material(rng, label="outer"),
                      core=rand_dispersive_material(rng, label="core"))
    labels, phase_of_layer, Z = phase_tensors(s, 0.4 + 0.9j)
    assert phase_of_layer == [0, 1, 0]
    for bad in ([0, 1, 0, 1], [0, -1, 0], [0, 1], [0, 2, 0], [0.0, 1.0, 0.0]):
        with pytest.raises(ParameterError, match="phase_of_layer"):
            phase_dtn(s, (0.3, -0.5), bad, Z)


def _phase_stack(rng, n_phases, n_layers):
    """A stack of ``n_layers`` layers cycling through ``n_phases`` random phases."""
    mats = [(rand_dispersive_material if p % 2 else rand_constant_material)(rng, label=f"p{p}")
            for p in range(n_phases)]
    return StackSpec(z_min=float(rng.uniform(-1.0, 0.0)), layers=tuple(
        Layer(float(rng.uniform(0.05, 0.2)), mats[j % n_phases]) for j in range(n_layers)))


def _transfer_and_oracle(stack, kappa, phase_of_layer, Z):
    """T from the phase route, and the ordered product of the 50-digit
    exponentials exp(d_j i J A_j) of the same double A_j."""
    P, p = len(Z) // 2, np.asarray(phase_of_layer)
    S = np.stack(np.broadcast_arrays(*Z), axis=-3)
    t = [ly.thickness for ly in stack.layers]
    T = propagate(t, S[..., :P, :, :], S[..., P:, :, :], kappa, stack.c, stack.z_min,
                  phase_of_layer=p)
    A = build_A(S[..., :P, :, :], S[..., P:, :, :], kappa, stack.c)
    return T, expm_product_oracle([(A[q], d) for d, q in zip(t, p)])


@pytest.mark.parametrize("n_phases, n_layers", [(2, 7), (3, 9)])
def test_phase_route_matches_layer_expanded_route(rng, n_phases, n_layers):
    # the phase route shares each phase's system matrix and Padé powers; the
    # oracle exponentiates every layer on its own in 50 digits. T agrees to
    # rounding; Lambda = f(T) amplifies that by up to cond(T) (seen: 9.3e-17
    # cond(T) over 120 such stacks), so it is held to 1e-14 while cond(T) <= 10
    pytest.importorskip("mpmath")
    for _ in range(4):
        s = _phase_stack(rng, n_phases, n_layers)
        om = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
        kap = tuple(rng.uniform(-1.0, 1.0, size=2))
        _, phase_of_layer, Z = phase_tensors(s, om)
        T, ref_T = _transfer_and_oracle(s, kap, phase_of_layer, Z)
        assert np.linalg.norm(T - ref_T) <= 1e-14 * np.linalg.norm(ref_T)
        L = phase_dtn(s, kap, phase_of_layer, Z).matrix
        assert np.array_equal(L, _lambda_matrix(_gamma_matrix(T)))
        ref = _lambda_matrix(_gamma_matrix(ref_T))
        bound = 1e-15 * max(np.linalg.cond(ref_T), 10.0)
        assert np.linalg.norm(L - ref) <= bound * np.linalg.norm(ref)


def test_phase_route_batch_matches_single_entries(rng):
    # entries whose tensors differ in size need different Padé degrees (so a
    # different number of shared powers); each equals its own call
    s = _phase_stack(rng, 3, 8)
    om, kap = 0.3 + 0.8j, rand_kappa(rng)
    _, phase_of_layer, Z = phase_tensors(s, om)
    scale = np.array([0.2, 1.0, 4.0, 12.0])[:, None, None]
    batched = [Zi * scale if i % 3 == 0 else Zi for i, Zi in enumerate(Z)]
    Lb = phase_dtn(s, kap, phase_of_layer, batched).matrix
    assert Lb.shape == (4, 6, 6)
    for n in range(4):
        single = [Zi[n] if Zi.ndim == 3 else Zi for Zi in batched]
        assert np.array_equal(Lb[n], phase_dtn(s, kap, phase_of_layer, single).matrix)


@pytest.mark.parametrize("tensor_index", [0, 3], ids=["eps", "mu"])
@pytest.mark.parametrize("row, col, entry", [(1, 1, (0, 0)), (0, 2, (1, 4))],
                         ids=["diagonal", "off-diagonal"])
def test_slice_analyticity_matches_per_offset_loop(rng, tensor_index, row, col, entry):
    # the one batched propagation gives the residual of one propagation per
    # direction and stencil offset
    s = _two_phase_stack(rng)
    om, kap, h = 0.4 + 0.9j, (0.3, -0.5), 1e-4
    _, phase_of_layer, Z = phase_tensors(s, om)
    if row == col:
        directions = [np.diag([0.0, 1.0, 0.0]).astype(complex)]
    else:
        Ds = np.zeros((3, 3), dtype=complex)
        Ds[0, 2] = Ds[2, 0] = 1.0 / np.sqrt(2.0)
        Da = np.zeros((3, 3), dtype=complex)
        Da[0, 2], Da[2, 0] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
        directions = [Ds, Da]
    worst = 0.0
    for D in directions:
        vals = []
        for offset in h * CR_OFFSETS:
            Zt = list(Z)
            Zt[tensor_index] = Z[tensor_index] + offset * D
            vals.append(phase_dtn(s, kap, phase_of_layer, Zt).matrix[entry])
        worst = max(worst, float(_stencil_residual(np.array(vals), h)))
    rep = slice_analyticity(s, om, kap, tensor_index, row, col, entry=entry, step=h)
    assert rep.residual == worst


def test_slice_analyticity_diagonal_and_offdiagonal(rng):
    s = _two_phase_stack(rng)
    om, kap = 0.4 + 0.9j, (0.3, -0.5)
    for tensor_index in range(4):
        rep_d = slice_analyticity(s, om, kap, tensor_index, 1, 1)
        assert rep_d.residual < 1e-6
        rep_o = slice_analyticity(s, om, kap, tensor_index, 0, 2,
                                  entry=(1, 4))
        assert rep_o.residual < 1e-6
        assert "entry (0,2)" in rep_o.label


def test_slice_analyticity_rejects_nonpassive_base(rng):
    s = _two_phase_stack(rng)
    bad = [1j * rand_posdef(rng) for _ in range(4)]
    bad[1] = np.diag([1.0, 1.0, -1.0]).astype(complex) * 1j
    with pytest.raises(DomainError):
        slice_analyticity(s, 1j, (0.0, 0.0), 0, 0, 0, base_Z=bad)


def test_slice_analyticity_rejects_oversized_step(rng):
    # the stencil's +ih offset along the Hermitian direction of an
    # off-diagonal entry adds an indefinite imaginary part (along a diagonal
    # unit it only raises Im Z, which cannot leave the passive cone)
    s = _two_phase_stack(rng)
    with pytest.raises(DomainError, match="decrease the step"):
        slice_analyticity(s, 1j, (0.0, 0.0), 0, 0, 1, step=50.0)


def test_slice_analyticity_validates_indices(rng):
    s = _two_phase_stack(rng)
    with pytest.raises(ParameterError):
        slice_analyticity(s, 1j, (0.0, 0.0), 7, 0, 0)
    with pytest.raises(ParameterError):
        slice_analyticity(s, 1j, (0.0, 0.0), 0, 3, 0)


@pytest.mark.parametrize("kwargs, name", [
    (dict(entry=(7, 0)), "entry"),
    (dict(entry=(-1, 0)), "entry"),
    (dict(entry=(0,)), "entry"),
    (dict(entry=(0.0, 1)), "entry"),
    (dict(tensor_index=0.5), "tensor_index"),
    (dict(row=1.0), "row"),
    (dict(col=True), "col"),
])
def test_slice_analyticity_requires_integer_indices(rng, kwargs, name):
    # a negative index must not wrap to a zero normal row, and a fractional
    # or out-of-range one is a ParameterError naming the argument
    s = _two_phase_stack(rng)
    args = dict(tensor_index=0, row=0, col=0) | kwargs
    with pytest.raises(ParameterError, match=name):
        slice_analyticity(s, 1j, (0.0, 0.0), **args)


@pytest.mark.parametrize("entry", [(5, 0), (2, 1)])
def test_slice_analyticity_rejects_a_normal_entry(rng, entry):
    # rows and columns 2 and 5 of Lambda are identically zero, so a slice
    # watching one would read a residual of 0.0 whatever the operator did
    s = _two_phase_stack(rng)
    with pytest.raises(ParameterError, match="entry must be a pair of tangential indices"):
        slice_analyticity(s, 1j, (0.0, 0.0), 0, 0, 0, entry=entry)


def test_wavevector_slice_is_analytic(rng):
    # The boundary operator is also holomorphic in each component of the
    # in-plane wavevector; probe it with the generic CR residual.
    s = rand_stack(rng, max_layers=2)
    om = 0.3 + 1.1j
    from dtnstack.transfer import transfer
    from dtnstack import gamma, lambda_map

    def entry(k1):
        T = transfer(s, (k1, 0.4), om, s.z_min, s.z_max)
        L = lambda_map(gamma(T), s.z_min, s.z_max)
        return complex(L.matrix[0, 0])

    assert cr_residual(entry, 0.2 + 0.0j) < 1e-6
