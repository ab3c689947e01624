import numpy as np
import pytest

from dtnstack import (
    ContractError,
    DomainError,
    Layer,
    NumericRangeError,
    ParameterError,
    SingularMatrixError,
    StackSpec,
    TrajectorySpec,
    basis,
    cr_residual,
    dtn_from_tensors,
    herglotz_along_trajectory,
    phi,
    phi_inv,
    scalar_sample,
    trajectory_coeffs,
    trajectory_point,
    trajectory_roundtrip,
)
from dtnstack import analyticity
from dtnstack.analyticity import CR_OFFSETS, _stencil, _stencil_residual, default_cr_step
from generators import rand_hermitian, rand_posdef


# --------------------------------------------------------- coordinates / phi

def test_phi_frozen_antisymmetric():
    A = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.allclose(phi(A), [0.0, 0.0, 0.0, -np.sqrt(2.0)], atol=1e-15)


def test_phi_frozen_diagonal_and_real():
    A = np.array([[2.0, 3.0], [3.0, -1.0]], dtype=complex)
    assert np.allclose(phi(A), [2.0, -1.0, 3.0 * np.sqrt(2.0), 0.0],
                       atol=1e-15)


def test_phi_inverse_roundtrip(rng):
    for n in (2, 3, 4):
        A = rand_hermitian(rng, n)
        x = phi(A)
        assert x.dtype == float
        assert x.shape == (n * n,)
        assert np.allclose(phi_inv(x), A, atol=1e-13)


def test_phi_isometry(rng):
    # Tr(AB) = phi(A) . phi(B) for Hermitian matrices (plain real dot).
    for _ in range(50):
        A, B = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
        assert np.trace(A @ B).real == pytest.approx(
            float(phi(A) @ phi(B)), abs=1e-12)


def test_basis_one_hot_and_gram():
    for n in (2, 3):
        E = basis(n)
        assert E.shape == (n * n, n, n)
        for k in range(n * n):
            onehot = np.zeros(n * n)
            onehot[k] = 1.0
            assert np.array_equal(phi(E[k]), onehot)
        G = np.array([[np.trace(E[a] @ E[b]).real for b in range(n * n)]
                      for a in range(n * n)])
        assert np.allclose(G, np.eye(n * n), atol=1e-14)


def test_phi_rejects_nonhermitian():
    with pytest.raises(ContractError):
        phi(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------------------- trajectories

def test_trajectory_frozen_identity_tensor():
    # L0 = 0, single tensor iI: coefficients A = 0, B = I, and the
    # trajectory is -1/s I, e.g. (i/2) I at s = 2i.
    spec = trajectory_coeffs(np.zeros((3, 3)), [1j * np.eye(3)])
    A, B = spec.coeffs[0]
    assert np.allclose(A, 0.0, atol=1e-15)
    assert np.allclose(B, np.eye(3), atol=1e-15)
    (pt,) = trajectory_point(spec, 2j)
    assert np.allclose(pt, 0.5j * np.eye(3), atol=1e-14)


def test_trajectory_roundtrip_random(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        L0 = rand_hermitian(rng, n).real
        tensors = [rand_hermitian(rng, n) + 1.5j * rand_posdef(rng, n)
                   for _ in range(int(rng.integers(1, 4)))]
        assert trajectory_roundtrip(L0, tensors) < 1e-12


def test_trajectory_stays_in_tube(rng):
    # Im L'_j(s) stays positive definite throughout the upper half-plane.
    L0 = rand_hermitian(rng, 3).real
    tensors = [rand_hermitian(rng, 3) + 1j * rand_posdef(rng, 3)
               for _ in range(3)]
    spec = trajectory_coeffs(L0, tensors)
    for _ in range(50):
        s = complex(rng.uniform(-3, 3), rng.uniform(1e-2, 3))
        for pt in trajectory_point(spec, s):
            im = (pt - pt.conj().T) / 2j
            assert np.linalg.eigvalsh(im).min() > 0


def test_trajectory_domain_errors(rng):
    L0 = np.zeros((3, 3))
    with pytest.raises(DomainError):
        trajectory_coeffs(L0, [np.eye(3, dtype=complex)])  # Im = 0
    with pytest.raises(DomainError):
        trajectory_coeffs(L0, [rand_hermitian(rng, 3) - 1j * np.eye(3)])
    spec = trajectory_coeffs(L0, [1j * np.eye(3)])
    with pytest.raises(DomainError):
        trajectory_point(spec, 0.5)  # real parameter
    with pytest.raises(DomainError):
        trajectory_point(spec, 0.3 - 1j)


def test_trajectory_spec_requires_real_symmetric_base():
    with pytest.raises(ContractError):
        TrajectorySpec(L0=np.array([[0.0, 1j], [-1j, 0.0]]), coeffs=())


def test_herglotz_along_trajectory_boundary_operator(rng):
    # Drive an actual boundary operator along the trajectory: the scalar
    # sample must have positive imaginary part and tiny CR residual on the
    # whole grid, with the physical tensors recovered at s = i.
    eps = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    mu = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    L0 = np.zeros((3, 3))
    spec = trajectory_coeffs(L0, [eps, mu])
    thickness, kap = 0.8, (0.4, -0.3)

    def builder(tensors):
        we, wm = tensors
        L, _ = dtn_from_tensors([(thickness, we, wm)], kap, 1.0, 0.0)
        return L

    f = np.array([1.0, 0.5j, 0.0, -0.3, 0.2, 0.0])
    s_grid = [complex(r, i) for r in (-0.8, 0.0, 0.9) for i in (0.4, 1.0)]
    cert = herglotz_along_trajectory(builder, spec, f, s_grid)
    assert cert.passed
    assert cert.min_im > 0
    assert cert.worst_cr <= 1e-5
    assert len(cert.values) == len(s_grid)

    # physical point recovered at s = i
    (we_i, wm_i) = trajectory_point(spec, 1j)
    assert np.allclose(we_i, eps, atol=1e-12)
    assert np.allclose(wm_i, mu, atol=1e-12)


def test_trajectory_point_batch_matches_scalar_calls(rng):
    L0 = rand_hermitian(rng, 3).real
    tensors = [rand_hermitian(rng, 3) + 1j * rand_posdef(rng, 3) for _ in range(4)]
    spec = trajectory_coeffs(L0, tensors)
    s = rng.uniform(-2, 2, (2, 5)) + 1j * rng.uniform(0.1, 2, (2, 5))
    batch = trajectory_point(spec, s)
    assert len(batch) == 4
    for j, Lj in enumerate(batch):
        assert Lj.shape == (2, 5, 3, 3)
        for idx in np.ndindex(s.shape):
            ref = trajectory_point(spec, s[idx])[j]
            assert ref.shape == (3, 3)
            assert np.linalg.norm(Lj[idx] - ref) <= 1e-15 * np.linalg.norm(ref)
    with pytest.raises(DomainError, match="-0.5"):
        trajectory_point(spec, np.array([1j, -0.5 + 0j, 2j]))


def test_trajectory_point_batch_names_singular_tensor():
    # A_1 + s B_1 is singular at s = 2i only; the batch still names tensor 1
    eye = np.eye(3, dtype=complex)
    spec = TrajectorySpec(np.zeros((3, 3)),
                          ((0 * eye, eye), (np.diag([-2j, 1.0, 1.0]), eye)))
    with pytest.raises(SingularMatrixError, match="for tensor 1"):
        trajectory_point(spec, np.array([1j, 2j, 3j]))


def test_herglotz_along_trajectory_matches_per_point_reference(rng):
    # the stencil-batched route against one builder call per parameter value
    eps = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    mu = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    spec = trajectory_coeffs(rand_hermitian(rng, 3).real, [eps, mu])

    def builder(tensors):
        we, wm = tensors
        return dtn_from_tensors([(0.5, we, wm), (0.3, wm, we)], (0.4, -0.3))[0]

    f = np.array([1.0, 0.5j, 0.0, -0.3, 0.2, 0.0])
    s_grid = [complex(r, i) for r in (-0.7, 0.2) for i in (0.3, 1.1)]
    cert = herglotz_along_trajectory(builder, spec, f, s_grid)

    def h_f(s):
        return scalar_sample(builder(trajectory_point(spec, s)), f)

    ref = [h_f(s) for s in s_grid]
    worst = max(cr_residual(h_f, s, min(default_cr_step(s), 0.5 * s.imag))
                for s in s_grid)
    for v, r in zip(cert.values, ref):
        assert abs(v - r) <= 1e-13 * abs(r)
    assert cert.worst_cr == pytest.approx(worst, rel=1e-3)


def _two_layer_trajectory(rng):
    eps = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    mu = rand_hermitian(rng, 3) + 1.2j * rand_posdef(rng, 3)
    spec = trajectory_coeffs(rand_hermitian(rng, 3).real, [eps, mu])

    def builder(tensors):
        we, wm = tensors
        return dtn_from_tensors([(0.5, we, wm), (0.3, wm, we)], (0.4, -0.3))[0]

    return spec, builder


#: s-points per builder call of the two-layer trajectory below, set through
#: the one matrix budget of the stencil pass
POINTS_PER_CALL = 8


def test_herglotz_along_trajectory_chunks_match_per_point(rng, monkeypatch):
    # more than two chunks, the last one partial, against one builder call
    # per s-point and its stencil
    spec, builder = _two_layer_trajectory(rng)
    f = np.array([1.0, 0.5j, 0.0, -0.3, 0.2, 0.0])
    n = 2 * POINTS_PER_CALL + 3
    s_grid = list(rng.uniform(-1, 1, n) + 1j * rng.uniform(0.2, 1.5, n))
    monkeypatch.setattr(analyticity, "MAT_EXP_BATCH", POINTS_PER_CALL * len(CR_OFFSETS) * 2)
    cert = herglotz_along_trajectory(builder, spec, f, s_grid, layers=2)

    values, residuals = [], []
    for s in s_grid:
        stencil, h = _stencil(complex(s))
        v = scalar_sample(builder(trajectory_point(spec, stencil)), f)
        values.append(complex(v[0]))
        residuals.append(float(_stencil_residual(v, h)))
    assert cert.values == tuple(values)
    assert cert.worst_cr == max(residuals)
    assert cert.min_im == min(v.imag for v in values)


def test_herglotz_along_trajectory_raises_from_last_chunk(rng, monkeypatch):
    spec, builder = _two_layer_trajectory(rng)
    s_grid = [complex(0.1 * k, 1.0) for k in range(POINTS_PER_CALL + 2)]
    monkeypatch.setattr(analyticity, "MAT_EXP_BATCH", POINTS_PER_CALL * len(CR_OFFSETS) * 2)
    calls = []

    def failing(tensors):
        calls.append(tensors[0].shape[:-2])
        if len(calls) == 2:
            raise SingularMatrixError("singular in the last chunk")
        return builder(tensors)

    with pytest.raises(SingularMatrixError, match="last chunk"):
        herglotz_along_trajectory(failing, spec, np.array([1.0, 0, 0, 0, 0, 0]),
                                  s_grid, layers=2)
    # the failing chunk is re-run point by point; no point fails on its own,
    # so the chunk's error stands
    n = len(CR_OFFSETS)
    assert calls == [(POINTS_PER_CALL, n), (2, n), (1, n), (1, n)]


@pytest.mark.parametrize("layers", [1, 2, 64, 300])
def test_herglotz_along_trajectory_chunk_holds_at_most_the_matrix_budget(
        rng, monkeypatch, layers):
    # k s-points times the stencil times the builder's layers stay within
    # MAT_EXP_BATCH = 1024, one s-point per call at least; the builder here
    # propagates two layers whatever it is told, so only the calls are checked
    monkeypatch.setattr(analyticity, "MAT_EXP_BATCH", 1024)
    per_call = max(1, 1024 // (len(CR_OFFSETS) * layers))
    spec, builder = _two_layer_trajectory(rng)
    s_grid = [complex(0.01 * k, 1.0) for k in range(per_call + 1)]
    calls = []

    def counting(tensors):
        calls.append(tensors[0].shape[:-2])
        return builder(tensors)

    herglotz_along_trajectory(counting, spec, np.array([1.0, 0, 0, 0, 0, 0]), s_grid,
                              layers=layers)
    assert calls == [(per_call, len(CR_OFFSETS)), (1, len(CR_OFFSETS))]


@pytest.mark.parametrize("layers", [0, -2, 1.0, 2.5, True, "4", None])
def test_herglotz_along_trajectory_rejects_a_layer_count_that_is_no_positive_integer(
        rng, layers):
    spec, builder = _two_layer_trajectory(rng)
    with pytest.raises(ParameterError, match="layers must be a positive integer"):
        herglotz_along_trajectory(builder, spec, np.array([1.0, 0, 0, 0, 0, 0]), [1j],
                                  layers=layers)


def _lossy_pole_trajectory():
    # L'(s) = -(A + sB)^{-1} from diagonal tensors: eps_11 = mu_22 = -2/(s - 1)
    # and eps_22 = mu_11 = -10/(s - 3). Near s = 1 the (E1, H2) polarisation
    # decays so much faster over thickness 2 that T12 is singular to working
    # precision; at 1 + 1e-3j its layer exponential overflows
    spec = trajectory_coeffs(np.zeros((3, 3)), [np.diag([1 + 1j, 3 + 1j, 2 + 1j]),
                                                np.diag([3 + 1j, 1 + 1j, 2 + 1j])])

    def builder(tensors):
        we, wm = tensors
        return dtn_from_tensors([(2.0, we, wm)], (0.0, 0.0))[0]

    return spec, builder


@pytest.mark.parametrize("s_grid, error", [
    ([1 + 0.1j, 1 + 1e-3j], SingularMatrixError),
    ([1 + 1e-3j, 1 + 0.1j], NumericRangeError),
    ([1 + 0.1j, 1 + 0.05j], SingularMatrixError),
    ([1 + 0.05j, 1 + 0.1j], SingularMatrixError),
])
def test_trajectory_errors_inside_a_chunk_come_in_grid_order(s_grid, error):
    # one chunk holds both s-points; its error is the first failing s-point's
    # own, message and condition estimate included, not the chunk's worst
    spec, builder = _lossy_pole_trajectory()
    f = np.array([1.0, 0, 0, 0, 0, 0])
    with pytest.raises(error) as own:
        herglotz_along_trajectory(builder, spec, f, s_grid[:1])
    with pytest.raises(error) as chunk:
        herglotz_along_trajectory(builder, spec, f, s_grid)
    assert str(chunk.value) == str(own.value)
    assert getattr(chunk.value, "condition", None) == getattr(own.value, "condition", None)
