import numpy as np
import pytest

from dtnstack import (
    DimensionError,
    NumericRangeError,
    SingularMatrixError,
)
from dtnstack.dtn import DtnMap
from dtnstack.linalg import (
    as_cmatrix,
    condition_1norm,
    hermitian_parts,
    inverse,
    mat_exp,
    min_im_eig,
)


def test_hermitian_parts_frozen_example():
    M = np.array([[1 + 1j, 2.0], [0.0, 3j]])
    pair = hermitian_parts(M)
    assert np.allclose(pair.real, [[1, 1], [1, 0]])
    assert np.allclose(pair.imag, [[1, -1j], [1j, 3]])


def test_hermitian_parts_reconstruct(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pair = hermitian_parts(M)
    assert np.allclose(pair.real + 1j * pair.imag, M)
    assert np.allclose(pair.real, pair.real.conj().T)
    assert np.allclose(pair.imag, pair.imag.conj().T)


def test_as_cmatrix_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros(3), "m")
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros((2, 3)), "m", square=True)
    with pytest.raises(DimensionError):
        as_cmatrix(np.zeros((2, 2)), "m", shape=(3, 3))
    with pytest.raises(NumericRangeError):
        as_cmatrix(np.array([[np.nan, 0], [0, 1]]), "m")


def test_mat_exp_rotation_closed_form():
    # exp(i*theta*J) = cos(theta) I + i sin(theta) J when J^2 = I.
    rho = np.array([[0, 1], [-1, 0]], dtype=complex)
    J = np.zeros((4, 4), dtype=complex)
    J[:2, 2:] = rho
    J[2:, :2] = rho.conj().T
    theta = 0.7
    expected = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * J
    assert np.allclose(mat_exp(1j * theta * J), expected, atol=1e-14)


def test_mat_exp_diagonal():
    d = np.array([0.3, -1.2 + 0.4j])
    assert np.allclose(mat_exp(np.diag(d)), np.diag(np.exp(d)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mat_exp_overflow_raises():
    with pytest.raises(NumericRangeError):
        mat_exp(np.diag([1e6, 1e6]).astype(complex))


#: Higham's (2005, Table 2.3) bounds on the 1-norm for each Padé degree
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068,
              13: 5.371920351148152}

#: 1-norms on both sides of every degree's bound
BAND_EDGE_NORMS = [f * theta for theta in PADE_THETA.values()
                   for f in (0.5, 0.99, 1.01)]


def _with_norm(rng, norm1, shape=()):
    M = rng.standard_normal(shape + (4, 4)) + 1j * rng.standard_normal(shape + (4, 4))
    return M * (norm1 / np.abs(M).sum(axis=-2).max(axis=-1))[..., None, None]


def test_mat_exp_matches_high_precision_oracle():
    # 50-digit scaling-and-squaring Taylor exponential of the same double
    # inputs, so the comparison sees only the Padé route's own error.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5838)
    worst = 0.0
    for norm1 in [*np.logspace(-3, 2, 60), *BAND_EDGE_NORMS]:
        M = _with_norm(rng, norm1)
        with mpmath.workdps(50):
            ref = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=complex)
        worst = max(worst, np.linalg.norm(mat_exp(M) - ref) / np.linalg.norm(ref))
    assert worst <= 1e-13


def test_mat_exp_batch_matches_single_calls(rng):
    # each matrix gets its own degree and power-of-two scaling, whatever its
    # neighbours
    B = rng.standard_normal((3, 5, 4, 4)) + 1j * rng.standard_normal((3, 5, 4, 4))
    B *= np.logspace(-3, 2, 15).reshape(3, 5, 1, 1)
    E = mat_exp(B)
    assert E.shape == B.shape
    for i in range(3):
        for j in range(5):
            single = mat_exp(B[i, j])
            assert np.linalg.norm(E[i, j] - single) <= 1e-14 * np.linalg.norm(single)
    # one batch mixing all five Padé degrees, each matrix at its own degree
    norms = rng.permutation(BAND_EDGE_NORMS)
    mixed = _with_norm(rng, norms, norms.shape)
    E = mat_exp(mixed)
    for M, EM in zip(mixed, E):
        single = mat_exp(M)
        assert np.linalg.norm(EM - single) <= 1e-14 * np.linalg.norm(single)


def test_mat_exp_scaled_matches_high_precision_oracle():
    # exp(w B) from shared powers of one base, at scales w whose 1-norms
    # straddle every degree's bound (3 to 13) and reach about 100 (degree 13
    # squared up to 5 times), against the 50-digit action of the same double
    # inputs
    pytest.importorskip("mpmath")
    from oracles import expm_action_oracle

    rng = np.random.default_rng(7212)
    B = _with_norm(rng, 1.0)
    w = np.array([*BAND_EDGE_NORMS, *np.geomspace(8.0, 100.0, 6)])
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    E = mat_exp(B[None], w, np.zeros(w.size, dtype=int))
    ref = expm_action_oracle(B, v, w)
    err = np.linalg.norm(E @ v - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
    assert np.max(err) <= 1e-13


def test_mat_exp_scaled_batch_matches_single_calls(rng):
    # bases of three phases in four entries, at norms that give each entry
    # different Padé degrees; every entry of the batch is its own call's, and
    # each scaled exponential agrees with exponentiating w B directly
    B = rng.standard_normal((4, 3, 4, 4)) + 1j * rng.standard_normal((4, 3, 4, 4))
    B *= np.array([0.05, 0.5, 3.0, 40.0]).reshape(4, 1, 1, 1) / np.abs(B).sum(-2).max(-1)[
        ..., None, None]
    w = np.array([0.1, 0.02, 0.3, 0.05, 0.2, 1.0, 0.07])
    base_of = np.array([0, 1, 0, 2, 1, 0, 2])
    E = mat_exp(B, w, base_of)
    assert E.shape == (4, 7, 4, 4)
    for n in range(4):
        assert np.array_equal(mat_exp(B[n], w, base_of), E[n])
        direct = mat_exp(B[n, base_of] * w[:, None, None])
        assert np.max(np.linalg.norm(E[n] - direct, axis=(-2, -1))
                      / np.linalg.norm(direct, axis=(-2, -1))) <= 1e-14


def test_mat_exp_scaled_power_of_two_scales_match_bitwise(rng):
    # scaling by a power of two is exact, so the shared powers and the
    # coefficients b_i w^i reproduce exp(w B) of the per-matrix route bit for
    # bit, at degree 13 with its squarings too
    norms = np.array([0.01, 0.2, 0.7, 1.5, 2.0, 4.0, 40.0])  # degrees 3 to 13 at w = 1
    B = _with_norm(rng, norms, norms.shape)
    w = np.array([0.25, 0.5, 1.0, 0.5, 0.125, 1.0, 4.0, 0.5, 2.0, 4.0, 0.5, 2.0])
    base_of = np.array([0, 1, 2, 3, 4, 4, 5, 5, 5, 6, 6, 6])
    E = mat_exp(B, w, base_of)
    assert np.array_equal(E, mat_exp(B[base_of] * w[:, None, None]))


def test_mat_exp_scaled_huge_and_tiny_bases(rng):
    # ||B|| = 1e200 at w = 1e-200 (and the reverse): every power of the base
    # would overflow (underflow) unscaled, the exponent w B does not; no
    # RuntimeWarning either (warnings are errors)
    B = _with_norm(rng, 1.0)
    expected = mat_exp(B)
    for norm, w in ((1e200, 1e-200), (1e-200, 1e200)):
        E = mat_exp((B * norm)[None], [w], [0])[0]
        assert np.linalg.norm(E - expected) <= 1e-14 * np.linalg.norm(expected)


def test_mat_exp_scaled_overflow_keeps_its_messages():
    B = np.diag([1e6, 1e6]).astype(complex)[None]
    with pytest.raises(NumericRangeError, match="mat_exp overflowed"):
        mat_exp(B, [1.0], [0])
    with pytest.raises(NumericRangeError, match="exponent contains non-finite entries"):
        mat_exp(B * 1e300, [1e10], [0])
    with pytest.raises(DimensionError):
        mat_exp(B, [1.0, 2.0], [0])


def test_mat_exp_scaled_rejects_base_indices_outside_the_bases(rng):
    # a negative index must not wrap to the last base, a fractional one must
    # not truncate to base 0, and one past the end is no bare IndexError
    B = _with_norm(rng, np.ones(2), (2,))
    for base_of in ([-1], [0.7], [2], [True]):
        with pytest.raises(DimensionError, match="base_of"):
            mat_exp(B, [1.0], base_of)
    assert mat_exp(B, [], []).shape == (0, 4, 4)


def test_as_cmatrix_accepts_a_strided_last_axis(rng):
    # the tangential compression of a batched map is a fancy-indexed array
    # whose last axis is strided; its finiteness check used to raise
    # ValueError from a float view
    M = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    C = DtnMap(0.0, 1.0, M).tangential_compression
    assert C.shape == (3, 4, 4)
    got = min_im_eig(C)
    assert np.array_equal(got, [min_im_eig(C[i].copy()) for i in range(3)])
    C = DtnMap(0.0, 1.0, np.where(np.arange(6) == 4, np.nan, M)).tangential_compression
    with pytest.raises(NumericRangeError, match="non-finite"):
        as_cmatrix(C, "C", batch=True)


def test_inverse_matches_numpy(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(inverse(A), np.linalg.inv(A))


def test_inverse_singular_raises_with_condition():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError) as exc:
        inverse(A)
    assert exc.value.condition > 1e12


def test_inverse_near_singular_raises():
    A = np.diag([1.0, 1e-15]).astype(complex)
    with pytest.raises(SingularMatrixError):
        inverse(A)


def test_condition_1norm_identity():
    assert condition_1norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)
