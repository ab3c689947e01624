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
    mat_exp,
    min_im_eig,
    solve,
    split_blocks,
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


def test_solve_matches_numpy(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(solve(A, b), np.linalg.solve(A, b))


def test_solve_singular_raises_with_condition():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError) as exc:
        solve(A, np.ones(2, dtype=complex))
    assert exc.value.condition > 1e12


def test_solve_near_singular_raises():
    A = np.diag([1.0, 1e-15]).astype(complex)
    with pytest.raises(SingularMatrixError):
        solve(A, np.ones(2, dtype=complex))


def test_condition_1norm_identity():
    assert condition_1norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)


def test_split_join_roundtrip(rng):
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    blocks = split_blocks(M)
    assert blocks[0].shape == (3, 3)
    assert np.array_equal(np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]]), M)


def test_split_blocks_odd_size_rejected():
    with pytest.raises(DimensionError):
        split_blocks(np.zeros((3, 3), dtype=complex))
