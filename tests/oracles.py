"""Independent numerical oracles for the test suite.

Nothing in this file may call the package's propagation or matrix-exponential
routines: the transfer oracle integrates the tangential ODE with a hand-rolled
fixed-step RK4 plus step doubling, the field oracle exponentiates in 50-digit
``mpmath``, and the rearrangement oracle solves the defining linear system
directly. Keeping these routes separate from the implementation is the whole
point.
"""
import numpy as np

RHO_ORACLE = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
J_ORACLE = np.zeros((4, 4), dtype=complex)
J_ORACLE[:2, 2:] = RHO_ORACLE
J_ORACLE[2:, :2] = RHO_ORACLE.conj().T


def _rk4_matrix(M, Y, length, n_steps):
    """Integrate Y' = M Y over [0, length] with n fixed RK4 steps."""
    h = length / n_steps
    for _ in range(n_steps):
        k1 = M @ Y
        k2 = M @ (Y + 0.5 * h * k1)
        k3 = M @ (Y + 0.5 * h * k2)
        k4 = M @ (Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Y


def ode_transfer_oracle(segments, rtol=1e-10, n0=16, max_doublings=14):
    """Transfer matrix by direct ODE integration with step refinement.

    Parameters
    ----------
    segments : list of (A, length)
        System matrices and widths of the piecewise-constant layers, ordered
        from the starting face; the ODE is Y' = (i J A) Y with Y(0) = I.
    rtol : float
        Richardson convergence target between consecutive refinements.

    Returns
    -------
    numpy.ndarray
        The converged fundamental solution (the transfer matrix).
    """
    mats = [(1j * J_ORACLE @ np.asarray(A, dtype=complex), float(L))
            for A, L in segments]

    def run(n_per_unit):
        Y = np.eye(4, dtype=complex)
        for M, L in mats:
            steps = max(4, int(np.ceil(n_per_unit * max(L, 1e-3))))
            Y = _rk4_matrix(M, Y, L, steps)
        return Y

    n = n0
    prev = run(n)
    for _ in range(max_doublings):
        n *= 2
        cur = run(n)
        if np.linalg.norm(cur - prev) <= rtol * np.linalg.norm(cur):
            return cur
        prev = cur
    return prev


def expm_action_oracle(M, v, ts, dps=50):
    """``exp(t M) v`` for each ``t`` in ``ts``, by ``mpmath.expm`` at ``dps``
    digits on the exact double inputs; rows of shape (len(ts), n)."""
    import mpmath  # optional test dependency: callers importorskip it

    with mpmath.workdps(dps):
        Mm = mpmath.matrix(np.asarray(M, dtype=complex).tolist())
        vm = mpmath.matrix(np.asarray(v, dtype=complex).tolist())
        rows = []
        for t in ts:
            y = mpmath.expm(Mm * mpmath.mpf(float(t))) * vm
            rows.append([complex(y[i]) for i in range(len(vm))])
    return np.array(rows)


def gamma_oracle(T, u1, u0):
    """Solve the two-point relation directly for the magnetic traces.

    Given T and electric traces (u1 at the far face, u0 at the near face),
    solve T (u0; v0) = (u1; v1) as a 4×4 linear system in (v0, v1) and
    return (v1; v0).
    """
    T = np.asarray(T, dtype=complex)
    T11, T12 = T[:2, :2], T[:2, 2:]
    T21, T22 = T[2:, :2], T[2:, 2:]
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = T12
    M[2:, :2] = T22
    M[2:, 2:] = -np.eye(2)
    rhs = np.concatenate([u1 - T11 @ u0, -T21 @ u0])
    sol = np.linalg.solve(M, rhs)
    v0, v1 = sol[:2], sol[2:]
    return np.concatenate([v1, v0])


def midpoint_integral(fn, a, b, n):
    """Plain composite midpoint rule (used to cross-check quadrature)."""
    h = (b - a) / n
    zs = a + (np.arange(n) + 0.5) * h
    return h * sum(fn(z) for z in zs)
