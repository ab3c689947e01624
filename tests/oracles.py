"""Independent numerical oracles for the test suite.

Nothing in this file may call the package's propagation or matrix-exponential
routines: the transfer oracle integrates the tangential ODE with a hand-rolled
fixed-step RK4 plus step doubling, the field and layer-product oracles
exponentiate in 50-digit ``mpmath``, and the rearrangement oracle solves the
defining linear system directly. Keeping these routes separate from the
implementation is the whole point.
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


def expm_product_oracle(segments, dps=50):
    """Ordered product of ``mpmath.expm(d i J A)`` at ``dps`` digits over
    ``segments`` of ``(A, d)`` from the starting face (later ones multiply on
    the left), on the exact double inputs, rounded once to complex128."""
    import mpmath  # optional test dependency: callers importorskip it

    with mpmath.workdps(dps):
        iJ = mpmath.mpc(0, 1) * mpmath.matrix(J_ORACLE.tolist())
        T = mpmath.eye(4)
        for A, d in segments:
            M = iJ * mpmath.matrix(np.asarray(A, dtype=complex).tolist())
            T = mpmath.expm(M * mpmath.mpf(float(d))) * T
        return np.array(T.tolist(), dtype=complex)


def energy_midpoint_oracle(omega_eps, omega_mu, kappa, psi0, d, n, c=1.0, dps=50):
    """Both sides of the energy identity on one homogeneous layer ``[0, d]``
    with tangential data ``psi0`` at 0, at ``dps`` digits: the boundary side
    ``(c/16π)[(J psi, psi)(0) - (J psi, psi)(d)]`` and the ``n``-point
    composite-midpoint sum of ``(1/8π)[(E, Im[omega*eps] E) + (H, Im[omega*mu] H)]``.

    The system matrix is eliminated here from the tensors, the field steps
    by 50-digit ``mpmath.expm`` of ``i J A`` (half a cell, then whole
    cells), and the normal components come from the third rows of the
    constitutive relations, ``E3 = -(we31 E1 + we32 E2 - k2 H1 + k1 H2) / we33``
    and ``H3 = -(k2 E1 - k1 E2 + wm31 H1 + wm32 H2) / wm33`` (``we = omega*eps / c``).
    """
    import mpmath  # optional test dependency: callers importorskip it

    with mpmath.workdps(dps):
        mc = lambda a: mpmath.matrix(np.asarray(a, dtype=complex).tolist())
        We, Wm = mc(omega_eps) / c, mc(omega_mu) / c
        k1, k2 = (mpmath.mpf(float(k)) for k in kappa)
        # psi' = i J A psi with A = Vpp - Vpo Voo^-1 Vop (tangential, normal split)
        Vpp = mpmath.zeros(4, 4)
        Vpo, Vop = mpmath.zeros(4, 2), mpmath.zeros(2, 4)
        for i in range(2):
            for j in range(2):
                Vpp[i, j], Vpp[2 + i, 2 + j] = We[i, j], Wm[i, j]
            Vpo[i, 0], Vpo[2 + i, 1] = We[i, 2], Wm[i, 2]
            Vop[0, i], Vop[1, 2 + i] = We[2, i], Wm[2, i]
        Vpo[0, 1] += k2
        Vpo[1, 1] -= k1
        Vpo[2, 0] -= k2
        Vpo[3, 0] += k1
        Vop[0, 2] -= k2
        Vop[0, 3] += k1
        Vop[1, 0] += k2
        Vop[1, 1] -= k1
        Voo_inv = mpmath.diag([1 / We[2, 2], 1 / Wm[2, 2]])
        A = Vpp - Vpo * Voo_inv * Vop
        M = mpmath.mpc(0, 1) * mc(J_ORACLE) * A
        herm_im = lambda W: (W - W.transpose_conj()) / mpmath.mpc(0, 2)
        Ie, Im_ = herm_im(mc(omega_eps)), herm_im(mc(omega_mu))
        h = mpmath.mpf(d) / n
        step = mpmath.expm(M * h)
        psi = mpmath.expm(M * (h / 2)) * mc(psi0)
        absorbed = mpmath.mpf(0)
        for _ in range(n):
            phi = -(Voo_inv * Vop * psi)
            E = mpmath.matrix([psi[0], psi[1], phi[0]])
            H = mpmath.matrix([psi[2], psi[3], phi[1]])
            absorbed += mpmath.re((E.transpose_conj() * Ie * E)[0]
                                  + (H.transpose_conj() * Im_ * H)[0])
            psi = step * psi
        absorbed *= h / (8 * mpmath.pi)
        flux = lambda p: mpmath.re((p.transpose_conj() * mc(J_ORACLE) * p)[0])
        top = mpmath.expm(M * mpmath.mpf(d)) * mc(psi0)
        boundary = c / (16 * mpmath.pi) * (flux(mc(psi0)) - flux(top))
        return float(boundary), float(absorbed)


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


def power_sums_oracle(a, d, count, s_max, dps=50):
    """``sum_k (a + k d)^s`` over ``k < count`` for ``s = 0 .. s_max``, as
    ``dps``-digit ``mpmath`` numbers: the doubles ``a`` and ``d`` are exact
    dyadic rationals ``A / D`` and ``S / D`` over one power of two, so every
    sum is an exact integer over ``D^s``, rounded once to ``dps`` digits."""
    from fractions import Fraction

    import mpmath  # optional test dependency: callers importorskip it

    fa, fd = Fraction(float(a)), Fraction(float(d))
    den = max(fa.denominator, fd.denominator)  # both powers of two
    A, S = int(fa * den), int(fd * den)
    sums = [0] * (s_max + 1)
    for k in range(count):
        x, p = A + k * S, 1
        for s in range(s_max + 1):
            sums[s] += p
            p *= x
    with mpmath.workdps(dps):
        return [mpmath.mpf(v) / mpmath.mpf(den) ** s for s, v in enumerate(sums)]
