"""Independent reference routes used as test oracles.

Everything here is plain numpy, deliberately avoiding the package's own
linear algebra so that agreement between the two routes means something.
"""

import math

import numpy as np

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def ghz_via_mode_trace(rb: float, rc: float) -> np.ndarray:
    """Brute-force construction of the accelerated GHZ state.

    Builds the full five-qubit pure state over (A, B_I, B_II, C_I, C_II),
    where each accelerated observer's vacuum is a two-mode squeezed pair
    cos(r)|00> + sin(r)|11> and the excited state is |1>_I |0>_II, then
    traces out the two hidden region-II modes.
    """
    vac_b = np.cos(rb) * np.kron(KET0, KET0) + np.sin(rb) * np.kron(KET1, KET1)
    exc_b = np.kron(KET1, KET0)
    vac_c = np.cos(rc) * np.kron(KET0, KET0) + np.sin(rc) * np.kron(KET1, KET1)
    exc_c = np.kron(KET1, KET0)
    psi = (
        np.kron(KET0, np.kron(vac_b, vac_c)) + np.kron(KET1, np.kron(exc_b, exc_c))
    ) / np.sqrt(2.0)
    rho5 = np.outer(psi, psi.conj())
    # axes: (a, bI, bII, cI, cII) x primed
    t = rho5.reshape((2,) * 10)
    t = np.trace(t, axis1=2, axis2=7)  # drop B_II
    t = np.trace(t, axis1=3, axis2=7)  # drop C_II (was axis 4)
    return t.reshape(8, 8)


def ref_partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    t = np.asarray(rho).reshape((2,) * (2 * n))
    live = n
    for q in range(n - 1, -1, -1):
        if q in keep:
            continue
        t = np.trace(t, axis1=q, axis2=q + live)
        live -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def ref_partial_transpose(rho: np.ndarray, subsystem: int, n: int) -> np.ndarray:
    t = np.asarray(rho).reshape((2,) * (2 * n))
    t = np.swapaxes(t, subsystem, subsystem + n)
    return t.reshape(2**n, 2**n)


def ref_negativity(rho: np.ndarray, subsystem: int, n: int) -> float:
    """Negativity via numpy's eigensolver of a transpose built by reshaping.

    Its solver is the LAPACK routine of the package's dense route, so it is
    independent of the package's transposes and reductions, not of its
    solve; ``mp_eigenvalues`` is the independent reference for that.
    """
    w = np.linalg.eigvalsh(ref_partial_transpose(rho, subsystem, n))
    return float(np.abs(w).sum()) - 1.0


def dephase_elementwise(rho: np.ndarray, qubit_factors) -> np.ndarray:
    """Scale each coherence by the product of per-qubit factors where the
    bra and ket bit strings differ. This is how both dephasing channels act."""
    n = len(qubit_factors)
    d = 2**n
    out = np.array(rho, dtype=complex)
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            f = 1.0
            for q in range(n):
                shift = n - 1 - q
                if (i >> shift) & 1 != (j >> shift) & 1:
                    f *= qubit_factors[q]
            out[i, j] *= f
    return out


def x_state_one_tangles(r: float, kind: str, p0: float, p1: float, p2: float):
    """Exact (N_A|BC, N_B|AC, N_C|AB) of the dephased accelerated GHZ state, in plain math.

    The state at rb = rc = r has the diagonal (c^4, c^2 s^2, s^2 c^2, s^4,
    0, 0, 0, 1) / 2 (c = cos r, s = sin r) and the one coherence
    rho[0, 7] = c^2 / 2, which the channel scales by g = f0 f1 f2 with
    f = 1 - 2p (phase flip) or sqrt(1 - p) (phase damping). The partial
    transpose on one qubit moves the coherence into a 2x2 block
    [[a / 2, c^2 g / 2], [c^2 g / 2, 0]] with a = s^4 for A and c^2 s^2 for
    B and C; the rest stays diagonal and non-negative. The block's negative
    eigenvalue (a - sqrt(a^2 + 4 c^4 g^2)) / 4 gives the negativity
    N = (sqrt(a^2 + 4 c^4 g^2) - a) / 2 (Yu and Eberly, quant-ph/0503089).
    """
    c, s = math.cos(r), math.sin(r)
    if kind == "phase_flip":
        g = (1.0 - 2.0 * p0) * (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2)
    else:
        g = math.sqrt((1.0 - p0) * (1.0 - p1) * (1.0 - p2))

    def cut(a):
        return (math.sqrt(a * a + 4.0 * c**4 * g * g) - a) / 2.0

    return cut(s**4), cut(c * c * s * s), cut(c * c * s * s)


def mp_one_tangles(r: float, kind: str, p0: float, p1: float, p2: float, dps: int = 50):
    """``x_state_one_tangles`` at ``dps`` significant digits, free of cancellation.

    The inputs are taken as the exact values of their floats. The
    negativity of each cut is written N = 2 c^4 g^2 / (sqrt(a^2 + 4 c^4 g^2) + a),
    which equals (sqrt(a^2 + 4 c^4 g^2) - a) / 2 but subtracts nothing, so
    it keeps its digits for g^2 far below a^2. It is exactly 0 where g is.
    Returns mpmath numbers.
    """
    import mpmath

    with mpmath.workdps(dps):
        r, p0, p1, p2 = (mpmath.mpf(x) for x in (r, p0, p1, p2))
        c2, s2 = mpmath.cos(r) ** 2, mpmath.sin(r) ** 2
        if kind == "phase_flip":
            g2 = ((1 - 2 * p0) * (1 - 2 * p1) * (1 - 2 * p2)) ** 2
        else:
            g2 = (1 - p0) * (1 - p1) * (1 - p2)
        b = 4 * c2 * c2 * g2

        def cut(a):
            return mpmath.mpf(0) if b == 0 else b / (2 * (mpmath.sqrt(a * a + b) + a))

        return cut(s2 * s2), cut(c2 * s2), cut(c2 * s2)


def mp_eigenvalues(m, dps: int = 50):
    """The eigenvalues of the Hermitian matrix ``m``, ascending, at ``dps`` significant digits.

    ``mpmath.eighe`` of the entries taken as the exact values of their
    floats, so it measures a float solver's own error on that matrix.
    Returns mpmath numbers.
    """
    import mpmath

    with mpmath.workdps(dps):
        return sorted(mpmath.eighe(mpmath.matrix(np.asarray(m, dtype=complex).tolist()), eigvals_only=True))


def random_density_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_x_stack(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n exactly symmetric real d x d X matrices (zero off the diagonal and
    anti-diagonal), each at a scale from 1e-14 to 1, with coherences from
    1e-20 to 1 times that and about a fifth of the entries exactly 0."""
    eye = np.eye(d, dtype=bool)
    a = rng.normal(size=(n, d, d)) * 10.0 ** rng.integers(-14, 1, size=(n, 1, 1))
    a = np.where(eye, a, a * 10.0 ** rng.integers(-20, 1, size=(n, 1, 1)))
    a = np.where((eye | eye[::-1]) & (rng.random((n, d, d)) >= 0.2), a, 0.0)
    return np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)
