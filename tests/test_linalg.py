import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghztangle import _kernels, linalg
from ghztangle.linalg import hermitian_eigenvalues, partial_trace, partial_transpose, trace_norm
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import negativity, two_tangle

from oracles import (
    mp_eigenvalues,
    random_density_matrix,
    random_hermitian,
    random_x_stack,
    ref_partial_trace,
    ref_partial_transpose,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
GHZ = np.zeros((8, 8), dtype=complex)
GHZ[0, 0] = GHZ[7, 7] = GHZ[0, 7] = GHZ[7, 0] = 0.5

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[3, 3] = BELL[0, 3] = BELL[3, 0] = 0.5

EPS = linalg.EPS


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    rho = np.kron(a, b)
    assert np.abs(partial_trace(rho, (0,)) - a).max() <= 1e-14
    assert np.abs(partial_trace(rho, (1,)) - b).max() <= 1e-14


def test_partial_trace_ghz_marginals():
    # Tracing out any single qubit of the GHZ pair state kills the coherence.
    two = partial_trace(GHZ, (0, 1))
    assert np.abs(two - np.diag([0.5, 0.0, 0.0, 0.5])).max() <= 1e-15
    one = partial_trace(GHZ, (0,))
    assert np.abs(one - np.eye(2) / 2).max() <= 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng, 8)
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        reduced = partial_trace(rho, keep)
        assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)
        expected = ref_partial_trace(rho, keep, 3)
        assert np.abs(reduced - expected).max() <= 1e-13


def test_partial_trace_errors():
    with pytest.raises(ValueError, match="empty keep set"):
        partial_trace(GHZ, ())
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(GHZ, (1, 0))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(GHZ, (0, 3))


def test_partial_trace_rejects_mismatched_qubit_count():
    with pytest.raises(ValueError, match="n_qubits=2 does not match a 8x8 matrix"):
        partial_trace(GHZ, (0,), 2)


def test_partial_transpose_diagonal_fixed():
    d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    for q in (0, 1):
        assert np.array_equal(partial_transpose(d, q), d)


def test_partial_transpose_bell():
    pt = partial_transpose(BELL, 0)
    w = np.sort(np.linalg.eigvalsh(pt))
    assert np.abs(w - np.array([-0.5, 0.5, 0.5, 0.5])).max() <= 1e-12


def test_partial_transpose_involution_and_reference():
    rng = np.random.default_rng(13)
    rho = random_density_matrix(rng, 8)
    for q in range(3):
        pt = partial_transpose(rho, q)
        assert np.abs(partial_transpose(pt, q) - rho).max() <= 1e-15
        assert np.abs(pt - ref_partial_transpose(rho, q, 3)).max() == 0.0


def test_partial_transpose_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        partial_transpose(BELL, 2)


def test_partial_transpose_rejects_mismatched_qubit_count():
    with pytest.raises(ValueError, match="n_qubits=3 does not match a 4x4 matrix"):
        partial_transpose(np.eye(4) / 4, 0, 3)


def test_eigenvalues_sigma_z():
    w = hermitian_eigenvalues(SZ)
    assert np.abs(w - np.array([-1.0, 1.0])).max() <= 1e-13


def test_eigenvalues_diagonal():
    w = hermitian_eigenvalues(np.diag([0.4, 0.1, 0.3, 0.2]))
    assert np.abs(w - np.array([0.1, 0.2, 0.3, 0.4])).max() <= 1e-13


def test_eigenvalues_degenerate():
    w = hermitian_eigenvalues(np.eye(8))
    assert np.abs(w - 1.0).max() <= 1e-13


def test_eigenvalues_vs_numpy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = random_hermitian(rng, 8)
        w = hermitian_eigenvalues(m)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(w - np.linalg.eigvalsh(m)).max() <= 1e-12


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = random_hermitian(rng, 8)
        w = hermitian_eigenvalues(m)
        assert abs(w.sum() - np.trace(m).real) <= 1e-10
        assert abs((w**2).sum() - np.trace(m @ m).real) <= 1e-9


def test_eigenvalues_hermiticity_violated():
    with pytest.raises(ValueError, match="hermiticity violated"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag_inf"])
def test_eigenvalues_reject_nonfinite(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        hermitian_eigenvalues(m)


def test_eigenvalues_accepts_tiny_asymmetry():
    m = SZ.astype(complex).copy()
    m[0, 1] = 1e-12
    w = hermitian_eigenvalues(m)
    assert np.abs(w - np.array([-1.0, 1.0])).max() <= 1e-11
    # One ulp from symmetric at 1e20: the tolerance scales with the largest entry.
    m = np.array([[1e20, 1e20], [np.nextafter(1e20, np.inf), 1e20]])
    w = hermitian_eigenvalues(m)
    assert np.abs(w - np.array([0.0, 2e20])).max() <= 32 * EPS * 2e20


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigenvalues_near_the_float64_limit_are_finite(dtype):
    # The first matrix's symmetrization overflowed to inf, and a rotation of
    # the second to a NaN diagonal and then a ZeroDivisionError.
    for m in ([[1e308, 0.0], [0.0, -1e308]], [[1e307, 1e308], [1e308, -1e307]]):
        m = np.array(m, dtype=dtype)
        want = np.linalg.eigvalsh(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_eigenvalues(m)
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 32 * EPS * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermiticity_is_checked_after_scaling(dtype):
    # m - m^dag overflowed here before the check scaled m by 2^-e: a
    # RuntimeWarning, an error under -W error, took the ValueError's place.
    m = np.array([[1e308, 1e308], [-1e308, 1e308]], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hermiticity violated"):
            hermitian_eigenvalues(m)


def test_eigenvalues_beyond_the_float64_range_overflow_to_infinity():
    # The eigenvalues of this finite matrix are +-|z| = +-2.1e308: the scaled
    # solve is finite, and scaling back overflows with numpy's warning.
    z = 1.5e308 * (1 + 1j)
    m = np.array([[0.0, z], [z.conjugate(), 0.0]])
    for route in (hermitian_eigenvalues, lambda m: linalg._hermitian_eigensystem(m)[0]):
        with pytest.warns(RuntimeWarning, match="overflow encountered in ldexp"):
            assert route(m).tolist() == [-np.inf, np.inf]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    k=st.integers(-1000, 1016),
    kind=st.sampled_from(["real", "complex"]),
)
@example(seed=0, d=8, k=-1000, kind="complex")
@example(seed=0, d=8, k=1016, kind="real")
def test_eigenvalues_are_accurate_at_any_scale(seed, d, k, kind):
    # 2^k times a random Hermitian matrix, from 2^-1000 to past 2^1000,
    # where the public route solves the matrix scaled back near 1.
    a = random_hermitian(np.random.default_rng(seed), d)
    m = (a.real if kind == "real" else a) * 2.0**k
    got = hermitian_eigenvalues(m)
    exact = mp_eigenvalues(m, 30)
    assert np.isfinite(got).all()
    bound = 32 * EPS * float(max(abs(w) for w in exact))
    assert max(abs(float(g - w)) for g, w in zip(got, exact)) <= bound


def _degenerate(rng, d: int, kind: str) -> np.ndarray:
    # A random unitary (orthogonal if real) applied to a spectrum whose
    # eigenvalue 1 is at least double.
    a = rng.normal(size=(d, d))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(d, d))
    q = np.linalg.qr(a)[0]
    w = rng.choice([-0.5, 0.0, 1.0], size=d)
    w[:2] = 1.0
    return (q * w) @ q.conj().T


def test_eigensystem_reconstruction():
    # The eigenvectors come from np.linalg.eigh, the eigenvalues of
    # hermitian_eigenvalues from np.linalg.eigvalsh or, on a real X matrix,
    # the block solve; both solve the same symmetrized matrix.
    rng = np.random.default_rng(23)
    inputs = [random_hermitian(rng, 8) for _ in range(10)]
    for d in range(2, 9):
        for kind in ("real", "complex"):
            inputs += [_near_hermitian(rng, d, kind, gap) for gap in (0.0, 1e-12, 1e-11)]
            inputs.append(_degenerate(rng, d, kind))
    for m in inputs:
        d = m.shape[0]
        w, v = linalg._hermitian_eigensystem(m)
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10
        assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10
        assert np.abs(w - hermitian_eigenvalues(m)).max() <= 32 * EPS * np.abs(w).max()


def test_eigensystem_degenerate_input():
    m = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    w, v = linalg._hermitian_eigensystem(m)
    assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10


def test_nonconvergence_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(RuntimeError, match="did not converge"):
        hermitian_eigenvalues(random_hermitian(np.random.default_rng(1), 8))


def test_trace_norm_bell_pt():
    assert trace_norm(partial_transpose(BELL, 0)) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([0.3, -0.7])) == pytest.approx(1.0, abs=1e-13)


def test_trace_norm_negativity_identity():
    # For unit-trace Hermitian m: ||m||_1 = 1 + 2 * sum|negative eigenvalues|.
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = 1.5 * random_density_matrix(rng, 8) - 0.5 * random_density_matrix(rng, 8)
        w = hermitian_eigenvalues(m)
        lhs = trace_norm(m)
        rhs = 1.0 + 2.0 * float(-w[w < 0].sum())
        assert abs(lhs - rhs) <= 1e-10


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        linalg.as_matrix(np.zeros((2, 3)))


def test_an_empty_matrix_is_refused():
    # A 0x0 matrix reached a max reduction, whose numpy message named no
    # input. The partial trace and transpose refuse it as a dimension.
    for empty in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=int)):
        for route in (hermitian_eigenvalues, trace_norm, linalg._hermitian_eigensystem):
            with pytest.raises(ValueError, match="^matrix must be non-empty$"):
                route(empty)
        with pytest.raises(ValueError, match="not a power of two"):
            partial_trace(empty, (0,))
        with pytest.raises(ValueError, match="not a power of two"):
            partial_transpose(empty, 0)


def _near_hermitian(rng, d: int, kind: str, gap: float) -> np.ndarray:
    # A random unit-trace state, real or complex, plus noise up to gap off
    # Hermitian that leaves the diagonal alone, so the trace stays one.
    a = rng.normal(size=(d, d))
    noise = rng.uniform(-gap / 4, gap / 4, size=(d, d))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(d, d))
        noise = noise + 1j * rng.uniform(-gap / 4, gap / 4, size=(d, d))
    np.fill_diagonal(noise, 0.0)
    m = a @ a.conj().T
    return m / np.trace(m).real + noise


def test_a_real_matrix_is_solved_as_its_complex_copy(monkeypatch):
    # A real input stays float64 from as_matrix through the partial traces
    # and transposes; a dense one reaches np.linalg.eigvalsh cast to
    # complex128, so its complex copy gets the same bytes. Every public
    # route hands eigvalsh a square, exactly Hermitian matrix, and
    # _hermitian_eigensystem hands np.linalg.eigh one: each reads only one
    # triangle. A real 2x2 is an X matrix, and its block solve gets an
    # anti-diagonal that reads the same both ways.
    seen, exact, eigh_exact = [], [], []
    eigvalsh = np.linalg.eigvalsh
    eigh = np.linalg.eigh
    x_stack = linalg.x_eigenvalues_stack

    def is_exact(a):
        return a.ndim == 2 and a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T)

    def spy(a):
        seen.append(a.dtype)
        exact.append(is_exact(a))
        return eigvalsh(a)

    def eigh_spy(a):
        eigh_exact.append(is_exact(a))
        return eigh(a)

    def x_spy(diag, anti):
        exact.append(np.array_equal(anti, anti[:, ::-1]))
        return x_stack(diag, anti)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    monkeypatch.setattr(linalg, "x_eigenvalues_stack", x_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    m = np.random.default_rng(139).normal(size=(8, 8))
    m = m + m.T
    assert linalg.as_matrix(m.tolist()).dtype == np.float64
    real = hermitian_eigenvalues(m)
    complex_copy = hermitian_eigenvalues(m.astype(np.complex128))
    assert seen == [np.complex128, np.complex128]
    assert real.tobytes() == complex_copy.tobytes()
    assert partial_transpose(m, 0).dtype == partial_trace(m, (0, 1)).dtype == np.float64

    rng = np.random.default_rng(149)
    for d in range(2, 9):
        n = d.bit_length() - 1 if d & (d - 1) == 0 else 0
        routes = [hermitian_eigenvalues, trace_norm]
        routes += [lambda m, q=q: negativity(m, q) for q in range(n)]
        routes += [lambda m, pair=pair: two_tangle(m, pair) for pair in itertools.combinations(range(n), 2)]
        for kind in ("real", "complex"):
            for gap in (0.0, 1e-12, 1e-11):
                m = _near_hermitian(rng, d, kind, gap)
                assert np.abs(m - m.conj().T).max() <= 1e-11
                for route in routes:
                    calls = len(exact)
                    route(m)
                    assert len(exact) == calls + 1
                linalg._hermitian_eigensystem(m)
    assert len(exact) == 2 + 2 * 3 * (7 * 2 + 1 + 2 + 1 + 3 + 3)
    assert all(exact)
    assert len(eigh_exact) == 7 * 2 * 3
    assert all(eigh_exact)


def test_each_matrix_takes_the_route_its_shape_names(monkeypatch):
    # A real X matrix, and its complex copy, go to the block solve as one row
    # and never to LAPACK; any other matrix goes to np.linalg.eigvalsh once,
    # as an exactly Hermitian complex128. No public route calls the Jacobi
    # kernel.
    routes = []
    eigvalsh, x_stack = np.linalg.eigvalsh, linalg.x_eigenvalues_stack

    def lapack(a):
        routes.append(("lapack", a.dtype, np.array_equal(a, a.conj().T)))
        return eigvalsh(a)

    def block(diag, anti):
        routes.append(("block", diag.shape, anti.shape))
        return x_stack(diag, anti)

    def refuse(*args):
        raise AssertionError("a public route called the Jacobi kernel")

    monkeypatch.setattr(np.linalg, "eigvalsh", lapack)
    monkeypatch.setattr(linalg, "x_eigenvalues_stack", block)
    monkeypatch.setattr(_kernels, "jacobi_sweeps", refuse)
    rng = np.random.default_rng(151)
    x = random_x_stack(rng, 1, 8)[0]
    dense = random_hermitian(rng, 8)
    complex_x = x + 1j * np.fliplr(np.diag([1e-3, 0, 0, 0, 0, 0, 0, -1e-3]))
    cases = [
        (hermitian_eigenvalues, x, ("block", (1, 8), (1, 8))),
        (hermitian_eigenvalues, x.astype(np.complex128), ("block", (1, 8), (1, 8))),
        (lambda m: negativity(m, 0), GHZ, ("block", (1, 8), (1, 8))),
        (lambda m: two_tangle(m, (0, 1)), GHZ, ("block", (1, 4), (1, 4))),
        (hermitian_eigenvalues, dense.real.copy(), ("lapack", np.complex128, True)),
        (hermitian_eigenvalues, dense, ("lapack", np.complex128, True)),
        (hermitian_eigenvalues, complex_x, ("lapack", np.complex128, True)),
        (trace_norm, dense, ("lapack", np.complex128, True)),
    ]
    rho = random_density_matrix(rng, 8)
    cases += [(lambda m, q=q: negativity(m, q), rho, ("lapack", np.complex128, True)) for q in range(3)]
    pairs = itertools.combinations(range(3), 2)
    cases += [(lambda m, pair=pair: two_tangle(m, pair), rho, ("lapack", np.complex128, True)) for pair in pairs]
    for route, m, want in cases:
        routes.clear()
        route(m)
        assert routes == [want]


def _layouts(m: np.ndarray) -> list[np.ndarray]:
    # m's values in views that are not C-contiguous: Fortran order, the
    # transpose of a C-order array, every third column of a wider array and
    # every other row of a taller one.
    d = len(m)
    wide = np.zeros((d, 3 * d), dtype=m.dtype)
    wide[:, ::3] = m
    tall = np.zeros((2 * d, d), dtype=m.dtype)
    tall[::2] = m
    return [np.asfortranarray(m), np.ascontiguousarray(m.T).T, wide[:, ::3], tall[::2]]


def _outcome(route, m):
    # The bytes a route returns, or the message of the ValueError it raises.
    try:
        return np.asarray(route(m)).tobytes()
    except ValueError as error:
        return str(error)


def test_a_matrix_in_any_layout_gives_the_bytes_of_its_c_order_copy():
    # The largest part is read through the float64 view of a C-order copy;
    # the copy, like the solve, must not depend on the input's layout.
    rng = np.random.default_rng(157)
    routes = [hermitian_eigenvalues, trace_norm]
    routes += [lambda m, q=q: negativity(m, q) for q in range(3)]
    routes += [lambda m, pair=pair: two_tangle(m, pair) for pair in itertools.combinations(range(3), 2)]
    x = ghz_rindler_density(0.3, 0.3)
    refused = [_near_hermitian(rng, 8, kind, 1e-9) for kind in ("real", "complex")]
    for m in refused:
        assert _outcome(hermitian_eigenvalues, m) == "hermiticity violated"
    near = [_near_hermitian(rng, 8, kind, 1e-11) for kind in ("real", "complex")]
    # 1e-8 off Hermitian, which only the tolerance of a largest part of 1e4,
    # real in one and imaginary in the other, accepts; and one beyond 2^1000.
    h = random_hermitian(rng, 8)
    lopsided = [1e4 * h.real + 1j * h.imag, h.real + 1e4j * h.imag]
    for m in lopsided:
        m[0, 1] += 1e-8
    big = random_hermitian(rng, 8) * 2.0**1010
    matrices = [random_density_matrix(rng, 8), _near_hermitian(rng, 8, "real", 0.0), x, x.real.copy()]
    for m in [*matrices, *near, *refused, *lopsided, big]:
        for route in routes:
            want = _outcome(route, np.ascontiguousarray(m))
            for view in _layouts(m):
                assert not view.flags.c_contiguous
                assert _outcome(route, view) == want


def test_the_package_does_not_import_the_jacobi_kernel():
    # linalg holds the block solve's skip-rule constants; the kernel takes
    # them from there, and importing the package leaves it unloaded.
    src = Path(linalg.__file__).resolve().parent.parent
    probe = "import sys, ghztangle; print('ghztangle._kernels' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert _kernels.EPS is linalg.EPS
    assert _kernels.BIG_THETA is linalg.BIG_THETA
