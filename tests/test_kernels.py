import warnings

import numpy as np
import pytest

from ghztangle import _kernels
from ghztangle.linalg import hermitian_eigenvalues, x_eigenvalues_stack
from ghztangle.tangles import (
    _negativity_from_spectra,
    _one_vs_rest_spectra,
    _pair_spectra,
    _x_parts,
    negativity,
    two_tangle,
)

from oracles import random_hermitian, random_x_stack


def _embed(h):
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _x_stack_eigenvalues(stack):
    # x_eigenvalues_stack of a real (N, d, d) stack of X matrices, given as
    # its diagonals and anti-diagonals.
    return x_eigenvalues_stack(
        np.diagonal(stack, axis1=1, axis2=2).copy(), np.diagonal(stack[:, :, ::-1], axis1=1, axis2=2).copy()
    )


def _run(kernel, s, max_sweeps=100):
    a = np.array(s, dtype=np.float64)
    sweeps = kernel(a, max_sweeps)
    return a, sweeps


KERNELS = [_kernels.jacobi_sweeps]


@pytest.mark.parametrize("kernel", KERNELS)
def test_diagonal_input_is_fixed_point(kernel):
    a, sweeps = _run(kernel, np.diag([3.0, 1.0, 2.0]))
    assert sweeps == 0
    assert np.array_equal(a, np.diag([3.0, 1.0, 2.0]))


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_by_two_exact(kernel):
    a, sweeps = _run(kernel, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sweeps >= 1
    assert np.abs(np.sort(np.diag(a)) - np.array([-1.0, 1.0])).max() <= 1e-14


@pytest.mark.parametrize("kernel", KERNELS)
def test_matches_numpy_eigvalsh(kernel):
    rng = np.random.default_rng(101)
    for _ in range(20):
        s = _embed(random_hermitian(rng, 8))
        a, sweeps = _run(kernel, s)
        assert sweeps > 0
        w = np.sort(np.diag(a))
        assert np.abs(w - np.linalg.eigvalsh(s)).max() <= 1e-11


@pytest.mark.parametrize("kernel", KERNELS)
def test_budget_exhausted_returns_minus_one(kernel):
    rng = np.random.default_rng(107)
    s = _embed(random_hermitian(rng, 8))
    _, sweeps = _run(kernel, s, max_sweeps=0)
    assert sweeps == -1


@pytest.mark.parametrize("d", [2, 4, 8])
def test_complex_input_matches_numpy_eigvalsh(d):
    rng = np.random.default_rng(109 + d)
    for _ in range(20):
        h = random_hermitian(rng, d)
        a = h.copy()
        sweeps = _kernels.jacobi_sweeps(a, 100)
        assert sweeps > 0
        assert not np.diag(a).imag.any()
        assert np.abs(np.sort(np.diag(a).real) - np.linalg.eigvalsh(h)).max() <= 1e-11


def test_complex_budget_exhausted_returns_minus_one():
    h = random_hermitian(np.random.default_rng(107), 8)
    assert _kernels.jacobi_sweeps(h, 0) == -1


def test_huge_rotation_angle_with_an_imaginary_pivot_is_silent():
    # The pivot is g * u with g = 1e-200 and u = 1j, so theta = 5e199 as in
    # the real case; the rotation must take the large-angle branch on g.
    s = np.array([[1.0, 1e-200j, 0.5], [-1e-200j, 0.0, 0.25j], [0.5, -0.25j, 2.0]])
    a = s.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps = _kernels.jacobi_sweeps(a, 100)
    assert sweeps > 0
    assert np.abs(np.sort(np.diag(a).real) - np.linalg.eigvalsh(s)).max() <= 1e-12


def _random_x_states(rng, n):
    # Real 3-qubit X states: a random diagonal and coherences c_j = c_{7-j}
    # with |c_j| <= sqrt(rho_jj * rho_{7-j,7-j}), a quarter at the bound.
    diag = rng.random((n, 8))
    diag /= diag.sum(axis=1, keepdims=True)
    u = rng.uniform(-1.0, 1.0, size=(n, 4))
    u[: n // 4] = np.sign(u[: n // 4])
    c = u * np.sqrt(diag[:, :4] * diag[:, :3:-1])
    rhos = np.zeros((n, 8, 8))
    rhos[:, range(8), range(8)] = diag
    rhos[:, range(8), range(7, -1, -1)] = np.concatenate([c, c[:, ::-1]], axis=1)
    return rhos


def test_public_tangles_equal_the_batched_stack_route():
    # Random real X states, the shape of every state the stack route takes.
    # The public route solves each as a matrix on its own, the stack route
    # block by block.
    rng = np.random.default_rng(127)
    rhos = _random_x_states(rng, 16)
    diag, anti = _x_parts(rhos)
    for q in range(3):
        stacked = _negativity_from_spectra(_one_vs_rest_spectra(diag, anti)[:, q])
        assert [negativity(rho, q, 3) for rho in rhos] == stacked.tolist()
    for k, pair in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
        stacked = _negativity_from_spectra(_pair_spectra(diag)[:, k - 3])
        assert [two_tangle(rho, pair, 3) for rho in rhos] == stacked.tolist()


@pytest.mark.parametrize("d", [4, 8])
def test_dense_real_stacks_equal_the_public_route_bytewise(d):
    # Random X stacks, which the block solve takes; a dense one it refuses.
    rng = np.random.default_rng(131 + d)
    stack = random_x_stack(rng, 200, d)
    stacked = _x_stack_eigenvalues(stack)
    for i, m in enumerate(stack.astype(np.complex128)):
        assert stacked[i].tobytes() == hermitian_eigenvalues(m).tobytes(), i


def test_stack_and_public_routes_agree_at_the_stop_test_boundary():
    # A pivot equal to EPS * sqrt|a_pp| * sqrt|a_qq| is negligible and the
    # matrix is left as it is; one ulp more and it is rotated, in one sweep.
    # The kernel and the block solve decide this alike.
    bound = _kernels.EPS * (np.sqrt(2.0) * np.sqrt(3.0))
    for pivot, want in ((bound, 0), (np.nextafter(bound, 1.0), 1)):
        s = np.array([[-2.0, pivot], [pivot, 3.0]])
        single = s.copy()
        assert _kernels.jacobi_sweeps(single, 100) == want
        assert (single.tobytes() == s.tobytes()) == (want == 0)
        stacked = _x_stack_eigenvalues(s[None])[0]
        assert stacked.tobytes() == hermitian_eigenvalues(s.astype(np.complex128)).tobytes()


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-20, 1e-10, 1e10, 1e20, 2.0**1000])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_eigenvalues_scale_with_the_matrix(kind, scale):
    # The stop test is relative, so no scale of the matrix is too small to
    # rotate: s * A has s times the eigenvalues of A. At 2^1000 the public
    # route solves s * A scaled back near 1.
    rng = np.random.default_rng(137)
    a = random_hermitian(rng, 8)
    if kind == "real":
        a = a.real.copy()
    w = hermitian_eigenvalues(a)
    got = hermitian_eigenvalues(scale * a)
    assert np.abs(got - scale * w).max() <= 1e-14 * scale * np.abs(w).max()
    if kind == "real":
        x = random_x_stack(rng, 8, 8)
        want = [hermitian_eigenvalues(m).tobytes() for m in scale * x]
        assert [w.tobytes() for w in _x_stack_eigenvalues(scale * x)] == want


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_huge_rotation_angle_does_not_overflow(kernel):
    # theta = -5e199 here; squaring it overflowed before the large-angle branch.
    s = np.array([[1.0, 1e-200, 0.5], [1e-200, 0.0, 0.0], [0.5, 0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, sweeps = _run(kernel, s)
    assert sweeps > 0
    assert np.abs(np.sort(np.diag(a)) - np.linalg.eigvalsh(s)).max() <= 1e-12


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_overflowing_rotation_angle_is_silent(kernel):
    # theta = 1e10 / 2e-300 overflows to inf in the divide itself; t is then
    # 0.5 / inf = 0, and the rotation only zeroes the 1e-300 pivot.
    s = np.array([[0.0, 1e-300, 0.5], [1e-300, 1e10, 0.0], [0.5, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, sweeps = _run(kernel, s)
    assert sweeps > 0
    assert np.abs(np.sort(np.diag(a)) - np.linalg.eigvalsh(s)).max() <= 1e-6


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
def test_huge_diagonal_does_not_overflow_the_skip_test(kernel):
    # a_pp * a_qq overflows to inf here, which would call every pivot
    # negligible; sqrt|a_pp| * sqrt|a_qq| does not.
    a, sweeps = _run(kernel, np.full((2, 2), 1e300))
    assert sweeps == 1
    low, high = np.sort(np.diag(a))
    assert low == 0.0 and abs(high - 2e300) <= 1e-15 * 2e300


@pytest.mark.parametrize(
    "s, want",
    [
        # theta = -5e199: the large-angle branch.
        ([[1.0, 1e-200], [1e-200, 0.0]], (0.0, 1.0)),
        # The same branch keeps a subnormal eigenvalue that t = 0 would lose.
        ([[1.0, 1e-160], [1e-160, 0.0]], (-1e-320, 1.0)),
        # theta overflows to inf in the divide itself; t is 0.5 / inf = 0.
        ([[0.0, 1e-300], [1e-300, 1e10]], (0.0, 1e10)),
        # a_pp * a_qq would overflow the skip test.
        (np.full((2, 2), 1e300), (0.0, 2e300)),
    ],
    ids=["huge-angle", "huge-angle-subnormal", "overflowing-angle", "huge-diagonal"],
)
def test_block_solve_extreme_rotations_are_silent(s, want):
    # The three overflow cases of the single kernel, as 2x2 X stacks.
    s = np.array(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _x_stack_eigenvalues(s[None])[0]
    assert got.tobytes() == hermitian_eigenvalues(s.astype(np.complex128)).tobytes()
    assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()

