import warnings

import numpy as np
import pytest

from ghztangle import _kernels
from ghztangle.channels import CouplingConfig, apply_channel, lift
from ghztangle.linalg import (
    hermitian_eigenvalues_stack,
    partial_trace,
    partial_trace_stack,
    partial_transpose,
    partial_transpose_stack,
)
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import _negativity_from_spectra, negativity, two_tangle

from oracles import random_hermitian


def _embed(h):
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def _run(kernel, s, max_sweeps=100):
    a = np.array(s, dtype=np.float64)
    v = np.eye(a.shape[0])
    sweeps = kernel(a, v, 1e-13, max_sweeps)
    return a, v, sweeps


KERNELS = [_kernels.jacobi_sweeps]


@pytest.mark.parametrize("kernel", KERNELS)
def test_diagonal_input_is_fixed_point(kernel):
    a, v, sweeps = _run(kernel, np.diag([3.0, 1.0, 2.0]))
    assert sweeps == 0
    assert np.array_equal(a, np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(v, np.eye(3))


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_by_two_exact(kernel):
    a, v, sweeps = _run(kernel, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sweeps >= 1
    assert np.abs(np.sort(np.diag(a)) - np.array([-1.0, 1.0])).max() <= 1e-14
    assert np.abs(v @ v.T - np.eye(2)).max() <= 1e-14


@pytest.mark.parametrize("kernel", KERNELS)
def test_matches_numpy_eigvalsh(kernel):
    rng = np.random.default_rng(101)
    for _ in range(20):
        s = _embed(random_hermitian(rng, 8))
        a, v, sweeps = _run(kernel, s)
        assert sweeps > 0
        w = np.sort(np.diag(a))
        assert np.abs(w - np.linalg.eigvalsh(s)).max() <= 1e-11
        # v must hold the accumulated rotations: v.T s v is diagonal.
        d = v.T @ s @ v
        assert np.abs(d - np.diag(np.diag(d))).max() <= 1e-10
        assert np.abs(v @ v.T - np.eye(16)).max() <= 1e-12


@pytest.mark.parametrize("kernel", KERNELS)
def test_budget_exhausted_returns_minus_one(kernel):
    rng = np.random.default_rng(107)
    s = _embed(random_hermitian(rng, 8))
    _, _, sweeps = _run(kernel, s, max_sweeps=0)
    assert sweeps == -1


def _figure3_embeddings():
    # Partial transposes of figure-3 states (collective dephasing of the
    # accelerated GHZ state): 16x16 from the three one-vs-rest cuts, 8x8
    # from the three pair reductions.
    big, small = [], []
    for kind in ("phase_damping", "phase_flip"):
        for r in (0.0, 0.2, 0.5, np.pi / 4):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                rho = apply_channel(lift(CouplingConfig.collective(kind, p)), ghz_rindler_density(r, r))
                big.extend(_embed(partial_transpose(rho, q, 3)) for q in range(3))
                small.extend(
                    _embed(partial_transpose(partial_trace(rho, pair, 3), 0, 2))
                    for pair in ((0, 1), (0, 2), (1, 2))
                )
    return big, small


def _low_rank_state(rng, d, rank):
    x = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _mixed_stacks():
    rng = np.random.default_rng(113)
    big, small = _figure3_embeddings()
    for d, stack in ((8, big), (4, small)):
        stack.extend(_embed(random_hermitian(rng, d)) for _ in range(8))
        for rank in (1, 2):
            stack.extend(_embed(_low_rank_state(rng, d, rank)) for _ in range(3))
        stack.append(np.diag(np.arange(2.0 * d)))
    return [np.array(big), np.array(small)]


@pytest.mark.parametrize("stack", _mixed_stacks(), ids=["16x16", "8x8"])
def test_batched_kernel_is_bitwise_single_kernel(stack):
    got = stack.copy()
    sweeps = _kernels.jacobi_sweeps_batched(got, 1e-13, 100)
    assert sweeps.shape == (len(stack),)
    assert 0 in sweeps and sweeps.max() > 1
    for i, s in enumerate(stack):
        a, _, n = _run(_kernels.jacobi_sweeps, s)
        assert sweeps[i] == n
        assert np.diag(got[i]).tobytes() == np.diag(a).tobytes()


def _zero_signs_dropped(a):
    # -0.0 + 0.0 is +0.0; every other value is unchanged.
    return (a + 0.0).tobytes()


@pytest.mark.parametrize("stack", _mixed_stacks(), ids=["16x16", "8x8"])
def test_single_kernel_without_vectors_is_bitwise(stack):
    for s in stack:
        a, _, n = _run(_kernels.jacobi_sweeps, s)
        bare = s.copy()
        assert _kernels.jacobi_sweeps(bare, None, 1e-13, 100) == n
        assert bare.tobytes() == a.tobytes()
        # The embedding puts 0.0 and -0.0 at mirrored places (-Im of a real
        # entry). The batched kernel rounds rows and columns separately and
        # keeps those signs apart; the single kernel mirrors its columns.
        # Only zero entries can differ, and none once the input is bitwise
        # symmetric.
        for start, exact in ((s, False), (s + 0.0, True)):
            single = start.copy()
            batched = start[None].copy()
            assert _kernels.jacobi_sweeps(single, None, 1e-13, 100) == n
            assert _kernels.jacobi_sweeps_batched(batched, 1e-13, 100)[0] == n
            assert np.diag(single).tobytes() == np.diag(batched[0]).tobytes()
            assert _zero_signs_dropped(single) == _zero_signs_dropped(batched[0])
            if exact:
                assert single.tobytes() == batched[0].tobytes()


def test_public_tangles_equal_the_batched_stack_route():
    # The dense_states shape: random 3-qubit states of rank 1, 2, 4 and 8.
    rng = np.random.default_rng(127)
    rhos = np.array([_low_rank_state(rng, 8, rank) for rank in (1, 2, 4, 8) for _ in range(4)])
    for q in range(3):
        pt = partial_transpose_stack(rhos, q, 3)
        stacked = _negativity_from_spectra(hermitian_eigenvalues_stack(pt))
        assert [negativity(rho, q, 3) for rho in rhos] == stacked.tolist()
    for pair in ((0, 1), (0, 2), (1, 2)):
        pt = partial_transpose_stack(partial_trace_stack(rhos, pair, 3), 0, 2)
        stacked = _negativity_from_spectra(hermitian_eigenvalues_stack(pt))
        assert [two_tangle(rho, pair, 3) for rho in rhos] == stacked.tolist()


@pytest.mark.parametrize("stack", _mixed_stacks(), ids=["16x16", "8x8"])
def test_batched_kernel_budget_exhausted_per_matrix(stack):
    sweeps = _kernels.jacobi_sweeps_batched(stack.copy(), 1e-13, 0)
    off_diagonal = np.array([np.any(s != np.diag(np.diag(s))) for s in stack])
    assert np.array_equal(sweeps == -1, off_diagonal)
    assert np.all(sweeps[~off_diagonal] == 0)


def _batched_as_single(a, v, off_tol, max_sweeps):
    stack = a[None].copy()
    sweeps = _kernels.jacobi_sweeps_batched(stack, off_tol, max_sweeps)
    a[...] = stack[0]
    return int(sweeps[0])


@pytest.mark.parametrize(
    "kernel",
    [*KERNELS, _batched_as_single],
    ids=lambda k: k.__name__,
)
def test_huge_rotation_angle_does_not_overflow(kernel):
    # theta = -5e199 here; squaring it overflowed before the large-angle branch.
    s = np.array([[1.0, 1e-200, 0.5], [1e-200, 0.0, 0.0], [0.5, 0.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, _, sweeps = _run(kernel, s)
    assert sweeps > 0
    assert np.abs(np.sort(np.diag(a)) - np.linalg.eigvalsh(s)).max() <= 1e-12


@pytest.mark.parametrize(
    "kernel",
    [*KERNELS, _batched_as_single],
    ids=lambda k: k.__name__,
)
def test_overflowing_rotation_angle_is_silent(kernel):
    # theta = 1e10 / 2e-300 overflows to inf in the divide itself; t is then
    # 0.5 / inf = 0, and the rotation only zeroes the 1e-300 pivot.
    s = np.array([[0.0, 1e-300, 0.5], [1e-300, 1e10, 0.0], [0.5, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, _, sweeps = _run(kernel, s)
    assert sweeps > 0
    assert np.abs(np.sort(np.diag(a)) - np.linalg.eigvalsh(s)).max() <= 1e-6


@pytest.mark.parametrize(
    "s",
    [
        np.zeros((3, 4)),
        np.zeros((2, 3, 3)),
        np.random.default_rng(131).normal(size=(6, 6)),
        np.array([[1.0, 2.0], [2.0 + 2.0**-51, 1.0]]),
    ],
    ids=["not-square", "not-2d", "random", "one-ulp"],
)
def test_single_kernel_rejects_a_matrix_that_is_not_symmetric(s):
    # The mirrored update would silently give a wrong spectrum here.
    with pytest.raises(ValueError, match="symmetric|square"):
        _kernels.jacobi_sweeps(s.copy(), None, 1e-13, 100)
