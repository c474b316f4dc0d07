import warnings

import numpy as np
import pytest

from ghztangle import _kernels
from ghztangle.channels import CouplingConfig, apply_channel, lift
from ghztangle.linalg import partial_trace, partial_transpose
from ghztangle.rindler import ghz_rindler_density

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
