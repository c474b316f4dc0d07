"""Dense linear algebra for few-qubit density matrices.

Public functions take numpy complex128 arrays. Qubit ordering convention
used throughout the package: qubit 0 is the most significant tensor factor,
so the computational basis state |abc> of three qubits sits at index 4a+2b+c.

The Hermitian eigensolver embeds a d x d Hermitian matrix as the 2d x 2d
real symmetric matrix [[Re, -Im], [Im, Re]] and runs cyclic Jacobi sweeps
(see ``_kernels``). Each eigenvalue shows up twice in the embedded
spectrum; sorted, consecutive entries are paired and averaged. A real A
embeds as A (+) A, whose sweeps are A's own, so it is solved as it is.

Functions named ``*_stack`` are the internal forms behind the public ones:
they act on the last two axes of an (N, d, d) stack, real or complex, take
trusted input and skip the argument checks. The report pipeline's are real.
A public function coerces its input with ``as_matrix`` and checks its
arguments with ``_checked_keep``, once; ``tangles.negativity`` and
``tangles.two_tangle`` do the same and then call ``_eigenvalues``. The
numeric checks (hermiticity, convergence, pairing) run on every solve.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

HERMITICITY_TOL = 1e-10
OFF_DIAGONAL_TOL = 1e-13
MAX_SWEEPS = 100
PAIR_TOL = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(out.real).all() or not np.isfinite(out.imag).all():
        raise ValueError("matrix entries must be finite")
    return out


def _checked_keep(rho: np.ndarray, keep, n_qubits: int | None) -> tuple[tuple[int, ...], int]:
    """Validate a set of qubit indices against a coerced matrix; returns (keep, n)."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError("matrix dimension is not a power of two")
    if n_qubits is not None and n_qubits != n:
        raise ValueError(f"n_qubits={n_qubits} does not match a {dim}x{dim} matrix")
    keep = tuple(keep)
    if len(keep) == 0:
        raise ValueError("empty keep set")
    if len(set(keep)) != len(keep) or list(keep) != sorted(keep):
        raise ValueError("keep set must be strictly increasing")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError("subsystem index out of range")
    return keep, n


def partial_trace(rho, keep, n_qubits: int | None = None) -> np.ndarray:
    """Reduced density matrix over the qubits in ``keep`` (ascending indices)."""
    rho = as_matrix(rho)
    keep, n = _checked_keep(rho, keep, n_qubits)
    return partial_trace_stack(rho, keep, n)


def partial_trace_stack(rho: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    lead = rho.shape[:-2]
    b = len(lead)
    t = rho.reshape(lead + (2,) * (2 * n))
    live = n
    for q in range(n - 1, -1, -1):
        if q in keep:
            continue
        t = np.trace(t, axis1=b + q, axis2=b + q + live)
        live -= 1
    d = 2 ** len(keep)
    return t.reshape(lead + (d, d))


def partial_transpose(rho, subsystem: int, n_qubits: int | None = None) -> np.ndarray:
    """Transpose one qubit's indices, leaving the rest untouched."""
    rho = as_matrix(rho)
    _, n = _checked_keep(rho, (subsystem,), n_qubits)
    return partial_transpose_stack(rho, subsystem, n)


def partial_transpose_stack(rho: np.ndarray, subsystem: int, n: int) -> np.ndarray:
    lead = rho.shape[:-2]
    b = len(lead)
    t = rho.reshape(lead + (2,) * (2 * n))
    t = np.swapaxes(t, b + subsystem, b + subsystem + n)
    return t.reshape(rho.shape).copy()


def _checked_hermitian(m: np.ndarray) -> np.ndarray:
    # For a real m the conjugate transpose is a view of m: add into a new array.
    mh = np.swapaxes(m, -1, -2).conj()
    if np.abs(m - mh).max() > HERMITICITY_TOL:
        raise ValueError("hermiticity violated")
    mh = mh + m
    mh /= 2.0
    return mh


def _embed_real(h: np.ndarray) -> np.ndarray:
    # [[Re, -Im], [Im, Re]] is symmetric when h is Hermitian. Filled in
    # place, without temporaries the size of the embedding.
    d = h.shape[-1]
    out = np.empty(h.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = h.real
    out[..., d:, :d] = h.imag
    np.negative(h.imag, out=out[..., :d, d:])
    return out


def _run_jacobi(s: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    # Diagonalizes s; rotations are accumulated in v when one is given.
    a = np.ascontiguousarray(s, dtype=np.float64)
    sweeps = _kernels.jacobi_sweeps(a, v, OFF_DIAGONAL_TOL, MAX_SWEEPS)
    if sweeps < 0:
        raise RuntimeError("eigensolver did not converge")
    return np.diag(a).copy()


def _paired(w_doubled: np.ndarray) -> np.ndarray:
    w = np.sort(w_doubled)
    lo, hi = w[..., 0::2], w[..., 1::2]
    if np.max(hi - lo) > PAIR_TOL:
        raise RuntimeError("eigenvalue pairing failed")
    return (lo + hi) / 2.0


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    # For one coerced matrix: the checks and kernel of hermitian_eigenvalues.
    w_doubled = _run_jacobi(_embed_real(_checked_hermitian(m)))
    return _paired(w_doubled)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return _eigenvalues(as_matrix(m))


def hermitian_eigenvalues_stack(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix in a stack, one row each.

    A complex stack takes the embedding and pairing of
    ``hermitian_eigenvalues``; a float64 stack its own sweeps, with the
    embedding's stop test. Rows are bit-identical to the single-matrix
    result (real ones for 8 x 8 or diagonal input); ``m`` is not changed.
    """
    h = _checked_hermitian(m)
    embed = np.iscomplexobj(h)
    a = _embed_real(h) if embed else h
    if (_kernels.jacobi_sweeps_batched(a, OFF_DIAGONAL_TOL, MAX_SWEEPS, 1 if embed else 2) < 0).any():
        raise RuntimeError("eigensolver did not converge")
    w = np.diagonal(a, axis1=-2, axis2=-1)
    return _paired(w) if embed else np.sort(w)


def _hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors (columns). Internal use.

    A real embedded eigenvector (x, y) maps back to the complex vector
    x + iy; within a degenerate cluster the complexified candidates are
    Gram-Schmidt filtered, since the two partners of one pair complexify
    to parallel vectors.
    """
    h = _checked_hermitian(as_matrix(m))
    d = h.shape[0]
    v = np.eye(2 * d)
    w_doubled = _run_jacobi(_embed_real(h), v)
    order = np.argsort(w_doubled, kind="stable")
    w_sorted = w_doubled[order]
    v_sorted = v[:, order]
    values = _paired(w_doubled)

    vectors = np.zeros((d, d), dtype=np.complex128)
    found = 0
    start = 0
    while start < 2 * d:
        stop = start + 1
        while stop < 2 * d and w_sorted[stop] - w_sorted[stop - 1] <= PAIR_TOL:
            stop += 1
        needed = (stop - start) // 2
        kept = 0
        for j in range(start, stop):
            if kept == needed:
                break
            cand = v_sorted[:d, j] + 1j * v_sorted[d:, j]
            for k in range(found):
                cand = cand - (vectors[:, k].conj() @ cand) * vectors[:, k]
            norm = np.linalg.norm(cand)
            if norm > 1e-6:
                vectors[:, found] = cand / norm
                found += 1
                kept += 1
        if kept != needed:
            raise RuntimeError("eigenvector extraction failed")
        start = stop
    return values, vectors


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())
