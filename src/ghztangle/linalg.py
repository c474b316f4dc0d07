"""Dense linear algebra for few-qubit density matrices.

Public functions keep a real input float64 and make any other complex128.
Qubit ordering convention used throughout the package: qubit 0 is the most
significant tensor factor, so the computational basis state |abc> of three
qubits sits at index 4a+2b+c.

The Hermitian eigensolver runs cyclic Jacobi sweeps on the matrix as it
is (see ``_kernels``): one complex rotation, which on a real matrix does
the real rotation's arithmetic, so a real matrix and its complex copy get
the same eigenvalues bit for bit.

Functions named ``*_stack`` are the internal forms behind the public ones:
they act on the last two axes of an (N, d, d) stack, take trusted input
and skip the argument checks. ``hermitian_eigenvalues_stack`` takes real
stacks of X matrices only, as the report pipeline's are, and rotates each
2x2 block of the X once instead of sweeping. A public function coerces its
input with ``as_matrix`` and checks its arguments with ``_checked_keep``,
once; ``tangles.negativity`` and ``tangles.two_tangle`` do the same and
then call ``_eigenvalues``. The numeric checks run on every solve:
hermiticity (``ValueError``) and convergence (``RuntimeError``) on the
public route, exact X shape and exact symmetry (``RuntimeError``) on the
stack route. Each is written so that NaN fails it.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

HERMITICITY_TOL = 1e-10
MAX_SWEEPS = 100


def as_matrix(m) -> np.ndarray:
    """Coerce to a square float64 matrix if real, else complex128; reject non-finite entries."""
    out = np.asarray(m)
    out = out.astype(np.float64 if out.dtype.kind in "biuf" else np.complex128, copy=False)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(out).all():
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
    if not np.abs(m - mh).max() <= HERMITICITY_TOL:
        raise ValueError("hermiticity violated")
    mh = mh + m
    mh /= 2.0
    return mh


def _run_jacobi(h: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    # Diagonalizes h in place; rotations are accumulated in v when one is given.
    sweeps = _kernels.jacobi_sweeps(h, v, MAX_SWEEPS)
    if sweeps < 0:
        raise RuntimeError("eigensolver did not converge")
    return np.diag(h).real.copy()


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    # For one coerced matrix: the checks and kernel of hermitian_eigenvalues.
    return np.sort(_run_jacobi(_checked_hermitian(m)))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return _eigenvalues(as_matrix(m))


def hermitian_eigenvalues_stack(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix in a float64 stack of X matrices, one row each.

    An X matrix is zero off its diagonal and anti-diagonal, so its entries
    (j, j), (j, d-1-j), (d-1-j, j) and (d-1-j, d-1-j) form an independent
    2x2 block. Each block takes the one rotation ``_kernels.jacobi_sweeps``
    would give it, with the same skip rule and IEEE operations, so rows are
    bit-identical to ``hermitian_eigenvalues`` of a complex copy of each
    matrix; ``m`` is not changed. Raises ``RuntimeError`` unless every
    matrix is exactly X-shaped and exactly symmetric, which NaN is not.
    """
    if m.dtype != np.float64:
        raise TypeError("hermitian_eigenvalues_stack needs a float64 stack")
    d = m.shape[-1]
    eye = np.eye(d, dtype=bool)
    anti = np.diagonal(m[:, :, ::-1], axis1=1, axis2=2)
    if m[:, ~(eye | eye[::-1])].any() or not np.array_equal(anti, anti[:, ::-1]):
        raise RuntimeError("stack matrices must be exactly symmetric X matrices")
    k = d // 2
    w = np.diagonal(m, axis1=1, axis2=2).copy()
    # Views into w: the diagonal entries (j, j) and (d-1-j, d-1-j) of block j.
    low, high = w[:, :k], w[:, ::-1][:, :k]
    act = ~(np.abs(anti[:, :k]) <= _kernels.EPS * (np.sqrt(np.abs(low)) * np.sqrt(np.abs(high))))
    app, aqq, apq = low[act], high[act], anti[:, :k][act]
    with np.errstate(over="ignore", divide="ignore"):
        theta = (aqq - app) / (2.0 * apq)
        at = np.abs(theta)
        t = np.where(at > _kernels.BIG_THETA, 0.5 / at, 1.0 / (at + np.sqrt(1.0 + theta * theta)))
    t = np.where(theta < 0.0, -t, t)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # The column update, then the row update, of the 2x2 block.
    low[act] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
    high[act] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
    return np.sort(w)


def _hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns). Internal use."""
    h = _checked_hermitian(as_matrix(m))
    v = np.eye(h.shape[0], dtype=h.dtype)
    w = _run_jacobi(h, v)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())
