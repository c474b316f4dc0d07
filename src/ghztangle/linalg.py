"""Dense linear algebra for few-qubit density matrices.

Public functions keep a real input float64 and make any other complex128.
Qubit ordering convention used throughout the package: qubit 0 is the most
significant tensor factor, so the computational basis state |abc> of three
qubits sits at index 4a+2b+c.

Eigenvalues are solved by the matrix's shape. A real X matrix, zero off
its diagonal and anti-diagonal, goes to ``x_eigenvalues_stack`` as one row,
which keeps a tiny coherence relatively accurate; so does its complex copy.
Any other matrix goes to ``np.linalg.eigvalsh`` as complex128, so a real
matrix and its complex copy get the same eigenvalues bit for bit.
Eigenvectors (the internal ``_hermitian_eigensystem``) come from
``np.linalg.eigh``. A matrix with a real or imaginary part beyond 2^1000 is
checked and solved scaled by a power of two, which is exact, and its
eigenvalues scaled back; beyond the float64 range they become +-inf, with
numpy's overflow warning.

Each check runs once per public call, in one place:
- ``as_matrix``: square and finite (``ValueError``); the internal forms
  (``_partial_trace``, ``_partial_transpose``, ``_eigenvalues``) skip it.
- ``_checked_keep``: the dimension and the qubit indices (``ValueError``).
- ``_checked_hermitian``, on every solve: non-empty, then hermiticity
  (``ValueError``, to 1e-10 of 1 or of the largest real or imaginary part,
  read in one pass); it makes the solvers' input exactly Hermitian.
- ``_eigenvalues``: convergence (``RuntimeError``, for LAPACK's
  ``LinAlgError``).
``tangles.negativity`` and ``tangles.two_tangle`` add the unit trace and the
negativity cross-check. ``x_eigenvalues_stack`` solves the report
pipeline's X matrices, given as float64 diagonals and anti-diagonals, by
rotating each 2x2 block once; ``tangles._x_parts`` makes and checks them.
A block is left as it is when its coherence is negligible against its own
diagonal, ``|a_pq| <= EPS * (sqrt|a_pp| * sqrt|a_qq|)`` (Demmel and
Veselic, SIAM J. Matrix Anal. Appl. 13, 1992); any other takes the one
Jacobi rotation that diagonalizes it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HERMITICITY_TOL = 1e-10
SCALE_MAX = 2.0**1000
# The block solve's skip rule. Beyond BIG_THETA, theta * theta (nearly) overflows and
# sqrt(1 + theta^2) is |theta| to working precision, so t = 1 / (2 |theta|).
EPS = 2.0**-52
BIG_THETA = 1e150


def backend_name() -> str:
    """Name of the eigen kernel backend; numpy is the only one."""
    return "numpy"


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
    return _partial_trace(rho, keep, n)


def _partial_trace(rho: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    t = rho.reshape((2,) * (2 * n))
    live = n
    for q in range(n - 1, -1, -1):
        if q in keep:
            continue
        t = np.trace(t, axis1=q, axis2=q + live)
        live -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def partial_transpose(rho, subsystem: int, n_qubits: int | None = None) -> np.ndarray:
    """Transpose one qubit's indices, leaving the rest untouched."""
    rho = as_matrix(rho)
    _, n = _checked_keep(rho, (subsystem,), n_qubits)
    return _partial_transpose(rho, subsystem, n)


def _partial_transpose(rho: np.ndarray, subsystem: int, n: int) -> np.ndarray:
    t = np.swapaxes(rho.reshape((2,) * (2 * n)), subsystem, subsystem + n)
    return t.reshape(rho.shape).copy()


def _checked_hermitian(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(h, e)``: ``m`` times ``2^-e`` (exact), checked and made exactly Hermitian; ``e`` is 0
    unless a real or imaginary part exceeds SCALE_MAX, where a sum or a rotation can overflow."""
    if not m.size:
        raise ValueError("matrix must be non-empty")
    # Parts, not moduli: a modulus near the float64 limit can overflow. The float64 view
    # of the C-order matrix (the matrix itself, unless another layout) holds every part.
    big = float(np.abs(np.ascontiguousarray(m).view(np.float64)).max())
    e = math.frexp(big)[1] if big > SCALE_MAX else 0
    if e:
        m = m * 2.0**-e
    mh = m.T.conj()
    if not np.abs(m - mh).max() <= HERMITICITY_TOL * max(1.0, big) * 2.0**-e:
        raise ValueError("hermiticity violated")
    h = mh + m
    h /= 2.0
    return h, e


@functools.lru_cache(maxsize=8)
def _off_x(d: int) -> np.ndarray:
    """The read-only mask of the entries of a d x d matrix off its diagonal and anti-diagonal."""
    j = np.arange(d)
    mask = (j[:, None] != j) & (j[:, None] + j != d - 1)
    mask.flags.writeable = False
    return mask


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    # For one coerced matrix: the checks and the solve of hermitian_eigenvalues.
    h, e = _checked_hermitian(m)
    if not h.imag.any() and not h[_off_x(len(h))].any():
        # A real X matrix: the block solve, relatively accurate on a tiny coherence.
        w = x_eigenvalues_stack(h.real.diagonal()[None], h.real[:, ::-1].diagonal()[None])[0]
    else:
        try:
            # Complex even when real, so that a real matrix and its complex copy agree.
            w = np.linalg.eigvalsh(h.astype(np.complex128, copy=False))
        except np.linalg.LinAlgError:
            raise RuntimeError("eigensolver did not converge") from None
    return np.ldexp(w, e) if e else w


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending."""
    return _eigenvalues(as_matrix(m))


def x_eigenvalues_stack(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric X matrices, one row each, from float64 ``(N, d)`` parts.

    Matrix i is ``diag[i, j]`` at (j, j), ``anti[i, j]`` at (j, d-1-j) and
    zero elsewhere, so each block (j, d-1-j) is an independent 2x2
    [[a_pp, a_pq], [a_pq, a_qq]]. One within the skip rule keeps its entries;
    any other is diagonalized by one Jacobi rotation, theta = (a_qq - a_pp) /
    (2 a_pq), t = sign(theta) / (|theta| + sqrt(1 + theta^2)), c = 1 /
    sqrt(1 + t^2), s = t c, on its columns and then its rows. ``_eigenvalues``
    solves a single real X matrix here as one row, so rows are bit-identical
    to ``hermitian_eigenvalues`` of each matrix; the parts are not changed.
    Float64 is unchecked: ``_x_parts``, ``dephase_x`` and ``_eigenvalues`` make it.
    """
    d = diag.shape[-1]
    k = d // 2
    w = diag.copy()
    # Views into w: the diagonal entries (j, j) and (d-1-j, d-1-j) of block j.
    low, high = w[:, :k], w[:, ::-1][:, :k]
    act = ~(np.abs(anti[:, :k]) <= EPS * (np.sqrt(np.abs(low)) * np.sqrt(np.abs(high))))
    app, aqq, apq = low[act], high[act], anti[:, :k][act]
    with np.errstate(over="ignore", divide="ignore"):
        theta = (aqq - app) / (2.0 * apq)
        at = np.abs(theta)
        t = np.where(at > BIG_THETA, 0.5 / at, 1.0 / (at + np.sqrt(1.0 + theta * theta)))
    t = np.where(theta < 0.0, -t, t)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # The column update, then the row update, of the 2x2 block.
    low[act] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
    high[act] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
    return np.sort(w)


def _hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns). Internal use."""
    h, e = _checked_hermitian(as_matrix(m))
    w, v = np.linalg.eigh(h)
    return np.ldexp(w, e), v


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())
