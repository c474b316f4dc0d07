"""Cyclic Jacobi sweep kernels for real symmetric matrices, in numpy.

``jacobi_sweeps`` diagonalizes one matrix in place: ``a`` ends up with the
eigenvalues on its diagonal and ``v`` accumulates the rotations (columns
are eigenvectors). It returns the number of completed sweeps, or -1 if the
off-diagonal Frobenius norm is still above ``off_tol`` after
``max_sweeps`` sweeps.

``jacobi_sweeps_batched`` runs the same rotation sequence on a whole stack
of matrices at once, without eigenvectors; it is what the batched report
pipeline uses. A single matrix stays on ``jacobi_sweeps``: as a stack of
one, the batched kernel's per-rotation bookkeeping makes a dense solve
2-3.5 times slower.
"""

from __future__ import annotations

import math

import numpy as np

# Beyond this |theta|, theta * theta overflows (or nearly does); there
# sqrt(1 + theta^2) is |theta| to working precision, so t = 1 / (2 |theta|).
BIG_THETA = 1e150


def jacobi_sweeps(a, v, off_tol, max_sweeps):
    """Cyclic Jacobi sweeps on one matrix, rotations accumulated in ``v``."""
    n = a.shape[0]
    for sweep in range(max_sweeps + 1):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= off_tol:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > BIG_THETA:
                    t = 0.5 / abs(theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    return -1


def _off_norms(a):
    # Per matrix, the same sum as jacobi_sweeps', in the same order.
    upper = np.triu(a, 1)
    return np.sqrt(2.0 * np.square(upper, out=upper).sum(axis=(1, 2)))


def jacobi_sweeps_batched(a, off_tol, max_sweeps):
    """``jacobi_sweeps`` over an (N, n, n) stack, eigenvalues only.

    Every matrix goes through exactly the rotations the single-matrix kernel
    would apply to it, with the same arithmetic: a rotation touches only
    the matrices that are still unconverged and have a nonzero pivot, so
    each result is bit-identical to a separate call. Returns an int array
    of per-matrix sweep counts, -1 where ``max_sweeps`` was not enough.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.full(count, -1, dtype=np.int64)
    live = np.ones(count, dtype=bool)
    for sweep in range(max_sweeps + 1):
        done = live & (_off_norms(a) <= off_tol)
        sweeps[done] = sweep
        live &= ~done
        if sweep == max_sweeps or not live.any():
            break
        # Entries that may be nonzero in some live matrix. A rotation only
        # mixes rows p, q and columns p, q, so exact zeros elsewhere stay
        # zero and pairs outside this pattern are skipped without a look.
        maybe = (a != 0.0)[live].any(axis=0)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if not maybe[p, q]:
                    continue
                act = np.flatnonzero(live & (a[:, p, q] != 0.0))
                if act.size == 0:
                    continue
                with np.errstate(over="ignore", divide="ignore"):
                    theta = (a[act, q, q] - a[act, p, p]) / (2.0 * a[act, p, q])
                    at = np.abs(theta)
                    t = np.where(at > BIG_THETA, 0.5 / at, 1.0 / (at + np.sqrt(1.0 + theta * theta)))
                t = np.where(theta < 0.0, -t, t)
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = t[:, None] * c
                col_p = a[act, :, p]
                col_q = a[act, :, q]
                a[act, :, p] = c * col_p - s * col_q
                a[act, :, q] = s * col_p + c * col_q
                row_p = a[act, p, :]
                row_q = a[act, q, :]
                a[act, p, :] = c * row_p - s * row_q
                a[act, q, :] = s * row_p + c * row_q
                a[act, p, q] = 0.0
                a[act, q, p] = 0.0
                maybe[[p, q], :] = maybe[p] | maybe[q]
                maybe[:, [p, q]] = (maybe[:, p] | maybe[:, q])[:, None]
    return sweeps


def backend_name() -> str:
    """Name of the eigen kernel backend; numpy is the only one."""
    return "numpy"
