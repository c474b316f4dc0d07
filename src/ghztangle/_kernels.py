"""Cyclic Jacobi sweep kernels for real symmetric matrices.

``jacobi_sweeps`` diagonalizes one matrix in place: ``a`` ends up with the
eigenvalues on its diagonal and, when ``v`` is given, ``v`` accumulates the
rotations (columns are eigenvectors). It returns the number of completed
sweeps, or -1 if the off-diagonal Frobenius norm is still above ``off_tol``
after ``max_sweeps`` sweeps. It works on Python floats: each rotation
computes the new columns p and q and mirrors them into rows p and q, which
is exact for a symmetric matrix. A rotation is then a few list
comprehensions, where numpy slices cost about 25 calls per rotation.

``jacobi_sweeps_batched`` runs the same rotation sequence on a whole stack
of matrices at once, in numpy, without eigenvectors; it is what the batched
report pipeline uses. Both kernels round every entry with the same IEEE
operations (a separate multiply and subtract, correctly rounded square
roots) in the same order, so their diagonals and sweep counts are
bit-identical. So are the other entries, but for the sign of a zero where
the input holds 0.0 and -0.0 at mirrored places: the batched kernel updates
rows and columns separately and keeps the two apart. A single matrix stays
on ``jacobi_sweeps``: as a stack of one, the batched kernel's per-rotation
numpy calls make a dense 16x16 solve 10-14 times slower.
"""

from __future__ import annotations

import math

import numpy as np

# Beyond this |theta|, theta * theta overflows (or nearly does); there
# sqrt(1 + theta^2) is |theta| to working precision, so t = 1 / (2 |theta|).
BIG_THETA = 1e150


def jacobi_sweeps(a, v, off_tol, max_sweeps):
    """Cyclic Jacobi sweeps on one symmetric matrix, on Python floats.

    Rotations are accumulated in ``v`` when it is given; ``v=None`` skips
    them. ``a`` must be exactly symmetric: every caller passes the
    embedding ``[[Re, -Im], [Im, Re]]`` of a Hermitian matrix symmetrized as
    ``(m + m^dag) / 2``, which is. Symmetry is what lets one rotation
    compute only the new columns p and q and mirror them into rows p and q.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_sweeps needs a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("jacobi_sweeps needs an exactly symmetric matrix")
    n = a.shape[0]
    rows = a.tolist()
    vcols = None if v is None else v.T.tolist()
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        off = np.sqrt(2.0 * (np.triu(np.array(rows), 1) ** 2).sum())
        if off <= off_tol:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                row_p = rows[p]
                row_q = rows[q]
                apq = row_p[q]
                if apq == 0.0:
                    continue
                theta = (row_q[q] - row_p[p]) / (2.0 * apq)
                if abs(theta) > BIG_THETA:
                    t = 0.5 / abs(theta)
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Rows p and q equal columns p and q, so these are the new
                # columns; the 2x2 block then takes the row update as well.
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                app = c * new_p[p] - s * new_p[q]
                aqq = s * new_q[p] + c * new_q[q]
                new_p[p] = app
                new_q[q] = aqq
                new_p[q] = new_q[p] = 0.0
                rows[p] = new_p
                rows[q] = new_q
                for row, x, y in zip(rows, new_p, new_q):
                    row[p] = x
                    row[q] = y
                if vcols is not None:
                    vec_p = vcols[p]
                    vec_q = vcols[q]
                    vcols[p] = [c * x - s * y for x, y in zip(vec_p, vec_q)]
                    vcols[q] = [s * x + c * y for x, y in zip(vec_p, vec_q)]
    a[...] = rows
    if vcols is not None:
        v[...] = np.array(vcols).T
    return sweeps


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
