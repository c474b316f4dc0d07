"""Cyclic Jacobi sweep kernels for Hermitian matrices.

``jacobi_sweeps`` diagonalizes one matrix in place: ``a`` ends up with the
eigenvalues on its diagonal and, when ``v`` is given, ``v`` accumulates the
rotations (columns are eigenvectors). It works on Python numbers, floats
for a real input and complex for a complex one, with the complex rotation
of Forsythe and Henrici (Trans. AMS 94, 1960): a pivot ``g * u``, ``g``
real and ``|u| = 1``, takes the real rotation of ``g`` with ``u``'s phase,
so a real pivot (``u = 1``) gets the real rotation's arithmetic. Each
rotation computes the new rows p and q and mirrors them into columns p and
q, which is exact for a Hermitian matrix: a few list comprehensions, where
numpy slices cost about 25 calls per rotation.

Both kernels skip a pivot that is negligible against its own diagonal,
``|a_pq| <= EPS * (sqrt|a_pp| * sqrt|a_qq|)`` (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992), and stop after a sweep that rotates nothing.
They return the number of sweeps that rotated something, or -1 if
``max_sweeps`` were not enough.

``jacobi_sweeps_batched`` runs the same rotations on a stack of real
matrices in numpy, without eigenvectors; the report pipeline uses it. Both
kernels round with the same IEEE operations in the same order, so on a
real matrix their diagonals and sweep counts are bit-identical. So are the
other entries, but for the sign of a zero where the input holds 0.0 and
-0.0 at mirrored places. As a stack of one, the batched kernel makes a
dense 8x8 solve 12-21 times slower than ``jacobi_sweeps``.
"""

from __future__ import annotations

import math

import numpy as np

# Beyond this |theta|, theta * theta overflows (or nearly does); there
# sqrt(1 + theta^2) is |theta| to working precision, so t = 1 / (2 |theta|).
BIG_THETA = 1e150
EPS = 2.0**-52


def jacobi_sweeps(a, v, max_sweeps):
    """Cyclic Jacobi sweeps on one Hermitian matrix, on Python numbers.

    Rotations are accumulated in ``v`` when it is given; ``v=None`` skips
    them. ``a`` must be exactly Hermitian, as every matrix either kernel
    gets is: symmetrized as ``(m + m^dag) / 2``. That is what lets one
    rotation compute only the new rows p and q and mirror them into
    columns p and q.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_sweeps needs a square matrix")
    if not np.array_equal(a, a.conj().T):
        raise ValueError("jacobi_sweeps needs an exactly symmetric (Hermitian) matrix")
    n = a.shape[0]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    rows = a.tolist()
    for i, row in enumerate(rows):
        row[i] = row[i].real
    vcols = None if v is None else v.T.tolist()
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        rotated = False
        for p, q in pairs:
            row_p = rows[p]
            row_q = rows[q]
            apq = row_p[q]
            # Two square roots: a_pp * a_qq overflows for entries near 1e300.
            if abs(apq) <= EPS * (math.sqrt(abs(row_p[p])) * math.sqrt(abs(row_q[q]))):
                continue
            rotated = True
            if sweep == max_sweeps:
                break
            # apq = g * u with |u| = 1; a real pivot has g = apq, u = 1.
            g = math.copysign(abs(apq), apq.real)
            u = apq / g
            theta = (row_q[q] - row_p[p]) / (2.0 * g)
            if abs(theta) > BIG_THETA:
                t = 0.5 / abs(theta)
            else:
                t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(1.0 + t * t)
            su = t * c * u
            sv = su.conjugate()
            # The new rows p and q; the 2x2 block then takes the column
            # update as well, and the other columns mirror the rows.
            new_p = [c * x - su * y for x, y in zip(row_p, row_q)]
            new_q = [sv * x + c * y for x, y in zip(row_p, row_q)]
            app = (c * new_p[p] - sv * new_p[q]).real
            aqq = (su * new_q[p] + c * new_q[q]).real
            new_p[p] = app
            new_q[q] = aqq
            new_p[q] = new_q[p] = 0.0
            rows[p] = new_p
            rows[q] = new_q
            for row, x, y in zip(rows, new_p, new_q):
                row[p] = x.conjugate()
                row[q] = y.conjugate()
            if vcols is not None:
                vec_p = vcols[p]
                vec_q = vcols[q]
                vcols[p] = [c * x - sv * y for x, y in zip(vec_p, vec_q)]
                vcols[q] = [su * x + c * y for x, y in zip(vec_p, vec_q)]
        if not rotated:
            sweeps = sweep
            break
    a[...] = rows
    if vcols is not None:
        v[...] = np.array(vcols).T
    return sweeps


def jacobi_sweeps_batched(a, max_sweeps):
    """``jacobi_sweeps`` over an (N, n, n) stack, eigenvalues only.

    Every matrix goes through exactly the rotations the single-matrix kernel
    would apply to it, with the same arithmetic: a rotation touches only
    the matrices that are still live and whose pivot is not negligible, so
    each result is bit-identical to a separate call. Returns an int array
    of per-matrix sweep counts, -1 where ``max_sweeps`` was not enough.
    The stack must be real: the batched kernel has no complex rotation.
    """
    count, n = a.shape[0], a.shape[1]
    sweeps = np.full(count, -1, dtype=np.int64)
    live = np.ones(count, dtype=bool)
    for sweep in range(max_sweeps + 1):
        rotated = np.zeros(count, dtype=bool)
        # Entries that may be nonzero in some live matrix. A rotation only
        # mixes rows p, q and columns p, q, so exact zeros elsewhere stay
        # zero; a zero pivot is negligible and is skipped without a look.
        maybe = (a != 0.0)[live].any(axis=0)
        for p in range(n - 1):
            for q in range(p + 1, n):
                if not maybe[p, q]:
                    continue
                bound = EPS * (np.sqrt(np.abs(a[:, p, p])) * np.sqrt(np.abs(a[:, q, q])))
                act = np.flatnonzero(live & ~(np.abs(a[:, p, q]) <= bound))
                rotated[act] = True
                if act.size == 0 or sweep == max_sweeps:
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
        sweeps[live & ~rotated] = sweep
        live &= rotated
        if not live.any():
            break
    return sweeps


def backend_name() -> str:
    """Name of the eigen kernel backend; numpy is the only one."""
    return "numpy"
