"""The cyclic Jacobi kernel, which nothing in the package imports.

``jacobi_sweeps`` diagonalizes one Hermitian matrix in place, on Python
numbers, with the complex rotation of Forsythe and Henrici (Trans. AMS 94,
1960). It skips a pivot by ``linalg``'s rule and constants, ``|a_pq| <=
EPS * (sqrt|a_pp| * sqrt|a_qq|)``, stops after a sweep that rotates nothing
and returns the number of sweeps that rotated something, or -1 if
``max_sweeps`` were not enough. ``linalg`` solves dense matrices with
``np.linalg.eigvalsh`` and X matrices with ``linalg.x_eigenvalues_stack``,
and holds ``backend_name``. The kernel stays only because
``perfbench/tracer.py`` wraps it by name; it goes with that layer.
"""

from __future__ import annotations

import math

from .linalg import BIG_THETA, EPS


def jacobi_sweeps(a, max_sweeps):
    """Cyclic Jacobi sweeps on one Hermitian matrix, on Python numbers.

    ``a`` must be square and exactly Hermitian, as ``linalg._checked_hermitian``
    output is; it is unchecked here. Each rotation computes the new rows p
    and q and mirrors them into columns p and q.
    """
    n = a.shape[0]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    rows = a.tolist()
    for i, row in enumerate(rows):
        row[i] = row[i].real
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
        if not rotated:
            sweeps = sweep
            break
    a[...] = rows
    return sweeps
