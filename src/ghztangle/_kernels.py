"""Cyclic Jacobi sweep kernels for Hermitian matrices.

``jacobi_sweeps`` diagonalizes one matrix in place and solves eigenvalues
only: ``a`` ends up with them on its diagonal. (Eigenvectors come from
``np.linalg.eigh``.) It works on Python numbers, floats
for a real input and complex for a complex one, with the complex rotation
of Forsythe and Henrici (Trans. AMS 94, 1960): a pivot ``g * u``, ``g``
real and ``|u| = 1``, takes the real rotation of ``g`` with ``u``'s phase,
so a real pivot (``u = 1``) gets the real rotation's arithmetic. Each
rotation computes the new rows p and q and mirrors them into columns p and
q, which is exact for the exactly Hermitian matrices that
``linalg._checked_hermitian`` gives it: a few list comprehensions, where
numpy slices cost about 25 calls per rotation.

The kernel skips a pivot that is negligible against its own diagonal,
``|a_pq| <= EPS * (sqrt|a_pp| * sqrt|a_qq|)`` (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992), and stops after a sweep that rotates
nothing. It returns the number of sweeps that rotated something, or -1 if
``max_sweeps`` were not enough. ``linalg.x_eigenvalues_stack``
gives each 2x2 block of an X matrix this kernel's one rotation, with the
same rule and constants.
"""

from __future__ import annotations

import math

# Beyond this |theta|, theta * theta overflows (or nearly does); there
# sqrt(1 + theta^2) is |theta| to working precision, so t = 1 / (2 |theta|).
BIG_THETA = 1e150
EPS = 2.0**-52


def jacobi_sweeps(a, max_sweeps):
    """Cyclic Jacobi sweeps on one Hermitian matrix, on Python numbers.

    ``a`` must be square and exactly Hermitian, unchecked here: its
    one caller passes ``linalg._checked_hermitian`` output, square by
    ``as_matrix``, and exactly Hermitian because each of its mirror pairs
    adds the same two terms, conjugated and swapped.
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


def backend_name() -> str:
    """Name of the eigen kernel backend; numpy is the only one."""
    return "numpy"
