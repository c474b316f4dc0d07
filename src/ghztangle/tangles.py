"""Negativity-based entanglement measures for the three-qubit family.

One-tangles are negativities across one-vs-rest cuts, two-tangles are
negativities of the two-qubit reduced states, and the residual combines
them in the monogamy form N_one^2 - N_pair^2 - N_pair^2. The pi-tangle is
the average of the three residuals.

``report_chunks`` evaluates many points at once, given as arrays: it
stacks CHUNK points at a time through every stage and yields each stack's
report rows as one float array. The channel keeps the diagonal, so the
pair cuts are sorted and cross-checked once per call, per distinct state.
A stack then costs a fixed number of numpy calls, whatever its size: one
dephasing, one solve and one cross-check for its one-vs-rest cuts, two
closed-form calls per channel. ``_selected``, the sudden-death search's
route, evaluates one state's points in one stack and only the cuts its
tangle reads. Each state is an X state, carried as its diagonal and
anti-diagonal (``_x_parts``). Each stage does exactly the arithmetic of
its single-matrix counterpart, so a value does not depend on the stack
it was computed in. ``full_reports`` turns ``CouplingConfig`` points
into those arrays and the rows into ``TangleReport`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import closedform
from .channels import PHASE_DAMPING, PHASE_FLIP, CouplingConfig, dephase_x
from .linalg import _checked_keep, _eigenvalues, _partial_trace, _partial_transpose, as_matrix, x_eigenvalues_stack
from .rindler import ghz_rindler_density

CROSS_CHECK_TOL = 1e-10
# Points per stack in full_reports: enough to spread the per-call Python
# overhead thin, few enough that peak memory stays near the one-point run's.
CHUNK = 512

_J = np.arange(8)
# The entries (i, j) of an 8x8 matrix off its diagonal and anti-diagonal.
_OFF_X = (_J[:, None] != _J) & (_J[:, None] + _J != 7)
# Per one-vs-rest cut k = 0, 1, 2, the anti-diagonal of its partial transpose as indices
# into the state's: the transpose moves coherence (j, 7-j) to (j^b, 7-(j^b)), b = 4 >> k.
_FLIPPED = _J ^ (4 >> np.arange(3))[:, None]
# Per pair q = 0, 1, 2 (AB, AC, BC; cut 3 + q), the two diagonal entries summed into each
# of its four probabilities: bit q, the traced qubit's, clear and set.
_PAIR_LOW = np.array([[j for j in range(8) if not j >> q & 1] for q in range(3)])
_PAIR_HIGH = _PAIR_LOW | (1 << np.arange(3))[:, None]

# The cuts each tangle reads (0-2: A|BC, B|AC, C|AB; 3-5: AB, AC, BC), in the order _combine takes them.
_SELECTOR_CUTS = {
    "n_A_BC": (0,),
    "n_B_AC": (1,),
    "n_C_AB": (2,),
    "n_AB": (3,),
    "n_AC": (4,),
    "n_BC": (5,),
    "pi_A": (0, 3, 4),
    "pi_B": (1, 3, 5),
    "pi_C": (2, 4, 5),
    "pi_tangle": tuple(range(6)),
}


def _negativity_from_spectra(w: np.ndarray) -> np.ndarray:
    """-2 * sum(negative w) over the last axis, cross-checked against sum(|w|) - 1.

    A spectrum without a negative eigenvalue gives exactly +0.0. A spectrum
    holding NaN or an infinity fails the cross-check; an empty stack passes.
    """
    from_negatives = -2.0 * np.where(w < 0.0, w, 0.0).sum(axis=-1) + 0.0
    from_norm = np.abs(w).sum(axis=-1) - 1.0
    # An infinite spectrum gives inf - inf here: NaN, which fails the check.
    with np.errstate(invalid="ignore"):
        gap = np.abs(from_norm - from_negatives)
    if not np.max(gap, initial=0.0) <= CROSS_CHECK_TOL:
        raise RuntimeError("negativity cross-check failed")
    return from_negatives


def _check_unit_trace(rho: np.ndarray) -> None:
    with np.errstate(over="ignore"):
        if not abs(np.trace(rho).real - 1.0) <= CROSS_CHECK_TOL:
            raise ValueError("trace must be 1")


def negativity(rho, subsystem: int, n_qubits: int | None = None) -> float:
    """Trace norm of the partial transpose, minus one.

    The same spectrum is reduced along two routes, 2 * sum(|negative w|)
    and sum(|w|) - 1. Their gap is tr - 1 for a Hermitian matrix, so a trace
    further than CROSS_CHECK_TOL from 1 is refused first, as a ValueError,
    and the comparison guards the solve on every call. The first is the
    value: it does not cancel near 0, and it is never negative.
    """
    rho = as_matrix(rho)
    _, n = _checked_keep(rho, (subsystem,), n_qubits)
    _check_unit_trace(rho)
    pt = _partial_transpose(rho, subsystem, n)
    return float(_negativity_from_spectra(_eigenvalues(pt)))


def two_tangle(rho, pair: tuple[int, int], n_qubits: int | None = None) -> float:
    """Negativity between the two qubits of a reduced pair state."""
    rho = as_matrix(rho)
    pair, n = _checked_keep(rho, pair, n_qubits)
    if len(pair) != 2:
        raise ValueError("pair must name two qubits")
    _check_unit_trace(rho)
    pt = _partial_transpose(_partial_trace(rho, pair, n), 0, 2)
    return float(_negativity_from_spectra(_eigenvalues(pt)))


def residual(n_one: float, n_pair_x: float, n_pair_y: float) -> float:
    """Monogamy residual; reported unclamped. Element-wise on arrays."""
    return n_one * n_one - n_pair_x * n_pair_x - n_pair_y * n_pair_y


def pi_tangle(res_a: float, res_b: float, res_c: float) -> float:
    return (res_a + res_b + res_c) / 3.0


@dataclass(frozen=True)
class TangleReport:
    """Every tangle at one (r, coupling) point, numeric and closed-form.

    Field order matches the output column order exactly.

    ``dev_BC`` compares only ``n_B_AC`` with ``cf_n_BC_AC``. The BC closed
    form claims the B and C one-tangles alike, and they coincide when
    p1 = p2 (collective and local-Alice coupling); ``verify`` takes the
    worse of the two, which differs under custom weights. The field keeps
    the B-only definition because changing it would move pinned output
    bytes: 8 of the 404 ``dev_BC`` cells of the weighted phase-damping
    sweep that ``tests/test_golden.py`` pins.
    """

    channel: str
    coupling: str
    p0: float
    p1: float
    p2: float
    r: float
    n_A_BC: float
    n_B_AC: float
    n_C_AB: float
    n_AB: float
    n_AC: float
    n_BC: float
    pi_A: float
    pi_B: float
    pi_C: float
    pi_tangle: float
    cf_n_A_BC: float
    cf_n_BC_AC: float
    cf_pi: float
    dev_A: float
    dev_BC: float
    dev_pi: float


# The report fields after channel and coupling: the columns of report_chunks.
NUMERIC_COLUMNS = tuple(f.name for f in fields(TangleReport))[2:]

# cf_n_A_BC and cf_n_BC_AC of each channel, as closedform names.
_CLOSED_FORMS = {
    PHASE_DAMPING: ("pd_one_tangle_A", "pd_one_tangle_BC"),
    PHASE_FLIP: ("pf_one_tangle_A", "pf_one_tangle_BC"),
}


def full_report(r: float, cfg: CouplingConfig) -> TangleReport:
    """Run the whole pipeline at one point: state, channel, all tangles."""
    return full_reports([r], [cfg])[0]


def full_reports(r_values, configs) -> list[TangleReport]:
    """``full_report(r_values[i], configs[i])`` for every i, in order."""
    configs = list(configs)
    flip = np.array([cfg.kind == PHASE_FLIP for cfg in configs], dtype=bool)
    params = np.array([cfg.params for cfg in configs], dtype=float).reshape(-1, 3)
    chunks = report_chunks(np.array(r_values, dtype=float), flip, params)
    rows = (row for values in chunks for row in values.tolist())
    return [TangleReport(cfg.kind, cfg.label, *row) for row, cfg in zip(rows, configs)]


def report_chunks(r: np.ndarray, flip: np.ndarray, params: np.ndarray):
    """The report rows of the points (r[i], flip[i], params[i]), CHUNK at a time.

    ``r`` is (N,), ``flip`` a bool (N,) array, true where the channel is
    phase flip and false for phase damping, and ``params`` (N, 3). Yields a
    ``(n, 20)`` float array per stack, with columns NUMERIC_COLUMNS. The
    lengths and the parameter range are checked once per call, each
    distinct-r state once (``_x_parts``: real, X shape, exact symmetry),
    the pair cuts' negativities are cross-checked once per call and the
    one-vs-rest cuts' on each whole stack, in one call each. The residuals,
    pi-tangle and deviations are array arithmetic in the order of their
    scalar forms, and each one-tangle closed form is called once per stack
    and channel present, with r and the parameters as arrays, and cf_pi
    combined from their values, so a value does not depend on the stack it
    was computed in.
    """
    if not len(r) == len(flip) == len(params):
        raise ValueError("r, flip and params differ in length")
    # Written so that NaN fails too.
    if not ((0 <= params) & (params <= 1)).all():
        raise ValueError("p must be in [0, 1]")
    values, index = np.unique(r, return_inverse=True)
    diag, anti = _x_parts(np.array([ghz_rindler_density(v, v) for v in values.tolist()]))
    n_pairs = _negativity_from_spectra(_pair_spectra(diag, range(3)))
    for start in range(0, len(r), CHUNK):
        at = slice(start, start + CHUNK)
        rows = index[at]
        a = dephase_x(flip[at], params[at], anti[rows])
        n = (*_negativity_from_spectra(_one_vs_rest_spectra(diag[rows], a, range(3))).T, *n_pairs[rows].T)
        pi_a, pi_b, pi_c = _residuals(*n)
        pi = pi_tangle(pi_a, pi_b, pi_c)
        cf_a, cf_bc, cf_pi = _closed_forms(r[at], flip[at], params[at])
        columns = (
            *params[at].T, r[at],
            *n, pi_a, pi_b, pi_c, pi,
            cf_a, cf_bc, cf_pi, abs(n[0] - cf_a), abs(n[1] - cf_bc), abs(pi - cf_pi),
        )  # fmt: skip
        yield np.stack(columns, axis=1)


def _x_parts(states) -> tuple[np.ndarray, np.ndarray]:
    """The float64 ``(N, 8)`` diagonals and anti-diagonals ``anti[:, j] = rho[j, 7-j]``
    of a stack of 8x8 states; ``RuntimeError`` unless each is real, zero
    off its diagonal and anti-diagonal, and exactly symmetric, which NaN is not."""
    states = states.reshape(-1, 8, 8)
    if (states.imag != 0.0).any():
        raise RuntimeError("state has an imaginary part; the float64 stack route needs a real one")
    states = states.real
    anti = np.diagonal(states[:, :, ::-1], axis1=1, axis2=2).copy()
    if states[:, _OFF_X].any() or not np.array_equal(anti, anti[:, ::-1]):
        raise RuntimeError("state is not an X-state; the stack route needs exactly symmetric X matrices")
    return np.diagonal(states, axis1=1, axis2=2).copy(), anti


def _closed_forms(r, flip, params) -> np.ndarray:
    """The cf_n_A_BC, cf_n_BC_AC and cf_pi columns of a stack, one row each: the
    A and BC closed forms called through ``closedform`` on the rows of their
    channel, as arrays, and cf_pi combined from them as the pi-tangle forms do."""
    out = np.empty((3, len(r)))
    for kind, rows in ((PHASE_DAMPING, ~flip), (PHASE_FLIP, flip)):
        if rows.any():
            p0, p1, p2 = params[rows].T
            for column, name in zip(out, _CLOSED_FORMS[kind]):
                column[rows] = getattr(closedform, name)(r[rows], p0, p1, p2)
    out[2] = closedform._pi(out[0], out[1])
    return out


def _one_vs_rest_spectra(diag, anti, cuts) -> np.ndarray:
    """``(N, len(cuts), 8)`` spectra of the one-vs-rest cuts k = 0, 1, 2
    (A|BC, B|AC, C|AB) of X states, all solved in one call: each cut's
    partial transpose is the X matrix with anti-diagonal ``anti[:, _FLIPPED[k]]``."""
    diag = np.repeat(diag, len(cuts), axis=0)
    return x_eigenvalues_stack(diag, anti[:, _FLIPPED[cuts]].reshape(-1, 8)).reshape(len(anti), len(cuts), 8)


def _pair_spectra(diag, pairs) -> np.ndarray:
    """``(N, len(pairs), 4)`` spectra of the pair states q = 0, 1, 2 (AB, AC,
    BC) of X states, sorted in one call. They are diagonal: every coherence
    joins states that differ in all three qubits, so a partial trace drops
    it (Yu and Eberly, 2007)."""
    return np.sort(diag[:, _PAIR_LOW[pairs]] + diag[:, _PAIR_HIGH[pairs]])


def _combine(n: np.ndarray) -> np.ndarray:
    # A one- or two-tangle's single cut, a residual's three, or the
    # pi-tangle's six, combined as report_chunks combines them.
    if len(n) == 1:
        return n[0]
    if len(n) == 3:
        return residual(*n)
    return pi_tangle(*_residuals(*n))


def _selected(kind: str, r: float, params: np.ndarray, tangle: str, parts=None) -> list[float]:
    """``getattr(full_report(r, cfg), tangle)`` for the ``kind`` cfg of each row of ``params``, bit for bit:
    ``report_chunks``' arithmetic and checks on only the cuts the tangle reads, all points in
    one stack (a search asks at most 117: 100 grid points beyond p_star, 17 bisection
    midpoints). ``parts`` is r's state as ``_x_parts`` gives it, if already split."""
    diag, anti = _x_parts(ghz_rindler_density(r, r)) if parts is None else parts
    cuts = _SELECTOR_CUTS[tangle]
    ones, pairs = [k for k in cuts if k < 3], [k - 3 for k in cuts if k >= 3]
    n = np.empty((len(cuts), len(params)))
    if ones:
        a = dephase_x(np.full(len(params), kind == PHASE_FLIP), params, anti)
        n[: len(ones)] = _negativity_from_spectra(_one_vs_rest_spectra(np.repeat(diag, len(a), axis=0), a, ones)).T
    if pairs:
        n[len(ones) :] = _negativity_from_spectra(_pair_spectra(diag, pairs)).T
    return _combine(n).tolist()


def _residuals(n_a, n_b, n_c, n_ab, n_ac, n_bc):
    return residual(n_a, n_ab, n_ac), residual(n_b, n_ab, n_bc), residual(n_c, n_ac, n_bc)
