"""Negativity-based entanglement measures for the three-qubit family.

One-tangles are negativities across one-vs-rest cuts, two-tangles are
negativities of the two-qubit reduced states, and the residual combines
them in the monogamy form N_one^2 - N_pair^2 - N_pair^2. The pi-tangle is
the average of the three residuals.

``full_reports`` evaluates many (r, coupling) points at once: it stacks
CHUNK points at a time through every stage, so the per-point cost is array
arithmetic rather than Python calls. Each stage does exactly the
arithmetic of its single-matrix counterpart, so a report does not depend
on the batch it was computed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform
from .channels import PHASE_DAMPING, CouplingConfig, dephase_stack
from .linalg import (
    _checked_keep,
    _eigenvalues,
    as_matrix,
    hermitian_eigenvalues_stack,
    partial_trace_stack,
    partial_transpose_stack,
)
from .rindler import ghz_rindler_density

CROSS_CHECK_TOL = 1e-10
# Negativities this far below zero are numerical noise and clamp to 0.
NEGATIVITY_FLOOR = 1e-10
# Points per stack in full_reports: enough to spread the per-call Python
# overhead thin, few enough that peak memory stays near the one-point run's.
CHUNK = 128

_PAIRS = ((0, 1), (0, 2), (1, 2))

# The cuts each tangle reads, as _cut indices, in the order _combine takes them.
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
    """sum(|w|) - 1 over the last axis, cross-checked against 2 * sum(|negative w|)."""
    from_norm = np.abs(w).sum(axis=-1) - 1.0
    from_negatives = -2.0 * np.where(w < 0.0, w, 0.0).sum(axis=-1)
    if np.max(np.abs(from_norm - from_negatives)) > CROSS_CHECK_TOL:
        raise RuntimeError("negativity cross-check failed")
    return from_norm


def negativity(rho, subsystem: int, n_qubits: int | None = None) -> float:
    """Trace norm of the partial transpose, minus one.

    The same spectrum is reduced along two routes, sum(|w|) - 1 and
    2 * sum(|negative w|); they agree only if the transposed matrix kept
    unit trace, so the comparison runs on every call.
    """
    rho = as_matrix(rho)
    _, n = _checked_keep(rho, (subsystem,), n_qubits)
    pt = partial_transpose_stack(rho, subsystem, n)
    return float(_negativity_from_spectra(_eigenvalues(pt)))


def two_tangle(rho, pair: tuple[int, int], n_qubits: int | None = None) -> float:
    """Negativity between the two qubits of a reduced pair state."""
    rho = as_matrix(rho)
    pair, n = _checked_keep(rho, pair, n_qubits)
    if len(pair) != 2:
        raise ValueError("pair must name two qubits")
    pt = partial_transpose_stack(partial_trace_stack(rho, pair, n), 0, 2)
    return float(_negativity_from_spectra(_eigenvalues(pt)))


def residual(n_one: float, n_pair_x: float, n_pair_y: float) -> float:
    """Monogamy residual; reported unclamped."""
    return n_one * n_one - n_pair_x * n_pair_x - n_pair_y * n_pair_y


def pi_tangle(res_a: float, res_b: float, res_c: float) -> float:
    return (res_a + res_b + res_c) / 3.0


def _clamp(x):
    """Zero out negativities in [-NEGATIVITY_FLOOR, 0); element-wise on arrays."""
    if np.min(x) < -NEGATIVITY_FLOOR:
        raise RuntimeError("negativity below tolerance floor")
    return np.where(x < 0.0, 0.0, x)


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


def full_report(r: float, cfg: CouplingConfig) -> TangleReport:
    """Run the whole pipeline at one point: state, channel, all tangles."""
    return full_reports([r], [cfg])[0]


def full_reports(r_values, configs) -> list[TangleReport]:
    """``full_report(r_values[i], configs[i])`` for every i, in order.

    Points are processed CHUNK at a time; every check of the single-point
    route (Kraus completeness, hermiticity, eigensolver convergence and
    pairing, the negativity cross-check and the clamp floor) runs on each
    whole stack.
    """
    r_values = list(r_values)
    configs = list(configs)
    if len(r_values) != len(configs):
        raise ValueError("r_values and configs differ in length")
    states = {r: ghz_rindler_density(r, r) for r in dict.fromkeys(r_values)}
    reports = []
    for start in range(0, len(configs), CHUNK):
        rs = r_values[start : start + CHUNK]
        cfgs = configs[start : start + CHUNK]
        rho = dephase_stack(cfgs, np.stack([states[r] for r in rs]))
        rows = _negativities(rho, range(6))
        reports.extend(_report(r, cfg, *row) for r, cfg, row in zip(rs, cfgs, rows))
    return reports


def _negativities(rho, cuts) -> list[list[float]]:
    """Clamped negativities of the given cuts of a dephased stack, one row per point."""
    # One cut at a time, so only one stack of embeddings is alive at once.
    columns = [_negativity_from_spectra(hermitian_eigenvalues_stack(_cut(rho, k))) for k in cuts]
    return _clamp(np.stack(columns, axis=1)).tolist()


def _cut(rho, k: int) -> np.ndarray:
    """Partial transpose of cut k: the A|BC, B|AC and C|AB cuts (k = 0, 1,
    2), then the AB, AC and BC pair states (k = 3, 4, 5)."""
    if k < 3:
        return partial_transpose_stack(rho, k, 3)
    return partial_transpose_stack(partial_trace_stack(rho, _PAIRS[k - 3], 3), 0, 2)


def _combine(row: list[float]) -> float:
    # A one- or two-tangle's single cut, a residual's three, or the
    # pi-tangle's six, combined as _report combines them.
    if len(row) == 1:
        return row[0]
    if len(row) == 3:
        return residual(*row)
    return pi_tangle(*_residuals(*row))


def _selected(r: float, configs, tangle: str) -> list[float]:
    """``getattr(full_report(r, cfg), tangle)`` for every cfg, bit for bit.

    Runs the stages of ``full_reports`` CHUNK points at a time, with every
    check on each stack, but solves only the cuts the tangle reads: one for
    a one- or two-tangle, three for a residual, six for the pi-tangle.
    """
    cuts = _SELECTOR_CUTS[tangle]
    state = ghz_rindler_density(r, r)
    values = []
    for start in range(0, len(configs), CHUNK):
        cfgs = configs[start : start + CHUNK]
        rho = dephase_stack(cfgs, np.stack([state] * len(cfgs)))
        values.extend(_combine(row) for row in _negativities(rho, cuts))
    return values


def _residuals(n_a, n_b, n_c, n_ab, n_ac, n_bc) -> tuple[float, float, float]:
    return residual(n_a, n_ab, n_ac), residual(n_b, n_ab, n_bc), residual(n_c, n_ac, n_bc)


def _report(r, cfg, n_a, n_b, n_c, n_ab, n_ac, n_bc) -> TangleReport:
    pi_a, pi_b, pi_c = _residuals(n_a, n_b, n_c, n_ab, n_ac, n_bc)
    pi = pi_tangle(pi_a, pi_b, pi_c)

    if cfg.kind == PHASE_DAMPING:
        cf_a = closedform.pd_one_tangle_A(r, *cfg.params)
        cf_bc = closedform.pd_one_tangle_BC(r, *cfg.params)
        cf_pi = closedform.pd_pi_tangle(r, *cfg.params)
    else:
        cf_a = closedform.pf_one_tangle_A(r, *cfg.params)
        cf_bc = closedform.pf_one_tangle_BC(r, *cfg.params)
        cf_pi = closedform.pf_pi_tangle(r, *cfg.params)

    return TangleReport(
        channel=cfg.kind,
        coupling=cfg.label,
        p0=cfg.p0,
        p1=cfg.p1,
        p2=cfg.p2,
        r=r,
        n_A_BC=n_a,
        n_B_AC=n_b,
        n_C_AB=n_c,
        n_AB=n_ab,
        n_AC=n_ac,
        n_BC=n_bc,
        pi_A=pi_a,
        pi_B=pi_b,
        pi_C=pi_c,
        pi_tangle=pi,
        cf_n_A_BC=cf_a,
        cf_n_BC_AC=cf_bc,
        cf_pi=cf_pi,
        dev_A=abs(n_a - cf_a),
        dev_BC=abs(n_b - cf_bc),
        dev_pi=abs(pi - cf_pi),
    )
