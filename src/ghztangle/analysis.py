"""Parameter sweeps, sudden-death detection, and closed-form verification."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channels import CHANNEL_KINDS, PHASE_FLIP, CouplingConfig, _coherence_factors, _first_zero
from .rindler import check_accel_param, ghz_rindler_density
from .tangles import NUMERIC_COLUMNS, TangleReport, report_chunks

DEFAULT_R_VALUES = (0.0, math.pi / 8, math.pi / 6, math.pi / 4)
# Per-qubit weights of the swept p; a "custom" coupling takes the spec's.
_COUPLING_WEIGHTS = {"collective": (1.0, 1.0, 1.0), "local_alice": (1.0, 0.0, 0.0)}
COUPLING_LABELS = (*_COUPLING_WEIGHTS, "custom")

# A tangle back above this after a death marks a rebound.
REBOUND_TOL = 1e-6
BISECT_WIDTH = 1e-7

CLOSED_FORM_TOL = 1e-9
# verify's worst gaps closer than this, relatively, are a tie: the first is kept.
_TIE_TOL = 1e-12

# Largest (r, p) grid a SweepSpec accepts. A sweep holds its r, channel and
# parameter arrays whole, and CHUNK rows of everything else.
MAX_GRID_POINTS = 1_000_000

# The numeric tangle fields of a report, in column order.
TANGLE_SELECTORS = tuple(
    f.name for f in fields(TangleReport) if f.name.startswith(("n_", "pi_"))
)
# The pair states of an X-state are diagonal, so the two-tangles vanish
# identically: dead from p = 0.
_PAIR_SELECTORS = ("n_AB", "n_AC", "n_BC")
# False where find_esd's death proof allows a nonzero entry: rho[j, j] for
# j = 0..3 and 7, and the coherence rho[0, 7] with its mirror rho[7, 0].
_OFF_SUPPORT = np.ones((8, 8), dtype=bool)
_OFF_SUPPORT[[0, 1, 2, 3, 7, 0, 7], [0, 1, 2, 3, 7, 7, 0]] = False


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: which channel couples how, over which (r, p) values."""

    channel: str
    coupling: str = "collective"
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    r_values: tuple[float, ...] = DEFAULT_R_VALUES
    p_start: float = 0.0
    p_stop: float = 1.0
    p_step: float = 0.01

    def __post_init__(self):
        if self.channel not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channel!r}")
        if self.coupling not in COUPLING_LABELS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if len(self.r_values) == 0:
            raise ValueError("empty r list")
        for r in self.r_values:
            check_accel_param(r)
        if len(self.weights) != 3:
            raise ValueError("weights must be three values, one per qubit")
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError("weights must be in [0, 1]")
        if self.coupling != "custom" and tuple(self.weights) != (1.0, 1.0, 1.0):
            raise ValueError("weights apply only to coupling 'custom'")
        if not 0.0 <= self.p_start <= self.p_stop <= 1.0:
            raise ValueError("p range must satisfy 0 <= start <= stop <= 1")
        if not 0.0 < self.p_step < math.inf:
            raise ValueError("p step must be positive and finite")
        # Counted, never built, so a tiny step fails before allocating.
        if len(self.r_values) * self._p_count() > MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} (r, p) points")

    def _p_count(self) -> int:
        # min() keeps the count finite when a tiny step overflows it; a count
        # that large is rejected either way.
        steps = min((self.p_stop - self.p_start) / self.p_step + 1e-9, MAX_GRID_POINTS)
        return math.floor(steps) + 1

    def p_grid(self) -> list[float]:
        """Inclusive grid from p_start in steps of p_step."""
        grid = [round(self.p_start + i * self.p_step, 12) for i in range(self._p_count())]
        if len(grid) > 1 and abs(grid[-1] - self.p_stop) < self.p_step * 1e-9:
            grid[-1] = self.p_stop
        return grid

    def _weights(self) -> tuple[float, float, float]:
        """The per-qubit weights of the swept p."""
        return _COUPLING_WEIGHTS.get(self.coupling, self.weights)

    def config_at(self, p: float) -> CouplingConfig:
        w0, w1, w2 = self._weights()
        return CouplingConfig(self.channel, w0 * p, w1 * p, w2 * p, label=self.coupling)

    def _params(self, ps) -> np.ndarray:
        """``config_at(p).params`` for every p >= 0, bit for bit, as an (N, 3) array; unchecked."""
        return np.multiply.outer(np.asarray(ps, dtype=float), self._weights())


# find_esd's rebound grid: the default one, the same for every search.
_ESD_GRID = tuple(SweepSpec(PHASE_FLIP).p_grid())


def sweep(spec: SweepSpec) -> list[TangleReport]:
    """All reports on the grid, r-major, p ascending within each r."""
    rows = (row for values in sweep_chunks(spec) for row in values.tolist())
    return [TangleReport(spec.channel, spec.coupling, *row) for row in rows]


def sweep_chunks(spec: SweepSpec):
    """The rows of ``sweep(spec)`` as ``tangles.report_chunks`` yields them."""
    grid = spec._params(spec.p_grid())
    r = np.repeat(np.array(spec.r_values, dtype=float), len(grid))
    params = np.tile(grid, (len(spec.r_values), 1))
    return report_chunks(r, np.full(len(r), spec.channel == PHASE_FLIP), params)


@dataclass(frozen=True)
class EsdResult:
    channel: str
    coupling: str
    r: float
    tangle: str
    p_star: float
    no_esd: bool
    rebound: bool
    rebound_onset: float | None


def _check_x_state(r: float) -> tuple[tuple[float, float, float], float]:
    """The cut diagonals (rho[3, 3], rho[2, 2], rho[1, 1]) and the coherence rho[0, 7]
    of ``ghz_rindler_density(r, r)`` as Python floats; RuntimeError unless it is real,
    zero on ``_OFF_SUPPORT``, and rho[7, 0] == rho[0, 7], which NaN is not.
    Every decision of find_esd rests on this shape: each cut holds one block, and the
    pair states are diagonal, so the pair tangles are 0 and a residual is n*n."""
    rho = ghz_rindler_density(r, r)
    if np.count_nonzero(rho.imag):
        raise RuntimeError("state has an imaginary part; the exact death criterion needs a real one")
    rho = rho.real
    if np.count_nonzero(rho[_OFF_SUPPORT]) or rho.item(0, 7) != rho.item(7, 0):
        raise RuntimeError("state is not an X-state; the exact death criterion does not apply")
    return (rho.item(3, 3), rho.item(2, 2), rho.item(1, 1)), rho.item(0, 7)


def find_esd(
    channel: str,
    r: float,
    tangle: str = "n_A_BC",
    coupling: str = "collective",
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> EsdResult:
    """Locate the smallest p where the selected tangle drops to zero.

    Death is decided exactly, never by thresholding a computed tangle. The
    state is an X-state with rho[4, 4] = rho[5, 5] = rho[6, 6] = 0, and the
    channel keeps its diagonal and scales its one coherence by the product
    of the per-qubit ``coherence_factors``. Each one-vs-rest partial
    transpose then holds a block [[d, c], [c*, 0]], which has a negative
    eigenvalue unless c = 0. So a one-tangle, its residual and the
    pi-tangle are dead exactly where some factor is zero: p_star is
    ``channels._first_zero`` of the weights.

    Three answers come from this proof, with nothing evaluated: a two-tangle
    is dead from p = 0 with no rebound (the pair states are diagonal); with
    no zero, p_star is 1 with the no_esd flag; a death on the last grid
    point leaves nothing to rebound on. Else ``_rebound_onset`` looks for a
    rebound above REBOUND_TOL, each point decided from the exact one-tangles
    ``_x_one_tangles`` of the cuts the selector reads, on the Python floats
    ``_check_x_state`` returns once per search. The pair tangles are 0, so
    a residual n*n - 0*0 - 0*0 is n*n and the pi-tangle their mean, bit for
    bit what ``residual`` and ``pi_tangle`` give. RuntimeError if the state
    is not such an X-state; ValueError for any input ``SweepSpec`` refuses.
    """
    if tangle not in TANGLE_SELECTORS:
        raise ValueError(f"unknown tangle selector {tangle!r}")
    spec = SweepSpec(channel, coupling, weights=weights, r_values=(r,))
    cut_diags, coherence = _check_x_state(r)
    if tangle in _PAIR_SELECTORS:
        return EsdResult(channel, coupling, r, tangle, 0.0, False, False, None)
    ws, column = spec._weights(), TANGLE_SELECTORS.index(tangle)
    p_star = _first_zero(channel, ws)
    if p_star is None:
        return EsdResult(channel, coupling, r, tangle, 1.0, True, False, None)
    # Columns 0-2 are the one-tangles, 6-8 their residuals and 9 the pi-tangle:
    # n_X_YZ and pi_X read the cut of X alone, the pi-tangle all three.
    cuts = cut_diags if tangle == "pi_tangle" else (cut_diags[column % 3],)

    def rebounded(p: float) -> bool:
        n = _x_one_tangles(channel, cuts, coherence, [w * p for w in ws])
        if column < 3:
            return n[0] > REBOUND_TOL
        if column < 9:
            return n[0] * n[0] > REBOUND_TOL
        return (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) / 3.0 > REBOUND_TOL

    onset = _rebound_onset(p_star, rebounded)
    return EsdResult(channel, coupling, r, tangle, p_star, False, onset is not None, onset)


def _x_one_tangles(channel: str, cuts: tuple[float, ...], c: float, params) -> list[float]:
    """On Python floats, the one-tangle of each cut whose diagonal d is in ``cuts``
    (rho[3, 3] for A|BC, rho[2, 2] for B|AC, rho[1, 1] for C|AB) after the channel at
    ``params``. The coherence c = rho[0, 7] becomes c f0 f1 f2, and each cut holds one
    block [[d, c], [c, 0]], whose negativity sqrt(d^2 + 4c^2) - d is written without
    cancellation (Yu and Eberly, QIC 7, 459, 2007). The pair tangles are 0, so the
    cut's residual is n*n."""
    for x in params:
        c *= _coherence_factors(channel, x)
    b = 4.0 * c * c
    return [b / (math.sqrt(d * d + b) + d) if b else 0.0 for d in cuts]


def _rebound_onset(p_star: float, decide) -> float | None:
    """The first point p of ``_ESD_GRID`` beyond p_star with ``decide(p)``,
    bisected from the point before it, or p_star, down to BISECT_WIDTH: the
    upper end, or None. Each point is decided once, in order; with no grid
    point beyond p_star (p_star = 1) nothing is asked."""
    lo = p_star
    for hi in (p for p in _ESD_GRID if p > p_star):
        if decide(hi):
            while hi - lo > BISECT_WIDTH:
                mid = (lo + hi) / 2.0
                if decide(mid):
                    hi = mid
                else:
                    lo = mid
            return hi
        lo = hi
    return None


def _gaps(col: dict):
    """(quantity, gap, numeric, closed) columns of each verified closed form.

    The BC expressions claim the B and C one-tangles alike, so their gap
    takes the worse of the two, the B one-tangle on a tie.
    """
    dev_c = abs(col["n_C_AB"] - col["cf_n_BC_AC"])
    c_worse = dev_c > col["dev_BC"]
    return (
        ("one_tangle_A", col["dev_A"], col["n_A_BC"], col["cf_n_A_BC"]),
        (
            "one_tangle_BC",
            np.where(c_worse, dev_c, col["dev_BC"]),
            np.where(c_worse, col["n_C_AB"], col["n_B_AC"]),
            col["cf_n_BC_AC"],
        ),
        ("pi_tangle", col["dev_pi"], col["pi_tangle"], col["cf_pi"]),
    )


# Known defects of the reference material, surfaced with every report.
ERRATA = (
    "state normalization: the three-qubit construction carries an overall 1/2 "
    "so the trace is one; a 1/sqrt(2) prefactor would not normalize it",
    "phase damping operators: the second Kraus operator is diag(0, sqrt(p)); "
    "with diag(1, sqrt(p)) the pair would violate sum(E^dag E) = I",
    "channel naming: the closed forms built on |1-2p| coherence factors "
    "describe the phase-flip channel, not a depolarizing channel",
)


@dataclass(frozen=True)
class EquationCheck:
    """Worst observed gap between one closed form and the numeric pipeline."""

    channel: str
    quantity: str
    max_dev: float
    r_at: float
    p_at: float
    coupling_at: str
    numeric: float
    closed: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= CLOSED_FORM_TOL


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[EquationCheck, ...]
    tolerance: float
    errata: tuple[str, ...]
    r_values: tuple[float, ...]
    p_step: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[EquationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify(
    r_values: tuple[float, ...] = DEFAULT_R_VALUES,
    p_step: float = 0.01,
) -> VerificationReport:
    """Compare every closed form against the pipeline over the whole grid.

    Both coupling patterns are exercised. Each stack of rows is folded into
    a running worst gap per closed form as it is computed, so memory does
    not grow with the grid.
    """
    checks = []
    for channel in CHANNEL_KINDS:
        # quantity -> the EquationCheck fields after it, from its worst row so far.
        worst = {}
        for coupling in ("collective", "local_alice"):
            spec = SweepSpec(channel, coupling, r_values=tuple(r_values), p_step=p_step)
            for values in sweep_chunks(spec):
                col = dict(zip(NUMERIC_COLUMNS, values.T))
                for quantity, dev, numeric, closed in _gaps(col):
                    # Under phase flip the gaps at p and 1 - p differ by rounding
                    # only; the first of the tied worst rows is the one reported.
                    i = int(np.argmax(dev >= dev.max() * (1.0 - _TIE_TOL)))
                    if quantity not in worst or dev[i] > worst[quantity][0] * (1.0 + _TIE_TOL):
                        r, p = col["r"][i].item(), col["p0"][i].item()
                        worst[quantity] = (dev[i].item(), r, p, coupling, numeric[i].item(), closed[i].item())
        checks += [EquationCheck(channel, quantity, *row) for quantity, row in worst.items()]
    return VerificationReport(
        checks=tuple(checks),
        tolerance=CLOSED_FORM_TOL,
        errata=ERRATA,
        r_values=tuple(r_values),
        p_step=p_step,
    )
