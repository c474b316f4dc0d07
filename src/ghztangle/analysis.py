"""Parameter sweeps, sudden-death detection, and closed-form verification."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .channels import CHANNEL_KINDS, CouplingConfig, coherence_factors
from .rindler import check_accel_param, ghz_rindler_density
from .tangles import TangleReport, full_report, full_reports

DEFAULT_R_VALUES = (0.0, math.pi / 8, math.pi / 6, math.pi / 4)
COUPLING_LABELS = ("collective", "local_alice", "custom")

# A tangle back above this after a death marks a rebound.
REBOUND_TOL = 1e-6
BISECT_WIDTH = 1e-7

CLOSED_FORM_TOL = 1e-9

# Largest (r, p) grid a SweepSpec accepts; bounds the memory of one sweep.
MAX_GRID_POINTS = 1_000_000

# The numeric tangle fields of a report, in column order.
TANGLE_SELECTORS = tuple(
    f.name for f in fields(TangleReport) if f.name.startswith(("n_", "pi_"))
)
# The pair states of an X-state are diagonal, so the two-tangles vanish
# identically: dead from p = 0.
_PAIR_SELECTORS = ("n_AB", "n_AC", "n_BC")
# Where the accelerated GHZ state may be nonzero: the diagonal except
# rho[4, 4], rho[5, 5] and rho[6, 6], and the coherence rho[0, 7] with its
# conjugate. find_esd's death criterion rests on those three zeros.
_X_SUPPORT = ((0, 1, 2, 3, 7, 0, 7), (0, 1, 2, 3, 7, 7, 0))


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
        for w in self.weights:
            if not 0.0 <= w <= 1.0:
                raise ValueError("weights must be in [0, 1]")
        if len(self.r_values) == 0:
            raise ValueError("empty r list")
        for r in self.r_values:
            check_accel_param(r)
        if not 0.0 <= self.p_start <= self.p_stop <= 1.0:
            raise ValueError("p range must satisfy 0 <= start <= stop <= 1")
        if not self.p_step > 0.0:
            raise ValueError("p step must be positive")
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
        if abs(grid[-1] - self.p_stop) < self.p_step * 1e-9:
            grid[-1] = self.p_stop
        return grid

    def config_at(self, p: float) -> CouplingConfig:
        if self.coupling == "collective":
            return CouplingConfig.collective(self.channel, p)
        if self.coupling == "local_alice":
            return CouplingConfig.local_alice(self.channel, p)
        w0, w1, w2 = self.weights
        return CouplingConfig(self.channel, w0 * p, w1 * p, w2 * p, label="custom")


def sweep(spec: SweepSpec) -> list[TangleReport]:
    """All reports on the grid, r-major, p ascending within each r."""
    configs = [spec.config_at(p) for p in spec.p_grid()]
    r_values = [r for r in spec.r_values for _ in configs]
    return full_reports(r_values, configs * len(spec.r_values))


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


def _check_x_state(r: float) -> None:
    """RuntimeError unless ghz_rindler_density(r, r) is zero off _X_SUPPORT."""
    rest = ghz_rindler_density(r, r)
    rest[_X_SUPPORT] = 0.0
    if np.any(rest != 0.0):
        raise RuntimeError("state is not an X-state; the exact death criterion does not apply")


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
    pi-tangle are dead exactly where some factor is zero; the two-tangles
    always are (p_star = 0). A factor that changes sign between two p
    values passed through zero there.

    A coarse pass over the default p grid brackets the first death,
    bisection narrows it to BISECT_WIDTH and p_star is the bracket's upper
    end. A scan beyond p_star looks for a rebound of the tangle above
    REBOUND_TOL. When the tangle never dies on the grid the result carries
    p_star = 1 and the no_esd flag. RuntimeError if the state is not such
    an X-state.
    """
    if tangle not in TANGLE_SELECTORS:
        raise ValueError(f"unknown tangle selector {tangle!r}")
    spec = SweepSpec(channel, coupling, weights=weights, r_values=(check_accel_param(r),))
    _check_x_state(r)
    pair = tangle in _PAIR_SELECTORS

    def died(f_lo, f) -> bool:
        # Dead at f, or passed through a zero of some factor since f_lo.
        return pair or any(a * b <= 0.0 for a, b in zip(f_lo, f))

    def value(p: float) -> float:
        return getattr(full_report(r, spec.config_at(p)), tangle)

    grid = spec.p_grid()
    coeffs = [coherence_factors(spec.config_at(p)) for p in grid]
    # The first grid point has nothing to cross from, so it is compared with itself.
    first = next((i for i, f in enumerate(coeffs) if died(coeffs[i - 1] if i else f, f)), None)
    if first is None:
        return EsdResult(channel, coupling, r, tangle, 1.0, True, False, None)

    if first == 0:
        p_star = grid[0]
    else:
        lo, hi = grid[first - 1], grid[first]
        while hi - lo > BISECT_WIDTH:
            mid = (lo + hi) / 2.0
            if died(coeffs[first - 1], coherence_factors(spec.config_at(mid))):
                hi = mid
            else:
                lo = mid
        p_star = hi

    reports = full_reports([r] * len(grid), [spec.config_at(p) for p in grid])
    vals = [getattr(rep, tangle) for rep in reports]
    rebound = False
    onset = None
    after = next((j for j in range(first, len(grid)) if grid[j] > p_star and vals[j] > REBOUND_TOL), None)
    if after is not None:
        rebound = True
        lo, hi = max(grid[after - 1], p_star), grid[after]
        while hi - lo > BISECT_WIDTH:
            mid = (lo + hi) / 2.0
            if value(mid) > REBOUND_TOL:
                hi = mid
            else:
                lo = mid
        onset = hi
    return EsdResult(channel, coupling, r, tangle, p_star, False, rebound, onset)


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

    Both coupling patterns are exercised. The BC expressions claim the B and
    C one-tangles alike, so their deviation takes the worse of the two.
    """
    checks = []
    for channel in CHANNEL_KINDS:
        worst = {
            "one_tangle_A": None,
            "one_tangle_BC": None,
            "pi_tangle": None,
        }

        def consider(quantity, dev, rep, numeric, closed):
            cur = worst[quantity]
            if cur is None or dev > cur.max_dev:
                worst[quantity] = EquationCheck(
                    channel, quantity, dev, rep.r, rep.p0, rep.coupling, numeric, closed
                )

        for coupling in ("collective", "local_alice"):
            spec = SweepSpec(channel, coupling, r_values=tuple(r_values), p_step=p_step)
            for rep in sweep(spec):
                consider("one_tangle_A", rep.dev_A, rep, rep.n_A_BC, rep.cf_n_A_BC)
                dev_b = abs(rep.n_B_AC - rep.cf_n_BC_AC)
                dev_c = abs(rep.n_C_AB - rep.cf_n_BC_AC)
                if dev_c > dev_b:
                    consider("one_tangle_BC", dev_c, rep, rep.n_C_AB, rep.cf_n_BC_AC)
                else:
                    consider("one_tangle_BC", dev_b, rep, rep.n_B_AC, rep.cf_n_BC_AC)
                consider("pi_tangle", rep.dev_pi, rep, rep.pi_tangle, rep.cf_pi)
        checks.extend(worst[q] for q in ("one_tangle_A", "one_tangle_BC", "pi_tangle"))
    return VerificationReport(
        checks=tuple(checks),
        tolerance=CLOSED_FORM_TOL,
        errata=ERRATA,
        r_values=tuple(r_values),
        p_step=p_step,
    )
