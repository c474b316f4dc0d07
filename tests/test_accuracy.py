"""The one-tangles against a 50-digit reference.

``oracles.mp_one_tangles`` evaluates the exact X-state negativity in a
form that subtracts nothing, so it holds its digits where the coherence
is tiny: on the figure grids and on the ladder p = 1/2 +- 10^-k of phase
flip, where the one-tangles fall towards their point zero at p = 1/2.
Where the exact value is 0 the pipeline must print exactly +0.0.
"""

import csv
import math

import pytest

from ghztangle.channels import PHASE_FLIP, CouplingConfig
from ghztangle.cli import main
from ghztangle.tangles import full_reports

from oracles import mp_one_tangles

REL_TOL = 1e-12
ONE_TANGLES = ("n_A_BC", "n_B_AC", "n_C_AB")
LADDER_R = (0.0, math.pi / 8, math.pi / 4)

def _assert_within(got: float, exact, where):
    if exact == 0:
        assert got == 0.0 and math.copysign(1.0, got) == 1.0, where
    else:
        assert abs(got - exact) <= REL_TOL * exact, where


@pytest.mark.parametrize("figure", [1, 2, 3])
def test_figure_one_tangles_match_the_mpmath_route(figure, tmp_path, capsys):
    assert main(["figure", str(figure), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 2
    for path in paths:
        with path.open(newline="") as f:
            for row in csv.DictReader(f):
                params = (float(row[k]) for k in ("p0", "p1", "p2"))
                exact = mp_one_tangles(float(row["r"]), row["channel"], *params)
                for name, e in zip(ONE_TANGLES, exact):
                    _assert_within(float(row[name]), e, (path.name, row["r"], row["p0"], name))


# The coherence of a cut at p = 1/2 +- 10^-k is c^2 (2 10^-k)^3 / 2 under
# collective coupling and c^2 10^-k under local-Alice coupling: at k = 15
# about 1e-45 and 1e-16. The Jacobi stop test is relative to the cut's own
# diagonal, so each is rotated however small it is.
@pytest.mark.parametrize("k", range(2, 16))
@pytest.mark.parametrize("coupling", ["collective", "local_alice"])
def test_ladder_towards_the_phase_flip_death(coupling, k):
    configs = [getattr(CouplingConfig, coupling)(PHASE_FLIP, 0.5 + s * 10.0**-k) for s in (-1.0, 1.0)]
    points = [(r, cfg) for r in LADDER_R for cfg in configs]
    reports = full_reports([r for r, _ in points], [cfg for _, cfg in points])
    for rep, (r, cfg) in zip(reports, points):
        exact = mp_one_tangles(r, PHASE_FLIP, *cfg.params)
        assert min(exact) > 0
        for name, e in zip(ONE_TANGLES, exact):
            _assert_within(getattr(rep, name), e, (r, cfg.p0, name))
