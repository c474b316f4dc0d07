"""The one-tangles against a 50-digit reference.

``oracles.mp_one_tangles`` evaluates the exact X-state negativity in a
form that subtracts nothing, so it holds its digits where the coherence
is tiny: on the figure grids and on the ladder p = 1/2 +- 10^-k of phase
flip, where the one-tangles fall towards their point zero at p = 1/2.
Where the exact value is 0 the pipeline must print exactly +0.0.

The dense public route, which runs the iterative Jacobi kernel on states
that are not X states, is held to ``oracles.mp_eigenvalues`` of the same
float matrices within an absolute bound: a partial transpose is
indefinite, so no relative one is claimed for it.
"""

import csv
import math

import numpy as np
import pytest

from ghztangle.channels import PHASE_FLIP, CouplingConfig
from ghztangle.cli import main
from ghztangle.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from ghztangle.tangles import full_reports, negativity, two_tangle

from oracles import mp_eigenvalues, mp_one_tangles

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


# Each eigenvalue of a dense cut is within DENSE_K * EPS * max|w| of the
# exact one. Over the 750 states of dense_states at seeds 100-149 (4,500
# cuts), the worst error was 16.4 EPS * max|w| on the 8x8 one-vs-rest cuts
# and 8.6 on the 4x4 pair cuts; DENSE_K is about twice the worst.
DENSE_K = 32
EPS = 2.0**-52
PAIRS = ((0, 1), (0, 2), (1, 2))


def dense_states(rng):
    """Exactly Hermitian 3-qubit states: three each of rank 1, 2, 4 and 8, and
    three random pure states mixed with I/8 so that the least eigenvalue of
    their A|BC partial transpose is about -1e-13."""
    for rank in (1, 2, 4, 8):
        for _ in range(3):
            a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
            yield a @ a.conj().T / np.sum(np.abs(a) ** 2)
    for _ in range(3):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = np.outer(v, v.conj()) / np.vdot(v, v).real
        least = np.linalg.eigvalsh(partial_transpose(psi, 0))[0]
        mix = (0.125 + 1e-13) / (0.125 - least)
        yield mix * psi + (1.0 - mix) * np.eye(8) / 8.0


def test_dense_eigenvalues_match_the_mpmath_route():
    nearest = math.inf
    for rho in dense_states(np.random.default_rng(20)):
        rho = (rho + rho.conj().T) / 2.0
        cuts = [(partial_transpose(rho, q), lambda q=q: negativity(rho, q)) for q in range(3)]
        cuts += [
            (partial_transpose(partial_trace(rho, pair), 0), lambda pair=pair: two_tangle(rho, pair)) for pair in PAIRS
        ]
        for m, tangle in cuts:
            exact = mp_eigenvalues(m, 30)
            bound = DENSE_K * EPS * float(max(abs(w) for w in exact))
            assert max(abs(float(g - w)) for g, w in zip(hermitian_eigenvalues(m), exact)) <= bound
            if exact[0] < -bound:
                assert tangle() > 0.0
                nearest = min(nearest, -float(exact[0]))
    # The near-boundary states were among them.
    assert nearest < 1e-12
