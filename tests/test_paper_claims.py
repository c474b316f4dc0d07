"""Ledger of the paper's sudden-death claims, one verdict line each.

Each test prints "[claim NN] <claim>: <verdict>" past the capture plugin,
or FAIL when the facts behind the verdict do not hold. The assertions are
about the exact X-state route and the package's own searches, not about
the paper's wording: the state's one coherence is scaled by the product g
of the per-qubit coherence factors, and a tangle dies only where g = 0.
"""

import contextlib
import math

import pytest

from ghztangle.analysis import REBOUND_TOL, find_esd
from ghztangle.channels import CouplingConfig, coherence_factors
from ghztangle.rindler import R_MAX
from ghztangle.tangles import full_report

from oracles import x_state_one_tangles


@pytest.fixture
def claim(capsys):
    @contextlib.contextmanager
    def _claim(num, name, verdict):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[claim {num:02d}] {name}: {verdict if ok else 'FAIL'}")

    return _claim


def flip_g(p: float) -> float:
    """Product of the collective phase-flip coherence factors, (1 - 2p)^3."""
    return math.prod(coherence_factors(CouplingConfig.collective("phase_flip", p)))


def one_tangle_A(r: float, g: float) -> float:
    """N_A|BC = (sqrt(a^2 + 4 c^4 g^2) - a) / 2 with a = sin^4 r, c = cos r.

    Written as 2 c^4 g^2 / (sqrt(a^2 + 4 c^4 g^2) + a), which does not cancel:
    it is positive for every g != 0, where the difference form rounds to 0
    once 4 c^4 g^2 falls below an ulp of a^2.
    """
    a = math.sin(r) ** 4
    c4g2 = math.cos(r) ** 4 * g * g
    return 2.0 * c4g2 / (math.sqrt(a * a + 4.0 * c4g2) + a)


def test_claim_01_damping_esd_beyond_half(claim):
    with claim(1, "phase damping has ESD for p > 0.5 at r = pi/4", "CONTRADICTED"):
        expected = {0.5: 0.09150635, 0.75: 0.01475425, 0.99: 9.99996e-7}
        for p, n_a in expected.items():
            exact = x_state_one_tangles(R_MAX, "phase_damping", p, p, p)[0]
            assert exact == pytest.approx(n_a, rel=1e-6), f"p={p}: exact N_A = {exact!r}"
            numeric = full_report(R_MAX, CouplingConfig.collective("phase_damping", p)).n_A_BC
            assert abs(numeric - exact) <= 1e-12, f"p={p}: numeric N_A = {numeric!r}"
        # g = (1 - p)^(3/2) vanishes only at p = 1, the end of the p range.
        for tangle in ("n_A_BC", "pi_tangle"):
            res = find_esd("phase_damping", R_MAX, tangle=tangle)
            assert res.p_star == 1.0, f"{tangle}: p_star = {res.p_star!r}"
            assert not res.rebound


def test_claim_02_flip_esd_near_half(claim):
    with claim(2, "phase flip has ESD near p = 50%", "CONFIRMED, exactly at p = 1/2, a point zero"):
        for r in (0.0, math.pi / 8, R_MAX):
            res = find_esd("phase_flip", r)
            assert res.p_star == 0.5, f"r={r}: p_star = {res.p_star!r}"
        assert flip_g(0.5) == 0.0
        for k in range(2, 9):
            for p in (0.5 - 10.0**-k, 0.5 + 10.0**-k):
                assert flip_g(p) != 0.0, f"p={p!r}"
                assert one_tangle_A(R_MAX, flip_g(p)) > 0.0, f"p={p!r}"


def test_claim_03_flip_esb(claim):
    with claim(3, "phase flip shows ESB", "QUALIFIED, a revival after a single zero, not a birth after a dead interval"):
        onsets = {"n_A_BC": 0.5500001, "pi_tangle": 0.6582191}
        for tangle, onset in onsets.items():
            res = find_esd("phase_flip", R_MAX, tangle=tangle)
            assert res.p_star == 0.5
            assert res.rebound, tangle
            assert abs(res.rebound_onset - onset) <= 1e-6, f"{tangle}: onset = {res.rebound_onset!r}"
        # Between the zero and the onset the tangle is below REBOUND_TOL but
        # not dead: it never stops being positive after p = 1/2.
        for p in (0.5 + 1e-6, 0.525, 0.5499):
            n_a = one_tangle_A(R_MAX, flip_g(p))
            assert 0.0 < n_a < REBOUND_TOL, f"p={p!r}: N_A = {n_a!r}"


def test_claim_04_environment_outweighs_acceleration(claim):
    with claim(4, "the environment outweighs acceleration", "CONFIRMED"):
        undisturbed = CouplingConfig.collective("phase_flip", 0.0)
        assert full_report(0.0, undisturbed).pi_tangle == pytest.approx(1.0, abs=1e-12)
        pi_accel = full_report(R_MAX, undisturbed).pi_tangle
        assert pi_accel == pytest.approx(0.1524029, abs=1e-7), f"pi_tangle = {pi_accel!r}"

        def exact_pi(kind, p):
            # The pair tangles vanish, so the residuals are the squared one-tangles.
            return sum(n * n for n in x_state_one_tangles(R_MAX, kind, p, p, p)) / 3.0

        assert exact_pi("phase_flip", 0.0) == pytest.approx(pi_accel, abs=1e-12)
        assert exact_pi("phase_damping", 1.0) == 0.0
        assert exact_pi("phase_flip", 0.5) == 0.0
