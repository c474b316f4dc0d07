"""The sudden-death search: its results, its pinned tables and its work.

``find_esd`` takes the death from the coupling weights and decides every
point of its rebound search from the exact X-state one-tangles, with the
pair tangles at 0, so it solves no eigenvalue problem.
``esd_by_sequential_bisection`` below is the numeric pipeline's search:
it takes the death from exact fractions, scans the grid's reports and
bisects the onset one ``full_report`` per midpoint. The two must agree to
the last bit.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from ghztangle import analysis, tangles
from ghztangle.analysis import BISECT_WIDTH, REBOUND_TOL, TANGLE_SELECTORS, EsdResult, SweepSpec, find_esd
from ghztangle.cli import main
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import full_report, full_reports
from oracles import mp_one_tangles

R_LIST = "0,0.3926990816987241,0.7853981633974483"

# SHA-256 of `ghztangle esd --r R_LIST <flags>` stdout, as produced by the
# sequential search. Python 3.11.7, numpy 2.4.6, x86-64 Linux.
ESD_DIGESTS = [
    (
        ("--channel", "phase-flip", "--tangle", "pi_tangle"),
        "f25a06f243164411bf80591349d08b786dc2bcd83ab0dd040049f394117b9e47",
    ),
    (
        ("--channel", "phase-flip", "--tangle", "pi_A", "--coupling", "local-alice"),
        "a034f4c442cb2380f243e6821a299f65518138990b83f3580e931c44966c2843",
    ),
    (
        ("--channel", "phase-flip", "--tangle", "n_C_AB", "--coupling", "custom", "--weights", "1,0.5,0.25"),
        "3c4375fb03becf301afa83d0ee7450ced48aa4faf79ccd1175a214cb82a68f8f",
    ),
    (
        ("--channel", "phase-damping", "--tangle", "pi_tangle"),
        "66a87fbcb8c673c9a757b99b29494c0caaccc5db9ec4f7edb3d4c2e8f15dd92c",
    ),
    (
        ("--channel", "phase-flip", "--coupling", "custom", "--weights", "0.6,0.6,0.6", "--tangle", "n_A_BC"),
        "f66304d27657ef8426f4268c385020908a5027f699cb2d4d257a9555134db2a0",
    ),
    (
        ("--channel", "phase-flip", "--coupling", "custom", "--weights", "0.6,0.6,0.6", "--tangle", "pi_tangle"),
        "426fe65387a03317c3f8d6cb8b6a733c2e14696c5ca03828fd44c1479b9a35bc",
    ),
]


def exact_death(channel, tangle, weights):
    """The smallest zero in [0, 1] of a coherence factor, as a Fraction, or None.

    Qubit q carries the parameter weights[q] * p. Its phase-flip factor
    1 - 2 w p is zero at p = 1/(2w), its phase-damping factor sqrt(1 - w p)
    at p = 1/w. The pair tangles are dead from p = 0.
    """
    if tangle in ("n_AB", "n_AC", "n_BC"):
        return Fraction(0)
    scale = 2 if channel == "phase_flip" else 1
    zeros = [1 / (scale * Fraction(w)) for w in weights if w > 0]
    return min((z for z in zeros if z <= 1), default=None)


def esd_by_sequential_bisection(channel, r, tangle, coupling, weights):
    """find_esd one point at a time: the exact death, a full scan and one report per onset midpoint."""
    spec = SweepSpec(channel, coupling, weights=weights, r_values=(r,))

    def value(p):
        return getattr(full_report(r, spec.config_at(p)), tangle)

    death = exact_death(channel, tangle, spec.config_at(1.0).params)
    if death is None:
        return EsdResult(channel, coupling, r, tangle, 1.0, True, False, None)
    p_star = float(death)
    grid = spec.p_grid()
    reports = full_reports([r] * len(grid), [spec.config_at(p) for p in grid])
    vals = [getattr(rep, tangle) for rep in reports]
    after = next((j for j in range(len(grid)) if grid[j] > p_star and vals[j] > REBOUND_TOL), None)
    if after is None:
        return EsdResult(channel, coupling, r, tangle, p_star, False, False, None)
    lo, hi = max(grid[after - 1], p_star), grid[after]
    while hi - lo > BISECT_WIDTH:
        mid = (lo + hi) / 2.0
        if value(mid) > REBOUND_TOL:
            hi = mid
        else:
            lo = mid
    return EsdResult(channel, coupling, r, tangle, p_star, False, True, hi)


COUPLINGS = [
    ("collective", (1.0, 1.0, 1.0)),
    ("local_alice", (1.0, 1.0, 1.0)),
    ("custom", (1.0, 0.5, 0.0)),
    # With weight 0.6 the phase-flip death lies at p = 5/6, between grid points.
    ("custom", (0.6, 0.6, 0.6)),
    ("custom", (1.0, 0.5, 0.25)),
    # With weight 0.5 the phase-flip death lies at p = 1: nothing beyond it to rebound on.
    ("custom", (0.5, 0.5, 0.5)),
]
COUPLING_IDS = ["collective", "local_alice", "custom", "custom_0.6", "custom_1_0.5_0.25", "custom_0.5"]
DEATH_RS = (0.0, math.pi / 16, math.pi / 8, math.pi / 6, 0.7, math.pi / 4)


@pytest.mark.parametrize("channel", ["phase_flip", "phase_damping"])
@pytest.mark.parametrize("coupling, weights", COUPLINGS, ids=COUPLING_IDS)
def test_find_esd_equals_sequential_bisection(channel, coupling, weights):
    rebounds = 0
    for r in DEATH_RS:
        for tangle in TANGLE_SELECTORS:
            got = find_esd(channel, r, tangle=tangle, coupling=coupling, weights=weights)
            want = esd_by_sequential_bisection(channel, r, tangle, coupling, weights)
            assert repr(got) == repr(want)
            rebounds += got.rebound
    # Phase flip rebounds after a death before p = 1; at weight 0.5, and
    # under phase damping always, the death is at p = 1.
    assert (rebounds > 0) == (channel == "phase_flip" and max(weights) > 0.5)


# Weights with zeros on and off the 0.01 grid, at p = 1 and beyond it.
DEATH_COUPLINGS = [
    *COUPLINGS,
    ("custom", (0.7, 0.55, 0.9)),
    ("custom", (0.3, 0.2, 0.1)),
    ("custom", (5e-324, 0.0, 0.0)),
]


@pytest.mark.parametrize("channel", ["phase_flip", "phase_damping"])
def test_find_esd_death_is_the_exact_zero(channel):
    searches = 0
    for coupling, weights in DEATH_COUPLINGS:
        spec = SweepSpec(channel, coupling, weights=weights)
        for r in DEATH_RS:
            for tangle in TANGLE_SELECTORS:
                res = find_esd(channel, r, tangle=tangle, coupling=coupling, weights=weights)
                death = exact_death(channel, tangle, spec.config_at(1.0).params)
                searches += 1
                assert res.no_esd == (death is None)
                assert res.p_star == (1.0 if death is None else float(death))
                if res.no_esd:
                    assert min(mp_one_tangles(r, channel, *spec.config_at(1.0).params)) > 0
                elif res.p_star > 0.0:
                    assert max(mp_one_tangles(r, channel, *spec.config_at(res.p_star).params)) <= 1e-20
                    assert min(mp_one_tangles(r, channel, *spec.config_at(res.p_star - 1e-9).params)) > 0
    assert searches == len(DEATH_COUPLINGS) * len(DEATH_RS) * len(TANGLE_SELECTORS)


ESD_IDS = ["pf-pi", "pf-piA-alice", "pf-nC-custom", "pd-pi", "pf-nA-custom0.6", "pf-pi-custom0.6"]


@pytest.mark.parametrize("flags, digest", ESD_DIGESTS, ids=ESD_IDS)
def test_esd_table_is_byte_identical(flags, digest, capsys):
    assert main(["esd", "--r", R_LIST, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "channel, tangle, rebounds",
    [
        ("phase_flip", "n_A_BC", 1),
        ("phase_flip", "pi_tangle", 1),
        # Death on the last grid point: nothing beyond it to rebound on.
        ("phase_damping", "n_A_BC", 0),
        ("phase_damping", "pi_tangle", 0),
    ],
)
def test_find_esd_work_is_bounded(channel, tangle, rebounds, monkeypatch):
    # Each point is decided from the exact one-tangles: whether the search
    # finds a rebound or asks nothing, it solves no eigenvalue problem.
    calls = []
    solve = tangles.x_eigenvalues_stack

    def counted(diag, anti):
        calls.append(diag.shape[0])
        return solve(diag, anti)

    monkeypatch.setattr(tangles, "x_eigenvalues_stack", counted)
    got = find_esd(channel, math.pi / 4, tangle=tangle)
    assert got.rebound == bool(rebounds)
    assert calls == []


@pytest.mark.parametrize("channel", ["phase_flip", "phase_damping"])
def test_predicted_one_tangles_match_the_mpmath_route(channel):
    checked = 0
    for coupling, weights in DEATH_COUPLINGS:
        spec = SweepSpec(channel, coupling, weights=weights)
        death = exact_death(channel, "n_A_BC", spec.config_at(1.0).params)
        near = [] if death is None else [p for p in (float(death) - 1e-9, float(death) + 1e-9) if p <= 1]
        for r in DEATH_RS:
            diag, anti = (a[0].tolist() for a in analysis._check_x_state(r))
            for p in (*analysis._ESD_GRID[::5], *near):
                params = spec.config_at(p).params
                got = analysis._x_one_tangles(channel, diag, anti, params)
                for n, exact in zip(got, mp_one_tangles(r, channel, *params)):
                    if exact == 0:
                        assert n == 0.0
                    else:
                        assert abs(n - exact) <= 1e-13 * exact, (coupling, weights, r, p)
                        checked += 1
    assert checked > 0


def test_find_esd_checks_the_state_before_returning_early(monkeypatch):
    # A phase-damping search evaluates nothing, yet still rejects a state
    # that is not an X state.
    def with_second_coherence(rb, rc):
        rho = ghz_rindler_density(rb, rc)
        rho[1, 6] = rho[6, 1] = 0.01
        return rho

    monkeypatch.setattr(analysis, "ghz_rindler_density", with_second_coherence)
    with pytest.raises(RuntimeError, match="not an X-state"):
        find_esd("phase_damping", 0.3)
