"""The sudden-death search: its results, its pinned tables and its work.

``find_esd`` evaluates only the selected tangle, skips the rebound scan
where no grid point lies beyond the death, and bisects the rebound onset
several levels per stack. ``esd_by_sequential_bisection`` below is the
search as it ran before those changes, one ``full_report`` per midpoint;
the two must agree to the last bit.
"""

import hashlib
import math

import pytest

from ghztangle import tangles
from ghztangle.analysis import BISECT_WIDTH, REBOUND_TOL, EsdResult, SweepSpec, find_esd
from ghztangle.channels import coherence_factors
from ghztangle.cli import main
from ghztangle.tangles import full_report, full_reports

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
        "8d78e7030e68109be2820453fd9bae5a74e911fc680520355fd15d8e3b438ba0",
    ),
    (
        ("--channel", "phase-flip", "--coupling", "custom", "--weights", "0.6,0.6,0.6", "--tangle", "pi_tangle"),
        "646cca21a1b93347cd2fa57f4b33aac637066b8bd7941af1c9edb6d78785638a",
    ),
]


def esd_by_sequential_bisection(channel, r, tangle, coupling, weights):
    """find_esd one point at a time: a full coarse scan and one report per midpoint."""
    spec = SweepSpec(channel, coupling, weights=weights, r_values=(r,))
    pair = tangle in ("n_AB", "n_AC", "n_BC")

    def died(f_lo, f):
        return pair or any(a * b <= 0.0 for a, b in zip(f_lo, f))

    def value(p):
        return getattr(full_report(r, spec.config_at(p)), tangle)

    grid = spec.p_grid()
    coeffs = [coherence_factors(spec.config_at(p)) for p in grid]
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
    after = next((j for j in range(first, len(grid)) if grid[j] > p_star and vals[j] > REBOUND_TOL), None)
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
]
COUPLING_IDS = ["collective", "local_alice", "custom", "custom_0.6", "custom_1_0.5_0.25"]


@pytest.mark.parametrize("channel", ["phase_flip", "phase_damping"])
@pytest.mark.parametrize("coupling, weights", COUPLINGS, ids=COUPLING_IDS)
def test_find_esd_equals_sequential_bisection(channel, coupling, weights):
    rebounds = 0
    for r in (0.0, math.pi / 8, math.pi / 4 + 1e-3):
        for tangle in ("n_A_BC", "n_C_AB", "pi_A", "pi_tangle", "n_AB"):
            got = find_esd(channel, r, tangle=tangle, coupling=coupling, weights=weights)
            want = esd_by_sequential_bisection(channel, r, tangle, coupling, weights)
            assert repr(got) == repr(want)
            rebounds += got.rebound
    # Phase flip rebounds after its death at p = 1/2; phase damping dies at p = 1.
    assert (rebounds > 0) == (channel == "phase_flip")


ESD_IDS = ["pf-pi", "pf-piA-alice", "pf-nC-custom", "pd-pi", "pf-nA-custom0.6", "pf-pi-custom0.6"]


@pytest.mark.parametrize("flags, digest", ESD_DIGESTS, ids=ESD_IDS)
def test_esd_table_is_byte_identical(flags, digest, capsys):
    assert main(["esd", "--r", R_LIST, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "channel, tangle, most",
    [
        # One stack for the grid points beyond p_star, then five for the 17
        # levels that narrow the onset bracket from 0.01 to BISECT_WIDTH:
        # one solve per stack for a one-tangle, three for the pi-tangle,
        # whose pair cuts are diagonal and solve nothing.
        ("phase_flip", "n_A_BC", 6),
        ("phase_flip", "pi_tangle", 18),
        # Death on the last grid point: nothing beyond it to rebound on.
        ("phase_damping", "n_A_BC", 0),
        ("phase_damping", "pi_tangle", 0),
    ],
)
def test_find_esd_work_is_bounded(channel, tangle, most, monkeypatch):
    calls = []
    solve = tangles.x_eigenvalues_stack

    def counted(diag, anti):
        calls.append(diag.shape[0])
        return solve(diag, anti)

    monkeypatch.setattr(tangles, "x_eigenvalues_stack", counted)
    find_esd(channel, math.pi / 4, tangle=tangle)
    assert len(calls) <= most
    if most == 0:
        assert calls == []
