"""Acceptance suite: one test per contract criterion, one verdict line each.

Each test prints "[criterion NN] <name>: PASS|FAIL" past the capture plugin
so the verdicts survive into piped logs. Assertions carry the stated
tolerances; a failing criterion stays failing rather than being weakened.
"""

import contextlib
import math

import numpy as np
import pytest

from ghztangle import closedform
from ghztangle.analysis import DEFAULT_R_VALUES, SweepSpec, find_esd, sweep, verify
from ghztangle.channels import CHANNEL_KINDS, CouplingConfig, apply_channel, lift
from ghztangle.linalg import hermitian_eigenvalues, partial_transpose
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import full_report, negativity

from oracles import _hermitian_eigensystem, ghz_via_mode_trace, random_hermitian, x_state_one_tangles

TANGLE_FIELDS = (
    "n_A_BC",
    "n_B_AC",
    "n_C_AB",
    "n_AB",
    "n_AC",
    "n_BC",
    "pi_A",
    "pi_B",
    "pi_C",
    "pi_tangle",
)


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(num, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")

    return _criterion


@pytest.fixture(scope="module")
def pd_rows():
    return sweep(SweepSpec("phase_damping"))


@pytest.fixture(scope="module")
def pf_rows():
    return sweep(SweepSpec("phase_flip"))


def test_criterion_01_undisturbed_state_unit_tangles(criterion):
    with criterion(1, "undisturbed state has unit tangles"):
        rep = full_report(0.0, CouplingConfig.collective("phase_damping", 0.0))
        assert abs(rep.n_A_BC - 1.0) <= 1e-12
        assert abs(rep.n_B_AC - 1.0) <= 1e-12
        assert abs(rep.n_C_AB - 1.0) <= 1e-12
        assert abs(rep.pi_tangle - 1.0) <= 1e-12


def test_criterion_02_state_matches_mode_trace_oracle(criterion):
    with criterion(2, "state construction matches mode-trace oracle"):
        grid = np.linspace(0.0, math.pi / 4, 11)
        worst = 0.0
        for rb in grid:
            for rc in grid:
                gap = np.abs(ghz_rindler_density(rb, rc) - ghz_via_mode_trace(rb, rc)).max()
                worst = max(worst, gap)
        assert worst <= 1e-12


def test_criterion_03_lifted_kraus_completeness(criterion):
    with criterion(3, "lifted Kraus families are complete"):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            ps = rng.uniform(0.0, 1.0, size=3)
            for kind in ("phase_damping", "phase_flip"):
                ops = lift(CouplingConfig(kind, *ps))
                total = sum(e.conj().T @ e for e in ops)
                assert np.abs(total - np.eye(8)).max() <= 1e-12


def test_criterion_04_flip_death_acceleration_independent(criterion):
    with criterion(4, "phase-flip death at p=1/2 independent of acceleration"):
        stars = [find_esd("phase_flip", r).p_star for r in (0.0, math.pi / 8, math.pi / 4)]
        for star in stars:
            assert abs(star - 0.5) <= 1e-6, f"p_star = {star!r}"
        assert max(stars) - min(stars) <= 1e-6, f"p_star spread = {stars!r}"


def test_criterion_05_flip_reflection_and_rebound(criterion, pf_rows):
    with criterion(5, "phase-flip reflection symmetry and rebound"):
        per_r = len(SweepSpec("phase_flip").p_grid())
        assert per_r == 101
        for block in range(len(DEFAULT_R_VALUES)):
            rows = pf_rows[block * per_r : (block + 1) * per_r]
            for i in range(per_r):
                lo, hi = rows[i], rows[per_r - 1 - i]
                for field in TANGLE_FIELDS:
                    assert abs(getattr(lo, field) - getattr(hi, field)) <= 1e-10
        # Rebound: dead at p = 1/2 yet strongly entangled again at p = 0.9.
        res = find_esd("phase_flip", 0.0)
        assert res.rebound
        row = pf_rows[90]
        assert row.r == 0.0 and row.p0 == 0.9
        assert row.n_A_BC >= 0.1


def test_criterion_06_damping_terminal_death(criterion, pd_rows):
    with criterion(6, "phase damping kills all tangles at full strength"):
        rows = [row for row in pd_rows if row.p0 == 1.0 and row.r in (0.0, math.pi / 8, math.pi / 4)]
        assert len(rows) == 3
        for row in rows:
            for field in ("n_A_BC", "n_B_AC", "n_C_AB", "pi_A", "pi_B", "pi_C", "pi_tangle"):
                assert abs(getattr(row, field)) <= 1e-9


def test_criterion_07_two_tangles_vanish(criterion, pd_rows, pf_rows):
    with criterion(7, "two-tangles vanish on the sweep grid"):
        for rows in (pd_rows, pf_rows):
            assert len(rows) == 404
            for row in rows:
                assert row.n_AB <= 1e-9
                assert row.n_AC <= 1e-9
                assert row.n_BC <= 1e-9


def test_criterion_08_one_tangles_equal_at_max_acceleration(criterion, pd_rows, pf_rows):
    with criterion(8, "one-tangles coincide at maximum acceleration"):
        for rows in (pd_rows, pf_rows):
            top = [row for row in rows if row.r == math.pi / 4]
            assert len(top) == 101
            for row in top:
                assert abs(row.n_A_BC - row.n_B_AC) <= 1e-9


def test_criterion_09_closed_forms_match_pipeline(criterion):
    with criterion(9, "closed forms match pipeline on default grid"):
        report = verify()
        by_key = {(c.channel, c.quantity): c for c in report.checks}
        assert len(by_key) == 6
        # Documented-discrepancy contract: every expression's worst grid
        # point is recorded with both values, whether it passes or not.
        for check in report.checks:
            assert math.isfinite(check.max_dev)
            assert any(abs(check.r_at - r) < 1e-12 for r in DEFAULT_R_VALUES)
            assert 0.0 <= check.p_at <= 1.0
            assert check.coupling_at in ("collective", "local_alice")
            assert math.isfinite(check.numeric) and math.isfinite(check.closed)
            assert abs(abs(check.numeric - check.closed) - check.max_dev) <= 1e-15
        # Hard equivalence bound on the one-vs-rest cut of the inertial qubit,
        # against its exact X-state expression on verify's grid. The literal
        # closed forms are documented discrepancies, not references: closedform
        # transcribes them unadjusted, and PAPER.md holds no equations that
        # could settle whether the transcription is faithful.
        worst = 0.0
        for channel in CHANNEL_KINDS:
            for coupling in ("collective", "local_alice"):
                for rep in sweep(SweepSpec(channel, coupling)):
                    exact = x_state_one_tangles(rep.r, channel, rep.p0, rep.p1, rep.p2)
                    numeric = (rep.n_A_BC, rep.n_B_AC, rep.n_C_AB)
                    worst = max(worst, *(abs(n - x) for n, x in zip(numeric, exact)))
        assert worst <= 1e-9, f"max deviation from the exact one-tangles {worst!r}"
        # The recorded worst points of the A|BC forms carry the exact value, so
        # each max_dev is the closed form's own error.
        for check in (by_key[(kind, "one_tangle_A")] for kind in CHANNEL_KINDS):
            p = check.p_at
            params = (p, p, p) if check.coupling_at == "collective" else (p, 0.0, 0.0)
            exact = x_state_one_tangles(check.r_at, check.channel, *params)[0]
            assert abs(check.numeric - exact) <= 1e-9, (
                f"{check.channel}: numeric={check.numeric!r} exact={exact!r} "
                f"at r={check.r_at!r}, p={p!r} ({check.coupling_at})"
            )


def test_criterion_10_spot_value_at_max_acceleration(criterion):
    with criterion(10, "maximum-acceleration spot value matches analytic claim"):
        value = negativity(ghz_rindler_density(math.pi / 4, math.pi / 4), 0, 3)
        # At r = pi/4 (c^2 = s^2 = 1/2) and p = 0 the A|BC partial transpose is
        # diagonal apart from the block [[s^4/2, c^2/2], [c^2/2, 0]] =
        # [[1/8, 1/4], [1/4, 0]], whose eigenvalues are (1 +- sqrt(17)) / 16;
        # the negativity is twice the negative one, (sqrt(17) - 1) / 8.
        exact = (math.sqrt(17.0) - 1.0) / 8.0
        assert abs(x_state_one_tangles(math.pi / 4, "phase_flip", 0.0, 0.0, 0.0)[0] - exact) <= 1e-15
        assert abs(value - exact) <= 1e-10, f"numeric = {value!r}, exact = {exact!r}"
        # Documented discrepancy: the paper's closed form claims (1 + sqrt(5)) / 8 here.
        claimed = (1.0 + math.sqrt(5.0)) / 8.0
        assert abs(closedform.pf_one_tangle_A(math.pi / 4, 0.0, 0.0, 0.0) - claimed) <= 1e-15


def test_criterion_11_eigensolver_identities(criterion):
    with criterion(11, "eigensolver reconstruction and trace identities"):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            m = random_hermitian(rng, 8)
            w, v = _hermitian_eigensystem(m)
            assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10
            assert abs(w.sum() - np.trace(m).real) <= 1e-10


def test_criterion_12_negativity_dual_routes(criterion):
    with criterion(12, "negativity dual routes agree everywhere"):
        grid = SweepSpec("phase_flip").p_grid()
        worst = 0.0
        for kind in ("phase_damping", "phase_flip"):
            for r in DEFAULT_R_VALUES:
                base = ghz_rindler_density(r, r)
                for p in grid:
                    rho = apply_channel(lift(CouplingConfig.collective(kind, p)), base)
                    for q in range(3):
                        w = hermitian_eigenvalues(partial_transpose(rho, q, 3))
                        from_norm = float(np.abs(w).sum()) - 1.0
                        from_negatives = 2.0 * float(-w[w < 0.0].sum())
                        worst = max(worst, abs(from_norm - from_negatives))
        assert worst <= 1e-10
