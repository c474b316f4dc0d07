import math

import pytest

from ghztangle.analysis import (
    CLOSED_FORM_TOL,
    DEFAULT_R_VALUES,
    ERRATA,
    MAX_GRID_POINTS,
    EquationCheck,
    SweepSpec,
    find_esd,
    sweep,
    verify,
)


def test_sweep_spec_defaults():
    spec = SweepSpec("phase_damping")
    assert spec.coupling == "collective"
    assert spec.r_values == DEFAULT_R_VALUES
    assert spec.p_grid()[0] == 0.0
    assert spec.p_grid()[-1] == 1.0
    assert len(spec.p_grid()) == 101


def test_sweep_spec_grid_values_are_exact():
    grid = SweepSpec("phase_flip").p_grid()
    assert grid[37] == 0.37
    assert grid[99] == 0.99
    assert all(0.0 <= p <= 1.0 for p in grid)


def test_sweep_spec_partial_range():
    spec = SweepSpec("phase_flip", p_start=0.5, p_stop=0.7, p_step=0.1)
    assert spec.p_grid() == [0.5, 0.6, 0.7]


def test_sweep_spec_step_not_dividing_range():
    grid = SweepSpec("phase_flip", p_step=0.03).p_grid()
    assert grid[-1] == pytest.approx(0.99)
    assert len(grid) == 34


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="unknown channel kind"):
        SweepSpec("amplitude_damping")
    with pytest.raises(ValueError, match="unknown coupling"):
        SweepSpec("phase_flip", coupling="local_bob")
    with pytest.raises(ValueError, match=r"weights must be in \[0, 1\]"):
        SweepSpec("phase_flip", coupling="custom", weights=(0.5, 1.5, 0.5))
    with pytest.raises(ValueError, match="empty r list"):
        SweepSpec("phase_flip", r_values=())
    with pytest.raises(ValueError, match="r out of range"):
        SweepSpec("phase_flip", r_values=(0.9,))
    with pytest.raises(ValueError, match="p range"):
        SweepSpec("phase_flip", p_start=0.8, p_stop=0.2)
    with pytest.raises(ValueError, match="p step must be positive"):
        SweepSpec("phase_flip", p_step=0.0)


def test_config_at_couplings():
    assert SweepSpec("phase_flip").config_at(0.3).params == (0.3, 0.3, 0.3)
    assert SweepSpec("phase_flip", coupling="local_alice").config_at(0.3).params == (0.3, 0.0, 0.0)
    custom = SweepSpec("phase_flip", coupling="custom", weights=(1.0, 0.5, 0.0))
    assert custom.config_at(0.4).params == (0.4, 0.2, 0.0)
    assert custom.config_at(0.4).label == "custom"


def test_sweep_shape_and_order():
    spec = SweepSpec("phase_damping", r_values=(0.0, 0.5), p_start=0.0, p_stop=0.2, p_step=0.1)
    rows = sweep(spec)
    assert len(rows) == 6
    assert [row.r for row in rows] == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5]
    assert [row.p0 for row in rows] == [0.0, 0.1, 0.2, 0.0, 0.1, 0.2]
    assert all(row.channel == "phase_damping" for row in rows)
    assert all(row.coupling == "collective" for row in rows)


def test_sweep_rows_decrease_with_noise():
    rows = sweep(SweepSpec("phase_damping", r_values=(0.3,), p_stop=0.9, p_step=0.3))
    vals = [row.n_A_BC for row in rows]
    assert vals == sorted(vals, reverse=True)


def test_find_esd_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown tangle selector"):
        find_esd("phase_flip", 0.0, tangle="n_total")
    with pytest.raises(ValueError, match="r out of range"):
        find_esd("phase_flip", 1.5)


def test_find_esd_flip_inertial():
    res = find_esd("phase_flip", 0.0)
    assert not res.no_esd
    # Coherence factor |1-2p|^3 crosses the zero threshold at 0.4995.
    assert res.p_star == pytest.approx(0.4995000, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.505, abs=1e-5)


def test_find_esd_flip_accelerated():
    res = find_esd("phase_flip", math.pi / 4)
    assert res.p_star == pytest.approx(0.4841886, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.5500001, abs=1e-5)
    # Acceleration widens the dead zone on both sides of p = 1/2.
    inertial = find_esd("phase_flip", 0.0)
    assert res.p_star < inertial.p_star
    assert res.rebound_onset > inertial.rebound_onset


def test_find_esd_flip_local_alice():
    res = find_esd("phase_flip", math.pi / 4, coupling="local_alice")
    assert res.p_star == pytest.approx(0.4999842, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.5005000, abs=1e-5)


def test_find_esd_damping_dies_only_near_full_strength():
    res = find_esd("phase_damping", 0.0)
    assert not res.no_esd
    assert res.p_star == pytest.approx(0.9999990, abs=1e-5)
    assert not res.rebound
    assert res.rebound_onset is None
    res = find_esd("phase_damping", math.pi / 4)
    assert res.p_star == pytest.approx(0.9990000, abs=1e-5)
    assert not res.rebound


def test_find_esd_identity_channel_never_dies():
    res = find_esd("phase_damping", 0.3, coupling="custom", weights=(0.0, 0.0, 0.0))
    assert res.no_esd
    assert res.p_star == 1.0
    assert not res.rebound
    assert res.rebound_onset is None


def test_find_esd_pi_tangle_dies_before_negativity():
    # pi ~ n^2, so it crosses the same threshold at smaller p.
    res_pi = find_esd("phase_flip", 0.0, tangle="pi_tangle")
    res_n = find_esd("phase_flip", 0.0, tangle="n_A_BC")
    assert res_pi.p_star == pytest.approx(0.4841886, abs=1e-5)
    assert res_pi.p_star < res_n.p_star


def test_find_esd_result_labels():
    res = find_esd("phase_flip", 0.1, coupling="local_alice", tangle="pi_B")
    assert res.channel == "phase_flip"
    assert res.coupling == "local_alice"
    assert res.r == 0.1
    assert res.tangle == "pi_B"


def test_equation_check_passed_property():
    good = EquationCheck("phase_flip", "one_tangle_A", 1e-12, 0.0, 0.0, "collective", 1.0, 1.0)
    bad = EquationCheck("phase_flip", "one_tangle_A", 1e-3, 0.7, 0.3, "collective", 0.4, 0.39)
    assert good.passed
    assert not bad.passed


def test_verify_inertial_line_passes():
    rep = verify(r_values=(0.0,), p_step=0.05)
    assert rep.all_passed
    assert rep.failures() == ()
    assert len(rep.checks) == 6
    assert {c.channel for c in rep.checks} == {"phase_damping", "phase_flip"}
    assert {c.quantity for c in rep.checks} == {"one_tangle_A", "one_tangle_BC", "pi_tangle"}


def test_verify_accelerated_grid_reports_deviations():
    rep = verify(r_values=(0.0, math.pi / 4), p_step=0.05)
    assert not rep.all_passed
    assert len(rep.failures()) == 6
    by_key = {(c.channel, c.quantity): c for c in rep.checks}
    dev = by_key[("phase_damping", "one_tangle_A")]
    # Worst gap between the analytic expression and the pipeline sits at
    # maximum acceleration and is percent-level, far beyond the tolerance.
    assert dev.r_at == pytest.approx(math.pi / 4)
    assert 0.02 < dev.max_dev < 0.03
    assert dev.max_dev > rep.tolerance


def test_verify_metadata():
    rep = verify(r_values=(0.0,), p_step=0.25)
    assert rep.tolerance == CLOSED_FORM_TOL
    assert rep.r_values == (0.0,)
    assert rep.p_step == 0.25
    assert rep.errata == ERRATA


def test_errata_inventory():
    assert len(ERRATA) == 3
    joined = " ".join(ERRATA)
    assert "normalization" in joined
    assert "sqrt(p)" in joined
    assert "phase-flip" in joined


def test_sweep_spec_caps_grid_size_without_building_it():
    # 5 p values per r: exactly MAX_GRID_POINTS is allowed, one more r is not.
    n_r = MAX_GRID_POINTS // 5
    assert SweepSpec("phase_flip", r_values=(0.0,) * n_r, p_step=0.25) is not None
    with pytest.raises(ValueError, match="grid has more than"):
        SweepSpec("phase_flip", r_values=(0.0,) * (n_r + 1), p_step=0.25)
    for step in (1e-12, 5e-324):
        with pytest.raises(ValueError, match="grid has more than"):
            SweepSpec("phase_flip", r_values=(0.0,), p_step=step)
    with pytest.raises(ValueError, match="p step must be positive"):
        SweepSpec("phase_flip", p_step=math.nan)
