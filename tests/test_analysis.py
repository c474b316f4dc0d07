import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghztangle import analysis
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
from ghztangle.channels import CHANNEL_KINDS, PHASE_FLIP, CouplingConfig, _coherence_factors, coherence_factors
from ghztangle.rindler import ghz_rindler_density


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
    # The coherence carries the factor (1-2p)^3, which vanishes only at
    # p = 1/2: a grid point, so the search lands on it exactly.
    assert res.p_star == pytest.approx(0.5, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.505, abs=1e-5)


def test_find_esd_flip_accelerated():
    res = find_esd("phase_flip", math.pi / 4)
    # N_A = (sqrt(s^8 + 4 c^4 g^2) - s^4) / 2 with g = (1-2p)^3 is positive
    # for every g != 0, so acceleration does not move the death point.
    assert res.p_star == pytest.approx(0.5, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.5500001, abs=1e-5)
    # Acceleration leaves the death point alone; it delays the rebound.
    inertial = find_esd("phase_flip", 0.0)
    assert res.p_star == inertial.p_star
    assert res.rebound_onset > inertial.rebound_onset


def test_find_esd_flip_local_alice():
    res = find_esd("phase_flip", math.pi / 4, coupling="local_alice")
    # g = 1 - 2p vanishes at p = 1/2 alone.
    assert res.p_star == pytest.approx(0.5, abs=1e-5)
    assert res.rebound
    assert res.rebound_onset == pytest.approx(0.5005000, abs=1e-5)


def test_find_esd_damping_dies_only_near_full_strength():
    res = find_esd("phase_damping", 0.0)
    assert not res.no_esd
    # g = (1-p)^(3/2) vanishes only at p = 1, the end of the grid.
    assert res.p_star == pytest.approx(1.0, abs=1e-5)
    assert not res.rebound
    assert res.rebound_onset is None
    res = find_esd("phase_damping", math.pi / 4)
    assert res.p_star == pytest.approx(1.0, abs=1e-5)
    assert not res.rebound


def test_find_esd_flip_death_between_grid_points():
    # Weight 0.6 puts every qubit's p_q = 0.6 p at 1/2 when p = 5/6, which
    # lies between grid points; the coherence factors change sign there.
    res = find_esd("phase_flip", math.pi / 4, coupling="custom", weights=(0.6, 0.6, 0.6))
    assert not res.no_esd
    assert res.p_star == 1.0 / (2 * 0.6)
    assert res.rebound
    # N_A ~ g^2 near the death at r = pi/4: back above 1e-6 at |1 - 1.2 p|^3 = 1e-3.
    assert res.rebound_onset == pytest.approx(1.1 / 1.2, abs=1e-5)


def test_find_esd_rejects_state_that_is_not_x_shaped(monkeypatch):
    def with_extra_coherence(rb, rc):
        rho = ghz_rindler_density(rb, rc)
        rho[1, 2] = rho[2, 1] = 0.01
        return rho

    monkeypatch.setattr(analysis, "ghz_rindler_density", with_extra_coherence)
    with pytest.raises(RuntimeError, match="not an X-state"):
        find_esd("phase_flip", 0.3)


def test_find_esd_rejects_x_state_with_populated_middle_diagonal(monkeypatch):
    # Still X-shaped, but rho[5, 5] != 0 gives the cut blocks a positive
    # d_i d_j, so a coherence-factor zero would no longer mark every death.
    def with_populated_diagonal(rb, rc):
        rho = ghz_rindler_density(rb, rc)
        rho[5, 5] = 0.1
        return rho / rho.trace().real

    monkeypatch.setattr(analysis, "ghz_rindler_density", with_populated_diagonal)
    with pytest.raises(RuntimeError, match="not an X-state"):
        find_esd("phase_flip", 0.3)


def test_find_esd_rejects_x_state_with_a_second_coherence(monkeypatch):
    # Still an exactly symmetric X state, but the coherence rho[1, 6] puts a
    # second block into each cut, whose death the factors alone do not decide.
    def with_second_coherence(rb, rc):
        rho = ghz_rindler_density(rb, rc)
        rho[1, 6] = rho[6, 1] = 0.01
        return rho

    monkeypatch.setattr(analysis, "ghz_rindler_density", with_second_coherence)
    with pytest.raises(RuntimeError, match="not an X-state; the exact death criterion"):
        find_esd("phase_flip", 0.3)


@pytest.mark.parametrize("channel", ["phase_flip", "phase_damping"])
@pytest.mark.parametrize("tangle", ["n_AB", "n_AC", "n_BC"])
def test_find_esd_pair_tangles_are_dead_from_the_start(channel, tangle):
    # The pair states of an X-state are diagonal: no two-tangle at any p.
    for r in (0.0, math.pi / 4):
        res = find_esd(channel, r, tangle=tangle)
        assert res.p_star == 0.0
        assert not res.no_esd
        assert not res.rebound
        assert res.rebound_onset is None


def test_find_esd_rejects_weights_without_custom_coupling():
    for coupling in ("collective", "local_alice"):
        with pytest.raises(ValueError, match="weights apply only to coupling 'custom'"):
            find_esd("phase_flip", 0.3, coupling=coupling, weights=(0.0, 0.0, 0.0))
    # The default weights stay valid with every coupling.
    assert find_esd("phase_flip", 0.3, coupling="local_alice", weights=(1.0, 1.0, 1.0)).p_star == 0.5


def test_find_esd_identity_channel_never_dies():
    res = find_esd("phase_damping", 0.3, coupling="custom", weights=(0.0, 0.0, 0.0))
    assert res.no_esd
    assert res.p_star == 1.0
    assert not res.rebound
    assert res.rebound_onset is None


def test_find_esd_pi_tangle_dies_before_negativity():
    # The two-tangles vanish, so pi = (N_A^2 + N_B^2 + N_C^2) / 3: zero
    # exactly where the one-tangles are, at p = 1/2, never before them.
    res_pi = find_esd("phase_flip", 0.0, tangle="pi_tangle")
    res_n = find_esd("phase_flip", 0.0, tangle="n_A_BC")
    assert res_pi.p_star == pytest.approx(0.5, abs=1e-5)
    assert res_pi.p_star <= res_n.p_star


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


def test_verify_reports_the_first_of_mirrored_worst_points():
    # Under phase flip the gaps at p and 1 - p agree up to rounding, so the
    # reported point is the first of the tied pair, not the one that
    # happens to round larger.
    rep = verify(r_values=(0.0, 0.3), p_step=0.02)
    at = {c.quantity: (c.r_at, c.p_at) for c in rep.checks if c.channel == "phase_flip"}
    assert at["one_tangle_A"] == (0.3, 0.42)
    assert at["one_tangle_BC"] == (0.3, 0.32)


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
    with pytest.raises(ValueError, match="p step must be positive and finite"):
        SweepSpec("phase_flip", p_step=math.inf)


def test_sweep_spec_one_point_grid_keeps_p_start():
    # A step past the range leaves one point, p_start; it is not p_stop.
    assert SweepSpec("phase_flip", p_start=0.2, p_stop=0.9, p_step=1e10).p_grid() == [0.2]
    assert SweepSpec("phase_flip", p_start=0.9, p_stop=0.9, p_step=1e10).p_grid() == [0.9]


EDGE_P = (0.0, 1.0, 0.5, *(0.5 + s * 10.0**-k for k in range(1, 17) for s in (-1.0, 1.0)))
WEIGHTS = st.one_of(
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
    st.tuples(*[st.integers(min_value=0, max_value=1)] * 3),
)


def _bits(values):
    return [float(x).hex() for x in values]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(CHANNEL_KINDS),
    coupling=st.sampled_from(analysis.COUPLING_LABELS),
    weights=WEIGHTS,
    ps=st.lists(st.one_of(st.sampled_from(EDGE_P), st.floats(min_value=0.0, max_value=1.0)), min_size=1, max_size=12),
)
def test_array_params_and_factors_equal_the_per_point_forms(kind, coupling, weights, ps):
    spec = SweepSpec(kind, coupling, weights=weights if coupling == "custom" else (1.0, 1.0, 1.0))
    params = spec._params(ps)
    factors = _coherence_factors(kind, params)
    assert params.shape == factors.shape == (len(ps), 3)
    for p, row, f in zip(ps, params.tolist(), factors.tolist()):
        cfg = spec.config_at(p)
        assert _bits(row) == _bits(cfg.params)
        assert _bits(f) == _bits(coherence_factors(cfg))
        # The scalar rule on Python floats.
        scalar = [1.0 - 2.0 * q if kind == PHASE_FLIP else math.sqrt(1.0 - q) for q in cfg.params]
        assert _bits(f) == _bits(scalar)


def _count_configs(monkeypatch) -> list:
    built = []
    check = CouplingConfig.__post_init__

    def counted(cfg):
        built.append(cfg)
        check(cfg)

    monkeypatch.setattr(CouplingConfig, "__post_init__", counted)
    return built


def test_find_esd_builds_no_coupling_config_without_a_rebound_scan(monkeypatch):
    built = _count_configs(monkeypatch)
    # Phase damping dies on the last grid point: nothing beyond it to scan.
    find_esd("phase_damping", math.pi / 4)
    assert built == []
    # Phase flip dies at p = 1/2 and scans the points beyond it, as arrays.
    find_esd("phase_flip", math.pi / 4)
    assert built == []
    result = find_esd("phase_flip", math.pi / 4, "pi_tangle", coupling="custom", weights=(1.0, 0.5, 0.25))
    assert result.rebound
    assert built == []


def test_sweep_builds_no_coupling_config(monkeypatch):
    built = _count_configs(monkeypatch)
    spec = SweepSpec("phase_flip", "custom", weights=(1.0, 0.5, 0.25), r_values=(0.0, 0.5), p_step=0.1)
    reports = sweep(spec)
    rows = [row for values in analysis.sweep_chunks(spec) for row in values.tolist()]
    assert built == []
    assert len(reports) == len(rows) == 22
    assert [(rep.channel, rep.coupling) for rep in reports] == [("phase_flip", "custom")] * 22
