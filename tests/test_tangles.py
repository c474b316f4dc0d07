import hashlib
import math
import warnings

import numpy as np
import pytest

from ghztangle import linalg, tangles
from ghztangle.channels import CouplingConfig, apply_channel, lift
from ghztangle.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import (
    TangleReport,
    full_report,
    negativity,
    pi_tangle,
    residual,
    two_tangle,
)

from oracles import dephase_elementwise, ghz_via_mode_trace, random_density_matrix, ref_negativity

BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[3, 3] = BELL[0, 3] = BELL[3, 0] = 0.5


def test_negativity_bell():
    # Doubled convention: trace norm of the Bell partial transpose is 2.
    assert negativity(BELL, 0) == pytest.approx(1.0, abs=1e-12)
    assert negativity(BELL, 1) == pytest.approx(1.0, abs=1e-12)


def test_negativity_separable():
    rng = np.random.default_rng(61)
    rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert negativity(rho, 0) <= 1e-12
    mixed = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), np.diag([0.0, 1.0])
    )
    assert negativity(mixed.astype(complex), 0) <= 1e-12


def test_negativity_ghz_cuts():
    rho = ghz_rindler_density(0.0, 0.0)
    for q in range(3):
        assert negativity(rho, q, 3) == pytest.approx(1.0, abs=1e-12)


def test_negativity_infinite_acceleration_alice_cut():
    # At r = pi/4 the A|BC negativity drops to (sqrt(17) - 1) / 8.
    rho = ghz_rindler_density(math.pi / 4, math.pi / 4)
    expected = (math.sqrt(17.0) - 1.0) / 8.0
    assert negativity(rho, 0, 3) == pytest.approx(expected, abs=1e-12)


def test_negativity_matches_reference_route():
    rng = np.random.default_rng(67)
    for _ in range(8):
        rho = random_density_matrix(rng, 8)
        for q in range(3):
            assert negativity(rho, q, 3) == pytest.approx(ref_negativity(rho, q, 3), abs=1e-10)


def test_negativity_cross_check_guard(monkeypatch):
    # Feed the consistency check a spectrum that cannot come from a
    # unit-trace matrix; the two reductions then disagree.
    monkeypatch.setattr(tangles, "_eigenvalues", lambda m: np.array([-0.2, 0.5]))
    with pytest.raises(RuntimeError, match="negativity cross-check failed"):
        negativity(BELL, 0)


def test_tangles_refuse_a_trace_other_than_one(monkeypatch):
    # A Hermitian matrix's dual-route gap is tr - 1, so a wrong trace is the
    # caller's error: a ValueError before any solve, not the cross-check's
    # RuntimeError. Within CROSS_CHECK_TOL of 1 it is solved as before.
    assert negativity((1.0 + 1e-11) * np.eye(8) / 8, 0, 3) == two_tangle(np.eye(8) / 8, (0, 1), 3) == 0.0

    def refuse(m):
        raise AssertionError("a matrix of the wrong trace was solved")

    monkeypatch.setattr(tangles, "_eigenvalues", refuse)
    ghz = ghz_rindler_density(0.0, 0.0)
    for rho in (2.0 * np.eye(8) / 8, (1.0 + 1e-9) * ghz, np.zeros((8, 8)), np.diag([1e308] * 8)):
        with pytest.raises(ValueError, match="trace must be 1"):
            negativity(rho, 0, 3)
        with pytest.raises(ValueError, match="trace must be 1"):
            two_tangle(rho, (0, 1), 3)


def test_two_tangle_bell_embedded():
    # AB pair of |Bell> x |0><0| keeps its full pair entanglement.
    rho = np.kron(BELL, np.diag([1.0, 0.0])).astype(complex)
    assert two_tangle(rho, (0, 1), 3) == pytest.approx(1.0, abs=1e-12)
    assert two_tangle(rho, (0, 2), 3) <= 1e-12


def test_two_tangles_vanish_on_family():
    # Pair reductions of this family are diagonal, hence PPT.
    for r in (0.0, 0.4, math.pi / 4):
        for kind, p in [("phase_damping", 0.0), ("phase_damping", 0.3), ("phase_flip", 0.7)]:
            rho = apply_channel(lift(CouplingConfig.collective(kind, p)), ghz_rindler_density(r, r))
            for pair in [(0, 1), (0, 2), (1, 2)]:
                assert two_tangle(rho, pair, 3) <= 1e-12


def test_two_tangle_rejects_a_pair_that_is_not_two_qubits():
    rho = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError, match="two qubits"):
        two_tangle(rho, (0,), 3)
    with pytest.raises(ValueError, match="two qubits"):
        two_tangle(rho, (0, 1, 2), 3)


def test_negativity_rejects_mismatched_qubit_count():
    with pytest.raises(ValueError, match="n_qubits=2 does not match a 8x8 matrix"):
        negativity(np.eye(8) / 8, 0, 2)


def test_two_tangle_rejects_mismatched_qubit_count():
    with pytest.raises(ValueError, match="n_qubits=4 does not match a 8x8 matrix"):
        two_tangle(np.eye(8) / 8, (0, 1), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tangles_reject_nonfinite(bad):
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 7] = rho[7, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        negativity(rho, 0, 3)
    with pytest.raises(ValueError, match="finite"):
        two_tangle(rho, (0, 1), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_spectrum_fails_the_cross_check(bad, monkeypatch):
    # -inf gives inf - inf between the two routes; that must end in the
    # cross-check's RuntimeError, not in a warning: on a stack, and on the
    # public routes, which reduce their one spectrum on Python floats.
    monkeypatch.setattr(tangles, "_eigenvalues", lambda m: np.array([bad, 0.25, 0.5]))
    rho = np.eye(8) / 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="negativity cross-check failed"):
            tangles._negativity_from_spectra(np.array([[0.25, 0.5], [bad, 1.0]]))
        with pytest.raises(RuntimeError, match="negativity cross-check failed"):
            negativity(rho, 0, 3)
        with pytest.raises(RuntimeError, match="negativity cross-check failed"):
            two_tangle(rho, (0, 1), 3)


def test_each_public_call_coerces_its_input_once(monkeypatch):
    calls = []
    original = linalg.as_matrix

    def counting(m):
        calls.append(1)
        return original(m)

    for module in (linalg, tangles):
        monkeypatch.setattr(module, "as_matrix", counting)
    rho = ghz_rindler_density(0.3, 0.3)
    negativity(rho, 0, 3)
    assert len(calls) == 1
    two_tangle(rho, (0, 1), 3)
    assert len(calls) == 2


# sha256 of the dense public route's bytes on _dense_states(2031), recorded at
# 9bfb95e with numpy 2.4.6 (OpenBLAS 0.3.31) on x86-64 (an AMD EPYC host). The
# bytes are LAPACK's, so they depend on the numpy and OpenBLAS versions and on
# the CPU kernels OpenBLAS dispatches to: on another CPU target this test can
# fail with nothing regressed. The layout and stack-route tests compare within
# one process and hold everywhere.
DENSE_ROUTE_DIGEST = "08f8fe3908ba414ccb70c5b704a71ba24f3fbed8c2b28275e15a9f96519f5a63"


def _dense_states(seed):
    # Random 3-qubit states of rank 1, 2, 4 and 8, 16 each, built as the
    # perfbench dense_states workload builds its own.
    rng = np.random.default_rng(seed)
    states = []
    for rank in (1, 2, 4, 8):
        for _ in range(16):
            a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
            rho = a @ a.conj().T
            states.append(rho / np.trace(rho).real)
    return states


def test_the_dense_route_keeps_its_bytes():
    # The six negativities of each state, then the eigenvalues of each of
    # its six cuts: any change to the checks or the solve that moves a last
    # digit moves the digest.
    pairs = ((0, 1), (0, 2), (1, 2))
    digest = hashlib.sha256()
    for rho in _dense_states(2031):
        values = [negativity(rho, q, 3) for q in range(3)] + [two_tangle(rho, pair, 3) for pair in pairs]
        digest.update(np.array(values).tobytes())
        cuts = [partial_transpose(rho, q, 3) for q in range(3)]
        cuts += [partial_transpose(partial_trace(rho, pair, 3), 0, 2) for pair in pairs]
        for cut in cuts:
            digest.update(hermitian_eigenvalues(cut).tobytes())
    assert digest.hexdigest() == DENSE_ROUTE_DIGEST


def test_residual_arithmetic():
    assert residual(0.5, 0.0, 0.0) == pytest.approx(0.25)
    assert residual(0.5, 0.3, 0.4) == pytest.approx(0.25 - 0.09 - 0.16)
    assert pi_tangle(0.3, 0.2, 0.1) == pytest.approx(0.2)


def _report(r, kind, coupling, p):
    cfg = getattr(CouplingConfig, coupling)(kind, p)
    return full_report(r, cfg)


def test_report_echoes_configuration():
    rep = _report(0.3, "phase_flip", "local_alice", 0.2)
    assert rep.channel == "phase_flip"
    assert rep.coupling == "local_alice"
    assert (rep.p0, rep.p1, rep.p2) == (0.2, 0.0, 0.0)
    assert rep.r == 0.3


def test_report_noiseless_inertial_point():
    rep = _report(0.0, "phase_damping", "collective", 0.0)
    assert rep.n_A_BC == pytest.approx(1.0, abs=1e-12)
    assert rep.n_B_AC == pytest.approx(1.0, abs=1e-12)
    assert rep.n_AB == 0.0
    assert rep.pi_A == pytest.approx(1.0, abs=1e-12)
    assert rep.pi_tangle == pytest.approx(1.0, abs=1e-12)


def test_report_symmetry_between_accelerated_parties():
    # rb = rc, so B and C see identical cuts.
    for p in (0.0, 0.4):
        rep = _report(0.5, "phase_damping", "collective", p)
        assert rep.n_B_AC == pytest.approx(rep.n_C_AB, abs=1e-12)
        assert rep.pi_B == pytest.approx(rep.pi_C, abs=1e-12)


def test_report_residuals_reduce_to_squares():
    # Two-tangles vanish on this family, so pi_X = n_X^2.
    rep = _report(0.6, "phase_flip", "collective", 0.2)
    assert rep.n_AB == rep.n_AC == rep.n_BC == 0.0
    assert rep.pi_A == pytest.approx(rep.n_A_BC**2, abs=1e-12)
    assert rep.pi_B == pytest.approx(rep.n_B_AC**2, abs=1e-12)
    assert rep.pi_tangle == pytest.approx((rep.pi_A + rep.pi_B + rep.pi_C) / 3, abs=1e-15)


def test_report_deviation_fields():
    rep = _report(0.45, "phase_damping", "collective", 0.15)
    assert rep.dev_A == pytest.approx(abs(rep.n_A_BC - rep.cf_n_A_BC), abs=1e-15)
    assert rep.dev_BC == pytest.approx(abs(rep.n_B_AC - rep.cf_n_BC_AC), abs=1e-15)
    assert rep.dev_pi == pytest.approx(abs(rep.pi_tangle - rep.cf_pi), abs=1e-15)


def test_report_closed_forms_exact_at_zero_acceleration():
    for kind in ("phase_damping", "phase_flip"):
        for p in (0.0, 0.25, 0.5, 0.8):
            rep = _report(0.0, kind, "collective", p)
            assert rep.dev_A <= 1e-12
            assert rep.dev_BC <= 1e-12
            assert rep.dev_pi <= 1e-12


def test_report_routes_disagree_at_high_acceleration():
    # The analytic expressions and the density-matrix pipeline are distinct
    # routes; at r = pi/4, p = 0 they give different one-tangles.
    rep = _report(math.pi / 4, "phase_damping", "collective", 0.0)
    assert rep.n_A_BC == pytest.approx((math.sqrt(17.0) - 1.0) / 8.0, abs=1e-12)
    assert rep.cf_n_A_BC == pytest.approx((1.0 + math.sqrt(5.0)) / 8.0, abs=1e-15)
    assert rep.dev_A == pytest.approx(0.014120293985266101, abs=1e-12)


def test_report_against_independent_pipeline():
    # Rebuild the state and channel with the oracle routes only.
    r, p = 0.5, 0.3
    rep = _report(r, "phase_damping", "collective", p)
    rho = dephase_elementwise(ghz_via_mode_trace(r, r), [math.sqrt(1 - p)] * 3)
    assert rep.n_A_BC == pytest.approx(ref_negativity(rho, 0, 3), abs=1e-10)
    assert rep.n_B_AC == pytest.approx(ref_negativity(rho, 1, 3), abs=1e-10)
    assert rep.n_C_AB == pytest.approx(ref_negativity(rho, 2, 3), abs=1e-10)


def test_report_against_independent_pipeline_phase_flip():
    r, p = 0.7, 0.35
    cfg = CouplingConfig("phase_flip", p, 0.0, p, label="custom")
    rep = full_report(r, cfg)
    rho = dephase_elementwise(ghz_via_mode_trace(r, r), [1 - 2 * p, 1.0, 1 - 2 * p])
    assert rep.n_A_BC == pytest.approx(ref_negativity(rho, 0, 3), abs=1e-10)
    assert rep.n_B_AC == pytest.approx(ref_negativity(rho, 1, 3), abs=1e-10)


def test_report_closed_form_dispatch(monkeypatch):
    import ghztangle.closedform as cfmod

    monkeypatch.setattr(cfmod, "pd_one_tangle_A", lambda r, p0, p1, p2: 42.0)
    rep = _report(0.2, "phase_damping", "collective", 0.1)
    assert rep.cf_n_A_BC == 42.0
    # Flip channel must not route through the damping expression.
    rep2 = _report(0.2, "phase_flip", "collective", 0.1)
    assert rep2.cf_n_A_BC != 42.0


def test_report_field_order_is_frozen():
    import dataclasses

    names = [f.name for f in dataclasses.fields(TangleReport)]
    assert names == [
        "channel",
        "coupling",
        "p0",
        "p1",
        "p2",
        "r",
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
        "cf_n_A_BC",
        "cf_n_BC_AC",
        "cf_pi",
        "dev_A",
        "dev_BC",
        "dev_pi",
    ]


def test_the_block_solve_receives_float64_parts(monkeypatch):
    # x_eigenvalues_stack does not check its dtype: _x_parts and dephase_x
    # give it float64.
    seen = []
    solve = tangles.x_eigenvalues_stack

    def spy(diag, anti):
        seen.append((diag.dtype, anti.dtype))
        return solve(diag, anti)

    monkeypatch.setattr(tangles, "x_eigenvalues_stack", spy)
    r = np.array([0.0, 0.3, math.pi / 4, 0.3])
    flip = np.array([True, False, True, False])
    params = np.array([[0.2, 0.2, 0.2], [0.5, 0.0, 0.0], [1.0, 0.5, 0.25], [0.0, 0.0, 0.0]])
    list(tangles.report_chunks(r, flip, params))
    assert seen == [(np.float64, np.float64)]
