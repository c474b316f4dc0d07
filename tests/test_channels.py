import numpy as np
import pytest

from ghztangle.channels import (
    CHANNEL_KINDS,
    PHASE_FLIP,
    CouplingConfig,
    apply_channel,
    coherence_factors,
    dephase_x,
    lift,
    phase_damping,
    phase_flip,
)
from ghztangle.rindler import ghz_rindler_density

from oracles import dephase_elementwise, random_density_matrix, random_x_stack


def _complete(ops):
    total = sum(e.conj().T @ e for e in ops)
    return np.abs(total - np.eye(ops[0].shape[0])).max()


def test_phase_damping_operators():
    ch = phase_damping(0.36)
    e0, e1 = ch.ops
    assert np.abs(e0 - np.diag([1.0, 0.8])).max() <= 1e-15
    assert np.abs(e1 - np.diag([0.0, 0.6])).max() <= 1e-15


def test_phase_damping_completeness():
    for p in (0.0, 0.1, 0.5, 0.99, 1.0):
        assert _complete(phase_damping(p).ops) <= 1e-15


def test_phase_damping_identity_at_zero():
    e0, e1 = phase_damping(0.0).ops
    assert np.array_equal(e0, np.eye(2))
    assert np.array_equal(e1, np.zeros((2, 2)))


def test_phase_flip_operators():
    ch = phase_flip(0.25)
    e0, e1 = ch.ops
    assert np.abs(e0 - np.sqrt(0.75) * np.eye(2)).max() <= 1e-15
    assert np.abs(e1 - 0.5 * np.diag([1.0, -1.0])).max() <= 1e-15


def test_phase_flip_completeness():
    for p in (0.0, 0.3, 0.5, 1.0):
        assert _complete(phase_flip(p).ops) <= 1e-15


@pytest.mark.parametrize("maker", [phase_damping, phase_flip])
def test_p_validation(maker):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        maker(-0.01)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        maker(1.01)


def test_single_qubit_action_phase_damping():
    # Diagonal untouched, coherence scaled by sqrt(1 - p).
    rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    out = apply_channel(phase_damping(0.19).ops, rho)
    assert out[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert out[1, 1] == pytest.approx(0.4, abs=1e-15)
    assert out[0, 1] == pytest.approx((0.2 + 0.1j) * np.sqrt(0.81), abs=1e-15)


def test_single_qubit_action_phase_flip():
    # Coherence scaled by (1 - 2p): sign flips past p = 1/2.
    rho = np.array([[0.5, 0.5], [0.5, 0.5]])
    for p in (0.1, 0.5, 0.8):
        out = apply_channel(phase_flip(p).ops, rho)
        assert out[0, 1] == pytest.approx(0.5 * (1 - 2 * p), abs=1e-15)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_coupling_config_factories():
    c = CouplingConfig.collective("phase_flip", 0.2)
    assert c.params == (0.2, 0.2, 0.2)
    assert c.label == "collective"
    a = CouplingConfig.local_alice("phase_damping", 0.7)
    assert a.params == (0.7, 0.0, 0.0)
    assert a.label == "local_alice"


def test_coupling_config_validation():
    with pytest.raises(ValueError, match="unknown channel kind"):
        CouplingConfig("depolarizing", 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        CouplingConfig("phase_flip", 0.1, 1.5, 0.1)


def test_lift_count_and_completeness():
    for kind in ("phase_damping", "phase_flip"):
        ops = lift(CouplingConfig(kind, 0.2, 0.5, 0.8))
        assert len(ops) == 8
        assert all(e.shape == (8, 8) for e in ops)
        assert _complete(ops) <= 1e-14


def test_lift_ordering():
    # Index of qubit 0's operator varies slowest: ops[4] is E1 x E0 x E0.
    ops = lift(CouplingConfig("phase_damping", 0.75, 0.0, 0.0))
    e1 = np.diag([0.0, np.sqrt(0.75)])
    expected = np.kron(np.kron(e1, np.eye(2)), np.eye(2))
    assert np.abs(ops[4] - expected).max() <= 1e-15
    assert np.abs(ops[0] - np.kron(np.kron(np.diag([1.0, 0.5]), np.eye(2)), np.eye(2))).max() <= 1e-15


def test_lift_all_zero_params_is_identity_channel():
    ops = lift(CouplingConfig.collective("phase_flip", 0.0))
    rng = np.random.default_rng(41)
    rho = random_density_matrix(rng, 8)
    assert np.abs(apply_channel(ops, rho) - rho).max() <= 1e-15


def test_apply_channel_rejects_incomplete_family():
    e0, _ = phase_damping(0.5).ops
    with pytest.raises(ValueError, match="Kraus completeness violated"):
        apply_channel((e0,), np.eye(2) / 2)


def test_apply_channel_preserves_state_properties():
    rng = np.random.default_rng(43)
    for kind in ("phase_damping", "phase_flip"):
        for _ in range(5):
            rho = random_density_matrix(rng, 8)
            ops = lift(CouplingConfig(kind, *rng.uniform(0, 1, size=3)))
            out = apply_channel(ops, rho)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-13)
            assert np.abs(out - out.conj().T).max() == 0.0
            assert np.linalg.eigvalsh(out).min() >= -1e-13


def test_lifted_phase_damping_matches_elementwise_oracle():
    # Dephasing is elementwise: entry (i, j) picks up sqrt(1 - p_q) for
    # every qubit q on which i and j differ.
    rng = np.random.default_rng(47)
    rho = random_density_matrix(rng, 8)
    ps = (0.2, 0.5, 0.9)
    out = apply_channel(lift(CouplingConfig("phase_damping", *ps)), rho)
    oracle = dephase_elementwise(rho, [np.sqrt(1 - p) for p in ps])
    assert np.abs(out - oracle).max() <= 1e-14


def test_lifted_phase_flip_matches_elementwise_oracle():
    rng = np.random.default_rng(53)
    rho = random_density_matrix(rng, 8)
    ps = (0.1, 0.4, 0.8)
    out = apply_channel(lift(CouplingConfig("phase_flip", *ps)), rho)
    oracle = dephase_elementwise(rho, [1 - 2 * p for p in ps])
    assert np.abs(out - oracle).max() <= 1e-14


def test_coherence_factors_match_kraus_route():
    rng = np.random.default_rng(59)
    rho = random_density_matrix(rng, 8)
    for kind in ("phase_damping", "phase_flip"):
        cfg = CouplingConfig(kind, 0.3, 0.5, 0.95)
        out = apply_channel(lift(cfg), rho)
        assert np.abs(out - dephase_elementwise(rho, coherence_factors(cfg))).max() <= 1e-14
    # Zero exactly at p = 1/2 (flip) and p = 1 (damping); the flip factor is signed.
    f0, f1, f2 = coherence_factors(CouplingConfig("phase_flip", 0.5, 0.8, 0.0))
    assert f0 == 0.0 and f1 < 0.0 and f2 == 1.0
    assert coherence_factors(CouplingConfig("phase_damping", 1.0, 0.36, 0.0)) == (0.0, 0.8, 1.0)


def test_dephase_stack_matches_the_kraus_route():
    # The pipeline's anti-diagonal scaling and the public lifted Kraus family
    # are one channel on X states: equal to rounding on random states and
    # parameters, and equal bit for bit to the element-wise oracle, which
    # also keeps the diagonal and the zeros off the X as they are.
    rng = np.random.default_rng(61)
    kinds = rng.choice(CHANNEL_KINDS, size=64)
    params = rng.uniform(0.0, 1.0, size=(64, 3))
    params[::4] = np.where(rng.uniform(size=(16, 3)) < 0.5, 0.5, 1.0)
    rho = random_x_stack(rng, 64, 8)
    anti = np.diagonal(rho[:, :, ::-1], axis1=1, axis2=2)
    out = dephase_x(kinds == PHASE_FLIP, params, anti)
    x = np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1]
    for kind, p, state, got in zip(kinds, params, rho, out):
        cfg = CouplingConfig(str(kind), *p)
        kraus = apply_channel(lift(cfg), state)
        assert np.abs(got - np.diagonal(kraus[:, ::-1])).max() <= 1e-15
        assert np.abs(np.diagonal(kraus) - np.diagonal(state)).max() <= 1e-15
        oracle = dephase_elementwise(state, coherence_factors(cfg))
        assert got.tobytes() == np.diagonal(oracle[:, ::-1]).real.copy().tobytes()
        assert not np.diagonal(oracle[:, ::-1]).imag.any()
        assert np.diagonal(oracle).tobytes() == np.diagonal(state).astype(complex).tobytes()
        assert not oracle[~x].any()


def test_channel_on_ghz_keeps_diagonal():
    rho = ghz_rindler_density(0.5, 0.5)
    out = apply_channel(lift(CouplingConfig.collective("phase_damping", 0.7)), rho)
    assert np.abs(np.diag(out) - np.diag(rho)).max() <= 1e-15
    # The only coherence is across all three qubits.
    scale = np.sqrt(1 - 0.7) ** 3
    assert out[0, 7] == pytest.approx(rho[0, 7] * scale, abs=1e-15)


def test_phase_flip_full_flip_is_involution_on_coherence():
    # p = 1 applies sigma_z on each coupled qubit deterministically.
    rho = ghz_rindler_density(0.0, 0.0)
    out = apply_channel(lift(CouplingConfig.collective("phase_flip", 1.0)), rho)
    assert out[0, 7] == pytest.approx(-0.5, abs=1e-15)
