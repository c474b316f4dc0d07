"""Byte-level regression tests for the CLI outputs and the batched pipeline.

The digests pin every output byte of the figure data, the verify report,
an esd table and two custom-coupling sweeps. They were produced with
Python 3.11.7 and numpy 2.4.6 (numpy Jacobi backend) on x86-64 Linux; a
different numpy or libm may legitimately move the last digit of a cell.
"""

import dataclasses
import hashlib

import pytest

from ghztangle import closedform, tangles
from ghztangle.analysis import DEFAULT_R_VALUES, SweepSpec
from ghztangle.channels import CHANNEL_KINDS, PHASE_DAMPING, CouplingConfig, coherence_factors
from ghztangle.cli import main
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import (
    TangleReport,
    full_reports,
    negativity,
    pi_tangle,
    residual,
    two_tangle,
)

from oracles import dephase_elementwise

FIGURE_DIGESTS = {
    1: {
        "fig1_collective.csv": "366ce5ed15d0d6449353cabfc95bea16b4e4c0297dc6b2716988f1f87c9b475f",
        "fig1_local_alice.csv": "84a0282700c0344c71354b797649aea29241a487b2088a420527950f16ba754a",
    },
    2: {
        "fig2_collective.csv": "444b50b4889748826cf3943440b033155007e5fc88e3a8b6712e62bebb92f41c",
        "fig2_local_alice.csv": "26973eee7e88e9d50f7777500d7d4fd164e7dcb402577761744d6f39da2f2fed",
    },
    3: {
        "fig3_phase_damping.csv": "9a6526bc18c0427323175d209bc3d6f6c1dd80e07c074ed8f0b22c24e2360e5e",
        "fig3_phase_flip.csv": "da25907695369b00cd50b261d60a657c239b15fe167589430e80927b11831d37",
    },
}

STDOUT_DIGESTS = [
    (("verify",), "7acbd51ecd5c56f98b4c3b5f7d2d8866c1e21cacca5e3ceb8e8ed7349ee987c0"),
    (
        ("esd", "--channel", "phase-flip", "--r", "0,0.3926990816987241,0.7853981633974483"),
        "9b06302e21ad222433d0319d69e99891216f9412ac487e32f505442990f0f2ef",
    ),
]

SWEEP_DIGESTS = [
    (
        ("--channel", "phase-damping", "--coupling", "custom", "--weights", "1,0.5,0.25"),
        "6d91e770ca7a452d83d56289cfa5d4c1fb78ae74f65f904fb7d77ec009475712",
    ),
    (
        ("--channel", "phase-flip", "--coupling", "custom", "--weights", "0.3,1,0", "--format", "json"),
        "58a6149dfe59f47cff409a9f79d2c2acbb31bacdeaff740bc8e7ca9d0887b03e",
    ),
]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("figure", sorted(FIGURE_DIGESTS))
def test_figure_files_are_byte_identical(figure, tmp_path, capsys):
    assert main(["figure", str(figure), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in FIGURE_DIGESTS[figure].items():
        assert _sha256(tmp_path / name) == digest, name


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS, ids=["verify", "esd"])
def test_stdout_is_byte_identical(argv, digest, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", SWEEP_DIGESTS, ids=["csv", "json"])
def test_sweep_file_is_byte_identical(argv, digest, tmp_path, capsys):
    out = tmp_path / "rows"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == digest


def _public_route_report(r, cfg):
    # One point at a time through the element-wise oracle channel and the
    # single-matrix eigensolver: the pipeline without batching.
    rho = dephase_elementwise(ghz_rindler_density(r, r), coherence_factors(cfg))
    n_a, n_b, n_c = (negativity(rho, q, 3) for q in range(3))
    n_ab, n_ac, n_bc = (two_tangle(rho, pair, 3) for pair in ((0, 1), (0, 2), (1, 2)))
    pi_a = residual(n_a, n_ab, n_ac)
    pi_b = residual(n_b, n_ab, n_bc)
    pi_c = residual(n_c, n_ac, n_bc)
    pi = pi_tangle(pi_a, pi_b, pi_c)
    prefix = "pd" if cfg.kind == PHASE_DAMPING else "pf"
    cf_a = getattr(closedform, f"{prefix}_one_tangle_A")(r, *cfg.params)
    cf_bc = getattr(closedform, f"{prefix}_one_tangle_BC")(r, *cfg.params)
    cf_pi = getattr(closedform, f"{prefix}_pi_tangle")(r, *cfg.params)
    return TangleReport(
        cfg.kind, cfg.label, cfg.p0, cfg.p1, cfg.p2, r,
        n_a, n_b, n_c, n_ab, n_ac, n_bc,
        pi_a, pi_b, pi_c, pi,
        cf_a, cf_bc, cf_pi,
        abs(n_a - cf_a), abs(n_b - cf_bc), abs(pi - cf_pi),
    )  # fmt: skip


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("coupling", ["collective", "local_alice", "custom"])
def test_full_reports_equal_public_route(kind, coupling, monkeypatch):
    monkeypatch.setattr(tangles, "CHUNK", 16)
    weights = (0.9, 0.4, 0.65) if coupling == "custom" else (1.0, 1.0, 1.0)
    spec = SweepSpec(kind, coupling, weights=weights, p_step=0.025)
    configs = [spec.config_at(p) for p in spec.p_grid()]
    points = [(r, cfg) for r in DEFAULT_R_VALUES for cfg in configs]
    assert len(points) > tangles.CHUNK  # crosses chunk boundaries
    got = full_reports([r for r, _ in points], [cfg for _, cfg in points])
    assert len(got) == len(points)
    for rep, (r, cfg) in zip(got, points):
        assert dataclasses.astuple(rep) == dataclasses.astuple(_public_route_report(r, cfg))


def test_full_reports_mixed_channels_and_lengths():
    cfgs = [CouplingConfig.collective("phase_flip", 0.3), CouplingConfig("phase_damping", 0.1, 0.7, 0.2)]
    got = full_reports([0.2, 0.7], cfgs)
    assert got == [_public_route_report(0.2, cfgs[0]), _public_route_report(0.7, cfgs[1])]
    assert full_reports([], []) == []
    with pytest.raises(ValueError, match="differ in length"):
        full_reports([0.2], cfgs)
