"""Byte-level regression tests for the CLI outputs and the batched pipeline.

The digests pin every output byte of the figure data, the verify report,
an esd table and two custom-coupling sweeps. They were produced with
Python 3.11.7 and numpy 2.4.6 (numpy Jacobi backend) on x86-64 Linux; a
different numpy or libm may legitimately move the last digit of a cell.
"""

import dataclasses
import hashlib

import pytest

from ghztangle import closedform
from ghztangle.analysis import DEFAULT_R_VALUES, SweepSpec
from ghztangle.channels import CHANNEL_KINDS, PHASE_DAMPING, CouplingConfig, apply_channel, lift
from ghztangle.cli import main
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import (
    CHUNK,
    NEGATIVITY_FLOOR,
    TangleReport,
    full_reports,
    negativity,
    pi_tangle,
    residual,
    two_tangle,
)

FIGURE_DIGESTS = {
    1: {
        "fig1_collective.csv": "db75d1c1dd0db99bf0e2d7b9d0196a57695004e45b0e021ce8f6d499a9a1a149",
        "fig1_local_alice.csv": "ab2ec7006a5aa28de50c25811f56ab70937780442a683148e90c803d813486d9",
    },
    2: {
        "fig2_collective.csv": "9ea0f97812f52fbf4d2b38419ed3984e185d443019a68ca6b166c510dab4b0bc",
        "fig2_local_alice.csv": "f72d0f88f24fe3ad26b1260f87602455285b27d96af978f93667e74c5c2a0f5b",
    },
    3: {
        "fig3_phase_damping.csv": "e6548e7c5912286f3d157dff125299a8260b5c3568cc0d68a272f1ccea7c1120",
        "fig3_phase_flip.csv": "4ecc383ce63abc28898e52c34e7474e7bbc70cc3212a63ec06ea8283707c8b2b",
    },
}

STDOUT_DIGESTS = [
    (("verify",), "7acbd51ecd5c56f98b4c3b5f7d2d8866c1e21cacca5e3ceb8e8ed7349ee987c0"),
    (
        ("esd", "--channel", "phase-flip", "--r", "0,0.3926990816987241,0.7853981633974483"),
        "4c5a1d413c7154311e6c86d5cacb8f3ae1a1d21c8bd8e82c0ca579afd6c2a306",
    ),
]

SWEEP_DIGESTS = [
    (
        ("--channel", "phase-damping", "--coupling", "custom", "--weights", "1,0.5,0.25"),
        "d2342db84928288394517452047030bd9525bf3bb587bb3aa7167b562fda2610",
    ),
    (
        ("--channel", "phase-flip", "--coupling", "custom", "--weights", "0.3,1,0", "--format", "json"),
        "1a36b4697b9695b2ba256a8423ae80c409dc4a0dcea4c9c38c64d5320f5c92ec",
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


def _clamp(x):
    if x < -NEGATIVITY_FLOOR:
        raise RuntimeError("negativity below tolerance floor")
    return 0.0 if x < 0.0 else x


def _public_route_report(r, cfg):
    # One point at a time through the explicit Kraus route and the
    # single-matrix eigensolver: the pipeline as it was before batching.
    rho = apply_channel(lift(cfg), ghz_rindler_density(r, r))
    n_a, n_b, n_c = (_clamp(negativity(rho, q, 3)) for q in range(3))
    n_ab, n_ac, n_bc = (_clamp(two_tangle(rho, pair, 3)) for pair in ((0, 1), (0, 2), (1, 2)))
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
def test_full_reports_equal_public_route(kind, coupling):
    spec = SweepSpec(kind, coupling, weights=(0.9, 0.4, 0.65), p_step=0.025)
    configs = [spec.config_at(p) for p in spec.p_grid()]
    points = [(r, cfg) for r in DEFAULT_R_VALUES for cfg in configs]
    assert len(points) > CHUNK  # crosses a chunk boundary
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
