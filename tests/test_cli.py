import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ghztangle.closedform
import ghztangle.linalg
from ghztangle.analysis import SweepSpec, sweep
from ghztangle.cli import COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "plot")
    assert code == 1
    assert "error:" in err


def test_state_table(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[-1] == "trace = 1"
    first = lines[0].split()
    assert first[0] == "0.5+0j"
    assert first[7] == "0.5+0j"
    assert lines[3].split()[3] == "0+0j"


def test_state_json(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", str(math.pi / 4), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"] == 1
    assert doc["r"] == pytest.approx(math.pi / 4, abs=1e-12)
    matrix = doc["matrix"]
    assert len(matrix) == 8 and all(len(row) == 8 for row in matrix)
    assert matrix[0][0][0] == pytest.approx(0.125, abs=1e-12)
    assert matrix[7][7][0] == pytest.approx(0.5, abs=1e-12)
    assert matrix[0][7][0] == pytest.approx(0.25, abs=1e-12)
    assert all(entry[1] == 0 for row in matrix for entry in row)


def test_state_accepts_rounded_pi_over_four(capsys):
    code, out, _ = run_cli(capsys, "state", "--r", "0.7854")
    assert code == 0
    assert "trace = 1" in out


def test_state_rejects_out_of_range(capsys):
    code, _, err = run_cli(capsys, "state", "--r", "2")
    assert code == 1
    assert "r out of range" in err


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-damping",
        "--r",
        "0,0.5",
        "--p-step",
        "0.5",
        "--out",
        str(out),
    )
    assert code == 0
    assert f"wrote 6 rows to {out}" in stdout
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(COLUMNS)
    assert len(rows) == 7
    assert rows[1][0] == "phase_damping"
    assert rows[1][1] == "collective"
    # Leftover temp files would mean the atomic rename path is broken.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


def test_sweep_csv_round_trips_doubles_exactly(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--r",
        "0.6",
        "--p-step",
        "0.25",
        "--out",
        str(out),
    )
    assert code == 0
    expected = sweep(SweepSpec("phase_flip", r_values=(0.6,), p_step=0.25))
    with open(out, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    assert len(rows) == len(expected)
    for cells, rep in zip(rows, expected):
        for name, cell in zip(header, cells):
            value = getattr(rep, name)
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value  # bit-exact round trip


def test_sweep_csv_uses_lf_line_endings(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    run_cli(capsys, "sweep", "--channel", "phase-flip", "--r", "0", "--p-step", "1", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_sweep_json_matches_csv_text(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    args = ["sweep", "--channel", "phase-damping", "--r", "0.3", "--p-step", "0.5"]
    assert main(args + ["--out", str(csv_path)]) == 0
    assert main(args + ["--out", str(json_path), "--format", "json"]) == 0
    capsys.readouterr()

    docs = json.loads(json_path.read_text())
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        csv_rows = list(reader)
    assert len(docs) == len(csv_rows) == 3
    for doc, cells in zip(docs, csv_rows):
        assert list(doc.keys()) == list(COLUMNS)
        for cell, (name, value) in zip(cells, doc.items()):
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value

    # The number text itself must be identical in both formats.
    literal = json.loads(json_path.read_text(), parse_float=str, parse_int=str)
    for doc, cells in zip(literal, csv_rows):
        assert [v for v in doc.values()] == cells


def test_sweep_custom_requires_weights(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--coupling",
        "custom",
        "--r",
        "0",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "custom coupling requires --weights" in err


def test_sweep_weights_without_custom_coupling_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--coupling",
        "collective",
        "--weights",
        "1,0.5,0",
        "--r",
        "0.5",
        "--out",
        str(out),
    )
    assert code == 1
    assert "--weights applies only to --coupling custom" in err
    assert not out.exists()


def test_sweep_custom_weights_scale_parameters(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--coupling",
        "custom",
        "--weights",
        "1,0.5,0",
        "--r",
        "0",
        "--p-start",
        "0.8",
        "--p-stop",
        "0.8",
        "--p-step",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    with open(out, newline="") as handle:
        reader = csv.DictReader(handle)
        row = next(reader)
    assert row["coupling"] == "custom"
    assert float(row["p0"]) == 0.8
    assert float(row["p1"]) == 0.4
    assert float(row["p2"]) == 0.0


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--r",
        "0",
        "--p-start",
        "0.9",
        "--p-stop",
        "0.1",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "p range" in err


def test_sweep_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--r",
        "0",
        "--p-step",
        "1",
        "--out",
        str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ghztangle.linalg, "MAX_SWEEPS", 0)
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--channel",
        "phase-flip",
        "--r",
        "0.5",
        "--p-step",
        "1",
        "--out",
        str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "did not converge" in err


def test_verify_inertial_strict_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "0", "--p-step", "0.1", "--strict")
    assert code == 0
    assert out.count("[ok]") == 6
    assert "result: all closed forms agree with the numeric pipeline" in out


def test_verify_default_grid_reports_deviations(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p-step", "0.2")
    assert code == 0  # informational without --strict
    assert out.count("[DEVIATES]") == 6
    assert "result: 6 of 6 closed forms deviate" in out
    assert out.count("  - ") == 3  # errata list


def test_verify_strict_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p-step", "0.2", "--strict")
    assert code == 3
    assert "[DEVIATES]" in out


def test_verify_strict_catches_injected_fault(capsys, monkeypatch):
    # Corrupt one closed form by 1%; the r = 0 line that normally passes
    # must now fail, proving the cross-check has teeth.
    original = ghztangle.closedform.pd_one_tangle_A
    monkeypatch.setattr(
        ghztangle.closedform,
        "pd_one_tangle_A",
        lambda r, p0, p1, p2: 1.01 * original(r, p0, p1, p2),
    )
    code, out, _ = run_cli(capsys, "verify", "--r", "0", "--p-step", "0.1", "--strict")
    assert code == 3
    assert "[DEVIATES]" in out


def test_esd_table(capsys):
    code, out, _ = run_cli(capsys, "esd", "--channel", "phase-flip", "--r", "0")
    assert code == 0
    assert "channel=phase_flip coupling=collective tangle=n_A_BC" in out
    lines = out.strip().splitlines()
    fields = lines[-1].split()
    assert fields[0] == "0.0000000"
    # The coherence factor (1-2p)^3 vanishes at p = 1/2 alone.
    assert float(fields[1]) == pytest.approx(0.5, abs=1e-5)
    assert fields[2] == "yes"
    assert fields[3] == "yes"
    assert float(fields[4]) == pytest.approx(0.505, abs=1e-5)


def test_esd_custom_requires_weights(capsys):
    code, _, err = run_cli(capsys, "esd", "--channel", "phase-flip", "--coupling", "custom", "--r", "0")
    assert code == 1
    assert "custom coupling requires --weights" in err


def test_esd_weights_without_custom_coupling_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "esd", "--channel", "phase-flip", "--coupling", "local-alice", "--weights", "1,0.5,0", "--r", "0"
    )
    assert code == 1
    assert out == ""
    assert "--weights applies only to --coupling custom" in err


def test_esd_custom_weights(capsys):
    code, out, _ = run_cli(
        capsys,
        "esd",
        "--channel",
        "phase-flip",
        "--coupling",
        "custom",
        "--weights",
        "0.6,0.6,0.6",
        "--r",
        "0,0.7853981633974483",
    )
    assert code == 0
    assert "channel=phase_flip coupling=custom tangle=n_A_BC" in out
    rows = [line.split() for line in out.strip().splitlines()[-2:]]
    # Swept p scaled by 0.6 puts the coherence zero 1 - 2(0.6 p) at p = 5/6.
    assert [row[0] for row in rows] == ["0.0000000", "0.7853982"]
    assert [row[1] for row in rows] == ["0.8333334", "0.8333334"]
    assert [row[2:4] for row in rows] == [["yes", "yes"], ["yes", "yes"]]
    assert [row[4] for row in rows] == ["0.8416667", "0.9166668"]


def test_esd_rejects_bad_selector(capsys):
    code, _, err = run_cli(capsys, "esd", "--channel", "phase-flip", "--r", "0", "--tangle", "bogus")
    assert code == 1
    assert "error:" in err


def test_figure_writes_named_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "figure", "1", "--out-dir", str(tmp_path))
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig1_collective.csv", "fig1_local_alice.csv"]
    for name in names:
        with open(tmp_path / name, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(COLUMNS)
        assert len(rows) == 1 + 4 * 101
    assert out.count("wrote") == 2


def test_figure_unknown_number(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure", "9", "--out-dir", str(tmp_path))
    assert code == 1
    assert "unknown figure 9" in err


def test_module_entry_point():
    # Run the package this test imported, not whatever else is installed.
    src = Path(ghztangle.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ghztangle", "state", "--r", "0"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "trace = 1" in proc.stdout


def test_console_script():
    exe = shutil.which("ghztangle")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "state", "--r", "2"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "r out of range" in proc.stderr


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_huge_grid_is_usage_error_before_any_work(command, tmp_path, capsys):
    argv = [command, "--p-step", "1e-12"]
    if command == "sweep":
        argv += ["--channel", "phase-flip", "--out", str(tmp_path / "x.csv")]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert "grid has more than" in err
    assert list(tmp_path.iterdir()) == []
