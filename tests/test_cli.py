import csv
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ghztangle.closedform
import ghztangle.tangles
from ghztangle.analysis import SweepSpec, sweep
from ghztangle.cli import COLUMNS, build_parser, main


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


def _sweep_with_fault(capsys, monkeypatch, tmp_path, name, fault):
    # Runs a sweep with tangles' `name` (ghz_rindler_density, dephase_x or
    # x_eigenvalues_stack) wrapped so that `fault` edits each array it
    # returns.
    real = getattr(ghztangle.tangles, name)

    def faulty(*args):
        out = real(*args)
        fault(out)
        return out

    monkeypatch.setattr(ghztangle.tangles, name, faulty)
    argv = ["--channel", "phase-flip", "--r", "0.5", "--p-step", "1", "--out", str(tmp_path / "x.csv")]
    return run_cli(capsys, "sweep", *argv)


def _nan_coherence(anti):
    anti[:, 0] = anti[:, 7] = math.nan


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    code, _, err = _sweep_with_fault(capsys, monkeypatch, tmp_path, "dephase_x", _nan_coherence)
    assert code == 2
    assert "cross-check" in err
    assert list(tmp_path.iterdir()) == []


def _nan_diagonal(rho):
    rho[3, 3] = math.nan


def _asymmetric(rho):
    rho[0, 7] = np.nextafter(rho[7, 0].real, math.inf)


def _nan_eigenvalue(w):
    w[:, 0] = math.nan


@pytest.mark.parametrize(
    "name, fault, message",
    [
        ("ghz_rindler_density", _nan_diagonal, "cross-check"),
        ("ghz_rindler_density", _asymmetric, "exactly symmetric X"),
        ("x_eigenvalues_stack", _nan_eigenvalue, "cross-check"),
    ],
    ids=["nan-diagonal", "asymmetric", "nan-spectrum"],
)
def test_stack_route_faults_exit_numeric(name, fault, message, tmp_path, capsys, monkeypatch):
    # Faults made inside the pipeline are numerical failures, not usage errors.
    code, _, err = _sweep_with_fault(capsys, monkeypatch, tmp_path, name, fault)
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_stream_leaves_the_target_unchanged(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    out.write_bytes(b"old\n")
    real = ghztangle.cli.sweep_chunks

    def first_stack_then_fail(spec):
        yield next(real(spec))
        raise RuntimeError("injected failure")

    monkeypatch.setattr(ghztangle.cli, "sweep_chunks", first_stack_then_fail)
    argv = ["--channel", "phase-flip", "--r", "0.5", "--p-step", "0.001", "--out", str(out)]
    code, _, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert "injected failure" in err
    assert out.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [out]


# The peak resident set of this process image, in KiB. Not ru_maxrss:
# Linux carries that across exec from the launching process, so under a
# test runner it reads the runner's own peak.
_PEAK_RSS = (
    "import sys; from ghztangle.cli import main; main(sys.argv[1:]); "
    "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')).split()[1])"
)


def _peak_kib(argv) -> int:
    """The peak resident set of ``ghztangle <argv>`` run in a fresh process, in KiB."""
    src = Path(ghztangle.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_sweep_memory_does_not_grow_with_the_row_count(tmp_path):
    # 2,001 and 20,001 rows: the writer streams one stack at a time, so the
    # larger run holds only its r, channel and parameter arrays more.
    argv = ["sweep", "--channel", "phase-flip", "--r", "0.5", "--out", str(tmp_path / "x.csv"), "--p-step"]
    peaks = [_peak_kib([*argv, step]) for step in ("0.0005", "0.00005")]
    assert peaks[1] - peaks[0] < 8 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_verify_memory_does_not_grow_with_the_row_count():
    # 4,004 and 40,004 rows per coupling and channel: verify folds each stack
    # into its worst gaps, so the larger run holds only its grid arrays more.
    peaks = [_peak_kib(["verify", "--p-step", step]) for step in ("0.001", "0.0001")]
    assert peaks[1] - peaks[0] < 8 * 1024


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
    assert [row[1] for row in rows] == ["0.8333333", "0.8333333"]
    assert [row[2:4] for row in rows] == [["yes", "yes"], ["yes", "yes"]]
    assert [row[4] for row in rows] == ["0.8416667", "0.9166668"]


@pytest.mark.parametrize("weights", ["0.6,nan,0", "1.5,0,0"])
def test_esd_refused_weights_print_nothing(weights, capsys):
    code, out, err = run_cli(
        capsys, "esd", "--channel", "phase-flip", "--r", "0.3", "--coupling", "custom", "--weights", weights
    )
    assert code == 1
    assert out == ""
    assert "weights must be in [0, 1]" in err


def test_esd_failure_at_a_later_r_prints_no_partial_table(capsys, monkeypatch):
    real = ghztangle.cli.find_esd

    def fail_after_first(channel, r, **kwargs):
        if r > 0.0:
            raise RuntimeError("injected failure")
        return real(channel, r, **kwargs)

    monkeypatch.setattr(ghztangle.cli, "find_esd", fail_after_first)
    code, out, err = run_cli(capsys, "esd", "--channel", "phase-flip", "--r", "0,0.3")
    assert code == 2
    assert out == ""
    assert "injected failure" in err


def test_sweep_rejects_infinite_step(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--channel", "phase-flip", "--r", "0", "--p-step", "inf", "--out", str(out))
    assert code == 1
    assert "p step must be positive and finite" in err
    assert not out.exists()


def test_esd_rejects_bad_selector(capsys):
    code, _, err = run_cli(capsys, "esd", "--channel", "phase-flip", "--r", "0", "--tangle", "bogus")
    assert code == 1
    assert "error:" in err


def test_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = tmp_path / "s.csv"
    calls = [
        ("esd", "--channel", "phase-flip", "--coupling", "custom", "--weights", "0.6,0.6,0.6", "--r", "0"),
        ("esd", "--channel", "phase-flip", "--coupling", "custom", "--r", "0"),
        ("esd", "--channel", "phase-flip", "--r", "0", "--bogus"),
        # Would exit 1 if the custom esd's --weights were carried over.
        ("sweep", "--channel", "phase-damping", "--r", "0", "--p-step", "0.5", "--out", str(out)),
    ]
    results = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in results] == [0, 1, 1, 0]
    assert "custom coupling requires --weights" in results[1][2]
    assert "--bogus" in results[2][2]
    with open(out, newline="") as handle:
        assert [row[:2] for row in csv.reader(handle)][1:] == [["phase_damping", "collective"]] * 3


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


def test_output_files_get_the_umask_mode(tmp_path, capsys):
    # Like a file open() creates: 0666 less the umask, not mkstemp's 0600.
    out = tmp_path / "m.csv"
    old = os.umask(0o022)
    try:
        code, _, _ = run_cli(capsys, "sweep", "--channel", "phase-flip", "--r", "0", "--p-step", "0.5", "--out", str(out))
        assert code == 0
        code, _, _ = run_cli(capsys, "figure", "1", "--out-dir", str(tmp_path / "fig"))
        assert code == 0
    finally:
        os.umask(old)
    paths = [out, *sorted((tmp_path / "fig").iterdir())]
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [0o644] * 3


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
