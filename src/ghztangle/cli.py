"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags, out-of-range values,
unwritable paths), 2 numerical failure, 3 verification failure under
--strict. All angles are radians. Output files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from typing import NamedTuple

import numpy as np

from .analysis import (
    DEFAULT_R_VALUES,
    SweepSpec,
    TANGLE_SELECTORS,
    find_esd,
    sweep_chunks,
    verify,
)
from .rindler import check_accel_param, ghz_rindler_density
from .tangles import NUMERIC_COLUMNS, TangleReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

COLUMNS = tuple(f.name for f in dataclasses.fields(TangleReport))

_CHANNEL_FLAGS = {"phase-damping": "phase_damping", "phase-flip": "phase_flip"}
_COUPLING_FLAGS = {"local-alice": "local_alice", "collective": "collective", "custom": "custom"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _atomic_write(path: str, pieces) -> None:
    """Write the strings ``pieces`` through a temporary file and a rename, with the mode open() gives."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(pieces)
        # mkstemp creates the file 0600 whatever the umask.
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Rows(NamedTuple):
    """How a file's rows read. A row is ``lead`` (its two strings, rendered
    once per file), then its numbers joined by ``comma``, then ``end``; rows
    are joined by ``sep``. A number is its ``labels`` entry, if any, then its
    ``%.17g`` text, the text of ``format(x, ".17g")``: 17 significant digits
    round-trip any double exactly."""

    lead: str
    labels: np.ndarray | None
    comma: str
    end: str
    sep: str

    def text(self, values: np.ndarray) -> str:
        """The rows of a C-contiguous float64 ``(n, 20)`` stack, joined by ``sep``."""
        # A stack repeats many values (p0 = p1 = p2, the zero pair columns,
        # n_B_AC = n_C_AB, |1 - 2p| under phase flip), so each distinct one
        # is formatted once, all in one % call. Distinct by bits, not by
        # value, so that -0.0 keeps its text -0.
        keys, index = np.unique(values.view(np.int64), return_inverse=True)
        texts = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).split("\n")
        cells = np.array(texts, dtype=object)[index.reshape(values.shape)]
        if self.labels is not None:
            cells = self.labels + cells
        rows = [self.comma.join(row) for row in cells.tolist()]
        return self.lead + (self.end + self.sep + self.lead).join(rows) + self.end


_JSON_LABELS = np.array([f"{json.dumps(name)}: " for name in NUMERIC_COLUMNS], dtype=object)


def write_reports_csv(path: str, spec: SweepSpec) -> int:
    """Write the report rows of ``spec``'s grid as CSV; returns how many.

    Every row shares the spec's channel and coupling identifiers, which CSV never quotes.
    """
    rows = _Rows(f"{spec.channel},{spec.coupling},", None, ",", "\n", "")
    return _write_rows(path, spec, ",".join(COLUMNS) + "\n", rows, "")


def write_reports_json(path: str, spec: SweepSpec) -> int:
    """The same rows as ``write_reports_csv``, as a JSON list of objects."""
    pairs = zip(COLUMNS, (spec.channel, spec.coupling))
    lead = "  {" + "".join(f"{json.dumps(name)}: {json.dumps(value)}, " for name, value in pairs)
    return _write_rows(path, spec, "[\n", _Rows(lead, _JSON_LABELS, ", ", "}", ",\n"), "\n]\n")


def _write_rows(path: str, spec: SweepSpec, head: str, rows: _Rows, tail: str) -> int:
    """Write ``head``, the grid's rows as ``rows`` reads them, and ``tail``, one
    stack at a time, so memory holds CHUNK rows, not the file; returns the row count."""

    def pieces():
        yield head
        for i, values in enumerate(sweep_chunks(spec)):
            yield (rows.sep if i else "") + rows.text(values)
        yield tail

    _atomic_write(path, pieces())
    return len(spec.r_values) * spec._p_count()


def _parse_r_list(text: str) -> tuple[float, ...]:
    items = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if not items:
        raise UsageError("empty r list")
    try:
        values = [float(item) for item in items]
    except ValueError as exc:
        raise UsageError(f"bad r value: {exc}") from None
    return tuple(check_accel_param(v) for v in values)


def _parse_weights(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(chunk) for chunk in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad weights: {exc}") from None
    if len(parts) != 3:
        raise UsageError("weights must be three comma-separated numbers")
    return (parts[0], parts[1], parts[2])


def cmd_state(args) -> int:
    r = check_accel_param(args.r)
    rho = ghz_rindler_density(r, r)
    if args.format == "json":
        entries = [
            [[_fmt12(z.real), _fmt12(z.imag)] for z in row] for row in rho
        ]
        rows = [
            "    [" + ", ".join(f"[{re}, {im}]" for re, im in row) + "]" for row in entries
        ]
        text = (
            "{\n"
            f'  "r": {_fmt12(r)},\n'
            '  "matrix": [\n' + ",\n".join(rows) + "\n  ],\n"
            f'  "trace": {_fmt12(rho.trace().real)}\n'
            "}"
        )
        print(text)
    else:
        for row in rho:
            print("  ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in row))
        print(f"trace = {rho.trace().real:.12g}")
    return EXIT_OK


def _coupling_from_args(args) -> tuple[str, tuple[float, float, float]]:
    coupling = _COUPLING_FLAGS[args.coupling]
    if coupling != "custom":
        if args.weights is not None:
            raise UsageError("--weights applies only to --coupling custom")
        return coupling, (1.0, 1.0, 1.0)
    if args.weights is None:
        raise UsageError("custom coupling requires --weights w0,w1,w2")
    return coupling, _parse_weights(args.weights)


def _sweep_spec_from_args(args) -> SweepSpec:
    coupling, weights = _coupling_from_args(args)
    return SweepSpec(
        channel=_CHANNEL_FLAGS[args.channel],
        coupling=coupling,
        weights=weights,
        r_values=_parse_r_list(args.r),
        p_start=args.p_start,
        p_stop=args.p_stop,
        p_step=args.p_step,
    )


def cmd_sweep(args) -> int:
    spec = _sweep_spec_from_args(args)
    write = write_reports_json if args.format == "json" else write_reports_csv
    count = write(args.out, spec)
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify(r_values=_parse_r_list(args.r), p_step=args.p_step)
    print(
        f"closed-form cross-check: r = {{{', '.join(_fmt12(r) for r in report.r_values)}}}, "
        f"p step {_fmt12(report.p_step)}, tolerance {report.tolerance:g}"
    )
    for check in report.checks:
        status = "ok" if check.passed else "DEVIATES"
        print(
            f"  {check.channel:13s} {check.quantity:13s} max |closed - numeric| = "
            f"{check.max_dev:.3e} at r={_fmt12(check.r_at)}, p={_fmt12(check.p_at)} "
            f"({check.coupling_at}): numeric={check.numeric:.9f} closed={check.closed:.9f}  [{status}]"
        )
    print("errata:")
    for note in report.errata:
        print(f"  - {note}")
    failed = report.failures()
    if failed:
        print(f"result: {len(failed)} of {len(report.checks)} closed forms deviate beyond {report.tolerance:g}")
    else:
        print("result: all closed forms agree with the numeric pipeline")
    if args.strict and failed:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_esd(args) -> int:
    r_values = _parse_r_list(args.r)
    coupling, weights = _coupling_from_args(args)
    # Every search runs before the first line is printed, so a failure leaves no partial table.
    results = [
        find_esd(_CHANNEL_FLAGS[args.channel], r, tangle=args.tangle, coupling=coupling, weights=weights)
        for r in r_values
    ]
    print(f"channel={_CHANNEL_FLAGS[args.channel]} coupling={coupling} tangle={args.tangle}")
    print(f"{'r':>10s}  {'p_star':>10s}  {'esd':>5s}  {'rebound':>7s}  {'onset':>10s}")
    for r, res in zip(r_values, results):
        onset = f"{res.rebound_onset:.7f}" if res.rebound_onset is not None else "-"
        esd = "no" if res.no_esd else "yes"
        reb = "yes" if res.rebound else "no"
        print(f"{r:10.7f}  {res.p_star:10.7f}  {esd:>5s}  {reb:>7s}  {onset:>10s}")
    return EXIT_OK


def _figure_jobs(figure: int):
    if figure == 1:
        return [
            ("fig1_local_alice.csv", SweepSpec("phase_damping", "local_alice")),
            ("fig1_collective.csv", SweepSpec("phase_damping", "collective")),
        ]
    if figure == 2:
        return [
            ("fig2_local_alice.csv", SweepSpec("phase_flip", "local_alice")),
            ("fig2_collective.csv", SweepSpec("phase_flip", "collective")),
        ]
    if figure == 3:
        r_grid = tuple(i * (math.pi / 160.0) for i in range(41))
        return [
            (
                "fig3_phase_damping.csv",
                SweepSpec("phase_damping", "collective", r_values=r_grid, p_step=0.025),
            ),
            (
                "fig3_phase_flip.csv",
                SweepSpec("phase_flip", "collective", r_values=r_grid, p_step=0.025),
            ),
        ]
    raise UsageError(f"unknown figure {figure}")


def cmd_figure(args) -> int:
    jobs = _figure_jobs(args.figure)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, spec in jobs:
        path = os.path.join(args.out_dir, name)
        write_reports_csv(path, spec)
        print(f"wrote {path}")
    return EXIT_OK


_DEFAULT_R_TEXT = ",".join(repr(r) for r in DEFAULT_R_VALUES)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="ghztangle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="print the three-qubit density matrix at rb = rc = r")
    p_state.add_argument("--r", type=float, required=True, help="acceleration angle in radians")
    p_state.add_argument("--format", choices=("table", "json"), default="table")
    p_state.set_defaults(func=cmd_state)

    p_sweep = sub.add_parser("sweep", help="tabulate tangles over an (r, p) grid")
    p_sweep.add_argument("--channel", choices=sorted(_CHANNEL_FLAGS), required=True)
    p_sweep.add_argument("--coupling", choices=sorted(_COUPLING_FLAGS), default="collective")
    p_sweep.add_argument("--weights", default=None, help="custom coupling: w0,w1,w2 scale the swept p per qubit")
    p_sweep.add_argument("--r", default=_DEFAULT_R_TEXT, help="comma-separated r values in radians")
    p_sweep.add_argument("--p-start", type=float, default=0.0)
    p_sweep.add_argument("--p-stop", type=float, default=1.0)
    p_sweep.add_argument("--p-step", type=float, default=0.01)
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="cross-check closed forms against the numeric pipeline")
    p_verify.add_argument("--r", default=_DEFAULT_R_TEXT, help="comma-separated r values in radians")
    p_verify.add_argument("--p-step", type=float, default=0.01)
    p_verify.add_argument("--strict", action="store_true", help="exit 3 when any closed form deviates")
    p_verify.set_defaults(func=cmd_verify)

    p_esd = sub.add_parser("esd", help="locate entanglement sudden death and rebound")
    p_esd.add_argument("--channel", choices=sorted(_CHANNEL_FLAGS), required=True)
    p_esd.add_argument("--r", required=True, help="comma-separated r values in radians")
    p_esd.add_argument("--tangle", choices=TANGLE_SELECTORS, default="n_A_BC")
    p_esd.add_argument("--coupling", choices=sorted(_COUPLING_FLAGS), default="collective")
    p_esd.add_argument("--weights", default=None, help="custom coupling: w0,w1,w2 scale the swept p per qubit")
    p_esd.set_defaults(func=cmd_esd)

    p_figure = sub.add_parser("figure", help="write the data files behind a numbered figure")
    p_figure.add_argument("figure", type=int)
    p_figure.add_argument("--out-dir", default=".")
    p_figure.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
