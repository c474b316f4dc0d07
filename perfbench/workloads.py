"""The three benchmark workloads: inputs from a seed, requests, output checks.

Each workload is a fixed list of requests built from ``--seed``; one pass
runs every request once, in order, one at a time (a closed loop with one
client). ``call`` is the timed part and goes through the package's public
entry points only. ``collect`` and ``check`` run outside the timed region;
``check`` returns how many of a request's items failed and compares with
the plain-numpy oracles in ``tests/oracles.py``, never with the package's
own linear algebra.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

import ghztangle
import ghztangle.cli
from oracles import dephase_elementwise, ghz_via_mode_trace, ref_negativity, ref_partial_trace

R_MAX = math.pi / 4
ORACLE_TOL = 1e-9
# The rebound threshold of the sudden-death search: a tangle at or below it
# at the reported death point counts as dead.
REBOUND_TOL = 1e-6

# The pinned output schema of `sweep` and `figure`.
COLUMNS = (
    "channel", "coupling", "p0", "p1", "p2", "r",
    "n_A_BC", "n_B_AC", "n_C_AB", "n_AB", "n_AC", "n_BC",
    "pi_A", "pi_B", "pi_C", "pi_tangle",
    "cf_n_A_BC", "cf_n_BC_AC", "cf_pi", "dev_A", "dev_BC", "dev_pi",
)
NEGATIVITY_COLUMNS = COLUMNS[6:12]
PAIRS = ((0, 1), (0, 2), (1, 2))

CHANNELS = (("phase-damping", "phase_damping"), ("phase-flip", "phase_flip"))

SCALES = {
    # r values per sweep, p step, esd r values, dense states per rank
    "full": {"grid_r": 41, "p_step": 0.025, "esd_r": 4, "dense_per_rank": 16},
    "tiny": {"grid_r": 3, "p_step": 0.25, "esd_r": 1, "dense_per_rank": 1},
}
DENSE_RANKS = (1, 2, 4, 8)


def _rng(seed, workload):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def oracle_negativities(rho):
    """The six negativities (three cuts, three pairs) by plain numpy."""
    cuts = [ref_negativity(rho, q, 3) for q in range(3)]
    pairs = [ref_negativity(ref_partial_trace(rho, pair, 3), 0, 2) for pair in PAIRS]
    return cuts + pairs


def oracle_dephased(channel, r, p):
    """Accelerated GHZ state built by mode tracing, dephased element-wise."""
    factor = math.sqrt(1.0 - p) if channel == "phase_damping" else 1.0 - 2.0 * p
    return dephase_elementwise(ghz_via_mode_trace(r, r), (factor,) * 3)


def oracle_tangle(tangle, negs):
    if tangle == "n_A_BC":
        return negs[0]
    n_a, n_b, n_c, n_ab, n_ac, n_bc = (max(0.0, x) for x in negs)
    residuals = (
        n_a * n_a - n_ab * n_ab - n_ac * n_ac,
        n_b * n_b - n_ab * n_ab - n_bc * n_bc,
        n_c * n_c - n_ac * n_ac - n_bc * n_bc,
    )
    return sum(residuals) / 3.0


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ghztangle.cli.main(argv)
    return code, out.getvalue()


class Request:
    """One call into the program; ``items`` is how many items it completes."""

    def __init__(self, index, items, **params):
        self.index = index
        self.items = items
        self.params = params

    def describe(self):
        return {"index": self.index, "items": self.items, **self.params}


class Grid:
    """Two `ghztangle sweep` calls shaped like figure 3; an item is one row."""

    name = "grid"
    # Two requests per pass: no percentile above the median ever has ten
    # samples beyond it in one run, so the tail is the median.
    tail_percentile = 50.0

    def __init__(self, seed, scale, work_dir):
        size = SCALES[scale]
        inner = _rng(seed, self.name).uniform(0.0, R_MAX, size["grid_r"] - 2)
        self.r_values = (0.0, *sorted(float(r) for r in inner), R_MAX)
        self.p_step = size["p_step"]
        steps = int(round(1.0 / self.p_step))
        self.p_values = tuple(round(i * self.p_step, 12) for i in range(steps + 1))
        r_text = ",".join(repr(r) for r in self.r_values)
        rows = len(self.r_values) * len(self.p_values)
        self.requests = []
        for index, (flag, channel) in enumerate(CHANNELS):
            out = os.path.join(work_dir, f"grid_{channel}.csv")
            argv = [
                "sweep", "--channel", flag, "--coupling", "collective",
                "--p-step", repr(self.p_step), "--r", r_text, "--out", out,
            ]
            self.requests.append(Request(index, rows, channel=channel, argv=argv, out=out))

    def inputs(self):
        return {"r_values": self.r_values, "p_values": self.p_values}

    def call(self, req):
        code, _ = _run_cli(req.params["argv"])
        return code

    def collect(self, req, code):
        if code != 0:
            return None
        with open(req.params["out"], newline="") as handle:
            return handle.read()

    def check(self, req, text):
        channel = req.params["channel"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != COLUMNS or len(rows) - 1 != req.items:
            return req.items
        expected = [
            oracle_negativities(oracle_dephased(channel, r, p)) for r in self.r_values for p in self.p_values
        ]
        failed = 0
        n_p = len(self.p_values)
        for i, row in enumerate(rows[1:]):
            r, p = self.r_values[i // n_p], self.p_values[i % n_p]
            try:
                cells = dict(zip(COLUMNS, row))
                ok = (
                    len(row) == len(COLUMNS)
                    and cells["channel"] == channel
                    and cells["coupling"] == "collective"
                    and float(cells["r"]) == r
                    and all(abs(float(cells[k]) - p) <= 1e-12 for k in ("p0", "p1", "p2"))
                    and all(
                        abs(float(cells[col]) - want) <= ORACLE_TOL
                        for col, want in zip(NEGATIVITY_COLUMNS, expected[i])
                    )
                )
            except ValueError:
                ok = False
            failed += not ok
        return failed


class Esd:
    """`ghztangle esd` calls, one sudden-death search each; an item is a search."""

    name = "esd"
    tail_percentile = 90.0
    TANGLES = ("n_A_BC", "pi_tangle")

    def __init__(self, seed, scale, work_dir):
        count = SCALES[scale]["esd_r"]
        self.r_values = tuple(sorted(float(r) for r in _rng(seed, self.name).uniform(0.0, R_MAX, count)))
        self.requests = []
        for flag, channel in CHANNELS:
            for tangle in self.TANGLES:
                for r in self.r_values:
                    argv = ["esd", "--channel", flag, "--r", repr(r), "--tangle", tangle]
                    self.requests.append(
                        Request(len(self.requests), 1, channel=channel, tangle=tangle, r=r, argv=argv)
                    )

    def inputs(self):
        return {"r_values": self.r_values}

    def call(self, req):
        return _run_cli(req.params["argv"])

    def collect(self, req, result):
        code, text = result
        return text if code == 0 else None

    def check(self, req, text):
        try:
            fields = text.splitlines()[2].split()
            r, p_star = float(fields[0]), float(fields[1])
            esd, rebound, onset = fields[2], fields[3], fields[4]
        except (IndexError, ValueError):
            return 1
        ok = abs(r - req.params["r"]) <= 1e-7 and 0.0 <= p_star <= 1.0
        ok = ok and esd in ("yes", "no") and rebound in ("yes", "no")
        if rebound == "yes":
            try:
                ok = ok and float(onset) > p_star
            except ValueError:
                return 1
        if esd == "no":
            ok = ok and p_star == 1.0
        else:
            rho = oracle_dephased(req.params["channel"], req.params["r"], p_star)
            ok = ok and oracle_tangle(req.params["tangle"], oracle_negativities(rho)) <= REBOUND_TOL
        return 0 if ok else 1


class DenseStates:
    """Random 3-qubit density matrices reduced to six negativities each."""

    name = "dense_states"
    tail_percentile = 90.0

    def __init__(self, seed, scale, work_dir):
        rng = _rng(seed, self.name)
        per_rank = SCALES[scale]["dense_per_rank"]
        self.states = []
        for rank in DENSE_RANKS:
            for _ in range(per_rank):
                a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
                rho = a @ a.conj().T
                self.states.append((rank, rho / np.trace(rho).real))
        self.requests = [Request(i, 1, rank=rank) for i, (rank, _) in enumerate(self.states)]

    def inputs(self):
        return {"states": [rho for _, rho in self.states]}

    def call(self, req):
        rho = self.states[req.index][1]
        cuts = [ghztangle.negativity(rho, q, 3) for q in range(3)]
        pairs = [ghztangle.two_tangle(rho, pair, 3) for pair in PAIRS]
        return tuple(cuts + pairs)

    def collect(self, req, result):
        return result

    def check(self, req, values):
        want = oracle_negativities(self.states[req.index][1])
        ok = len(values) == 6 and all(abs(v - w) <= ORACLE_TOL for v, w in zip(values, want))
        return 0 if ok else 1


WORKLOADS = {cls.name: cls for cls in (Grid, Esd, DenseStates)}
