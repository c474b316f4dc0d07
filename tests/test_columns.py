"""Bit identity of the columnar report path.

``tangles.report_chunks`` computes a stack's report rows as arrays and
calls each one-tangle closed form once per stack and channel with r and
parameter arrays; the CLI writers format each distinct value of a stack
once. These tests hold each piece to its scalar counterpart, compared by
``float.hex`` (or by the text of ``format(x, ".17g")``) so that -0.0 and
the last bit count.
"""

import dataclasses
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghztangle import cli, closedform, tangles
from ghztangle.analysis import TANGLE_SELECTORS, SweepSpec
from ghztangle.channels import CHANNEL_KINDS, PHASE_DAMPING, PHASE_FLIP, CouplingConfig
from ghztangle.tangles import NUMERIC_COLUMNS, full_report, pi_tangle, report_chunks, residual

FUNCS = (
    closedform.pd_one_tangle_A,
    closedform.pd_one_tangle_BC,
    closedform.pd_pi_tangle,
    closedform.pf_one_tangle_A,
    closedform.pf_one_tangle_BC,
    closedform.pf_pi_tangle,
)

EDGE_P = (0.0, 1.0, 0.5, *(0.5 + s * 10.0**-k for k in range(1, 17) for s in (-1.0, 1.0)))
p_values = st.one_of(st.sampled_from(EDGE_P), st.floats(min_value=0.0, max_value=1.0))
r_values = st.one_of(
    st.sampled_from((0.0, math.pi / 8, math.pi / 4)), st.floats(min_value=0.0, max_value=math.pi / 4)
)

COUPLINGS = ("collective", "local_alice", "custom")


def _bits(values):
    return [float(x).hex() for x in values]


def _config(kind, coupling, p):
    if coupling == "custom":
        return CouplingConfig(kind, p, 0.5 * p, 0.25 * p, label="custom")
    return getattr(CouplingConfig, coupling)(kind, p)


def _rows(r_list, configs):
    flip = np.array([cfg.kind == PHASE_FLIP for cfg in configs])
    chunks = report_chunks(np.array(r_list, dtype=float), flip, np.array([cfg.params for cfg in configs]))
    rows = [row for values in chunks for row in values.tolist()]
    return [(cfg.kind, cfg.label, *row) for cfg, row in zip(configs, rows)]


def _scalar_tail(r, cfg, n):
    # The residuals, pi-tangle, closed forms and deviations of one row, on
    # Python floats, from its six negativities.
    n_a, n_b, n_c, n_ab, n_ac, n_bc = n
    res = (residual(n_a, n_ab, n_ac), residual(n_b, n_ab, n_bc), residual(n_c, n_ac, n_bc))
    pi = pi_tangle(*res)
    prefix = "pd" if cfg.kind == PHASE_DAMPING else "pf"
    names = ("one_tangle_A", "one_tangle_BC", "pi_tangle")
    cf = [getattr(closedform, f"{prefix}_{name}")(r, *cfg.params) for name in names]
    return (*res, pi, *cf, abs(n_a - cf[0]), abs(n_b - cf[1]), abs(pi - cf[2]))


def _assert_rows_match(r_list, configs):
    rows = _rows(r_list, configs)
    assert len(rows) == len(configs)
    for row, r, cfg in zip(rows, r_list, configs):
        want = dataclasses.astuple(full_report(r, cfg))
        assert row[:2] == want[:2]
        assert _bits(row[2:]) == _bits(want[2:])
        assert _bits(row[12:]) == _bits(_scalar_tail(r, cfg, row[6:12]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(r=r_values, points=st.lists(st.tuples(r_values, p_values, p_values, p_values), min_size=1, max_size=12))
def test_closed_forms_on_arrays_equal_scalar_calls(r, points):
    # With r a float and with r an array, which repeats its first value and holds 0 and pi/4.
    points = points + [(0.0, *points[0][1:]), (math.pi / 4, *points[0][1:]), points[0]]
    rs, p0, p1, p2 = (np.array(column) for column in zip(*points))
    for f in FUNCS:
        got = f(r, p0, p1, p2)
        assert isinstance(got, np.ndarray) and got.shape == p0.shape
        assert _bits(got) == _bits(f(r, *p[1:]) for p in points), f.__name__
        scalar = [f(*p) for p in points]
        assert all(type(x) is float for x in scalar)
        got = f(rs, p0, p1, p2)
        assert isinstance(got, np.ndarray) and got.shape == p0.shape
        assert _bits(got) == _bits(scalar), f.__name__


def test_closed_forms_on_floats_return_floats():
    for f in FUNCS:
        assert type(f(0.3, 0.1, 0.2, 0.5)) is float


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(
        st.tuples(st.sampled_from(CHANNEL_KINDS), st.sampled_from(COUPLINGS), r_values, p_values),
        min_size=1,
        max_size=10,
    )
)
def test_columnar_rows_equal_full_report(points):
    _assert_rows_match([r for _, _, r, _ in points], [_config(kind, coupling, p) for kind, coupling, _, p in points])


def test_columnar_rows_equal_full_report_across_a_chunk_boundary(monkeypatch):
    # Mixed channels, couplings and r values, longer than one stack.
    monkeypatch.setattr(tangles, "CHUNK", 16)
    r_list, configs = [], []
    for i in range(2 * tangles.CHUNK + 3):
        kind = CHANNEL_KINDS[i % 2]
        coupling = COUPLINGS[i % 3]
        r = (0.0, math.pi / 8, math.pi / 4)[(i // 5) % 3]
        p = EDGE_P[i % len(EDGE_P)] if i % 4 else i / (2 * tangles.CHUNK + 3)
        r_list.append(r)
        configs.append(_config(kind, coupling, p))
    _assert_rows_match(r_list, configs)


def test_values_do_not_depend_on_the_stack(monkeypatch):
    # Both channels interleaved, 21 distinct r with repeats, p on the ladder
    # 1/2 +- 10^-k plus 0 and 1, and the three couplings, through stacks of
    # several sizes: the rows agree by bytes.
    ladder = (0.0, 1.0, *(0.5 + s * 10.0**-k for k in range(1, 17) for s in (-1.0, 1.0)))
    r_grid = [i * math.pi / 80 for i in range(20)] + [math.pi / 4]
    configs = [_config(CHANNEL_KINDS[i % 2], COUPLINGS[i // 2 % 3], ladder[i % 34]) for i in range(102)]
    r = np.array([r_grid[i * 5 % 21] for i in range(102)])
    flip = np.array([cfg.kind == PHASE_FLIP for cfg in configs])
    params = np.array([cfg.params for cfg in configs])
    selections = [
        (kind, r_sel, np.array([_config(kind, c, p).params for c in COUPLINGS for p in ladder]), tangle)
        for kind in CHANNEL_KINDS
        for r_sel in (0.0, math.pi / 8, math.pi / 4)
        for tangle in TANGLE_SELECTORS
    ]
    rows = set()
    for size in (1, 7, 128, tangles.CHUNK):
        monkeypatch.setattr(tangles, "CHUNK", size)
        rows.add(np.concatenate(list(report_chunks(r, flip, params))).tobytes())
    # _selected evaluates each search in one stack and does not read CHUNK, so it runs once.
    selected = {tuple(tuple(_bits(tangles._selected(*args))) for args in selections)}
    assert len(rows) == len(selected) == 1


@pytest.mark.parametrize("bad", [1.0 + 1e-12, -1e-300, math.nan])
def test_report_chunks_rejects_parameters_outside_the_unit_interval(bad):
    # dephase_x checks no parameter, so this check must catch NaN too.
    params = np.array([[0.5, 0.5, 0.5], [0.2, bad, 0.0]])
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        next(report_chunks(np.array([0.3, 0.3]), np.array([True, False]), params))


def test_report_chunks_yields_one_array_per_stack(monkeypatch):
    monkeypatch.setattr(tangles, "CHUNK", 16)
    size = 2 * tangles.CHUNK + 3
    params = np.tile([0.1, 0.2, 0.3], (size, 1))
    chunks = list(report_chunks(np.full(size, 0.5), np.zeros(size, dtype=bool), params))
    assert [values.shape for values in chunks] == [(16, 20), (16, 20), (3, 20)]
    with pytest.raises(ValueError, match="differ in length"):
        next(report_chunks(np.full(size, 0.5), np.zeros(size - 1, dtype=bool), params))


# Signed zeros, subnormals, the extremes of the range and ordinary values.
CELLS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, 1.7976931348623157e308)
cell_values = st.one_of(st.sampled_from(CELLS), st.floats(allow_nan=False, allow_infinity=False))
# Each stack is rows of 20 indices into a pool of a few values, so that
# values repeat within a column and across columns.
stack_indices = st.lists(st.lists(st.integers(0, 5), min_size=20, max_size=20), min_size=1, max_size=6)


def _reference_file(stacks, fmt):
    rows = [[format(x, ".17g") for x in row] for stack in stacks for row in stack]
    if fmt == "csv":
        return ",".join(cli.COLUMNS) + "\n" + "".join("phase_flip,custom," + ",".join(row) + "\n" for row in rows)
    cells = [", ".join(f'"{name}": {text}' for name, text in zip(NUMERIC_COLUMNS, row)) for row in rows]
    return "[\n" + ",\n".join('  {"channel": "phase_flip", "coupling": "custom", ' + row + "}" for row in cells) + "\n]\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(cell_values, min_size=6, max_size=6), stacks=st.lists(stack_indices, min_size=1, max_size=3))
@example(pool=[-0.0, 5e-324, 1e-16, 0.1, 1.0, 1e300], stacks=[[[i % 6 for i in range(20)]]])
@example(pool=[0.0, -0.0, 0.0, -0.0, 0.0, -0.0], stacks=[[[(i + j) % 2 for i in range(20)] for j in range(4)]])
def test_row_format_equals_format_17g(pool, stacks):
    # Both writers, fed these stacks in place of the grid's, write each
    # number as format(x, ".17g") writes it: each stack's distinct bit
    # patterns are formatted once, and -0.0 must stay -0, not become 0.
    stacks = [np.array([[pool[i] for i in row] for row in stack], dtype=float) for stack in stacks]
    spec = SweepSpec("phase_flip", "custom", weights=(1.0, 0.5, 0.25))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "sweep_chunks", lambda _: iter(stacks)):
        for fmt, write in (("csv", cli.write_reports_csv), ("json", cli.write_reports_json)):
            path = os.path.join(tmp, f"rows.{fmt}")
            write(path, spec)
            with open(path, newline="") as handle:
                assert handle.read() == _reference_file(stacks, fmt), fmt
