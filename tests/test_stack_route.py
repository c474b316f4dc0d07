"""The grid's float64 stack route.

The accelerated GHZ state and both channels' Kraus operators are real, so
``tangles.report_chunks`` and ``tangles._selected`` run from the built
state to the spectra in float64. A state enters as its diagonal and
anti-diagonal (``tangles._x_parts``), which refuses a state of any other
shape, or not exactly symmetric. Every one-vs-rest cut is an X matrix,
which ``x_eigenvalues_stack`` solves block by block, and every pair state
is diagonal; each cut's spectra equal, bit for bit, those the public
single-matrix route gives the dense complex cut.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghztangle import _kernels, analysis, tangles
from ghztangle.analysis import SweepSpec, find_esd, sweep_chunks
from ghztangle.channels import CHANNEL_KINDS, PHASE_FLIP, CouplingConfig, coherence_factors, dephase_x
from ghztangle.linalg import hermitian_eigenvalues, partial_trace, partial_transpose, x_eigenvalues_stack
from ghztangle.rindler import ghz_rindler_density
from ghztangle.tangles import negativity

from oracles import dephase_elementwise, random_hermitian, random_x_stack

SPECIAL_R = (0.0, math.pi / 8, math.pi / 4)
PAIRS = ((0, 1), (0, 2), (1, 2))
LADDER = [0.5 + s * 10.0**-k for k in range(1, 16) for s in (-1.0, 1.0)] + [0.0, 1.0]
# Every ladder value under collective, local-Alice and (1, 0.5, 0.25) coupling.
LADDER_PARAMS = np.multiply.outer(LADDER, [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.5, 0.25]]).reshape(-1, 3)

unit = st.floats(min_value=0.0, max_value=1.0)
near_half = st.floats(min_value=0.5 - 1e-12, max_value=0.5 + 1e-12)


@pytest.mark.parametrize("channel", CHANNEL_KINDS)
def test_find_esd_builds_the_state_once(channel, monkeypatch):
    calls = []

    def counted(rb, rc):
        calls.append((rb, rc))
        return ghz_rindler_density(rb, rc)

    monkeypatch.setattr(analysis, "ghz_rindler_density", counted)
    monkeypatch.setattr(tangles, "ghz_rindler_density", counted)
    for tangle in ("n_A_BC", "pi_tangle"):
        calls.clear()
        find_esd(channel, math.pi / 4, tangle=tangle)
        assert calls == [(math.pi / 4, math.pi / 4)]


def test_stack_eigensolver_leaves_its_input_unchanged():
    # The stack route takes real X stacks only; a complex matrix goes to the
    # single-matrix route, which must not change its input either.
    rng = np.random.default_rng(7)
    complex_stack = np.array([random_hermitian(rng, 8) for _ in range(4)])
    parts = tangles._x_parts(random_x_stack(rng, 4, 8))
    before = [part.copy() for part in parts]
    x_eigenvalues_stack(*parts)
    assert [part.tobytes() for part in parts] == [part.tobytes() for part in before]
    before = complex_stack.copy()
    for m in complex_stack:
        hermitian_eigenvalues(m)
    assert complex_stack.tobytes() == before.tobytes()


def _faulty_stacks():
    # A dense symmetric stack, then X stacks with one fault in their third
    # matrix: a symmetric pair of entries off the X, one anti-diagonal entry
    # one ulp above its mirror, and a NaN coherence.
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(4, 8, 8))
    off_x, asymmetric, nan = (random_x_stack(rng, 4, 8) for _ in range(3))
    off_x[2, 1, 2] = off_x[2, 2, 1] = 1e-300
    asymmetric[2, 1, 6] = np.nextafter(asymmetric[2, 6, 1], math.inf)
    nan[2, 0, 7] = nan[2, 7, 0] = math.nan
    return [dense + np.swapaxes(dense, -1, -2), off_x, asymmetric, nan]


@pytest.mark.parametrize("stack", _faulty_stacks(), ids=["dense", "off-the-x", "one-ulp-asymmetric", "nan-coherence"])
def test_stack_eigensolver_refuses_what_is_not_an_exact_x(stack):
    # The stack route checks the shape where a state enters it.
    with pytest.raises(RuntimeError, match="exactly symmetric X"):
        tangles._x_parts(stack)


def _with_imaginary_coherence(rb, rc):
    rho = ghz_rindler_density(rb, rc)
    rho[0, 7] += 1e-300j
    rho[7, 0] -= 1e-300j
    return rho


def test_report_chunks_refuses_a_state_that_is_not_real(monkeypatch):
    monkeypatch.setattr(tangles, "ghz_rindler_density", _with_imaginary_coherence)
    r = np.array([0.3, 0.3])
    with pytest.raises(RuntimeError, match="imaginary part"):
        list(tangles.report_chunks(r, np.array([True, False]), np.full((2, 3), 0.2)))


@pytest.mark.parametrize("channel", CHANNEL_KINDS)
def test_find_esd_refuses_a_state_that_is_not_real(channel, monkeypatch):
    monkeypatch.setattr(analysis, "ghz_rindler_density", _with_imaginary_coherence)
    monkeypatch.setattr(tangles, "ghz_rindler_density", _with_imaginary_coherence)
    with pytest.raises(RuntimeError, match="imaginary part"):
        find_esd(channel, 0.3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(CHANNEL_KINDS),
    r=st.one_of(st.sampled_from(SPECIAL_R), st.floats(min_value=0.0, max_value=math.pi / 4)),
    extra=st.lists(st.tuples(*[st.one_of(unit, near_half)] * 3), max_size=16),
)
@example(kind="phase_flip", r=0.0, extra=[])
@example(kind="phase_flip", r=math.pi / 8, extra=[])
@example(kind="phase_flip", r=math.pi / 4, extra=[])
@example(kind="phase_damping", r=0.0, extra=[])
@example(kind="phase_damping", r=math.pi / 8, extra=[])
@example(kind="phase_damping", r=math.pi / 4, extra=[])
def test_real_cuts_solve_as_their_complex_copies(kind, r, extra):
    # The stack route's spectra against the public single-matrix route on
    # the dense complex cut of the element-wise oracle's dephased state, which
    # has no imaginary part and so takes the block solve as one row. Near
    # p = 1/2 the coherence is tiny against the cut's diagonal.
    params = np.concatenate([LADDER_PARAMS, np.array(extra).reshape(-1, 3)])
    state = ghz_rindler_density(r, r)
    diag, anti = tangles._x_parts(state)
    flip = np.full(len(params), kind == PHASE_FLIP)
    diag, anti = np.repeat(diag, len(params), axis=0), dephase_x(flip, params, np.repeat(anti, len(params), axis=0))
    assert diag.dtype == anti.dtype == np.float64
    dense = [dephase_elementwise(state, coherence_factors(CouplingConfig(kind, *p))) for p in params]
    for k in range(6):
        stacked = (tangles._one_vs_rest_spectra(diag, anti, [k]) if k < 3 else tangles._pair_spectra(diag, [k - 3]))[:, 0]
        for i, m in enumerate(dense):
            cut = partial_transpose(m, k, 3) if k < 3 else partial_transpose(partial_trace(m, PAIRS[k - 3], 3), 0, 2)
            assert stacked[i].tobytes() == hermitian_eigenvalues(cut).tobytes(), (k, r, i)


def test_a_cut_between_the_two_stop_tests_is_solved_as_embedded():
    # At r = 0 the A|BC cut holds the block [[0, c], [c, 0]], with
    # c = (1 - 2p) / 2 under local-Alice phase flip: here about 6e-14, where
    # an absolute stop test on the off-diagonal norm (sqrt(2)|c| or 2|c|
    # against 1e-13) decides by its choice of norm whether to rotate. The
    # relative test compares c with its own zero diagonal, so both routes
    # rotate the block to +-|c|.
    p = 0.5 - 6e-14
    factors = coherence_factors(CouplingConfig.local_alice(PHASE_FLIP, p))
    rho = dephase_elementwise(ghz_rindler_density(0.0, 0.0), factors)
    (row,) = next(tangles.report_chunks(np.zeros(1), np.ones(1, dtype=bool), np.array([[p, 0.0, 0.0]])))
    assert row[4] == negativity(rho, 0) > 1e-13


def test_the_stack_route_never_calls_the_single_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("the float64 stack route solved a matrix on its own")

    monkeypatch.setattr(_kernels, "jacobi_sweeps", refuse)
    r_grid = tuple(i * (math.pi / 160.0) for i in range(41))
    for channel in CHANNEL_KINDS:
        spec = SweepSpec(channel, "collective", r_values=r_grid, p_step=0.025)
        assert sum(len(values) for values in sweep_chunks(spec)) == 41 * 41
    ps = SweepSpec(PHASE_FLIP)._params(np.linspace(0.0, 1.0, 201))
    assert len(tangles._selected(PHASE_FLIP, math.pi / 4, ps, "pi_tangle")) == 201


def _count_work(monkeypatch) -> dict:
    """Calls of each per-stack step of ``tangles`` made from now on, by name."""
    calls = dict.fromkeys(("dephase_x", "x_eigenvalues_stack", "_negativity_from_spectra", "_pair_spectra"), 0)
    for name in calls:

        def counted(*args, name=name, step=getattr(tangles, name)):
            calls[name] += 1
            return step(*args)

        monkeypatch.setattr(tangles, name, counted)
    return calls


def test_report_chunks_does_each_step_once_per_stack(monkeypatch):
    # A sweep of 41 r values by 41 p crosses stack boundaries inside an r's
    # rows; the pair cuts are sorted and cross-checked once per call.
    monkeypatch.setattr(tangles, "CHUNK", 16)
    spec = SweepSpec(PHASE_FLIP, "collective", r_values=tuple(i * (math.pi / 160.0) for i in range(41)), p_step=0.025)
    calls = _count_work(monkeypatch)
    stacks = sum(1 for _ in sweep_chunks(spec))
    assert stacks == -(-41 * 41 // 16)
    assert calls == {"dephase_x": stacks, "x_eigenvalues_stack": stacks, "_negativity_from_spectra": stacks + 1, "_pair_spectra": 1}


@pytest.mark.parametrize("tangle", analysis.TANGLE_SELECTORS)
def test_selected_evaluates_a_search_in_one_stack(tangle, monkeypatch):
    # A search asks at most 117 points; _selected evaluates them in one
    # stack, whatever CHUNK is, and skips the kind of cut its tangle does not read.
    monkeypatch.setattr(tangles, "CHUNK", 16)
    ps = SweepSpec(PHASE_FLIP)._params(np.linspace(0.5, 1.0, 117))
    calls = _count_work(monkeypatch)
    assert len(tangles._selected(PHASE_FLIP, math.pi / 4, ps, tangle)) == 117
    ones = any(k < 3 for k in tangles._SELECTOR_CUTS[tangle])
    pairs = any(k >= 3 for k in tangles._SELECTOR_CUTS[tangle])
    assert calls == {"dephase_x": ones, "x_eigenvalues_stack": ones, "_negativity_from_spectra": ones + pairs, "_pair_spectra": pairs}
