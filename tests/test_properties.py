"""Property tests: the batched pipeline against the exact X-state route.

Every state the pipeline builds is an X-state, so its one-tangles have the
closed route of ``oracles.x_state_one_tangles`` and its pair states are
diagonal, with non-negative partial transposes: their two-tangles are
exactly 0. A one-tangle is 0 exactly where its coherence is, that is where
some per-qubit coherence factor is 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghztangle.analysis import SweepSpec, sweep_chunks
from ghztangle.channels import CHANNEL_KINDS, PHASE_DAMPING, PHASE_FLIP, CouplingConfig, _coherence_factors
from ghztangle.tangles import NUMERIC_COLUMNS, full_reports, report_chunks

from oracles import x_state_one_tangles

unit = st.floats(min_value=0.0, max_value=1.0)

ONE_TANGLE_AND_RESIDUAL_COLUMNS = ("n_A_BC", "n_B_AC", "n_C_AB", "pi_A", "pi_B", "pi_C", "pi_tangle")


def _is_plus_zero(x) -> np.ndarray:
    return (x == 0.0) & ~np.signbit(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(CHANNEL_KINDS),
    r=st.floats(min_value=0.0, max_value=math.pi / 4),
    p=st.tuples(unit, unit, unit),
)
def test_full_reports_match_exact_x_state_route(kind, r, p):
    (rep,) = full_reports([r], [CouplingConfig(kind, *p)])
    exact = x_state_one_tangles(r, kind, *p)
    got = (rep.n_A_BC, rep.n_B_AC, rep.n_C_AB)
    assert max(abs(g - e) for g, e in zip(got, exact)) <= 1e-9
    for pair_tangle in (rep.n_AB, rep.n_AC, rep.n_BC):
        assert pair_tangle == 0.0 and math.copysign(1.0, pair_tangle) == 1.0


@pytest.mark.parametrize(
    "kind, weights, p",
    [
        (PHASE_FLIP, (1.0, 1.0, 1.0), 0.5),
        (PHASE_FLIP, (1.0, 0.0, 0.0), 0.5),
        (PHASE_DAMPING, (1.0, 1.0, 1.0), 1.0),
        (PHASE_DAMPING, (1.0, 0.0, 0.0), 1.0),
        (PHASE_FLIP, (0.5, 1.0, 1.0), 1.0),
        (PHASE_DAMPING, (0.5, 1.0, 1.0), 1.0),
    ],
)
def test_a_zero_coherence_factor_gives_exact_plus_zero(kind, weights, p):
    # Wherever a factor is exactly 0.0 the channel erases the coherence, and
    # every one-tangle, residual and the pi-tangle must read +0.0, not
    # rounding noise of either sign.
    r = np.repeat(np.linspace(0.0, math.pi / 4, 9), 2)
    params = np.tile([np.multiply(p, weights), np.multiply(0.3, weights)], (9, 1))
    zero = (_coherence_factors(kind, params) == 0.0).any(axis=1)
    assert zero.sum() == 9
    (values,) = report_chunks(r, np.full(len(r), kind == PHASE_FLIP), params)
    col = dict(zip(NUMERIC_COLUMNS, values.T))
    for name in ONE_TANGLE_AND_RESIDUAL_COLUMNS:
        assert _is_plus_zero(col[name][zero]).all(), name
        assert (col[name][~zero] > 0.0).all(), name


def test_default_phase_flip_sweep_has_no_negative_residual():
    values = np.concatenate(list(sweep_chunks(SweepSpec(PHASE_FLIP))))
    col = dict(zip(NUMERIC_COLUMNS, values.T))
    for name in ("pi_A", "pi_B", "pi_C", "pi_tangle"):
        assert not np.signbit(col[name]).any(), name
