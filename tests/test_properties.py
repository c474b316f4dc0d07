"""Property tests: the batched pipeline against the exact X-state route.

Every state the pipeline builds is an X-state, so its one-tangles have the
closed route of ``oracles.x_state_one_tangles`` and its pair states are
diagonal, with non-negative partial transposes: their two-tangles are
exactly 0.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ghztangle.channels import CHANNEL_KINDS, CouplingConfig
from ghztangle.tangles import full_reports

from oracles import x_state_one_tangles

unit = st.floats(min_value=0.0, max_value=1.0)

# The pipeline reduces a pair spectrum as sum(|w|) - 1, which rounds at a
# few ulps of 1 when the exact value is 0: up to 6.7e-16 (3 ulps) over
# 20,000 random points, and nonzero at about one point in six. Changing the
# reduction would move the pinned output bytes.
PAIR_ROUNDING = 1e-15


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
        assert 0.0 <= pair_tangle <= PAIR_ROUNDING
