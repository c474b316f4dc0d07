"""Closed-form reference expressions for the accelerated-GHZ tangles.

Each function evaluates one analytic formula for a tangle of the state
``ghz_rindler_density(r, r)`` after the named channel acts with per-qubit
parameters (p0, p1, p2). The expressions are transcribed literally and are
never adjusted to agree with the density-matrix pipeline; the analysis
layer measures where the two routes match and documents where they do not.

All functions take r in radians, 0 <= r <= pi/4. The arguments may be
floats or equal-shaped numpy arrays, r included. The terms in r alone are
evaluated with ``math``, once per distinct value of r (``_of_r``); the
terms in p use only ``*``, ``+``, ``-``, ``abs`` and a square root, which
round correctly in both forms, so an array call equals the element-wise
float calls bit for bit. Float arguments give a float.
"""

from __future__ import annotations

import math

import numpy as np


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _of_r(r, terms):
    """``terms(r)``, a tuple of floats, for a float r. For an array r, each
    term as an array of r's shape: ``terms`` of each distinct value, gathered."""
    if not isinstance(r, np.ndarray):
        return terms(r)
    values, index = np.unique(r, return_inverse=True)
    return tuple(np.array([terms(v) for v in values.tolist()]).T[:, index])


def pd_one_tangle_A(r, p0, p1, p2):
    """Phase damping, negativity across the A | BC cut."""
    c4, s8, s2r2 = _of_r(r, lambda x: (math.cos(x) ** 4, math.sin(x) ** 8, math.sin(2.0 * x) ** 2))
    k2 = (1.0 - p0) * (1.0 - p1) * (1.0 - p2)
    return -0.5 + 0.5 * c4 + 0.5 * _sqrt(k2 * c4) + 0.5 * _sqrt(k2 * c4 + s8) + 0.25 * s2r2


def pd_one_tangle_BC(r, p0, p1, p2):
    """Phase damping, negativity across B | AC (and C | AB)."""
    c4, c4r, s2r4 = _of_r(r, lambda x: (math.cos(x) ** 4, math.cos(4.0 * x) / 16.0, math.sin(2.0 * x) ** 4))
    k2 = (1.0 - p0) * (1.0 - p1) * (1.0 - p2)
    q = (16.0 - 16.0 * p0) * (1.0 - p1) * (1.0 - p2)
    return -1.0 / 16.0 + 0.5 * _sqrt(k2 * c4) + c4r + 0.125 * _sqrt(q * c4 + s2r4)


def _pi(a, bc):
    """The pi-tangle of the A | BC and B | AC (= C | AB) one-tangles."""
    return a * a / 3.0 + 2.0 * bc * bc / 3.0


def pd_pi_tangle(r, p0, p1, p2):
    return _pi(pd_one_tangle_A(r, p0, p1, p2), pd_one_tangle_BC(r, p0, p1, p2))


def pf_one_tangle_A(r, p0, p1, p2):
    """Phase flip, negativity across the A | BC cut."""
    c2, s8, s2r2 = _of_r(r, lambda x: (math.cos(x) ** 2, math.sin(x) ** 8, math.sin(2.0 * x) ** 2))
    g = abs((1.0 - 2.0 * p0) * (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2))
    return -0.5 + 0.5 * c2 * (g + c2) + 0.5 * _sqrt(g * g * c2 * c2 + s8) + 0.25 * s2r2


def pf_one_tangle_BC(r, p0, p1, p2):
    """Phase flip, negativity across B | AC (and C | AB)."""
    c2, s4, s2r2, s2r4 = _of_r(
        r, lambda x: (math.cos(x) ** 2, math.sin(x) ** 4, math.sin(2.0 * x) ** 2, math.sin(2.0 * x) ** 4)
    )
    g = abs((1.0 - 2.0 * p0) * (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2))
    return -0.5 + 0.5 * g * c2 + 0.5 * c2 * c2 + 0.5 * s4 + 0.125 * s2r2 + 0.125 * _sqrt(16.0 * g * g * c2 * c2 + s2r4)


def pf_pi_tangle(r, p0, p1, p2):
    return _pi(pf_one_tangle_A(r, p0, p1, p2), pf_one_tangle_BC(r, p0, p1, p2))
