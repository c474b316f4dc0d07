"""Closed-form reference expressions for the accelerated-GHZ tangles.

Each function evaluates one analytic formula for a tangle of the state
``ghz_rindler_density(r, r)`` after the named channel acts with per-qubit
parameters (p0, p1, p2). The expressions are transcribed literally and are
never adjusted to agree with the density-matrix pipeline; the analysis
layer measures where the two routes match and documents where they do not.

All functions take r in radians, 0 <= r <= pi/4. The parameters may be
floats or equal-shaped numpy arrays. The terms in r alone are evaluated
once per call with ``math``; the terms in p use only ``*``, ``+``, ``-``,
``abs`` and a square root, which round correctly in both forms, so an array
call equals the element-wise float calls bit for bit. Float parameters
give a float.
"""

from __future__ import annotations

import math

import numpy as np


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def pd_one_tangle_A(r: float, p0, p1, p2):
    """Phase damping, negativity across the A | BC cut."""
    c4 = math.cos(r) ** 4
    k2 = (1.0 - p0) * (1.0 - p1) * (1.0 - p2)
    return (
        -0.5
        + 0.5 * c4
        + 0.5 * _sqrt(k2 * c4)
        + 0.5 * _sqrt(k2 * c4 + math.sin(r) ** 8)
        + 0.25 * math.sin(2.0 * r) ** 2
    )


def pd_one_tangle_BC(r: float, p0, p1, p2):
    """Phase damping, negativity across B | AC (and C | AB)."""
    c4 = math.cos(r) ** 4
    k2 = (1.0 - p0) * (1.0 - p1) * (1.0 - p2)
    return (
        -1.0 / 16.0
        + 0.5 * _sqrt(k2 * c4)
        + math.cos(4.0 * r) / 16.0
        + 0.125 * _sqrt((16.0 - 16.0 * p0) * (1.0 - p1) * (1.0 - p2) * c4 + math.sin(2.0 * r) ** 4)
    )


def pd_pi_tangle(r: float, p0, p1, p2):
    a = pd_one_tangle_A(r, p0, p1, p2)
    bc = pd_one_tangle_BC(r, p0, p1, p2)
    return a * a / 3.0 + 2.0 * bc * bc / 3.0


def pf_one_tangle_A(r: float, p0, p1, p2):
    """Phase flip, negativity across the A | BC cut."""
    c2 = math.cos(r) ** 2
    g = abs((1.0 - 2.0 * p0) * (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2))
    return (
        -0.5
        + 0.5 * c2 * (g + c2)
        + 0.5 * _sqrt(g * g * c2 * c2 + math.sin(r) ** 8)
        + 0.25 * math.sin(2.0 * r) ** 2
    )


def pf_one_tangle_BC(r: float, p0, p1, p2):
    """Phase flip, negativity across B | AC (and C | AB)."""
    c2 = math.cos(r) ** 2
    g = abs((1.0 - 2.0 * p0) * (1.0 - 2.0 * p1) * (1.0 - 2.0 * p2))
    return (
        -0.5
        + 0.5 * g * c2
        + 0.5 * c2 * c2
        + 0.5 * math.sin(r) ** 4
        + 0.125 * math.sin(2.0 * r) ** 2
        + 0.125 * _sqrt(16.0 * g * g * c2 * c2 + math.sin(2.0 * r) ** 4)
    )


def pf_pi_tangle(r: float, p0, p1, p2):
    a = pf_one_tangle_A(r, p0, p1, p2)
    bc = pf_one_tangle_BC(r, p0, p1, p2)
    return a * a / 3.0 + 2.0 * bc * bc / 3.0
