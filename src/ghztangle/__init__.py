"""Tangles of a GHZ state shared with two uniformly accelerated observers.

The package builds the three-qubit density matrix seen once two of the
observers accelerate, pushes it through single-qubit dephasing channels,
and quantifies the surviving entanglement with negativity-based tangles.
Closed-form reference expressions ride along and are cross-checked against
the numeric pipeline, never substituted for it.
"""

from ._kernels import backend_name
from .analysis import (
    DEFAULT_R_VALUES,
    ERRATA,
    EquationCheck,
    EsdResult,
    SweepSpec,
    VerificationReport,
    find_esd,
    sweep,
    verify,
)
from .channels import (
    CHANNEL_KINDS,
    PHASE_DAMPING,
    PHASE_FLIP,
    CouplingConfig,
    SingleQubitKraus,
    apply_channel,
    lift,
    phase_damping,
    phase_flip,
)
from .linalg import (
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from .rindler import R_MAX, accel_to_r, check_accel_param, ghz_rindler_density
from .tangles import (
    TangleReport,
    full_report,
    full_reports,
    negativity,
    pi_tangle,
    residual,
    two_tangle,
)

__version__ = "0.1.0"

__all__ = [
    "CHANNEL_KINDS",
    "CouplingConfig",
    "DEFAULT_R_VALUES",
    "ERRATA",
    "EquationCheck",
    "EsdResult",
    "PHASE_DAMPING",
    "PHASE_FLIP",
    "R_MAX",
    "SingleQubitKraus",
    "SweepSpec",
    "TangleReport",
    "VerificationReport",
    "accel_to_r",
    "apply_channel",
    "backend_name",
    "check_accel_param",
    "find_esd",
    "full_report",
    "full_reports",
    "ghz_rindler_density",
    "hermitian_eigenvalues",
    "lift",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "phase_damping",
    "phase_flip",
    "pi_tangle",
    "residual",
    "sweep",
    "trace_norm",
    "two_tangle",
    "verify",
]
