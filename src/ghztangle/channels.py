"""Single-qubit dephasing channels and their three-qubit lifts.

Kraus operators act by rho -> sum_k E_k rho E_k^dag. A lift couples each
qubit to its own copy of a channel with its own parameter; setting a
parameter to zero leaves that qubit untouched.

``lift`` and ``apply_channel`` are the explicit Kraus route. The batched
pipeline uses ``dephase_x``: every lifted operator is diagonal, so the
channel keeps the diagonal of rho and scales each coherence rho[j, k] by
the product of the per-qubit ``coherence_factors`` of the qubits on which
j and k differ. The pipeline's states are X states, whose coherences
rho[j, 7-j] join basis states that differ in all three qubits, so each
takes the product of all three factors. Unlike the Kraus sum
(1-p)x - px of a phase-flipped coherence x, that product does not cancel,
and it is exactly 0.0 where a factor is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

PHASE_DAMPING = "phase_damping"
PHASE_FLIP = "phase_flip"
CHANNEL_KINDS = (PHASE_DAMPING, PHASE_FLIP)

COMPLETENESS_TOL = 1e-12


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class SingleQubitKraus:
    kind: str
    p: float
    ops: tuple[np.ndarray, np.ndarray]


def phase_damping(p: float) -> SingleQubitKraus:
    """E0 = diag(1, sqrt(1-p)), E1 = diag(0, sqrt(p)).

    E1 must have the zero in its upper-left entry; anything else breaks the
    completeness relation sum(E_k^dag E_k) = I.
    """
    p = _check_p(p)
    e0 = np.diag([1.0, np.sqrt(1.0 - p)]).astype(np.complex128)
    e1 = np.diag([0.0, np.sqrt(p)]).astype(np.complex128)
    return SingleQubitKraus(PHASE_DAMPING, p, (e0, e1))


def phase_flip(p: float) -> SingleQubitKraus:
    """E0 = sqrt(1-p) I, E1 = sqrt(p) sigma_z."""
    p = _check_p(p)
    e0 = np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128)
    e1 = np.sqrt(p) * np.diag([1.0, -1.0]).astype(np.complex128)
    return SingleQubitKraus(PHASE_FLIP, p, (e0, e1))


_MAKERS = {PHASE_DAMPING: phase_damping, PHASE_FLIP: phase_flip}


@dataclass(frozen=True)
class CouplingConfig:
    """Which channel acts on which qubit, and how strongly.

    ``label`` names the coupling pattern for reporting; the tangles and the
    output rows depend only on (kind, p0, p1, p2).
    """

    kind: str
    p0: float
    p1: float
    p2: float
    label: str = "custom"

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        for p in (self.p0, self.p1, self.p2):
            _check_p(p)

    @classmethod
    def collective(cls, kind: str, p: float) -> "CouplingConfig":
        return cls(kind, p, p, p, label="collective")

    @classmethod
    def local_alice(cls, kind: str, p: float) -> "CouplingConfig":
        return cls(kind, p, 0.0, 0.0, label="local_alice")

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)


def coherence_factors(cfg: CouplingConfig) -> tuple[float, float, float]:
    """Per-qubit factors by which the lifted channel scales a coherence.

    Every lifted operator is diagonal, so the channel multiplies rho[i, j]
    (i != j) by the product of the factors of the qubits on which i and j
    differ: 1 - 2p for phase flip, sqrt(1 - p) for phase damping. A phase
    flip factor is signed; it passes through zero at p = 1/2.
    """
    return tuple(_coherence_factors(cfg.kind, np.array(cfg.params, dtype=float)).tolist())


def _coherence_factors(kind: str, params: np.ndarray) -> np.ndarray:
    """``coherence_factors`` element-wise on an array of parameters, unchecked."""
    if kind == PHASE_FLIP:
        return 1.0 - 2.0 * params
    return np.sqrt(1.0 - params)


def _first_zero(kind: str, weights) -> float | None:
    """The smallest p in [0, 1] where a factor of parameter w * p is zero, or None.

    Phase flip's 1 - 2wp is zero at 1/(2w), correctly rounded since 2w is
    exact; phase damping's sqrt(1 - wp) at 1/w. w is tested before dividing.
    """
    w = max(weights)
    if kind == PHASE_FLIP:
        return 1.0 / (2.0 * w) if 2.0 * w >= 1.0 else None
    return 1.0 / w if w >= 1.0 else None


def lift(cfg: CouplingConfig) -> tuple[np.ndarray, ...]:
    """All 2^3 tensor products E_i x E_j x E_k, index i varying slowest.

    The ordering is fixed so output rows and tests can refer to operators
    by position. With every parameter zero the only nonzero operator is
    the 8x8 identity (each channel's E1 vanishes at p = 0).
    """
    maker = _MAKERS[cfg.kind]
    singles = [maker(p).ops for p in cfg.params]
    ops = []
    for e0 in singles[0]:
        for e1 in singles[1]:
            for e2 in singles[2]:
                ops.append(np.kron(np.kron(e0, e1), e2))
    return tuple(ops)


def apply_channel(ops, rho) -> np.ndarray:
    """Apply a Kraus family to a density matrix, checking completeness first."""
    rho = as_matrix(rho)
    ops = [as_matrix(e) for e in ops]
    d = rho.shape[0]
    if any(e.shape[0] != d for e in ops):
        raise ValueError("incompatible dimensions")
    total = sum(e.conj().T @ e for e in ops)
    if np.abs(total - np.eye(d)).max() > COMPLETENESS_TOL:
        raise ValueError("Kraus completeness violated")
    out = np.zeros((d, d), dtype=np.complex128)
    for e in ops:
        out += e @ rho @ e.conj().T
    return (out + out.conj().T) / 2.0


def dephase_x(flip: np.ndarray, params: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """The dephased anti-diagonals ``anti[i, j] = rho_i[j, 7-j]`` of X states.

    Row i takes phase flip where the bool ``flip[i]`` is true, else phase
    damping, with the parameters ``params[i]``: each coherence times the
    product of the three qubits' ``_coherence_factors``, in qubit order.
    The channel keeps the diagonal.
    """
    f0, f1, f2 = np.where(
        flip[:, None], _coherence_factors(PHASE_FLIP, params), _coherence_factors(PHASE_DAMPING, params)
    ).T
    return anti * ((f0 * f1) * f2)[:, None]
