"""Two-spin pulse programs realizing controlled braid-generator gates.

Instruction propagators (two spin-1/2 nuclei, 4x4 matrices):

    rotation spin s, axis v, angle phi:  exp(-i*phi * (sigma_v/2 on spin s))
    coupling angle phi (= pi*J*t):       exp(-i*phi * 2*Iz*Sz),
                                         2*Iz*Sz = (sigma_z x sigma_z)/2
    phase angle phi:                     exp(i*phi) * identity

A program is a plain tuple of ``PulseInstruction`` in time order; its
propagator multiplies right to left (the last instruction is the leftmost
matrix factor), so the empty program is the identity.  The
``_TOKENS`` table is the one statement of the printed format's instructions;
the format is output only.

The compiler targets cU = identity (+) s_j with s_j = rho(sigma_j).  It
ZYZ-factors s_j = exp(i*d0) * Rz(a) * Ry(b) * Rz(c) and assembles the
controlled version from sector-selective pieces: a z rotation on spin 2
paired with a coupling period of matched angle acts only in one control
sector, which turns the shared y pulses into a controlled Ry.  The
determinant offset exp(i*d0) of the target block cannot be produced by
spin-2 pulses and couplings alone (those always leave the two control
sectors with equal determinants), so the program carries exactly one z
rotation on spin 1 plus one global phase to supply it.

The rotation-angle formulas alpha = pi/2 - 2*theta, beta = pi/2 + theta and
gamma = atan(cos(4*theta)/sqrt(4*cos^2(2*theta) - 1)) + pi/2 used by the
hardware-style sequence are exposed by ``pulse_angles``.  The gamma
denominator is read as sqrt(4*cos^2(2*theta) - 1), the reading under which
it is real exactly on [0, pi/6]; at theta = pi/6 the one-sided limit gives
gamma = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .braid import BraidGenerator
from .nmr import SIGMA_Y, SIGMA_Z
from .tlrep import _ANGLE_SLOP, ReprParams, rho_generator

__all__ = [
    "PulseInstruction",
    "rot",
    "couple",
    "phase",
    "check_gate_theta",
    "gate_block",
    "pulse_angles",
    "compile_controlled_s",
    "simulate_program",
    "verify_program",
    "format_program",
]

# the gates' theta domain is [0, GATE_THETA_MAX], where the gamma denominator is real
GATE_THETA_MAX = math.pi / 6

# instruction kind -> text token, and rotation axis -> Pauli matrix
_TOKENS = {"rotation": "ROT", "coupling": "COUPLE", "phase": "PHASE"}
_PAULI = {"y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class PulseInstruction:
    """One program step.

    ``angle`` carries the rotation angle, the dimensionless coupling angle
    pi*J*t, or the phase value, depending on ``kind``; spin and axis are
    set exactly for rotations.
    """

    kind: str
    spin: int | None = None
    axis: str | None = None
    angle: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _TOKENS:
            raise ValueError(f"unknown instruction kind {self.kind!r}")
        if self.kind == "rotation":
            if self.spin not in (1, 2):
                raise ValueError(f"rotation spin must be 1 or 2, got {self.spin}")
            if self.axis not in _PAULI:
                raise ValueError(f"rotation axis must be y or z, got {self.axis!r}")
        elif self.spin is not None or self.axis is not None:
            raise ValueError(f"{self.kind} instructions take only an angle")
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")


def rot(spin: int, axis: str, angle: float) -> PulseInstruction:
    return PulseInstruction("rotation", spin=spin, axis=axis, angle=angle)


def couple(angle: float) -> PulseInstruction:
    return PulseInstruction("coupling", angle=angle)


def phase(angle: float) -> PulseInstruction:
    return PulseInstruction("phase", angle=angle)


def check_gate_theta(theta: float) -> None:
    """Refuse a theta outside [0, GATE_THETA_MAX], NaN included.

    Each end allows ``tlrep``'s endpoint slop, 1.44e-13 rad, derived from
    nmr's one unitarity tolerance.  At pi/6 ``ReprParams`` admits that slop
    and a little rounding more, so a theta it would refuse there is refused
    here first, and the CLI's refusal names ``--theta-deg``.
    """
    if not -_ANGLE_SLOP <= theta <= GATE_THETA_MAX + _ANGLE_SLOP:
        raise ValueError(f"theta must lie in [0, pi/6], got {theta!r}")


def _check_gate_domain(which: int, theta: float) -> None:
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    check_gate_theta(theta)


def gate_block(which: int, theta: float, inverse: bool = False) -> np.ndarray:
    """rho(sigma_which), or with inverse=True its conjugate transpose: the controlled block.

    Refuses which outside (1, 2) and theta outside [0, pi/6] as ``pulse_angles`` does.
    """
    _check_gate_domain(which, theta)
    return rho_generator(BraidGenerator(which, -1 if inverse else 1), ReprParams.from_theta(theta))


def pulse_angles(theta: float, which: int) -> tuple[float, float, float]:
    """Rotation angles (alpha, beta, gamma) of the hardware-style sequence.

    Valid for theta in [0, pi/6].  gamma is forced to 0 for which == 1; at
    theta = pi/6 the gamma formula's denominator vanishes with a negative
    numerator, and the one-sided limit gamma = 0 is returned.
    """
    _check_gate_domain(which, theta)
    alpha = 0.5 * math.pi - 2.0 * theta
    beta = 0.5 * math.pi + theta
    if which == 1:
        gamma = 0.0
    else:
        den_sq = 4.0 * math.cos(2.0 * theta) ** 2 - 1.0
        if den_sq <= 1e-15:
            gamma = 0.0
        else:
            gamma = math.atan(math.cos(4.0 * theta) / math.sqrt(den_sq)) + 0.5 * math.pi
    return alpha, beta, gamma


def compile_controlled_s(
    which: int, theta: float, inverse: bool = False
) -> tuple[PulseInstruction, ...]:
    """The ten-instruction program whose propagator is identity (+) rho(sigma_which).

    theta must lie in [0, pi/6]; with inverse=True the target block is the
    conjugate transpose.  The construction is exact, so verifying against
    the block target returns fidelity 1 up to floating-point rounding.
    """
    s = gate_block(which, theta, inverse)
    d0 = 0.5 * cmath.phase(complex(np.linalg.det(s)))
    su = cmath.exp(-1j * d0) * s
    b = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    half_sum = -cmath.phase(complex(su[0, 0])) if abs(su[0, 0]) > 1e-15 else 0.0
    half_diff = cmath.phase(complex(su[1, 0])) if abs(su[1, 0]) > 1e-15 else 0.0
    a = half_sum + half_diff
    c = half_sum - half_diff
    pi = math.pi
    return (
        rot(2, "z", 0.5 * c),
        couple(-0.5 * c),
        rot(2, "y", 0.5 * b),
        rot(2, "z", -0.5 * pi),
        couple(-0.5 * pi),
        rot(2, "y", 0.5 * b),
        rot(2, "z", 0.5 * (a + pi)),
        couple(0.5 * (pi - a)),
        rot(1, "z", d0),
        phase(0.5 * d0),
    )


def _instruction_propagator(instr: PulseInstruction) -> np.ndarray:
    if instr.kind == "rotation":
        half = 0.5 * instr.angle
        r = math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * _PAULI[instr.axis]
        return np.kron(r, np.eye(2)) if instr.spin == 1 else np.kron(np.eye(2), r)
    if instr.kind == "coupling":
        half = 0.5 * instr.angle
        return np.diag(np.exp(-1j * half * np.array([1.0, -1.0, -1.0, 1.0])))
    return cmath.exp(1j * instr.angle) * np.eye(4, dtype=complex)


def simulate_program(p: tuple[PulseInstruction, ...]) -> np.ndarray:
    """Exact 4x4 propagator of the instruction tuple (closed-form exponentials only)."""
    u = np.eye(4, dtype=complex)
    for instr in p:
        u = _instruction_propagator(instr) @ u
    return u


def verify_program(p: tuple[PulseInstruction, ...], target: np.ndarray) -> float:
    """Global-phase-invariant fidelity |trace(target^dagger * U_p)| / dim."""
    t = np.asarray(target, dtype=complex)
    u = simulate_program(p)
    if t.shape != u.shape:
        raise ValueError(f"dimension mismatch: target {t.shape}, program {u.shape}")
    return float(abs(np.trace(t.conj().T @ u)) / u.shape[0])


def format_program(p: tuple[PulseInstruction, ...]) -> str:
    """One ``_TOKENS`` line per instruction; floats use repr, so no digit is lost."""
    lines = []
    for ins in p:
        operands = f"spin={ins.spin} axis={ins.axis} " if ins.kind == "rotation" else ""
        lines.append(f"{_TOKENS[ins.kind]} {operands}angle={ins.angle!r}")
    return "\n".join(lines)

