"""Density-operator simulation of an ensemble expectation-value machine.

The machine returns expectation values to a hard precision: a measurement
of M on rho yields x with |x - trace(M*rho)| <= epsilon * Lambda(M), where
Lambda(M) is the spread between extreme eigenvalues of M.  The trace
estimation pipeline is

    rho_1 = (1/N) * (1 - alpha_1 * I_1x)          N = 2^(n+1)
    rho_2 = cU * rho_1 * cU^dagger                cU = identity (+) U
    z     = <I_1x + i*I_1y> on rho_2              proportional to trace(U)

The proportionality constant c is deliberately not hard coded: it is
measured by a noise-free U = identity run, which makes the returned
estimate immune to sign and normalization conventions of the product
operators.  rho_1 and c depend only on (n, alpha_1), so a process builds
them once per pair and every estimate shares them, as it does the readout
observable per register; each estimate builds and checks its own cU and
rho_2.  Noise is a seeded uniform perturbation in
[-epsilon*Lambda, +epsilon*Lambda] per quadrature (uniform, not Gaussian,
because the precision contract is a hard bound), so the rescaled estimate
always satisfies |estimate - trace(U)| <= sqrt(2)*epsilon*Lambda/|c|, up
to float rounding.  The two draws are numpy's ``default_rng(seed)`` PCG64
stream, computed in this module with integer arithmetic, so a noisy
estimate never imports numpy.random and its bits do not follow numpy's
stream policy.  SeedSequence's hash and mix steps are each written once
(``_hashmix`` and ``_mix``), and ``_uniform_pair`` runs them in numpy's
own mix_entropy and generate_state loops.

rho_1 is the first-order (high-temperature) deviation form used verbatim:
its eigenvalues are (1 -+ alpha_1/2)/N, so it is positive only for
alpha_1 <= 2, and positivity is not enforced.

One hand-set number, ``_TOL`` = 1e-12, decides whether a matrix is unitary
or physical enough; every other bound on that fact, here and in ``tlrep``
and ``pulses``, is derived from it.  ``controlled_u`` is the one unitarity
check on the simulator path: it admits U within 2*_TOL of U^dagger U = I,
less a rounding margin, so no U it admits trips the unit-trace check of
rho_2.  ``_unitarity_defect`` computes that defect and bound for both
``controlled_u``, on one U, and ``tlrep.rho_word``, on a whole stack of
word products at once, which repairs each product past the bound onto U(2)
before it reaches the simulator.  ``DensityOperator`` holds a matrix a
caller passes in to _TOL in Hermiticity and in unit trace.  Each check is
written ``not (x <= bound)``, so NaN and infinite entries are refused,
without numpy's invalid-value warning, and its message gives x.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PROBE_LAMBDA",
    "MeasurementPrecision",
    "DensityOperator",
    "product_operator",
    "prepare_rho1",
    "controlled_u",
    "apply_cu",
    "measure_probe",
    "estimate_trace",
    "trace_error_bound",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# eigenvalue spread of the probe operators I_1x and I_1y (eigenvalues +-1/2)
PROBE_LAMBDA = 1.0

# the one hand-set tolerance on "unitary enough" and "physical enough" (module docstring)
_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementPrecision:
    """Measurement precision epsilon, probe polarization alpha1 and noise seed.

    Each check's message starts with the name of the field it refuses.
    ``seed`` may be any non-negative integral number, a numpy integer
    included, and is stored as a plain ``int``.
    """

    epsilon: float = 0.0
    alpha1: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon!r}")
        if not math.isfinite(2.0 * self.epsilon * PROBE_LAMBDA):
            raise ValueError(
                "epsilon must keep the noise band 2*epsilon*PROBE_LAMBDA finite, "
                f"got {self.epsilon!r}"
            )
        if not (math.isfinite(self.alpha1) and self.alpha1 > 0.0):
            raise ValueError(f"alpha1 must be finite and positive, got {self.alpha1!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian unit-trace matrix on ``qubits`` qubits (positivity unchecked)."""

    qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.qubits
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix for {self.qubits} qubits")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the check refuses
            skew = np.abs(mat - mat.conj().T).max()
        if not skew <= _TOL:
            raise ValueError(f"density operator must be Hermitian: max |M - M^dagger| = {skew:.3e}")
        if not (drift := abs(np.trace(mat) - 1.0)) <= _TOL:
            raise ValueError(f"density operator must have unit trace: |trace M - 1| = {drift:.3e}")


@lru_cache(maxsize=None)
def product_operator(m: int, slot: int, axis: str) -> np.ndarray:
    """I_{l,axis}: half of a Pauli on qubit ``slot`` (1-based), identity elsewhere.

    Memoised and read-only; invalid arguments raise, so they are never cached.
    """
    if not 1 <= slot <= m:
        raise ValueError(f"qubit slot {slot} out of range for {m} qubits")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    sigma = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis]
    op = np.eye(1, dtype=complex)
    for l in range(1, m + 1):
        op = np.kron(op, sigma if l == slot else np.eye(2, dtype=complex))
    op = 0.5 * op
    op.setflags(write=False)
    return op


def prepare_rho1(m: int, alpha1: float) -> DensityOperator:
    """Initial state (1/N) * (1 - alpha1 * I_1x): probe coherence on qubit 1.

    The off-diagonal blocks are -(alpha1/2N) times the identity on the
    work register.  Built directly; the experimental preparation sequence
    is out of scope.
    """
    if m < 2:
        raise ValueError("need a probe qubit plus at least one work qubit")
    dim = 2**m
    mat = (np.eye(dim, dtype=complex) - alpha1 * product_operator(m, 1, "x")) / dim
    return DensityOperator(m, mat)


def _unitarity_defect(u: np.ndarray) -> tuple[float | np.ndarray, float]:
    """(max|U^dagger U - I|, the bound ``controlled_u`` holds it to) for a square complex U.

    ``u`` is one d x d matrix, which gives one defect, or a (..., d, d) stack,
    which gives an array of the stack's per-matrix defects; each is the one its
    matrix alone gives, bit for bit.  A defect is NaN when its U has a NaN or
    infinite entry, so a test written ``defect > bound`` passes such a U on,
    and ``controlled_u``'s ``not defect <= bound`` refuses it.
    ``tlrep.rho_word`` repairs a word product when ``defect > bound``, so it
    repairs exactly the finite products ``controlled_u`` would refuse and
    returns every other one bit for bit.
    """
    # For a d x d U, on apply_cu's state tr rho_2 - 1 = tr(U^dagger U - I) / (2*d), at most
    # half the largest defect, so a defect within 2*_TOL keeps rho_2 within _TOL of unit
    # trace.  Computed, tr rho_2 and the diagonal of U^dagger U are sums of 2*d and d rounded
    # terms of about 1/(2*d) and 1, so tr rho_2 - 1 exceeds half the measured defect by
    # less than 1.5*d ulps of 1; the bound gives up 4*d ulps of defect to cover that.
    with np.errstate(invalid="ignore"):  # an inf entry makes NaN
        drift = np.matmul(u.conj().swapaxes(-1, -2), u) - np.eye(u.shape[-1])
    return np.abs(drift).max(axis=(-2, -1)), 2 * _TOL - u.shape[-1] * 2**-50


def _square_matrix(U: np.ndarray) -> np.ndarray:
    """U as a complex array; refused, before its size is read, unless a non-empty square matrix."""
    u = np.asarray(U, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size:
        raise ValueError("expected a square matrix")
    return u


def controlled_u(U: np.ndarray) -> np.ndarray:
    """Block unitary identity (+) U: acts as U only when the probe is |1>; checks U.

    The simulator's one unitarity check.  A U that is not a non-empty square
    matrix is refused before its size is read (``_square_matrix``).  U is
    refused, NaN and infinite entries included, unless max|U^dagger U - I|
    is at most 2*_TOL less dim * 2^-50 of rounding margin (``_unitarity_defect``, which
    ``tlrep.rho_word`` shares); the message gives the defect and the bound.
    No U it admits trips ``DensityOperator``'s unit-trace check in
    ``apply_cu``.
    """
    u = _square_matrix(U)
    dim = u.shape[0]
    err, tol = _unitarity_defect(u)
    if not err <= tol:
        raise ValueError(f"matrix is not unitary: max |U^dagger U - I| = {err:.3e} > {tol:.3e}")
    cu = np.eye(2 * dim, dtype=complex)
    cu[dim:, dim:] = u
    return cu


def apply_cu(rho1: DensityOperator, U: np.ndarray) -> DensityOperator:
    """rho_2 = cU * rho_1 * cU^dagger with cU = controlled_u(U), which checks U."""
    cu = controlled_u(U)
    if cu.shape != rho1.matrix.shape:
        dim = cu.shape[0] // 2
        raise ValueError(
            f"dimension mismatch: U is {dim}x{dim}, "
            f"state is {rho1.matrix.shape[0]}x{rho1.matrix.shape[0]}"
        )
    return DensityOperator(rho1.qubits, cu @ rho1.matrix @ cu.conj().T)


def measure_probe(rho2: DensityOperator, prec: MeasurementPrecision) -> complex:
    """Expectation <I_1x + i*I_1y>, perturbed within the hard precision band.

    With epsilon > 0, independent perturbations uniform in
    [-epsilon*PROBE_LAMBDA, +epsilon*PROBE_LAMBDA] are added to the real
    and imaginary parts.  They are the two draws of numpy's
    ``default_rng(prec.seed).uniform``, computed in-module by
    ``_uniform_pair``, so a fixed seed reproduces the measurement exactly.
    """
    z = complex(np.trace(_readout(rho2.qubits) @ rho2.matrix))
    if prec.epsilon > 0.0:
        z += complex(*_uniform_pair(prec.seed, prec.epsilon * PROBE_LAMBDA))
    return z


@lru_cache(maxsize=None)
def _readout(m: int) -> np.ndarray:
    """The observable I_1x + i*I_1y on m qubits; memoised and read-only."""
    op = product_operator(m, 1, "x") + 1j * product_operator(m, 1, "y")
    op.setflags(write=False)
    return op


# numpy's SeedSequence and PCG64 constants (PCG64 is O'Neill's XSL-RR 128/64 generator,
# "PCG: a family of simple fast space-efficient statistically good algorithms for
# random number generation", HMC-CS-2014-0905)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, h: int, mult: int) -> tuple[int, int]:
    """SeedSequence's hash step on a uint32: (hashed value, next hash constant).

    Xor with h, advance h to h*mult, multiply by it, xorshift by 16, mod 2^32.
    """
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16, h_next


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of pool word x with hashed word y, mod 2^32."""
    v = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return v ^ v >> 16


def _uniform_pair(seed: int, bound: float) -> tuple[float, float]:
    """numpy's ``default_rng(seed).uniform(-bound, bound, size=2)``, bit for bit.

    Written as numpy writes it.  SeedSequence's mix_entropy hashes the
    seed's little-endian uint32 words (zero-padded to four) into a pool of
    four, mixes each pool word into each other one, then hashes each word
    past the fourth into every pool word; one hash stream, A, runs through
    all of it.  generate_state(4, uint64) hashes the pool twice round on
    stream B into PCG64's 128-bit state and increment; each draw scales the
    top 53 bits of one XSL-RR output.  The work is integer arithmetic, so
    no platform or BLAS choice moves a bit, and numpy.random is never
    imported.
    """
    words = [seed >> i & _MASK32 for i in range(0, max(seed.bit_length(), 1), 32)]
    # mix_entropy on hash stream A: fill the pool, mix it, hash in the words past the fourth
    pool, h = [], _INIT_A
    for w in (words + [0, 0, 0])[:4]:
        v, h = _hashmix(w, h, _MULT_A)
        pool.append(v)
    for src, dst in permutations(range(4), 2):  # numpy's order: by src, then dst != src
        v, h = _hashmix(pool[src], h, _MULT_A)
        pool[dst] = _mix(pool[dst], v)
    for w in words[4:]:
        for dst in range(4):
            v, h = _hashmix(w, h, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    # generate_state(4, uint64) on hash stream B: eight uint32 words, cycling the pool
    state, h = [], _INIT_B
    for p in pool + pool:
        v, h = _hashmix(p, h, _MULT_B)
        state.append(v)
    # uint32 pairs are little-endian uint64s: the first two make initstate, the last two initseq
    s0, s1, s2, s3, s4, s5, s6, s7 = state
    inc = (s5 << 96 | s4 << 64 | s7 << 32 | s6) << 1 & _MASK128 | 1
    # seeding: state 0, step, add initstate, step
    x = (inc + (s1 << 96 | s0 << 64 | s3 << 32 | s2)) * _PCG64_MULT + inc & _MASK128
    draws = []
    for _ in range(2):
        x = x * _PCG64_MULT + inc & _MASK128
        value = (x >> 64 ^ x) & _MASK64
        rot = x >> 122
        value = (value >> rot | value << (64 - rot)) & _MASK64
        draws.append(-bound + (bound - -bound) * ((value >> 11) * 2.0**-53))
    return draws[0], draws[1]


@lru_cache(maxsize=None)
def _probe(dim: int, alpha1: float) -> tuple[DensityOperator, complex]:
    """The probe state rho_1 for dim x dim unitaries, and its calibration constant c.

    dim must be a power of two, 2^n: rho_1 spans the control qubit and an
    n-qubit work register.  c = z / trace(identity) comes from a noise-free
    U = identity run on this same rho_1; dividing estimates by it removes
    any sign or normalization convention of the readout.  Memoised, so a
    process prepares and calibrates each (dim, alpha1) once; a refused dim
    is checked again on every call, since no error is cached.  A cache
    entry holds rho_1, a (2*dim)^2 complex matrix (4x4 for the sweep's
    dim = 2), made read-only because every estimate shares it.
    """
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"need a power-of-two dimension, got {dim}")
    rho1 = prepare_rho1(dim.bit_length(), alpha1)
    rho1.matrix.setflags(write=False)
    rho2 = apply_cu(rho1, np.eye(dim, dtype=complex))
    z0 = measure_probe(rho2, MeasurementPrecision(epsilon=0.0, alpha1=alpha1))
    c = z0 / dim
    if abs(c) < 1e-300:
        raise ValueError(f"alpha1 {alpha1!r} gives a vanishing calibration constant")
    return rho1, c


def estimate_trace(U: np.ndarray, prec: MeasurementPrecision = MeasurementPrecision()) -> complex:
    """End-to-end trace estimate of a unitary U (checked by controlled_u).

    At epsilon 0 it equals trace(U) up to float rounding: a few ulps of sum |U_ii|.
    U's size is read for the probe only after ``_square_matrix`` admits its shape.
    """
    rho1, c = _probe(len(_square_matrix(U)), prec.alpha1)
    return measure_probe(apply_cu(rho1, U), prec) / c


def trace_error_bound(dim: int, prec: MeasurementPrecision) -> float:
    """Hard bound on |estimate_trace(U) - trace(U)| for dim x dim unitaries.

    Each quadrature of the raw measurement errs by at most
    epsilon*PROBE_LAMBDA, and the estimate divides by the calibration
    constant c, so the bound is sqrt(2)*epsilon*PROBE_LAMBDA/|c|.  The noise
    never exceeds it, since the precision contract is a hard bound, not a
    distribution; the float rounding of the pipeline is not in it, and the
    sweep gate (``cli._check_records``) adds its own allowance for that.  A
    bound that overflows is refused, with a message that starts with the
    epsilon field.
    """
    _, c = _probe(dim, prec.alpha1)
    bound = math.sqrt(2.0) * prec.epsilon * PROBE_LAMBDA / abs(c)
    if not math.isfinite(bound):
        raise ValueError(
            f"epsilon {prec.epsilon!r} at alpha1 {prec.alpha1!r} gives a non-finite eq9_bound"
        )
    return bound
