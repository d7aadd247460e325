"""Unitary two-projector Temperley-Lieb representation of B_3.

The generators are the real symmetric 2x2 matrices

    U1 = | delta  0 |        U2 = | 1/delta       sqrt(1-delta^-2) |
         | 0      0 |             | sqrt(1-delta^-2)  delta-1/delta |

with loop value delta = -A^2 - A^-2 for a unit complex A = exp(i*theta),
so delta = -2*cos(2*theta).  They satisfy U_i^2 = delta*U_i and
U_1 U_2 U_1 = U_1 (and symmetrically), with trace(U_i) = delta and
trace(U_1 U_2) = 1.  Braid generators map to

    rho(sigma_i) = A*I + A^-1 * U_i

which is unitary exactly when delta^2 >= 1, i.e. for theta in the closed
union

    [0, pi/6] u [pi/3, 2pi/3] u [5pi/6, 7pi/6] u [4pi/3, 5pi/3] u [11pi/6, 2pi].

A point is fixed by theta alone.  At the interval endpoints delta^2 = 1, the
pair stays real and U2 degenerates to a rank-1 diagonal: handled, not an error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .braid import BraidGenerator, BraidWord

__all__ = [
    "ADMISSIBLE_INTERVALS",
    "ReprParams",
    "delta_from_theta",
    "is_admissible",
    "tl_generators",
    "build_U",
    "rho_generator",
    "rho_word",
]

TWO_PI = 2.0 * math.pi

ADMISSIBLE_INTERVALS: tuple[tuple[float, float], ...] = (
    (0.0, math.pi / 6),
    (math.pi / 3, 2 * math.pi / 3),
    (5 * math.pi / 6, 7 * math.pi / 6),
    (4 * math.pi / 3, 5 * math.pi / 3),
    (11 * math.pi / 6, TWO_PI),
)

# 1e-12 plus the rounding between an endpoint's two float forms, so the slop
# is the same measured from either: math.radians(210) lies one ulp above
# 7*math.pi/6, and theta % TWO_PI rounds once more.
_EDGE_TOL = 1e-12 + 4 * math.ulp(TWO_PI)


def delta_from_theta(theta: float) -> float:
    """Loop value delta = -2*cos(2*theta) for A = exp(i*theta)."""
    return -2.0 * math.cos(2.0 * theta)


def is_admissible(theta: float) -> bool:
    """True iff theta (taken mod 2*pi) gives a unitary representation.

    The admissible set is the closed union in ADMISSIBLE_INTERVALS,
    equivalently delta^2 >= 1.  A 1e-12 slop at the interval endpoints
    absorbs the rounding of inputs like ``math.radians(30)``; it holds from
    the ``ADMISSIBLE_INTERVALS`` constants and from ``math.radians`` of the
    endpoint degrees alike.
    """
    t = theta % TWO_PI
    return any(lo - _EDGE_TOL <= t <= hi + _EDGE_TOL for lo, hi in ADMISSIBLE_INTERVALS)


@dataclass(frozen=True)
class ReprParams:
    """Representation point fixed by theta alone; A, delta and the real (U1, U2) are derived.

    Construction fails outside the admissible angle set; to probe the
    non-unitary continuation at gap angles, call ``tl_generators`` with the
    raw delta instead.
    """

    theta: float
    A: complex = field(init=False)
    delta: float = field(init=False)
    generators: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not is_admissible(self.theta):
            raise ValueError(f"theta={self.theta!r} lies outside the admissible angle set")
        object.__setattr__(self, "A", cmath.exp(1j * self.theta))
        object.__setattr__(self, "delta", delta_from_theta(self.theta))
        object.__setattr__(self, "generators", build_U(self))

    @classmethod
    def from_theta(cls, theta: float) -> ReprParams:
        """Parameters at angle theta; raises ValueError off the admissible set."""
        return cls(theta)


def tl_generators(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Temperley-Lieb generator pair (U1, U2) for loop value delta.

    Real symmetric when delta^2 >= 1.  For delta^2 < 1 the off-diagonal
    entry sqrt(1 - delta^-2) is taken as a complex square root, giving the
    analytic continuation whose braid images are not unitary; callers
    probing the gap angles use this path deliberately.
    """
    if abs(delta) < 1e-12:
        raise ValueError("delta = 0 makes U2 singular")
    inv = 1.0 / delta
    b_sq = 1.0 - inv * inv
    b = math.sqrt(b_sq) if b_sq >= 0.0 else 1j * math.sqrt(-b_sq)
    u2 = np.array([[inv, b], [b, delta - inv]])
    u1 = np.zeros_like(u2)
    u1[0, 0] = delta
    return u1, u2


def build_U(params: ReprParams) -> tuple[np.ndarray, np.ndarray]:
    """(U1, U2) at admissible parameters; both real symmetric and read-only.

    delta^2 >= 1 there, so a negative 1 - delta^-2 is rounding at an
    endpoint, and taking the real part gives the endpoint's b = 0, as at
    60 degrees.  Rounding can also go the other way: at 30 degrees delta is
    -1.0000000000000002, so the off-diagonal entry b = sqrt(1 - delta^-2)
    is 2.1e-8 rather than 0.
    """
    pair = tuple(u.real for u in tl_generators(params.delta))
    for u in pair:
        u.setflags(write=False)
    return pair


def rho_generator(g: BraidGenerator, params: ReprParams) -> np.ndarray:
    """Unitary image of a single braid letter.

    Positive letters map to A*I + A^-1*U_i; inverse letters use the
    conjugate transpose, which equals the matrix inverse here, so no solver
    is involved.  Only indices 1 and 2 exist in the three-strand
    representation.
    """
    if g.index not in (1, 2):
        raise ValueError(
            f"s{g.index} is not supported: the representation is three-strand only"
        )
    u = params.generators[g.index - 1]
    m = params.A * np.eye(2, dtype=complex) + u / params.A
    if g.sign == -1:
        m = m.conj().T
    return m


def rho_word(b: BraidWord, params: ReprParams) -> np.ndarray:
    """Left-to-right product of the letter images; I for the empty word.

    One image is built per entry of ``b.alphabet`` and the word is walked
    through ``b.codes``, so no letter is hashed.  ``ndarray.dot`` gives the
    same bits as ``@`` on these 2x2 complex products at a lower call cost.
    """
    if b.strands != 3:
        raise ValueError(f"the representation needs a 3-strand word, got {b.strands}")
    images = [rho_generator(g, params) for g in b.alphabet]
    result = np.eye(2, dtype=complex)
    for k in b.codes:
        result = result.dot(images[k])
    return result
