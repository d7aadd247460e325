"""Unitary two-projector Temperley-Lieb representation of B_3.

The generators are the real symmetric 2x2 matrices

    U1 = | delta  0 |        U2 = | 1/delta       sqrt(1-delta^-2) |
         | 0      0 |             | sqrt(1-delta^-2)  delta-1/delta |

with loop value delta = -A^2 - A^-2 for a unit complex A = exp(i*theta),
so delta = -2*cos(2*theta).  They satisfy U_i^2 = delta*U_i and
U_1 U_2 U_1 = U_1 (and symmetrically), with trace(U_i) = delta and
trace(U_1 U_2) = 1.  Braid generators map to

    rho(sigma_i) = A*I + A^-1 * U_i

which is unitary exactly when |delta| >= 1.  That rule, applied to the float
delta the generators are built from, is what ``is_admissible`` decides; mod
2*pi it is the closed union

    [0, pi/6] u [pi/3, 2pi/3] u [5pi/6, 7pi/6] u [4pi/3, 5pi/3] u [11pi/6, 2pi]

published as ``ADMISSIBLE_INTERVALS``.  A point is fixed by theta alone.  At
the interval endpoints |delta| = 1, the pair stays real and U2 degenerates to
a rank-1 diagonal: handled, not an error.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .braid import BraidGenerator, BraidWord
from .nmr import _TOL, _unitarity_defect

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

ADMISSIBLE_INTERVALS: tuple[tuple[float, float], ...] = (
    (0.0, math.pi / 6),
    (math.pi / 3, 2 * math.pi / 3),
    (5 * math.pi / 6, 7 * math.pi / 6),
    (4 * math.pi / 3, 5 * math.pi / 3),
    (11 * math.pi / 6, 2 * math.pi),
)

# The endpoint slop, from nmr's one tolerance.  |d delta / d theta| = 4*|sin(2*theta)| is
# 2*sqrt(3) wherever |delta| = 1, so at distance d into a gap |delta| misses 1 by
# s = 2*sqrt(3)*d, and a sigma_2 image misses unitarity by 2*s.  So an angle slop of
# _TOL/(4*sqrt(3)), 1.44e-13 rad, holds every letter image to _TOL, half of
# controlled_u's bound.  In delta that is _TOL/2, and 2^-46 (64 ulps of 1) more covers
# rounding: an ulp of theta below 2*pi moves delta by 14 ulps of 1, and an endpoint's
# float form (an ADMISSIBLE_INTERVALS constant or math.radians of its degrees) misses
# |delta| = 1 by up to 8, at 330 degrees; adding an offset to it or sending it through
# degrees rounds theta again.  So no admitted letter image misses unitarity by more than
# 2*_DELTA_SLOP = 1.03e-12; within the slop of the float forms the worst measured is 1.007e-12.
_ANGLE_SLOP = _TOL / (4 * math.sqrt(3))
_DELTA_SLOP = 2 * math.sqrt(3) * _ANGLE_SLOP + 2**-46


def delta_from_theta(theta: float) -> float:
    """Loop value delta = -2*cos(2*theta) for A = exp(i*theta)."""
    return -2.0 * math.cos(2.0 * theta)


def is_admissible(theta: float) -> bool:
    """True iff theta is finite and |delta_from_theta(theta)| >= 1.

    This is the unitarity rule itself, judged on the same float delta that
    ``ReprParams`` and ``build_U`` use, however large theta is; modulo 2*pi
    it is the closed union in ADMISSIBLE_INTERVALS.  A slop of _TOL/2 in
    delta, _TOL/(4*sqrt(3)) = 1.44e-13 rad at every endpoint, plus a rounding
    allowance, absorbs the rounding of inputs like ``math.radians(30)`` and
    holds every admitted letter image to about _TOL, nmr's one unitarity
    tolerance; 1e-12 rad into a gap is refused.  Infinite and NaN theta are
    not admissible.
    """
    return math.isfinite(theta) and abs(delta_from_theta(theta)) >= 1.0 - _DELTA_SLOP


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


def rho_word(b: BraidWord, params: ReprParams | Sequence[ReprParams]) -> np.ndarray:
    """Left-to-right product of the letter images, repaired if it drifts off U(2).

    ``params`` is a sequence of T points, which gives their products as a
    (T, 2, 2) stack, or one point, which is the grid of one: its 2x2 product
    is ``rho_word(b, [params])[0]``.  I for the empty word.  For each entry
    of ``b.alphabet`` the points' images are stacked, and the word is walked
    through ``b.codes`` with one ``np.matmul`` per letter over the whole
    stack, so no letter is hashed; a stack of one point is walked with
    ``ndarray.dot`` on its 2x2 views instead, which skips ``matmul``'s
    dispatch cost.  On a contiguous stack ``matmul`` makes the same zgemm
    call per point as ``ndarray.dot`` does on one 2x2 product, so every
    point's product has the bits of its own one-point product; an
    elementwise product or ``einsum`` would not, as the BLAS kernel fuses
    its multiply-adds.

    Each letter image is unitary only to rounding, and a word repeats the
    same few images, so their defects add up: the product drifts off U(2)
    about linearly in the word's length, to about 2e-12 at 10^4 letters.
    One ``nmr._unitarity_defect`` call measures every point's drift against
    the bound that ``nmr.controlled_u`` holds U to.  A product P within it
    is returned bit for bit.  A P past it is replaced by one Newton step of
    the polar iteration (Higham 1986), Q = (P + P^-dagger) / 2, the
    selective re-orthogonalisation of Parlett and Scott (1979): Q's defect
    is of order the square of P's plus rounding, and its trace differs from
    P's by at most about twice P's defect.  A NaN or infinite product has a
    NaN defect and is returned as it is, for ``controlled_u`` to refuse.
    """
    if isinstance(params, ReprParams):
        return rho_word(b, [params])[0]
    if b.strands != 3:
        raise ValueError(f"the representation needs a 3-strand word, got {b.strands}")
    images = [
        np.array([rho_generator(g, point) for point in params], dtype=complex).reshape(-1, 2, 2)
        for g in b.alphabet
    ]
    p = np.tile(np.eye(2, dtype=complex), (len(params), 1, 1))
    q = np.empty_like(p)
    mul = np.matmul
    if len(params) == 1:
        # one point: ndarray.dot on the 2-D views makes the same zgemm call without
        # matmul's ufunc dispatch, about 1.1 rather than 1.7 us a letter
        p, q, mul, images = p[0], q[0], np.ndarray.dot, [m[0] for m in images]
    for k in b.codes:
        mul(p, images[k], out=q)
        p, q = q, p
    p = p.reshape(-1, 2, 2)
    defect, bound = _unitarity_defect(p)
    for t in np.flatnonzero(defect > bound):
        # P^-dagger = adj(P)^dagger / conj(det P), written out for 2x2: no LAPACK call
        u = p[t]
        det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        adj_dagger = np.array([[u[1, 1], -u[1, 0]], [-u[0, 1], u[0, 0]]]).conj()
        p[t] = (u + adj_dagger / det.conjugate()) / 2
    return p
