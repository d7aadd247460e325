"""Bracket and Jones values of braid closures, computed two independent ways.

The fast route closes a 3-strand word through the representation in
``tlrep``: with I(b) the exponent sum of the word,

    <closure(b)> = trace(rho(b)) + A^I(b) * (delta^2 - 2)
    f            = (-A^3)^(-I(b)) * <closure(b)>

and f, as a function of A, evaluated at A is the Jones value at t = A^-4.

The oracle route is a Kauffman bracket state sum over all 2^c smoothings of
the closed braid diagram; the smoothed diagrams are shared between states
and memoised over the Catalan(n) planar diagrams, so the sum costs 2^c term
additions, the count ``check_state_sum_size`` returns for a sweep's budget.
The smoothing of a positive crossing weighted A is the vertical (identity)
one and the cup-cap smoothing carries A^-1, mirrored for inverse crossings;
each state contributes

    A^(#A-smoothings - #B-smoothings) * delta^(circles - 1)

so the unknot evaluates to 1.  This is the convention under which the state
sum reproduces the trace formula above, matching rho(sigma_i) = A*I +
A^-1*U_i term by term.  Circles are counted from component labels over
planar Temperley-Lieb diagrams.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .braid import BraidWord, exponent_sum
from .tlrep import ReprParams, rho_word

__all__ = [
    "InvariantValues",
    "TLDiagram",
    "identity_diagram",
    "cup_cap",
    "compose_tl",
    "closure_loop_count",
    "check_state_sum_size",
    "bracket_state_sum",
    "evaluate",
]

MAX_STRANDS = 8
MAX_LETTERS = 20


@dataclass(frozen=True)
class InvariantValues:
    """Closure invariants at one parameter point: t = A^-4, jones = f, unitary = rho(b)."""

    trace: complex
    bracket: complex
    f: complex
    t: complex
    jones: complex
    unitary: np.ndarray = field(compare=False, repr=False)


Matching = tuple[tuple[int, int], ...]


def _components(size: int, edges) -> list[int]:
    """One label per point 0..size-1, shared exactly by points joined through edges."""
    label = list(range(size))
    for a, b in edges:
        old, new = label[b], label[a]
        if old != new:
            label = [new if x == old else x for x in label]
    return label


@dataclass(frozen=True)
class TLDiagram:
    """Planar perfect pairing of 2n boundary points: top 0..n-1, bottom n..2n-1.

    ``loops`` counts the closed circles absorbed by earlier compositions.
    Pairings are stored canonically (each pair sorted, pairs sorted), and
    planarity is validated: in the boundary's circular order (top left to
    right, then bottom right to left) the chords must not cross.
    """

    strands: int
    matching: Matching
    loops: int = 0

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError(f"need at least 1 strand, got {self.strands}")
        if self.loops < 0:
            raise ValueError("loop count cannot be negative")
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.matching))
        object.__setattr__(self, "matching", pairs)
        points = [q for p in pairs for q in p]
        if sorted(points) != list(range(2 * self.strands)):
            raise ValueError("matching must pair every boundary point exactly once")
        if not self._is_planar():
            raise ValueError("matching is not planar")

    def _is_planar(self) -> bool:
        n = self.strands
        # circular boundary position: top j -> j, bottom j -> 2n-1-j; chords
        # (a, b) and (c, d) cross iff a < c < b < d
        circ = lambda q: q if q < n else 3 * n - 1 - q
        chords = [sorted(map(circ, p)) for p in self.matching]
        return not any(a < c < b < d for a, b in chords for c, d in chords)


def identity_diagram(n: int) -> TLDiagram:
    """Each top point wired straight through to the bottom point below it."""
    return TLDiagram(n, tuple((j, n + j) for j in range(n)))


def cup_cap(n: int, i: int) -> TLDiagram:
    """The elementary diagram e_i: cup joining top points i-1, i, cap below."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"cup position {i} out of range for {n} strands")
    pairs = [(i - 1, i), (n + i - 1, n + i)]
    pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
    return TLDiagram(n, tuple(pairs))


def compose_tl(d1: TLDiagram, d2: TLDiagram) -> TLDiagram:
    """Stack d2 under d1, tracing connections and absorbing closed circles.

    The glued middle boundary disappears; every interior cycle increments
    the loop count, and carried loop counts add.
    """
    if d1.strands != d2.strands:
        raise ValueError(f"strand counts differ: {d1.strands} != {d2.strands}")
    n = d1.strands
    # point ids: d1 occupies 0..2n-1, d2 occupies 2n..4n-1, glued bottom to top
    glued = [*d1.matching, *((n + j, 2 * n + j) for j in range(n))]
    glued += [(2 * n + a, 2 * n + b) for a, b in d2.matching]
    label = _components(4 * n, glued)
    # the free ends, top of d1 and bottom of d2, come in pairs that share a label
    free = sorted([*range(n), *range(3 * n, 4 * n)], key=label.__getitem__)
    ends = [q if q < n else q - 2 * n for q in free]
    circles = len(set(label)) - n
    return TLDiagram(n, tuple(zip(ends[::2], ends[1::2])), d1.loops + d2.loops + circles)


def closure_loop_count(d: TLDiagram) -> int:
    """Circles of the braid-style closure (top j joined to bottom j)."""
    n = d.strands
    closure = [*d.matching, *((j, n + j) for j in range(n))]
    return len(set(_components(2 * n, closure))) + d.loops


def check_state_sum_size(b: BraidWord) -> int:
    """The state sum's term count for ``b``, 2^letters, once the word passes its limits.

    A word over MAX_STRANDS strands or MAX_LETTERS letters is refused.  The
    count is the sum's cost at one angle, which a sweep charges per gridpoint.
    """
    if b.strands > MAX_STRANDS:
        raise ValueError(
            f"the word has {b.strands} strands; "
            f"the state sum is limited to {MAX_STRANDS} strands"
        )
    if len(b.letters) > MAX_LETTERS:
        raise ValueError(
            f"the word has {len(b.letters)} letters; "
            f"the state sum is limited to {MAX_LETTERS} letters"
        )
    return 2 ** len(b.letters)


# Both caches are keyed by the pairing of a loop-free diagram, so they hold
# at most Catalan(n) * (n - 1) entries per strand count n <= MAX_STRANDS.
@functools.lru_cache(maxsize=None)
def _stack_cup_cap(n: int, matching: Matching, i: int) -> tuple[Matching, int]:
    """e_i stacked on top of the n-strand pairing: the new pairing and the circles closed."""
    out = compose_tl(cup_cap(n, i), TLDiagram(n, matching))
    return out.matching, out.loops


@functools.lru_cache(maxsize=None)
def _closure_circles(n: int, matching: Matching) -> int:
    return closure_loop_count(TLDiagram(n, matching))


def bracket_state_sum(b: BraidWord, A: complex) -> complex:
    """Kauffman bracket of the braid closure by full smoothing enumeration.

    Every one of the 2^letters states is summed, in increasing order of the
    state's bitmask (bit j set: letter j takes its B-smoothing).  The
    smoothed diagrams are built as suffix products, letter c-1 first, so
    sibling states share everything below the letter where they differ;
    stacking a cup-cap on a diagram and closing a diagram are memoised over
    the Catalan(n) planar diagrams, which leaves 2^letters term additions as
    the cost.  Guarded to at most MAX_STRANDS strands and MAX_LETTERS
    letters.  Independent of the representation route in ``evaluate``.
    """
    check_state_sum_size(b)
    n, letters = b.strands, b.letters
    a = complex(A)
    delta = -(a**2) - a**-2
    total = 0j

    def smooth(j: int, below: Matching, loops: int, exp_a: int) -> None:
        # `below` holds letters j+1.. smoothed.  Taking the A-branch first
        # reaches the states in increasing mask order, so the float terms
        # are added in the same order as by a plain loop over the masks.
        nonlocal total
        if j < 0:
            circles = _closure_circles(n, below) + loops
            total += a**exp_a * delta ** (circles - 1)
            return
        g = letters[j]
        vertical = (below, 0)
        cupped = _stack_cup_cap(n, below, g.index)
        a_smoothing, b_smoothing = (vertical, cupped) if g.sign == 1 else (cupped, vertical)
        for step, (diagram, closed) in ((1, a_smoothing), (-1, b_smoothing)):
            smooth(j - 1, diagram, loops + closed, exp_a + step)

    smooth(len(letters) - 1, identity_diagram(n).matching, 0, 0)
    return total


def evaluate(
    b: BraidWord, params: ReprParams | Sequence[ReprParams]
) -> InvariantValues | list[InvariantValues]:
    """Trace-formula invariants of the closure of a 3-strand word.

    ``params`` is one point, which gives its values, or a sequence of
    points, which gives a list of their values in the same order from one
    stacked ``rho_word`` product; the exponent sum I(b) is counted once per
    call.  ``jones`` equals ``f``: the normalized invariant as a function of
    A, evaluated here, is the Jones value at t = A^-4, and t is reported
    alongside to pin down the fourth-root branch.  Powers of -A^3 are taken
    as integer powers of a unit complex number, so no branch cuts arise.
    """
    single = isinstance(params, ReprParams)
    grid = [params] if single else params
    i_b = exponent_sum(b)
    values = []
    for p, unitary in zip(grid, rho_word(b, grid)):
        trace = complex(np.trace(unitary))
        a = p.A
        bracket = trace + a**i_b * (p.delta**2 - 2.0)
        f = (-(a**3)) ** (-i_b) * bracket
        values.append(
            InvariantValues(trace=trace, bracket=bracket, f=f, t=a**-4, jones=f, unitary=unitary)
        )
    return values[0] if single else values
