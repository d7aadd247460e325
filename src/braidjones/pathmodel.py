"""Walk (path-model) representation of Temperley-Lieb on line graphs.

A length-n bitstring encodes a walk on the line graph 1 -- 2 -- ... -- k
starting at node 1: bit 1 steps right, bit 0 steps left.  The strings whose
walk never leaves the graph span the representation space.  With node
weights lam(k) = sin(k*theta), d = 2*cos(theta) and A = i*exp(i*theta/2),
the generator E_i acts on the bit pair (i, i+1) of each state through

    E_i = |v(a)><v(a)|,  v(a) = (sqrt(lam(a-1)/lam(a)), sqrt(lam(a+1)/lam(a)))

where a = z_i is the walk position before bit i and the local pair is
ordered 01 before 10.  The E_i satisfy E_i^2 = d*E_i and the
Temperley-Lieb relations on bases where every local partner state is
admissible (the 3-node, 3-bit space in particular).

On the 3-node graph the representation is two dimensional with basis
[110, 101] (descending lexicographic), and after swapping the two basis
vectors it coincides exactly with the two-projector representation in
``tlrep`` under the angle match theta_2p = pi/2 + theta/2: then
d = 2*cos(theta) equals delta = -2*cos(2*theta_2p) and i*exp(i*theta/2)
equals exp(i*theta_2p), so even the braid images agree entrywise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .tlrep import ReprParams

__all__ = [
    "LineGraph",
    "PathBasis",
    "AjlParams",
    "walk_endpoint",
    "admissible_states",
    "build_E",
    "two_projector_correspondence_check",
]


@dataclass(frozen=True)
class LineGraph:
    """Line graph with nodes labeled 1..nodes."""

    nodes: int

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.nodes}")


@dataclass(frozen=True)
class PathBasis:
    """Admissible walk bitstrings over a line graph, in a fixed order."""

    graph: LineGraph
    bits: int
    states: tuple[str, ...]


@dataclass(frozen=True)
class AjlParams:
    """Path-model parameters at angle theta on ``nodes`` nodes.

    Construction derives d = 2*cos(theta) and A = i*exp(i*theta/2).  Valid
    only when lam(k) = sin(k*theta) is strictly positive for every node
    label k = 1..nodes (lam(0) = 0 is always fine); ties where some
    sin(k*theta) vanishes are rejected.
    """

    theta: float
    nodes: int
    d: float = field(init=False)
    A: complex = field(init=False)

    _POSITIVITY_TOL = 1e-12

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.nodes}")
        for k in range(1, self.nodes + 1):
            if math.sin(k * self.theta) <= self._POSITIVITY_TOL:
                raise ValueError(
                    f"sin({k}*theta) must be strictly positive, "
                    f"got {math.sin(k * self.theta)!r} at theta={self.theta!r}"
                )
        object.__setattr__(self, "d", 2.0 * math.cos(self.theta))
        object.__setattr__(self, "A", 1j * cmath.exp(0.5j * self.theta))

    @classmethod
    def from_theta(cls, theta: float, nodes: int) -> AjlParams:
        return cls(theta, nodes)

    def lam(self, k: int) -> float:
        """Node weight lam(k) = sin(k*theta)."""
        return math.sin(k * self.theta)


def walk_endpoint(p: str, i: int, graph: LineGraph) -> int:
    """Node z_i reached after the first i-1 bits of ``p``, starting at node 1.

    Raises ValueError if 1 <= i <= len(p)+1 fails or the prefix walk leaves
    the interval [1, graph.nodes].
    """
    if not 1 <= i <= len(p) + 1:
        raise ValueError(f"position {i} out of range for {len(p)} bits")
    node = 1
    for step, ch in enumerate(p[: i - 1], start=1):
        node += 1 if ch == "1" else -1
        if not 1 <= node <= graph.nodes:
            raise ValueError(f"walk leaves the graph at bit {step} of {p!r}")
    return node


def _stays_inside(p: str, nodes: int) -> bool:
    node = 1
    for ch in p:
        node += 1 if ch == "1" else -1
        if not 1 <= node <= nodes:
            return False
    return True


def admissible_states(graph: LineGraph, bits: int) -> PathBasis:
    """All bitstrings of the given length whose full walk stays in the graph.

    States are ordered descending-lexicographically (the all-right walk
    first), which puts the 3-node, 3-bit basis in the order [110, 101].
    """
    if bits < 1:
        raise ValueError(f"need at least 1 bit, got {bits}")
    states = tuple(
        s
        for v in range((1 << bits) - 1, -1, -1)
        if _stays_inside(s := format(v, f"0{bits}b"), graph.nodes)
    )
    return PathBasis(graph=graph, bits=bits, states=states)


def build_E(i: int, params: AjlParams, basis: PathBasis) -> np.ndarray:
    """Generator E_i on the walk basis, scaled so that E_i^2 = d*E_i.

    Couples each state to its bit-(i, i+1) partner.  Components aimed at
    walks that would leave the graph drop out: on the left edge the weight
    is lam(0) = 0, on the right edge the matrix is the compression to the
    admissible span.  States whose (i, i+1) pair is 00 or 11 are
    annihilated.
    """
    if params.nodes < basis.graph.nodes:
        raise ValueError(
            f"params cover {params.nodes} nodes but the graph has {basis.graph.nodes}"
        )
    if not 1 <= i <= basis.bits - 1:
        raise ValueError(f"generator index {i} out of range for {basis.bits} bits")
    index = {p: r for r, p in enumerate(basis.states)}
    dim = len(basis.states)
    e = np.zeros((dim, dim))
    for r, p in enumerate(basis.states):
        pair = p[i - 1 : i + 1]
        if pair not in ("01", "10"):
            continue
        a = walk_endpoint(p, i, basis.graph)
        la = params.lam(a)
        self_node = a - 1 if pair == "01" else a + 1
        e[r, r] = params.lam(self_node) / la
        partner = p[: i - 1] + ("10" if pair == "01" else "01") + p[i + 1 :]
        s = index.get(partner)
        if s is not None:
            other_node = a + 1 if pair == "01" else a - 1
            e[s, r] = math.sqrt(params.lam(self_node) * params.lam(other_node)) / la
    return e


_BASIS_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def two_projector_correspondence_check(theta: float) -> float:
    """Max deviation between matched path-model and two-projector data.

    ``theta`` is the path-model angle on the 3-node graph; the matched
    two-projector angle is theta_2p = pi/2 + theta/2 (see module docs).
    Returns the largest entrywise deviation between E_1, E_2 and U_1, U_2
    after the [110, 101] -> [101, 110] basis swap, and between the braid
    images A*I + A^-1*E_i and A*I + A^-1*U_i.

    theta = 0 is accepted as the d = 2 endpoint: the weight ratios
    lam(k)/lam(a) there are the exact limits k/a, giving E_1 = diag(0, 2)
    and E_2 = |v><v| with v = (sqrt(d - 1/d), sqrt(1/d)).  Other angles
    without a matching admissible two-projector point (d < 1) are domain
    errors.
    """
    if not 0.0 <= theta < math.pi / 3:
        raise ValueError(
            "no matching admissible two-projector angle: need 0 <= theta < pi/3"
        )
    graph = LineGraph(3)
    basis = admissible_states(graph, 3)
    d = 2.0 * math.cos(theta)
    if theta == 0.0:
        e1 = np.array([[0.0, 0.0], [0.0, d]])
        v = np.array([math.sqrt(d - 1.0 / d), math.sqrt(1.0 / d)])
        e2 = np.outer(v, v)
        a_path: complex = 1j
    else:
        params = AjlParams.from_theta(theta, graph.nodes)
        e1 = build_E(1, params, basis)
        e2 = build_E(2, params, basis)
        a_path = params.A
    ref = ReprParams.from_theta(math.pi / 2 + theta / 2)
    u1, u2 = ref.generators
    deviation = 0.0
    for e, u in ((e1, u1), (e2, u2)):
        e_swapped = _BASIS_SWAP @ e @ _BASIS_SWAP
        deviation = max(deviation, float(np.max(np.abs(e_swapped - u))))
        image_path = a_path * np.eye(2) + e_swapped / a_path
        image_ref = ref.A * np.eye(2) + u / ref.A
        deviation = max(deviation, float(np.max(np.abs(image_path - image_ref))))
    return deviation
