import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidjones.invariants
from braidjones.braid import BraidGenerator, BraidWord, concat, exponent_sum, invert, parse_braid
from braidjones.invariants import (
    TLDiagram,
    bracket_state_sum,
    check_state_sum_size,
    closure_loop_count,
    compose_tl,
    cup_cap,
    evaluate,
    identity_diagram,
)
from braidjones.tlrep import ReprParams, rho_word

from helpers import ADMISSIBLE_THETA, LETTER3, count_calls

GRID_DEG = range(31)


def _reference_state_sum(b, A):
    """Every smoothing diagram built from scratch, states in increasing mask order."""
    a = complex(A)
    delta = -(a**2) - a**-2
    total = 0j
    for mask in range(1 << len(b.letters)):
        exp_a = 0
        diagram = identity_diagram(b.strands)
        for j, g in enumerate(b.letters):
            a_branch = not (mask >> j) & 1
            exp_a += 1 if a_branch else -1
            if (g.sign == 1) != a_branch:
                diagram = compose_tl(diagram, cup_cap(b.strands, g.index))
        circles = closure_loop_count(diagram)
        total += a**exp_a * delta ** (circles - 1)
    return total


def _exact_bracket(b, k):
    """Bracket of the closure at A = i**k, exactly: a transfer over the planar pairings.

    Each coefficient is a Gaussian integer held as an (re, im) pair of ints,
    since A**+-1 is a unit and delta = -A**2 - A**-2 = -2 * (-1)**k.  Letters
    are stacked last first, as in ``bracket_state_sum``: a letter's vertical
    smoothing has weight A**sign, its cup-cap A**-sign * delta**closed.
    """
    n = b.strands
    delta = -2 if k % 2 == 0 else 2

    def times_unit(z, power):
        re, im = z
        for _ in range(power * k % 4):
            re, im = -im, re
        return re, im

    coeffs = {identity_diagram(n).matching: (1, 0)}
    for g in reversed(b.letters):
        stacked = {}
        for matching, z in coeffs.items():
            cupped, closed = braidjones.invariants._stack_cup_cap(n, matching, g.index)
            for target, power, scale in ((matching, g.sign, 1), (cupped, -g.sign, delta**closed)):
                re, im = times_unit(z, power)
                old_re, old_im = stacked.get(target, (0, 0))
                stacked[target] = (old_re + scale * re, old_im + scale * im)
        coeffs = stacked
    total_re = total_im = 0
    for matching, (re, im) in coeffs.items():
        weight = delta ** (braidjones.invariants._closure_circles(n, matching) - 1)
        total_re, total_im = total_re + weight * re, total_im + weight * im
    return complex(total_re, total_im)


@st.composite
def _words(draw):
    n = draw(st.integers(2, 5))
    letter = st.builds(BraidGenerator, st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, draw(st.lists(letter, max_size=10)))


_unit = st.floats(0.0, 2 * math.pi).map(lambda phi: cmath.exp(1j * phi))
_non_unit = st.builds(lambda r, z: r * z, st.floats(0.5, 2.0), _unit)


# the reference costs up to 0.2 s on a 10-letter word; A is mostly unit-modulus
@settings(deadline=None, max_examples=50)
@given(b=_words(), A=st.one_of(_unit, _unit, _unit, _non_unit))
def test_state_sum_equals_reference_enumeration(b, A):
    assert bracket_state_sum(b, A) == _reference_state_sum(b, A)


@settings(deadline=None, max_examples=50)
@given(b=_words(), k=st.integers(0, 3))
def test_exact_transfer_equals_the_state_sum_at_fourth_roots_of_unity(b, k):
    assert abs(bracket_state_sum(b, 1j**k) - _exact_bracket(b, k)) < 1e-12


# the first independent check of words past the state sum's MAX_LETTERS cap
@pytest.mark.parametrize("length", [10, 100, 1000, 3000])
def test_trace_formula_matches_the_exact_transfer_on_long_words(length):
    rng = np.random.default_rng(length)
    letters = [
        BraidGenerator(int(index), int(sign))
        for index, sign in zip(rng.integers(1, 3, size=length), rng.choice((-1, 1), size=length))
    ]
    word = BraidWord(3, tuple(letters))
    # theta = 0, 90, 180 and 270 degrees: A = 1, i, -1 and -i, all admissible
    for k in range(4):
        bracket = evaluate(word, ReprParams(k * math.pi / 2)).bracket
        assert abs(bracket - _exact_bracket(word, k)) < 1e-12


def test_state_sum_memoises_diagram_work(monkeypatch):
    counts = count_calls(monkeypatch, "invariants.compose_tl", "invariants.closure_loop_count")
    braidjones.invariants._stack_cup_cap.cache_clear()
    braidjones.invariants._closure_circles.cache_clear()
    word = parse_braid("s1 s2^-1 s1 s2 s1^-1 s2^-1 s1 s2 s1 s2^-1 s1^-1 s2", 3)
    bracket_state_sum(word, cmath.exp(0.4j))
    # Catalan(3) = 5 planar diagrams, each with 2 cup-caps to stack on it
    assert counts["invariants.compose_tl"] <= 10
    assert counts["invariants.closure_loop_count"] <= 5


def test_diagram_validation():
    with pytest.raises(ValueError, match="pair every boundary point"):
        TLDiagram(2, ((0, 1), (1, 2)))
    # crossing chords: top0-bottom1 and top1-bottom0
    with pytest.raises(ValueError, match="planar"):
        TLDiagram(2, ((0, 3), (1, 2)))


def test_compose_cup_cap_squares_to_loop():
    e = cup_cap(2, 1)
    squared = compose_tl(e, e)
    assert squared.matching == e.matching
    assert squared.loops == 1


def test_compose_identity():
    ident = identity_diagram(3)
    out = compose_tl(ident, ident)
    assert out == ident
    assert out.loops == 0


def test_compose_e1_e2_e1():
    e1 = cup_cap(3, 1)
    e2 = cup_cap(3, 2)
    out = compose_tl(compose_tl(e1, e2), e1)
    assert out.matching == e1.matching
    assert out.loops == 0


def test_closure_counts():
    assert closure_loop_count(identity_diagram(3)) == 3
    assert closure_loop_count(cup_cap(2, 1)) == 1


def test_state_sum_identity_braid():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        delta = -(a**2) - a**-2
        value = bracket_state_sum(BraidWord(3), a)
        assert abs(value - delta**2) < 1e-12


def test_state_sum_single_crossing():
    # two smoothings of the closed single crossing: identity (weight A, two
    # circles) and cup-cap (weight 1/A, one circle), totalling A*delta + 1/A = -A^3
    rng = np.random.default_rng(32)
    word = parse_braid("s1", 2)
    for _ in range(10):
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(bracket_state_sum(word, a) - (-(a**3))) < 1e-12
        assert abs(bracket_state_sum(parse_braid("s1^-1", 2), a) - (-(a**-3))) < 1e-12


def test_state_sum_limits():
    with pytest.raises(ValueError, match="strands"):
        bracket_state_sum(BraidWord(9), 1j)
    with pytest.raises(ValueError, match="letters"):
        bracket_state_sum(parse_braid("s1^21", 2), 1j)


def test_check_state_sum_size_bounds_the_terms_over_all_points():
    word = parse_braid("s1 s2^-1 " * 10, 3)
    # the term count is the state sum's cost at one angle; a sweep charges it per gridpoint
    assert check_state_sum_size(word) == 2**20
    assert check_state_sum_size(BraidWord(3)) == 1
    # cli.run_sweep charges these terms per gridpoint: see
    # test_cli.py::test_run_sweep_bounds_the_oracle_cost_before_any_gridpoint


# Jones' identities (Bull. AMS 12, 1985) on 3-strand words of at most 40 letters, at
# admissible angles: they pin the sign and chirality conventions on arbitrary words
def _jones(letters, theta):
    return evaluate(BraidWord(3, tuple(letters)), ReprParams(theta)).jones


@settings(deadline=None)
@given(
    before=st.lists(LETTER3, max_size=19),
    after=st.lists(LETTER3, max_size=20),
    index=st.sampled_from((1, 2)),
    theta=ADMISSIBLE_THETA,
)
def test_jones_satisfies_the_skein_relation(before, after, index, theta):
    # t^-1 V+ - t V- = (t^1/2 - t^-1/2) V0 with t = A^-4 and t^1/2 = A^-2
    a = ReprParams(theta).A
    t, root_t = a**-4, a**-2
    v_plus, v_minus, v_zero = (
        _jones([*before, *crossing, *after], theta)
        for crossing in ([BraidGenerator(index, 1)], [BraidGenerator(index, -1)], [])
    )
    assert abs(v_plus / t - t * v_minus - (root_t - 1 / root_t) * v_zero) < 1e-12


@settings(deadline=None)
@given(letters=st.lists(LETTER3, max_size=40), theta=ADMISSIBLE_THETA)
def test_mirror_word_at_theta_is_the_word_at_minus_theta(letters, theta):
    mirror = [BraidGenerator(g.index, -g.sign) for g in letters]
    assert abs(_jones(mirror, theta) - _jones(letters, -theta)) < 1e-12


@settings(deadline=None)
@given(
    before=st.lists(LETTER3, max_size=18),
    after=st.lists(LETTER3, max_size=19),
    sign=st.sampled_from((1, -1)),
    theta=ADMISSIBLE_THETA,
)
def test_jones_respects_the_braid_relation(before, after, sign, theta):
    # s1 s2 s1 = s2 s1 s2, and the same with every letter inverted
    s1, s2 = BraidGenerator(1, sign), BraidGenerator(2, sign)
    left = _jones([*before, s1, s2, s1, *after], theta)
    assert abs(left - _jones([*before, s2, s1, s2, *after], theta)) < 1e-12


@settings(deadline=None)
@given(
    body=st.lists(LETTER3, max_size=30),
    outer=st.lists(LETTER3, min_size=1, max_size=5),
    theta=ADMISSIBLE_THETA,
)
def test_jones_is_conjugation_invariant(body, outer, theta):
    b, g = BraidWord(3, tuple(body)), BraidWord(3, tuple(outer))
    conjugated = concat(concat(g, b), invert(g))
    assert abs(_jones(conjugated.letters, theta) - _jones(body, theta)) < 1e-12


def test_markov_stability():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        delta = -(a**2) - a**-2
        in_b2 = bracket_state_sum(parse_braid("s1^3", 2), a)
        in_b3 = bracket_state_sum(parse_braid("s1^3", 3), a)
        assert abs(in_b3 / delta - in_b2) < 1e-9


def test_evaluate_identity_braid():
    params = ReprParams.from_theta(0.3)
    values = evaluate(BraidWord(3), params)
    assert abs(values.trace - 2.0) < 1e-12
    assert abs(values.bracket - params.delta**2) < 1e-12
    assert abs(values.f - params.delta**2) < 1e-12


def test_evaluate_trefoil_closed_form():
    word = parse_braid("s1^3", 3)
    for deg in GRID_DEG:
        params = ReprParams.from_theta(math.radians(deg))
        values = evaluate(word, params)
        a = params.A
        assert abs(values.trace - (a**3 - a**-9)) < 1e-12
        expected_bracket = values.trace + a**3 * (params.delta**2 - 2.0)
        assert abs(values.bracket - expected_bracket) < 1e-12


def test_evaluate_trefoil_at_theta_zero():
    values = evaluate(parse_braid("s1^3", 3), ReprParams.from_theta(0.0))
    assert abs(values.trace) < 1e-12
    assert abs(values.bracket - 2.0) < 1e-12


def test_evaluate_reports_t_and_jones():
    params = ReprParams.from_theta(0.4)
    values = evaluate(parse_braid("s1 s2^-1", 3), params)
    assert values.jones == values.f
    assert abs(values.t - params.A**-4) < 1e-12


def test_evaluate_on_a_grid_gives_each_points_values(monkeypatch):
    word = parse_braid("s1 s2^-1 s1 s2 s2 s1^-1", 3)
    params = [ReprParams.from_theta(math.radians(d)) for d in (0, 7, 30, 60, 240, 330)]
    calls = count_calls(monkeypatch, "invariants.exponent_sum")
    values = evaluate(word, params)
    assert calls["invariants.exponent_sum"] == 1
    assert len(values) == len(params)
    for v, p in zip(values, params):
        alone = evaluate(word, p)
        assert repr(v) == repr(alone)
        assert v.unitary.tobytes() == alone.unitary.tobytes()
    assert evaluate(word, []) == []


def _hex(z):
    return z.real.hex(), z.imag.hex()


# at these angles A is +-1 or about +-i, and the products' diagonals carry signed zeros
QUARTER_TURNS = [ReprParams.from_theta(math.radians(d)) for d in (0, 90, 180, 270)]


@settings(deadline=None, max_examples=200)
@given(
    letters=st.lists(LETTER3, max_size=40)
)
def test_stacked_traces_are_each_products_own_trace(letters):
    # one np.trace over the stack must give every point the bytes of complex(np.trace(u)),
    # the sign of a zero part included
    word = BraidWord(3, tuple(letters))
    for values in evaluate(word, QUARTER_TURNS):
        assert _hex(values.trace) == _hex(complex(np.trace(values.unitary)))
    for p in QUARTER_TURNS:
        alone = evaluate(word, p)
        assert _hex(alone.trace) == _hex(complex(np.trace(alone.unitary)))


SIGNED_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5)


@settings(deadline=None)
@given(
    diagonals=st.lists(
        st.lists(st.sampled_from(SIGNED_PARTS), min_size=4, max_size=4), min_size=1, max_size=8
    )
)
def test_trace_reading_keeps_np_traces_signed_zeros(diagonals):
    # The word products above never put -0 in both diagonal parts, so this stack does:
    # np.trace adds a diagonal to +0, where d[0] + d[1] would keep -0 + -0 = -0.
    stack = np.array([np.diag([complex(a, b), complex(c, d)]) for a, b, c, d in diagonals])
    params = [QUARTER_TURNS[0]] * len(stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(braidjones.invariants, "rho_word", lambda b, params: stack)
        values = evaluate(parse_braid("s1", 3), params)
    for u, v in zip(stack, values):
        assert _hex(v.trace) == _hex(complex(np.trace(u)))


def test_oracle_matches_trace_formula_on_random_words():
    rng = np.random.default_rng(34)
    for _ in range(20):
        length = int(rng.integers(0, 7))
        text = " ".join(
            f"s{rng.integers(1, 3)}^{rng.choice((-1, 1))}" for _ in range(length)
        )
        word = parse_braid(text, 3)
        params = ReprParams.from_theta(float(rng.uniform(math.pi / 3, 2 * math.pi / 3)))
        bracket = evaluate(word, params).bracket
        oracle = bracket_state_sum(word, params.A)
        assert abs(bracket - oracle) < 1e-9


def test_trace_is_conjugation_invariant():
    rng = np.random.default_rng(35)
    for _ in range(20):
        body = " ".join(
            f"s{rng.integers(1, 3)}^{rng.choice((-1, 1))}"
            for _ in range(int(rng.integers(0, 6)))
        )
        outer = " ".join(
            f"s{rng.integers(1, 3)}^{rng.choice((-1, 1))}"
            for _ in range(int(rng.integers(1, 4)))
        )
        b = parse_braid(body, 3)
        g = parse_braid(outer, 3)
        conjugated = concat(concat(g, b), invert(g))
        assert exponent_sum(conjugated) == exponent_sum(b)
        params = ReprParams.from_theta(float(rng.uniform(0, math.pi / 6)))
        t1 = np.trace(rho_word(b, params))
        t2 = np.trace(rho_word(conjugated, params))
        assert abs(t1 - t2) < 1e-12
