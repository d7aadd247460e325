import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import braidjones.tlrep
from braidjones.braid import BraidGenerator, BraidWord, invert, parse_braid
from braidjones.nmr import _unitarity_defect, controlled_u
from braidjones.tlrep import (
    _ANGLE_SLOP,
    _DELTA_SLOP,
    ADMISSIBLE_INTERVALS,
    ReprParams,
    build_U,
    delta_from_theta,
    is_admissible,
    rho_generator,
    rho_word,
    tl_generators,
)

from helpers import GAPS, random_admissible

def test_delta_from_theta():
    assert abs(delta_from_theta(0.0) + 2.0) < 1e-12
    assert abs(delta_from_theta(math.pi / 2) - 2.0) < 1e-12
    assert abs(delta_from_theta(math.pi / 6) + 1.0) < 1e-12


def test_is_admissible():
    assert is_admissible(math.pi / 12)
    assert not is_admissible(math.pi / 4)
    assert is_admissible(math.pi / 2)
    assert is_admissible(math.pi / 6)
    assert is_admissible(math.radians(30.0))
    assert is_admissible(math.pi / 12 + 2 * math.pi)
    for lo, hi in GAPS:
        assert not is_admissible(0.5 * (lo + hi))


def test_admissible_means_delta_squared_at_least_one():
    rng = np.random.default_rng(0)
    for _ in range(200):
        theta = float(rng.uniform(0.0, 2 * math.pi))
        if is_admissible(theta):
            assert delta_from_theta(theta) ** 2 >= 1.0 - 1e-11
        else:
            assert delta_from_theta(theta) ** 2 < 1.0


def test_admissible_intervals_agree_with_the_delta_rule():
    # the table is published for readers; is_admissible decides by |delta| alone
    assert ADMISSIBLE_INTERVALS[0][0] == 0.0 and ADMISSIBLE_INTERVALS[-1][1] == 2 * math.pi
    for lo, hi in ADMISSIBLE_INTERVALS:
        assert abs(delta_from_theta(0.5 * (lo + hi))) > 1.0
    for (_, gap_lo), (gap_hi, _) in zip(ADMISSIBLE_INTERVALS, ADMISSIBLE_INTERVALS[1:]):
        for endpoint in (gap_lo, gap_hi):
            assert abs(abs(delta_from_theta(endpoint)) - 1.0) <= _DELTA_SLOP
        assert abs(delta_from_theta(0.5 * (gap_lo + gap_hi))) < 1.0


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_non_finite_angles_are_not_admissible(theta):
    assert is_admissible(theta) is False
    with pytest.raises(ValueError, match="lies outside the admissible angle set"):
        ReprParams(theta)


@settings(deadline=None)
@given(
    letters=st.lists(
        st.builds(BraidGenerator, st.sampled_from((1, 2)), st.sampled_from((1, -1))),
        max_size=40,
    ),
    theta=st.floats(-1e6, 1e6),
)
def test_every_admissible_angle_gives_a_unitary_word_image(letters, theta):
    assume(is_admissible(theta))
    controlled_u(rho_word(BraidWord(3, tuple(letters)), ReprParams(theta)))


def test_repr_params_rejects_gap_angles():
    with pytest.raises(ValueError, match="admissible"):
        ReprParams.from_theta(math.pi / 4)


ENDPOINTS_DEG = (0, 30, 60, 120, 150, 210, 240, 300, 330, 360)
ENDPOINTS_RAD = sorted({x for interval in ADMISSIBLE_INTERVALS for x in interval})


@pytest.mark.parametrize(
    "theta",
    [math.radians(d) for d in ENDPOINTS_DEG]
    + [x + o for x in ENDPOINTS_RAD for o in (-1e-12, 1e-12)],
)
def test_endpoints_give_real_generators_and_unitary_images(theta):
    # theta is an endpoint's float form or 1e-12 rad, about 7 slops, from one.  Within one
    # slop of it, off a gap, a negative 1 - delta^-2 is rounding: the generators are real and
    # every letter image passes controlled_u.  Two slops into a gap are refused.
    for t in (theta + k * _ANGLE_SLOP for k in (-2, -1, 0, 1, 2)):
        if any(lo + 1.5 * _ANGLE_SLOP < t < hi - 1.5 * _ANGLE_SLOP for lo, hi in GAPS):
            assert not is_admissible(t)
            with pytest.raises(ValueError, match="outside the admissible angle set"):
                ReprParams(t)
            continue
        assert is_admissible(t)
        params = ReprParams(t)
        assert all(np.isrealobj(u) for u in params.generators)
        for index in (1, 2):
            for sign in (1, -1):
                controlled_u(rho_generator(BraidGenerator(index, sign), params))


def test_repr_params_derives_everything_from_theta():
    params = ReprParams(0.3)
    assert params == ReprParams.from_theta(0.3)
    assert hash(params) == hash(ReprParams(0.3))
    assert params.A == cmath.exp(0.3j) and params.delta == delta_from_theta(0.3)
    assert "generators" not in repr(params)
    for built, u in zip(build_U(params), params.generators):
        assert np.array_equal(built, u) and not u.flags.writeable
    with pytest.raises(TypeError):
        ReprParams(0.3, params.A, params.delta)


def test_repr_params_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        params = ReprParams.from_theta(random_admissible(rng))
        assert abs(abs(params.A) - 1.0) < 1e-12
        assert abs(complex(params.delta) - (-params.A**2 - params.A**-2)) < 1e-12


def test_build_U_at_delta_two():
    u1, u2 = build_U(ReprParams.from_theta(math.pi / 2))
    root3_half = math.sqrt(3.0) / 2.0
    assert np.allclose(u1, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(u2, [[0.5, root3_half], [root3_half, 1.5]], atol=1e-12)


def test_build_U_degenerates_at_delta_minus_one():
    u1, u2 = build_U(ReprParams.from_theta(math.pi / 6))
    assert np.allclose(u2, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-7)
    assert np.allclose(u1, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-7)


def test_tl_generators_rejects_singular_delta():
    with pytest.raises(ValueError, match="singular"):
        tl_generators(0.0)


def test_trace_identities():
    rng = np.random.default_rng(2)
    for _ in range(100):
        params = ReprParams.from_theta(random_admissible(rng))
        u1, u2 = build_U(params)
        assert abs(np.trace(u1) - params.delta) < 1e-12
        assert abs(np.trace(u2) - params.delta) < 1e-12
        assert abs(np.trace(u1 @ u2) - 1.0) < 1e-12
        assert abs(np.trace(u2 @ u1) - 1.0) < 1e-12


def test_tl_relations():
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = ReprParams.from_theta(random_admissible(rng))
        u1, u2 = build_U(params)
        for u in (u1, u2):
            assert np.max(np.abs(u @ u - params.delta * u)) < 1e-12
        assert np.max(np.abs(u1 @ u2 @ u1 - u1)) < 1e-12
        assert np.max(np.abs(u2 @ u1 @ u2 - u2)) < 1e-12


def test_rho_sigma1_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        params = ReprParams.from_theta(random_admissible(rng))
        r = rho_generator(BraidGenerator(1, 1), params)
        expected = np.diag([-params.A**-3, params.A])
        assert np.max(np.abs(r - expected)) < 1e-12


def test_rho_sigma1_at_theta_zero():
    r = rho_generator(BraidGenerator(1, 1), ReprParams.from_theta(0.0))
    assert np.allclose(r, np.diag([-1.0, 1.0]), atol=1e-12)


def test_rho_inverse_is_dagger_and_inverse():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = ReprParams.from_theta(random_admissible(rng))
        for index in (1, 2):
            fwd = rho_generator(BraidGenerator(index, 1), params)
            bwd = rho_generator(BraidGenerator(index, -1), params)
            assert np.max(np.abs(fwd @ bwd - np.eye(2))) < 1e-12
            assert np.max(np.abs(bwd - fwd.conj().T)) < 1e-12


def test_rho_unsupported_index():
    params = ReprParams.from_theta(0.1)
    with pytest.raises(ValueError, match="three-strand"):
        rho_generator(BraidGenerator(3, 1), params)


def test_rho_word_identity_and_strand_check():
    params = ReprParams.from_theta(0.2)
    assert np.allclose(rho_word(parse_braid("", 3), params), np.eye(2))
    with pytest.raises(ValueError, match="3-strand"):
        rho_word(parse_braid("s1", 2), params)


def test_rho_word_trefoil_closed_form():
    rng = np.random.default_rng(6)
    word = parse_braid("s1^3", 3)
    for _ in range(50):
        params = ReprParams.from_theta(random_admissible(rng))
        r = rho_word(word, params)
        expected = np.diag([-params.A**-9, params.A**3])
        assert np.max(np.abs(r - expected)) < 1e-12
        assert abs(np.trace(r) - (params.A**3 - params.A**-9)) < 1e-12


@settings(deadline=None)
@given(
    letters=st.lists(
        st.builds(BraidGenerator, st.sampled_from((1, 2)), st.sampled_from((1, -1))),
        max_size=40,
    ),
    theta=st.sampled_from(ADMISSIBLE_INTERVALS).flatmap(lambda iv: st.floats(*iv)),
)
def test_rho_word_equals_letter_by_letter_product(letters, theta):
    params = ReprParams.from_theta(theta)
    expected = np.eye(2, dtype=complex)
    for g in letters:
        expected = expected @ rho_generator(g, params)
    assert np.array_equal(rho_word(BraidWord(3, tuple(letters)), params), expected)


def _seeded_word(seed, length):
    rng = np.random.default_rng(seed)
    text = " ".join(rng.choice(["s1", "s2", "s1^-1", "s2^-1"], size=length))
    return parse_braid(text, 3)


TWELVE_ANGLES = [
    math.radians(d)
    for d in (0.0, 7.5, 30.0, 60.0, 75.0, 120.0, 150.0, 172.5, 210.0, 240.0, 300.0, 345.0)
]


@pytest.mark.parametrize("length", [1000, 3000])
def test_long_rho_word_is_bit_equal_to_the_plain_product(length):
    # bit equal wherever controlled_u admits the plain product P; where it refuses P
    # (1000 letters at 240 degrees, 3000 at 210 and 240), the result is P's Newton polar
    # step, held to 2^-50 in defect and to twice P's defect in its trace
    word = _seeded_word(length, length)
    for theta in TWELVE_ANGLES:
        params = ReprParams(theta)
        plain = np.eye(2, dtype=complex)
        for g in word.letters:
            plain = plain @ rho_generator(g, params)
        result = rho_word(word, params)
        defect, bound = _unitarity_defect(plain)
        if defect <= bound:
            assert np.array_equal(result, plain)
        else:
            newton = (plain + np.linalg.inv(plain).conj().T) / 2
            assert np.abs(result - newton).max() <= 2**-50
            assert _unitarity_defect(result)[0] <= 2**-50
            assert abs(np.trace(result) - np.trace(plain)) <= 2 * defect


# the angles where the rounded |delta| is below 1 and a long product drifts fastest
ENDPOINT_ANGLES = [math.radians(d) for d in (60.0, 210.0, 240.0, 300.0, 330.0)]


@settings(deadline=None, max_examples=60)
@given(
    letters=st.lists(
        st.builds(BraidGenerator, st.sampled_from((1, 2)), st.sampled_from((1, -1))),
        max_size=60,
    ),
    grid=st.lists(
        st.one_of(
            st.sampled_from(ENDPOINT_ANGLES),
            st.sampled_from(ADMISSIBLE_INTERVALS).flatmap(lambda iv: st.floats(*iv)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_stacked_rho_word_has_each_points_bytes(letters, grid):
    # the grid form is one matmul per letter over the stack; each point's product must
    # carry the bytes of the one-point call, which is the plain 2x2 product
    word = BraidWord(3, tuple(letters))
    params = [ReprParams(theta) for theta in grid]
    stack = rho_word(word, params)
    assert stack.shape == (len(grid), 2, 2)
    for t, p in enumerate(params):
        assert stack[t].tobytes() == rho_word(word, p).tobytes()


def _reference_product(word, params):
    # independent of rho_word: a plain .dot walk over the letters, and where the
    # product is past controlled_u's bound, one 2x2 Newton polar step, as rho_word
    # wrote both for one point at a time
    u = np.eye(2, dtype=complex)
    for g in word.letters:
        u = u.dot(rho_generator(g, params))
    defect = np.abs(u.conj().T.dot(u) - np.eye(2)).max()
    if not defect > 2 * 1e-12 - 2 * 2**-50:
        return u, False
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    adj_dagger = np.array([[u[1, 1], -u[1, 0]], [-u[0, 1], u[0, 0]]]).conj()
    return (u + adj_dagger / det.conjugate()) / 2, True


def test_stacked_rho_word_repairs_each_point_as_alone():
    # one defect test over the whole stack flags the points to repair; each point,
    # repaired or not, has the bytes of the one-point reference.  (s1 s2)x700 drifts
    # past controlled_u's bound at 240 and 330 degrees, 3000 seeded letters at 210 and 240
    cases = [
        (parse_braid(" ".join(["s1 s2"] * 700), 3), (15, 240, 100, 330, 345), [240, 330]),
        (_seeded_word(3000, 3000), (0, 210, 15, 240, 30), [210, 240]),
    ]
    for word, degrees, repaired in cases:
        params = [ReprParams(math.radians(d)) for d in degrees]
        stack = rho_word(word, params)
        flagged = []
        for d, p, u in zip(degrees, params, stack):
            reference, was_repaired = _reference_product(word, p)
            assert u.tobytes() == reference.tobytes()
            assert rho_word(word, p).tobytes() == reference.tobytes()
            if was_repaired:
                flagged.append(d)
        assert flagged == repaired


def test_rho_word_of_an_empty_grid_is_an_empty_stack():
    assert rho_word(parse_braid("s1 s2^-1", 3), []).shape == (0, 2, 2)


def _extended_image(g, theta):
    # rho_generator's formula at the same float theta, evaluated in np.longdouble: the
    # image that rho_generator's rounded one stands for
    t = np.longdouble(theta)
    a = np.exp(1j * np.clongdouble(t))
    delta = -2 * np.cos(2 * t)
    if g.index == 1:
        u = np.array([[delta, 0], [0, 0]], dtype=np.clongdouble)
    else:
        inv = 1 / delta
        b = np.sqrt(max(1 - inv * inv, np.longdouble(0)))
        u = np.array([[inv, b], [b, delta - inv]], dtype=np.clongdouble)
    m = a * np.eye(2, dtype=np.clongdouble) + u / a
    return m.conj().T if g.sign == -1 else m


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble carries no more precision than double here",
)
def test_repair_brings_a_long_word_trace_toward_the_extended_precision_product():
    # The drift of a 10^4-letter product is mostly the coherent sum of its letters'
    # rounding, so the reference is built from extended-precision letters: a product of
    # rho_generator's rounded letters in extended precision keeps that drift, and agrees
    # with the plain product to about 1e-14.  The measured gain is 21x to 378x.
    word = _seeded_word(7, 10000)
    repaired = 0
    for degrees in range(31):
        params = ReprParams(math.radians(degrees))
        result = rho_word(word, params)
        images = [rho_generator(g, params) for g in word.alphabet]
        plain = np.eye(2, dtype=complex)
        for k in word.codes:
            plain = plain.dot(images[k])
        defect, bound = _unitarity_defect(plain)
        if defect <= bound:
            continue
        repaired += 1
        extended = [_extended_image(g, params.theta) for g in word.alphabet]
        reference = np.eye(2, dtype=np.clongdouble)
        for k in word.codes:
            reference = reference @ extended[k]
        exact = reference[0, 0] + reference[1, 1]
        assert abs(np.trace(result) - exact) <= abs(np.trace(plain) - exact) / 10
    assert repaired > 0


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_a_non_finite_word_product_is_not_repaired(monkeypatch, bad):
    # its defect is NaN, which fails the drift test, so controlled_u refuses it as it is
    image = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    monkeypatch.setattr(braidjones.tlrep, "rho_generator", lambda g, params: image)
    with np.errstate(invalid="ignore"):
        plain = np.eye(2, dtype=complex).dot(image)
        result = rho_word(parse_braid("s1", 3), ReprParams(0.0))
    assert np.array_equal(result, plain, equal_nan=True)
    with pytest.raises(ValueError, match="matrix is not unitary"):
        controlled_u(result)


def test_rho_word_hashes_no_letter(monkeypatch):
    word = _seeded_word(1, 1000)
    calls = []
    original = BraidGenerator.__hash__

    def counting_hash(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(BraidGenerator, "__hash__", counting_hash)
    assert hash(word.letters[0]) == original(word.letters[0]) and len(calls) == 1
    calls.clear()
    for d in range(0, 31, 5):
        rho_word(word, ReprParams(math.radians(d)))
    assert len(calls) < len(word)


@pytest.mark.parametrize("degrees", ENDPOINTS_DEG)
def test_degree_endpoints_admit_a_symmetric_slop(degrees):
    # both float forms of the endpoint: math.radians of its degrees and its
    # ADMISSIBLE_INTERVALS constant; two slops past either is refused if that is in a gap
    constant = min(ENDPOINTS_RAD, key=lambda x: abs(x - math.radians(degrees)))
    for endpoint in (math.radians(degrees), constant):
        for theta in (endpoint - _ANGLE_SLOP, endpoint + _ANGLE_SLOP):
            assert is_admissible(theta)
            ReprParams(theta)
        for theta in (endpoint - 2 * _ANGLE_SLOP, endpoint + 2 * _ANGLE_SLOP):
            assert is_admissible(theta) == (not any(lo < theta < hi for lo, hi in GAPS))


@pytest.mark.parametrize("gap", GAPS)
def test_points_just_inside_a_gap_stay_refused(gap):
    lo, hi = gap
    for theta in (lo + 1e-9, hi - 1e-9):
        assert not is_admissible(theta)
        with pytest.raises(ValueError, match="admissible"):
            ReprParams(theta)


def test_braid_relation():
    rng = np.random.default_rng(7)
    lhs_word = parse_braid("s1 s2 s1", 3)
    rhs_word = parse_braid("s2 s1 s2", 3)
    for _ in range(100):
        params = ReprParams.from_theta(random_admissible(rng))
        lhs = rho_word(lhs_word, params)
        rhs = rho_word(rhs_word, params)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rho_word_inverse_property():
    rng = np.random.default_rng(8)
    for _ in range(30):
        length = int(rng.integers(0, 9))
        text = " ".join(
            f"s{rng.integers(1, 3)}^{rng.choice((-1, 1))}" for _ in range(length)
        )
        word = parse_braid(text, 3)
        params = ReprParams.from_theta(random_admissible(rng))
        fwd = rho_word(word, params)
        bwd = rho_word(invert(word), params)
        assert np.max(np.abs(fwd @ bwd - np.eye(2))) < 1e-11
        assert np.max(np.abs(bwd - fwd.conj().T)) < 1e-11


def test_gap_angles_give_non_unitary_rho():
    rng = np.random.default_rng(9)
    for _ in range(50):
        lo, hi = GAPS[int(rng.integers(len(GAPS)))]
        theta = float(rng.uniform(lo + 1e-3, hi - 1e-3))
        assert not is_admissible(theta)
        u1, u2 = tl_generators(delta_from_theta(theta))
        a = cmath.exp(1j * theta)
        defect = 0.0
        for u in (u1, u2):
            rho = a * np.eye(2) + u / a
            defect = max(defect, np.max(np.abs(rho @ rho.conj().T - np.eye(2))))
        assert defect > 1e-6
