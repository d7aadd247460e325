import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidjones.braid import (
    MAX_WORD_LETTERS,
    BraidGenerator,
    BraidParseError,
    BraidWord,
    concat,
    exponent_sum,
    invert,
    parse_braid,
)


def test_parse_power_expands():
    word = parse_braid("s1^3", 3)
    assert word.strands == 3
    assert word.letters == (BraidGenerator(1, 1),) * 3


def test_parse_empty_is_identity():
    word = parse_braid("", 3)
    assert word.letters == ()


def test_parse_mixed_word():
    word = parse_braid("s1 s2^-1 s1 s2^-1", 3)
    assert word.letters == (
        BraidGenerator(1, 1),
        BraidGenerator(2, -1),
        BraidGenerator(1, 1),
        BraidGenerator(2, -1),
    )


def test_parse_negative_power_expands():
    word = parse_braid("s2^-3", 4)
    assert word.letters == (BraidGenerator(2, -1),) * 3


def test_parse_index_out_of_range():
    with pytest.raises(BraidParseError, match="out of range"):
        parse_braid("s3", 3)


def test_parse_zero_index_and_zero_exponent():
    with pytest.raises(BraidParseError, match="index must be >= 1"):
        parse_braid("s0", 3)
    with pytest.raises(BraidParseError, match="zero exponent"):
        parse_braid("s1^0", 3)


def test_parse_syntax_error_reports_position():
    with pytest.raises(BraidParseError) as exc:
        parse_braid("s1 t2", 3)
    assert exc.value.position == 3


def test_parse_rejects_single_strand():
    with pytest.raises(ValueError):
        parse_braid("", 1)


def test_word_validates_letters():
    with pytest.raises(ValueError):
        BraidWord(2, (BraidGenerator(2, 1),))


def test_exponent_sum_examples():
    assert exponent_sum(parse_braid("s1^3", 3)) == 3
    assert exponent_sum(parse_braid("", 3)) == 0
    assert exponent_sum(parse_braid("s1 s2^-1 s1 s2^-1 s1 s2^-1", 3)) == 0


def test_invert_examples():
    word = parse_braid("s1 s2^-1", 3)
    assert invert(word).letters == (BraidGenerator(2, 1), BraidGenerator(1, -1))
    assert invert(parse_braid("", 3)) == parse_braid("", 3)
    assert invert(parse_braid("s1^3", 3)) == parse_braid("s1^-3", 3)


def test_concat_requires_matching_strands():
    with pytest.raises(ValueError):
        concat(parse_braid("s1", 2), parse_braid("s1", 3))


def _random_word(rng, strands=4, max_len=10):
    length = int(rng.integers(0, max_len + 1))
    letters = tuple(
        BraidGenerator(int(rng.integers(1, strands)), int(rng.choice((-1, 1))))
        for _ in range(length)
    )
    return BraidWord(strands, letters)


def test_exponent_sum_properties():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = _random_word(rng)
        b = _random_word(rng)
        assert exponent_sum(invert(a)) == -exponent_sum(a)
        assert exponent_sum(concat(a, b)) == exponent_sum(a) + exponent_sum(b)


_REFERENCE_TERM_RE = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?\Z")


def _reference_parse(text, strands):
    """The regex parser that builds one fresh letter per expanded letter."""
    if strands < 2:
        raise ValueError(f"need at least 2 strands, got {strands}")
    letters = []
    for token_match in re.finditer(r"\S+", text):
        token = token_match.group(0)
        pos = token_match.start()
        m = _REFERENCE_TERM_RE.match(token)
        if m is None:
            raise BraidParseError(f"cannot parse braid term {token!r}", pos)
        index = int(m.group(1))
        if index < 1:
            raise BraidParseError("generator index must be >= 1", pos)
        if index > strands - 1:
            raise BraidParseError(
                f"generator s{index} out of range for {strands} strands", pos
            )
        power = 1 if m.group(2) is None else int(m.group(2))
        if power == 0:
            raise BraidParseError("zero exponent is not allowed", pos)
        sign = 1 if power > 0 else -1
        letters.extend(BraidGenerator(index, sign) for _ in range(abs(power)))
    return BraidWord(strands, tuple(letters))


_valid_terms = st.builds(
    lambda index, power: f"s{index}" if power is None else f"s{index}^{power}",
    st.integers(0, 5),
    st.none() | st.integers(-4, 4),
)
# at most three characters after "^", so no term expands past 999 letters
_junk_terms = st.text(alphabet="s12^-0x", min_size=1, max_size=6)
_separators = st.sampled_from([" ", "  ", "\t", "\n", " \u3000 "])


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(st.tuples(_separators, _valid_terms | _junk_terms), max_size=12),
    tail=_separators,
    strands=st.integers(2, 5),
)
def test_parse_matches_reference_parser(parts, tail, strands):
    text = "".join(sep + term for sep, term in parts) + tail
    try:
        expected = _reference_parse(text, strands)
    except BraidParseError as exc:
        with pytest.raises(BraidParseError) as got:
            parse_braid(text, strands)
        assert str(got.value) == str(exc)
        assert got.value.position == exc.position
    else:
        word = parse_braid(text, strands)
        assert word == expected
        assert word.letters == expected.letters


def _random_text(seed, length):
    return " ".join(random.Random(seed).choices(("s1", "s2", "s1^-1", "s2^-1"), k=length))


def test_parse_shares_equal_letters():
    word = parse_braid(_random_text(0, 10**4), 3)
    assert len(word) == 10**4
    assert len({id(g) for g in word.letters}) <= 4
    assert len(word.alphabet) == 4


def test_word_alphabet_and_codes():
    word = parse_braid("s2^-1 s1 s2^-1 s2 s1", 3)
    assert word.alphabet == (BraidGenerator(2, -1), BraidGenerator(1, 1), BraidGenerator(2, 1))
    assert word.codes == (0, 1, 0, 2, 1)
    assert tuple(word.alphabet[k] for k in word.codes) == word.letters
    # equal letters that are distinct objects get one code, as shared ones do
    fresh = BraidWord(3, tuple(BraidGenerator(g.index, g.sign) for g in word.letters))
    twice_inverted = invert(invert(word))
    for other in (fresh, twice_inverted):
        assert len({id(g) for g in other.letters}) == len(word)
        assert (other.alphabet, other.codes) == (word.alphabet, word.codes)
        assert other == word and repr(other) == repr(word)
    assert (parse_braid("", 3).alphabet, parse_braid("", 3).codes) == ((), ())
    # distinct terms that spell one letter give it one alphabet entry
    spelled = parse_braid("s1 s1^2 s2^-1 s2^-2", 3)
    assert spelled.alphabet == (BraidGenerator(1, 1), BraidGenerator(2, -1))
    assert spelled.codes == (0, 0, 0, 1, 1, 1)
    assert tuple(spelled.alphabet[k] for k in spelled.codes) == spelled.letters


def test_parse_refuses_words_over_the_letter_cap():
    with pytest.raises(BraidParseError, match="more than 1000000 letters") as exc:
        parse_braid("s1 s2 s1^1000000000000", 3)
    assert exc.value.position == 6
    with pytest.raises(BraidParseError) as exc:
        parse_braid(f"s1 s2^{MAX_WORD_LETTERS - 1} s1", 3)
    assert exc.value.position == len(f"s1 s2^{MAX_WORD_LETTERS - 1} ")
    assert len(parse_braid(f"s1 s2^-{MAX_WORD_LETTERS - 1}", 3)) == MAX_WORD_LETTERS


def test_parse_reports_a_bad_term_before_the_letter_cap():
    with pytest.raises(BraidParseError, match="cannot parse") as exc:
        parse_braid("s1^1000000000000 t2", 3)
    assert exc.value.position == 17
