"""Braid words in the Artin braid group B_n.

Words are written in a small ASCII grammar, shell-safe on purpose:

    word := (term)*            terms separated by whitespace
    term := "s" INT ("^" SIGNED_INT)?

``s1^3`` expands to three copies of ``s1``, ``s2^-1`` is a single inverse
letter, and the empty word is the identity braid.  The parser is n-strand
general; strand limits specific to a representation are enforced by the
modules that need them, not here.

Per-letter work is paid once per word.  ``parse_braid`` parses each
distinct term once, so the repeats of one term in a parsed word are one
shared letter object, and refuses a word of more than ``MAX_WORD_LETTERS``
letters before a power expands.  A ``BraidWord`` derives, at construction,
its ``alphabet`` (the distinct letters in order of first appearance) and
its ``codes`` (the word as indices into the alphabet), so code that maps
letters to matrices builds one image per alphabet entry and indexes it per
letter, hashing no letter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice

__all__ = [
    "MAX_WORD_LETTERS",
    "BraidGenerator",
    "BraidWord",
    "BraidParseError",
    "parse_braid",
    "exponent_sum",
    "invert",
    "concat",
]

MAX_WORD_LETTERS = 10**6


class BraidParseError(ValueError):
    """Malformed braid word; ``position`` is the character offset of the bad token."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class BraidGenerator:
    """One letter: sigma_index when sign == +1, its inverse when sign == -1."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"generator sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class BraidWord:
    """Ordered product of generators of B_strands; immutable, safe to share.

    ``alphabet`` and ``codes`` are derived: ``letters[j]`` equals
    ``alphabet[codes[j]]``.
    """

    strands: int
    letters: tuple[BraidGenerator, ...] = ()
    alphabet: tuple[BraidGenerator, ...] = field(init=False, compare=False, repr=False)
    codes: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if self.strands < 2:
            raise ValueError(f"need at least 2 strands, got {self.strands}")
        index: dict[BraidGenerator, int] = {}
        object.__setattr__(self, "codes", tuple([index.setdefault(g, len(index)) for g in letters]))
        object.__setattr__(self, "alphabet", tuple(index))
        for g in self.alphabet:
            if g.index > self.strands - 1:
                raise ValueError(
                    f"generator s{g.index} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)


_TOKEN_RE = re.compile(r"\S+")
_TERM_RE = re.compile(r"s([0-9]+)(?:\^(-?[0-9]+))?\Z")


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse ``text`` into a BraidWord on ``strands`` strands.

    Powers expand left to right, so ``s1^3`` yields three ``s1`` letters and
    a negative power yields |k| inverse letters.  Each distinct term is
    checked and expanded once, so its repeats are one shared letter object.
    Raises BraidParseError (with the offending position) for syntax errors,
    out-of-range generator indices and zero exponents, at the first bad
    term; then, before any power expands, for a word longer than
    MAX_WORD_LETTERS, at the term that crosses the limit.
    """
    if strands < 2:
        raise ValueError(f"need at least 2 strands, got {strands}")
    tokens = text.split()
    terms: dict[str, tuple[BraidGenerator, int]] = {}
    for token in dict.fromkeys(tokens):
        try:
            terms[token] = _parse_term(token, strands)
        except ValueError as exc:
            raise BraidParseError(str(exc), _token_start(text, tokens.index(token))) from None
    counts = [count for _, count in map(terms.__getitem__, tokens)]
    if sum(counts) > MAX_WORD_LETTERS:
        crossing = next(j for j, n in enumerate(accumulate(counts)) if n > MAX_WORD_LETTERS)
        raise BraidParseError(
            f"the word has more than {MAX_WORD_LETTERS} letters", _token_start(text, crossing)
        )
    expansions = {token: (g,) * count for token, (g, count) in terms.items()}
    return BraidWord(strands, tuple(chain.from_iterable(map(expansions.__getitem__, tokens))))


def _parse_term(token: str, strands: int) -> tuple[BraidGenerator, int]:
    """(letter, repeat count) of one term.

    Raises ValueError with the message parse_braid reports for a bad term.
    """
    m = _TERM_RE.match(token)
    if m is None:
        raise ValueError(f"cannot parse braid term {token!r}")
    index = int(m.group(1))
    if index < 1:
        raise ValueError("generator index must be >= 1")
    if index > strands - 1:
        raise ValueError(f"generator s{index} out of range for {strands} strands")
    power = 1 if m.group(2) is None else int(m.group(2))
    if power == 0:
        raise ValueError("zero exponent is not allowed")
    return BraidGenerator(index, 1 if power > 0 else -1), abs(power)


def _token_start(text: str, j: int) -> int:
    """Character offset of the j-th whitespace-separated token of ``text``."""
    return next(islice(_TOKEN_RE.finditer(text), j, None)).start()


def exponent_sum(b: BraidWord) -> int:
    """Sum of the letter signs, the exponent count I(b) used in normalization."""
    return sum(g.sign * b.codes.count(k) for k, g in enumerate(b.alphabet))


def invert(b: BraidWord) -> BraidWord:
    """Group inverse: reversed letter order with all signs flipped."""
    return BraidWord(
        b.strands,
        tuple(BraidGenerator(g.index, -g.sign) for g in reversed(b.letters)),
    )


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenation (the group product) of two words on the same strand count."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)
