"""Liar-cycle configurations: validation, paradox test, counting, enumeration.

A configuration is a ring of m sentences, each speaking about exactly one
other sentence (a single m-cycle) and claiming it to be true or false.  The
configuration is paradoxical, i.e. has no consistent classical truth
assignment, exactly when the number of negating claims is odd.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterator

from .errors import BoundExceeded, NotSingleCycle, OutOfRange

ENUMERATION_BOUND = 8
# Largest sentence count accepted anywhere.  ``state`` writes 2m exact ranks
# of about 16,000 digits at this bound, one at a time; it ran in 1.7 s with a
# 47 MB peak RSS on a 2-core x86 machine.
MAX_SENTENCES = 4096


@dataclass(frozen=True)
class Configuration:
    """One m-sentence liar cycle, checked by ``validate`` when it is built.

    ``referent[i-1]`` is the 1-based sentence that sentence ``i`` speaks
    about; ``negating[i-1]`` is True when sentence ``i`` claims its referent
    is false, False when it claims it is true.
    """

    m: int
    referent: tuple[int, ...]
    negating: tuple[bool, ...]

    def __post_init__(self):
        validate(self)


class _Quote(reprlib.Repr):
    """``reprlib``'s bounded repr, except that an integer past 128 bits
    (about 39 digits) is named by its digit count.  Its digits are never
    made, so an integer of any size quotes in under 40 characters, where
    ``repr`` refuses one past 4,300 digits."""

    def repr_int(self, x, level):
        if x.bit_length() <= 128:
            return repr(x)
        digits = int(math.log10(abs(x)))  # off by at most one near a power of ten
        digits += (10 ** (digits + 1) <= abs(x)) - (10**digits > abs(x)) + 1
        return f"<{'negative ' if x < 0 else ''}int of {digits} digits>"


quote = _Quote().repr


def check_int(value: object, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """Return ``value`` if it is an integer in lo..hi, or any integer when
    no bounds are given.  The one rule for every integer argument: an
    ``int`` and not a ``bool``, so neither 2.0 nor a numpy integer is taken
    for one.  ``what`` names it in the error, "<what> must be an integer in
    <lo>..<hi>, got <value>", every number quoted by ``quote``."""
    if isinstance(value, int) and not isinstance(value, bool):
        if lo is None or lo <= value <= hi:
            return value
    bounds = "" if lo is None else f" in {quote(lo)}..{quote(hi)}"
    raise OutOfRange(f"{what} must be an integer{bounds}, got {quote(value)}")


def check_sentence_count(m: int) -> int:
    """Return ``m`` if it is a sentence count: an integer in
    1..MAX_SENTENCES (``check_int``).  Every m that counts the sentences of
    a configuration is read here, ``kappa_inverse``'s included."""
    return check_int(m, "sentence count", 1, MAX_SENTENCES)


def check_sentence(sentence: int, m: int) -> None:
    """Reject ``sentence`` unless it is one of the sentences 1..m of the
    sentence count ``m`` (``check_int``)."""
    # plain ints skip the calls: every projection checks its sentence
    if not (type(sentence) is type(m) is int and 1 <= sentence <= m <= MAX_SENTENCES):
        check_int(sentence, "sentence", 1, check_sentence_count(m))


def check_truth_value(value: bool, what: str = "truth value") -> None:
    """Reject ``value`` unless it is True or False: a ``bool``, so neither
    1 nor a numpy bool is taken for one.  The one rule for every flag;
    ``what`` names it in the error."""
    if not isinstance(value, bool):
        raise OutOfRange(f"{what} must be True or False, got {quote(value)}")


def validate(config: Configuration) -> Configuration:
    """Return ``config`` unchanged if it is a well-formed single cycle.

    ``m`` must be a sentence count, every referent a sentence 1..m
    (``check_int``) and every negation a bool (``check_truth_value``), with
    both sequences tuples; nothing is coerced.  The reference map must be a
    permutation of 1..m consisting of one m-cycle; the identity map is
    accepted only for m = 1 (self-reference).
    """
    m = check_sentence_count(config.m)
    for name, items in (("referent", config.referent), ("negating", config.negating)):
        # config_from_json passes a JSON list as a tuple, anything else as is
        if not isinstance(items, tuple):
            raise OutOfRange(
                f"malformed configuration object: {name} must be a tuple, got {quote(items)}"
            )
    if len(config.referent) != m or len(config.negating) != m:
        raise OutOfRange(
            f"referent/negating must have length m={m}, "
            f"got {len(config.referent)}/{len(config.negating)}"
        )
    for i, (r, negating) in enumerate(zip(config.referent, config.negating), start=1):
        check_int(r, f"referent of sentence {i}", 1, m)
        check_truth_value(negating, f"negation of sentence {i}")
    # Walk the cycle from sentence 1; a single m-cycle visits every sentence
    # exactly once before returning.
    seen = set()
    s = 1
    for _ in range(m):
        if s in seen:
            raise NotSingleCycle(f"reference map revisits sentence {s} early")
        seen.add(s)
        s = config.referent[s - 1]
    if s != 1:
        raise NotSingleCycle("reference map is not a single cycle over all sentences")
    return config


def is_paradoxical(config: Configuration) -> bool:
    """True iff the number of negating claims is odd."""
    return sum(config.negating) % 2 == 1


def count_paradoxical(m: int) -> int:
    """Exact number of paradoxical m-sentence configurations.

    (m-1)! single cycles, times the number of ways to place an odd number
    of negations on the m claims, which is half of the 2^m subsets of the
    claims.  Equals (m-1)! * 2^(m-1).
    """
    check_sentence_count(m)
    return factorial(m - 1) << (m - 1)


def enumerate_paradoxical(m: int) -> Iterator[Configuration]:
    """Yield every paradoxical m-sentence configuration exactly once.

    Deterministic order: cycles by lexicographic successor list of
    (2, ..., m), then negation patterns lexicographically with False < True.
    """
    check_sentence_count(m)
    if m > ENUMERATION_BOUND:
        raise BoundExceeded(
            f"enumeration of m={m} exceeds bound {ENUMERATION_BOUND} "
            f"({count_paradoxical(m)} configurations)"
        )
    for order in permutations(range(2, m + 1)):
        chain = (1,) + order
        referent = [0] * m
        for a, b in zip(chain, chain[1:] + (1,)):
            referent[a - 1] = b
        for negs in product((False, True), repeat=m):
            if sum(negs) % 2 == 1:
                yield Configuration(m, tuple(referent), negs)


def config_to_json(config: Configuration) -> str:
    """Serialize to the interchange form {"m", "referent", "negating"}."""
    return json.dumps(
        {
            "m": config.m,
            "referent": list(config.referent),
            "negating": list(config.negating),
        }
    )


def json_fields(obj: object, what: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in the JSON object ``obj``, or OutOfRange when
    ``obj`` is not an object or lacks one of them; ``what`` names it."""
    if not isinstance(obj, dict):
        raise OutOfRange(f"malformed {what}: expected a JSON object")
    try:
        return [obj[k] for k in keys]
    except KeyError as exc:
        raise OutOfRange(f"malformed {what}: missing {exc}") from None


def parse_json_fields(text: str, what: str, keys: tuple[str, ...]) -> list:
    """``json_fields`` of the JSON document ``text``.  Nesting too deep for
    the parser is OutOfRange, not RecursionError; text that is not JSON
    raises json.JSONDecodeError."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise OutOfRange(f"malformed {what}: JSON nested too deeply") from None
    return json_fields(obj, what, keys)


def config_from_json(text: str) -> Configuration:
    """Parse and validate the interchange form produced by config_to_json.

    Strict: ``m`` and every referent must be JSON integers and every
    ``negating`` entry a JSON boolean; nothing is coerced.  The JSON lists
    become tuples, and ``validate`` checks every type.
    """
    m, referent, negating = parse_json_fields(
        text, "configuration object", ("m", "referent", "negating")
    )

    def as_tuple(value):
        return tuple(value) if isinstance(value, list) else value

    return Configuration(m, as_tuple(referent), as_tuple(negating))


def one_liar() -> Configuration:
    """The elementary self-negating sentence."""
    return Configuration(1, (1,), (True,))


def simple_liar(m: int) -> Configuration:
    """Chain 1 -> 2 -> ... -> m -> 1 with a single negation on sentence m."""
    check_sentence_count(m)
    referent = tuple(i % m + 1 for i in range(1, m + 1))
    negating = tuple(i == m for i in range(1, m + 1))
    return Configuration(m, referent, negating)


def eight_liar() -> Configuration:
    """The canonical eight-sentence instance used as reference data.

    Reference cycle 1 -> 3 -> 8 -> 2 -> 7 -> 4 -> 6 -> 5 -> 1 with negations
    on sentences 1, 2, 5, 6 and 7; its reasoning sequence starting from
    hypothesizing sentence 1 true is
    1T, 3F, 8F, 2F, 7T, 4F, 6F, 5T, 1F, 3T, 8T, 2T, 7F, 4T, 6T, 5F.
    """
    referent = (3, 7, 8, 6, 1, 5, 4, 2)
    negating = (True, True, False, False, True, True, True, False)
    return Configuration(8, referent, negating)
