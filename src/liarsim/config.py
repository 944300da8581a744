"""Liar-cycle configurations: validation, paradox test, counting, enumeration.

A configuration is a ring of m sentences, each speaking about exactly one
other sentence (a single m-cycle) and claiming it to be true or false.  The
configuration is paradoxical, i.e. has no consistent classical truth
assignment, exactly when the number of negating claims is odd.
"""

from __future__ import annotations

import json
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


def check_sentence_count(m: int) -> int:
    """Return ``m`` if it is a sentence count: an integer (``is_json_int``)
    in 1..MAX_SENTENCES."""
    if not is_json_int(m) or m < 1:
        raise OutOfRange(f"sentence count must be a positive integer, got {m!r}")
    if m > MAX_SENTENCES:
        raise OutOfRange(f"sentence count {m} exceeds MAX_SENTENCES = {MAX_SENTENCES}")
    return m


def check_sentence(sentence: int, m: int) -> None:
    """Reject ``sentence`` unless it is one of the sentences 1..m, both
    integers by ``is_json_int``; nothing is coerced."""
    # plain ints skip the calls: every projection checks its sentence
    ints = type(sentence) is type(m) is int or is_json_int(sentence) and is_json_int(m)
    if not (ints and 1 <= sentence <= m):
        raise OutOfRange(f"sentence {sentence!r} outside 1..{m!r}")


def check_truth_value(value: bool, what: str = "truth value") -> None:
    """Reject ``value`` unless it is True or False: a ``bool``, so neither
    1 nor a numpy bool is taken for one.  The one rule for every flag;
    ``what`` names it in the error."""
    if not isinstance(value, bool):
        raise OutOfRange(f"{what} must be True or False, got {reprlib.repr(value)}")


def validate(config: Configuration) -> Configuration:
    """Return ``config`` unchanged if it is a well-formed single cycle.

    ``m`` and every referent must be integers (not bools) and every
    negation a bool, with both sequences tuples; nothing is coerced.  The
    reference map must be a permutation of 1..m consisting of one m-cycle;
    the identity map is accepted only for m = 1 (self-reference).
    """
    what = "malformed configuration object"
    if not is_json_int(config.m):
        raise OutOfRange(f"{what}: m must be an integer, got {config.m!r}")
    for name, items, ok, kind in (
        ("referent", config.referent, is_json_int, "integers"),
        ("negating", config.negating, lambda b: isinstance(b, bool), "booleans"),
    ):
        # config_from_json passes a JSON list as a tuple, anything else as is
        if isinstance(items, list):
            raise OutOfRange(f"{what}: {name} must be a tuple, got a list")
        if not (isinstance(items, tuple) and all(ok(x) for x in items)):
            raise OutOfRange(f"{what}: {name} must be a list of {kind}")
    m = check_sentence_count(config.m)
    if len(config.referent) != m or len(config.negating) != m:
        raise OutOfRange(
            f"referent/negating must have length m={m}, "
            f"got {len(config.referent)}/{len(config.negating)}"
        )
    for i, r in enumerate(config.referent, start=1):
        if not 1 <= r <= m:
            raise OutOfRange(f"referent of sentence {i} is {r}, outside 1..{m}")
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


def is_json_int(value: object) -> bool:
    """True for a JSON integer; JSON true/false parse to bool, a subclass of
    int, and are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


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
