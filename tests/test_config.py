import json
import math

import pytest

from liarsim import (
    BoundExceeded,
    Configuration,
    NotSingleCycle,
    OutOfRange,
    count_paradoxical,
    eight_liar,
    enumerate_paradoxical,
    is_paradoxical,
    one_liar,
    simple_liar,
    validate,
)
from liarsim.config import MAX_SENTENCES, config_from_json, config_to_json
from liarsim.statespace import canonical_entry_cycle

from golden import EIGHT_NEGATING, EIGHT_REFERENT, PARADOX_COUNTS


def test_validate_accepts_single_cycles():
    validate(Configuration(1, (1,), (True,)))
    validate(Configuration(3, (2, 3, 1), (False, False, True)))
    validate(Configuration(4, (3, 1, 4, 2), (True, False, False, False)))


def test_validate_rejects_nonpositive_m():
    with pytest.raises(OutOfRange):
        validate(Configuration(0, (), ()))


def test_sentence_count_bound():
    big = MAX_SENTENCES + 1
    referent = tuple(i % big + 1 for i in range(1, big + 1))
    for reject in (
        lambda: validate(Configuration(big, referent, (True,) * big)),
        lambda: simple_liar(big),
        lambda: count_paradoxical(big),
        lambda: list(enumerate_paradoxical(big)),
        lambda: canonical_entry_cycle(big),
    ):
        with pytest.raises(OutOfRange) as failure:
            reject()
        assert str(failure.value) == "sentence count must be an integer in 1..4096, got 4097"
    assert simple_liar(MAX_SENTENCES).m == MAX_SENTENCES
    assert count_paradoxical(MAX_SENTENCES) == (
        math.factorial(MAX_SENTENCES - 1) * 2 ** (MAX_SENTENCES - 1)
    )


def test_validate_rejects_wrong_lengths():
    with pytest.raises(OutOfRange):
        validate(Configuration(2, (2,), (True, False)))
    with pytest.raises(OutOfRange):
        validate(Configuration(2, (2, 1), (True,)))


def test_validate_rejects_out_of_range_referent():
    with pytest.raises(OutOfRange):
        validate(Configuration(2, (2, 3), (True, False)))
    with pytest.raises(OutOfRange):
        validate(Configuration(2, (0, 1), (True, False)))


def test_validate_rejects_split_cycles():
    # two 2-cycles
    with pytest.raises(NotSingleCycle):
        validate(Configuration(4, (2, 1, 4, 3), (True, False, False, False)))
    # self-loop plus 2-cycle
    with pytest.raises(NotSingleCycle):
        validate(Configuration(3, (1, 3, 2), (True, False, False)))
    # identity map is a cycle only for m = 1
    with pytest.raises(NotSingleCycle):
        validate(Configuration(2, (1, 2), (True, False)))
    # a walk that never revisits within m steps but does not return to 1
    with pytest.raises(NotSingleCycle):
        validate(Configuration(2, (2, 2), (True, False)))


@pytest.mark.parametrize(
    "m,referent,negating,error",
    [
        (0, (), (), OutOfRange),
        (2, (2,), (True, False), OutOfRange),
        (2, (2, 3), (True, False), OutOfRange),
        (2, (1, 2), (True, False), NotSingleCycle),
        (2, (2, 2), (True, False), NotSingleCycle),
    ],
)
def test_invalid_configuration_cannot_be_built(m, referent, negating, error):
    with pytest.raises(error):
        Configuration(m, referent, negating)


@pytest.mark.parametrize(
    "m,referent,negating,message",
    [
        (2.0, (2, 1), (True, False), "sentence count must be an integer in 1..4096, got 2.0"),
        (True, (1,), (True,), "sentence count must be an integer in 1..4096, got True"),
        (
            2,
            [2, 1],
            [True, False],
            "malformed configuration object: referent must be a tuple, got [2, 1]",
        ),
        (2, (2, 1), (1, 0), "negation of sentence 1 must be True or False, got 1"),
        (1, (True,), (True,), "referent of sentence 1 must be an integer in 1..1, got True"),
    ],
    ids=["float-m", "bool-m", "lists", "int-negations", "bool-referent"],
)
def test_configuration_checks_types(m, referent, negating, message):
    # nothing is coerced: each input is OutOfRange, not a TypeError or a
    # configuration that is not hashable
    with pytest.raises(OutOfRange) as failure:
        Configuration(m, referent, negating)
    assert str(failure.value) == message


def test_paradox_parity():
    assert is_paradoxical(one_liar())
    assert is_paradoxical(Configuration(2, (2, 1), (True, False)))
    assert not is_paradoxical(Configuration(2, (2, 1), (True, True)))
    assert not is_paradoxical(Configuration(2, (2, 1), (False, False)))


@pytest.mark.parametrize("m,expected", sorted(PARADOX_COUNTS.items()))
def test_count_matches_enumeration(m, expected):
    assert count_paradoxical(m) == expected
    assert sum(1 for _ in enumerate_paradoxical(m)) == expected


def test_count_closed_form_exact_integers():
    for m in range(1, 21):
        assert count_paradoxical(m) == math.factorial(m - 1) * 2 ** (m - 1)


def test_enumeration_is_deterministic_and_valid():
    first = list(enumerate_paradoxical(3))
    second = list(enumerate_paradoxical(3))
    assert first == second
    assert len(set(first)) == len(first)
    for config in first:
        validate(config)
        assert is_paradoxical(config)


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_paradoxical(9))


def test_json_round_trip():
    for config in (one_liar(), eight_liar(), simple_liar(4)):
        assert config_from_json(config_to_json(config)) == config


def test_json_rejects_malformed_and_invalid():
    with pytest.raises(OutOfRange):
        config_from_json('{"m": 2, "referent": [2, 1]}')
    with pytest.raises(NotSingleCycle):
        config_from_json('{"m": 2, "referent": [1, 2], "negating": [true, false]}')


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 1, "referent": [1], "negating": ["false"]}',
        '{"m": 1, "referent": [1], "negating": [1]}',
        '{"m": 1.9, "referent": [1], "negating": [true]}',
        '{"m": true, "referent": [1], "negating": [true]}',
        '{"m": "1", "referent": [1], "negating": [true]}',
        '{"m": 2, "referent": [2.0, 1], "negating": [true, false]}',
        '{"m": 2, "referent": [true, 1], "negating": [true, false]}',
        '{"m": 2, "referent": "21", "negating": [true, false]}',
        '{"m": 1, "referent": [1], "negating": true}',
        '[1, [1], [true]]',
    ],
)
def test_json_requires_exact_types(text):
    with pytest.raises(OutOfRange):
        config_from_json(text)


def test_json_nested_too_deeply_is_out_of_range():
    with pytest.raises(OutOfRange, match="nested too deeply"):
        config_from_json('{"m": ' + "[" * 50000)
    with pytest.raises(json.JSONDecodeError):
        config_from_json("{")


def test_named_configurations():
    assert one_liar() == Configuration(1, (1,), (True,))
    eight = eight_liar()
    assert eight.referent == EIGHT_REFERENT
    assert eight.negating == EIGHT_NEGATING
    assert is_paradoxical(eight)
    for m in range(1, 9):
        config = simple_liar(m)
        assert sum(config.negating) == 1
        assert is_paradoxical(config)
