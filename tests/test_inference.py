import re

import pytest

import liarsim.inference as inference
from liarsim import (
    Configuration,
    NotParadoxical,
    OutOfRange,
    eight_liar,
    one_liar,
    probability_trace,
    reasoning_cycle,
    simple_liar,
)
from liarsim.inference import infer_next

from golden import EIGHT_SEQUENCE


def test_infer_next_polarity():
    affirm = Configuration(2, (2, 1), (False, True))
    # sentence 1 affirms sentence 2: value carries over
    assert infer_next(affirm, 1, True) == (2, True)
    assert infer_next(affirm, 1, False) == (2, False)
    # sentence 2 negates sentence 1: value flips
    assert infer_next(affirm, 2, True) == (1, False)
    assert infer_next(affirm, 2, False) == (1, True)


def test_infer_next_rejects_bad_sentence():
    with pytest.raises(OutOfRange):
        infer_next(one_liar(), 2, True)


def test_one_liar_cycle():
    cycle = reasoning_cycle(one_liar())
    assert [(s.sentence, s.value) for s in cycle.steps] == [(1, True), (1, False)]
    assert [s.step for s in cycle.steps] == [1, 2]


def test_eight_liar_sequence_is_the_reference_walk():
    cycle = reasoning_cycle(eight_liar())
    assert tuple((s.sentence, s.value) for s in cycle.steps) == EIGHT_SEQUENCE


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_cycle_visits_each_sentence_twice_complementarily(m):
    config = simple_liar(m)
    cycle = reasoning_cycle(config)
    assert len(cycle.steps) == 2 * m
    by_sentence = {}
    for s in cycle.steps:
        by_sentence.setdefault(s.sentence, []).append(s)
    for i in range(1, m + 1):
        first, second = by_sentence[i]
        assert (second.step - first.step) % (2 * m) == m
        assert first.value != second.value


def test_cycle_closes_back_to_start():
    config = eight_liar()
    cycle = reasoning_cycle(config, 4, False)
    last = cycle.steps[-1]
    assert infer_next(config, last.sentence, last.value) == (4, False)


def test_start_choice_rotates_the_same_walk():
    config = eight_liar()
    base = reasoning_cycle(config)
    pairs = tuple((s.sentence, s.value) for s in base.steps)
    offset = pairs.index((7, True))
    rotated = reasoning_cycle(config, 7, True)
    assert tuple((s.sentence, s.value) for s in rotated.steps) == (
        pairs[offset:] + pairs[:offset]
    )


def test_non_paradoxical_walk_is_rejected():
    config = Configuration(2, (2, 1), (True, True))
    with pytest.raises(NotParadoxical):
        reasoning_cycle(config)


def test_non_paradoxical_config_is_rejected_before_walking(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked a configuration with an even negation count")

    monkeypatch.setattr(inference, "infer_next", no_walk)
    message = "^walk closed after m steps without flipping the start value$"
    for config in (Configuration(1, (1,), (False,)), Configuration(2, (2, 1), (True, True))):
        with pytest.raises(NotParadoxical, match=message):
            reasoning_cycle(config)


def test_lookup_helpers():
    cycle = reasoning_cycle(eight_liar())
    assert cycle.step_of(1, True) == 1
    assert cycle.step_of(7, True) == 5
    assert cycle.step_of(5, True) == 8
    assert cycle.hypothesis_at(9) == (1, False)
    # cyclic continuation past one period
    assert cycle.hypothesis_at(17) == (1, True)
    assert cycle.hypothesis_at(16 + 9) == (1, False)


def test_step_of_rejects_a_sentence_outside_the_cycle():
    with pytest.raises(OutOfRange, match=r"^sentence 9 outside 1\.\.8$"):
        reasoning_cycle(eight_liar()).step_of(9, True)


@pytest.mark.parametrize("value", ["x", "yes", 1, 0, None])
def test_a_truth_value_that_is_not_a_bool_is_rejected(value):
    message = rf"^truth value must be True or False, got {re.escape(repr(value))}$"
    with pytest.raises(OutOfRange, match=message):
        reasoning_cycle(eight_liar()).step_of(1, value)
    with pytest.raises(OutOfRange, match=message):
        reasoning_cycle(eight_liar(), 1, value)
    with pytest.raises(OutOfRange, match=message):
        probability_trace(eight_liar(), (1, value), [0.5])
