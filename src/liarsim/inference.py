"""Classical inference over a liar cycle.

Reasoning proceeds by hypothesizing a truth value for one sentence, reading
off the value this forces on the sentence it speaks about, and endorsing
that inferred value as the next hypothesis.  For a paradoxical configuration
this walk closes after exactly 2m steps, visiting every sentence once with
each truth value; the closed walk anchors both the state assignment and the
discrete evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import Configuration, check_sentence, check_truth_value, is_json_int, is_paradoxical
from .errors import NotParadoxical, OutOfRange


@dataclass(frozen=True)
class HypothesisStep:
    """One hypothesis event: at position ``step``, ``sentence`` is taken
    to have truth value ``value``."""

    step: int
    sentence: int
    value: bool


@dataclass(frozen=True)
class ReasoningCycle:
    """The closed 2m-step hypothesis sequence of a paradoxical configuration."""

    m: int
    steps: tuple[HypothesisStep, ...]
    positions: dict[tuple[int, bool], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {(s.sentence, s.value): s.step for s in self.steps}
        object.__setattr__(self, "positions", positions)

    def step_of(self, sentence: int, value: bool) -> int:
        """Position at which ``sentence`` is hypothesized to have ``value``;
        OutOfRange unless ``check_truth_value`` and ``check_sentence`` pass."""
        check_truth_value(value)
        check_sentence(sentence, self.m)
        return self.positions[sentence, value]

    def hypothesis_at(self, step: int) -> tuple[int, bool]:
        """(sentence, value) hypothesized at 1-based position ``step``,
        taken cyclically."""
        if not is_json_int(step):
            raise OutOfRange(f"step must be an integer, got {step!r}")
        s = self.steps[(step - 1) % len(self.steps)]
        return s.sentence, s.value


def infer_next(config: Configuration, sentence: int, value: bool) -> tuple[int, bool]:
    """Truth value forced on the referent of ``sentence`` by hypothesizing
    ``value`` for it.

    An affirming claim propagates the value; a negating claim flips it
    (a false sentence makes the negation of its claim hold).
    """
    check_truth_value(value)
    check_sentence(sentence, config.m)
    return config.referent[sentence - 1], value != config.negating[sentence - 1]


def reasoning_cycle(
    config: Configuration, start_sentence: int = 1, start_value: bool = True
) -> ReasoningCycle:
    """Closed 2m-step hypothesis walk from the given start hypothesis.

    Raises NotParadoxical for an even negation count, where the walk would
    close after m steps with the start value unflipped, and OutOfRange
    unless the start is a sentence of ``config`` with a bool value.
    """
    if not is_paradoxical(config):
        raise NotParadoxical("walk closed after m steps without flipping the start value")
    check_truth_value(start_value)
    check_sentence(start_sentence, config.m)
    m = config.m
    steps = [HypothesisStep(1, start_sentence, start_value)]
    sentence, value = start_sentence, start_value
    for k in range(2, 2 * m + 1):
        sentence, value = infer_next(config, sentence, value)
        steps.append(HypothesisStep(k, sentence, value))
    return ReasoningCycle(m, tuple(steps))
