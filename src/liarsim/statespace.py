"""Tensor-index arithmetic and construction of the unreasoned initial state.

Each sentence of an m-cycle carries a factor space of n = 2m entries; a
product basis vector is addressed by an m-tuple of 1-based entries.  Tuples
embed into the single space of n^m dimensions through the mixed-radix
linearization ``kappa`` (sentence 1 is the most significant digit), which is
exact at any size because it works in arbitrary-precision integers.

Entry semantics per sentence, with n = 2m:

  * entry 2m-1: true by hypothesis (the reasoning act just endorsed it),
  * entry 2m:   false by hypothesis,
  * entries 1..m-1:    true by inference, hypothesized true after j steps,
  * entries m..2m-2:   false by inference, hypothesized false after
    j+1-m steps.

As the reasoning walk advances one step, every sentence's entry moves one
position along the canonical entry cycle

    C = (2m-1, 2m-2, ..., m, 2m, m-1, m-2, ..., 1)

phase-shifted per sentence so that entry 2m-1 lands exactly on the step
hypothesizing that sentence true (and entry 2m, m steps later, on the step
hypothesizing it false).  This places the truth entry, decrements it once
per step, inserts the falsehood entry after the decrement reaches m, then
continues down to 1.  Every sentence therefore traverses all 2m entries
exactly once per cycle, so the 2m basis states produced by one reasoning
cycle are pairwise distinct in every coordinate (no degeneracy).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .config import Configuration, validate
from .errors import OutOfRange
from .inference import reasoning_cycle

TensorIndex = tuple[int, ...]
EmbeddedIndex = int


def check_tensor_index(idx: TensorIndex, n: int) -> None:
    for j, e in enumerate(idx, start=1):
        if not 1 <= e <= n:
            raise OutOfRange(f"entry {e} at position {j} outside 1..{n}")


def kappa(idx: TensorIndex, n: int | None = None) -> EmbeddedIndex:
    """Linearize an m-tuple of 1-based entries to its 1-based rank in the
    lexicographic order on [1, n]^m.  Exact integer arithmetic."""
    if n is None:
        n = 2 * len(idx)
    check_tensor_index(idx, n)
    value = 0
    for e in idx:
        value = value * n + (e - 1)
    return value + 1


def kappa_inverse(e: EmbeddedIndex, m: int, n: int | None = None) -> TensorIndex:
    """Invert ``kappa``: mixed-radix digit extraction, most significant
    digit first."""
    if n is None:
        n = 2 * m
    if not 1 <= e <= n**m:
        raise OutOfRange(f"embedded index {e} outside 1..{n}^{m}")
    rem = e - 1
    digits = []
    for _ in range(m):
        rem, d = divmod(rem, n)
        digits.append(d + 1)
    return tuple(reversed(digits))


def canonical_entry_cycle(m: int) -> tuple[int, ...]:
    """The length-2m entry sequence each sentence traverses per reasoning
    cycle: start at the truth entry 2m-1, decrement to m, insert the
    falsehood entry 2m, continue decrementing to 1."""
    if m < 1:
        raise OutOfRange(f"sentence count must be positive, got {m}")
    return (
        tuple(range(2 * m - 1, m - 1, -1)) + (2 * m,) + tuple(range(m - 1, 0, -1))
    )


def cycle_states(config: Configuration) -> tuple[TensorIndex, ...]:
    """The 2m product basis states visited by one reasoning cycle, in step
    order, anchored at hypothesizing sentence 1 true.

    State t gives sentence i the entry C[(t - t_i) mod 2m], where t_i is the
    step hypothesizing sentence i true.
    """
    config = validate(config)
    m = config.m
    cyc = reasoning_cycle(config)
    true_step = {s.sentence: s.step for s in cyc.steps if s.value}
    entries = canonical_entry_cycle(m)
    period = 2 * m
    return tuple(
        tuple(entries[(t - true_step[i]) % period] for i in range(1, m + 1))
        for t in range(1, period + 1)
    )


@dataclass(frozen=True)
class EntryMeaning:
    """Decoded meaning of one entry value on one sentence factor.

    ``steps_until_hypothesis`` counts the inference steps until the sentence
    is formally hypothesized with this truth value; it is 0 for the two
    hypothesis entries themselves.
    """

    kind: str  # "true_by_hypothesis" | "false_by_hypothesis" | "true_by_inference" | "false_by_inference"
    value: bool
    steps_until_hypothesis: int


def interpret_entry(j: int, m: int) -> EntryMeaning:
    """Decode entry value ``j`` of a sentence factor with n = 2m entries."""
    if j == 2 * m - 1:
        return EntryMeaning("true_by_hypothesis", True, 0)
    if j == 2 * m:
        return EntryMeaning("false_by_hypothesis", False, 0)
    if 1 <= j <= m - 1:
        return EntryMeaning("true_by_inference", True, j)
    if m <= j <= 2 * (m - 1):
        return EntryMeaning("false_by_inference", False, j + 1 - m)
    raise OutOfRange(f"entry {j} outside 1..{2 * m}")


@dataclass(frozen=True)
class SparseState:
    """A vector in the n^m-dimensional product space, stored as a map from
    tensor tuple to complex amplitude.

    Immutable after construction; the amplitude map is defensively copied.
    An empty map is the distinguished null state (e.g. a zero projection).
    """

    m: int
    n: int
    amplitudes: Mapping[TensorIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        amps = {}
        for idx, a in self.amplitudes.items():
            idx = tuple(idx)
            if len(idx) != self.m:
                raise OutOfRange(f"tuple {idx} has length {len(idx)}, expected {self.m}")
            check_tensor_index(idx, self.n)
            amps[idx] = complex(a)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def is_null(self) -> bool:
        return not self.amplitudes

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> SparseState:
        nrm = self.norm()
        if nrm == 0.0:
            return self
        return SparseState(
            self.m, self.n, {k: a / nrm for k, a in self.amplitudes.items()}
        )

    def amplitude(self, idx: TensorIndex) -> complex:
        return self.amplitudes.get(tuple(idx), 0j)


def build_initial_state(config: Configuration) -> SparseState:
    """Equiponderate superposition of the 2m reasoning-cycle states: every
    amplitude is the real positive 1/sqrt(2m)."""
    states = cycle_states(config)
    amp = 1.0 / math.sqrt(len(states))
    return SparseState(
        config.m, 2 * config.m, {idx: complex(amp) for idx in states}
    )


def state_to_json(state: SparseState, *, extra: Mapping[str, object] | None = None) -> str:
    """Serialize to {"m", "n", "terms": [{"tuple", "embedded", "re", "im"}]}.

    Terms keep the state's insertion order (cycle order for states built
    here).  The embedded index is written as a decimal string so consumers
    limited to 64-bit integers survive large m.  ``extra`` prepends
    additional top-level keys (e.g. a run manifest).
    """
    obj: dict[str, object] = {}
    if extra:
        obj.update(extra)
    obj["m"] = state.m
    obj["n"] = state.n
    obj["terms"] = [
        {
            "tuple": list(idx),
            "embedded": str(kappa(idx, state.n)),
            "re": a.real,
            "im": a.imag,
        }
        for idx, a in state.amplitudes.items()
    ]
    return json.dumps(obj, indent=2)


def state_from_json(text: str) -> SparseState:
    """Parse the form written by state_to_json; unknown top-level keys are
    ignored.  The redundant embedded index is checked against the tuple."""
    obj = json.loads(text)
    m, n = int(obj["m"]), int(obj["n"])
    amps: dict[TensorIndex, complex] = {}
    for term in obj["terms"]:
        idx = tuple(int(e) for e in term["tuple"])
        embedded = int(term["embedded"])
        if kappa(idx, n) != embedded:
            raise OutOfRange(
                f"term {idx} disagrees with its embedded index {embedded}"
            )
        amps[idx] = complex(float(term["re"]), float(term["im"]))
    return SparseState(m, n, amps)
