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

The same fact gives every row and rank of the cycle from the first.  Write
succ(v) for the entry after v on C and w_i = n^(m-i) for the weight of
sentence i.  One step replaces every entry e_i by succ(e_i), which adds
succ(e_i) - e_i to digit i; that difference is -1 except at the three
entries m, 2m and 1 (just one entry, 1, when m = 1).  With
jump(v) = succ(v) - v + 1, which is nonzero only there,

    row(t+1)   = succ(row(t))                    (entry by entry),
    kappa(t+1) = kappa(t) - (n^m - 1)/(n - 1)
                 + sum over sentences i with jump(e_i) != 0 of jump(e_i) * w_i,

where (n^m - 1)/(n - 1) is the sum of all weights.  A row holds each entry
at most once, so the sum has at most three terms.  ``initial_state_terms``
evaluates this one term at a time: one successor table steps the row, and
the rank is updated in ``decimal``, whose integers print in linear time with
no limit on their length.  Only the weights, one row and one rank are held,
never the 2m rows that ``cycle_states`` builds for the dense oracle.
``state_json_chunks``, the writer behind ``liarsim state``, formats each
term as it comes.  ``state_to_json`` is its reference: ``json.dumps`` of a
``SparseState``'s document, sharing no code with the chunked writer.
"""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .config import (
    Configuration,
    check_sentence_count,
    is_json_int,
    json_fields,
    parse_json_fields,
)
from .errors import OutOfRange
from .inference import reasoning_cycle

TensorIndex = tuple[int, ...]
EmbeddedIndex = int


def check_tensor_index(idx: TensorIndex) -> None:
    n = 2 * len(idx)
    for j, e in enumerate(idx, start=1):
        # a plain int skips the call: every state construction checks each entry
        if not ((type(e) is int or is_json_int(e)) and 1 <= e <= n):
            raise OutOfRange(f"entry {e!r} at position {j} outside 1..{n}")


def kappa(idx: TensorIndex) -> EmbeddedIndex:
    """Linearize an m-tuple of 1-based entries to its 1-based rank in the
    lexicographic order on [1, 2m]^m.  Exact integer arithmetic."""
    check_tensor_index(idx)
    n = 2 * len(idx)
    value = 0
    for e in idx:
        value = value * n + (e - 1)
    return value + 1


def decimal_string(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    ``str(int)`` refuses integers of more than 4,300 digits by default
    (``sys.int_info.default_max_str_digits``) and takes quadratic time;
    ``decimal`` converts exactly with no such limit.
    """
    return str(decimal.Decimal(value))


def kappa_inverse(e: EmbeddedIndex, m: int) -> TensorIndex:
    """Invert ``kappa``: mixed-radix digit extraction, most significant
    digit first."""
    if not (is_json_int(e) and is_json_int(m) and 1 <= e <= (2 * m) ** m):
        raise OutOfRange(f"embedded index {e!r} outside 1..(2m)^m for m = {m!r}")
    n = 2 * m
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
    check_sentence_count(m)
    return (
        tuple(range(2 * m - 1, m - 1, -1)) + (2 * m,) + tuple(range(m - 1, 0, -1))
    )


def _cycle_frame(config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """The entry cycle C and the true step t_i of every sentence, as int32
    arrays (entries and steps are at most 2m)."""
    walk = reasoning_cycle(config)
    t_true = [walk.step_of(i, True) for i in range(1, config.m + 1)]
    cycle = canonical_entry_cycle(config.m)
    import numpy as np  # after the checks: a rejected configuration never loads numpy

    return np.asarray(cycle, dtype=np.int32), np.asarray(t_true, dtype=np.int32)


def _rows(cycle: np.ndarray, t_true: np.ndarray, t) -> np.ndarray:
    """Cycle state t as its entries C[(t - t_i) mod 2m] for every sentence i;
    a sequence of steps t gives one row per step."""
    import numpy as np

    return cycle[np.subtract.outer(t, t_true) % len(cycle)]


def cycle_states(config: Configuration) -> tuple[TensorIndex, ...]:
    """The 2m product basis states visited by one reasoning cycle, in step
    order, anchored at hypothesizing sentence 1 true.

    State t gives sentence i the entry C[(t - t_i) mod 2m], where t_i is
    the step hypothesizing sentence i true.
    """
    rows = _rows(*_cycle_frame(config), range(1, 2 * config.m + 1))
    return tuple(map(tuple, rows.tolist()))


@dataclass(frozen=True)
class SparseState:
    """A vector in the (2m)^m-dimensional product space, stored as a map
    from tensor tuple to complex amplitude.

    Immutable after construction; the amplitude map is defensively copied.
    An empty map is the distinguished null state (e.g. a zero projection).
    m = 0 is the one-dimensional space of the empty tuple; a negative m
    raises OutOfRange.
    """

    m: int
    amplitudes: Mapping[TensorIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        if not is_json_int(self.m) or self.m < 0:
            raise OutOfRange(f"state has m = {self.m!r} sentences, need an integer m >= 0")
        amps = {}
        for idx, a in self.amplitudes.items():
            idx = tuple(idx)
            if len(idx) != self.m:
                raise OutOfRange(f"tuple {idx} has length {len(idx)}, expected {self.m}")
            check_tensor_index(idx)
            amps[idx] = complex(a)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        """Entries per sentence: always 2m."""
        return 2 * self.m

    @property
    def is_null(self) -> bool:
        return not self.amplitudes

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def normalized(self) -> SparseState:
        nrm = self.norm()
        if nrm == 0.0:
            return self
        return SparseState(self.m, {k: a / nrm for k, a in self.amplitudes.items()})

    def amplitude(self, idx: TensorIndex) -> complex:
        return self.amplitudes.get(tuple(idx), 0j)


def _uniform_amplitude(size: int) -> float:
    return 1.0 / math.sqrt(size)


def build_initial_state(config: Configuration) -> SparseState:
    """Equiponderate superposition of the 2m reasoning-cycle states: every
    amplitude is the real positive 1/sqrt(2m)."""
    states = cycle_states(config)
    amp = _uniform_amplitude(len(states))
    return SparseState(config.m, {idx: complex(amp) for idx in states})


def initial_state_terms(config: Configuration) -> Iterator[tuple[np.ndarray, str]]:
    """The tuples of ``build_initial_state(config)`` with their ranks, as
    (row, rank) pairs in cycle order, without building the state or its 2m
    rows at once.  Each row is its own int32 array of entries, each rank the
    decimal digits of its ``kappa``.

    Eager, on the call: the reasoning walk (which rejects a configuration
    that is not paradoxical), the successor table ``succ`` over the entries
    0..2m with its ``jump = succ - v + 1``, the weights n^(m-i), and the
    first row with its rank through ``kappa``.  So every check runs before
    anything is written.  Lazy, per term: the step recurrence in the module
    docstring, ``row = succ[row]``, with the rank moved by the sum of all
    weights and by ``jump[row[i]] * w_i`` at the (at most three) sentences
    where ``jump[row]`` is nonzero, in a private exact ``decimal`` context
    (the caller's context is untouched).  Working memory is O(m) besides the
    weights, about m^2 log10(2m) / 2 digits in all.
    """
    m = config.m
    n = 2 * m
    cycle, t_true = _cycle_frame(config)
    import numpy as np

    # entry 0 is never in a row: its successor and jump are unused
    succ = np.zeros(n + 1, dtype=cycle.dtype)
    succ[cycle] = np.roll(cycle, -1)
    jump = succ - np.arange(n + 1, dtype=cycle.dtype) + 1
    # n^m has at most m * digits(n) digits: exact, or an exception
    ctx = decimal.Context(
        prec=m * len(str(n)) + 2, traps=[decimal.Inexact, decimal.Rounded]
    )
    weights = [decimal.Decimal(1)]
    total = weights[0]
    for _ in range(m - 1):
        weights.append(ctx.multiply(weights[-1], n))
        total = ctx.add(total, weights[-1])
    weights.reverse()
    step = ctx.minus(total)
    first = _rows(cycle, t_true, 1)
    rank = decimal.Decimal(kappa(tuple(first.tolist())))

    def terms() -> Iterator[tuple[np.ndarray, str]]:
        row, r = first, rank
        yield row, str(r)
        for _ in range(1, n):
            r = ctx.add(r, step)
            for i in np.flatnonzero(jump[row]).tolist():
                r = ctx.add(r, ctx.multiply(int(jump[row[i]]), weights[i]))
            row = succ[row]
            yield row, str(r)

    return terms()


def state_json_chunks(
    config: Configuration, extra: Mapping[str, object] | None = None
) -> Iterator[str]:
    """The text of ``state_to_json(build_initial_state(config), extra=extra)``
    as chunks: the head up to ``"terms": [``, one chunk per term in cycle
    order, then the close.  No trailing newline.

    Every check runs on the call, through ``initial_state_terms``; the terms
    are made as the chunks are consumed.  The head, the shared amplitude
    1/sqrt(2m) and the 2m + 1 entry lines ``",\n        <v>"`` are formatted
    once.  The entry lines sit in a fixed-width bytes table, so a tuple
    listing is one gather from it (``tobytes``, NUL padding removed, leading
    comma dropped), and each term fills one ``%`` template.
    """
    terms = initial_state_terms(config)
    import numpy as np

    n = 2 * config.m
    head, tail = json.dumps(
        {**(extra or {}), "m": config.m, "n": n, "terms": []}, indent=2
    ).split('\n  "terms": []')
    entry = np.array([f",\n        {v}".encode() for v in range(n + 1)])
    term = (
        '    {\n      "tuple": [%s\n      ],\n      "embedded": "%s",'
        f'\n      "re": {json.dumps(_uniform_amplitude(n))},\n      "im": 0.0\n    }}'
    )

    def chunks() -> Iterator[str]:
        yield head + '\n  "terms": ['
        sep = "\n"
        for row, rank in terms:
            listing = np.take(entry, row).tobytes().replace(b"\0", b"")[1:].decode()
            yield sep + term % (listing, rank)
            sep = ",\n"
        yield "\n  ]" + tail

    return chunks()


def state_to_json(state: SparseState, *, extra: Mapping[str, object] | None = None) -> str:
    """``json.dumps(document, indent=2)`` of {**extra, "m", "n", "terms":
    [{"tuple", "embedded", "re", "im"}]}, terms in the state's insertion
    order (cycle order for states built here).  ``extra`` prepends
    additional top-level keys (e.g. a run manifest).

    The embedded index is a decimal string, so consumers limited to 64-bit
    integers survive large m.  This is the byte contract of
    ``state_json_chunks``, written here independently of it, so tests can
    compare the two.
    """
    terms = [
        {"tuple": list(idx), "embedded": decimal_string(kappa(idx)), "re": a.real, "im": a.imag}
        for idx, a in state.amplitudes.items()
    ]
    return json.dumps({**(extra or {}), "m": state.m, "n": state.n, "terms": terms}, indent=2)


def state_from_json(text: str) -> SparseState:
    """Parse the document written by ``state_json_chunks`` (or its reference
    ``state_to_json``), as strictly as ``config_from_json`` parses a
    configuration: ``m``, ``n`` = 2m and every tuple entry are JSON
    integers, ``embedded`` is a string equal to the tuple's rank, ``re`` and
    ``im`` are JSON numbers, and no tuple repeats.
    Nothing is coerced, every fault raises OutOfRange, and unknown keys are
    ignored.
    """
    what = "state document"
    m, n, terms = parse_json_fields(text, what, ("m", "n", "terms"))
    if not (is_json_int(m) and is_json_int(n) and isinstance(terms, list)):
        raise OutOfRange(f"malformed {what}: m and n must be integers, terms a list")
    if n != 2 * m:
        raise OutOfRange(f"malformed {what}: n = {n} is not 2m = {2 * m}")
    amps: dict[TensorIndex, complex] = {}
    for term in terms:
        idx, embedded, re, im = json_fields(term, what, ("tuple", "embedded", "re", "im"))
        if not (isinstance(idx, list) and all(is_json_int(e) for e in idx)):
            raise OutOfRange(f"malformed {what}: tuple {idx!r} is not a list of integers")
        idx = tuple(idx)
        if idx in amps:
            raise OutOfRange(f"malformed {what}: tuple {idx} repeats")
        if not isinstance(embedded, str) or decimal_string(kappa(idx)) != embedded:
            raise OutOfRange(f"term {idx} disagrees with its embedded index {embedded!r}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
            raise OutOfRange(f"malformed {what}: re and im of {idx} must be numbers")
        try:
            amps[idx] = complex(re, im)
        except OverflowError:
            raise OutOfRange(f"malformed {what}: amplitude of {idx} overflows") from None
    return SparseState(m, amps)
