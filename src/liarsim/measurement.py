"""Hypothesis and inference projectors with collapse semantics.

All observables here are diagonal in the product basis: a projector selects
a set of entry values on one sentence's factor and acts as the identity on
every other factor.  They are kept symbolic (sentence, entry set) and
applied by filtering sparse support; the full (2m)^m matrix is never formed.
For each sentence the 2m single-entry projectors are mutually orthogonal
and sum to the identity, which is the completeness requirement the
truth/falsehood-by-inference entries exist to satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import check_int, check_sentence, check_truth_value
from .errors import OutOfRange
from .statespace import SparseState, TensorIndex


@dataclass(frozen=True)
class ProjectorSpec:
    """Diagonal 0/1 projector on the m-sentence space: select ``entry_set``
    on ``sentence``'s factor, identity elsewhere."""

    sentence: int
    entry_set: frozenset[int]
    m: int


def single_entry_projector(sentence: int, entry: int, m: int) -> ProjectorSpec:
    """Rank-one-per-factor projector onto a single entry value, an integer
    in 1..2m (``check_int``)."""
    check_sentence(sentence, m)
    check_int(entry, "entry", 1, 2 * m)
    return ProjectorSpec(sentence, frozenset((entry,)), m)


def hypothesis_projector(sentence: int, value: bool, m: int) -> ProjectorSpec:
    """Projector onto "sentence is true by hypothesis" (entry 2m-1) when
    ``value`` is True, "false by hypothesis" (entry 2m) when it is False."""
    check_truth_value(value)
    check_sentence(sentence, m)  # m is an integer before 2m is formed
    return single_entry_projector(sentence, 2 * m - 1 if value else 2 * m, m)


def inference_projector(sentence: int, entry: int, m: int) -> ProjectorSpec:
    """Projector onto one truth-or-falsehood-by-inference entry.

    Inference entries are 1..2m-2; the two hypothesis entries are excluded.
    """
    check_sentence(sentence, m)  # m is an integer before 2m - 2 is formed
    check_int(entry, "inference entry", 1, 2 * m - 2)
    return single_entry_projector(sentence, entry, m)


def _kept(p: ProjectorSpec, state: SparseState) -> dict[TensorIndex, complex]:
    """The support of ``state`` whose entry on ``p.sentence`` lies in
    ``p.entry_set``.  A projector built for another m is refused."""
    if p.m != state.m:
        raise OutOfRange(f"projector for m = {p.m} applied to a state with m = {state.m}")
    check_sentence(p.sentence, state.m)
    return {
        idx: a
        for idx, a in state.amplitudes.items()
        if idx[p.sentence - 1] in p.entry_set
    }


def projection_probability(state: SparseState, p: ProjectorSpec) -> float:
    """Squared norm of the raw projection of ``state`` by ``p``."""
    return sum(abs(a) ** 2 for a in _kept(p, state).values())


def collapse(
    state: SparseState, p: ProjectorSpec, renormalize: bool = True
) -> tuple[SparseState, float]:
    """Project ``state`` and report the outcome probability.

    The probability is the squared norm of the raw projection.  By default
    the projected state is rescaled back to norm 1; with renormalize=False
    the raw projection is returned unchanged.  A null projection yields the
    null state with probability 0.0 rather than an error.  ``renormalize``
    must be a ``bool`` (``check_truth_value``).
    """
    check_truth_value(renormalize, "renormalize")
    projected = SparseState(state.m, _kept(p, state))
    probability = projected.norm() ** 2
    if probability == 0.0:
        return SparseState(state.m, {}), 0.0
    if renormalize:
        projected = projected.normalized()
    return projected, probability
