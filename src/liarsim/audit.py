"""Symbolic audit of the minimal per-sentence dimension.

The reasoning model needs each sentence subspace to hold 2m entries.  The
argument is a small constraint system: demand that each sentence's truth
hypothesis projector and falsehood hypothesis projector map the initial
superposition onto a single prescribed basis tuple with a strictly positive
outcome coefficient.  That is 2m operator equations.  With n = 2m entries
per sentence the equations admit exactly one solution; with n = 2m - 1 one
falsehood target must reuse entries already claimed elsewhere, and three
derived facts collide.

The audit never touches all n^m amplitudes.  Projector coefficients are
binary (a diagonal projector either keeps an entry or kills it) and outcome
coefficients are carried as opaque positive symbols, so every scalar
component equation is a product of at most two unknowns.  Propagation needs
only the operators' targets, each an anchor with a positive amplitude, so the
solver walks (operator, target) pairs and forces coefficients, never an
amplitude, to 0.  Contradiction is therefore exact, not a numerical judgement.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping

from .config import check_int, check_sentence_count, quote
from .errors import OutOfRange, UnsupportedDimension
from .statespace import TensorIndex

AUDIT_BOUND = 4


def _operator_targets(m: int, n: int) -> tuple[tuple[str, int, TensorIndex, str], ...]:
    """The 2m operators as (family, sentence, target, outcome): "tau" truth
    operators by sentence, then "phi" falsehood operators by sentence, for
    the sentence count m and the sentence dimension n, an integer
    (``check_int``) that must be 2m or 2m - 1."""
    check_sentence_count(m)
    if check_int(n, "dimension n") not in (2 * m, 2 * m - 1):
        raise UnsupportedDimension(
            f"audit covers n = 2m and n = 2m-1 only, got n={quote(n)} for m={m}"
        )
    if n == 2 * m - 1 and m < 2:
        raise OutOfRange("the reduced-dimension system needs m >= 2 distinct entries")
    tau = [("tau", i, (i,) * m, f"t{i}") for i in range(1, m + 1)]
    # Falsehood target i is entry m + i throughout.  At n = 2m - 1 entry 2m
    # does not exist, so the last one is forced back onto low entries already
    # used by the truth targets.
    phi = [
        ("phi", i, (m + i,) * m if m + i <= n else (1,) * (m - 1) + (2,), f"f{i}")
        for i in range(1, m + 1)
    ]
    return tuple(tau + phi)


@dataclass(frozen=True)
class Satisfiable:
    """Unique assignment satisfying every operator equation."""

    m: int
    n: int
    coefficients: Mapping[str, int]
    amplitudes: Mapping[TensorIndex, str]
    transcript: tuple[str, ...]


@dataclass(frozen=True)
class ContradictionWitness:
    """The three derived facts that cannot hold together: an amplitude
    pinned to a positive symbol, a coefficient pinned to one, and the zero
    product of exactly those two unknowns."""

    nonzero_amplitude: str
    unit_coefficient: str
    violated_zero_product: str


@dataclass(frozen=True)
class Contradiction:
    m: int
    n: int
    witness: ContradictionWitness
    transcript: tuple[str, ...]


def solve_constraints(m: int, n: int) -> Satisfiable | Contradiction:
    """Propagate the operator equations to a verdict.

    Each anchor (an operator's own target) pins its coefficient to 1 and its
    amplitude to a positive symbol (a product of binary-by-construction
    coefficients can only reach a positive value with both factors live).
    Every target is an anchor, so a zero product, operator first and other
    target second, forces only its coefficient to 0, never an amplitude, and
    a coefficient already pinned to 1 stops the derivation with that product
    and the two facts behind it as the witness.
    """
    ops = _operator_targets(m, n)
    alpha = {t: "alpha(" + ",".join(str(x) for x in t) + ")" for _, _, t, _ in ops}
    coeff: dict[str, int] = {}
    amp = {t: outcome for _, _, t, outcome in ops}
    anchor_fact: dict[TensorIndex, str] = {}
    transcript = []

    for family, i, target, outcome in ops:
        name = f"{family}[{target[i - 1]},{i}]"
        coeff[name] = 1
        fact = f"{name} = 1 and {alpha[target]} = {outcome} > 0"
        anchor_fact[target] = fact
        transcript.append(f"anchor: {fact}")

    for family, i, own_target, _ in ops:
        for _, _, target, _ in ops:
            if target == own_target:
                continue
            name = f"{family}[{target[i - 1]},{i}]"
            product = f"{name}*{alpha[target]}"
            cval = coeff.get(name)
            if cval == 1:
                witness = ContradictionWitness(
                    nonzero_amplitude=anchor_fact[target],
                    unit_coefficient=f"{name} = 1",
                    violated_zero_product=f"{product} = 0",
                )
                transcript.append(
                    f"violated: {product} = 0 while {witness.unit_coefficient}"
                    f" and {witness.nonzero_amplitude}"
                )
                return Contradiction(m, n, witness, tuple(transcript))
            if cval is None:
                coeff[name] = 0
                transcript.append(
                    f"zero product {product} = 0 with {amp[target]} > 0, so {name} = 0"
                )
            # a product whose coefficient is already pinned to zero holds as is

    return Satisfiable(m, n, dict(coeff), dict(amp), tuple(transcript))


@dataclass(frozen=True)
class MinimalityReport:
    """Joint verdict: solvable at n = 2m, contradictory one entry below."""

    m: int
    satisfiable: Satisfiable | Contradiction
    contradiction: Satisfiable | Contradiction

    @property
    def passed(self) -> bool:
        return isinstance(self.satisfiable, Satisfiable) and isinstance(
            self.contradiction, Contradiction
        )


def verify_minimality(m: int) -> MinimalityReport:
    """Run both branches of the audit for one m in 2..AUDIT_BOUND
    (``check_int``) and report the verdicts."""
    check_int(m, "audit sentence count", 2, AUDIT_BOUND)
    return MinimalityReport(
        m=m,
        satisfiable=solve_constraints(m, 2 * m),
        contradiction=solve_constraints(m, 2 * m - 1),
    )


def report_to_json(report: MinimalityReport) -> str:
    """Machine-readable PASS/FAIL summary of a minimality report."""
    doc: dict[str, object] = {
        "m": report.m,
        "n_satisfiable": 2 * report.m,
        "n_contradictory": 2 * report.m - 1,
        "passed": report.passed,
    }
    if isinstance(report.contradiction, Contradiction):
        doc["witness"] = asdict(report.contradiction.witness)
    return json.dumps(doc, indent=2)
