"""Self-contained invariant suite behind the ``verify`` command.

Each check exercises one structural promise of the model: closure of the
reasoning cycle, non-degenerate entry occupation, index linearization
round-trips, the canonical eight-sentence reference data and the bytes of
the document that ``state`` streams, the hypothesis indicators at integer
times (``integer-steps``: ``apply_steps``, ``probability_trace`` and
``propagate``, which at an integral tau takes the exact ``apply_steps``
route with no FFT, so that leg checks its dispatch), the unitary group laws,
time invariance of the unreasoned state, projector completeness, and the
minimal-dimension audit.  The continuous propagator at integer times is
checked by ``branch-independence``: exp(t log U_D) in the dense spectral
frame, at every integer t of a period, against the powers of the step
matrix.

The eight-sentence ground truth lives in module constants so a corrupted
copy is observable: the pairing check reads the constants at call time and
must fail if they disagree with the freshly computed state.

``verification_results`` yields each check's result as soon as that check
ends; ``run_verification`` collects them all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .audit import verify_minimality
from .config import (
    Configuration,
    check_int,
    count_paradoxical,
    enumerate_paradoxical,
    eight_liar,
    simple_liar,
)
from .evolution import (
    apply_steps,
    build_evolution,
    frame_operator,
    hamiltonian,
    principal_phases,
    probability_trace,
    propagate,
    propagator,
    step_matrix,
)
from .inference import reasoning_cycle
from .measurement import (
    collapse,
    hypothesis_projector,
    projection_probability,
    single_entry_projector,
)
from .statespace import (
    SparseState,
    TensorIndex,
    build_initial_state,
    cycle_states,
    kappa,
    kappa_inverse,
    state_json_chunks,
    state_to_json,
)

SPECTRAL_TOLERANCE = 1e-10
ADDITIVITY_TOLERANCE = 1e-12
VERIFY_SEED = 20210905

# Canonical reference data for the eight-sentence cycle: the 16 basis tuples
# of the unreasoned state in step order and their embedded linear indices.
CANONICAL_EIGHT_TUPLES: tuple[TensorIndex, ...] = (
    (15, 10, 8, 12, 7, 13, 4, 9),
    (14, 9, 16, 11, 6, 12, 3, 8),
    (13, 8, 7, 10, 5, 11, 2, 16),
    (12, 16, 6, 9, 4, 10, 1, 7),
    (11, 7, 5, 8, 3, 9, 15, 6),
    (10, 6, 4, 16, 2, 8, 14, 5),
    (9, 5, 3, 7, 1, 16, 13, 4),
    (8, 4, 2, 6, 15, 7, 12, 3),
    (16, 3, 1, 5, 14, 6, 11, 2),
    (7, 2, 15, 4, 13, 5, 10, 1),
    (6, 1, 14, 3, 12, 4, 9, 15),
    (5, 15, 13, 2, 11, 3, 8, 14),
    (4, 14, 12, 1, 10, 2, 16, 13),
    (3, 13, 11, 15, 9, 1, 7, 12),
    (2, 12, 10, 14, 8, 15, 6, 11),
    (1, 11, 9, 13, 16, 14, 5, 10),
)
CANONICAL_EIGHT_EMBEDDED: tuple[int, ...] = (
    3917179961,
    3640285992,
    3345566240,
    3210230023,
    2789681382,
    2503940053,
    2217086916,
    1930815155,
    4060403106,
    1642316945,
    1355985807,
    1321312894,
    1034981885,
    749633644,
    463306331,
    177012042,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class CheckFailed(Exception):
    """Raised by a check at the comparison that fails, with its FAIL detail;
    a detail is formatted only on a failure."""


def _within(residuals: Iterable[float], tol: float, what: str) -> str:
    """The detail line of a tolerance check over all its residuals, raised
    unless every one is at most tol.  A NaN residual counts as the worst, so
    it fails and the detail names it."""
    worst = max(residuals, key=lambda x: math.inf if math.isnan(x) else x)
    detail = f"max {what} {worst:.3e}"
    if not worst <= tol:
        raise CheckFailed(detail)
    return detail


def _config_for(m_max: int, sizes=(1, 2, 3, 4, 5, 6, 8)) -> tuple[Configuration, ...]:
    """The configuration of each size up to m_max that the checks use."""
    return tuple(
        eight_liar() if m == 8 else simple_liar(m)
        for m in sizes
        if m <= m_max
    )


def _counting(m_max: int, rng) -> str:
    counts = []
    for m in range(1, min(m_max, 5) + 1):
        expected = count_paradoxical(m)
        found = sum(1 for _ in enumerate_paradoxical(m))
        if found != expected:
            raise CheckFailed(f"m={m}: enumerated {found}, counted {expected}")
        counts.append(expected)
    # the closed form against (m-1)! cycles times the odd-size negation sets
    for m in range(1, 21):
        odd = sum(math.comb(m, k) for k in range(1, m + 1, 2))
        if count_paradoxical(m) != math.factorial(m - 1) * odd:
            raise CheckFailed(f"closed form mismatch at m={m}")
    return f"enumerated {counts}, closed form to m=20"


def _cycle_closure(m_max: int, rng) -> str:
    configs = _config_for(m_max)
    for config in configs:
        m = config.m
        for start_value in (True, False):
            walk = reasoning_cycle(config, 1, start_value)
            # 2m distinct hypotheses over m sentences: each once with each value
            if len(walk.positions) != 2 * m:
                raise CheckFailed(f"m={m}: {len(walk.positions)} distinct hypotheses")
            for i in range(1, m + 1):
                if (walk.step_of(i, False) - walk.step_of(i, True)) % (2 * m) != m:
                    raise CheckFailed(f"m={m}: sentence {i} values not m steps apart")
    return f"{len(configs)} configs, both starts"


def _no_degenerescence(m_max: int, rng) -> str:
    pool = list(_config_for(m_max))
    for m in range(2, min(m_max, 5) + 1):
        enumerated = list(enumerate_paradoxical(m))
        take = min(len(enumerated), 6)
        picks = rng.sample(range(len(enumerated)), take)
        pool.extend(enumerated[k] for k in picks)
    for config in pool:
        m = config.m
        for i, column in enumerate(zip(*cycle_states(config)), start=1):
            if sorted(column) != list(range(1, 2 * m + 1)):
                raise CheckFailed(f"m={m}: sentence {i} entries {sorted(column)}")
    return f"{len(pool)} configs, all columns full"


def _kappa_roundtrip(m_max: int, rng) -> str:
    trials = 0
    for m in range(1, m_max + 1):
        n = 2 * m
        for _ in range(200):
            idx = tuple(rng.choices(range(1, n + 1), k=m))
            e = kappa(idx)
            if not (1 <= e <= n**m and kappa_inverse(e, m) == idx):
                raise CheckFailed(f"failed at m={m}, {idx}")
            trials += 1
    return f"{trials} random tuples, m 1..{m_max}"


def _canonical_pairing(m_max: int, rng) -> str:
    """The eight-liar's cycle states and ranks against the record, and the
    document that ``state`` streams, byte for byte, against its reference
    ``state_to_json``, which writes ``json.dumps`` of ``build_initial_state``."""
    states = cycle_states(eight_liar())
    if states != CANONICAL_EIGHT_TUPLES:
        raise CheckFailed("state tuples differ from record")
    if tuple(map(kappa, states)) != CANONICAL_EIGHT_EMBEDDED:
        raise CheckFailed("embedded indices differ from record")
    for config in _config_for(m_max):
        if "".join(state_json_chunks(config)) != state_to_json(build_initial_state(config)):
            raise CheckFailed(f"m={config.m}: state document differs from state_to_json")
    return "16 tuples and embeddings match record"


def _integer_steps(m_max: int, rng) -> str:
    for config in _config_for(m_max):
        m = config.m
        period = 2 * m
        ev = build_evolution(config)
        cycle = reasoning_cycle(config, 1, True)
        psi0 = build_initial_state(config)
        projectors = {
            (j, v): hypothesis_projector(j, v, m)
            for j in range(1, m + 1)
            for v in (True, False)
        }
        for start_value in (True, False):
            state, _ = collapse(psi0, projectors[1, start_value])
            t0 = cycle.step_of(1, start_value)
            # the shipped trace route, at every integer time at once
            traced = probability_trace(config, (1, start_value), range(period + 1))
            for t in range(0, period + 1):
                expect = cycle.hypothesis_at(t0 + t)
                stepped = apply_steps(ev, state, t)
                smooth = propagate(ev, state, float(t))
                for j in range(1, m + 1):
                    row = traced[t * m + j - 1]
                    for v in (True, False):
                        want = 1.0 if (j, v) == expect else 0.0
                        proj = projectors[j, v]
                        stepped_p = projection_probability(stepped, proj)
                        smooth_p = projection_probability(smooth, proj)
                        for label, p, tol in (
                            ("stepped", stepped_p, ADDITIVITY_TOLERANCE),
                            ("smooth", smooth_p, SPECTRAL_TOLERANCE),
                            ("traced", row.p_true if v else row.p_false, 0.0),  # exact
                        ):
                            if not abs(p - want) <= tol:
                                raise CheckFailed(
                                    f"m={m} t={t} ({j},{v}): {label} {p}, want {want}"
                                )
    return "hypothesis indicators match the cycle"


def _spectral(m_max: int, rng) -> str:
    """The dense frame's group laws, and the shipped routes against it: the
    circulant ``propagate`` of the start basis state against the column of
    U(tau), and a ``probability_trace`` at the same tau against |U(tau)|^2
    at each hypothesis."""
    import numpy as np

    residuals = []
    for config in _config_for(m_max, (1, 2, 3, 8)):
        m = config.m
        ev = build_evolution(config)
        u_d = step_matrix(ev)
        eye = np.eye(ev.size)
        residuals.append(np.abs(propagator(ev, 1.0) - u_d).max())
        h = hamiltonian(ev)
        residuals.append(np.abs(h - h.conj().T).max())
        # the start hypothesis (1, True) is step 1 of the walk: position 0
        start = SparseState(m, {ev.basis[0]: 1.0})
        taus, columns = [], []
        for _ in range(25):
            tau = rng.uniform(-4 * m, 4 * m)
            sigma = rng.uniform(-4 * m, 4 * m)
            u_tau = propagator(ev, tau)
            residuals.append(np.abs(u_tau @ u_tau.conj().T - eye).max())
            residual = u_tau @ propagator(ev, sigma) - propagator(ev, tau + sigma)
            residuals.append(np.abs(residual).max())
            moved = propagate(ev, start, tau)
            column = np.array([moved.amplitude(idx) for idx in ev.basis])
            residuals.append(np.abs(column - u_tau[:, 0]).max())
            taus.append(tau)
            columns.append(u_tau[:, 0])
        walk = reasoning_cycle(config)
        hypotheses = [walk.step_of(i, v) - 1 for i in range(1, m + 1) for v in (True, False)]
        traced = probability_trace(config, (1, True), taus)
        p = np.array([(r.p_true, r.p_false) for r in traced]).reshape(len(taus), -1)
        residuals.append(np.abs(p - np.abs(np.array(columns)[:, hypotheses]) ** 2).max())
    return _within(residuals, SPECTRAL_TOLERANCE, "residual")


def _initial_state_invariance(m_max: int, rng) -> str:
    residuals = []
    for config in _config_for(m_max):
        ev = build_evolution(config)
        psi0 = build_initial_state(config)
        for _ in range(25):
            tau = rng.uniform(-8 * config.m, 8 * config.m)
            moved = propagate(ev, psi0, tau)
            delta = sum(
                abs(moved.amplitude(idx) - psi0.amplitude(idx)) ** 2 for idx in ev.basis
            )
            residuals.append(delta**0.5)
    return _within(residuals, SPECTRAL_TOLERANCE, "deviation")


def _completeness(m_max: int, rng) -> str:
    residuals = []
    for config in _config_for(m_max):
        m = config.m
        entries = range(1, 2 * m + 1)
        singles = [{j} for j in entries]
        partitions = []
        for i in range(1, m + 1):
            # each of a sentence's 2m projectors keeps its own entry: a partition
            partition = [single_entry_projector(i, j, m) for j in entries]
            if [p.entry_set for p in partition] != singles:
                raise CheckFailed(f"m={m}: sentence {i} projectors are not a partition")
            partitions.append(partition)
        ev = build_evolution(config)
        psi0 = build_initial_state(config)
        state, _ = collapse(psi0, hypothesis_projector(1, True, m))
        for _ in range(10):
            tau = rng.uniform(0, 4 * m)
            phi = propagate(ev, state, tau)
            for partition in partitions:
                total = sum(projection_probability(phi, p) for p in partition)
                residuals.append(abs(total - 1.0))
    return _within(residuals, ADDITIVITY_TOLERANCE, "additivity defect")


def _branch_independence(m_max: int, rng) -> str:
    import numpy as np

    for config in _config_for(m_max, (1, 2, 3, 8)):
        m = config.m
        ev = build_evolution(config)
        size = ev.size
        theta = principal_phases(size)
        flipped = np.where(np.abs(np.abs(theta) - np.pi) < 1e-12, -theta, theta)
        u_d = step_matrix(ev)
        power = np.eye(size)
        for t in range(0, size + 1):
            alt = frame_operator(size, np.exp(1j * flipped * t))
            if not np.abs(alt - power).max() <= SPECTRAL_TOLERANCE:
                raise CheckFailed(f"m={m}: integer step t={t} differs")
            power = u_d @ power
        half = frame_operator(size, np.exp(1j * flipped * 0.5))
        if not np.abs(half - propagator(ev, 0.5)).max() > SPECTRAL_TOLERANCE:
            raise CheckFailed(f"m={m}: branch flip had no effect")
    return "integer steps branch-free, half steps branch-bound"


def _dimension_audit(m_max: int, rng) -> str:
    for m in range(2, min(m_max, 4) + 1):
        report = verify_minimality(m)
        if not report.passed:
            raise CheckFailed(f"m={m} report failed")
        product = report.contradiction.witness.violated_zero_product
        if product != f"tau[1,1]*alpha({','.join(['1'] * (m - 1))},2) = 0":
            raise CheckFailed(f"m={m}: unexpected witness {product}")
    return "m=2..4 minimal dimension confirmed"


# The suite in report order, which is also the order in which the checks
# draw from the one random.Random(VERIFY_SEED) stream: reordering changes
# sampled details.
CHECKS = (
    ("counting", _counting),
    ("cycle-closure", _cycle_closure),
    ("no-degenerescence", _no_degenerescence),
    ("kappa-roundtrip", _kappa_roundtrip),
    ("canonical-pairing", _canonical_pairing),
    ("integer-steps", _integer_steps),
    ("spectral", _spectral),
    ("initial-state-invariance", _initial_state_invariance),
    ("completeness", _completeness),
    ("branch-independence", _branch_independence),
    ("dimension-audit", _dimension_audit),
)


def verification_results(m_max: int = 8) -> Iterator[CheckResult]:
    """The result of each check of CHECKS up to configuration size m_max, in
    order, each yielded as soon as its check returns or fails.

    ``m_max`` is checked on the call; the checks run as the results are
    consumed.  They draw their samples from one
    ``random.Random(VERIFY_SEED)``, so the results are reproducible, the
    global ``random`` state is left alone and ``numpy.random`` is never
    loaded.
    """
    check_int(m_max, "verification m_max", 1, 8)
    rng = random.Random(VERIFY_SEED)

    def results() -> Iterator[CheckResult]:
        for name, check in CHECKS:
            try:
                result = CheckResult(name, True, check(m_max, rng))
            except CheckFailed as exc:
                result = CheckResult(name, False, str(exc))
            yield result

    return results()


def run_verification(m_max: int = 8) -> tuple[CheckResult, ...]:
    """Run every check of CHECKS up to configuration size m_max, in order:
    all of ``verification_results(m_max)``."""
    return tuple(verification_results(m_max))
