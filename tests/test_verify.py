import dataclasses
import math
import random
import re

import numpy as np
import pytest

import liarsim.evolution as evolution
import liarsim.statespace as statespace
import liarsim.verify as verify_mod
from liarsim import OutOfRange, SparseState
from liarsim.audit import MinimalityReport, solve_constraints
from liarsim.inference import HypothesisStep, ReasoningCycle
from liarsim.measurement import ProjectorSpec
from liarsim.verify import run_verification


def test_suite_passes_at_small_sizes():
    results = run_verification(3)
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "cycle-closure" in names
    assert "dimension-audit" in names


def test_suite_passes_at_full_size():
    results = run_verification(8)
    assert all(r.passed for r in results)
    assert len(results) == len({r.name for r in results})


def test_m_max_bounds():
    with pytest.raises(OutOfRange):
        run_verification(0)
    with pytest.raises(OutOfRange):
        run_verification(9)


def test_verification_results_checks_m_max_on_the_call():
    # the generator is never iterated: the check runs before any result
    with pytest.raises(OutOfRange):
        verify_mod.verification_results(9)


def test_verification_results_are_the_results_of_run_verification():
    assert tuple(verify_mod.verification_results(8)) == run_verification(8)


def test_corrupted_reference_is_caught(monkeypatch):
    # negative control: break one frozen embedded index and the pairing
    # check must fail while the structural checks keep passing
    bad = list(verify_mod.CANONICAL_EIGHT_EMBEDDED)
    bad[5] += 1
    monkeypatch.setattr(verify_mod, "CANONICAL_EIGHT_EMBEDDED", tuple(bad))
    results = {r.name: r for r in run_verification(8)}
    assert not results["canonical-pairing"].passed
    assert results["kappa-roundtrip"].passed
    assert results["spectral"].passed


def test_corrupted_tuples_are_caught(monkeypatch):
    bad = list(verify_mod.CANONICAL_EIGHT_TUPLES)
    bad[0] = (1,) * 8
    monkeypatch.setattr(verify_mod, "CANONICAL_EIGHT_TUPLES", tuple(bad))
    results = {r.name: r for r in run_verification(8)}
    assert not results["canonical-pairing"].passed


def test_results_are_reproducible():
    first = run_verification(4)
    second = run_verification(4)
    assert first == second


def test_verification_leaves_the_global_random_state_alone():
    # the checks draw from their own seeded random.Random, never the module's
    before = random.getstate()
    run_verification(8)
    assert random.getstate() == before


@pytest.mark.parametrize("m_max", [1, 4, 8])
@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in verify_mod.CHECKS]
)
def test_each_check_passes_on_its_own(check, m_max):
    detail = check(m_max, random.Random(verify_mod.VERIFY_SEED))
    assert isinstance(detail, str) and detail


def test_results_follow_the_table_order():
    names = [r.name for r in run_verification(8)]
    assert names == [name for name, _ in verify_mod.CHECKS]
    assert len(names) == len(set(names))


def _failed(name):
    results = {r.name: r for r in run_verification(8)}
    assert not all(r.passed for r in results.values())
    assert not results[name].passed
    return results[name].detail


def test_counting_mismatch_is_caught(monkeypatch):
    real = verify_mod.count_paradoxical
    monkeypatch.setattr(verify_mod, "count_paradoxical", lambda m: real(m) + (m == 3))
    assert _failed("counting") == f"m=3: enumerated {real(3)}, counted {real(3) + 1}"
    # below m = 3 nothing is enumerated there, so the closed form catches it
    counting = {r.name: r for r in run_verification(2)}["counting"]
    assert (counting.passed, counting.detail) == (False, "closed form mismatch at m=3")


def test_spectral_perturbation_is_caught(monkeypatch):
    # a 1e-9 shift of every propagator entry is ten times the tolerance
    real = verify_mod.propagator
    monkeypatch.setattr(verify_mod, "propagator", lambda ev, tau: real(ev, tau) + 1e-9)
    # through _within: the detail is the usual max line, now over tolerance
    detail = _failed("spectral")
    assert re.fullmatch(r"max residual \d\.\d{3}e-\d\d", detail)
    assert 1e-9 <= float(detail.split()[-1]) < 1e-8


def test_dimension_audit_failure_is_caught(monkeypatch):
    # a report whose reduced branch is solvable has no contradiction
    def solvable_below(m):
        sat = solve_constraints(m, 2 * m)
        return MinimalityReport(m, sat, sat)

    monkeypatch.setattr(verify_mod, "verify_minimality", solvable_below)
    assert _failed("dimension-audit") == "m=2 report failed"


def _nan_propagator(ev, tau):
    return evolution.propagator(ev, tau) * math.nan


def _nan_propagate(ev, state, tau):
    return SparseState(state.m, {idx: complex(math.nan) for idx in ev.basis})


@pytest.mark.parametrize(
    "name, target, fake, what",
    [
        ("spectral", "propagator", _nan_propagator, "residual"),
        ("initial-state-invariance", "propagate", _nan_propagate, "deviation"),
        ("completeness", "propagate", _nan_propagate, "additivity defect"),
    ],
)
def test_nan_residual_fails(monkeypatch, name, target, fake, what):
    # max(worst, nan) keeps worst, so a fold of residuals by max passed these
    monkeypatch.setattr(verify_mod, target, fake)
    assert _failed(name) == f"max {what} nan"


def _results_with(monkeypatch, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    return {r.name: r.passed for r in run_verification(8)}


def test_wrong_trace_displacement_is_caught(monkeypatch):
    # the shipped kernel with x = tau + d instead of tau - d
    real = evolution._cycle_kernel
    passed = _results_with(
        monkeypatch, evolution, "_cycle_kernel", lambda key, d, size: real(key, -d, size)
    )
    assert not passed["integer-steps"] and not passed["spectral"]


def test_off_integer_trace_scaling_is_caught(monkeypatch):
    # right at every integer time, 0.1% high between them
    real = evolution._cycle_kernel

    def scaled(key, d, size):
        return real(key, d, size) * np.where(key.real == 0, 1.0, 1.001)[:, None]

    passed = _results_with(monkeypatch, evolution, "_cycle_kernel", scaled)
    assert passed["integer-steps"] and not passed["spectral"]
    assert sum(not ok for ok in passed.values()) == 1


def test_conjugated_propagate_is_caught(monkeypatch):
    # U(-tau) in place of U(tau): every probability is unchanged, so only
    # the comparison of amplitudes with the dense column can see it
    def conjugated(ev, state, tau):
        moved = evolution.propagate(ev, state, tau)
        return SparseState(moved.m, {k: a.conjugate() for k, a in moved.amplitudes.items()})

    passed = _results_with(monkeypatch, verify_mod, "propagate", conjugated)
    assert not passed["spectral"]
    assert sum(not ok for ok in passed.values()) == 1


def _raises_check_failed(check, m_max=8):
    with pytest.raises(verify_mod.CheckFailed) as failure:
        check(m_max, random.Random(verify_mod.VERIFY_SEED))
    return str(failure.value)


def test_repeated_hypothesis_fails_cycle_closure(monkeypatch):
    # the last step repeats the first hypothesis; called directly, because
    # the walk's missing hypothesis would crash the checks that look it up
    real = verify_mod.reasoning_cycle

    def repeating(config, start_sentence=1, start_value=True):
        walk = real(config, start_sentence, start_value)
        first, last = walk.steps[0], walk.steps[-1]
        repeat = HypothesisStep(last.step, first.sentence, first.value)
        return ReasoningCycle(walk.m, walk.steps[:-1] + (repeat,))

    monkeypatch.setattr(verify_mod, "reasoning_cycle", repeating)
    _raises_check_failed(verify_mod._cycle_closure)


def test_duplicated_cycle_state_fails_no_degenerescence(monkeypatch):
    real = verify_mod.cycle_states
    monkeypatch.setattr(
        verify_mod, "cycle_states", lambda config: (real(config)[0],) + real(config)[:-1]
    )
    _failed("no-degenerescence")


def test_wrong_kappa_inverse_fails_kappa_roundtrip(monkeypatch):
    # wrong at m = 5 only: the first entry moves on by one
    real = verify_mod.kappa_inverse

    def wrong_at_five(e, m):
        idx = real(e, m)
        return idx if m != 5 else (idx[0] % (2 * m) + 1,) + idx[1:]

    monkeypatch.setattr(verify_mod, "kappa_inverse", wrong_at_five)
    assert _failed("kappa-roundtrip").startswith("failed at m=5, ")
    assert all(r.passed for r in run_verification(4))


def test_overlapping_projectors_fail_completeness(monkeypatch):
    # each projector keeps {j, j+1}: the partition half fails before the
    # sampled sums, which this fault also breaks, are reached
    monkeypatch.setattr(
        verify_mod,
        "single_entry_projector",
        lambda i, j, m: ProjectorSpec(i, frozenset((j, j + 1)), m),
    )
    detail = _raises_check_failed(verify_mod._completeness)
    assert detail.startswith("m=1: ") and "additivity" not in detail


def test_minus_pi_branch_fails_branch_independence(monkeypatch):
    # the -1 eigenvalue given phase -pi instead of +pi
    real = verify_mod.principal_phases
    monkeypatch.setattr(
        verify_mod,
        "principal_phases",
        lambda size: np.where(real(size) == np.pi, -np.pi, real(size)),
    )
    assert _failed("branch-independence") == "m=1: branch flip had no effect"


def _third_rank_one_too_high(terms):
    if len(terms) > 2:  # m = 1 has two terms
        row, rank = terms[2]
        terms[2] = (row, str(int(rank) + 1))


def _two_rows_swapped(terms):
    (a, rank_a), (b, rank_b) = terms[0], terms[1]
    terms[0], terms[1] = (b, rank_a), (a, rank_b)


@pytest.mark.parametrize("edit", [_third_rank_one_too_high, _two_rows_swapped])
def test_a_wrong_state_stream_fails_canonical_pairing_only(monkeypatch, edit):
    # the stream behind state_json_chunks, whose bytes canonical-pairing reads
    real = statespace.initial_state_terms

    def edited(config):
        terms = list(real(config))
        edit(terms)
        return iter(terms)

    passed = _results_with(monkeypatch, statespace, "initial_state_terms", edited)
    assert not passed["canonical-pairing"]
    assert sum(not ok for ok in passed.values()) == 1


def _amplitude_digit_changed(text):
    # the last digit of the shared amplitude 1/sqrt(2m), in every term
    return re.sub(r'\d(?=,\n +"im")', lambda d: str((int(d[0]) + 1) % 10), text)


def _head_byte_changed(text):
    return text.replace('"n":', '"N":', 1)


@pytest.mark.parametrize("edit", [_amplitude_digit_changed, _head_byte_changed])
def test_a_wrong_state_document_fails_canonical_pairing_only(monkeypatch, edit):
    # rows and ranks are untouched, so only a comparison of the bytes sees it
    real = verify_mod.state_json_chunks

    def edited(config, extra=None):
        text = "".join(real(config, extra))
        assert edit(text) != text
        return iter([edit(text)])

    passed = _results_with(monkeypatch, verify_mod, "state_json_chunks", edited)
    assert not passed["canonical-pairing"]
    assert sum(not ok for ok in passed.values()) == 1


def test_values_not_m_steps_apart_fail_cycle_closure(monkeypatch):
    # the first two hypotheses trade steps: still 2m distinct, but at m = 2
    # sentence 1 is hypothesized false one step after true, not two; called
    # directly, because the moved hypotheses would fail later checks too
    real = verify_mod.reasoning_cycle

    def traded(config, start_sentence=1, start_value=True):
        walk = real(config, start_sentence, start_value)
        a, b, *rest = walk.steps
        traded = (
            HypothesisStep(a.step, b.sentence, b.value),
            HypothesisStep(b.step, a.sentence, a.value),
        )
        return ReasoningCycle(walk.m, traded + tuple(rest))

    monkeypatch.setattr(verify_mod, "reasoning_cycle", traded)
    detail = _raises_check_failed(verify_mod._cycle_closure)
    assert detail == "m=2: sentence 1 values not m steps apart"


def test_wrong_integer_step_fails_branch_independence(monkeypatch):
    # every eigenphase halved: the step at t = 1 is already a different operator
    real = verify_mod.principal_phases
    monkeypatch.setattr(verify_mod, "principal_phases", lambda size: real(size) / 2)
    assert _failed("branch-independence") == "m=1: integer step t=1 differs"


def test_unexpected_witness_fails_dimension_audit(monkeypatch):
    # a report that passes, but whose contradiction rests on another product
    real = verify_mod.verify_minimality

    def other_witness(m):
        report = real(m)
        witness = dataclasses.replace(
            report.contradiction.witness, violated_zero_product="tau[1,1]*alpha(2,1) = 0"
        )
        contradiction = dataclasses.replace(report.contradiction, witness=witness)
        return dataclasses.replace(report, contradiction=contradiction)

    monkeypatch.setattr(verify_mod, "verify_minimality", other_witness)
    assert _failed("dimension-audit") == "m=2: unexpected witness tau[1,1]*alpha(2,1) = 0"
