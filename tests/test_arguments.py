"""Library arguments: a value of the wrong type in an integer or truth-value
slot raises OutOfRange with a one-line message, never a TypeError, a
KeyError or an IndexError, and is never coerced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liarsim import (
    OutOfRange,
    SparseState,
    apply_steps,
    build_evolution,
    build_initial_state,
    count_paradoxical,
    eight_liar,
    enumerate_paradoxical,
    hypothesis_projector,
    inference_projector,
    kappa,
    kappa_inverse,
    one_liar,
    probability_trace,
    reasoning_cycle,
    simple_liar,
    single_entry_projector,
    verify_minimality,
)
from liarsim.audit import solve_constraints
from liarsim.evolution import (
    TraceRow,
    grid_size,
    time_grid,
    trace_csv_chunks,
    trace_to_csv,
)
from liarsim.inference import infer_next
from liarsim.statespace import canonical_entry_cycle
from liarsim.verify import run_verification

EV = build_evolution(one_liar())
PSI0 = build_initial_state(one_liar())
WALK = reasoning_cycle(eight_liar())

# name -> (call, valid arguments, slot kinds): "i" an integer slot, "b" a
# truth-value slot.  Nested slots (tuple entries, a start hypothesis, a
# sentence list) are flattened into the call's arguments.
CALLS = {
    "count_paradoxical": (count_paradoxical, (3,), "i"),
    "enumerate_paradoxical": (lambda m: next(enumerate_paradoxical(m)), (3,), "i"),
    "simple_liar": (simple_liar, (3,), "i"),
    "canonical_entry_cycle": (canonical_entry_cycle, (3,), "i"),
    "solve_constraints": (solve_constraints, (2, 4), "ii"),
    "verify_minimality": (verify_minimality, (2,), "i"),
    "run_verification": (run_verification, (1,), "i"),
    "SparseState": (lambda m, e: SparseState(m, {(e, 1): 1.0}), (2, 3), "ii"),
    "kappa": (lambda a, b: kappa((a, b)), (1, 2), "ii"),
    "kappa_inverse": (kappa_inverse, (2, 2), "ii"),
    "single_entry_projector": (single_entry_projector, (1, 2, 2), "iii"),
    "hypothesis_projector": (hypothesis_projector, (1, True, 2), "ibi"),
    "inference_projector": (inference_projector, (1, 1, 2), "iii"),
    "apply_steps": (lambda count: apply_steps(EV, PSI0, count), (1,), "i"),
    "reasoning_cycle": (lambda s, v: reasoning_cycle(eight_liar(), s, v), (1, True), "ib"),
    "step_of": (WALK.step_of, (1, True), "ib"),
    "infer_next": (lambda s, v: infer_next(eight_liar(), s, v), (1, True), "ib"),
    "probability_trace": (
        lambda s, v, a, b, r: probability_trace(
            eight_liar(), (s, v), [0.5], sentences=[a, b], renormalize=r
        ),
        (1, True, 1, 2, True),
        "ibiib",
    ),
    "trace_csv_chunks": (
        lambda s, v, a, p, r: trace_csv_chunks(
            eight_liar(), (s, v), 0.5, 0.5, sentences=[a], precision=p, renormalize=r
        ),
        (1, True, 1, 12, False),
        "ibiib",
    ),
    "hypothesis_at": (WALK.hypothesis_at, (1,), "i"),
    "trace_to_csv": (
        lambda s, p: trace_to_csv([TraceRow(0.0, s, 1.0, 0.0)], precision=p),
        (1, 12),
        "ii",
    ),
}

NOT_AN_INT = st.one_of(
    st.floats(),
    st.integers(-3, 10).map(float),  # integral floats such as 2.0
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.integers(-3, 10).map(np.int64),
    st.integers(-3, 10).map(np.int32),
)
NOT_A_BOOL = st.one_of(
    st.floats(),
    st.integers(-2, 3),
    st.text(max_size=3),
    st.none(),
    st.booleans().map(np.bool_),
    st.integers(0, 1).map(np.int64),
)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_accepts_its_valid_arguments(name):
    # so the fuzz below fails only through the slot it spoils
    call, args, _ = CALLS[name]
    call(*args)


def _one_line_out_of_range(call, *args):
    with pytest.raises(OutOfRange) as failure:
        call(*args)
    message = str(failure.value)
    assert len(message.splitlines()) == 1, message
    return message


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_library_argument_fuzz_raises_out_of_range_never_a_type_error(data):
    name = data.draw(st.sampled_from(sorted(CALLS)))
    call, args, kinds = CALLS[name]
    spoiled = data.draw(
        st.lists(st.integers(0, len(args) - 1), min_size=1, max_size=len(args), unique=True)
    )
    args = list(args)
    for k in spoiled:
        args[k] = data.draw(NOT_AN_INT if kinds[k] == "i" else NOT_A_BOOL)
    _one_line_out_of_range(call, *args)


# The library misuses that ended in a traceback or in a result: the first
# three through inference, then the other integer arguments (a
# trace_csv_chunks precision raised only after the header was yielded, and
# trace_to_csv wrote sentence 1.5 as 1), then probability_trace times that
# are not one-dimensional real numbers ([[0.5]] gave no rows, [[0.5, 1.0]]
# an IndexError, "x" a ValueError, 0.5j a TypeError, "0.5" and True a row,
# and an integer past the float range an OverflowError), then integer grid
# bounds and time scales past the float range (an OverflowError each), then
# a start hypothesis that is not a pair (5 a TypeError, "1:T" a ValueError
# from unpacking it) and grid bounds and time scales that are not real
# numbers (a str a TypeError, True taken as 1), then a renormalize flag that
# is not a bool (taken by its truth) and header lines that are one str (a
# comment line per character) or hold a line that is not a str.
TIMES = "times must be a one-dimensional sequence of real numbers"
HUGE_TIME = "evolution time must be finite, got one too large for a float"
HUGE_GRID = "t_max and dt must be finite, got one too large for a float"
HUGE_SCALE = "time scale must be finite, got one too large for a float"
PAIR = "initial measurement must be a (sentence, truth value) pair, got "
HEADER_STR = "trace header lines must be a sequence of str, got the str 'ab'"


@pytest.mark.parametrize(
    "call, args, message",
    [
        (reasoning_cycle, (eight_liar(), 1.5, True), "sentence 1.5 outside 1..8"),
        (reasoning_cycle, (eight_liar(), "1", True), "sentence '1' outside 1..8"),
        (probability_trace, (eight_liar(), (True, True), [0.5]), "sentence True outside 1..8"),
        (count_paradoxical, (True,), "sentence count must be a positive integer, got True"),
        (solve_constraints, (True, 2), "need integers m >= 1 and n, got m = True, n = 2"),
        (solve_constraints, (2, 4.0), "need integers m >= 1 and n, got m = 2, n = 4.0"),
        (SparseState, (1.5, {}), "state has m = 1.5 sentences, need an integer m >= 0"),
        (kappa, ((1.5, 2),), "entry 1.5 at position 1 outside 1..4"),
        (kappa_inverse, (2, True), "embedded index 2 outside 1..(2m)^m for m = True"),
        (single_entry_projector, (1, 1.5, 2), "entry 1.5 outside 1..4"),
        (simple_liar, (2.0,), "sentence count must be a positive integer, got 2.0"),
        (canonical_entry_cycle, (2.0,), "sentence count must be a positive integer, got 2.0"),
        (apply_steps, (EV, PSI0, 1.5), "step count must be an integer, got 1.5"),
        (run_verification, (8.0,), "verification covers 1 <= m_max <= 8, got 8.0"),
        (verify_minimality, (3.0,), "audit covers 2 <= m <= 4, got 3.0"),
        (WALK.hypothesis_at, (1.5,), "step must be an integer, got 1.5"),
        (WALK.hypothesis_at, (True,), "step must be an integer, got True"),
        (trace_to_csv, ((), (), 1.5), "precision must be an integer, got 1.5"),
        (trace_to_csv, ((), (), -1), "precision must be in 1..17, got -1"),
        (trace_to_csv, ((), (), True), "precision must be an integer, got True"),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, precision=1.5),
            (),
            "precision must be an integer, got 1.5",
        ),
        (
            trace_to_csv,
            ([TraceRow(0.0, 1.5, 1.0, 0.0)],),
            "trace row sentence must be an integer, got 1.5",
        ),
        (probability_trace, (one_liar(), (1, True), [[0.5]]), TIMES),
        (probability_trace, (one_liar(), (1, True), [[0.5, 1.0]]), TIMES),
        (probability_trace, (one_liar(), (1, True), ["x"]), TIMES),
        (probability_trace, (one_liar(), (1, True), [0.5j]), TIMES),
        (probability_trace, (one_liar(), (1, True), ["0.5"]), TIMES),
        (probability_trace, (one_liar(), (1, True), [True]), TIMES),
        (probability_trace, (one_liar(), (1, True), "0.5"), TIMES),
        (probability_trace, (one_liar(), (1, True), [10**400]), HUGE_TIME),
        (probability_trace, (one_liar(), (1, True), [-(10**400)]), HUGE_TIME),
        (trace_csv_chunks, (one_liar(), (1, True), 10**400, 1), HUGE_GRID),
        (time_grid, (10**400, 1), HUGE_GRID),
        (grid_size, (1.0, 10**400), HUGE_GRID),
        (
            lambda: probability_trace(one_liar(), (1, True), [1], time_scale=10**400),
            (),
            HUGE_SCALE,
        ),
        (
            lambda: trace_csv_chunks(one_liar(), (1, True), 1.0, 0.5, time_scale=10**400),
            (),
            HUGE_SCALE,
        ),
        (probability_trace, (eight_liar(), 5, [0]), PAIR + "5"),
        (trace_csv_chunks, (eight_liar(), "1:T", 1, 0.5), PAIR + "'1:T'"),
        (trace_csv_chunks, (eight_liar(), (1, True, 2), 1, 0.5), PAIR + "(1, True, 2)"),
        (grid_size, ("1", 0.5), "t_max and dt must be real numbers, got t_max='1', dt=0.5"),
        (time_grid, (1.0, True), "t_max and dt must be real numbers, got t_max=1.0, dt=True"),
        (
            trace_csv_chunks,
            (one_liar(), (1, True), 1.0, "0.5"),
            "t_max and dt must be real numbers, got t_max=1.0, dt='0.5'",
        ),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 1, 0.5, time_scale="1"),
            (),
            "time scale must be a real number, got '1'",
        ),
        (
            lambda: probability_trace(one_liar(), (1, True), [1], time_scale=True),
            (),
            "time scale must be a real number, got True",
        ),
        (
            lambda: probability_trace(
                eight_liar(), (1, True), [0.5], sentences=[1], renormalize="no"
            ),
            (),
            "renormalize must be True or False, got 'no'",
        ),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, renormalize=1),
            (),
            "renormalize must be True or False, got 1",
        ),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, header_lines="ab"),
            (),
            HEADER_STR,
        ),
        (trace_to_csv, ((), "ab"), HEADER_STR),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, header_lines=["a", 1]),
            (),
            "trace header line must be a str, got 1",
        ),
        (trace_to_csv, ((), [b"a"]), "trace header line must be a str, got b'a'"),
    ],
)
def test_found_misuse_is_a_one_line_out_of_range(call, args, message):
    assert _one_line_out_of_range(call, *args) == message


def test_a_float_sentence_is_refused_not_written_as_a_float():
    # the chunked writer puts each sentence into its row template as text,
    # so 1.0 came out as "1.0" where trace_to_csv's %d writes "1"
    message = _one_line_out_of_range(
        lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, sentences=[1.0])
    )
    assert message == "sentence 1.0 outside 1..8"
    chunked = "".join(trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, sentences=[1]))
    rows = probability_trace(eight_liar(), (1, True), [0.0, 0.5], sentences=[1])
    assert chunked == trace_to_csv(rows)
