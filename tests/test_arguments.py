"""Library arguments: a value of the wrong type in an integer, truth-value or
real-number slot raises OutOfRange with a one-line message, never a
TypeError, a KeyError or an IndexError, and is never coerced."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liarsim import (
    Configuration,
    OutOfRange,
    SparseState,
    UnsupportedDimension,
    apply_steps,
    build_evolution,
    build_initial_state,
    collapse,
    count_paradoxical,
    eight_liar,
    enumerate_paradoxical,
    fourier_frame,
    hypothesis_projector,
    inference_projector,
    kappa,
    kappa_inverse,
    one_liar,
    probability_trace,
    propagate,
    propagator,
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
from liarsim.config import config_from_json
from liarsim.statespace import canonical_entry_cycle, state_from_json
from liarsim.verify import run_verification

EV = build_evolution(one_liar())
PSI0 = build_initial_state(one_liar())
# one liar hypothesized true: unlike PSI0, it moves with every step
START, _ = collapse(PSI0, hypothesis_projector(1, True, 1))
WALK = reasoning_cycle(eight_liar())

# name -> (call, valid arguments, slot kinds): "i" an integer slot, "b" a
# truth-value slot, "r" a real-number slot (a time, a time scale, t_max or
# dt).  Nested slots (tuple entries, a start hypothesis, a sentence list)
# are flattened into the call's arguments.
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
        lambda s, v, a, b, r, c: probability_trace(
            eight_liar(), (s, v), [0.5], sentences=[a, b], renormalize=r, time_scale=c
        ),
        (1, True, 1, 2, True, 1.0),
        "ibiibr",
    ),
    "trace_csv_chunks": (
        lambda s, v, a, p, r, t_max, dt, c: trace_csv_chunks(
            eight_liar(),
            (s, v),
            t_max,
            dt,
            sentences=[a],
            precision=p,
            renormalize=r,
            time_scale=c,
        ),
        (1, True, 1, 12, False, 0.5, 0.5, 1.0),
        "ibiibrrr",
    ),
    "grid_size": (grid_size, (1.0, 0.5), "rr"),
    "time_grid": (time_grid, (1.0, 0.5), "rr"),
    "propagate": (lambda tau: propagate(EV, START, tau), (0.5,), "r"),
    "propagator": (lambda tau: propagator(EV, tau), (0.5,), "r"),
    "collapse": (
        lambda r: collapse(PSI0, hypothesis_projector(1, True, 1), renormalize=r),
        (True,),
        "b",
    ),
    "fourier_frame": (fourier_frame, (2,), "i"),
    "hypothesis_at": (WALK.hypothesis_at, (1,), "i"),
    "trace_to_csv": (
        lambda s, p: trace_to_csv([TraceRow(0.0, s, 1.0, 0.0)], precision=p),
        (1, 12),
        "ii",
    ),
}

# text no slot may read as a number: long, a NUL, Arabic-Indic digits and
# the underscore spelling that int and float accept
HOSTILE_TEXT = st.sampled_from(["x" * 100_000, "\0", "١٢", "1_0"])
NOT_AN_INT = st.one_of(
    HOSTILE_TEXT,
    st.floats(),
    st.integers(-3, 10).map(float),  # integral floats such as 2.0
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.integers(-3, 10).map(np.int64),
    st.integers(-3, 10).map(np.int32),
)
NOT_A_BOOL = st.one_of(
    HOSTILE_TEXT,
    st.floats(),
    st.integers(-2, 3),
    st.text(max_size=3),
    st.none(),
    st.booleans().map(np.bool_),
    st.integers(0, 1).map(np.int64),
)
# every float is a real number; integers past the float range are refused
# as too large
NOT_A_REAL = st.one_of(
    HOSTILE_TEXT,
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(),
    st.integers(2**1024, 2**1100),
    st.integers(-(2**1100), -(2**1024)),
)
NOT_OF_KIND = {"i": NOT_AN_INT, "b": NOT_A_BOOL, "r": NOT_A_REAL}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_accepts_its_valid_arguments(name):
    # so the fuzz below fails only through the slot it spoils
    call, args, _ = CALLS[name]
    call(*args)


def _one_line_out_of_range(call, *args):
    with pytest.raises(OutOfRange) as failure:
        call(*args)
    message = str(failure.value)
    assert len(message.splitlines()) == 1 and len(message) <= 200, message[:300]
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
        args[k] = data.draw(NOT_OF_KIND[kinds[k]])
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
# comment line per character) or hold a line that is not a str.  Then the
# times of propagate and propagator ('1', None and 1+2j a TypeError, True
# taken as 1, 10**400 an OverflowError), collapse's renormalize (taken by
# its truth), grid bounds that no float holds though their ratio does
# (dt = 10**400 failed after the header, (10**400, 10**392) on its time
# bound) and a dt of 1/10**400, 0.0 as a float (an OverflowError),
# fourier_frame sizes (1.5, True and 1+2j gave a matrix, -1 a
# RuntimeWarning, the rest a TypeError or a ValueError), SparseState
# amplitudes ("1" and True stored as 1+0j, None a TypeError, 10**400 an
# OverflowError) and sentences that are not iterable (a TypeError).  Last, a
# positive time scale whose float is 0.0 (a ZeroDivisionError), the m of
# kappa_inverse past MAX_SENTENCES (accepted), and a long str in the slots
# that take any integer and in a state document's m (quoted whole).
TIMES = "times must be a one-dimensional sequence of real numbers"
HUGE_TIME = "evolution time must be finite, got one too large for a float"
HUGE_T_MAX = "t_max must be finite, got one too large for a float"
HUGE_DT = "dt must be finite, got one too large for a float"
HUGE_SCALE = "time scale must be finite, got one too large for a float"
PAIR = "initial measurement must be a (sentence, truth value) pair, got "
HEADER_STR = "trace header lines must be a sequence of str, got the str 'ab'"
REAL_TIME = "evolution time must be a real number, got "
FRAME = "frame size must be an integer in 1..8192, got "
AMPLITUDE = "amplitude of tuple (1,) must be a number, got "
SENTENCES = "sentences must be an iterable of integers, got "
SENTENCE = "sentence must be an integer in 1..8, got "
COUNT = "sentence count must be an integer in 1..4096, got "
STATE_COUNT = "state sentence count must be an integer in 0..4096, got "
PRECISION = "precision must be an integer in 1..17, got "
LONG = "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"  # "x" * 100_000
ZERO_SCALE = "time scale must be positive, got Fraction(1, 1...0000000000000)"


@pytest.mark.parametrize(
    "call, args, message",
    [
        (reasoning_cycle, (eight_liar(), 1.5, True), SENTENCE + "1.5"),
        (reasoning_cycle, (eight_liar(), "1", True), SENTENCE + "'1'"),
        (probability_trace, (eight_liar(), (True, True), [0.5]), SENTENCE + "True"),
        (count_paradoxical, (True,), COUNT + "True"),
        (solve_constraints, (True, 2), COUNT + "True"),
        (solve_constraints, (2, 4.0), "dimension n must be an integer, got 4.0"),
        (SparseState, (1.5, {}), STATE_COUNT + "1.5"),
        (kappa, ((1.5, 2),), "entry at position 1 must be an integer in 1..4, got 1.5"),
        (kappa_inverse, (2, True), COUNT + "True"),
        (single_entry_projector, (1, 1.5, 2), "entry must be an integer in 1..4, got 1.5"),
        (simple_liar, (2.0,), COUNT + "2.0"),
        (canonical_entry_cycle, (2.0,), COUNT + "2.0"),
        (apply_steps, (EV, PSI0, 1.5), "step count must be an integer, got 1.5"),
        (run_verification, (8.0,), "verification m_max must be an integer in 1..8, got 8.0"),
        (verify_minimality, (3.0,), "audit sentence count must be an integer in 2..4, got 3.0"),
        (WALK.hypothesis_at, (1.5,), "step must be an integer, got 1.5"),
        (WALK.hypothesis_at, (True,), "step must be an integer, got True"),
        (trace_to_csv, ((), (), 1.5), PRECISION + "1.5"),
        (trace_to_csv, ((), (), -1), PRECISION + "-1"),
        (trace_to_csv, ((), (), True), PRECISION + "True"),
        (
            lambda: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, precision=1.5),
            (),
            PRECISION + "1.5",
        ),
        (
            trace_to_csv,
            ([TraceRow(0.0, 1.5, 1.0, 0.0)],),
            "trace row sentence must be an integer in 1..4096, got 1.5",
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
        (trace_csv_chunks, (one_liar(), (1, True), 10**400, 1), HUGE_T_MAX),
        (time_grid, (10**400, 1), HUGE_T_MAX),
        (grid_size, (1.0, 10**400), HUGE_DT),
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
        (grid_size, ("1", 0.5), "t_max must be a real number, got '1'"),
        (time_grid, (1.0, True), "dt must be a real number, got True"),
        (
            trace_csv_chunks,
            (one_liar(), (1, True), 1.0, "0.5"),
            "dt must be a real number, got '0.5'",
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
        (propagate, (EV, START, "1"), REAL_TIME + "'1'"),
        (propagate, (EV, START, True), REAL_TIME + "True"),
        (propagate, (EV, START, None), REAL_TIME + "None"),
        (propagate, (EV, START, 1 + 2j), REAL_TIME + "(1+2j)"),
        (propagate, (EV, START, 10**400), HUGE_TIME),
        (propagator, (EV, "1"), REAL_TIME + "'1'"),
        (propagator, (EV, True), REAL_TIME + "True"),
        (propagator, (EV, None), REAL_TIME + "None"),
        (propagator, (EV, 1 + 2j), REAL_TIME + "(1+2j)"),
        (propagator, (EV, 10**400), HUGE_TIME),
        (
            collapse,
            (PSI0, hypothesis_projector(1, True, 1), "no"),
            "renormalize must be True or False, got 'no'",
        ),
        (
            collapse,
            (PSI0, hypothesis_projector(1, True, 1), 1),
            "renormalize must be True or False, got 1",
        ),
        (trace_csv_chunks, (one_liar(), (1, True), 0, 10**400), HUGE_DT),
        (trace_csv_chunks, (one_liar(), (1, True), 10**400, 10**392), HUGE_T_MAX),
        (
            grid_size,
            (1, Fraction(1, 10**400)),
            "need dt > 0, t_max >= 0 and a finite t_max/dt,"
            " got dt=Fraction(1, 1...0000000000000), t_max=1",
        ),
        (fourier_frame, (1.5,), FRAME + "1.5"),
        (fourier_frame, (True,), FRAME + "True"),
        (fourier_frame, (1 + 2j,), FRAME + "(1+2j)"),
        (fourier_frame, (-1,), FRAME + "-1"),
        (fourier_frame, ("1",), FRAME + "'1'"),
        (fourier_frame, (None,), FRAME + "None"),
        (fourier_frame, (10**400,), FRAME + "<int of 401 digits>"),
        (SparseState, (1, {(1,): "1"}), AMPLITUDE + "'1'"),
        (SparseState, (1, {(1,): True}), AMPLITUDE + "True"),
        (SparseState, (1, {(1,): None}), AMPLITUDE + "None"),
        (SparseState, (1, {(1,): 10**400}), "amplitude of tuple (1,) overflows"),
        (
            lambda: probability_trace(one_liar(), (1, True), [0.5], sentences=5),
            (),
            SENTENCES + "5",
        ),
        (
            lambda: probability_trace(one_liar(), (1, True), [0.5], sentences=True),
            (),
            SENTENCES + "True",
        ),
        (
            lambda: trace_csv_chunks(one_liar(), (1, True), 0.5, 0.5, sentences=1.5),
            (),
            SENTENCES + "1.5",
        ),
        (
            lambda: probability_trace(
                one_liar(), (1, True), [1], time_scale=Fraction(1, 10**400)
            ),
            (),
            ZERO_SCALE,
        ),
        (
            lambda: trace_csv_chunks(
                one_liar(), (1, True), 0, 0.5, time_scale=Fraction(1, 10**400)
            ),
            (),
            ZERO_SCALE,
        ),
        (kappa_inverse, (1, 4097), COUNT + "4097"),
        (apply_steps, (EV, PSI0, "x" * 100_000), "step count must be an integer, got " + LONG),
        (WALK.hypothesis_at, ("x" * 100_000,), "step must be an integer, got " + LONG),
        (solve_constraints, (2, "x" * 100_000), "dimension n must be an integer, got " + LONG),
        (
            state_from_json,
            (json.dumps({"m": "x" * 100_000, "n": 2, "terms": []}),),
            STATE_COUNT + LONG,
        ),
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
    assert message == "sentence must be an integer in 1..8, got 1.0"
    chunked = "".join(trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, sentences=[1]))
    rows = probability_trace(eight_liar(), (1, True), [0.0, 0.5], sentences=[1])
    assert chunked == trace_to_csv(rows)


def test_a_time_is_read_as_its_float():
    # the chunked writer multiplied int64 times (2**63 wrapped to -2**63)
    # and failed on a Fraction dt after the header
    for t_max, dt in ((2**63, 2**62), (Fraction(1), Fraction(1, 4))):
        chunked = "".join(trace_csv_chunks(one_liar(), (1, True), t_max, dt))
        rows = probability_trace(one_liar(), (1, True), time_grid(t_max, dt))
        assert chunked == trace_to_csv(rows)
    assert propagate(EV, START, Fraction(5, 2)) == propagate(EV, START, 2.5)
    assert np.array_equal(propagator(EV, Fraction(5, 2)), propagator(EV, 2.5))
    # an integral tau keeps the exact route, past 2**53 too
    assert propagate(EV, START, 2**60 + 1) == apply_steps(EV, START, 2**60 + 1)
    assert propagate(EV, START, 2**60 + 1) != propagate(EV, START, 2**60)


# Every integer slot, by the call and the start of its message: a value that
# is not an integer in its range, however long, is quoted in a short line.
# repr refused an integer past 4,300 digits (a ValueError) and quoted a
# str whole (100,040 characters).
INTEGER_SLOTS = {
    "count_paradoxical": (count_paradoxical, COUNT),
    "enumerate_paradoxical": (lambda v: next(enumerate_paradoxical(v)), COUNT),
    "simple_liar": (simple_liar, COUNT),
    "canonical_entry_cycle": (canonical_entry_cycle, COUNT),
    "Configuration-m": (lambda v: Configuration(v, (1,), (True,)), COUNT),
    "Configuration-referent": (
        lambda v: Configuration(1, (v,), (True,)),
        "referent of sentence 1 must be an integer in 1..1, got ",
    ),
    "solve_constraints-m": (lambda v: solve_constraints(v, 4), COUNT),
    "verify_minimality": (
        verify_minimality,
        "audit sentence count must be an integer in 2..4, got ",
    ),
    "run_verification": (
        run_verification,
        "verification m_max must be an integer in 1..8, got ",
    ),
    "SparseState-m": (lambda v: SparseState(v, {}), STATE_COUNT),
    "SparseState-entry": (
        lambda v: SparseState(2, {(1, v): 1.0}),
        "entry at position 2 must be an integer in 1..4, got ",
    ),
    "kappa": (lambda v: kappa((v, 2)), "entry at position 1 must be an integer in 1..4, got "),
    "kappa_inverse-index": (
        lambda v: kappa_inverse(v, 2),
        "embedded index must be an integer in 1..16, got ",
    ),
    "kappa_inverse-m": (lambda v: kappa_inverse(1, v), COUNT),
    "single_entry_projector-sentence": (
        lambda v: single_entry_projector(v, 1, 2),
        "sentence must be an integer in 1..2, got ",
    ),
    "single_entry_projector-entry": (
        lambda v: single_entry_projector(1, v, 2),
        "entry must be an integer in 1..4, got ",
    ),
    "single_entry_projector-m": (lambda v: single_entry_projector(1, 1, v), COUNT),
    "inference_projector-entry": (
        lambda v: inference_projector(1, v, 2),
        "inference entry must be an integer in 1..2, got ",
    ),
    "hypothesis_projector-m": (lambda v: hypothesis_projector(1, True, v), COUNT),
    "reasoning_cycle": (lambda v: reasoning_cycle(eight_liar(), v, True), SENTENCE),
    "step_of": (lambda v: WALK.step_of(v, True), SENTENCE),
    "infer_next": (lambda v: infer_next(eight_liar(), v, True), SENTENCE),
    "probability_trace-start": (
        lambda v: probability_trace(eight_liar(), (v, True), [0.5]),
        SENTENCE,
    ),
    "probability_trace-sentences": (
        lambda v: probability_trace(eight_liar(), (1, True), [0.5], sentences=[1, v]),
        SENTENCE,
    ),
    "trace_csv_chunks-precision": (
        lambda v: trace_csv_chunks(eight_liar(), (1, True), 0.5, 0.5, precision=v),
        PRECISION,
    ),
    "trace_to_csv-precision": (lambda v: trace_to_csv((), precision=v), PRECISION),
    "trace_to_csv-sentence": (
        lambda v: trace_to_csv([TraceRow(0.0, v, 1.0, 0.0)]),
        "trace row sentence must be an integer in 1..4096, got ",
    ),
    "fourier_frame": (fourier_frame, FRAME),
}
LONG_VALUES = {
    "huge": (10**5000, "<int of 5001 digits>"),
    "negative-huge": (-(10**5000), "<negative int of 5001 digits>"),
    "long-str": ("x" * 100_000, LONG),
}


@pytest.mark.parametrize("value", sorted(LONG_VALUES))
@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_a_long_value_in_an_integer_slot_is_quoted_short(slot, value):
    call, message = INTEGER_SLOTS[slot]
    value, quoted = LONG_VALUES[value]
    assert _one_line_out_of_range(call, value) == message + quoted


def test_a_huge_dimension_is_quoted_short():
    with pytest.raises(UnsupportedDimension) as failure:
        solve_constraints(2, 10**5000)
    assert str(failure.value) == (
        "audit covers n = 2m and n = 2m-1 only, got n=<int of 5001 digits> for m=2"
    )


# Each integer field of the two JSON readers, as a document with "@" in the
# field's place and the field's valid value.
def _state_document(tuple_entry="1", re="1", im="0"):
    term = f'{{"tuple": [{tuple_entry}], "embedded": "1", "re": {re}, "im": {im}}}'
    return '{"m": 1, "n": 2, "terms": [' + term + "]}"


JSON_INTEGER_FIELDS = {
    "config-m": (config_from_json, '{"m": @, "referent": [1], "negating": [true]}', "1"),
    "config-referent": (config_from_json, '{"m": 1, "referent": [@], "negating": [true]}', "1"),
    "state-m": (state_from_json, '{"m": @, "n": 2, "terms": []}', "1"),
    "state-n": (state_from_json, '{"m": 1, "n": @, "terms": []}', "2"),
    "state-tuple": (state_from_json, _state_document(tuple_entry="@"), "1"),
    "state-re": (state_from_json, _state_document(re="@"), "1"),
    "state-im": (state_from_json, _state_document(im="@"), "0"),
}


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("field", sorted(JSON_INTEGER_FIELDS))
def test_a_json_integer_past_the_digit_limit_is_out_of_range(field, sign):
    # json.loads raised int's ValueError on 4,301 digits and more
    call, document, valid = JSON_INTEGER_FIELDS[field]
    call(document.replace("@", valid))
    what = "configuration object" if call is config_from_json else "state document"
    assert _one_line_out_of_range(call, document.replace("@", sign + "9" * 5001)) == (
        f"malformed {what}: a JSON integer has more than 4300 digits"
    )
