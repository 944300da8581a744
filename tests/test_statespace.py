import decimal
import inspect
import itertools
import json
import math
from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest

from liarsim import (
    Configuration,
    NotParadoxical,
    OutOfRange,
    SparseState,
    build_initial_state,
    cycle_states,
    eight_liar,
    kappa,
    kappa_inverse,
    one_liar,
    reasoning_cycle,
    simple_liar,
)
from liarsim.statespace import (
    canonical_entry_cycle,
    check_tensor_index,
    initial_state_terms,
    state_from_json,
    state_json_chunks,
    state_to_json,
)

from golden import EIGHT_EMBEDDED, EIGHT_TUPLES


def test_kappa_smallest_cases():
    assert kappa((1,)) == 1
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == 1
    assert kappa((1, 2)) == 2
    assert kappa((2, 1)) == 5
    assert kappa((4, 4)) == 16


def test_kappa_is_lexicographic_rank():
    # exhaustive oracle for m = 2 and m = 3
    for m in (2, 3):
        n = 2 * m
        ranked = list(itertools.product(range(1, n + 1), repeat=m))
        for rank, idx in enumerate(ranked, start=1):
            assert kappa(idx) == rank
            assert kappa_inverse(rank, m) == idx


def test_kappa_reference_pairs():
    for idx, embedded in zip(EIGHT_TUPLES, EIGHT_EMBEDDED):
        assert kappa(idx) == embedded
        assert kappa_inverse(embedded, 8) == idx


def test_kappa_round_trip_random():
    rng = np.random.default_rng(42)
    for m in range(1, 9):
        n = 2 * m
        for _ in range(300):
            idx = tuple(int(x) for x in rng.integers(1, n + 1, size=m))
            assert kappa_inverse(kappa(idx), m) == idx


def test_kappa_exact_beyond_double_precision():
    # m = 12 gives 24^12 ~ 4.3e16 states, past float53 integer exactness
    idx = tuple(range(13, 25))
    n = 24
    e = kappa(idx)
    assert kappa_inverse(e, 12) == idx
    assert kappa((24,) * 12) == n**12


def test_kappa_rejects_bad_entries():
    with pytest.raises(OutOfRange):
        kappa((0, 1))
    with pytest.raises(OutOfRange):
        kappa((1, 5))
    with pytest.raises(OutOfRange):
        kappa_inverse(0, 2)
    with pytest.raises(OutOfRange):
        kappa_inverse(17, 2)


def test_entries_per_sentence_are_derived_from_m():
    # n = 2m is fixed by the model, so no constructor or index function takes it
    assert [f.name for f in fields(SparseState) if f.init] == ["m", "amplitudes"]
    assert SparseState(3).n == 6
    assert build_initial_state(eight_liar()).n == 16
    for fn, params in (
        (kappa, ["idx"]),
        (kappa_inverse, ["e", "m"]),
        (check_tensor_index, ["idx"]),
        (state_json_chunks, ["config", "extra"]),
    ):
        assert list(inspect.signature(fn).parameters) == params


def test_canonical_entry_cycle_layout():
    assert canonical_entry_cycle(1) == (1, 2)
    assert canonical_entry_cycle(2) == (3, 2, 4, 1)
    assert canonical_entry_cycle(4) == (7, 6, 5, 4, 8, 3, 2, 1)
    c = canonical_entry_cycle(8)
    assert len(c) == 16
    assert sorted(c) == list(range(1, 17))
    assert c[0] == 15 and c[8] == 16


def test_cycle_states_one_liar():
    assert cycle_states(one_liar()) == ((1,), (2,))


def test_cycle_states_match_reference():
    assert cycle_states(eight_liar()) == EIGHT_TUPLES


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_cycle_states_have_no_degenerate_entries(m):
    states = cycle_states(simple_liar(m))
    assert len(states) == 2 * m
    assert len(set(states)) == 2 * m
    for i in range(m):
        column = sorted(s[i] for s in states)
        assert column == list(range(1, 2 * m + 1))


def test_cycle_state_entries_decode_consistently():
    # at every step the hypothesized sentence carries the hypothesis entry of
    # the walk's value (2m-1 true, 2m false), every other sentence an
    # inference entry (1..2m-2)
    for config in (one_liar(), simple_liar(3), eight_liar()):
        m = config.m
        cycle = reasoning_cycle(config)
        for t, state in enumerate(cycle_states(config), start=1):
            sentence, value = cycle.hypothesis_at(t)
            for i in range(1, m + 1):
                if i == sentence:
                    assert state[i - 1] == (2 * m - 1 if value else 2 * m)
                else:
                    assert state[i - 1] <= 2 * m - 2


def test_sparse_state_basics():
    state = SparseState(2, {(1, 2): 0.6, (3, 4): 0.8j})
    assert state.norm() == pytest.approx(1.0)
    assert not state.is_null
    assert state.amplitude((1, 2)) == 0.6
    assert state.amplitude((2, 2)) == 0
    unit = state.normalized()
    assert unit.norm() == pytest.approx(1.0)


def test_sparse_state_defensive_copy():
    amps = {(1,): 1.0}
    state = SparseState(1, amps)
    amps[(2,)] = 5.0
    assert state.amplitude((2,)) == 0


def test_sparse_state_validation():
    with pytest.raises(OutOfRange):
        SparseState(2, {(1,): 1.0})
    with pytest.raises(OutOfRange):
        SparseState(2, {(1, 5): 1.0})
    null = SparseState(2, {})
    assert null.is_null
    assert null.norm() == 0.0
    assert null.normalized() is null


def test_sparse_state_rejects_negative_m():
    with pytest.raises(OutOfRange):
        SparseState(-3, {})
    with pytest.raises(OutOfRange):
        SparseState(-1)
    assert SparseState(0, {(): 1.0}).n == 0


def test_initial_state_uniform_in_cycle_order():
    config = eight_liar()
    state = build_initial_state(config)
    assert state.norm() == pytest.approx(1.0, abs=1e-14)
    assert tuple(state.amplitudes) == cycle_states(config)
    for a in state.amplitudes.values():
        assert a == pytest.approx(1 / math.sqrt(16), abs=1e-15)


def test_state_json_round_trip():
    state = build_initial_state(eight_liar())
    doc = json.loads(state_to_json(state))
    assert doc["m"] == 8 and doc["n"] == 16
    assert [tuple(t["tuple"]) for t in doc["terms"]] == list(EIGHT_TUPLES)
    assert [int(t["embedded"]) for t in doc["terms"]] == list(EIGHT_EMBEDDED)
    again = state_from_json(state_to_json(state))
    assert again == state


def test_state_json_extra_keys_and_validation():
    state = build_initial_state(one_liar())
    text = state_to_json(state, extra={"manifest": {"command": "state"}})
    doc = json.loads(text)
    assert doc["manifest"] == {"command": "state"}
    assert state_from_json(text) == state

    tampered = json.loads(state_to_json(state))
    tampered["terms"][0]["embedded"] = "2"
    with pytest.raises(OutOfRange):
        state_from_json(json.dumps(tampered))


def test_streamed_ranks_exact_past_the_int_str_limit():
    # ranks at m = 1300 reach 2600^1300, 4,440 digits: past the 4,300-digit
    # default limit of str(int)
    config = simple_liar(1300)
    states = cycle_states(config)
    terms = list(initial_state_terms(config))
    assert len(terms) == 2600
    for row in (0, -1):
        assert tuple(terms[row][0].tolist()) == states[row]
        assert Decimal(terms[row][1]) == Decimal(kappa(states[row]))


def test_state_stream_leaves_the_decimal_context_alone():
    # the ranks use a private exact context: a caller that has taken one
    # term still has its own precision and traps
    before = decimal.getcontext().copy()
    terms = initial_state_terms(eight_liar())
    next(terms)
    now = decimal.getcontext()
    assert (now.prec, now.traps) == (before.prec, before.traps)
    assert Decimal(1) / Decimal(3) == before.divide(1, 3)  # no Inexact trap
    assert len(list(terms)) == 15


def test_state_json_is_json_dumps_with_indent():
    extra = {"manifest": {"nested": [1, {"a": None}], "text": 'a " and \n'}, "m": 99}
    states = (
        SparseState(2, {}),
        SparseState(0, {(): 1.0}),
        SparseState(2, {(1, 2): 0.6, (3, 4): 0.8j}),
    )
    for state in states:
        doc = {
            **extra,
            "m": state.m,
            "n": state.n,
            "terms": [
                {"tuple": list(idx), "embedded": str(kappa(idx)), "re": a.real, "im": a.imag}
                for idx, a in state.amplitudes.items()
            ],
        }
        assert state_to_json(state, extra=extra) == json.dumps(doc, indent=2)


# "m" and "terms" are overridden by the document's own keys, in place
_EXTRA = {
    "terms": "replaced",
    "manifest": {"nested": [1, {"a": None, "b": [True, 0.5]}], "text": 'a " and \n\r'},
    "m": 99,
    "trailing": {"terms": [], "\n  \"terms\": []": 'say "hi"\n'},
}


@pytest.mark.parametrize(
    "config",
    [one_liar(), *map(simple_liar, range(2, 13)), eight_liar()],
    ids=["m1", "m2", *(f"simple{m}" for m in range(3, 13)), "m8"],
)
def test_state_writer_gives_the_same_bytes_for_tuples_and_table_rows(config):
    # state_to_json is json.dumps over the state's tuples; state_json_chunks
    # formats the int32 rows and streamed ranks of initial_state_terms
    for extra in ({"manifest": {"m": 1}}, _EXTRA):
        assert "".join(state_json_chunks(config, extra)) == state_to_json(
            build_initial_state(config), extra=extra
        )


@pytest.mark.parametrize(
    "config",
    [Configuration(2, (2, 1), (True, True)), Configuration(1, (1,), (False,))],
    ids=["even-negations", "no-negation"],
)
def test_state_writer_checks_on_the_call(config):
    # a Configuration is valid once built, so being paradoxical is what is
    # left to check
    with pytest.raises(NotParadoxical):
        state_json_chunks(config)  # no next(): the call itself raises


def test_state_json_round_trip_past_the_int_str_limit():
    state = SparseState(1300, {(2600,) * 1300: 1.0})  # rank 2600^1300
    assert state_from_json(state_to_json(state)) == state


_TERM = {"tuple": [1], "embedded": "1", "re": 0.5, "im": 0.0}


def _state_doc(**changes):
    return {"m": 1, "n": 2, "terms": [_TERM], **changes}


def _state_term(**changes):
    return _state_doc(terms=[{**_TERM, **changes}])


def test_state_reader_accepts_the_well_formed_document():
    assert state_from_json(json.dumps(_state_doc())) == SparseState(1, {(1,): 0.5})


@pytest.mark.parametrize(
    "doc",
    [
        _state_doc(m=1.9),
        _state_doc(n="2"),
        _state_doc(n=True),
        _state_term(tuple=[True]),
        _state_term(tuple=[1.0]),
        _state_term(embedded=1),
        _state_term(re="0.5"),
        _state_term(im=False),
        _state_term(re=10**400),
        _state_doc(terms={}),
        _state_doc(terms=[[1]]),
        [_state_doc()],
        {"m": 1, "n": 2},
        _state_doc(terms=[_TERM, _TERM]),
        _state_doc(n=3),
        _state_doc(m=-1, n=-2, terms=[]),
    ],
    ids=[
        "m-float", "n-string", "n-bool", "entry-bool", "entry-float",
        "embedded-int", "re-string", "im-bool", "re-overflows", "terms-object",
        "term-not-object", "top-level-list", "missing-key", "repeated-tuple",
        "n-not-2m", "m-negative",
    ],
)
def test_state_reader_rejects_malformed_documents(doc):
    with pytest.raises(OutOfRange):
        state_from_json(json.dumps(doc))


def test_state_reader_errors_match_the_config_reader():
    with pytest.raises(OutOfRange, match="nested too deeply"):
        state_from_json('{"m": ' + "[" * 50000)
    with pytest.raises(json.JSONDecodeError):
        state_from_json("{")
