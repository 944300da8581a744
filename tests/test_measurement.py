import numpy as np
import pytest

from liarsim import (
    OutOfRange,
    SparseState,
    build_initial_state,
    collapse,
    eight_liar,
    hypothesis_projector,
    inference_projector,
    kappa,
    one_liar,
    projection_probability,
    simple_liar,
    single_entry_projector,
)


def test_projector_entry_sets():
    m = 4
    assert hypothesis_projector(2, True, m).entry_set == frozenset({7})
    assert hypothesis_projector(2, False, m).entry_set == frozenset({8})
    assert hypothesis_projector(3, True, m) == single_entry_projector(3, 7, m)
    assert hypothesis_projector(3, False, m) == single_entry_projector(3, 8, m)
    assert single_entry_projector(1, 5, m).entry_set == frozenset({5})


def test_inference_projector_excludes_hypothesis_entries():
    m = 4
    for entry in range(1, 2 * m - 1):
        assert inference_projector(1, entry, m).entry_set == frozenset({entry})
    with pytest.raises(OutOfRange):
        inference_projector(1, 2 * m - 1, m)
    with pytest.raises(OutOfRange):
        inference_projector(1, 2 * m, m)


def test_projector_validation():
    with pytest.raises(OutOfRange):
        single_entry_projector(0, 1, 2)
    with pytest.raises(OutOfRange):
        single_entry_projector(3, 1, 2)
    with pytest.raises(OutOfRange):
        single_entry_projector(1, 5, 2)
    with pytest.raises(OutOfRange):
        hypothesis_projector(2, True, 1)
    state = build_initial_state(one_liar())
    with pytest.raises(OutOfRange):
        collapse(state, single_entry_projector(2, 1, 2), renormalize=False)


def test_projector_for_another_m_is_refused():
    # entry 1 is "true by hypothesis" at m = 1 but "true by inference" at
    # m = 2, so a projector only applies to states of its own m
    state = build_initial_state(simple_liar(2))
    for p in (hypothesis_projector(1, True, 1), hypothesis_projector(1, True, 3)):
        with pytest.raises(OutOfRange, match="projector for m ="):
            projection_probability(state, p)
        with pytest.raises(OutOfRange, match="projector for m ="):
            collapse(state, p)


def test_raw_collapse_filters_support():
    state = build_initial_state(eight_liar())
    kept, _ = collapse(state, hypothesis_projector(1, True, 8), renormalize=False)
    idx = (15, 10, 8, 12, 7, 13, 4, 9)
    assert kept.amplitudes == {idx: state.amplitudes[idx]}


def test_uniform_hypothesis_probabilities():
    for config in (one_liar(), simple_liar(3), eight_liar()):
        m = config.m
        state = build_initial_state(config)
        for i in range(1, m + 1):
            for value in (True, False):
                p = projection_probability(state, hypothesis_projector(i, value, m))
                assert p == pytest.approx(1 / (2 * m), abs=1e-14)


def test_collapse_renormalizes_by_default():
    state = build_initial_state(eight_liar())
    collapsed, p = collapse(state, hypothesis_projector(1, True, 8))
    assert p == pytest.approx(1 / 16, abs=1e-14)
    assert collapsed.norm() == pytest.approx(1.0, abs=1e-14)
    raw, p_raw = collapse(state, hypothesis_projector(1, True, 8), renormalize=False)
    assert p_raw == pytest.approx(1 / 16, abs=1e-14)
    assert raw.norm() == pytest.approx(1 / 4, abs=1e-14)


def test_collapse_of_orthogonal_support_is_null():
    state = SparseState(1, {(1,): 1.0})
    null, p = collapse(state, hypothesis_projector(1, False, 1))
    assert p == 0.0
    assert null.is_null


def test_single_entry_projectors_partition_probability():
    config = simple_liar(3)
    state = build_initial_state(config)
    for i in range(1, 4):
        total = sum(
            projection_probability(state, single_entry_projector(i, j, 3))
            for j in range(1, 7)
        )
        assert total == pytest.approx(1.0, abs=1e-14)
        entries = [single_entry_projector(i, j, 3).entry_set for j in range(1, 7)]
        assert frozenset().union(*entries) == frozenset(range(1, 7))


def _dense_vector(state):
    size = state.n**state.m
    vec = np.zeros(size, dtype=complex)
    for idx, a in state.amplitudes.items():
        vec[kappa(idx) - 1] = a
    return vec


def _dense_projector(spec, m, n):
    diag = np.array([1.0 if j in spec.entry_set else 0.0 for j in range(1, n + 1)])
    mat = np.ones((1, 1))
    for i in range(1, m + 1):
        factor = np.diag(diag) if i == spec.sentence else np.eye(n)
        mat = np.kron(mat, factor)
    return mat


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sparse_projection_matches_dense_tensor_product(m):
    # cross-check the symbolic filter against explicit kron matrices
    config = simple_liar(m)
    n = 2 * m
    state = build_initial_state(config)
    vec = _dense_vector(state)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            spec = single_entry_projector(i, j, m)
            dense = _dense_projector(spec, m, n) @ vec
            sparse = _dense_vector(collapse(state, spec, renormalize=False)[0])
            assert np.abs(dense - sparse).max() < 1e-15
            p = projection_probability(state, spec)
            assert p == pytest.approx(float(np.vdot(dense, dense).real), abs=1e-15)


def test_dense_projectors_are_idempotent_and_complete():
    m, n = 2, 4
    for i in (1, 2):
        total = np.zeros((n**m, n**m))
        for j in range(1, n + 1):
            mat = _dense_projector(single_entry_projector(i, j, m), m, n)
            assert np.abs(mat @ mat - mat).max() == 0.0
            total += mat
        assert np.abs(total - np.eye(n**m)).max() == 0.0
