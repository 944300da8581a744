import math
from dataclasses import fields

import numpy as np
import pytest

from liarsim import (
    OutOfRange,
    SparseState,
    SupportOutsideSubspace,
    apply_steps,
    build_evolution,
    build_initial_state,
    collapse,
    cycle_states,
    eight_liar,
    enumerate_paradoxical,
    fourier_frame,
    hamiltonian,
    hypothesis_projector,
    one_liar,
    probability_trace,
    projection_probability,
    propagate,
    propagator,
    simple_liar,
    step_matrix,
    trace_to_csv,
)
from liarsim.config import MAX_SENTENCES
from liarsim.evolution import (
    MAX_TRACE_ROWS,
    SubspaceEvolution,
    _cycle_kernel,
    _format_distinct,
    grid_size,
    principal_phases,
    time_grid,
    trace_csv_chunks,
    trace_row_count,
    trace_sentences,
)
from liarsim.statespace import _uniform_amplitude

TOL = 1e-10


def test_principal_phases_convention():
    assert principal_phases(2).tolist() == [0.0, math.pi]
    p4 = principal_phases(4).tolist()
    assert p4[0] == 0.0
    assert p4[1] == pytest.approx(-math.pi / 2)
    assert p4[2] == pytest.approx(math.pi)  # -1 branch lands on +pi
    assert p4[3] == pytest.approx(math.pi / 2)
    for size in (2, 6, 16):
        for theta in principal_phases(size):
            assert -math.pi < theta <= math.pi


def test_fourier_frame_is_unitary():
    for size in (2, 4, 16):
        f = fourier_frame(size)
        assert np.abs(f @ f.conj().T - np.eye(size)).max() < 1e-13


def test_build_evolution_layout():
    config = eight_liar()
    ev = build_evolution(config)
    assert ev.basis == cycle_states(config)
    assert ev.size == 16
    u = step_matrix(ev)
    assert [np.flatnonzero(u[:, t]).tolist() for t in range(16)] == [
        [(t + 1) % 16] for t in range(16)
    ]
    assert ev.position(ev.basis[3]) == 3
    with pytest.raises(SupportOutsideSubspace):
        ev.position((1,) * 8)


def test_evolution_is_fixed_by_its_basis():
    # m, n = 2m and the eigenphases all follow from the cycle basis
    assert [f.name for f in fields(SubspaceEvolution) if f.init] == ["basis"]


def test_step_matrix_advances_one_position():
    ev = build_evolution(one_liar())
    assert np.array_equal(step_matrix(ev), np.array([[0.0, 1.0], [1.0, 0.0]]))
    ev8 = build_evolution(eight_liar())
    u = step_matrix(ev8)
    for t in range(16):
        e = np.zeros(16)
        e[t] = 1.0
        out = u @ e
        assert out[(t + 1) % 16] == 1.0 and out.sum() == 1.0


def test_propagator_at_integer_times():
    for config in (one_liar(), simple_liar(3), eight_liar()):
        ev = build_evolution(config)
        u_d = step_matrix(ev)
        assert np.abs(propagator(ev, 0.0) - np.eye(ev.size)).max() < TOL
        assert np.abs(propagator(ev, 1.0) - u_d).max() < TOL
        assert np.abs(propagator(ev, 2.0) - u_d @ u_d).max() < TOL
        assert np.abs(propagator(ev, -1.0) - u_d.T).max() < TOL
        assert np.abs(propagator(ev, float(ev.size)) - np.eye(ev.size)).max() < TOL


def test_hamiltonian_generates_the_propagator():
    for config in (one_liar(), simple_liar(2), eight_liar()):
        ev = build_evolution(config)
        h = hamiltonian(ev)
        assert np.abs(h - h.conj().T).max() < 1e-13
        # independent reconstruction: exp(-iHt) through numpy's eigensolver
        vals, vecs = np.linalg.eigh(h)
        for tau in (0.3, 1.0, 2.7, -1.4):
            expm = vecs @ np.diag(np.exp(-1j * vals * tau)) @ vecs.conj().T
            assert np.abs(expm - propagator(ev, tau)).max() < 1e-12


def test_one_liar_spectrum():
    ev = build_evolution(one_liar())
    h = hamiltonian(ev)
    vals = sorted(np.linalg.eigvalsh(h))
    assert vals[0] == pytest.approx(-math.pi, abs=1e-12)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)
    assert np.trace(h).real == pytest.approx(-math.pi, abs=1e-12)


def test_propagate_matches_propagator():
    # The equiponderate state is stationary, so a random state is needed to
    # pin the direction of the circular convolution.
    rng = np.random.default_rng(5)
    for config in (simple_liar(3), eight_liar()):
        ev = build_evolution(config)
        uniform = build_initial_state(config)
        coeffs = rng.normal(size=ev.size) + 1j * rng.normal(size=ev.size)
        skewed = SparseState(config.m, dict(zip(ev.basis, coeffs)))
        for state in (uniform, skewed):
            vec = np.array([state.amplitude(idx) for idx in ev.basis])
            for tau in (0.0, 0.5, 1.7, 6.0, -2.25):
                moved = propagate(ev, state, tau)
                dense = propagator(ev, tau) @ vec
                got = np.array([moved.amplitude(idx) for idx in ev.basis])
                assert np.abs(got - dense).max() < 1e-12


@pytest.mark.parametrize("magnitude", [2**20 + 0.3, 2**30 + 0.3, 2**40 + 0.5, 1e15 + 0.5])
@pytest.mark.parametrize("sign", [1, -1])
def test_propagation_at_large_tau_matches_the_kernel(magnitude, sign):
    # the eigenphases times the raw tau would lose the fraction's bits as
    # |tau| grows, so both routes split tau exactly first, as the kernel does
    tau = sign * magnitude
    ev = build_evolution(eight_liar())
    start = SparseState(8, {ev.basis[0]: 1.0})
    want = _cycle_kernel(np.array([tau]), np.arange(ev.size), ev.size)[0]
    moved = propagate(ev, start, tau)
    got = np.abs([moved.amplitude(idx) for idx in ev.basis]) ** 2
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(np.abs(propagator(ev, tau)[:, 0]) ** 2 - want).max() <= 1e-12


def test_propagate_rejects_foreign_support():
    ev = build_evolution(simple_liar(2))
    foreign = SparseState(2, {(1, 1): 1.0})
    with pytest.raises(SupportOutsideSubspace):
        propagate(ev, foreign, 0.5)
    with pytest.raises(SupportOutsideSubspace):
        apply_steps(ev, foreign, 1)


def test_apply_steps_is_exact_rotation():
    config = eight_liar()
    ev = build_evolution(config)
    start = SparseState(8, {ev.basis[0]: 1.0})
    stepped = apply_steps(ev, start, 3)
    assert stepped.amplitudes == {ev.basis[3]: 1.0}
    assert apply_steps(ev, start, 16).amplitudes == start.amplitudes
    assert apply_steps(ev, start, -1).amplitudes == {ev.basis[15]: 1.0}
    # amplitudes are moved, never recomputed
    odd = SparseState(8, {ev.basis[5]: 0.25 - 0.33j})
    assert apply_steps(ev, odd, 7).amplitude(ev.basis[12]) == 0.25 - 0.33j


def test_unitarity_and_group_law_random():
    rng = np.random.default_rng(7)
    ev = build_evolution(simple_liar(2))
    eye = np.eye(ev.size)
    for _ in range(50):
        tau, sigma = rng.uniform(-10, 10, size=2)
        u = propagator(ev, tau)
        assert np.abs(u @ u.conj().T - eye).max() < TOL
        assert np.abs(u @ propagator(ev, sigma) - propagator(ev, tau + sigma)).max() < TOL


def test_initial_state_is_stationary():
    rng = np.random.default_rng(11)
    for config in (one_liar(), simple_liar(4), eight_liar()):
        ev = build_evolution(config)
        psi0 = build_initial_state(config)
        for _ in range(20):
            tau = float(rng.uniform(-20, 20))
            moved = propagate(ev, psi0, tau)
            drift = max(
                abs(moved.amplitude(idx) - psi0.amplitude(idx)) for idx in ev.basis
            )
            assert drift < TOL


def test_one_liar_trace_values():
    rows = probability_trace(one_liar(), (1, True), (0.0, 0.5, 1.0, 1.5, 2.0))
    by_t = {r.t: r for r in rows}
    assert by_t[0.0].p_true == pytest.approx(1.0, abs=TOL)
    assert by_t[0.5].p_true == pytest.approx(0.5, abs=TOL)
    assert by_t[0.5].p_false == pytest.approx(0.5, abs=TOL)
    assert by_t[1.0].p_false == pytest.approx(1.0, abs=TOL)
    assert by_t[1.5].p_true == pytest.approx(0.5, abs=TOL)
    assert by_t[2.0].p_true == pytest.approx(1.0, abs=TOL)


def test_trace_rows_ordered_time_major_sentence_minor():
    rows = probability_trace(simple_liar(3), (1, True), (0.0, 0.25), sentences=(3, 1))
    assert [(r.t, r.sentence) for r in rows] == [
        (0.0, 1),
        (0.0, 3),
        (0.25, 1),
        (0.25, 3),
    ]


def test_trace_time_scale_stretches_time_axis():
    scale = math.pi / 2
    rows = probability_trace(
        one_liar(), (1, True), (0.0, scale / 2, scale), time_scale=scale
    )
    by_t = {r.t: r for r in rows}
    assert by_t[scale].p_false == pytest.approx(1.0, abs=TOL)
    assert by_t[scale / 2].p_true == pytest.approx(0.5, abs=TOL)


def test_trace_raw_collapse_keeps_measurement_weight():
    m = 8
    rows = probability_trace(
        eight_liar(), (1, True), (0.0, 8.0), renormalize=False
    )
    by = {(r.t, r.sentence): r for r in rows}
    # raw probabilities carry the initial outcome weight 1/(2m)
    assert by[(0.0, 1)].p_true == pytest.approx(1 / (2 * m), abs=TOL)
    assert by[(8.0, 1)].p_false == pytest.approx(1 / (2 * m), abs=TOL)


def test_renormalized_collapse_weight_is_one_at_every_size():
    # the trace kernel's weight 1.0 stands for the exact route's float
    # (a / sqrt(a**2))**2 with a = 1/sqrt(N): checked at every even N
    for size in range(2, 2 * MAX_SENTENCES + 1, 2):
        a = _uniform_amplitude(size)
        assert (a / math.sqrt(a**2)) ** 2 == 1.0, size


def test_trace_near_zero_tau_is_the_integer_limit():
    # pi * tau loses bits in the subnormal range; the closed form gave
    # p_true 1.00041950707 at tau = 3e-320 and 0.999685559313 at 1e-320
    for config, times, scale in (
        (eight_liar(), (1e-20, 2e-20, 3e-20), 1e300),
        (one_liar(), (1e-320, -1e-320, 5e-324), 1.0),
    ):
        for r in probability_trace(config, (1, True), times, time_scale=scale):
            assert (r.p_true, r.p_false) == (float(r.sentence == 1), 0.0), r
    sweep = [s * 10.0**e for e in range(-323, -250) for s in (1, -1)]
    for r in probability_trace(eight_liar(), (1, True), sweep):
        if r.sentence == 1:
            assert 1.0 - 1e-15 <= r.p_true <= 1.0, r


def test_trace_additivity_of_hypothesis_probabilities():
    rows = probability_trace(simple_liar(2), (1, True), tuple(time_grid(4.0, 0.25)))
    for r in rows:
        assert 0.0 <= r.p_true <= 1.0 + 1e-12
        assert r.p_true + r.p_false <= 1.0 + 1e-12


ORACLE_CONFIGS = (
    [c for m in (1, 2, 3) for c in enumerate_paradoxical(m)]
    + [eight_liar()]
    + [simple_liar(m) for m in range(5, 11)]
)
# t = 9.1 at scale 1.3 gives tau = 6.999999999999999, one ulp below 7.
ORACLE_TIMES = (0.0, 0.3, 1.0, 1.3, 2.6, 3.9, 4.75, 9.1, 13.0, 17.3, -3.25)


@pytest.mark.parametrize(
    "config", ORACLE_CONFIGS, ids=lambda c: f"m{c.m}-{c.referent}-{c.negating}"
)
def test_trace_matches_dense_propagator(config):
    """The closed-form kernel against the dense spectral route: off-integer
    rows to 1e-10, integral rows exactly the exact-route value or 0.0."""
    m = config.m
    ev = build_evolution(config)
    psi0 = build_initial_state(config)
    targets = [(i, v) for i in range(1, m + 1) for v in (True, False)]
    for scale in (1.0, 1.3, math.pi / 2):
        for start in targets:
            for renormalize in (True, False):
                psi, _ = collapse(
                    psi0, hypothesis_projector(*start, m), renormalize=renormalize
                )
                vec = np.array([psi.amplitude(idx) for idx in ev.basis])
                rows = probability_trace(
                    config, start, ORACLE_TIMES, time_scale=scale,
                    renormalize=renormalize,
                )
                by = {(r.t, r.sentence): r for r in rows}
                for t in ORACLE_TIMES:
                    tau = t / scale
                    if tau == int(tau):
                        phi = apply_steps(ev, psi, int(tau))
                    else:
                        phi = SparseState(
                            m, dict(zip(ev.basis, propagator(ev, tau) @ vec))
                        )
                    for i, v in targets:
                        want = projection_probability(phi, hypothesis_projector(i, v, m))
                        row = by[(t, i)]
                        got = row.p_true if v else row.p_false
                        if tau == int(tau):
                            assert got == want, (scale, start, t, i, v)
                        else:
                            assert abs(got - want) <= 1e-10, (scale, start, t, i, v)


def test_trace_is_the_same_across_kernel_blocks():
    # one kernel call over 3001 times agrees with a call per time
    times = time_grid(300.0, 0.1)
    rows = probability_trace(eight_liar(), (2, False), times)
    assert len(rows) == 8 * len(times)
    for k in (0, 1023, 1024, 2047, 2048, 3000):
        assert rows[8 * k : 8 * k + 8] == probability_trace(
            eight_liar(), (2, False), [times[k]]
        )


def test_trace_validation_errors():
    with pytest.raises(OutOfRange):
        probability_trace(one_liar(), (2, True), (0.0,))
    with pytest.raises(OutOfRange):
        probability_trace(one_liar(), (1, True), (0.0,), sentences=(0,))
    with pytest.raises(OutOfRange, match="no sentences to trace"):
        probability_trace(one_liar(), (1, True), (0.0,), sentences=())
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            probability_trace(one_liar(), (1, True), (0.0,), time_scale=scale)
    with pytest.raises(OutOfRange, match="must be finite"):
        probability_trace(one_liar(), (1, True), (0.0, 1e308), time_scale=1e-10)


def test_trace_sentences_are_sorted_unique_and_checked():
    assert trace_sentences(None, 3) == (1, 2, 3)
    assert trace_sentences([3, 1, 3], 3) == (1, 3)
    for bad in ([0], [1, 4], []):
        with pytest.raises(OutOfRange):
            trace_sentences(bad, 3)


def test_time_grid():
    grid = time_grid(2.0, 0.5)
    assert grid == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert len(time_grid(2.0, 0.05)) == grid_size(2.0, 0.05) == 41
    assert time_grid(0.0, 0.1) == (0.0,)
    # the count alone, however large, allocates nothing
    assert grid_size(1e300, 1e-7) == int(1e300 / 1e-7) + 1
    with pytest.raises(OutOfRange):
        time_grid(1.0, 0.0)
    with pytest.raises(OutOfRange):
        time_grid(-1.0, 0.5)
    for t_max, dt in ((1e308, 1e-308), (math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf)):
        with pytest.raises(OutOfRange):
            time_grid(t_max, dt)
        with pytest.raises(OutOfRange):
            grid_size(t_max, dt)


def test_trace_row_cap():
    assert trace_row_count(MAX_TRACE_ROWS, 1) == MAX_TRACE_ROWS
    assert trace_row_count(MAX_TRACE_ROWS // 8, 8) == MAX_TRACE_ROWS
    with pytest.raises(OutOfRange, match=f"= {MAX_TRACE_ROWS + 1} rows"):
        trace_row_count(MAX_TRACE_ROWS + 1, 1)
    with pytest.raises(OutOfRange, match=f"= {MAX_TRACE_ROWS + 8} rows"):
        trace_row_count(MAX_TRACE_ROWS // 8 + 1, 8)
    # both trace routes check the cap before any kernel work
    with pytest.raises(OutOfRange, match="exceeds MAX_TRACE_ROWS"):
        trace_csv_chunks(eight_liar(), (1, True), 1e300, 1e-7)
    with pytest.raises(OutOfRange, match="exceeds MAX_TRACE_ROWS"):
        trace_csv_chunks(one_liar(), (1, True), float(MAX_TRACE_ROWS), 1.0)


def test_trace_csv_chunks_validate_on_the_call():
    # nothing is consumed: the errors come from the call itself
    with pytest.raises(OutOfRange):
        trace_csv_chunks(one_liar(), (2, True), 1.0, 0.5)
    with pytest.raises(OutOfRange):
        trace_csv_chunks(one_liar(), (1, True), 1.0, 0.5, sentences=(2,))
    # with no rows the row cap never applies, so this grid would be walked
    with pytest.raises(OutOfRange, match="no sentences to trace"):
        trace_csv_chunks(one_liar(), (1, True), 1e7, 1.0, sentences=())
    with pytest.raises(OutOfRange, match="must be finite"):
        trace_csv_chunks(one_liar(), (1, True), 1e300, 1e299, time_scale=1e-10)
    chunks = list(trace_csv_chunks(eight_liar(), (1, True), 300.0, 0.1, header_lines=("x",)))
    assert chunks[0] == "# x\nt,sentence,p_true,p_false\n"
    assert len(chunks) == 1 + 3  # header, then 3001 times in blocks of 1024
    rows = probability_trace(eight_liar(), (1, True), time_grid(300.0, 0.1))
    assert "".join(chunks) == trace_to_csv(rows, header_lines=("x",))


@pytest.mark.parametrize("line", ["a\nb", "a\rb", "a\r\nb"], ids=["lf", "cr", "crlf"])
def test_trace_writers_refuse_a_header_line_with_a_line_break(line):
    # the text after the break would be a CSV data line, not a comment
    header = ("command=trace", f"config={line}")
    message = f"trace header line {header[1]!r} holds a line break"
    rows = probability_trace(one_liar(), (1, True), (0.0,))
    with pytest.raises(OutOfRange) as failure:
        trace_to_csv(rows, header_lines=header)
    assert str(failure.value) == message
    with pytest.raises(OutOfRange) as failure:
        trace_csv_chunks(one_liar(), (1, True), 0.0, 0.5, header_lines=header)
    assert str(failure.value) == message


def test_trace_csv_format():
    rows = probability_trace(one_liar(), (1, True), (0.0, 0.5))
    text = trace_to_csv(rows, header_lines=("command=trace", "config=one-liar"))
    lines = text.splitlines()
    assert lines[0] == "# command=trace"
    assert lines[1] == "# config=one-liar"
    assert lines[2] == "t,sentence,p_true,p_false"
    assert len(lines) == 3 + len(rows)
    assert lines[4].startswith("0.5,1,0.5,")


def test_trace_csv_precision():
    rows = probability_trace(one_liar(), (1, True), (0.25,))
    wide = trace_to_csv(rows, precision=15).splitlines()[-1]
    narrow = trace_to_csv(rows, precision=3).splitlines()[-1]
    assert narrow == "0.25,1,0.854,0.146"
    assert len(wide) > len(narrow)


def test_format_distinct_keeps_the_sign_of_zero_and_the_shape():
    # np.unique on the floats would merge -0.0 into 0.0 and print "0" for
    # both; the kernel never yields -0.0, so only this test reaches the case
    values = np.array([[-0.0, 0.0, 0.0], [5e-324, 1.0, -0.0]])
    text = _format_distinct(values, 12)
    assert text.shape == values.shape
    assert text.tolist() == [["-0", "0", "0"], ["4.94065645841e-324", "1", "-0"]]
    for precision in (1, 17):
        g = f"%.{precision}g"
        assert _format_distinct(values, precision).tolist() == [
            [g % v for v in row] for row in values.tolist()
        ]
