"""Discrete step evolution on the 2m-dimensional reasoning subspace and its
continuous one-parameter extension.

One reasoning step advances the cycle basis by one position, so in step
order the evolution is the cyclic-shift permutation (ones on the lower
off-diagonal plus the wrap-around corner).  A relabeled cyclic shift is
diagonal in the discrete Fourier frame, so the spectral data is written
down analytically from the 2m-th roots of unity; no iterative eigensolver
is involved and repeated builds are bit-identical.

Traces and propagation run in cycle positions 0..2m-1.  U(tau) is
circulant, so ``propagate`` applies its first column as a circular
convolution, and after the start hypothesis is collapsed every trace
probability is the closed-form Fejer kernel of tau minus the target's
displacement (see ``_trace_kernel``, whose kernel both
``probability_trace`` and ``trace_csv_chunks`` apply).  Because
U(tau + 2m) = U(tau), the rows at tau depend on it only through its time
class (``_time_class``): the value of tau - round(tau) together with
round(tau) mod 2m.  ``trace_csv_chunks`` numbers the classes of a block
with one sort, and computes and formats each class once when the block
repeats its classes (a long grid on a small cycle).  Integer times take
the exact permutation route.  The kernel, ``propagate`` and ``propagator``
all split tau = w + f exactly, with w = round(tau), and apply
U_D^(w mod 2m) U(f), so the eigenphases multiply only the fraction and a
large tau keeps its bits.  The two oracle routes keep their own split on
purpose: ``verify`` checks the kernel against them, so they share no code
with it.  The dense spectral frame (``fourier_frame``,
``propagator``, ``hamiltonian``) is built only on demand and is kept as the
verification oracle for small m.

Branch convention, which pins every continuous-time quantity:
U(tau) = exp(tau * log U_D) with the principal logarithm taken
eigenvalue-wise, eigenphases in (-pi, pi] and the phase of -1 mapped to +pi.
Then U(1) equals the discrete step exactly, integer-step behavior is
independent of the branch, and the generator H = i log U_D is Hermitian
with a single zero mode spanned by the uniform superposition of the cycle
basis (which is why the unreasoned initial state is time invariant).
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .config import Configuration, check_sentence, is_json_int
from .errors import OutOfRange, SupportOutsideSubspace
from .inference import reasoning_cycle
from .statespace import SparseState, TensorIndex, _uniform_amplitude, cycle_states

# Rows (times x sentences) per block of a trace: the kernel temporaries and
# the text of a block stay bounded however long the grid and however many
# sentences are traced.
_TRACE_BLOCK_ROWS = 8192
# Largest trace (times x sentences) accepted.  At about 40 bytes a row it
# bounds the output near 40 GB, and a larger request is rejected before any
# allocation.
MAX_TRACE_ROWS = 10**9


def principal_phases(size: int) -> np.ndarray:
    """Principal eigenphases of the size-cycle shift as a float array:
    -2*pi*k/size wrapped into (-pi, pi], with -pi mapped to +pi."""
    import numpy as np

    raw = -2.0 * math.pi * np.arange(size) / size
    return np.where(raw <= -math.pi, raw + 2.0 * math.pi, raw) + 0.0


def fourier_frame(size: int) -> np.ndarray:
    """Unitary frame F with F[t, k] = exp(2i*pi*t*k/size)/sqrt(size); column
    k is the shift eigenvector with eigenvalue exp(i * principal_phases[k])."""
    import numpy as np

    t = np.arange(size)
    return np.exp(2j * np.pi * np.outer(t, t) / size) / np.sqrt(size)


def frame_operator(size: int, values: np.ndarray) -> np.ndarray:
    """F diag(values) F^dagger for F = ``fourier_frame(size)``: the dense
    operator with eigenvalue values[k] on shift eigenvector k."""
    import numpy as np

    f = fourier_frame(size)
    return f @ np.diag(values) @ f.conj().T


def _check_finite_time(tau: float) -> None:
    if not math.isfinite(tau):
        raise OutOfRange(f"evolution time must be finite, got {tau}")


def _is_real(x: object) -> bool:
    """True for a real number: ``numbers.Real``, but not ``bool``."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _too_large(what: str) -> OutOfRange:
    """The error for an integer ``what`` past the float range: finite, but
    its float would be infinite."""
    return OutOfRange(f"{what} must be finite, got one too large for a float")


@dataclass(frozen=True, eq=False)
class SubspaceEvolution:
    """Spectral description of one reasoning step on the cycle basis.

    ``basis`` lists the 2m cycle states in step order, and one step moves
    position t to (t + 1) mod 2m.  With the unitary frame
    F = ``fourier_frame(size)`` and theta = ``principal_phases(size)``,
    U_D = F diag(exp(i*theta)) F^dagger exactly.
    """

    basis: tuple[TensorIndex, ...]

    @cached_property
    def positions(self) -> dict[TensorIndex, int]:
        """The position of each cycle state in ``basis``."""
        return {idx: t for t, idx in enumerate(self.basis)}

    @property
    def size(self) -> int:
        return len(self.basis)

    def position(self, idx: TensorIndex) -> int:
        try:
            return self.positions[tuple(idx)]
        except KeyError:
            raise SupportOutsideSubspace(
                f"tuple {tuple(idx)} is not one of the {self.size} cycle states"
            ) from None


def build_evolution(config: Configuration) -> SubspaceEvolution:
    """The evolution on the cycle states of ``config``."""
    return SubspaceEvolution(cycle_states(config))


def step_matrix(ev: SubspaceEvolution) -> np.ndarray:
    """The step permutation as a dense matrix on the cycle basis: column t
    holds a 1 in row (t + 1) mod size."""
    import numpy as np

    return np.roll(np.eye(ev.size), 1, axis=0)


def hamiltonian(ev: SubspaceEvolution) -> np.ndarray:
    """Generator H = i log U_D on the cycle basis; Hermitian, with
    eigenvalues -theta_k over the principal eigenphases."""
    return frame_operator(ev.size, -principal_phases(ev.size))


def propagator(ev: SubspaceEvolution, tau: float) -> np.ndarray:
    """U(tau) = exp(tau * log U_D) on the cycle basis via the dense spectral
    frame; the reference that the circulant routes are checked against.

    As in ``_cycle_kernel``, tau = w + f is split exactly first, with
    w = round(tau): U(tau) = U_D^(w mod size) U(f), so the phases never
    multiply a large tau and the fraction keeps its bits.
    """
    _check_finite_time(tau)
    import numpy as np

    whole = round(float(tau))
    phases = np.exp(1j * principal_phases(ev.size) * (tau - whole))
    # U_D^shift U(f): its row t is row t - shift of U(f)
    shift = whole % ev.size
    return frame_operator(ev.size, phases).take(range(-shift, ev.size - shift), axis=0)


def propagate(ev: SubspaceEvolution, state: SparseState, tau: float) -> SparseState:
    """Evolve ``state`` for ``tau`` reasoning steps (tau may be fractional).

    An integral tau takes the exact permutation route, where the branch
    convention makes U(tau) a plain power of the step matrix.  Otherwise
    U(tau) is circulant with first column c = ifft(exp(i*theta*tau)) over
    the principal eigenphases, and it acts on the position vector v as the
    circular convolution c * v = ifft(exp(i*theta*tau) fft(v)).  As in
    ``propagator``, tau = w + f is split exactly first: v moves w mod size
    positions as in ``apply_steps``, and the convolution runs with f.
    """
    _check_finite_time(tau)
    if tau == int(tau):
        return apply_steps(ev, state, int(tau))
    import numpy as np

    whole = round(float(tau))
    vec = np.zeros(ev.size, dtype=complex)
    for idx, a in state.amplitudes.items():
        vec[(ev.position(idx) + whole) % ev.size] = a
    phases = np.exp(1j * principal_phases(ev.size) * (tau - whole))
    out = np.fft.ifft(phases * np.fft.fft(vec))
    return SparseState(state.m, {idx: complex(out[t]) for t, idx in enumerate(ev.basis)})


def apply_steps(ev: SubspaceEvolution, state: SparseState, count: int = 1) -> SparseState:
    """Apply the step permutation ``count`` times, exactly (no floats);
    ``count`` must be an ``int``, not a bool."""
    if not is_json_int(count):
        raise OutOfRange(f"step count must be an integer, got {count!r}")
    shift = count % ev.size
    moved: dict[TensorIndex, complex] = {}
    for idx, a in state.amplitudes.items():
        moved[ev.basis[(ev.position(idx) + shift) % ev.size]] = a
    return SparseState(state.m, moved)


def _time_class(tau: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The time class of every tau on the size-cycle: frac = tau - round(tau),
    with |frac| <= 1/2, and round(tau) mod size, both exact floats.

    U(tau) = U_D^(round(tau) mod size) U(frac), so ``_cycle_kernel`` reads
    tau only through these two numbers, and ``trace_csv_chunks`` numbers the
    classes of a block with them.
    """
    import numpy as np

    whole = np.round(tau)
    return tau - whole, np.mod(whole, size)


def _cycle_kernel(tau: np.ndarray, d: np.ndarray, size: int) -> np.ndarray:
    """|U(tau)[d, 0]|^2 on the size-cycle for every tau (rows) and
    displacement d (columns): the Fejer kernel of x = tau - d off the
    integers, and the exact indicator of x mod size == 0 on them.

    tau is read only through its ``_time_class``, so every tau of a class
    gives the same row.  Within 1e-300 of an integer the indicator is taken
    too: there the kernel equals its integer limit in double precision,
    while pi * frac loses bits as it nears the subnormal range and the
    closed form drifts (1.0004 at frac = 3e-320 on 16 positions).
    """
    import numpy as np

    # Reduce x exactly before any multiplication by pi: the whole steps of x
    # are reduced mod size into [-size/2, size/2) in integer arithmetic.
    half = size // 2
    frac, shift = _time_class(tau, size)
    steps = np.mod(shift[:, None] - d + half, size) - half
    p = (steps == 0).astype(float)
    off = np.abs(frac) >= 1e-300
    y = frac[off, None] + steps[off]
    p[off] = (np.sin(np.pi * frac[off, None]) / (size * np.sin(np.pi * y / size))) ** 2
    return p


@dataclass(frozen=True)
class TraceRow:
    """Truth/falsehood hypothesis probabilities for one sentence at one time."""

    t: float
    sentence: int
    p_true: float
    p_false: float


def trace_row_count(times: int, sentences: int) -> int:
    """Row count of a trace of ``times`` times over ``sentences`` sentences,
    rejected with ``OutOfRange`` above ``MAX_TRACE_ROWS``."""
    rows = times * sentences
    if rows > MAX_TRACE_ROWS:
        raise OutOfRange(
            f"trace of {times} times x {sentences} sentences = {rows} rows"
            f" exceeds MAX_TRACE_ROWS = {MAX_TRACE_ROWS}"
        )
    return rows


def trace_sentences(sentences: Iterable[int] | None, m: int) -> tuple[int, ...]:
    """The sentences a trace reports: all m when ``sentences`` is None, else
    the given ones sorted, deduplicated, non-empty and checked against m."""
    if sentences is None:
        return tuple(range(1, m + 1))
    sentences = tuple(sentences)
    # checked before sorting: a str does not sort with an int, and 1.0 or
    # True would merge with 1
    for i in sentences:
        check_sentence(i, m)
    if not sentences:
        raise OutOfRange("no sentences to trace")
    return tuple(sorted(set(sentences)))


def _trace_kernel(
    config: Configuration,
    initial_measurement: tuple[int, bool],
    count: int,
    t_bound: float,
    sentences: Iterable[int] | None,
    time_scale: float,
    renormalize: bool,
) -> tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray]]:
    """Validate a trace of ``count`` times, none above ``t_bound`` in
    magnitude, and return its ``trace_sentences`` with its kernel.

    Every check runs on the call, so the caller may open its output once
    this returns, and none of them loads numpy: the displacements are a
    list, and numpy, their array and ``_cycle_kernel`` wait for the
    kernel's first call.  The kernel maps an array t of times to p, where
    p[:, :k] holds p_true and p[:, k:] p_false of the k sentences at t.

    The collapse leaves one cycle position, and each hypothesis sits at its
    own position (no degeneracy), d steps along the reasoning walk from the
    start.  With N = 2m and w the squared norm of the collapsed state, its
    probability at time tau is therefore w times the Fejer kernel
    sin^2(pi x) / (N^2 sin^2(pi x / N)) of x = tau - d, evaluated in closed
    form, vectorized over times and hypotheses.  Integral tau takes the
    exact route instead: w when (tau - d) mod N == 0, else 0.
    """
    m = config.m
    try:
        start_sentence, start_value = initial_measurement
    except (TypeError, ValueError):
        raise OutOfRange(
            "initial measurement must be a (sentence, truth value) pair,"
            f" got {reprlib.repr(initial_measurement)}"
        ) from None
    sentences = trace_sentences(sentences, m)
    if not _is_real(time_scale):
        raise OutOfRange(
            f"time scale must be a real number, got {reprlib.repr(time_scale)}"
        )
    if not 0 < time_scale < math.inf:
        raise OutOfRange(f"time scale must be finite and positive, got {time_scale}")
    try:
        time_scale = float(time_scale)
    except OverflowError:
        raise _too_large("time scale") from None
    if not isinstance(renormalize, bool):
        raise OutOfRange(
            f"renormalize must be True or False, got {reprlib.repr(renormalize)}"
        )
    walk = reasoning_cycle(config)
    origin = walk.step_of(start_sentence, start_value)
    trace_row_count(count, len(sentences))
    # |t| <= t_bound, so every tau is finite when this one is.
    _check_finite_time(t_bound / time_scale)
    size = 2 * m
    # Displacements of the traced hypotheses: all "true" columns, then all
    # "false" columns.
    d = [walk.step_of(i, v) - origin for v in (True, False) for i in sentences]
    # The collapse weight w: the kept term has the initial amplitude
    # a = 1/sqrt(N), and renormalizing divides it by its norm.  The exact
    # route's float (a / sqrt(a**2))**2 is 1.0 at every even N up to
    # 2 * MAX_SENTENCES, as a test checks one by one.
    weight = 1.0 if renormalize else _uniform_amplitude(size) ** 2

    def kernel(t: np.ndarray) -> np.ndarray:
        import numpy as np  # on the first call: a validated trace loads it here

        return weight * _cycle_kernel(t / time_scale, np.array(d), size)

    return sentences, kernel


def probability_trace(
    config: Configuration,
    initial_measurement: tuple[int, bool],
    times: tuple[float, ...] | list[float],
    sentences: tuple[int, ...] | list[int] | None = None,
    time_scale: float = 1.0,
    renormalize: bool = True,
) -> tuple[TraceRow, ...]:
    """Truth and falsehood probability traces after an initial measurement.

    The initial state is collapsed by the hypothesis projector of
    ``initial_measurement`` (renormalized unless ``renormalize`` is False,
    in which case probabilities keep the raw 1/(2m) scale), then evolved to
    each requested time.  Times are in output units of ``time_scale`` per
    reasoning step, i.e. the evolution parameter is t / time_scale.  Rows
    are ordered time-major, sentence-minor (ascending).  The kernel is the
    closed form described at ``_trace_kernel``.  ``times`` must be a
    one-dimensional sequence of real numbers (``bool`` is not one).
    """
    import numpy as np

    t = np.asarray(times, dtype=object)
    if t.ndim != 1 or not all(map(_is_real, t.flat)):
        raise OutOfRange("times must be a one-dimensional sequence of real numbers")
    try:
        t = t.astype(float)
    except OverflowError:
        raise _too_large("evolution time") from None
    sentences, kernel = _trace_kernel(
        config,
        initial_measurement,
        len(t),
        float(np.abs(t).max(initial=0.0)),
        sentences,
        time_scale,
        renormalize,
    )
    k = len(sentences)
    p = kernel(t)
    rows = []
    for t_row, p_true, p_false in zip(t.tolist(), p[:, :k].tolist(), p[:, k:].tolist()):
        rows.extend(map(TraceRow, [t_row] * k, sentences, p_true, p_false))
    return tuple(rows)


def grid_size(t_max: float, dt: float) -> int:
    """Number of times in the grid 0, dt, 2*dt, ... up to and including
    t_max."""
    if not (_is_real(t_max) and _is_real(dt)):
        raise OutOfRange(
            f"t_max and dt must be real numbers, got t_max={reprlib.repr(t_max)},"
            f" dt={reprlib.repr(dt)}"
        )
    if not (0 < dt < math.inf and 0 <= t_max < math.inf):
        raise OutOfRange(
            f"need finite dt > 0 and t_max >= 0, got dt={dt}, t_max={t_max}"
        )
    try:
        steps = t_max / dt
    except OverflowError:
        raise _too_large("t_max and dt") from None
    if not math.isfinite(steps):
        raise OutOfRange(f"t_max/dt must be finite, got t_max={t_max}, dt={dt}")
    return int(math.floor(steps + 1e-9)) + 1


def time_grid(t_max: float, dt: float) -> tuple[float, ...]:
    """Deterministic grid 0, dt, 2*dt, ... up to and including t_max."""
    return tuple(j * dt for j in range(grid_size(t_max, dt)))


def check_precision(precision: int, what: str = "precision") -> int:
    """Return ``precision`` if it is a count of significant digits: an
    integer (``is_json_int``) in 1..17; ``what`` names it in the error."""
    if not is_json_int(precision):
        raise OutOfRange(f"{what} must be an integer, got {precision!r}")
    if not 1 <= precision <= 17:
        raise OutOfRange(f"{what} must be in 1..17, got {precision}")
    return precision


def _csv_header(header_lines: Iterable[str]) -> str:
    """The comment lines and the column line of a trace CSV.  The lines are
    a sequence of ``str``, not one ``str``, which would give a line per
    character.  A line break inside a header line would start a line that
    is not a comment."""
    if isinstance(header_lines, str):
        raise OutOfRange(
            "trace header lines must be a sequence of str,"
            f" got the str {reprlib.repr(header_lines)}"
        )
    lines = list(header_lines)
    for line in lines:
        if not isinstance(line, str):
            raise OutOfRange(f"trace header line must be a str, got {reprlib.repr(line)}")
        if "\n" in line or "\r" in line:
            raise OutOfRange(f"trace header line {line!r} holds a line break")
    return "".join(f"# {line}\n" for line in lines) + "t,sentence,p_true,p_false\n"


def _format_distinct(values: np.ndarray, precision: int) -> np.ndarray:
    """``%.<precision>g`` of every float in ``values``, as an object array of
    strings of the same shape, formatting each distinct value once.

    Values are told apart by their bit patterns: ``np.unique`` on the floats
    would merge -0.0 with 0.0, which print as "-0" and "0".
    """
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    g = f"%.{precision}g"
    text = np.array([g % v for v in bits.view(np.float64).tolist()], dtype=object)
    # the shape of the inverse differs between numpy versions
    return text[inverse.reshape(values.shape)]


def trace_to_csv(
    rows: tuple[TraceRow, ...] | list[TraceRow],
    header_lines: tuple[str, ...] | list[str] = (),
    precision: int = 12,
) -> str:
    """Render rows as CSV: ``t,sentence,p_true,p_false`` with the given
    number of significant digits (``check_precision``); optional comment
    lines precede the header."""
    g = f"%.{check_precision(precision)}g"
    row = f"{g},%d,{g},{g}\n"
    header = _csv_header(header_lines)
    for r in rows:
        if not is_json_int(r.sentence):
            raise OutOfRange(f"trace row sentence must be an integer, got {r.sentence!r}")
    return header + "".join(row % (r.t, r.sentence, r.p_true, r.p_false) for r in rows)


def trace_csv_chunks(
    config: Configuration,
    initial_measurement: tuple[int, bool],
    t_max: float,
    dt: float,
    sentences: tuple[int, ...] | list[int] | None = None,
    time_scale: float = 1.0,
    renormalize: bool = True,
    header_lines: tuple[str, ...] | list[str] = (),
    precision: int = 12,
) -> Iterator[str]:
    """The CSV of ``probability_trace`` over ``time_grid(t_max, dt)`` as
    ``trace_to_csv`` renders it, as text chunks: the header, then one chunk
    per block of whole times, at most ``_TRACE_BLOCK_ROWS`` rows each.

    Every check, the row cap included, runs on the call and loads no numpy
    (see ``_trace_kernel``).  The chunks are computed as they are consumed:
    the header first, so it can be written before numpy loads, then the
    blocks, the first of which loads numpy and calls the kernel.  The times
    are ``np.arange(lo, hi) * dt``, bit-identical to ``time_grid``'s
    ``j * dt``, and each is formatted once for all its sentences.

    Time classes: U(tau + 2m) = U(tau), and ``_cycle_kernel`` reads
    tau = t / time_scale only through its ``_time_class``, the value of
    frac = tau - round(tau) together with round(tau) mod 2m, so the times of
    a class have the same rows after the time.  Each block numbers its
    classes with one sort, ``np.unique`` of frac + 1j * (round(tau) mod 2m).
    Equal complex keys are exactly "the kernel reads the same two numbers":
    they merge only the fractions +0.0 and -0.0, which both take the exact
    integer route, and -0.0 does not arise, since t >= 0 on the grid and so
    frac is +0.0 at the integers.  The block picks its route from the count:

    - More than half as many classes as times (a grid that does not repeat
      within the block): the kernel fills the whole block, each distinct
      probability is formatted once with ``_format_distinct``, and the
      strings of (t, p_true, p_false) fill a ``%s`` row template in one
      ``%`` operation.
    - At most half: the kernel and ``_format_distinct`` run on one time of
      each class that the last block of this route did not hold, each
      class's k row tails ``",i,p_true,p_false\n"`` are built once, and a
      time t is written as ``t.join(("", *tails))``.  Every time of a class
      runs the same float operations, so the bytes are those of the fill.
      Only that last block's tails are kept, so they never outnumber one
      block's times.
    """
    count = grid_size(t_max, dt)
    check_precision(precision)
    sentences, kernel = _trace_kernel(
        config,
        initial_measurement,
        count,
        (count - 1) * dt,
        sentences,
        time_scale,
        renormalize,
    )
    header = _csv_header(header_lines)
    row = "".join(f"%s,{i},%s,%s\n" for i in sentences)
    tails = [f",{i},%s,%s\n" for i in sentences]
    k = len(sentences)
    per_block = max(1, _TRACE_BLOCK_ROWS // k)
    size = 2 * config.m
    scale = float(time_scale)  # accepted by _trace_kernel, so it converts

    def chunks():
        yield header
        import numpy as np  # after the header: it leaves before numpy loads

        kept = {}  # class key -> ("", *row tails), for the last class-route block
        for lo in range(0, count, per_block):
            t = np.arange(lo, min(lo + per_block, count)) * dt
            t_text = _format_distinct(t, precision)
            frac, shift = _time_class(t / scale, size)
            # the shape of the inverse differs between numpy versions
            keys, first, of_time = np.unique(
                frac + 1j * shift, return_index=True, return_inverse=True
            )
            if 2 * len(keys) > len(t):
                p = _format_distinct(kernel(t), precision)
                cells = np.empty((len(t), k, 3), dtype=object)
                cells[:, :, 0] = t_text[:, None]
                cells[:, :, 1] = p[:, :k]
                cells[:, :, 2] = p[:, k:]
                yield (row * len(t)) % tuple(cells.ravel().tolist())
                continue
            keys, of_time = keys.tolist(), of_time.reshape(-1).tolist()
            texts = list(map(kept.get, keys))
            new = [c for c, text in enumerate(texts) if text is None]
            if new:
                p = _format_distinct(kernel(t[first[new]]), precision)
                for c, p_true, p_false in zip(new, p[:, :k].tolist(), p[:, k:].tolist()):
                    texts[c] = ("", *map(str.__mod__, tails, zip(p_true, p_false)))
            kept = dict(zip(keys, texts))
            yield "".join(map(str.join, t_text.tolist(), map(texts.__getitem__, of_time)))

    return chunks()
