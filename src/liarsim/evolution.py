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
displacement (see ``_trace_kernel``, whose class map and kernel both
``probability_trace`` and ``trace_csv_chunks`` apply).  Because
U(tau + 2m) = U(tau), the rows at tau depend on it only through its time
class, and ``_time_class`` makes that class one complex key: the exact
tau - round(tau) as its real part and round(tau) mod 2m as its imaginary
part.  The kernel takes the key and nothing else, so equal keys give equal
rows by construction; ``trace_csv_chunks`` numbers the keys of a block
with one sort, and computes and formats each class once when the block
repeats its classes (a long grid on a small cycle).  Integer times take
the exact permutation route.  The key, ``propagate`` and ``propagator``
all split tau = w + f exactly, with w = round(tau), and apply
U_D^(w mod 2m) U(f), so the eigenphases multiply only the fraction and a
large tau keeps its bits.  The two oracle routes keep their own split on
purpose: ``verify`` checks the kernel against them, so they share no code
with it.  The dense spectral frame (``fourier_frame``,
``propagator``, ``hamiltonian``) is built only on demand and is kept as the
verification oracle for small m.

Every time argument (tau, the times of a trace, ``time_scale``, ``t_max``
and ``dt``) is read once, at the call, by ``_real``: it must be a real
number other than a ``bool`` whose float is finite, and the code after
uses only that float, whatever type was passed.  An integer up to 2**53
therefore gives the output of its float.  Only ``propagate`` keeps an
integral tau exact, on the permutation route.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .config import (
    MAX_SENTENCES,
    Configuration,
    check_int,
    check_sentence,
    check_truth_value,
    quote,
)
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
    k is the shift eigenvector with eigenvalue exp(i * principal_phases[k]).
    ``size`` is an integer in 1..2 * MAX_SENTENCES (``check_int``)."""
    check_int(size, "frame size", 1, 2 * MAX_SENTENCES)
    import numpy as np

    t = np.arange(size)
    return np.exp(2j * np.pi * np.outer(t, t) / size) / np.sqrt(size)


def frame_operator(size: int, values: np.ndarray) -> np.ndarray:
    """F diag(values) F^dagger for F = ``fourier_frame(size)``: the dense
    operator with eigenvalue values[k] on shift eigenvector k."""
    import numpy as np

    f = fourier_frame(size)
    return f @ np.diag(values) @ f.conj().T


def _is_real(x: object) -> bool:
    """True for a real number: ``numbers.Real``, but not ``bool``."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real(x: object, what: str) -> float:
    """``x`` as a float: a real number (``_is_real``) whose float is finite,
    so not nan, not an infinity and not an integer past the float range;
    ``what`` names it in the error."""
    if not _is_real(x):
        raise OutOfRange(f"{what} must be a real number, got {quote(x)}")
    try:
        if math.isfinite(value := float(x)):
            return value
    except OverflowError:
        raise OutOfRange(f"{what} must be finite, got one too large for a float") from None
    raise OutOfRange(f"{what} must be finite, got {value}")


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

    As in ``_time_class``, tau = w + f is split exactly first, with
    w = round(tau): U(tau) = U_D^(w mod size) U(f), so the phases never
    multiply a large tau and the fraction keeps its bits.  tau is read as a
    float (``_real``), so an integer that no float holds is rounded first.
    """
    tau = _real(tau, "evolution time")
    import numpy as np

    whole = round(tau)
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
    positions as in ``apply_steps``, and the convolution runs with f.  The
    route is picked on tau as given, so an integer past 2**53 stays exact,
    and a fractional tau is read as a float (``_real``).
    """
    float_tau = _real(tau, "evolution time")
    if tau == int(tau):
        return apply_steps(ev, state, int(tau))
    import numpy as np

    whole = round(float_tau)
    vec = np.zeros(ev.size, dtype=complex)
    for idx, a in state.amplitudes.items():
        vec[(ev.position(idx) + whole) % ev.size] = a
    phases = np.exp(1j * principal_phases(ev.size) * (float_tau - whole))
    out = np.fft.ifft(phases * np.fft.fft(vec))
    return SparseState(state.m, {idx: complex(out[t]) for t, idx in enumerate(ev.basis)})


def apply_steps(ev: SubspaceEvolution, state: SparseState, count: int = 1) -> SparseState:
    """Apply the step permutation ``count`` times, exactly (no floats);
    ``count`` is any integer (``check_int``)."""
    shift = check_int(count, "step count") % ev.size
    moved: dict[TensorIndex, complex] = {}
    for idx, a in state.amplitudes.items():
        moved[ev.basis[(ev.position(idx) + shift) % ev.size]] = a
    return SparseState(state.m, moved)


def _time_class(tau: np.ndarray, size: int) -> np.ndarray:
    """The time class of every tau on the size-cycle as one complex key:
    (tau - round(tau)) + 1j * (round(tau) mod size).  Both parts are exact
    floats; the real part, the fraction, has |frac| <= 1/2, and the
    imaginary part is an integer in 0..size-1.

    U(tau) = U_D^(round(tau) mod size) U(frac), so the key is all that
    ``_cycle_kernel`` needs, and ``trace_csv_chunks`` numbers the classes
    of a block by sorting the keys.
    """
    import numpy as np

    whole = np.round(tau)
    return (tau - whole) + 1j * np.mod(whole, size)


def _cycle_kernel(key: np.ndarray, d: np.ndarray, size: int) -> np.ndarray:
    """|U(tau)[d, 0]|^2 on the size-cycle for the ``_time_class`` key of
    every tau (rows) and every displacement d (columns): the Fejer kernel
    of x = tau - d off the integers, and the exact indicator of
    x mod size == 0 on them.

    Only ``key.real`` and ``key.imag`` are read, so equal keys give equal
    rows.  Within 1e-300 of an integer the indicator is taken too: there the
    kernel equals its integer limit in double precision, while pi * frac
    loses bits as it nears the subnormal range and the closed form drifts
    (1.0004 at frac = 3e-320 on 16 positions).
    """
    import numpy as np

    # Reduce x exactly before any multiplication by pi: the whole steps of x
    # are reduced mod size into [-size/2, size/2) in integer arithmetic.
    half = size // 2
    frac = key.real
    steps = np.mod(key.imag[:, None] - d + half, size) - half
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
    try:
        sentences = tuple(sentences)
    except TypeError:
        raise OutOfRange(
            f"sentences must be an iterable of integers, got {quote(sentences)}"
        ) from None
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
) -> tuple[tuple[int, ...], Callable[..., np.ndarray], Callable[..., np.ndarray]]:
    """Validate a trace of ``count`` float times, none above the float
    ``t_bound`` in magnitude, and return ``(sentences, classes, kernel)``: its
    ``trace_sentences``, its class map and its kernel.

    ``classes(t)`` is the ``_time_class`` key of tau = t / time_scale on
    the 2m-cycle for an array t of times, and ``kernel(key)`` maps those
    keys to p, where p[:, :k] holds p_true and p[:, k:] p_false of the k
    sentences at t.  Every check runs on the call, so the caller may open
    its output once this returns, and none of them loads numpy: the
    displacements are a list, and numpy, their array and ``_cycle_kernel``
    wait for the first call.

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
            f" got {quote(initial_measurement)}"
        ) from None
    sentences = trace_sentences(sentences, m)
    # the range is tested on the float, so a positive scale whose float is
    # 0.0, such as Fraction(1, 10**400), is out of range; the message quotes
    # the scale as given
    if not (scale := _real(time_scale, "time scale")) > 0:
        raise OutOfRange(f"time scale must be positive, got {quote(time_scale)}")
    check_truth_value(renormalize, "renormalize")
    walk = reasoning_cycle(config)
    origin = walk.step_of(start_sentence, start_value)
    trace_row_count(count, len(sentences))
    # |t| <= t_bound, so every tau is finite when this one is.
    _real(t_bound / scale, "evolution time")
    size = 2 * m
    # Displacements of the traced hypotheses: all "true" columns, then all
    # "false" columns.
    d = [walk.step_of(i, v) - origin for v in (True, False) for i in sentences]
    # The collapse weight w: the kept term has the initial amplitude
    # a = 1/sqrt(N), and renormalizing divides it by its norm.  The exact
    # route's float (a / sqrt(a**2))**2 is 1.0 at every even N up to
    # 2 * MAX_SENTENCES, as a test checks one by one.
    weight = 1.0 if renormalize else _uniform_amplitude(size) ** 2

    def classes(t: np.ndarray) -> np.ndarray:
        return _time_class(t / scale, size)

    def kernel(key: np.ndarray) -> np.ndarray:
        import numpy as np  # on the first call: a validated trace loads it here

        return weight * _cycle_kernel(key, np.array(d), size)

    return sentences, classes, kernel


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
    one-dimensional sequence of real numbers (``bool`` is not one), and
    each is read once as a finite float (``_real``).
    """
    import numpy as np

    t = np.asarray(times, dtype=object)
    if t.ndim != 1 or not all(map(_is_real, t.flat)):
        raise OutOfRange("times must be a one-dimensional sequence of real numbers")
    t = np.array([_real(x, "evolution time") for x in t.tolist()], dtype=float)
    sentences, classes, kernel = _trace_kernel(
        config,
        initial_measurement,
        len(t),
        float(np.abs(t).max(initial=0.0)),
        sentences,
        time_scale,
        renormalize,
    )
    k = len(sentences)
    p = kernel(classes(t))
    rows = []
    for t_row, p_true, p_false in zip(t.tolist(), p[:, :k].tolist(), p[:, k:].tolist()):
        rows.extend(map(TraceRow, [t_row] * k, sentences, p_true, p_false))
    return tuple(rows)


def _grid(t_max: float, dt: float) -> tuple[int, float]:
    """``grid_size(t_max, dt)`` and dt as a float (``_real``)."""
    span, step = _real(t_max, "t_max"), _real(dt, "dt")
    # the range is tested on the floats, so a positive dt whose float is 0.0,
    # such as Fraction(1, 10**400), is out of range; the message quotes the
    # values as given
    if not (step > 0 and span >= 0 and math.isfinite(span / step)):
        raise OutOfRange(
            f"need dt > 0, t_max >= 0 and a finite t_max/dt, got dt={quote(dt)},"
            f" t_max={quote(t_max)}"
        )
    return int(math.floor(span / step + 1e-9)) + 1, step


def grid_size(t_max: float, dt: float) -> int:
    """Number of times in the grid 0, dt, 2*dt, ... up to and including
    t_max, both read as floats (``_real``)."""
    return _grid(t_max, dt)[0]


def time_grid(t_max: float, dt: float) -> tuple[float, ...]:
    """Deterministic grid 0, dt, 2*dt, ... up to and including t_max: the
    floats j * dt for the float dt."""
    count, dt = _grid(t_max, dt)
    return tuple(j * dt for j in range(count))


def check_precision(precision: int, what: str = "precision") -> int:
    """Return ``precision`` if it is a count of significant digits: an
    integer in 1..17 (``check_int``); ``what`` names it in the error."""
    return check_int(precision, what, 1, 17)


def _csv_header(header_lines: Iterable[str]) -> str:
    """The comment lines and the column line of a trace CSV.  The lines are
    a sequence of ``str``, not one ``str``, which would give a line per
    character.  A line break inside a header line would start a line that
    is not a comment."""
    if isinstance(header_lines, str):
        raise OutOfRange(
            "trace header lines must be a sequence of str,"
            f" got the str {quote(header_lines)}"
        )
    lines = list(header_lines)
    for line in lines:
        if not isinstance(line, str):
            raise OutOfRange(f"trace header line must be a str, got {quote(line)}")
        if "\n" in line or "\r" in line:
            raise OutOfRange(f"trace header line {quote(line)} holds a line break")
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
    lines precede the header.  Each row's sentence is an integer in
    1..MAX_SENTENCES (``check_int``)."""
    g = f"%.{check_precision(precision)}g"
    row = f"{g},%d,{g},{g}\n"
    header = _csv_header(header_lines)
    for r in rows:
        check_int(r.sentence, "trace row sentence", 1, MAX_SENTENCES)
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
    blocks, the first of which loads numpy and calls the kernel.  t_max
    and dt are read once as floats (``_real``), and the times are
    ``np.arange(lo, hi) * dt`` for the float dt, bit-identical to
    ``time_grid``'s ``j * dt``; each is formatted once for all its
    sentences.

    Time classes: U(tau + 2m) = U(tau), so the rows after a time depend
    only on its time class.  Each block computes the class key of its times
    once, ``classes(t)`` from ``_trace_kernel``, and numbers the keys with
    one sort, ``np.unique``; the kernel reads nothing but a key, so the
    times of one key have the same rows.  The block picks its route from
    the count of its keys:

    - More than half as many keys as times (a grid that does not repeat
      within the block): the kernel fills the whole block from its keys,
      each distinct probability is formatted once with
      ``_format_distinct``, and the strings of (t, p_true, p_false) fill a
      ``%s`` row template in one ``%`` operation.
    - At most half: the kernel and ``_format_distinct`` run on each distinct
      key that the last block of this route did not hold, each key's k row
      tails ``",i,p_true,p_false\n"`` are built once, and a time t is
      written as ``t.join(("", *tails))``.  Only that last block's tails are
      kept, so they never outnumber one block's times.
    """
    count, dt = _grid(t_max, dt)
    check_precision(precision)
    sentences, classes, kernel = _trace_kernel(
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

    def chunks():
        yield header
        import numpy as np  # after the header: it leaves before numpy loads

        kept = {}  # class key -> ("", *row tails), for the last class-route block
        for lo in range(0, count, per_block):
            t = np.arange(lo, min(lo + per_block, count)) * dt
            t_text = _format_distinct(t, precision)
            key = classes(t)
            # the shape of the inverse differs between numpy versions
            keys, of_time = np.unique(key, return_inverse=True)
            if 2 * len(keys) > len(t):
                p = _format_distinct(kernel(key), precision)
                cells = np.empty((len(t), k, 3), dtype=object)
                cells[:, :, 0] = t_text[:, None]
                cells[:, :, 1] = p[:, :k]
                cells[:, :, 2] = p[:, k:]
                yield (row * len(t)) % tuple(cells.ravel().tolist())
                continue
            of_time = of_time.reshape(-1).tolist()
            texts = list(map(kept.get, keys.tolist()))
            new = [c for c, text in enumerate(texts) if text is None]
            if new:
                p = _format_distinct(kernel(keys[new]), precision)
                for c, p_true, p_false in zip(new, p[:, :k].tolist(), p[:, k:].tolist()):
                    texts[c] = ("", *map(str.__mod__, tails, zip(p_true, p_false)))
            kept = dict(zip(keys.tolist(), texts))
            yield "".join(map(str.join, t_text.tolist(), map(texts.__getitem__, of_time)))

    return chunks()
