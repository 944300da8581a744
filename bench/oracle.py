"""Numeric output oracle for the liarsim benchmark, independent of the package.

Each ``check_*`` function parses one CLI output, raises ``OracleError`` on
the first disagreement and otherwise returns the number of output records.
Checks are numeric, not byte digests, so an output that is written another
way but is still correct passes.

* trace: after collapsing onto start hypothesis h0, the probability of
  hypothesis h at time tau is the Fejer kernel
  p = sin^2(pi x) / (N^2 sin^2(pi x / N)) with x = tau - d, N = 2m, where d
  is the number of walk steps from h0 to h.  Off-integer rows must agree to
  TRACE_TOLERANCE; at integral tau the value must be exactly 0 or 1.
* state: 2m terms, each sentence's column a permutation of 1..2m, the
  embedded index the exact mixed-radix rank of the tuple, and every
  amplitude 1/sqrt(2m).
* verify: every check line PASS; check-dim: the JSON summary says passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRACE_TOLERANCE = 1e-10
AMPLITUDE_TOLERANCE = 1e-15
TRACE_HEADER = "t,sentence,p_true,p_false"


class OracleError(Exception):
    """An output disagrees with the oracle."""


def walk_positions(config: dict, start: tuple[int, bool]) -> dict[tuple[int, bool], int]:
    """Step at which each hypothesis (sentence, value) occurs in the 2m-step
    reasoning walk from ``start``: a hypothesis on sentence s forces its
    referent to the same value, flipped when s is negating."""
    referent, negating = config["referent"], config["negating"]
    positions = {}
    sentence, value = start
    for k in range(2 * config["m"]):
        positions[(sentence, value)] = k
        sentence, value = referent[sentence - 1], value != negating[sentence - 1]
    if len(positions) != 2 * config["m"] or (sentence, value) != tuple(start):
        raise OracleError("workload configuration is not a paradoxical single cycle")
    return positions


def fejer(x: np.ndarray, size: int) -> np.ndarray:
    """sin^2(pi x) / (size^2 sin^2(pi x / size)) for non-integral x."""
    x = np.fmod(x, size)
    return np.sin(np.pi * x) ** 2 / (size**2 * np.sin(np.pi * x / size) ** 2)


def expected_trace(config: dict, start, times: np.ndarray):
    """Expected (p_true, p_false) arrays of shape (len(times), m)."""
    m = config["m"]
    size = 2 * m
    pos = walk_positions(config, start)
    integral = times == np.floor(times)
    out = []
    for value in (True, False):
        d = np.array([pos[(i, value)] for i in range(1, m + 1)], dtype=float)
        x = times[:, None] - d[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = fejer(x, size)
        exact = (np.mod(x, size) == 0).astype(float)
        out.append(np.where(integral[:, None], exact, p))
    return out[0], out[1]


def check_trace(text: str, config: dict, start, t_max: float, dt: float) -> int:
    """Check a ``trace`` CSV covering every sentence on the grid j*dt."""
    lines = text.split("\n")
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    if k >= len(lines) or lines[k] != TRACE_HEADER:
        raise OracleError("trace: missing CSV header")
    body = lines[k + 1:]
    if body and body[-1] == "":
        body.pop()
    m = config["m"]
    times = np.arange(math.floor(t_max / dt + 1e-9) + 1) * dt
    if len(body) != len(times) * m:
        raise OracleError(f"trace: {len(body)} rows, expected {len(times) * m}")
    try:
        cells = np.array(",".join(body).split(","), dtype=float).reshape(-1, 4)
    except ValueError as exc:
        raise OracleError(f"trace: malformed row ({exc})") from None
    t = cells[:, 0].reshape(-1, m)
    if np.any(np.abs(t - times[:, None]) > 1e-11 * np.maximum(1.0, times[:, None])):
        raise OracleError("trace: time column is not the grid j*dt")
    if np.any(cells[:, 1].reshape(-1, m) != np.arange(1, m + 1)[None, :]):
        raise OracleError("trace: sentence column is not 1..m in order")
    want_true, want_false = expected_trace(config, start, times)
    integral = times == np.floor(times)
    for col, want, label in ((2, want_true, "p_true"), (3, want_false, "p_false")):
        got = cells[:, col].reshape(-1, m)
        if np.any(got[integral] != want[integral]):
            raise OracleError(f"trace: {label} is not exactly 0/1 at an integral time")
        err = np.abs(got[~integral] - want[~integral])
        if err.size and not err.max() <= TRACE_TOLERANCE:
            row = int(np.argmax(np.abs(got - want)))
            raise OracleError(
                f"trace: {label} off by {err.max():.3g} at t={float(times[row // m])!r}"
            )
    return len(body)


def mixed_radix(digits: list[int], n: int) -> int:
    """0-based lexicographic rank of a tuple of 1-based entries over [1, n]^len."""
    value = 0
    for e in digits:
        value = value * n + (e - 1)
    return value


def check_state(text: str, m: int) -> int:
    """Check a ``state`` JSON document of an m-sentence configuration."""
    try:
        doc = json.loads(text)
        n, terms = doc["n"], doc["terms"]
        if doc["m"] != m or n != 2 * m:
            raise OracleError(f"state: m={doc['m']}, n={n}, expected m={m}, n={2 * m}")
        tuples = np.array([term["tuple"] for term in terms], dtype=np.int64)
        re = np.array([term["re"] for term in terms], dtype=float)
        im = np.array([term["im"] for term in terms], dtype=float)
        embedded = [term["embedded"] for term in terms]
    except (ValueError, KeyError, TypeError) as exc:
        raise OracleError(f"state: malformed document ({exc})") from None
    if tuples.shape != (n, m):
        raise OracleError(f"state: terms form shape {tuples.shape}, expected {(n, m)}")
    if np.any(np.sort(tuples, axis=0) != np.arange(1, n + 1)[:, None]):
        raise OracleError("state: a sentence's column is not a permutation of 1..2m")
    amp = 1.0 / math.sqrt(n)
    if np.any(np.abs(re - amp) > AMPLITUDE_TOLERANCE) or np.any(np.abs(im) > AMPLITUDE_TOLERANCE):
        raise OracleError("state: an amplitude is not 1/sqrt(2m)")
    for row, text_index in zip(tuples.tolist(), embedded):
        if not isinstance(text_index, str) or int(text_index) != mixed_radix(row, n) + 1:
            raise OracleError(f"state: embedded index of term {row[:4]}... is wrong")
    return len(terms)


def check_verify(text: str) -> int:
    """Check ``verify`` output: every check line PASS, then the summary."""
    lines = text.rstrip("\n").split("\n")
    checks, summary = lines[:-1], lines[-1]
    for line in checks:
        fields = line.split()
        if len(fields) < 2 or fields[1] != "PASS":
            raise OracleError(f"verify: {line!r}")
    if not checks or summary != f"{len(checks)} checks passed":
        raise OracleError(f"verify: summary {summary!r}")
    return len(checks)


def check_check_dim(text: str) -> int:
    """Check ``check-dim`` output: its closing JSON summary says passed."""
    lines = text.rstrip("\n").split("\n")
    try:
        start = max(i for i, line in enumerate(lines) if line == "{")
        doc = json.loads("\n".join(lines[start:]))
    except ValueError as exc:
        raise OracleError(f"check-dim: no JSON summary ({exc})") from None
    if doc.get("passed") is not True:
        raise OracleError("check-dim: audit did not pass")
    return 1


def check(kind: str, text: str, params: dict) -> int:
    """Dispatch on the invocation kind; returns the record count."""
    if kind == "trace":
        return check_trace(text, **params)
    if kind == "state":
        return check_state(text, **params)
    if kind == "verify":
        return check_verify(text)
    if kind == "check-dim":
        return check_check_dim(text)
    raise ValueError(f"unknown output kind {kind!r}")
