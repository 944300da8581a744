"""Seeded workload inputs for the liarsim benchmark.

Every workload is a list of CLI invocations plus what the oracle needs to
check their output.  Inputs come only from the seed: random single-cycle
configurations with an odd number of negations (written as JSON config
files) and random start hypotheses.  Any seed gives the same record counts
and the same amount of work; only the labels move.

This module does not import liarsim, so the oracle's view of each input is
independent of the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# The named ``eight-liar`` configuration, restated from the package docs:
# cycle 1 -> 3 -> 8 -> 2 -> 7 -> 4 -> 6 -> 5 -> 1, negations on 1, 2, 5, 6, 7.
EIGHT_LIAR = {
    "m": 8,
    "referent": [3, 7, 8, 6, 1, 5, 4, 2],
    "negating": [True, True, False, False, True, True, True, False],
}

TRACE_LONG_T_MAX, TRACE_LONG_DT = 1600.0, 0.05
TRACE_WIDE_M, TRACE_WIDE_T_MAX, TRACE_WIDE_DT = 512, 8.0, 0.25
STATE_EXPORT_M = 1000
VERIFY_M_MAX, CHECK_DIM_M = 8, 4


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and how the oracle reads its output.

    ``kind`` is ``trace``, ``state``, ``verify`` or ``check-dim``; ``check``
    holds the inputs the oracle needs for that kind.
    """

    argv: tuple[str, ...]
    kind: str
    check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    # --config values that the set-up probe resolves (none for verify-suite)
    config_specs: tuple[str, ...]


def random_paradoxical(m: int, rng: random.Random) -> dict:
    """A uniformly random single m-cycle with an odd number of negations."""
    order = list(range(2, m + 1))
    rng.shuffle(order)
    chain = [1] + order
    referent = [0] * m
    for k, s in enumerate(chain):
        referent[s - 1] = chain[(k + 1) % m]
    negating = [rng.random() < 0.5 for _ in range(m)]
    if sum(negating) % 2 == 0:
        j = rng.randrange(m)
        negating[j] = not negating[j]
    return {"m": m, "referent": referent, "negating": negating}


def random_start(m: int, rng: random.Random) -> tuple[int, bool]:
    return rng.randint(1, m), rng.random() < 0.5


def _start_arg(start: tuple[int, bool]) -> str:
    return f"{start[0]}:{'T' if start[1] else 'F'}"


def _write_config(workdir: Path, name: str, config: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _trace(config_spec: str, config: dict, start, t_max: float, dt: float) -> Invocation:
    argv = (
        "trace",
        "--config", config_spec,
        "--start", _start_arg(start),
        "--t-max", repr(t_max),
        "--dt", repr(dt),
    )
    check = {"config": config, "start": start, "t_max": t_max, "dt": dt}
    return Invocation(argv, "trace", check)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed``; config files go
    into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "trace-long":
        start = random_start(8, rng)
        inv = _trace("eight-liar", EIGHT_LIAR, start, TRACE_LONG_T_MAX, TRACE_LONG_DT)
        return Workload(name, (inv,), ("eight-liar",))
    if name == "trace-wide":
        config = random_paradoxical(TRACE_WIDE_M, rng)
        start = random_start(TRACE_WIDE_M, rng)
        spec = _write_config(workdir, name, config)
        inv = _trace(spec, config, start, TRACE_WIDE_T_MAX, TRACE_WIDE_DT)
        return Workload(name, (inv,), (spec,))
    if name == "state-export":
        config = random_paradoxical(STATE_EXPORT_M, rng)
        spec = _write_config(workdir, name, config)
        inv = Invocation(("state", "--config", spec), "state", {"m": config["m"]})
        return Workload(name, (inv,), (spec,))
    if name == "verify-suite":
        return Workload(
            name,
            (
                Invocation(("verify", "--m-max", str(VERIFY_M_MAX)), "verify"),
                Invocation(("check-dim", "--m", str(CHECK_DIM_M)), "check-dim"),
            ),
            (),
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


NAMES = ("trace-long", "trace-wide", "state-export", "verify-suite")
