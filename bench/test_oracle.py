"""Self-tests of the benchmark's oracle and input generator.

Run from the repository root:  python3 -m pytest -q bench/test_oracle.py

Correct outputs come from the liarsim sources beside the benchmark; each
test then corrupts one row, term or line and expects the oracle to object.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from liarsim.cli import main  # noqa: E402


def cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def trace_case(start=(3, False), t_max=6.0, dt=0.25):
    config = workloads.EIGHT_LIAR
    text = cli("trace", "--config", json.dumps(config), "--start",
               f"{start[0]}:{'T' if start[1] else 'F'}", "--t-max", str(t_max), "--dt", str(dt))
    return text, {"config": config, "start": start, "t_max": t_max, "dt": dt}


def replace_row(text: str, row: int, column: int, value: str) -> str:
    lines = text.split("\n")
    first = lines.index(oracle.TRACE_HEADER) + 1
    cells = lines[first + row].split(",")
    cells[column] = value
    lines[first + row] = ",".join(cells)
    return "\n".join(lines)


def test_walk_matches_documented_eight_liar_sequence():
    pos = oracle.walk_positions(workloads.EIGHT_LIAR, (1, True))
    walk = sorted(pos, key=pos.get)
    expected = "1T 3F 8F 2F 7T 4F 6F 5T 1F 3T 8T 2T 7F 4T 6T 5F".split()
    assert [f"{s}{'T' if v else 'F'}" for s, v in walk] == expected


def test_correct_trace_passes():
    text, params = trace_case()
    assert oracle.check_trace(text, **params) == 25 * 8


def test_perturbed_trace_row_is_caught():
    text, params = trace_case()
    row = 8 * 3 + 2  # t = 0.75, off-integer
    value = float(text.split("\n")[text.split("\n").index(oracle.TRACE_HEADER) + 1 + row].split(",")[2])
    bad = replace_row(text, row, 2, repr(value + 1e-8))
    with pytest.raises(oracle.OracleError, match="p_true"):
        oracle.check_trace(bad, **params)


def test_inexact_integer_time_is_caught():
    text, params = trace_case()
    row = 8 * 4  # t = 1.0, sentence 1
    lines = text.split("\n")
    cell = lines[lines.index(oracle.TRACE_HEADER) + 1 + row].split(",")[3]
    assert cell in ("0", "1")
    bad = replace_row(text, row, 3, "1e-32" if cell == "0" else "0.9999999999999")
    with pytest.raises(oracle.OracleError, match="exactly 0/1"):
        oracle.check_trace(bad, **params)


def test_missing_trace_row_is_caught():
    text, params = trace_case()
    lines = text.split("\n")
    del lines[-3]
    with pytest.raises(oracle.OracleError, match="rows"):
        oracle.check_trace("\n".join(lines), **params)


def state_case(m=12, seed=3):
    config = workloads.random_paradoxical(m, random.Random(seed))
    return json.loads(cli("state", "--config", json.dumps(config))), m


def test_correct_state_passes():
    doc, m = state_case()
    assert oracle.check_state(json.dumps(doc), m) == 2 * m


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda t: t[5].update(tuple=[t[6]["tuple"][0]] + t[5]["tuple"][1:]), "permutation"),
        (lambda t: t[5].update(embedded=str(int(t[5]["embedded"]) + 1)), "embedded"),
        (lambda t: t[5].update(re=t[5]["re"] * (1 + 1e-12)), "amplitude"),
        (lambda t: t.pop(), "shape"),
    ],
)
def test_perturbed_state_term_is_caught(corrupt, message):
    doc, m = state_case()
    corrupt(doc["terms"])
    with pytest.raises(oracle.OracleError, match=message):
        oracle.check_state(json.dumps(doc), m)


def test_mixed_radix_is_the_lexicographic_rank():
    tuples = list(itertools.product(range(1, 5), repeat=3))
    assert [oracle.mixed_radix(list(t), 4) for t in tuples] == list(range(len(tuples)))
    rng = random.Random(7)
    n = 2000
    digits = [rng.randint(1, n) for _ in range(1000)]
    positional = sum((e - 1) * n ** (len(digits) - 1 - k) for k, e in enumerate(digits))
    assert oracle.mixed_radix(digits, n) == positional


def test_verify_and_check_dim_outputs():
    text = cli("verify", "--m-max", "3")
    assert oracle.check_verify(text) == 11
    with pytest.raises(oracle.OracleError):
        oracle.check_verify(text.replace("PASS", "FAIL", 1))
    text = cli("check-dim", "--m", "2")
    assert oracle.check_check_dim(text) == 1
    with pytest.raises(oracle.OracleError, match="did not pass"):
        oracle.check_check_dim(text.replace('"passed": true', '"passed": false'))


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_random_configurations_are_paradoxical_single_cycles(m):
    for seed in range(5):
        config = workloads.random_paradoxical(m, random.Random(seed))
        assert sum(config["negating"]) % 2 == 1
        assert len(oracle.walk_positions(config, (1, True))) == 2 * m


def test_seeds_change_labels_not_work(tmp_path):
    for name in workloads.NAMES:
        a, b = (workloads.build(name, seed, tmp_path) for seed in (1, 2))
        assert [inv.kind for inv in a.invocations] == [inv.kind for inv in b.invocations]
        assert [len(inv.argv) for inv in a.invocations] == [len(inv.argv) for inv in b.invocations]
        for x, y in zip(a.invocations, b.invocations):
            assert {k: v for k, v in x.check.items() if k not in ("config", "start")} == \
                   {k: v for k, v in y.check.items() if k not in ("config", "start")}
