import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import liarsim.verify as verify_mod
from liarsim import (
    Configuration,
    build_initial_state,
    count_paradoxical,
    cycle_states,
    kappa,
    probability_trace,
    reasoning_cycle,
    trace_to_csv,
)
from liarsim.cli import (
    MAX_CONFIG_BYTES,
    main,
    parse_sentences,
    parse_start,
    parse_time_scale,
    resolve_config,
)
from liarsim.config import MAX_SENTENCES, config_to_json, simple_liar
from liarsim.evolution import _TRACE_BLOCK_ROWS, MAX_TRACE_ROWS, grid_size
from liarsim.statespace import (
    canonical_entry_cycle,
    initial_state_terms,
    state_from_json,
    state_to_json,
)

from golden import EIGHT_EMBEDDED, EIGHT_TUPLES


def test_count_command(capsys):
    assert main(["count", "--m", "5"]) == 0
    assert capsys.readouterr().out == "384\n"
    assert main(["count", "--m", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_count_prints_integers_past_the_int_str_limit(capsys):
    assert main(["count", "--m", "2000"]) == 0
    digits = capsys.readouterr().out.strip()
    assert len(digits) == 6334 and digits.isdigit()
    assert Decimal(digits) == Decimal(count_paradoxical(2000))


def test_count_rejects_bad_m(capsys):
    assert main(["count", "--m", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_sentence_count_over_the_bound_exits_one(tmp_path, capsys):
    target = tmp_path / "x"
    for argv in (
        ["count", "--m", str(MAX_SENTENCES + 1)],
        ["state", "--config", f"simple:{MAX_SENTENCES + 1}", "--out", str(target)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"liarsim: error: sentence count {MAX_SENTENCES + 1}"
            f" exceeds MAX_SENTENCES = {MAX_SENTENCES}"
        ]
    assert not target.exists()


def test_state_command_writes_reference_state(tmp_path):
    out = tmp_path / "state.json"
    assert main(["state", "--config", "eight-liar", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"]["command"] == "state"
    assert doc["m"] == 8 and doc["n"] == 16
    assert [tuple(t["tuple"]) for t in doc["terms"]] == list(EIGHT_TUPLES)
    assert [int(t["embedded"]) for t in doc["terms"]] == list(EIGHT_EMBEDDED)
    for term in doc["terms"]:
        assert term["re"] == 0.25 and term["im"] == 0.0


def test_state_accepts_inline_and_file_configs(tmp_path, capsys):
    inline = '{"m": 1, "referent": [1], "negating": [true]}'
    assert main(["state", "--config", inline]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 1

    path = tmp_path / "config.json"
    path.write_text(inline)
    assert main(["state", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 1



@pytest.mark.parametrize("over, code", [(0, 0), (1, 1)])
def test_config_file_length_is_bounded(over, code, tmp_path, capsys):
    # a valid configuration padded with JSON whitespace to the bound, or one
    # character past it
    text = config_to_json(simple_liar(3))
    path = tmp_path / "config.json"
    path.write_text(text + " " * (MAX_CONFIG_BYTES - len(text) + over))
    assert main(["state", "--config", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"liarsim: error: config file is longer than {MAX_CONFIG_BYTES} characters"
        ]

def test_state_rejects_non_paradoxical(capsys):
    inline = '{"m": 2, "referent": [2, 1], "negating": [true, true]}'
    assert main(["state", "--config", inline]) == 1
    assert "error" in capsys.readouterr().err


def test_state_rejects_missing_file(capsys):
    assert main(["state", "--config", "no-such-file.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["simple:x", "simple:", "simple:1.5"])
def test_simple_spec_without_an_integer_names_the_spec(spec, capsys):
    assert main(["trace", "--config", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"liarsim: error: expected simple:<m> with an integer m, got {spec!r}"
    ]


def test_state_error_writes_nothing(tmp_path, capsys):
    target = tmp_path / "x"
    inline = '{"m": 2, "referent": [2, 1], "negating": [true, true]}'
    assert main(["state", "--config", inline, "--out", str(target)]) == 1
    assert not target.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def _assert_same_bytes(got: str, want: str) -> None:
    """Byte equality of two outputs.  A mismatch fails with the line counts
    and the first differing line, since pytest's diff of two long texts can
    run for minutes."""
    if got.encode() == want.encode():
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    pytest.fail(
        f"{len(a)} lines, want {len(b)}; first difference at line {k + 1}:"
        f" {a[k:k + 1]!r}, want {b[k:k + 1]!r}",
        pytrace=False,
    )


def test_byte_comparison_names_the_first_difference():
    want = "".join(f"{k}\n" for k in range(80_000))
    with pytest.raises(pytest.fail.Exception, match="80000 lines, want 80000; .* line 5: "):
        _assert_same_bytes(want.replace("4\n", "x\n", 1), want)
    with pytest.raises(pytest.fail.Exception, match="79999 lines, want 80000; .* line 80000: "):
        _assert_same_bytes(want[:-6], want)
    _assert_same_bytes(want, want)


def _reference_state_text(config: Configuration, spec: str) -> str:
    """The ``state`` output as the plain algorithm writes it: every tuple
    walked entry by entry, ``kappa`` per tuple, one ``json.dumps``."""
    m, n = config.m, 2 * config.m
    true_step = {s.sentence: s.step for s in reasoning_cycle(config).steps if s.value}
    entries = canonical_entry_cycle(m)
    tuples = [
        tuple(entries[(t - true_step[i]) % n] for i in range(1, m + 1))
        for t in range(1, n + 1)
    ]
    amp = 1.0 / math.sqrt(n)
    doc = {
        "manifest": {"command": "state", "config": spec},
        "m": m,
        "n": n,
        "terms": [
            {"tuple": list(idx), "embedded": str(kappa(idx)), "re": amp, "im": 0.0}
            for idx in tuples
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "spec", ["one-liar", "eight-liar"] + [f"simple:{m}" for m in range(2, 41)]
)
def test_state_output_matches_reference_document(spec, capsys):
    assert main(["state", "--config", spec]) == 0
    _assert_same_bytes(capsys.readouterr().out, _reference_state_text(resolve_config(spec), spec))


@st.composite
def paradoxical_configs(draw):
    m = draw(st.integers(1, 12))
    order = [1] + draw(st.permutations(range(2, m + 1)))
    referent = [0] * m
    for sentence, target in zip(order, order[1:] + order[:1]):
        referent[sentence - 1] = target
    negating = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    if sum(negating) % 2 == 0:
        negating[0] = not negating[0]
    return Configuration(m, tuple(referent), tuple(negating))


@settings(max_examples=60, deadline=None)
@given(paradoxical_configs())
@example(simple_liar(1))  # one exceptional value on the entry cycle, not three
@example(simple_liar(2))
def test_state_export_matches_reference_on_random_configs(config):
    spec = config_to_json(config)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["state", "--config", spec]) == 0
    _assert_same_bytes(out.getvalue(), _reference_state_text(config, spec))
    terms = [(tuple(row.tolist()), rank) for row, rank in initial_state_terms(config)]
    assert terms == [(row, str(kappa(row))) for row in cycle_states(config)]
    state = build_initial_state(config)
    assert state_from_json(state_to_json(state)) == state
    assert state_from_json(out.getvalue()) == state


def test_trace_command_output(tmp_path):
    out = tmp_path / "trace.csv"
    args = [
        "trace",
        "--config",
        "one-liar",
        "--t-max",
        "2",
        "--dt",
        "0.5",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert "# command=trace" in header
    assert "# start=1:T" in header
    assert "# renormalize=on" in header
    assert lines[len(header)] == "t,sentence,p_true,p_false"
    data = lines[len(header) + 1 :]
    assert data[0] == "0,1,1,0"  # exact indicator at t = 0
    assert data[2].startswith("1,1,") and ",1" in data[2]
    assert len(data) == 5


def test_trace_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["trace", "--config", "eight-liar", "--t-max", "4", "--dt", "0.25"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "extra",
    [
        # 0.1 at 12 digits reads back as another float, and a grid of 80,018
        # rows in place of 80,010
        ["--t-max", "1000", "--dt", "0.10000000000003001"],
        # pi/2 at 12 digits shifts every off-integer probability
        ["--time-scale", "pi/2"],
    ],
    ids=["dt", "time-scale"],
)
def test_trace_rerun_from_its_manifest_is_byte_identical(extra, monkeypatch):
    monkeypatch.delenv("LIARSIM_PRECISION", raising=False)
    first = _stdout_of(["trace", "--config", "eight-liar", *extra])
    manifest = dict(
        line[2:].split("=", 1) for line in first.splitlines() if line.startswith("# ")
    )
    argv = ["trace", "--config", manifest["config"], "--start", manifest["start"],
            "--t-max", manifest["t_max"], "--dt", manifest["dt"],
            "--time-scale", manifest["time_scale"], "--sentences", manifest["sentences"]]
    if manifest["renormalize"] == "off":
        argv.append("--raw-collapse")
    monkeypatch.setenv("LIARSIM_PRECISION", manifest["precision"])
    _assert_same_bytes(_stdout_of(argv), first)


def _readme_example(command):
    """The lines that README.md shows after ``$ <command>``, up to the end of
    the code block."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    ).splitlines()
    start = lines.index(f"$ {command}") + 1
    return "\n".join(lines[start : lines.index("```", start)]) + "\n"


@pytest.mark.parametrize(
    "command",
    [
        "liarsim state --config one-liar",
        "liarsim trace --config one-liar --t-max 2 --dt 0.5",
    ],
    ids=["state", "trace"],
)
def test_readme_examples_are_what_the_commands_print(command, monkeypatch):
    monkeypatch.delenv("LIARSIM_PRECISION", raising=False)
    assert _stdout_of(command.split()[1:]) == _readme_example(command)


def test_state_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["state", "--config", "simple:3", "--out", str(a)]) == 0
    assert main(["state", "--config", "simple:3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_sentence_subset_and_scale(tmp_path):
    out = tmp_path / "trace.csv"
    args = [
        "trace",
        "--config",
        "eight-liar",
        "--sentences",
        "1,5",
        "--time-scale",
        "pi/2",
        "--t-max",
        "3.14159265",
        "--dt",
        "0.78539816",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    body = lines[1:]
    sentences = {int(line.split(",")[1]) for line in body}
    assert sentences == {1, 5}


def test_trace_precision_env(tmp_path, monkeypatch):
    out = tmp_path / "trace.csv"
    args = ["trace", "--config", "one-liar", "--t-max", "0.25", "--dt", "0.25", "--out", str(out)]
    monkeypatch.setenv("LIARSIM_PRECISION", "4")
    assert main(args) == 0
    last = out.read_text().splitlines()[-1]
    assert last == "0.25,1,0.8536,0.1464"
    assert "# precision=4" in out.read_text()

    monkeypatch.setenv("LIARSIM_PRECISION", "40")
    assert main(args) == 1
    monkeypatch.setenv("LIARSIM_PRECISION", "lots")
    assert main(args) == 1


def test_trace_gnuplot_companion(tmp_path):
    csv = tmp_path / "trace.csv"
    plot = tmp_path / "trace.gp"
    args = [
        "trace",
        "--config",
        "one-liar",
        "--t-max",
        "1",
        "--dt",
        "0.5",
        "--out",
        str(csv),
        "--gnuplot",
        str(plot),
    ]
    assert main(args) == 0
    script = plot.read_text()
    assert str(csv) in script
    assert "plot" in script and "sentence 1 true" in script



def test_trace_gnuplot_and_manifest_use_the_resolved_sentences(tmp_path):
    csv = tmp_path / "a.csv"
    plot = tmp_path / "a.gp"
    args = ["trace", "--config", "simple:3", "--sentences", "3,1,3",
            "--out", str(csv), "--gnuplot", str(plot)]
    assert main(args) == 0
    lines = csv.read_text().splitlines()
    assert "# sentences=1,3" in lines
    rows = lines[lines.index("t,sentence,p_true,p_false") + 1 :]
    in_csv = list(dict.fromkeys(int(row.split(",")[1]) for row in rows))
    assert in_csv == [1, 3]
    titles = re.findall(r"title '(sentence \d+ \w+)'", plot.read_text())
    assert titles == [f"sentence {i} {v}" for i in in_csv for v in ("true", "false")]


def test_trace_gnuplot_escapes_quotes_in_the_data_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["trace", "--config", "one-liar", "--t-max", "1", "--dt", "0.5",
            "--out", "it's.csv", "--gnuplot", "q.gp"]
    assert main(args) == 0
    # gnuplot reads '' as one ' inside a single-quoted string
    lines = (tmp_path / "q.gp").read_text().splitlines()
    assert lines[-2] == (
        "  'it''s.csv' using 1:($2 == 1 ? $3 : 1/0) with lines"
        " title 'sentence 1 true', \\"
    )


def test_trace_gnuplot_rejects_a_newline_in_the_data_path(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    args = ["trace", "--config", "one-liar", "--out", "a\nb.csv", "--gnuplot", "q.gp"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "liarsim: error: --out must not contain a newline when --gnuplot is given"
    ]
    assert list(tmp_path.iterdir()) == []


def test_trace_refuses_a_config_with_a_line_break_that_state_accepts(tmp_path, capsys):
    # the manifest echoes --config into the trace header, one comment line
    inline = '{"m": 1,\n "referent": [1], "negating": [true]}'
    target = tmp_path / "trace.csv"
    assert main(["trace", "--config", inline, "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"liarsim: error: trace header line {'config=' + inline!r} holds a line break"
    ]
    assert not target.exists()
    assert main(["state", "--config", inline]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["config"] == inline


def test_trace_gnuplot_requires_out(capsys):
    args = ["trace", "--config", "one-liar", "--gnuplot", "x.gp"]
    assert main(args) == 1
    assert "needs --out" in capsys.readouterr().err


@pytest.mark.parametrize("gnuplot", ["same.csv", "./same.csv"])
def test_trace_gnuplot_onto_the_csv_is_rejected(gnuplot, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.csv"
    same.write_bytes(b"t,sentence,p_true,p_false\n")
    args = ["trace", "--config", "one-liar", "--out", "same.csv", "--gnuplot", gnuplot]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "liarsim: error: --gnuplot must name a different file from --out"
    ]
    assert same.read_bytes() == b"t,sentence,p_true,p_false\n"


def test_trace_raw_collapse_flag(tmp_path):
    out = tmp_path / "raw.csv"
    args = [
        "trace",
        "--config",
        "one-liar",
        "--t-max",
        "0",
        "--dt",
        "1",
        "--raw-collapse",
        "--out",
        str(out),
    ]
    assert main(args) == 0
    text = out.read_text()
    assert "# renormalize=off" in text
    assert text.splitlines()[-1] == "0,1,0.5,0"  # raw weight 1/(2m)


def test_trace_bad_start(capsys):
    assert main(["trace", "--config", "one-liar", "--start", "1:X"]) == 1
    capsys.readouterr()
    assert main(["trace", "--config", "one-liar", "--start", "9:T", "--t-max", "1"]) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--time-scale", "inf"],
        ["--t-max", "2", "--time-scale", "inf"],
        ["--time-scale", "nan"],
        ["--time-scale", "-1"],
        ["--t-max", "1e308", "--dt", "1e-308"],
        ["--t-max", "inf"],
        ["--dt", "nan"],
    ],
)
def test_trace_rejects_non_finite_time_parameters(extra, capsys):
    assert main(["trace", "--config", "one-liar", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and "error" in captured.err


def _cli_env():
    """The environment for running the CLI of this checkout in a subprocess."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _pipe_closed_early(argv, size=10):
    """Run the CLI with ``argv`` in a subprocess, read ``size`` bytes of its
    stdout, close the pipe, and return (exit code, stderr bytes)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "liarsim.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    assert len(proc.stdout.read(size)) == size
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_state_reader_closing_the_pipe_early_is_not_an_error():
    # the document is about 2.6 MB, far more than a pipe buffers, so the
    # writer is still writing when the reader goes away
    code, err = _pipe_closed_early(["state", "--config", "simple:300"])
    assert code == 0
    assert err == b""


def test_state_pipe_closed_while_the_terms_are_streamed_is_not_an_error():
    # the reader leaves inside the first term, while the generator that
    # makes the rows and ranks is live
    code, err = _pipe_closed_early(["state", "--config", "simple:2048"], size=100)
    assert code == 0
    assert err == b""


def _state_peak_kb(tmp_path, m):
    """VmHWM (kB) of a child process that has run ``state`` at simple:m."""
    script = (
        "import sys\n"
        "from liarsim.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(s for s in status if s.startswith('VmHWM:')).split()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "state", "--config", f"simple:{m}",
         "--out", str(tmp_path / f"state{m}.json")],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status"
)
def test_state_export_peak_memory_does_not_grow_with_the_table(tmp_path):
    # the terms are made as they are written: no (2m, m) table and no list
    # of 2m ranks, which at m = 2048 took about 110 MB more than at m = 8
    grown = _state_peak_kb(tmp_path, 2048) - _state_peak_kb(tmp_path, 8)
    assert grown < 32 * 1024


def test_trace_reader_closing_the_pipe_early_is_not_an_error():
    # 327,744 rows, about 10 MB: far more than a pipe buffers, so the writer
    # is still writing blocks when the reader goes away
    code, err = _pipe_closed_early(["trace", "--config", "simple:64"])
    assert code == 0
    assert err == b""


def test_config_file_nested_too_deeply_exits_one_in_one_line(tmp_path):
    # the parser's recursion limit, not a traceback, ends the run
    config = tmp_path / "deep.json"
    config.write_text('{"m": ' + "[" * 50000)
    target = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "liarsim.cli", "trace", "--config", str(config),
         "--out", str(target)],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "liarsim: error: malformed configuration object: JSON nested too deeply"
    ]
    assert not target.exists()



@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_config_file_exits_one_in_one_line():
    resource = pytest.importorskip("resource")
    limit = 400 * 2**20  # address space: an unbounded read would exhaust it

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "liarsim.cli", "state", "--config", "/dev/zero"],
        capture_output=True,
        text=True,
        env=_cli_env(),
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"liarsim: error: config file is longer than {MAX_CONFIG_BYTES} characters"
    ]


PACKAGE_MODULES = (
    "audit",
    "cli",
    "config",
    "errors",
    "evolution",
    "inference",
    "measurement",
    "statespace",
    "verify",
)
# Imports ``module``, then runs ``liarsim.cli.main`` on the other arguments
# (if any) with its output discarded, and prints the exit code ("-" for no
# run), whether numpy is loaded, and the loaded liarsim modules.
_IMPORT_PROBE = """\
import contextlib, importlib, io, sys
module, argv = sys.argv[1], sys.argv[2:]
importlib.import_module(module)
code = "-"
if argv:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = sys.modules["liarsim.cli"].main(argv)
print(code)
print("numpy" in sys.modules)
print(" ".join(sorted(name for name in sys.modules if name.startswith("liarsim."))))
"""


@pytest.mark.parametrize(
    "module, argv, code, numpy_loaded",
    [
        pytest.param("liarsim", [], "-", False, id="import-liarsim"),
        pytest.param("liarsim.cli", [], "-", False, id="import-cli"),
        pytest.param("liarsim.cli", ["count", "--m", "5"], "0", False, id="count"),
        pytest.param("liarsim.cli", ["check-dim", "--m", "4"], "0", False, id="check-dim"),
        pytest.param("liarsim.cli", ["--help"], "0", False, id="help"),
        pytest.param("liarsim.cli", ["trace"], "1", False, id="usage-error"),
        pytest.param(
            "liarsim.cli", ["trace", "--config", "simple:0"], "1", False, id="trace-m0"
        ),
        pytest.param(
            "liarsim.cli", ["state", "--config", "simple:0"], "1", False, id="state-m0"
        ),
        pytest.param(
            "liarsim.cli",
            ["state", "--config", '{"m": 2, "referent": [2, 1], "negating": [true, true]}'],
            "1",
            False,
            id="state-not-paradoxical",
        ),
        pytest.param(
            "liarsim.cli",
            ["trace", "--config", "eight-liar", "--start", "9:T"],
            "1",
            False,
            id="trace-bad-start",
        ),
        pytest.param(
            "liarsim.cli", ["verify", "--m-max", "9"], "1", False, id="verify-m-max-9"
        ),
        pytest.param(
            "liarsim.cli", ["check-dim", "--m", "5"], "1", False, id="check-dim-m5"
        ),
        # the control: a trace computes with numpy
        pytest.param(
            "liarsim.cli",
            ["trace", "--config", "one-liar", "--t-max", "1"],
            "0",
            True,
            id="trace",
        ),
    ],
)
def test_numpy_is_loaded_only_by_the_commands_that_compute_with_it(
    module, argv, code, numpy_loaded
):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, module, *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ran, loaded, modules = proc.stdout.splitlines()
    assert ran == code
    assert loaded == str(numpy_loaded)
    if module == "liarsim.cli":
        # every layer is loaded eagerly: bench/tracing.py wraps the
        # functions of each liarsim module it finds in sys.modules
        assert set(modules.split()) == {f"liarsim.{name}" for name in PACKAGE_MODULES}


# Runs liarsim.cli.main on its arguments with stdout discarded, then prints
# the exit code and whether numpy and numpy.random are loaded.
_RANDOM_PROBE = """\
import contextlib, io, sys
import liarsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = liarsim.cli.main(sys.argv[1:])
print(code, "numpy" in sys.modules, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m-max", "8"],
        ["state", "--config", "eight-liar"],
        ["trace", "--config", "eight-liar", "--t-max", "4"],
    ],
    ids=["verify", "state", "trace"],
)
def test_no_command_loads_numpy_random(argv):
    # each command computes with numpy, and none of them draws from it
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True False\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--start", "9:T"],
        ["--sentences", "1,9"],
        ["--sentences", "0"],
        ["--t-max", "1e300", "--dt", "1e299", "--time-scale", "1e-10"],
        ["--dt", "1e-9"],
    ],
)
def test_trace_error_writes_nothing(extra, tmp_path, capsys):
    target = tmp_path / "x.csv"
    assert main(["trace", "--config", "eight-liar", *extra, "--out", str(target)]) == 1
    assert not target.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_trace_over_the_row_cap_is_rejected_before_any_work(capsys):
    # two cycles of the one-liar at dt = 1e-9: about 4e9 times, over the cap
    assert main(["trace", "--config", "one-liar", "--dt", "1e-9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    rows = grid_size(4.0, 1e-9)
    assert rows > MAX_TRACE_ROWS
    assert captured.err.splitlines() == [
        f"liarsim: error: trace of {rows} times x 1 sentences = {rows} rows"
        f" exceeds MAX_TRACE_ROWS = {MAX_TRACE_ROWS}"
    ]


def _round_trip_text(x):
    """The manifest's text of a float: the fewest significant digits, from 12
    to 17, that read back as x."""
    return next(f"{x:.{d}g}" for d in range(12, 18) if float(f"{x:.{d}g}") == x)


def _reference_trace_text(spec, start, t_max, dt, scale, raw, sentences, precision):
    """The ``trace`` output as the plain algorithm writes it: a ``j * dt``
    tuple of times, the ``TraceRow``s of each time on their own and
    ``str.format`` per value."""
    config = resolve_config(spec)
    if t_max is None:
        t_max = 2.0 * (2 * config.m) * scale
    count = int(math.floor(t_max / dt + 1e-9)) + 1
    times = tuple(j * dt for j in range(count))
    rows = [
        row
        for t in times
        for row in probability_trace(
            config, start, [t], sentences=sentences, time_scale=scale, renormalize=not raw
        )
    ]
    # the manifest echoes the resolved list: sorted, without repeats
    echoed = sorted(set(sentences or range(1, config.m + 1)))
    header = [
        "command=trace",
        f"config={spec}",
        f"start={start[0]}:{'T' if start[1] else 'F'}",
        f"t_max={_round_trip_text(t_max)}",
        f"dt={_round_trip_text(dt)}",
        f"time_scale={_round_trip_text(scale)}",
        f"renormalize={'off' if raw else 'on'}",
        "sentences=" + ",".join(str(i) for i in echoed),
        f"precision={precision}",
    ]
    fmt = f"{{:.{precision}g}}"
    lines = [f"# {line}" for line in header] + ["t,sentence,p_true,p_false"]
    for r in rows:
        lines.append(
            f"{fmt.format(r.t)},{r.sentence},{fmt.format(r.p_true)},{fmt.format(r.p_false)}"
        )
    text = "\n".join(lines) + "\n"
    assert trace_to_csv(rows, header_lines=header, precision=precision) == text
    return text


SCALES = {"1": 1.0, "1.3": 1.3, "pi/2": math.pi / 2}


def _check_trace_bytes(spec, start=(1, True), t_max=None, dt=0.25, scale="1",
                       raw=False, sentences=None, precision=12):
    argv = ["trace", "--config", spec, "--start", f"{start[0]}:{'T' if start[1] else 'F'}",
            "--dt", repr(dt), "--time-scale", scale]
    if t_max is not None:
        argv += ["--t-max", repr(t_max)]
    if raw:
        argv.append("--raw-collapse")
    if sentences:
        argv += ["--sentences", ",".join(str(i) for i in sentences)]
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"LIARSIM_PRECISION": str(precision)}):
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    want = _reference_trace_text(
        spec, start, t_max, dt, SCALES[scale], raw, sentences, precision
    )
    _assert_same_bytes(out.getvalue(), want)


@pytest.mark.parametrize(
    "spec", ["one-liar", "eight-liar"] + [f"simple:{m}" for m in range(2, 25)]
)
def test_trace_output_matches_reference(spec):
    m = resolve_config(spec).m
    k = m + len(spec)
    for raw in (False, True):
        _check_trace_bytes(
            spec,
            start=(m, raw),
            dt=0.5,
            scale=list(SCALES)[(k + raw) % 3],
            raw=raw,
            sentences=(m, 1, m) if raw else None,
            precision=(1, 3, 12, 17)[(k + 2 * raw) % 4],
        )


@pytest.mark.parametrize("precision", [1, 3, 12, 17])
@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("spec", ["one-liar", "eight-liar"])
def test_trace_output_matches_reference_at_every_precision(spec, scale, precision):
    for raw in (False, True):
        _check_trace_bytes(spec, start=(1, not raw), dt=0.3, scale=scale, raw=raw,
                           precision=precision)


# times per block of a trace of two sentences
TWO_SENTENCE_BLOCK = _TRACE_BLOCK_ROWS // 2


@pytest.mark.parametrize(
    "count",
    [1, 2, TWO_SENTENCE_BLOCK - 1, TWO_SENTENCE_BLOCK, TWO_SENTENCE_BLOCK + 1,
     2 * TWO_SENTENCE_BLOCK + 3],
)
def test_trace_output_matches_reference_across_blocks(count):
    # dt = 0.1 is inexact, so a block that computed its times as lo * dt
    # plus offsets would differ from j * dt in the last digits
    _check_trace_bytes("eight-liar", start=(2, False), t_max=(count - 1) * 0.1,
                       dt=0.1, scale="1.3", sentences=(5, 2), precision=17)


def test_wide_trace_output_matches_reference_across_blocks():
    # 600 sentences: 13 times per block, so 40 times make four blocks, each
    # with 1,200 probability columns of three-digit sentence numbers
    count = 40
    assert count > 2 * (_TRACE_BLOCK_ROWS // 600)
    _check_trace_bytes("simple:600", start=(7, False), t_max=(count - 1) * 0.1,
                       dt=0.1, scale="pi/2", precision=17)


@settings(max_examples=40, deadline=None)
@given(
    paradoxical_configs(),
    st.data(),
    st.sampled_from(list(SCALES)),
    st.sampled_from([1, 3, 12, 17]),
    st.booleans(),
    st.sampled_from([0.0, 0.1, 1.0, 7.3]),
    st.sampled_from([0.1, 0.25, 0.3]),
)
def test_trace_output_matches_reference_on_random_configs(
    config, data, scale, precision, raw, t_max, dt
):
    m = config.m
    start = (data.draw(st.integers(1, m)), data.draw(st.booleans()))
    sentences = data.draw(
        st.none() | st.lists(st.integers(1, m), min_size=1, max_size=m + 1)
    )
    _check_trace_bytes(config_to_json(config), start=start, t_max=t_max, dt=dt,
                       scale=scale, raw=raw, sentences=sentences, precision=precision)


# Edge values for the argv fuzzer.  Every grid they can form is under 10^4
# rows (the largest: eight-liar over its default span at scale pi/2, dt 0.05,
# 8,048 rows) or is rejected before any work.
EDGE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "1.5", "x", ""]
FUZZ_VALUES = {
    "--m": EDGE_NUMBERS + ["1", "5", str(MAX_SENTENCES + 1)],
    "--config": [
        "one-liar", "eight-liar", "simple:3", "simple:0", "simple:-1",
        f"simple:{MAX_SENTENCES + 1}",
        "simple:nan", "simple:1.5", "no-such-file.json", "{",
        '{"m": 1.9, "referent": [1], "negating": [true]}',
        '{"m": 2, "referent": [2, 1], "negating": [true, true]}',
        '{"m": ' + "[" * 50000,
    ],
    "--start": ["1:T", "2:F", "9:T", "0:T", "-1:F", "1:X", "x"],
    "--t-max": EDGE_NUMBERS,
    "--dt": EDGE_NUMBERS,
    "--time-scale": EDGE_NUMBERS + ["pi", "pi/0", "pi/2", "pi/-1", "1.3"],
    "--sentences": ["1", "3,1", "1,1", "0", "9", "-1", "x", ""],
}
FUZZ_OPTIONS = {
    "count": ["--m"],
    "state": ["--config", "--out"],
    "trace": ["--config", "--start", "--t-max", "--dt", "--time-scale",
              "--sentences", "--raw-collapse", "--gnuplot", "--out"],
}


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_argv_fuzz_ends_in_an_exit_code_never_a_traceback(tmp_path, data):
    paths = ["-", str(tmp_path / "out"), str(tmp_path / "no-such-dir" / "out")]
    command = data.draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for option in FUZZ_OPTIONS[command]:
        if option == "--raw-collapse":
            argv += data.draw(st.sampled_from([[], [option]]))
            continue
        # two default cycles of the eight-liar at scale pi are 16,088 rows
        values = FUZZ_VALUES.get(option, paths)
        if option == "--time-scale" and "--t-max" not in argv:
            values = [v for v in values if v != "pi"]
        value = data.draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [option, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1, argv


def test_argument_parsers():
    assert parse_start("3:F") == (3, False)
    assert parse_start("1:t") == (1, True)
    assert parse_time_scale("pi/2") == pytest.approx(1.5707963267948966)
    assert parse_time_scale("pi") == pytest.approx(3.141592653589793)
    assert parse_time_scale("0.5") == 0.5
    assert parse_sentences("1,3,5") == (1, 3, 5)
    import argparse

    for bad in ("x", "1-2", "1:"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_start(bad)
    for bad in ("pie", "inf", "nan", "0", "-2", "pi/0", "pi/-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_time_scale(bad)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_sentences("1;2")


def test_check_dim_command(capsys):
    assert main(["check-dim", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "witness facts:" in out
    assert "tau[1,1] = 1" in out
    assert '"passed": true' in out


def test_check_dim_out_of_bound(capsys):
    assert main(["check-dim", "--m", "99"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_command_passes(capsys):
    assert main(["verify", "--m-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "checks passed" in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    bad = list(verify_mod.CANONICAL_EIGHT_EMBEDDED)
    bad[0] -= 7
    monkeypatch.setattr(verify_mod, "CANONICAL_EIGHT_EMBEDDED", tuple(bad))
    assert main(["verify", "--m-max", "8"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["trace"]) == 1  # --config required
