"""Command line surface.

Subcommands: ``count`` (paradoxical configurations), ``state`` (unreasoned
superposition as JSON), ``trace`` (hypothesis probability CSV), ``check-dim``
(minimal dimension audit) and ``verify`` (full invariant suite).

Exit codes: 0 on success, 1 for any domain or usage error, 2 when a
verification style command finds a failing check.  Every run is
deterministic given its arguments, and trace/state outputs echo the
resolved run manifest in their header so a rerun can be reproduced from
the artifact alone.

Every integer the command line takes as text (``--m``, ``--m-max``, the
sentence of ``--start``, each of ``--sentences``, the m of ``simple:<m>`` and
``LIARSIM_PRECISION``) is read by one rule, ``int_text``: text in JSON's
integer grammar becomes an ``int``, and any other text is passed on for the
slot's ``check_int`` to refuse under the slot's name.  ``--t-max`` and
``--dt`` are read by ``real_text``, in ``float``'s own spelling.  Each
refusal is one line that quotes the text through ``config.quote``, so a
long value gives a short line.  So is a first token that is not a command
word (the command word comes first, unless the first token is ``-h`` or
``--help``), and so are the tokens no option takes, which argparse would
echo whole.

Run as the program (``main()`` with no ``argv``), it sets
``OPENBLAS_NUM_THREADS=1`` unless the variable is already set, since no
command makes a BLAS call that threads would help; library imports and
in-process ``main(argv)`` calls leave the environment alone.

Every check of an argument or a configuration runs before the output is
opened, and none of them loads numpy.  ``trace`` and ``state`` then write
and flush their head (the manifest and column line, or the document up to
``"terms": [``) before numpy loads, and build their kernels, tables and
ranks after it; ``verify`` writes each check's line as soon as that check
ends, so its first lines leave the process before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from dataclasses import astuple

from .audit import AUDIT_BOUND, Contradiction, report_to_json, verify_minimality
from .config import (
    Configuration,
    config_from_json,
    count_paradoxical,
    eight_liar,
    one_liar,
    quote,
    simple_liar,
)
from .errors import LiarSimError, OutOfRange
from .evolution import check_precision, trace_csv_chunks, trace_sentences
from .statespace import decimal_string, state_json_chunks
from .verify import CHECKS, verification_results

DEFAULT_PRECISION = 12
PRECISION_ENV = "LIARSIM_PRECISION"
# Longest --config file read, in characters (/dev/zero must not fill memory);
# a 4,096-sentence configuration is under 200 KB even when indented.
MAX_CONFIG_BYTES = 2**20
NAMED_CONFIGS = {"one-liar": one_liar, "eight-liar": eight_liar}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for verification
    # failures here, so downgrade usage problems to the domain error code
    # and report them in one line, like every other input error.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        # argparse echoes an unknown command word and the tokens no option
        # takes whole; both are quoted here.  The command word comes first,
        # unless the first token asks for help.  Only the top parser's
        # ``parse_args`` runs, and ``build_parser`` gives it its ``commands``.
        args = sys.argv[1:] if args is None else args
        if args and args[0] not in (*self.commands, "-h", "--help"):
            self.error(f"invalid command {quote(args[0])}, choose from {', '.join(self.commands)}")
        parsed, stray = self.parse_known_args(args, namespace)
        if stray:
            self.error(f"unrecognized arguments: {quote(' '.join(stray))}")
        return parsed


def resolve_config(spec: str) -> Configuration:
    """Accept a named configuration, inline JSON, or a JSON file path.

    Names: ``one-liar``, ``eight-liar``, ``simple:<m>`` (single negation).
    Each is recognized only as written, so the manifest, which echoes the
    spec, names a configuration one way: a padded name is read as a path.
    """
    if spec in NAMED_CONFIGS:
        return NAMED_CONFIGS[spec]()
    if spec.startswith("simple:"):
        return simple_liar(int_text(spec.removeprefix("simple:")))
    if not spec.startswith("{"):
        with open(spec, encoding="utf-8") as fh:
            spec = fh.read(MAX_CONFIG_BYTES + 1)  # the JSON text of the named file
        if len(spec) > MAX_CONFIG_BYTES:
            raise OutOfRange(f"config file is longer than {MAX_CONFIG_BYTES} characters")
    return config_from_json(spec)


def int_text(text: str) -> int | str:
    """``text`` as an ``int`` when it is written in JSON's integer grammar (an
    optional minus and ASCII digits without a leading zero, at most 4,300 of
    them, ``int``'s limit), else ``text`` unchanged.  The slot it fills runs
    ``check_int``, which refuses the text under the slot's own name, so
    ``+5``, ``012``, ``1_0``, `` 5`` and ``١٢`` are refused where ``int``
    would take them."""
    return int(text) if re.fullmatch(r"-?(?:0|[1-9][0-9]{0,4299})", text) else text


def real_text(text: str) -> float:
    """``text`` as ``float`` reads it; other text is a one-line argparse
    error that quotes it through ``quote``."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got {quote(text)}") from None


def parse_start(text: str) -> tuple[int | str, bool]:
    """Parse the initial measurement, e.g. ``1:T`` or ``3:F``; the sentence
    is read by ``int_text``."""
    sentence, _, value = text.partition(":")
    if value.upper() not in ("T", "F"):
        raise argparse.ArgumentTypeError(f"expected <sentence>:<T|F>, got {quote(text)}")
    return int_text(sentence), value.upper() == "T"


def parse_time_scale(text: str) -> float:
    """Output time units per reasoning step: a finite positive float, ``pi``
    or ``pi/<d>``."""
    t = text.strip().lower()
    try:
        if t == "pi":
            scale = math.pi
        elif t.startswith("pi/"):
            scale = math.pi / float(t[3:])
        else:
            scale = float(t)
    except (ValueError, ZeroDivisionError):
        scale = math.nan
    if not 0 < scale < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, pi or pi/<d>, got {quote(text)}"
        )
    return scale


def parse_sentences(text: str) -> tuple[int | str, ...]:
    """Comma-separated sentences, each read by ``int_text``."""
    return tuple(int_text(x) for x in text.split(","))


def output_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    return DEFAULT_PRECISION if raw is None else check_precision(int_text(raw), PRECISION_ENV)


@contextlib.contextmanager
def _output(path: str | None):
    # sys.stdout is looked up per call: in-process callers may redirect it.
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_chunks(out, chunks) -> None:
    """Write the first chunk and flush it, then the rest: the head leaves
    the process before the later chunks are made, whether or not the
    output is buffered."""
    out.write(next(chunks))
    out.flush()
    out.writelines(chunks)


def cmd_count(args) -> int:
    print(decimal_string(count_paradoxical(args.m)))
    return 0


def cmd_state(args) -> int:
    config = resolve_config(args.config)
    manifest = {"command": "state", "config": args.config}
    # Every check runs on this call, before the output is opened, so a
    # failure leaves no partial file.  The head is written and flushed before
    # numpy loads; the tables, the rows and their ranks are made after it,
    # one term at a time as they are written.
    chunks = state_json_chunks(config, {"manifest": manifest})
    with _output(args.out) as out:
        _write_chunks(out, chunks)
        out.write("\n")
    return 0


def _echo_float(x: float) -> str:
    """x in the fewest significant digits, from 12 to 17, that read back as x,
    so a rerun with the echoed manifest reproduces the run."""
    for digits in range(12, 18):
        text = f"{x:.{digits}g}"
        # 17 digits read back as any finite x; a NaN never compares equal
        if digits == 17 or float(text) == x:
            return text


def _gnuplot_script(csv_path: str, sentences: tuple[int, ...]) -> str:
    quoted = csv_path.replace("'", "''")  # gnuplot's escape inside '...'
    lines = [
        f"# companion plot for {csv_path}",
        "set datafile separator ','",
        "set xlabel 'time'",
        "set ylabel 'probability'",
        "set yrange [-0.02:1.02]",
        "set key outside right",
    ]
    plots = [
        f"'{quoted}' using 1:($2 == {i} ? ${column} : 1/0) with lines"
        f" title 'sentence {i} {value}'"
        for i in sentences
        for column, value in ((3, "true"), (4, "false"))
    ]
    lines.append("plot \\")
    lines.append(", \\\n".join("  " + p for p in plots))
    return "\n".join(lines) + "\n"


def cmd_trace(args) -> int:
    config = resolve_config(args.config)
    if args.gnuplot and (args.out is None or args.out == "-"):
        raise OutOfRange("--gnuplot needs --out so the script can name the data file")
    if args.gnuplot and "\n" in args.out:
        raise OutOfRange("--out must not contain a newline when --gnuplot is given")
    if args.gnuplot and os.path.realpath(args.gnuplot) == os.path.realpath(args.out):
        raise OutOfRange("--gnuplot must name a different file from --out")
    t_max = args.t_max if args.t_max is not None else 2.0 * (2 * config.m) * args.time_scale
    sentences = trace_sentences(args.sentences, config.m)
    precision = output_precision()
    # Resolved settings of the run, echoed into the header in this order.
    manifest = {
        "command": "trace",
        "config": args.config,
        "start": f"{args.start[0]}:{'T' if args.start[1] else 'F'}",
        "t_max": _echo_float(t_max),
        "dt": _echo_float(args.dt),
        "time_scale": _echo_float(args.time_scale),
        "renormalize": "off" if args.raw_collapse else "on",
        "sentences": ",".join(str(i) for i in sentences),
        "precision": str(precision),
    }
    # Everything that can reject the run is checked here, before the output
    # is opened, so a failure leaves no partial file.  The manifest and the
    # column line are written and flushed before numpy loads; the kernel and
    # the rows come after them.
    chunks = trace_csv_chunks(
        config,
        args.start,
        t_max,
        args.dt,
        sentences=sentences,
        time_scale=args.time_scale,
        renormalize=not args.raw_collapse,
        header_lines=[f"{k}={v}" for k, v in manifest.items()],
        precision=precision,
    )
    with _output(args.out) as out:
        _write_chunks(out, chunks)
    if args.gnuplot:
        with _output(args.gnuplot) as out:
            out.write(_gnuplot_script(args.out, sentences))
    return 0


def cmd_check_dim(args) -> int:
    report = verify_minimality(args.m)
    print(f"minimal dimension audit, m = {args.m}")
    print(f"--- n = {2 * args.m}: expect a unique solution ---")
    for line in report.satisfiable.transcript:
        print(f"  {line}")
    print(f"--- n = {2 * args.m - 1}: expect a contradiction ---")
    for line in report.contradiction.transcript:
        print(f"  {line}")
    if isinstance(report.contradiction, Contradiction):
        print("witness facts:")
        for k, fact in enumerate(astuple(report.contradiction.witness), start=1):
            print(f"  {k}. {fact}")
    print(report_to_json(report))
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    # the results carry the names of CHECKS, so the column width is known
    # before the first check ends and each line is written as it ends
    width = max(len(name) for name, _ in CHECKS)
    results = []
    for r in verification_results(args.m_max):
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}", flush=True)
        results.append(r)
    failed, total = sum(not r.passed for r in results), len(results)
    print(f"{failed} of {total} checks FAILED" if failed else f"{total} checks passed")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liarsim",
        description="simulate truth-value dynamics of paradoxical liar cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # filled as each command is added

    p = sub.add_parser("count", help="count paradoxical configurations of size m")
    p.add_argument("--m", type=int_text, required=True, help="number of sentences")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("state", help="write the unreasoned superposition state")
    p.add_argument(
        "--config",
        required=True,
        help="JSON file, inline JSON, or one-liar | eight-liar | simple:<m>",
    )
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("trace", help="write hypothesis probability traces as CSV")
    p.add_argument("--config", required=True, help="as for the state command")
    p.add_argument(
        "--start",
        type=parse_start,
        default=(1, True),
        help="initial measurement <sentence>:<T|F> (default 1:T)",
    )
    p.add_argument(
        "--t-max",
        type=real_text,
        help="last time (default two full cycles, 4m x time scale; at time scale 1"
        " and the default --dt, a trace of all sentences exceeds MAX_TRACE_ROWS"
        " from m = 3536 up)",
    )
    p.add_argument("--dt", type=real_text, default=0.05, help="time step (default 0.05)")
    p.add_argument(
        "--time-scale",
        type=parse_time_scale,
        default=1.0,
        help="output time units per reasoning step: number, pi or pi/<d>",
    )
    p.add_argument(
        "--sentences",
        type=parse_sentences,
        help="comma-separated sentences to trace (default all)",
    )
    p.add_argument(
        "--raw-collapse",
        action="store_true",
        help="skip renormalization after the initial measurement",
    )
    p.add_argument("--gnuplot", help="also write a companion gnuplot script here")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check-dim", help="audit the minimal per-sentence dimension")
    p.add_argument("--m", type=int_text, required=True, help=f"2..{AUDIT_BOUND}")
    p.set_defaults(func=cmd_check_dim)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--m-max", type=int_text, default=8, help="largest size exercised")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # the process is the program's own (see the module docstring); numpy
        # loads only after this line, so OpenBLAS reads it as it starts
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``liarsim state ... | head``): stop
        # quietly, and point stdout at devnull so the interpreter's final
        # flush cannot fail again (the SIGPIPE note in the ``signal`` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (LiarSimError, OSError, ValueError) as exc:
        # The ValueErrors that reach here are all input errors: text that is
        # not JSON (json.JSONDecodeError), a --config file that is not UTF-8
        # (UnicodeDecodeError) and a path holding a NUL ("embedded null byte").
        # An OSError names its path through ``quote``, as every value in an
        # error line is named, so a long path gives a short line.
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: {quote(exc.filename)}"
        print(f"liarsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
