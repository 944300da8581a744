"""Command line surface.

Subcommands: ``count`` (paradoxical configurations), ``state`` (unreasoned
superposition as JSON), ``trace`` (hypothesis probability CSV), ``check-dim``
(minimal dimension audit) and ``verify`` (full invariant suite).

Exit codes: 0 on success, 1 for any domain or usage error, 2 when a
verification style command finds a failing check.  Every run is
deterministic given its arguments, and trace/state outputs echo the
resolved run manifest in their header so a rerun can be reproduced from
the artifact alone.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import astuple

from .audit import AUDIT_BOUND, Contradiction, report_to_json, verify_minimality
from .config import (
    Configuration,
    config_from_json,
    count_paradoxical,
    eight_liar,
    one_liar,
    simple_liar,
)
from .errors import LiarSimError, OutOfRange
from .evolution import check_precision, trace_csv_chunks, trace_sentences
from .statespace import decimal_string, state_json_chunks
from .verify import all_passed, run_verification

DEFAULT_PRECISION = 12
PRECISION_ENV = "LIARSIM_PRECISION"
# Longest --config file read, in characters (/dev/zero must not fill memory);
# a 4,096-sentence configuration is under 200 KB even when indented.
MAX_CONFIG_BYTES = 2**20


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for verification
    # failures here, so downgrade usage problems to the domain error code
    # and report them in one line, like every other input error.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def resolve_config(spec: str) -> Configuration:
    """Accept a named configuration, inline JSON, or a JSON file path.

    Names: ``one-liar``, ``eight-liar``, ``simple:<m>`` (single negation).
    """
    text = spec.strip()
    if text == "one-liar":
        return one_liar()
    if text == "eight-liar":
        return eight_liar()
    if text.startswith("simple:"):
        try:
            m = int(text.split(":", 1)[1])
        except ValueError:
            raise OutOfRange(
                f"expected simple:<m> with an integer m, got {spec!r}"
            ) from None
        return simple_liar(m)
    if text.startswith("{"):
        return config_from_json(text)
    with open(spec, encoding="utf-8") as fh:
        text = fh.read(MAX_CONFIG_BYTES + 1)
    if len(text) > MAX_CONFIG_BYTES:
        raise OutOfRange(f"config file is longer than {MAX_CONFIG_BYTES} characters")
    return config_from_json(text)


def parse_start(text: str) -> tuple[int, bool]:
    """Parse the initial measurement, e.g. ``1:T`` or ``3:F``."""
    try:
        sentence, value = text.split(":")
        if value.upper() not in ("T", "F"):
            raise ValueError(value)
        return int(sentence), value.upper() == "T"
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected <sentence>:<T|F>, got {text!r}"
        ) from None


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
            f"expected a finite positive number, pi or pi/<d>, got {text!r}"
        )
    return scale


def parse_sentences(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated sentence numbers, got {text!r}"
        ) from None


def output_precision() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION
    try:
        p = int(raw)
    except ValueError:
        raise OutOfRange(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    return check_precision(p, PRECISION_ENV)


@contextlib.contextmanager
def _output(path: str | None):
    # sys.stdout is looked up per call: in-process callers may redirect it.
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def cmd_count(args) -> int:
    print(decimal_string(count_paradoxical(args.m)))
    return 0


def cmd_state(args) -> int:
    config = resolve_config(args.config)
    manifest = {"command": "state", "config": args.config}
    # Every check, down to the first row and its rank, runs on this call,
    # before the output is opened, so a failure leaves no partial file.  The
    # later rows and ranks are made one at a time as they are written.
    chunks = state_json_chunks(config, {"manifest": manifest})
    with _output(args.out) as out:
        out.writelines(chunks)
        out.write("\n")
    return 0


def _echo_float(x: float) -> str:
    """x in the fewest significant digits, from 12 to 17, that read back as x,
    so a rerun with the echoed manifest reproduces the run."""
    for digits in range(12, 17):
        text = f"{x:.{digits}g}"
        if float(text) == x:
            return text
    return f"{x:.17g}"


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
    # is opened, so a failure leaves no partial file.
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
        out.writelines(chunks)
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
    results = run_verification(args.m_max)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    if all_passed(results):
        print(f"{len(results)} checks passed")
        return 0
    failed = sum(1 for r in results if not r.passed)
    print(f"{failed} of {len(results)} checks FAILED")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liarsim",
        description="simulate truth-value dynamics of paradoxical liar cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("count", help="count paradoxical configurations of size m")
    p.add_argument("--m", type=int, required=True, help="number of sentences")
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
    p.add_argument("--t-max", type=float, help="last time (default two full cycles)")
    p.add_argument("--dt", type=float, default=0.05, help="time step (default 0.05)")
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
    p.add_argument("--m", type=int, required=True, help=f"2..{AUDIT_BOUND}")
    p.set_defaults(func=cmd_check_dim)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--m-max", type=int, default=8, help="largest size exercised")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
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
        # json.JSONDecodeError is a ValueError
        print(f"liarsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
