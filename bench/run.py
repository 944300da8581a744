"""liarsim benchmark: closed-loop CLI workloads with a numeric output oracle.

Usage (from the repository root):

    python3 bench/run.py --workload trace-long --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the real ``liarsim`` command line as
subprocesses, one invocation at a time, for ``--seconds`` seconds, checks
every output with ``oracle.py`` and reports the end-to-end metrics.  With
``--trace 1`` it runs the same invocations in process, alternating
untraced and traced runs, and reports the per-layer metrics of
``tracing.py``.

Stdout ends with two JSON lines: the full report (provenance, every raw
sample, medians and quartiles) and the result line
``{"correct", "attempted", "failed", "metrics"}``.  It exits 2 without a
result when the liarsim sources are not beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Same entry point as the installed ``liarsim`` console script.  The first
# argument names a file that receives the process's VmHWM (peak resident
# set, kB) at exit.  It is read after exec, so unlike wait4's ru_maxrss it
# does not include the memory of the benchmark process that spawned it.
CLI = """import sys
hwm_path = sys.argv.pop(1)
try:
    from liarsim.cli import main
    code = main()
finally:
    sys.stdout.flush()
    with open("/proc/self/status") as status, open(hwm_path, "w") as hwm:
        hwm.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""
SETUP = "import sys; from liarsim.cli import resolve_config\nfor s in sys.argv[1:]: resolve_config(s)"
PROBE = (
    "import json, liarsim, numpy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'liarsim': liarsim.__version__, 'liarsim_file': liarsim.__file__,"
    " 'numpy': numpy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"
)
MIN_SAMPLES = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the result line reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def child_env() -> dict[str, str]:
    """The user's environment, thread settings untouched, with the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(args: list[str], env: dict[str, str], stderr_path: Path) -> dict:
    """Run one process to completion; time it from spawn to exit and to its
    first stdout byte, and take its CPU time from wait4."""
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            chunks, first = [], None
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 20):
                if first is None:
                    first = time.perf_counter() - t0
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "first_output_s": wall if first is None else first,
        "returncode": proc.returncode,
        "stdout": b"".join(chunks).decode(errors="replace"),
        "stderr": stderr,
    }


class Checker:
    """Judges each invocation by its exit code and the oracle, and keeps the
    failures.  An output byte-identical to one that already passed for the
    same invocation is not parsed again."""

    def __init__(self):
        self.failures: list[str] = []
        self._passed: dict[tuple, tuple[str, int]] = {}

    def records(self, inv: workloads.Invocation, code: int, out: str, err: str) -> int | None:
        """The output's record count, or None when the invocation failed."""
        if inv.argv in self._passed and self._passed[inv.argv][0] == out and code == 0:
            return self._passed[inv.argv][1]
        try:
            if code != 0:
                raise oracle.OracleError(f"exit {code}: {err.strip()[-500:]}")
            count = oracle.check(inv.kind, out, inv.check)
        except oracle.OracleError as exc:
            self.failures.append(f"{' '.join(inv.argv)}: {exc}")
            return None
        self._passed[inv.argv] = (out, count)
        return count


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_budget(seconds: float, step) -> None:
    """Closed loop: call ``step`` until the next call would overrun the
    budget, and at least MIN_SAMPLES times."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < MIN_SAMPLES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        done += 1


def setup_probe(workload: workloads.Workload, env, workdir: Path) -> float:
    """Wall time of a process that only imports liarsim.cli and resolves the
    workload's --config values."""
    r = spawn([sys.executable, "-c", SETUP, *workload.config_specs], env, workdir / "setup.err")
    if r["returncode"] != 0:
        raise RuntimeError(f"set-up probe failed: {r['stderr'].strip()}")
    return r["wall_s"]


def peak_rss_mb(hwm: Path) -> float:
    """The peak resident set (10^6 bytes) that the CLI wrapper wrote, or 0
    when the invocation died before writing it (the sample fails anyway)."""
    try:
        _, kb, unit = hwm.read_text().split()
    except FileNotFoundError:
        return 0.0
    assert unit == "kB", unit
    return int(kb) * 1024 / 1e6


def run_end_to_end(workload, seconds: float, env, workdir: Path,
                   names) -> tuple[dict, list, Checker]:
    """Subprocess samples.  A sample is one set-up probe followed by every
    invocation of the workload, so set-up is timed across the whole run."""
    checker = Checker()
    samples = []
    setup_probe(workload, env, workdir)  # untimed: compiles bytecode, fills the file cache

    def step():
        sample = {"setup_s": setup_probe(workload, env, workdir), "wall_s": 0.0, "cpu_s": 0.0,
                  "first_output_s": None, "peak_rss_mb": 0.0, "records": 0, "ok": True}
        for inv in workload.invocations:
            hwm = workdir / "cli.hwm"
            hwm.unlink(missing_ok=True)
            r = spawn([sys.executable, "-c", CLI, str(hwm), *inv.argv], env, workdir / "cli.err")
            sample["wall_s"] += r["wall_s"]
            sample["cpu_s"] += r["cpu_s"]
            if sample["first_output_s"] is None:
                sample["first_output_s"] = r["first_output_s"]
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], peak_rss_mb(hwm))
            records = checker.records(inv, r["returncode"], r["stdout"], r["stderr"])
            sample["ok"] = sample["ok"] and records is not None
            sample["records"] += records or 0
        sample["records_per_s"] = sample["records"] / sample["wall_s"]
        samples.append(sample)

    run_budget(seconds, step)
    good = [s for s in samples if s["ok"]] or samples
    stats = {name: summarize([s[name] for s in good]) for name in names}
    return stats, samples, checker


def run_in_process(workload, checker: Checker) -> tuple[float, bool]:
    """Call liarsim.cli.main for each invocation with stdout captured;
    returns the wall time of the calls alone and whether all outputs passed."""
    import liarsim.cli

    wall, ok = 0.0, True
    for inv in workload.invocations:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = liarsim.cli.main(list(inv.argv))
            wall += time.perf_counter() - t0
        ok = checker.records(inv, code, out.getvalue(), err.getvalue()) is not None and ok
    return wall, ok


def run_traced(workload, seconds: float) -> tuple[dict, dict, list, Checker]:
    """Alternate untraced and traced in-process runs; every per-layer metric
    is the median over the traced runs."""
    sys.path.insert(0, str(SRC))
    import liarsim.cli  # noqa: F401  (loads every liarsim module)

    checker = Checker()
    untraced, traced, layer_runs, outcomes = [], [], [], []

    def step():
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_tracing in order:
            if not with_tracing:
                wall, ok = run_in_process(workload, checker)
                untraced.append(wall)
            else:
                tracer = Tracer()
                tracer.install()
                try:
                    wall, ok = run_in_process(workload, checker)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                layer_runs.append(tracer.metrics())
            outcomes.append(ok)

    run_budget(seconds, step)
    layers = {}
    for name, first in layer_runs[0].items():
        # counts repeat exactly from run to run; times take the median
        layers[name] = first if isinstance(first, int) else statistics.median(
            run[name] for run in layer_runs)
    layers["traced.wall_s"] = statistics.median(traced)
    layers["traced.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    raw = {"untraced_wall_s": untraced, "traced_wall_s": traced}
    return layers, raw, outcomes, checker


def provenance(env, workdir: Path, args) -> dict:
    probe = spawn([sys.executable, "-c", PROBE], env, workdir / "probe.err")
    if probe["returncode"] != 0:
        raise RuntimeError(f"cannot import liarsim: {probe['stderr'].strip()}")
    info = json.loads(probe["stdout"])
    if Path(info["liarsim_file"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"liarsim imported from {info['liarsim_file']}, not {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "liarsim": info["liarsim"],
        "commit": commit,
        "loop": "closed, one client, one invocation at a time",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "liarsim" / "cli.py").is_file():
        print(f"bench: liarsim sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        env = child_env()
        workload = workloads.build(args.workload, args.seed, workdir)
        report = {"provenance": provenance(env, workdir, args)}
        if args.trace:
            layers, raw, outcomes, checker = run_traced(workload, args.seconds)
            report["per_layer"] = layers
            report["traced_runs"] = raw
            units = metric_units("per_layer")
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        else:
            units = metric_units("end_to_end")
            stats, samples, checker = run_end_to_end(workload, args.seconds, env, workdir, units)
            outcomes = [s["ok"] for s in samples]
            report["end_to_end"] = stats
            report["samples"] = samples
            metrics = {name: {"value": stats[name]["median"], "unit": unit}
                       for name, unit in units.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(outcomes), outcomes.count(False)
    report["error_rate"] = failed / attempted
    report["failures"] = checker.failures
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
