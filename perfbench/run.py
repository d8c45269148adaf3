"""The depthforge benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):

* ``brown-cold``: rounds of ``verify brown`` on the default batch (weights
  6..30) and on a fixed grid of tall kernels (``--weight 36`` and ``44``),
  alternating with the steps of a ceiling scan, ``verify brown --weight w``
  for even w from 32 until a fixed time budget is spent.  Each command is a
  fresh interpreter, as a CLI user runs it.
* ``support-cold``: rounds of the supporting pipelines (Bernoulli numbers,
  the bernsum chain, q-expansions, Hecke checks, Clebsch-Gordan shapes) plus
  malformed-input commands, each a fresh interpreter.
* ``api-warm``: one long-lived library process making a few hundred seeded
  calls per pass (``warm.py``).

The program runs from ``src`` of the checkout; nothing is installed.  One
child process runs at a time.  Every output is checked: fixed commands
against the sha256 of their report at the seed commit, the rest against
invariants.  Each timing is scaled by the machine-speed reference timed
around it (``speed.py``).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries per-layer metrics from
runs whose functions are wrapped by ``tracing.py``, next to the same work
untraced.  Lines before it report the figures named per workload
(``info ...``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Children always import the package from bytecode, cached in the harness's
# own directory, whatever the caller's environment says about bytecode; an
# untimed first import fills the cache.
PYCACHE = BENCH / ".cache" / "pycache"
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
ENV.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(PYCACHE))
DIGESTS = json.loads((BENCH / "digests.json").read_text())

RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed
SETUP_SAMPLES = 8  # api-warm takes this many before and after its library process
IMPORT = [sys.executable, "-c", "import depthforge.cli"]

BATCH = ["verify", "brown"]
# Tall kernels run in every brown-cold round, so the sizes the ceiling scan
# reaches are in a bounded figure too: (w-1)w/2 rows, 630 and 946.
GRID = [["verify", "brown", "--weight", str(w)] for w in (36, 44)]
MIN_BROWN_ROUNDS = 4
SETUP_PER_ROUND = 8  # brown-cold's setup_s samples per round
SCAN_BUDGET_S = 8.0  # scaled seconds of ceiling-scan steps
SCAN_STEPS = 2  # ceiling-scan steps per round
SCAN_START = 32
# The scan stops here even with budget left ("saturated"): the matrix has
# (w-1)w/2 rows, so a fast path must not carry the scan to unbounded sizes.
SCAN_CAP = 160
TRACED_SCAN = range(32, 42, 2)  # a fixed scan, so traced counts repeat exactly

SUPPORT = [
    ("bern_number_s", ["bern", "number", "--n", "600"]),
    ("bernsum_s", ["verify", "bernsum", "--k", "2", "--p", "13"]),
    ("delta_qexp_s", ["eis", "qexp", "--delta", "--prec", "1500"]),
    ("eis_factor_s", ["eis", "factor", "--p", "97"]),
    ("eigen_s", ["verify", "eigen", "--weight", "12", "--p", "7", "--prec", "400"]),
    ("cgshape_s", ["verify", "cgshape", "--max-sym", "10", "--max-twist", "3"]),
]
# Malformed input: the README documents exit status 2 and no traceback.
PROBES = [
    ["period", "check", "--poly", "[1,2]"],
    ["period", "check", "--poly", '{"x^2*y^8": "1/0"}'],
    ["period", "check", "--poly", '{"x^8*y^2": 1.5, "x^6*y^4": -4.5, "x^4*y^6": 4.5, "x^2*y^8": -1.5}'],
    ["bern", "dist", "--n", "2", "--m", "3", "--x", "1/0"],
]
MIN_ROUNDS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# Per-layer times are shares of the traced round's wall time (``trace.wall_s``):
# a layer a workload never enters reads exactly 0 on every run, which must not
# be reported as a time.
STAT_UNITS = {
    "calls": "count",
    "self_share": "ratio",
    "total_share": "ratio",
    "distinct_ratio": "ratio",
    "max_rows": "count",
    "max_entry_bits": "bits",
}


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every per-layer metric, derived from what tracing.py wraps."""
    out = {}
    for module, funcs in tracing.WRAPPED.items():
        for func, kind in funcs.items():
            name = "%s.%s" % (module, func)
            stats = ["calls"] if kind == tracing.COUNT else ["calls", "self_share", "total_share"]
            if name in tracing.DISTINCT:
                stats.append("distinct_ratio")
            if name in tracing.SIZED:
                stats += ["max_rows", "max_entry_bits"]
            for stat in stats:
                out["%s.%s" % (name, stat)] = STAT_UNITS[stat]
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def cusp_dim(w: int) -> int:
    """dim S_w, the weight-w cusp forms, which the period space must match."""
    return w // 12 - (1 if w % 12 == 2 else 0)


def brown_report_ok(weight: int, out: bytes) -> bool:
    """Invariants of a single-weight ``verify brown`` report."""
    try:
        report = json.loads(out)
    except ValueError:
        return False
    m = (weight - 2) // 2
    return (
        report.get("ok") is True
        and report.get("match") is True
        and report.get("weight") == weight
        and report.get("pairs") == [[i, m - i] for i in range(1, (m + 1) // 2)]
        and report.get("kernel_dim") == report.get("period_dim") == cusp_dim(weight)
        and report.get("in_space") is True
        and report.get("spans") is True
    )


class Child(NamedTuple):
    out: bytes
    err: bytes
    code: int
    seconds: float  # wall time
    rss_mb: float  # peak resident set


def spawn(argv: list[str], deadline: float) -> Child:
    """Run one child to its end, killing it if it still runs at ``deadline``.

    The child is reaped with ``wait4``, which gives its own peak RSS.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT)
    streams = {}
    readers = [threading.Thread(target=lambda f=f: streams.update({f: f.read()})) for f in (proc.stdout, proc.stderr)]
    for reader in readers:
        reader.start()
    lock, state = threading.Lock(), {"running": True, "killed": False}

    def kill():
        with lock:
            if state["running"]:  # not reaped yet, so the pid is still the child's
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - start
    with lock:
        state["running"] = False
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    if state["killed"]:
        raise subprocess.TimeoutExpired(argv, RUN_LIMIT_S)
    return Child(streams[proc.stdout], streams[proc.stderr], proc.returncode, seconds, usage.ru_maxrss / 1024)


class Run:
    """One benchmark run: runs the children and keeps the operation tally."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0  # wrong answers
        self.missed = 0  # malformed input not answered with exit 2
        self.identical = True
        self.peak_rss_mb = 0.0  # of the fixed-work children
        self.scan_rss_mb = 0.0  # of the ceiling-scan steps
        self.references: list[float] = []
        self.setup: list[tuple[float, float]] = []  # (scaled, raw) seconds

    def measure(self, argv: list[str], fixed: bool = True) -> tuple[Child, float]:
        """Run one child between two reference timings; return it and its scaled time."""
        before = speed.reference()
        child = spawn(argv, self.deadline)
        after = speed.reference()
        self.references += [before, after]
        if fixed:
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        else:
            self.scan_rss_mb = max(self.scan_rss_mb, child.rss_mb)
        return child, speed.scale(child.seconds, before, after)

    def check(self, args: list[str], child: Child) -> None:
        self.attempted += 1
        if args in PROBES:
            if child.code != 2 or child.out or b"Traceback" in child.err:
                self.missed += 1
        elif not self.report_ok(args, child.out, child.code):
            self.failed += 1
            print("wrong output (exit %d): depthforge %s" % (child.code, " ".join(args)), file=sys.stderr)

    def command(self, args: list[str], fixed: bool = True) -> tuple[float, float]:
        """Run one CLI command and check it; return its scaled and raw seconds."""
        child, scaled = self.measure([sys.executable, "-m", "depthforge.cli", *args], fixed)
        self.check(args, child)
        return scaled, child.seconds

    def traced_command(self, args: list[str], traced: bool) -> tuple[bytes, float, dict | None]:
        """Run one CLI command, plain or traced, unscaled; return its report, time and trace."""
        entry = [str(BENCH / "tracing.py")] if traced else ["-m", "depthforge.cli"]
        child = spawn([sys.executable, *entry, *args], self.deadline)
        self.check(args, child)
        trace = None
        if traced:
            lines = [l for l in child.err.decode(errors="replace").splitlines() if l.startswith(tracing.MARKER)]
            trace = json.loads(lines[-1][len(tracing.MARKER):]) if lines else {}
        return child.out, child.seconds, trace

    @staticmethod
    def report_ok(args: list[str], out: bytes, code: int) -> bool:
        if code != 0:
            return False
        digest = DIGESTS.get(" ".join(args))
        if digest is not None:
            return hashlib.sha256(out).hexdigest() == digest
        return brown_report_ok(int(args[-1]), out)  # scan weights past the recorded ones

    def commands(self, commands: list[list[str]], traced: bool) -> tuple[list[bytes], list[float], dict | None]:
        outs, times, traces = [], [], []
        for args in commands:
            out, seconds, trace = self.traced_command(args, traced)
            outs.append(out)
            times.append(seconds)
            traces.append(trace)
        return outs, times, tracing.merge(traces) if traced else None

    def sample_setup(self) -> None:
        """Time one fresh interpreter importing the CLI (samples are spread over the run)."""
        if not self.setup and spawn(IMPORT, self.deadline).code != 0:  # untimed: fills the bytecode cache
            raise RuntimeError("cannot import depthforge.cli from %s" % SRC)
        child, scaled = self.measure(IMPORT)
        self.setup.append((scaled, child.seconds))


def info(name: str, value, unit: str) -> None:
    print("info %s %s %s" % (name, value, unit))


def medians(rounds: list[list[float]]) -> list[float]:
    """The median of each command over the rounds."""
    return [statistics.median(times) for times in zip(*rounds)]


def brown_cold(run: Run, seconds: float) -> tuple[float, float]:
    """Rounds of the batch and the tall grid, each followed by ceiling-scan steps.

    ``wall_s`` is the batch's median plus each grid command's median, so
    both the small and the tall kernels are in it.  The scan's steps are
    single runs; it ends once its budget is spent or it reaches its cap.
    """
    end = time.monotonic() + seconds
    commands = [BATCH] + GRID
    rounds, raw_rounds = [], []
    spent, reached, ceiling = 0.0, SCAN_START - 2, None
    while True:
        started = time.monotonic()
        for _ in range(SETUP_PER_ROUND):
            run.sample_setup()
        times = [run.command(args) for args in commands]
        rounds.append([scaled for scaled, _ in times])
        raw_rounds.append([raw for _, raw in times])
        for _ in range(SCAN_STEPS):
            weight = reached + 2
            if ceiling is not None or weight > SCAN_CAP:
                break
            step = run.command(["verify", "brown", "--weight", str(weight)], fixed=False)[0]
            if spent + step > SCAN_BUDGET_S:
                # the weight the budget reaches, linear within the step that overran it
                ceiling = reached + 2 * (SCAN_BUDGET_S - spent) / step
            else:
                spent, reached = spent + step, weight
        scan_done = ceiling is not None or reached + 2 > SCAN_CAP
        if len(rounds) >= MIN_BROWN_ROUNDS and scan_done and time.monotonic() + (time.monotonic() - started) > end:
            break
    saturated = ceiling is None
    batch, *grid = medians(rounds)
    info("brown_batch_s", batch, "s")
    for args, value in zip(GRID, grid):
        info("brown_w%s_s" % args[-1], value, "s")
    info("brown_ceiling_weight", float(reached) if saturated else ceiling, "weight")
    info("brown_ceiling_completed", reached, "weight")
    info("brown_ceiling_saturated", saturated, "flag")
    info("scan_peak_rss_mb", run.scan_rss_mb, "MB")
    info("rounds", len(rounds), "count")
    return sum(medians(rounds)), sum(medians(raw_rounds))


def support_cold(run: Run, seconds: float) -> tuple[float, float]:
    """Rounds of the supporting commands; wall_s sums each command's median."""
    commands = [args for _, args in SUPPORT] + PROBES
    end = time.monotonic() + seconds
    rounds, raw_rounds = [], []
    while len(rounds) < MIN_ROUNDS or time.monotonic() + sum(raw_rounds[-1]) / 2 < end:
        times = []
        for args in commands:
            run.sample_setup()
            times.append(run.command(args))
        rounds.append([scaled for scaled, _ in times])
        raw_rounds.append([raw for _, raw in times])
    for (name, _), value in zip(SUPPORT, medians(rounds)):
        info(name, value, "s")
    info("rounds", len(rounds), "count")
    return sum(medians(rounds)), sum(medians(raw_rounds))


def cold_fixed_round(workload: str) -> list[list[str]]:
    if workload == "brown-cold":
        return [BATCH] + [["verify", "brown", "--weight", str(w)] for w in TRACED_SCAN]
    return [args for _, args in SUPPORT] + PROBES


def cold_traced(run: Run, workload: str, seconds: float) -> tuple[list[dict], list[float], list[float]]:
    """Pairs of the workload's fixed round, plain then traced, compared byte for byte."""
    commands = cold_fixed_round(workload)
    end = time.monotonic() + seconds
    traces, plain_walls, traced_walls = [], [], []
    while not traces or time.monotonic() + plain_walls[-1] + traced_walls[-1] <= end:
        plain_outs, plain_times, _ = run.commands(commands, traced=False)
        traced_outs, traced_times, trace = run.commands(commands, traced=True)
        run.identical &= plain_outs == traced_outs
        traces.append(trace)
        plain_walls.append(sum(plain_times))
        traced_walls.append(sum(traced_times))
    return traces, plain_walls, traced_walls


def api_warm(run: Run, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "warm.py"), "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    child = spawn(argv, run.deadline)
    run.peak_rss_mb = max(run.peak_rss_mb, child.rss_mb)
    if child.code != 0:
        sys.stderr.write(child.err.decode(errors="replace"))
        raise RuntimeError("the api-warm process exited with status %d" % child.code)
    data = json.loads(child.out.decode().splitlines()[-1])
    run.attempted += data["attempted"]
    run.failed += data["failed"]
    run.identical &= data.get("identical", True)
    run.references += data.get("references", [])
    return data


def layer_values(traces: list[dict], plain_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer metrics: the median over traced rounds of each statistic."""
    metrics = {}
    for name, unit in per_layer_metrics().items():
        if name == "trace.wall_s":
            value = statistics.median(traced_walls)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain_walls)
        else:
            func, stat = name.rsplit(".", 1)
            values = []
            for agg, wall in zip(traces, traced_walls):
                stats = agg.get(func, {})
                if stat == "distinct_ratio":
                    values.append(stats.get("distinct", 0) / stats["calls"] if stats.get("calls") else 0.0)
                elif stat.endswith("_share"):
                    values.append(stats.get(stat.replace("_share", "_s"), 0) / wall)
                else:
                    values.append(stats.get(stat, 0))
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="depthforge benchmark")
    parser.add_argument("--workload", required=True, choices=("brown-cold", "support-cold", "api-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "depthforge" / "cli.py").is_file():
        print("perfbench: no depthforge sources under %s" % SRC, file=sys.stderr)
        return 2

    started = time.monotonic()
    run = Run()
    try:
        if args.trace:
            if args.workload == "api-warm":
                data = api_warm(run, args.seed, args.seconds, 1)
                traces, plain, traced = data["traces"], data["pass_s"], data["traced_pass_s"]
            else:
                traces, plain, traced = cold_traced(run, args.workload, args.seconds)
            info("rounds", len(traces), "count")
            metrics = layer_values(traces, plain, traced)
        else:
            if args.workload == "brown-cold":
                wall, raw_wall = brown_cold(run, args.seconds)
            elif args.workload == "support-cold":
                wall, raw_wall = support_cold(run, args.seconds)
            else:
                for _ in range(SETUP_SAMPLES):
                    run.sample_setup()
                data = api_warm(run, args.seed, args.seconds - (time.monotonic() - started), 0)
                for _ in range(SETUP_SAMPLES):
                    run.sample_setup()
                wall, raw_wall = statistics.median(data["pass_s"]), statistics.median(data["raw_pass_s"])
                calls_ms = data["call_ms"]
                info("call_p50_ms", statistics.median(calls_ms), "ms")
                info("call_p90_ms", statistics.quantiles(calls_ms, n=10)[-1], "ms")
                info("calls_per_s", 1000 * len(calls_ms) / sum(calls_ms), "1/s")
                info("passes", len(data["pass_s"]), "count")
            info("raw_wall_s", raw_wall, "s")
            info("raw_setup_s", statistics.median(raw for _, raw in run.setup), "s")
            info("reference_s", statistics.median(run.references), "s")
            values = {
                "setup_s": statistics.median(scaled for scaled, _ in run.setup),
                "wall_s": wall,
                "peak_rss_mb": run.peak_rss_mb,
                "ok_ratio": (run.attempted - run.failed - run.missed) / run.attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    info("probes_missed", run.missed, "count")
    result = {
        "correct": run.failed == 0 and run.identical,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
