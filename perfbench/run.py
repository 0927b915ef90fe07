"""Time-to-verdict benchmark for the motalg command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the package is used from src/, not
installed).  A closed loop with one client: this process has one
`python -m motalg.cli ...` process at a time started (by spawner.py) and
repeats whole rounds of the workload's operations until S seconds of rounds
have run.  Every round's
outputs are checked (workloads.py, checks.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  An operation's time runs from
its process's start to its exit; each operation counts at its fastest over
the run's rounds.  wall_s is one round (first operation's start to last
verdict, the operations running back to back), slowest_op_s the longest
operation, peak_rss_mb the largest resident set of any operation's
process, and setup_s the time from this process's start to the first timed
operation (input generation and one warm-up operation).  --trace 1 runs
one untraced round for reference, then the same operations in this process
through motalg.cli.main with spans and counters around each module
(tracing.py), and reports the per-layer metrics.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from checks import MALFORMED, CheckFailed
from workloads import WORKLOADS, Op, Workload


def _process_age() -> float:
    """Seconds since this process started, at 10 ms resolution (Linux)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


# setup_s counts from the process's start: its age here plus what follows.
_T0 = perf_counter()
_AGE_AT_T0 = _process_age()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "work")
OP_TIMEOUT = 60.0
RUN_DEADLINE = 150.0    # seconds from start; later operations are cut short
WARM_UP = ("steenrod", "commute", "--n", "1")


def op_timeout() -> float:
    """How long the next operation may run, so that a run whose program
    hangs still ends within RUN_DEADLINE plus a second per operation."""
    return max(1.0, min(OP_TIMEOUT, RUN_DEADLINE - (perf_counter() - _T0)))


@dataclass
class OpRun:
    op: Op
    rc: int | None
    out: bytes
    err: bytes
    seconds: float
    rss_mb: float = 0.0

    @property
    def failed(self) -> bool:
        """No verdict: killed, an exit code other than 0 or 1, or a crash."""
        return self.rc not in (0, 1) or b"Traceback" in self.err


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


class Spawner:
    """Runs operations to completion through spawner.py, one at a time."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(ROOT, "perfbench", "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def run(self, argv: tuple, out_path: str, err_path: str):
        """(exit code, seconds from process start to exit, peak RSS MB) of
        `motalg.cli argv`; the exit code is negative when a signal (or the
        time limit) ended it."""
        request = {"argv": [sys.executable, "-m", "motalg.cli", *argv],
                   "out": out_path, "err": err_path, "timeout": op_timeout()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench/spawner.py ended unexpectedly")
        rc, seconds, rss = json.loads(reply)
        return rc, seconds, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def subprocess_round(wl: Workload, work: str, spawner: Spawner):
    timed = []
    start = perf_counter()
    for k, op in enumerate(wl.ops):
        paths = (os.path.join(work, f"op{k}.out"), os.path.join(work, f"op{k}.err"))
        timed.append((op, paths, spawner.run(op.argv, *paths)))
    end = perf_counter()
    runs = []
    for op, paths, (rc, seconds, rss) in timed:
        with open(paths[0], "rb") as out, open(paths[1], "rb") as err:
            runs.append(OpRun(op, rc, out.read(), err.read(), seconds, rss))
    return start, end, runs


def _timed_out(signum, frame):
    raise TimeoutError("operation exceeded its time limit")


def inprocess_round(wl: Workload, cli):
    signal.signal(signal.SIGALRM, _timed_out)
    runs = []
    start = perf_counter()
    for op in wl.ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, op_timeout())
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:   # a crash or the timeout: no verdict
                traceback.print_exc()
                rc = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        runs.append(OpRun(op, rc, out.getvalue().encode(), err.getvalue().encode(),
                          perf_counter() - t0))
    return start, perf_counter(), runs


class Verdicts:
    """Failed operations and wrong outputs over all rounds of a run.  A
    round whose outputs are byte-identical to a round already checked is
    not checked again."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []   # operations without a verdict
        self.wrong: list[str] = []      # wrong verdicts or outputs
        self._checked: set = set()

    def add(self, runs: list[OpRun]) -> None:
        self.attempted += len(runs)
        outs = {}
        for r in runs:
            if r.failed:
                self.failures.append(f"{r.op.name} failed (exit {r.rc}): "
                                     f"{r.err.decode(errors='replace')[-300:]}")
            elif r.rc != r.op.expect:
                self.wrong.append(f"{r.op.name}: exit {r.rc}, expected {r.op.expect}")
            else:
                outs[r.op.name] = r.out
        digest = tuple(sorted((n, hashlib.sha256(o).hexdigest()) for n, o in outs.items()))
        if digest in self._checked:
            return
        try:
            self.wl.check(outs)
        except CheckFailed as exc:
            self.wrong.append(str(exc))
            return
        except MALFORMED as exc:
            self.wrong.append(f"malformed output: {exc!r}")
            return
        self._checked.add(digest)


def cli_import_seconds(env: dict, repeats: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import motalg.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, check=True, text=True).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


UNITS = {"steenrod.rules": "count", "gf2.rows": "rows", "trace.overhead_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def run(args, work: str, env: dict, spawner: Spawner) -> dict:
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, work)
    spawner.run(WARM_UP, os.path.join(work, "warm.out"), os.path.join(work, "warm.err"))
    setup_end = perf_counter()
    setup_s = _AGE_AT_T0 + setup_end - _T0
    verdicts = Verdicts(wl)

    times: dict[str, list[float]] = {op.name: [] for op in wl.ops}
    if not args.trace:
        spent, peak_rss, rounds = 0.0, 0.0, 0
        while rounds == 0 or spent < args.seconds:
            start, end, runs = subprocess_round(wl, work, spawner)
            verdicts.add(runs)
            spent += end - start
            rounds += 1
            for r in runs:
                times[r.op.name].append(r.seconds)
                peak_rss = max(peak_rss, r.rss_mb)
        # Each operation at its fastest over the run's rounds: contention
        # from other tenants of the machine only ever adds time.
        best = {name: min(ts) for name, ts in times.items()}
        metrics = {
            "wall_s": sum(best.values()),
            "slowest_op_s": max(best.values()),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        }
        units = {"wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    else:
        import motalg.cli as cli
        setup_metrics = tracer.window_metrics(0.0, setup_end, Counter(tracer.counts))
        start, end, runs = subprocess_round(wl, work, spawner)
        verdicts.add(runs)
        untraced_wall = end - start
        spent, layers, walls = untraced_wall, [], []
        while spent < args.seconds or not layers:
            before = Counter(tracer.counts)
            start, end, runs = inprocess_round(wl, cli)
            verdicts.add(runs)
            layers.append(tracer.window_metrics(start, end, tracer.counts - before))
            walls.append(end - start)
            spent += end - start
            for r in runs:
                times[r.op.name].append(r.seconds)
        metrics = tracing.median_metrics(layers)
        metrics["hopf.build.s"] += setup_metrics["hopf.build.s"]
        metrics["cli.import_s"] = cli_import_seconds(env)
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall
        units = {name: unit_of(name) for name in metrics}
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "setup_end": setup_end, "metrics": metrics})

    for name, ts in times.items():
        print(f"{name:<28s} min {min(ts):8.3f}s  median {statistics.median(ts):8.3f}s"
              f"  rounds {len(ts)}", file=sys.stderr)
    for p in verdicts.failures + verdicts.wrong:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not verdicts.wrong,
        "attempted": verdicts.attempted,
        "failed": len(verdicts.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motalg", "cli.py")):
        print(f"error: no motalg sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    env = child_env()
    spawner = Spawner(env)
    try:
        result = run(args, work, env, spawner)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
