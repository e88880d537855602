"""Benchmark of lgquot: cold and warm queries, oracle builds, wide-rank float counts.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
Every operation's answer is checked: counts against the independent reference
in reference.py, the rest against properties the method must have.  The last
line of standard output is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import inputs
import reference
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 3      # fresh processes set up per run; setup_s is their median
IMPORT_REPEATS = 5     # fresh interpreters importing lgquot, for the CLI workloads
MIN_CLI_ROUNDS = 2     # odd-ell values are checked against the next round's
TAIL_MIN_OPS = 100     # the 90th percentile needs ten operations beyond it
TRACED_ROUNDS = {"warm_session": 10, "oracle_algebra": 1}
OP_TIMEOUT_S = 120
RUN_LIMIT_S = 150      # no new round starts after this much wall time

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "load_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run or an operation broke its protocol."""


class Context:
    def __init__(self, args, tmp: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.started = perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + str(HERE)
        self.env["LGQ_CACHE_DIR"] = str(tmp / "default-cache")
        self.env["PYTHONHASHSEED"] = "0"
        self.sampler = speed.Sampler(self.env)

    def calibration(self) -> speed.Calibration:
        """Stop the calibration side process and return its samples."""
        return self.sampler.stop()

    def close(self) -> None:
        self.sampler.kill()

    def python(self, *argv: str) -> list[str]:
        return [sys.executable, *argv]

    def out_of_time(self) -> bool:
        return perf_counter() - self.started > RUN_LIMIT_S


class Timing:
    """A measured time and the interval it was measured over, for rescaling."""

    def __init__(self, seconds: float, start: float, end: float):
        self.seconds, self.start, self.end = seconds, start, end

    def value(self, cal: speed.Calibration | None) -> float:
        return self.seconds if cal is None else cal.scale(self.seconds, self.start, self.end)


# -- metrics ---------------------------------------------------------------------------------


def tail(latencies: list[float], rounds: list[list[float]]) -> float:
    """The 90th percentile, where at least ten operations lie beyond it.

    The percentile is fixed rather than the highest one with ten samples
    beyond it, because that one moves with the number of rounds in a run,
    and the rounds mix slow and fast kinds of operation.  A run with fewer
    than TAIL_MIN_OPS operations has no such tail; it reports the median over
    rounds of each round's slowest operation instead.
    """
    if len(latencies) >= TAIL_MIN_OPS:
        return quantiles(latencies, n=10)[-1]
    return median(max(r) for r in rounds)


def peak_rss_mb() -> float:
    """Largest resident set of any child that did the work (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(ops: list[dict], setups: list[Timing], builds: list[Timing],
               loads: list[Timing], cal: speed.Calibration | None) -> dict:
    """The end-to-end metrics, rescaled by `cal`, or as measured when it is None.

    Closed loop, one client: throughput counts the operations' own time, not
    the checks and bookkeeping the benchmark does between them.
    """
    latencies = [Timing(op["latency_s"], op["start"], op["end"]).value(cal) for op in ops]
    by_round: dict[int, list[float]] = {}
    for op, latency in zip(ops, latencies):
        by_round.setdefault(op["round"], []).append(latency)
    return {
        "setup_s": median(t.value(cal) for t in setups),
        "throughput_qps": len(ops) / sum(latencies),
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail(latencies, list(by_round.values())),
        "peak_rss_mb": peak_rss_mb(),
        "build_s": median(t.value(cal) for t in builds),
        "load_s": median(t.value(cal) for t in loads),
    }


def report(ops, setups, builds, loads, cal: speed.Calibration) -> dict:
    """Rescaled metrics for the result; the figures as measured go on a line of their own."""
    measured = end_to_end(ops, setups, builds, loads, None)
    print("perfbench: as measured " + json.dumps(measured))
    scaled = end_to_end(ops, setups, builds, loads, cal)
    return {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END.items()}


# -- processes ------------------------------------------------------------------------------


def run_process(ctx: Context, argv: list[str]) -> tuple[Timing, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(argv, env=ctx.env, cwd=ROOT, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    end = perf_counter()
    return Timing(end - start, start, end), proc


def last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("process printed nothing")
    return json.loads(lines[-1])


def import_times(ctx: Context) -> list[Timing]:
    """Fresh interpreters that only import lgquot."""
    times = []
    for _ in range(IMPORT_REPEATS):
        timing, proc = run_process(ctx, ctx.python("-c", "import lgquot"))
        if proc.returncode != 0:
            raise BenchError(f"importing lgquot failed: {proc.stderr.strip()[-500:]}")
        times.append(timing)
    return times


# -- CLI workloads: cold_rank and float_wide ---------------------------------------------


def count_argv(op: dict, backend: str) -> list[str]:
    return ["count", "--n", str(op["n"]), "--genus", str(op["g"]), "--ell", str(op["ell"]),
            "--backend", backend, "--format", "json"]


def run_count(ctx: Context, op: dict, backend: str, traced: bool) -> dict:
    """One count query in a fresh process; returns its record."""
    if traced:
        argv = ctx.python(str(HERE / "worker.py"), "cli", "--", *count_argv(op, backend))
    else:
        argv = ctx.python("-m", "lgquot", *count_argv(op, backend))
    timing, proc = run_process(ctx, argv)
    record = {"op": op, "latency_s": timing.seconds, "start": timing.start, "end": timing.end,
              "exit": proc.returncode, "value": None}
    try:
        payload = last_json(proc.stdout)
    except (BenchError, ValueError):
        record["error"] = proc.stderr.strip()[-500:]
        return record
    if traced:
        record["trace"] = payload["trace"]
        record["exit"] = payload["exit"]
        payload = last_json(payload["stdout"])
    record["value"] = payload.get("value")
    record["elapsed_s"] = payload.get("elapsed_ms", 0.0) / 1000.0
    return record


def check_counts(records: list[dict]) -> None:
    """Mark each count record ok or not.

    Even ell and ranks 1-2: equal to the reference.  Odd ell above rank 2:
    every round's value for a template slot equals every other's, since the
    rounds differ by ell -> ell + 2 (twist invariance); a slot seen once fails.
    """
    expected: dict[tuple, int | None] = {}
    slots: dict[object, list[dict]] = {}
    for record in records:
        op = record["op"]
        key = (op["n"], op["g"], op["ell"])
        if key not in expected:
            expected[key] = reference.expected_count(*key)
        record["ok"] = record["exit"] == 0 and record["value"] is not None
        if expected[key] is not None:
            record["ok"] = record["ok"] and int(record["value"]) == expected[key]
        else:
            slots.setdefault(op["slot"], []).append(record)
    for group in slots.values():
        values = {r["value"] for r in group}
        if len(group) < 2 or len(values) != 1:
            for r in group:
                r["ok"] = False


def cli_workload(ctx: Context, template: list[dict], backend: str) -> dict:
    for slot, op in enumerate(template):
        op["slot"] = slot
    if ctx.trace:
        return cli_traced(ctx, template, backend)
    setups = import_times(ctx)
    records = []
    start = perf_counter()
    index, last = 0, 0.0
    while True:  # whole rounds: the minimum, then more while one more fits in the time
        elapsed = perf_counter() - start
        if index >= MIN_CLI_ROUNDS and (elapsed + last > ctx.seconds or ctx.out_of_time()):
            break
        for op in inputs.cli_round(template, index):
            record = run_count(ctx, op, backend, traced=False)
            record["round"] = index
            records.append(record)
        last = perf_counter() - start - elapsed
        index += 1
    cal = ctx.calibration()
    check_counts(records)
    answered = [r for r in records if "elapsed_s" in r]
    # inside each process: the CLI's own elapsed time, and the rest (start-up, import, output)
    builds = [Timing(r["elapsed_s"], r["start"], r["end"]) for r in answered]
    loads = [Timing(r["latency_s"] - r["elapsed_s"], r["start"], r["end"]) for r in answered]
    return result(records, report(records, setups, builds, loads, cal))


def cli_traced(ctx: Context, template: list[dict], backend: str) -> dict:
    """Each operation once untraced (round 0) and once traced (round 1)."""
    import tracer
    records, totals = [], dict.fromkeys(tracer.SUMMED, 0)
    pairs = []
    for plain_op, traced_op in zip(inputs.cli_round(template, 0), inputs.cli_round(template, 1)):
        plain = run_count(ctx, plain_op, backend, traced=False)
        traced = run_count(ctx, traced_op, backend, traced=True)
        records += [plain, traced]
        pairs.append((plain, traced))
        for name, value in traced.get("trace", {}).items():
            if name in totals:
                totals[name] += value
        totals["cli.overhead_s"] += plain["latency_s"] - plain.get("elapsed_s", 0.0)
    cal = ctx.calibration()
    check_counts(records)
    untraced_s, traced_s = (sum(Timing(r["latency_s"], r["start"], r["end"]).value(cal)
                                for r in side) for side in zip(*pairs))
    return result(records, per_layer(totals, traced_s / untraced_s))


# -- in-process workloads: warm_session and oracle_algebra -----------------------------


class Worker:
    """A session worker process, read line by line; stopped and reaped on close."""

    def __init__(self, ctx: Context, cache: Path, setup_only=False, rounds=None, traced=False):
        argv = ctx.python(str(HERE / "worker.py"), "session", ctx.workload,
                          "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
                          "--cache", str(cache))
        if setup_only:
            argv.append("--setup-only")
        if rounds is not None:
            argv += ["--rounds", str(rounds)]
        if traced:
            argv.append("--trace")
        self.start = perf_counter()
        self.proc = subprocess.Popen(argv, env=ctx.env, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=OP_TIMEOUT_S)
            raise BenchError(f"worker ended early: {self.proc.stderr.read().strip()[-800:]}")
        return json.loads(line)

    def close(self, kill: bool) -> int:
        if kill and self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def run_worker(ctx: Context, cache: Path, **options) -> tuple[Timing, dict, dict]:
    """Start a worker; returns its set-up time (spawn to ready), its ready line and its done line.

    The done line gets the worker's whole life, spawn to exit, as "wall".
    """
    worker = Worker(ctx, cache, **options)
    finished = False
    try:
        ready = worker.read()
        ready_at = perf_counter()
        if Path(ready["lgquot"]).resolve().parent != (SRC / "lgquot").resolve():
            raise BenchError(f"imported lgquot from {ready['lgquot']}, not from {SRC}")
        done = {} if options.get("setup_only") else worker.read()
        finished = True
    finally:
        code = worker.close(kill=not finished)
    if code != 0:
        raise BenchError(f"worker exited with {code}")
    exited = perf_counter()
    done["wall"] = Timing(exited - worker.start, worker.start, exited)
    return Timing(ready_at - worker.start, worker.start, ready_at), ready, done


def check_session(ctx: Context, ops: list[dict]) -> None:
    """Warm results: counts as in check_counts, every other value a nonnegative integer.

    The oracle worker has already marked its operations: each reload equals
    the algebra it built, and each trace equals the direct sum.
    """
    if ctx.workload == "oracle_algebra":
        return
    counts = []
    for op in ops:
        spec = op["op"]
        if spec["fn"] == "count":
            # an odd-ell count and its ell + 2 twin share (round, n, g)
            counts.append({"op": dict(spec, slot=(op["round"], spec["n"], spec["g"])),
                           "exit": 0, "value": op["value"], "record": op})
        else:
            op["ok"] = op["value"].isdigit()
    check_counts(counts)
    for count in counts:
        count["record"]["ok"] = count["ok"]


def session_traced(ctx: Context) -> dict:
    """A fixed number of rounds untraced, then the same rounds traced."""
    rounds = TRACED_ROUNDS[ctx.workload]
    _, _, plain = run_worker(ctx, ctx.tmp / "plain", rounds=rounds)
    _, _, traced = run_worker(ctx, ctx.tmp / "traced", rounds=rounds, traced=True)
    ops = plain["ops"] + traced["ops"]
    check_session(ctx, ops)
    totals = dict(traced["trace"], **{"cli.overhead_s": 0.0})
    cal = ctx.calibration()
    overhead = traced["wall"].value(cal) / plain["wall"].value(cal)
    return result(ops, per_layer(totals, overhead))


def session_workload(ctx: Context) -> dict:
    if ctx.trace:
        return session_traced(ctx)
    imports = import_times(ctx) if ctx.workload == "warm_session" else []
    runs = [run_worker(ctx, ctx.tmp / f"setup-{i}", setup_only=i < SETUP_REPEATS - 1)
            for i in range(SETUP_REPEATS)]
    cal = ctx.calibration()
    ops = runs[-1][2]["ops"]
    check_session(ctx, ops)
    setups = [timing for timing, _, _ in runs]
    # the build inside each set-up: the point tables, or the top-rank algebra
    builds = [Timing(ready["build_s"], t.start, t.end) for t, ready, _ in runs]
    if ctx.workload == "warm_session":
        loads = imports
    else:
        builds += [Timing(op["latency_s"], op["start"], op["end"]) for op in ops
                   if op["kind"] == "write"]
        loads = [Timing(op["latency_s"], op["start"], op["end"]) for op in ops
                 if op["kind"] == "read"]
    return result(ops, report(ops, setups, builds, loads, cal))


# -- result -----------------------------------------------------------------------------------


def per_layer(totals: dict, overhead_ratio: float) -> dict:
    import tracer
    values = dict(totals)
    candidates = values["partitions.candidates"]
    values["partitions.yield"] = values["partitions.points"] / candidates if candidates else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit in tracer.METRICS.items()}


def result(records: list[dict], metrics: dict) -> dict:
    """An operation fails when its answer is wrong or missing.

    Only the float counts named in inputs.FLOAT_KNOWN_WRONG may fail in a
    correct run; any other failure makes the run incorrect.
    """
    failed = [r for r in records if not r.get("ok")]
    unexpected = [r for r in failed if not r.get("op", {}).get("known_wrong")]
    for r in unexpected[:5]:
        print(f"perfbench: wrong or missing answer: {json.dumps(r)[:400]}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


WORKLOADS = {
    "cold_rank": lambda ctx: cli_workload(ctx, inputs.cold_rank_template(ctx.seed), "exact"),
    "warm_session": session_workload,
    "oracle_algebra": session_workload,
    "float_wide": lambda ctx: cli_workload(ctx, inputs.float_wide_template(ctx.seed), "float"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop every child process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "lgquot" / "__init__.py").is_file():
        print(f"perfbench: no lgquot sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the benchmark, its workers and the calibration process (see speed.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    ctx = None
    try:
        ctx = Context(args, tmp)
        outcome = WORKLOADS[args.workload](ctx)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError,
            RuntimeError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if ctx is not None:
            ctx.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
