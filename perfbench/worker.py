"""Worker process: runs ``lgquot`` for the benchmark, one process per use.

    python perfbench/worker.py session WORKLOAD --seed S --seconds T --cache DIR
        [--rounds K] [--setup-only] [--trace]
    python perfbench/worker.py cli ARGV...

A session (warm_session or oracle_algebra) imports lgquot, sets up, prints a
``ready`` line, runs whole rounds until T seconds have passed (or exactly K
rounds), and prints a ``done`` line with every operation's time and result.
The cli mode runs one ``lgquot.cli.main`` call, traced, and prints its output
with the trace.  Every line on standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from time import perf_counter

import inputs

# a timed run completes at least this many rounds: on oracle_algebra three
# rounds make the hundred operations that the 90th-percentile tail needs
MIN_ROUNDS = 3


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Session:
    """Shared loop: whole rounds until the deadline, or a fixed number of rounds."""

    def __init__(self, args, tracer):
        self.args = args
        self.tracer = tracer
        self.ops: list[dict] = []
        self.round = 0

    @contextmanager
    def span(self, name: str):
        """A span of the traced run around a call the benchmark makes; nothing untraced."""
        if self.tracer is None:
            yield
            return
        index = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(index)

    def timed(self, kind: str, fn, *call_args) -> tuple[dict, object]:
        start = perf_counter()
        value = fn(*call_args)
        end = perf_counter()
        record = {"kind": kind, "round": self.round, "start": start, "end": end,
                  "latency_s": end - start}
        self.ops.append(record)
        return record, value

    def loop(self, run_round) -> None:
        """Whole rounds: at least MIN_ROUNDS, then more while one more fits in the time."""
        start = perf_counter()
        index, last = 0, 0.0
        while True:
            elapsed = perf_counter() - start
            if self.args.rounds is not None:
                if index >= self.args.rounds:
                    break
            elif index >= MIN_ROUNDS and elapsed + last > self.args.seconds:
                break
            self.round = index
            run_round(index)
            last = perf_counter() - start - elapsed
            index += 1


# -- warm_session ---------------------------------------------------------------------


def warm_setup(lgquot) -> float:
    """Point tables and staircase Schur values of every rank, via genus-1 counts."""
    start = perf_counter()
    for n in inputs.WARM_RANKS:
        lgquot.maximal_count(n, 1, 0)
    return perf_counter() - start


def warm_run(session: Session, lgquot) -> None:
    def call(op):
        if op["fn"] == "gw":
            return lgquot.gw_invariant(op["n"], op["g"], op["d"], [tuple(x) for x in op["ins"]])
        if op["fn"] == "intersect":
            expr = lgquot.SchubertExpression.monomial([tuple(f) for f in op["factors"]])
            return lgquot.intersection_number(op["n"], op["g"], op["ell"], op["e"], expr)
        return lgquot.maximal_count(op["n"], op["g"], op["ell"])

    def run_round(index):
        for op in inputs.warm_round(session.args.seed, index):
            record, value = session.timed(op["fn"], call, op)
            record["op"] = op
            record["value"] = str(value)

    session.loop(run_round)


# -- oracle_algebra ------------------------------------------------------------------------


def _cache_bytes(directory: Path, n: int) -> int:
    return sum(p.stat().st_size for p in directory.glob(f"*_n{n}_*.json"))


def oracle_setup(session: Session, lgquot, cache: Path) -> tuple[float, dict]:
    """Build every oracle rank into an empty cache directory (a miss: build, save, validate).

    Returns the time of the top-rank build, and the algebras.
    """
    algebras = {}
    for n in inputs.ORACLE_RANKS:
        start = perf_counter()
        with session.span("oracle.build"):
            algebras[n] = lgquot.build_qh_algebra(n, cache_dir=cache)
        build_s = perf_counter() - start
    return build_s, algebras


def oracle_run(session: Session, lgquot, cache: Path, algebras: dict) -> None:
    top = max(inputs.ORACLE_RANKS)
    counts = session.tracer.counts if session.tracer is not None else None
    traces = []

    def load(kind, n, directory, built):
        with session.span("oracle.load"):
            record, loaded = session.timed(kind, lgquot.build_qh_algebra, n, True, directory)
        record["ok"] = loaded == built
        if counts is not None:
            counts["oracle.cache_bytes"] += _cache_bytes(directory, n)

    def run_round(index):
        directory = cache / f"round-{index}"
        with session.span("oracle.build"):
            record, built = session.timed("write", lgquot.build_qh_algebra, top, True, directory)
        record["ok"] = built == algebras[top]
        for _ in range(4):
            load("read", top, directory, built)
        for n in inputs.ORACLE_RANKS[:-1]:
            for _ in range(2):
                load("read_small", n, cache, algebras[n])
        for op in inputs.oracle_round(session.args.seed, index):
            algebra = algebras[op["n"]]
            ins = [tuple(x) for x in op["ins"]]
            record, value = session.timed("trace", lgquot.trace_invariant, algebra, op["g"], ins)
            traces.append((record, op, ins, value))

    session.loop(run_round)
    # outside the timed loop: each trace must equal the direct root-of-unity sum
    for record, op, ins, value in traces:
        direct = lgquot.gw_invariant(op["n"], op["g"], op["d"], ins)
        record["ok"] = value == direct
        record["value"] = str(value)


# -- entry points ------------------------------------------------------------------------------


def run_session(args) -> None:
    tracer = None
    if args.trace:
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
    import lgquot
    if tracer is not None:
        tracer_module.install(tracer)
    session = Session(args, tracer)
    cache = Path(args.cache)
    ready = {"event": "ready", "lgquot": lgquot.__file__}
    if args.workload == "warm_session":
        ready["build_s"] = warm_setup(lgquot)
    else:
        ready["build_s"], algebras = oracle_setup(session, lgquot, cache)
    emit(ready)
    if args.setup_only:
        return
    if args.workload == "warm_session":
        warm_run(session, lgquot)
    else:
        oracle_run(session, lgquot, cache, algebras)
    done = {"event": "done", "ops": session.ops}
    if tracer is not None:
        done["trace"] = tracer.summary()
    emit(done)


def run_cli(args) -> None:
    import tracer as tracer_module
    tracer = tracer_module.Tracer()
    import lgquot.cli
    tracer_module.install(tracer)
    out = io.StringIO()
    with redirect_stdout(out):
        code = lgquot.cli.main([a for a in args.argv if a != "--"])
    emit({"exit": code, "stdout": out.getvalue(), "trace": tracer.summary()})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("session")
    p.add_argument("workload", choices=("warm_session", "oracle_algebra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--rounds", type=int)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "session":
        os.makedirs(args.cache, exist_ok=True)
        run_session(args)
    else:
        run_cli(args)


if __name__ == "__main__":
    main()
