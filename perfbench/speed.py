"""Machine-speed calibration, independent of lgquot.

On a small shared VM the speed of the whole machine drifts by 20-30% over
seconds to minutes, and CPU time drifts with it, so raw times of two runs of
the same code differ by more than the changes worth catching.  While a run
measures, a side process (`Sampler`) runs a fixed kernel every INTERVAL_S and
records the CPU time it took.  The benchmark pins itself, its workers and the
side process to one CPU, so the kernel runs on the CPU the work runs on, and
its CPU time does not depend on whether the work is busy at that moment.
Each measured time is divided by the median kernel time around it, over
REFERENCE_S.  The kernel does the kinds of work lgquot does
(nested loops over small-int lists, Fraction arithmetic, big-integer
products) but calls no lgquot code, so a change to the program moves the
reported times and a change in the machine's speed cancels out.

    python3 perfbench/speed.py    # the side process: samples until stdin closes
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import reference

# median kernel CPU time on the 2-vCPU VM where the bounds were set; reported
# times are raw times rescaled to a machine on which the kernel takes this long
REFERENCE_S = 0.0035
REPEATS = 2            # kernel runs per sampling point
INTERVAL_S = 0.25      # time between sampling points
NEAREST = 4            # kernel runs on each side of a short interval that count


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kernel() -> None:
    reference.even_ell_count(6, 3)
    a, b = list(range(1, 25)), list(range(-12, 12))
    for _ in range(10):
        a = _convolve(a, b)[:24]
        a = [x % 1000003 for x in a]
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)


class Calibration:
    """Kernel CPU times taken through a run, as (start, duration) pairs.

    Processes share the monotonic clock, so the side process's samples line
    up with times measured by the benchmark and its workers.
    """

    def __init__(self, samples=()):
        self.samples: list[tuple[float, float]] = sorted(tuple(s) for s in samples)
        self._times = [t for t, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """Machine slowness over [start, end]: nearby kernel time over REFERENCE_S.

        A long interval is rescaled by the kernel runs made while it lasted
        (at least 2 * NEAREST of them), so by the machine's speed while it
        ran, not its neighbours'; a short one by the NEAREST runs on each
        side of it.
        """
        times = self._times
        stop, begin = bisect_right(times, start), bisect_left(times, end)
        near = self.samples[stop:begin]
        if len(near) < 2 * NEAREST:
            near = self.samples[max(stop - NEAREST, 0):begin + NEAREST]
        if not near:
            raise ValueError("no calibration samples")
        return median(d for _, d in near) / REFERENCE_S

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.factor(start, end)


class Sampler:
    """The side process, from start to stop; `stop` returns its Calibration."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> Calibration:
        out, _ = self.proc.communicate(input="", timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"calibration process exited with {self.proc.returncode}")
        return Calibration(json.loads(out))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def _sample_until_stdin_closes() -> None:
    samples = []
    while True:
        for _ in range(REPEATS):
            start, cpu = perf_counter(), process_time()
            kernel()
            samples.append((start, process_time() - cpu))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.read():
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    _sample_until_stdin_closes()
