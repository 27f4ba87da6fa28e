"""Host-speed calibration: a fixed pure-Python loop timed beside the program.

The benchmark's host is a shared machine whose speed for interpreter code
changes by up to 2x within a second, with no steal time to show it: the
same fixed loop takes about 12 ms in one state and about 22 ms in the
other, and the share of time in each state drifts over minutes.  Raw run
times of the same code then spread by a quarter between runs.  So every
repetition also times this loop, and the end-to-end times are reported in
*reference seconds*: a measured time multiplied by the loop's reference
time over its measured time around it.

The loop is timed in two ways.  ``calibrate()`` runs a long pass between
operations.  ``Sampler`` runs a short slice from a ``SIGALRM`` handler every
``PERIOD_S`` seconds of wall time, so an operation of a second holds some
25 speed readings; the handler's own time is subtracted from the
operation's time.

The loop uses only builtins (small-int bit operations, tuples, a dict, a
function call), the same kind of work as wordgraphs' bitmask graphs, and
runs with the garbage collector paused, so nothing the program under test
does to ``gc`` or to its own code can change it.  A change to the program
therefore moves the reference times by the same factor as the raw ones.
"""

from __future__ import annotations

import gc
import signal
import time

ITERATIONS = 30_000  # one calibrate() pass
SLICE_ITERATIONS = 1_500  # one sampler slice
PERIOD_S = 0.04
# Seconds per loop iteration at the reference speed: a fixed constant, near
# the loop's fastest rate on the 2-core host the benchmark was tuned on.
REFERENCE_ITERATION_S = 0.4e-6


def _step(rows: list[int], i: int) -> int:
    return (rows[i & 7] ^ (i << 1)) & 0xFFFF


def _loop(n: int) -> int:
    rows = [0x5A5A, 0x0F0F, 0x3C3C, 0x6666, 0x1234, 0x4321, 0x7E7E, 0x0101]
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(n):
        r = _step(rows, i)
        key = (r & 255, i & 15)
        acc += seen.get(key, 0) & 0xFF
        seen[key] = r
        acc ^= r.bit_count()
    return acc


def _ratios(n: int) -> tuple[float, float]:
    """Reference time over measured time of n iterations, for wall and CPU."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        _loop(n)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    finally:
        if was_enabled:
            gc.enable()
    ref = n * REFERENCE_ITERATION_S
    return ref / (wall1 - wall0), ref / max(cpu1 - cpu0, 1e-9)


def calibrate() -> tuple[float, float]:
    """Speed ratios (wall, CPU) of one long pass; 1.0 is the reference speed.

    The sampler's signal is held back during the pass, so that no slice runs
    inside it.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        return _ratios(ITERATIONS)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


class Sampler:
    """Speed readings taken from a timer signal while the program runs.

    Each sample is ``(wall0, wall1, cpu_s, wall_ratio, cpu_ratio)``: the
    ``perf_counter`` readings around the handler, the handler's CPU time and
    the slice's speed ratios.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        wall_ratio, cpu_ratio = _ratios(SLICE_ITERATIONS)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        self.samples.append((wall0, wall1, cpu1 - cpu0, wall_ratio, cpu_ratio))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> list[tuple]:
        """The samples taken wholly between two ``perf_counter`` readings."""
        return [s for s in self.samples if start <= s[0] and s[1] <= end]


def wall_ratio(samples: list[tuple], passes: list[tuple[float, float]]) -> float:
    """Mean wall speed ratio of the samples and passes, each weighted alike."""
    ratios = [s[3] for s in samples] + [p[0] for p in passes]
    return sum(ratios) / len(ratios)


def handler_seconds(samples: list[tuple]) -> float:
    return sum(s[1] - s[0] for s in samples)


def scaled(wall_s: float, cpu_s: float, samples: list[tuple],
           passes: list[tuple[float, float]]) -> dict[str, float]:
    """Raw and reference times of an interval, from the samples taken inside
    it and the ``calibrate()`` passes around it."""
    net_wall = wall_s - handler_seconds(samples)
    net_cpu = cpu_s - sum(s[2] for s in samples)
    cpu_ratios = [s[4] for s in samples] + [p[1] for p in passes]
    return {
        "wall_s": net_wall,
        "cpu_s": net_cpu,
        "ref_wall_s": net_wall * wall_ratio(samples, passes),
        "ref_cpu_s": net_cpu * sum(cpu_ratios) / len(cpu_ratios),
        "speed_readings": len(cpu_ratios),
    }
