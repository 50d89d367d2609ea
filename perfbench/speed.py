"""Machine-speed reference: run a child while sampling how fast the machine is.

On a shared host the speed of the cores drifts by up to 2x over tens of
seconds, so a pass's raw wall time says as much about the neighbours as
about the program.  While a child runs, the parent stops it every
INTERVAL_S seconds (SIGSTOP), takes one sample, and lets it go on
(SIGCONT); it also samples just before the child starts and just after it
ends.  A stretch of the child's running time between two samples is
scaled by REF_S over the mean of those two samples, so a pass's time reads
as it would on a machine where a sample reads REF_S seconds.  One process
runs at a time: the kernels only run while the child is stopped.  The
caller pins itself, and so its children, to one CPU, so that a sample is
taken on the CPU the child was just running on; sampled on an idle CPU
waking up, the samples did not follow the child's speed.

A sample is the geometric mean of the times of two kernels, because the
program's time is a mix of numpy gathers and interpreter loops, and on a
shared host the two slow down by different amounts.  numpy_kernel is the
associativity test every Cayley-table check in the program is built on,
T[T[x, y], z] == T[x, T[y, z]] over a fixed random table of order 128;
python_kernel is an interpreter-bound loop of dict, int and str operations.
On the 2-core VM the benchmark was written on, over 20-second windows,
scaling by this mean cut the spread of program steps (the generic sweep,
a classification, verify at n=155) by 3.5x to 4x; the Python loop alone
did not follow process start-up, and the numpy kernel alone followed the
classification less well.  The kernels live here, not in the program, so
a change to the program never changes the reference.
"""

from __future__ import annotations

import math
import os
import select
import signal
import subprocess
import time

# The kernels run under the same numpy settings as the children (run.py,
# child_env); numpy reads this when it is imported.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

INTERVAL_S = 0.75
# The median sample on the 2-core Xeon VM the benchmark was written on.
REF_S = 0.022
# A sample at most this old is reused instead of taking a new one.
FRESH_S = 0.2

_N = 128
_TABLE = np.random.default_rng(0).integers(0, _N, size=(_N, _N))
_RANGE = np.arange(_N)
_last = (float("-inf"), 0.0)


def numpy_kernel() -> int:
    left = _TABLE[_TABLE[:, :, None], _RANGE[None, None, :]]
    right = _TABLE[_RANGE[:, None, None], _TABLE[None, :, :]]
    return int(np.count_nonzero(left == right))


def python_kernel() -> int:
    seen, acc = {}, 0
    for i in range(20000):
        seen[i & 1023] = seen.get((i * 7) & 1023, 0) + i
        acc += len(str(i)) ^ (i >> 3)
    return acc


def _time(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sample(reuse: bool = False) -> float:
    """One sample: the geometric mean of the two kernels' times now, in
    seconds.  With `reuse`, a sample taken in the last FRESH_S seconds is
    returned instead."""
    global _last
    now = time.monotonic()
    if reuse and now - _last[0] <= FRESH_S:
        return _last[1]
    took = math.sqrt(_time(numpy_kernel) * _time(python_kernel))
    _last = (time.monotonic(), took)
    return took


def run_sampled(proc: subprocess.Popen, start: float, first: float):
    """Wait for `proc`, started at monotonic time `start` right after a
    sample `first`, stopping it every INTERVAL_S to sample.  Return (wait
    status, rusage, exit time, segments): each segment is (begin, end,
    reference seconds) of a stretch the child ran."""
    segments = []
    seg_start, seg_ref = start, first
    fd = os.pidfd_open(proc.pid)
    try:
        while not select.select([fd], [], [], INTERVAL_S)[0]:
            paused = time.monotonic()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                # it exited before the stop took hold
                end = time.monotonic()
                segments.append((seg_start, end, (seg_ref + sample()) / 2))
                return status, usage, end, segments
            ref = sample()
            segments.append((seg_start, paused, (seg_ref + ref) / 2))
            seg_start, seg_ref = time.monotonic(), ref
            os.kill(proc.pid, signal.SIGCONT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    finally:
        os.close(fd)
    segments.append((seg_start, end, (seg_ref + sample()) / 2))
    return status, usage, end, segments


def clipped(segments, lo: float, hi: float) -> tuple[float, float]:
    """The child's running time inside [lo, hi], raw and at reference
    speed (the second is None for unsampled segments)."""
    raw, norm = 0.0, 0.0
    for begin, end, ref in segments:
        d = min(end, hi) - max(begin, lo)
        if d > 0:
            raw += d
            norm = None if ref is None or norm is None else norm + d * REF_S / ref
    return raw, norm
