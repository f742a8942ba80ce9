"""Calibration kernel server for the benchmark's reference-speed times.

    python3 perfbench/kernel.py

For every line read from stdin it runs a fixed piece of interpreter work
(big-integer division, tuple and dict churn) and writes its time in seconds
as one line to stdout; it exits at end of input.  It runs in a process of
its own, so nothing the measured program does to its own process (retained
memory, a profiling or audit hook) changes the kernel's time: only the
speed of the host does.
"""

import gc
import random
import sys
from time import perf_counter


def _kernel():
    rng = random.Random(7)
    acc = 0
    table = {}
    for i in range(1000):
        a = rng.getrandbits(200)
        b = rng.getrandbits(200) | 1
        x, y = a, b
        for _ in range(3):
            q, rem = divmod(x, y)
            x, y = y, rem or 1
        t = (a * b, q, i)
        table[i & 1023] = t
        acc ^= hash(t) & 0xFFFF
    return acc


def kernel_s():
    """Time of one kernel run, with the cyclic collector held off."""
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def serve():
    for _ in sys.stdin:
        sys.stdout.write("%r\n" % kernel_s())
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
