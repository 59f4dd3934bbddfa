"""Reference clocks and child processes.

On a shared 2-vCPU virtual machine (see README.md) the speed swings by up
to 2x between processes and between phases of one process, so raw wall
times do not repeat. Every timing is
therefore reported in reference seconds: a fixed reference task is timed in
the same run, alternating with the ops, and an op's raw time is scaled by
(the reference's nominal time) / (the reference's time around it).

Three references, each matched to the kind of work it normalises:

- `interp_kernel`: interpreter-bound work (float math, small objects, dict
  traffic and small numpy calls), like the scalar closed forms and the
  optimizers. Used for figure-sweep and point-scan.
- `array_kernel`: numpy calls on cache-resident arrays, like the small
  dense and sparse algebra of the oracle. Used for verify.
- `REFERENCE_PROCESS`: a fresh interpreter that imports numpy, the scipy
  subpackages the program loads, and click. Used for cli-cold and setup_s.

None of them calls the program.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

INTERP_NOMINAL_S = 0.005
ARRAY_NOMINAL_S = 0.010
PROCESS_NOMINAL_S = 1.0

REFERENCE_PROCESS = [
    sys.executable, "-c",
    "import numpy, scipy.sparse, scipy.sparse.linalg, scipy.integrate, "
    "scipy.linalg, click",
]

CHILD_TIMEOUT_S = 120.0


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float) -> None:
        self.a = a
        self.b = b
        self.c = c


def _step(p: _Point, z: float) -> _Point:
    return _Point(p.a * z, p.b + z, math.expm1(-z))


_SMALL = np.linspace(0.0, 1.0, 64)


def interp_kernel() -> float:
    """Fixed interpreter-bound work, about 5 ms on a 2-vCPU Xeon."""
    acc = 0.0
    for i in range(5000):
        z = (i % 97) * 1e-2
        acc += math.exp(-z) * z / (1.0 + z)
    table = {j: _Point(0.0, 0.0, 0.0) for j in range(50)}
    p = _Point(1.0, 2.0, 3.0)
    for i in range(2000):
        q = _step(p, (i % 89) * 1e-2)
        table[i % 50] = q
        acc += q.a + q.c + table[(i * 7) % 50].b
    for i in range(130):
        acc += float((np.exp(-_SMALL * (i % 13)) + _SMALL).sum())
    return acc


_ARRAY = np.linspace(0.0, 3.0, 1 << 14)


def array_kernel() -> float:
    """Fixed numpy work on 128 KB arrays, which stay in the L2 cache, about
    10 ms on a 2-vCPU Xeon."""
    acc = 0.0
    for k in range(100):
        acc += float(np.log1p(np.exp(-_ARRAY * (0.5 + 0.01 * k))).sum())
    return acc


def time_call(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@dataclass
class ChildResult:
    """A finished child process: wall seconds, exit code, output and the
    child's own peak RSS in MB."""

    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, cwd: str) -> ChildResult:
    """Run one child to completion, timing it from spawn to exit.

    The child is reaped with wait4 so that its own peak RSS is known apart
    from every other child's. A child that outlives CHILD_TIMEOUT_S is
    killed and reaped, and counts as failed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict[str, bytes] = {}
    readers = [threading.Thread(target=lambda k=k, s=s: chunks.__setitem__(
                   k, s.read()))
               for k, s in (("out", proc.stdout), ("err", proc.stderr))]
    for r in readers:
        r.start()
    deadline = t0 + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.0005)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(seconds, proc.returncode, chunks.get("out", b""),
                       chunks.get("err", b""), usage.ru_maxrss / 1024.0)


def normalised(ops: list[tuple[float, int]], refs: list[float],
               nominal: float) -> list[float]:
    """Scale each (raw seconds, k) op, timed between refs[k] and
    refs[k + 1], to reference seconds: raw * nominal / the mean of those
    two references. Over ten runs this pairing spread less than medians of
    wider windows of references, or of the whole run."""
    return [raw * nominal / (0.5 * (refs[k] + refs[k + 1])) for raw, k in ops]
