"""Machine-speed calibration for the benchmark's time metrics.

The reference machine is a shared VM whose speed drifts by 20-50% over
seconds to tens of minutes (see NOTES.md): a fixed CPU-bound loop and the
program's requests slow down and speed up together. A run therefore times a
fixed reference unit again and again, interleaved with its requests, and
scales its time metrics by

    speed factor = reference time / median(reference unit wall times of the run)

so that they read as seconds on the reference machine at its usual speed.
The unit uses only the standard library, never the program, so a change to
the program cannot move the factor; like the requests it spends its time in
``Fraction`` arithmetic on growing integers. It comes in two forms, matched
to what a request is: ``unit()`` in the calling process (a library call of
the warm workload), and ``process_unit()``, a fresh isolated interpreter
running ``unit()`` (a CLI request, which starts an interpreter too).
"""

from __future__ import annotations

import inspect
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# The scale the metrics are expressed at: about the median wall times of
# unit() and process_unit() on the reference machine (Intel Xeon 2.1 GHz vCPU,
# CPython 3.11); they themselves ranged 0.016-0.035 s and 0.035-0.057 s.
REFERENCE_S = 0.0200
PROCESS_REFERENCE_S = 0.0400


def unit() -> float:
    """Run the reference unit once; return its wall time in seconds."""
    t0 = time.perf_counter()
    p = Fraction(3, 7)
    row = [Fraction(1)]
    for n in range(1, 64):
        row = [(row[k - 1] if k else 0) + (row[k] * (k + p) if k < n else 0) for k in range(n + 1)]
    total = Fraction(0)
    for k in range(1, 2000):
        total += Fraction(1, k)
    return time.perf_counter() - t0


def process_unit() -> float:
    """Start a fresh, isolated interpreter that runs the reference unit once;
    return the wall time from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", PROCESS_UNIT], check=True)
    return time.perf_counter() - t0


PROCESS_UNIT = "import time\nfrom fractions import Fraction\n" + inspect.getsource(unit) + "unit()\n"


def factor(samples: list[float], reference: float) -> float:
    """The speed factor of a run from its reference-unit samples."""
    return reference / statistics.median(samples)


def pin() -> None:
    """Keep this process and its children on one CPU, so that the reference
    unit and the requests run on the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
