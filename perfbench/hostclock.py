"""Host-normalised time: wall time scaled by the host's current speed.

The benchmark host is shared.  Other tenants slow the code running on
it by up to 2x, in phases that last from seconds to minutes, so raw
wall times of the same code drift far more between runs than any change
worth detecting.  Two fixed kernels, a pure-Python loop and a random
gather over a 32 MiB array, see the same slowdown (the interpreter and
the memory side of it) while not depending on the program at all.
``probe`` times both right before and after each unit of work.  A
unit's host-normalised time is its wall time times ``REF_PROBE_S`` over
the mean of the two probes around it: the seconds the unit would take
with the host running at reference speed.

The probes run only between units, while the program is idle (every
workload runs inline on the calling thread), so a program change moves
the normalised times as it moves the wall times on a quiet host.  A
program that left its own threads busy between calls would slow the
probes too; the traced run reports ``host.speed`` to show it.
"""

from __future__ import annotations

import time

import numpy as np

#: What ``probe`` reads on the reference host (Intel Xeon, 2.0 GHz,
#: CPython 3.11, numpy 2) when nothing else loads it.
REF_PROBE_S = 0.00031

#: Iterations of the Python loop, gathered elements, timed repeats.
LOOP_ITERATIONS = 20_000
GATHERS = 1 << 15
REPEATS = 5

_gather_from = np.ones(1 << 22)  # 32 MiB of float64
_gather_at = np.random.default_rng(0).integers(0, _gather_from.size, GATHERS)


def _python_loop() -> None:
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i


def _gather() -> None:
    _gather_from.take(_gather_at).sum()


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> float:
    """Geometric mean of the two kernels' fastest of ``REPEATS`` timings."""
    return (_fastest(_python_loop) * _fastest(_gather)) ** 0.5


def scales(probes: list[float]) -> list[float]:
    """Per unit, ``REF_PROBE_S`` over the mean probe around it.

    ``probes`` holds the probe before each unit and after the last.
    """
    return [2 * REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]
