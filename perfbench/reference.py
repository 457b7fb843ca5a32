"""Host-speed reference: a fixed pure-Python kernel timed while the program runs.

On a shared VM the speed of a core drifts by 10-50% over seconds to minutes
while other tenants load the host; the process is not descheduled, it runs
slower.  ``Sampler`` times ``kernel`` every ``PERIOD_S`` seconds of a pass
from a SIGALRM handler, so the samples are uniform in time and fall inside
long jobs too.  With ``r_i`` the sampled kernel times, a pass that ran for
``T`` seconds outside the handler did the work of

    T * mean(REFERENCE_S / r_i)

seconds at reference speed, the speed at which ``kernel`` takes
``REFERENCE_S``.  The kernel does the kind of work nambu does (exact
``Fraction`` arithmetic on dict-of-exponent polynomials, tuple keys, short
calls) but never touches nambu, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.040  # kernel seconds at reference speed (median, idle 2-vCPU Xeon VM)
PERIOD_S = 0.5
_REPEATS = 5
_BASE = {
    (i, j, k): Fraction((7 * i + 3 * j + k) % 11 + 1, (i + 2 * j + 3 * k) % 5 + 1)
    for i in range(4) for j in range(4) for k in range(3)
}


def kernel() -> int:
    """Square a fixed 48-term rational polynomial a few times; returns a checksum."""
    total = 0
    for _ in range(_REPEATS):
        product: dict = {}
        for ea, ca in _BASE.items():
            for eb, cb in _BASE.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                product[key] = product.get(key, 0) + ca * cb
        total += len(product)
    return total


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Sampler:
    """Times ``kernel`` every ``PERIOD_S`` seconds while installed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler, to subtract from job times

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "Sampler":
        for _ in range(3):  # warm the kernel's code and allocator before timing
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean of REFERENCE_S / r over the samples: work per second, at reference speed."""
        if not self.samples:
            return REFERENCE_S / timed_kernel()
        return sum(REFERENCE_S / r for r in self.samples) / len(self.samples)
