"""Host-speed calibration: times in reference-host seconds.

A shared host runs the same code up to about 1.6 times slower for seconds
to minutes at a time, and that drift slows pure-Python work and numpy
products of every size alike. The benchmark therefore times a fixed
calibration kernel, which uses no polycam code, right before and after
every timed piece of work, and scales the work's time by ``REFERENCE_S``
over the mean kernel time. The result is what the work would take on a
host where the kernel takes ``REFERENCE_S``: a change to polycam moves it,
the host's drift does not. Raw times are kept in the run record beside the
scaled ones.

The speed changes within a design of several seconds too, so a
:class:`Sampler` also samples the kernel every ``INTERVAL_S`` during the
work, from a timer signal; its time is taken out of the work's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on the host the benchmark was defined on (2-core
# x86-64, Python 3.11, numpy 2); it only sets the scale of the figures.
REFERENCE_S = 1.8e-3
# Kernel runs per sample; a sample is their median. Short samples catch
# momentary jitter rather than the host's speed over the work around them.
REPEATS = 9
# Seconds between samples taken during the work.
INTERVAL_S = 0.5

_RNG = np.random.default_rng(20240601)


def _product_tables(size: int, triples: int):
    """Random gather/scatter index arrays shaped like one truncated product
    of an algebra with ``size`` coefficients, and a coefficient array."""
    return (_RNG.integers(0, size, triples), _RNG.integers(0, size, triples),
            np.sort(_RNG.integers(0, size, triples)),
            _RNG.standard_normal(size))


# Shapes of the 3- and 9-variable order-5 products (56 and 2002
# coefficients), the small and large algebras of the workloads.
_SMALL = _product_tables(56, 462)
_LARGE = _product_tables(2002, 33649)


def _product(tables) -> np.ndarray:
    left, right, dest, coeffs = tables
    return np.bincount(dest, weights=coeffs[left] * coeffs[right],
                       minlength=coeffs.size)


def kernel() -> float:
    """Interpreter loops, dict updates, and small and large gather/bincount
    products: the mix that a polynomial-algebra design spends its time in."""
    total = 0.0
    for i in range(4000):
        total += i * 0.5
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i & 63] = counts.get(i & 63, 0) + 1
    for _ in range(60):
        total += _product(_SMALL)[0]
    for _ in range(4):
        total += _product(_LARGE)[0]
    return total


def sample() -> float:
    """Seconds one kernel run takes on the host right now."""
    times = []
    for _ in range(REPEATS):
        began = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def scale(*samples: float) -> float:
    """Factor from host seconds to reference seconds for work during which
    (and around which) the kernel took ``samples``."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """While entered, samples the kernel every ``INTERVAL_S`` seconds from a
    ``SIGALRM`` handler, which runs in the main thread between bytecodes.
    ``samples`` holds the kernel times and ``spent_s`` the handler's time,
    to be taken out of the work's wall and CPU time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - began

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
