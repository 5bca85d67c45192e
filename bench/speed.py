"""Machine-speed sampling for the benchmark's timings.

The shared machine the benchmark was written on runs the same code at two
speeds, about 1.6 times apart, and switches between them every few seconds
to every few minutes, whatever the process does. A 30-second run can sit in
either state, so the raw wall times of ten runs spread by up to 26%, and
of five runs by up to 46%.

While a timed call runs, a SIGALRM every ``INTERVAL_S`` seconds runs a small
fixed pure-Python reference (string, dict and list work, no txcleanse code)
twice in the same thread and times the second pass. The first pass brings
the reference's code and data back into the caches, so the timed pass
follows the core's speed rather than what the program left in the caches.
The mean reference time over a call says how fast the machine was during
that call, and ``normalize`` rescales the call's wall time to the speed at
which the reference takes ``REF_NOMINAL_S``. The sampling costs about 4% of
each call, on every commit alike. Standard library only, and Unix only
(``signal.setitimer``).
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
REF_NOMINAL_S = 0.0005  # about its mean timed pass inside a call on the reference machine

_WORDS = [f"W{(i * 7919) % 997}" for i in range(400)]


def reference() -> float:
    """A fixed slice of interpreter work like the program's: normalize,
    dedup and count strings."""
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    lines = [" ".join(_WORDS[i:i + 10]) for i in range(0, len(_WORDS), 10)]
    total = 0.0
    for line in lines:
        items = list(dict.fromkeys(x.strip().lower() for x in line.split(" ")))
        total += sum(counts.get(x.upper(), 0) for x in items) / len(items) ** 1.5
    return total + len(sorted(counts))


class Speedometer:
    """Samples the reference at the start, every INTERVAL_S, and at the end
    of a measured stretch."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_signal) -> None:
        reference()
        started = time.perf_counter()
        reference()
        self._samples.append(time.perf_counter() - started)

    def start(self) -> None:
        self._samples.clear()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the mean reference time since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        return sum(self._samples) / len(self._samples)


def normalize(seconds: float, reference_s: float) -> float:
    """``seconds`` rescaled to the speed at which the reference takes
    REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / reference_s
