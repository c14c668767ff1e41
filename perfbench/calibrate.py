"""Take the host's changing speed out of the benchmark's timings.

The benchmark shares a few vCPUs of a host with other tenants, and the
speed those vCPUs give changes by up to 1.7x within a fraction of a
second (a run of service drains at 2.6 ms each turns into a run at
4.5 ms each and back), and shifts by tens of percent for whole minutes.
A wall time is therefore the program's cost times the host's slowness
while it ran.

A :class:`Ticker` measures that slowness all along.  From a ``SIGALRM``
handler it times a small fixed kernel every ``INTERVAL_S`` of wall time,
for the whole life of a pass process.  :meth:`Ticker.scaled` then turns
any interval of that process into its time at the reference speed: the
ticks inside are cut out, and every stretch of program time between two
ticks is scaled by ``REFERENCE_TICK_S / tick`` as measured next to it.

The kernel compiles one generated function: interpreter-heavy C code
that allocates and walks many small objects, as the program does.  It
touches neither the program nor the standard library's sources, so no
change to either can move it, and the collector is off while it runs, so
the program's heap cannot either.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import Any, List, Optional

#: One tick's kernel time at the reference speed: about its median on the
#: host the benchmark was built on (2-vCPU Intel Xeon VM, Python 3.11.7).
#: A fixed unit that scaled times are expressed in, never re-measured.
REFERENCE_TICK_S = 0.0004

#: Wall time between ticks, and how many ticks' median gives a local speed.
INTERVAL_S = 0.01
SMOOTHING = 5

SOURCE = "\n".join(
    [
        "def kernel(items, table, limit=3):",
        '    """A generated function, compiled as the calibration kernel."""',
        "    total = 0.0",
        "    seen = {}",
        "    for position, item in enumerate(items):",
        "        if item % 2 == 0 and position < limit:",
        "            total += item * 0.5 + table.get(item, 1.0)",
        "        elif item in seen:",
        "            seen[item] += 1",
        "        else:",
        "            seen[item] = position",
        "    ranked = sorted(seen, key=lambda key: (seen[key], -key))[:4]",
        "    pairs = [(key, seen[key]) for key in ranked if key not in table]",
        "    try:",
        "        scale = total / max(1, len(pairs))",
        "    except ZeroDivisionError:",
        "        scale = 0.0",
        "    return {'total': total, 'pairs': pairs, 'scale': scale}",
        "",
    ]
)


def kernel_time() -> float:
    """Seconds the fixed kernel takes on this host right now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        compile(SOURCE, "<calibration>", "exec")
        return time.monotonic() - start
    finally:
        if was_enabled:
            gc.enable()


class Ticker:
    """Times the kernel every ``interval_s`` of wall time, from ``SIGALRM``.

    Times are ``time.monotonic()`` values, the clock the rest of the
    benchmark measures with.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous: Any = None
        self._factors: Optional[List[float]] = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, _signum: int, _frame: Any) -> None:
        start = time.monotonic()
        self.durations.append(kernel_time())
        self.starts.append(start)

    def factors(self) -> List[float]:
        """Each tick's scale to the reference speed, median-smoothed."""
        if self._factors is None or len(self._factors) != len(self.durations):
            half = SMOOTHING // 2
            d = self.durations
            self._factors = [
                REFERENCE_TICK_S / statistics.median(d[max(0, k - half) : k + half + 1])
                for k in range(len(d))
            ]
        return self._factors

    def scaled(self, begin: float, end: float) -> float:
        """Program time in ``[begin, end]`` at the reference speed.

        Ticks inside the interval are cut out; program time between ticks
        ``k`` and ``k + 1`` is scaled by the mean of their factors, and
        time before the first or after the last tick by that tick's.
        """
        factors = self.factors()
        count = len(factors)
        if not count:
            raise RuntimeError("no calibration tick was recorded")
        ends = [s + d for s, d in zip(self.starts, self.durations)]

        def between(k: int) -> float:
            if k < 0:
                return factors[0]
            if k + 1 >= count:
                return factors[-1]
            return 0.5 * (factors[k] + factors[k + 1])

        total = 0.0
        k = bisect.bisect_right(self.starts, begin) - 1
        cursor = begin
        while cursor < end:
            if k >= 0 and cursor < ends[k]:
                cursor = ends[k]
                continue
            stop = min(end, self.starts[k + 1]) if k + 1 < count else end
            total += (stop - cursor) * between(k)
            cursor = stop
            k += 1
        return total
