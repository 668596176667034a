"""Host-speed calibration of timed samples.

The hosts this benchmark runs on execute Python at (at least) two speeds
about 1.65x apart, switching between them every few milliseconds, with the
share of time at each speed drifting from minute to minute.  A raw wall-clock
median therefore moves with that share, not with the program.

Every timed sample is preceded by :func:`calibration_slice`, a fixed
pure-Python workload (~1 ms on the reference host) exercising the same
kinds of operations as the program's hot paths: tuple and dict churn,
sorting, ``struct`` packing and bytes slicing.  The sample's time is divided
by the slice's time and multiplied by :data:`REFERENCE_SLICE_S`, the slice's
duration on the reference host, so every time metric reads in *reference*
seconds: what the sample would have taken on a host where the slice takes
exactly that long.
"""

from __future__ import annotations

import statistics
import struct
import time

#: The calibration slice's duration on the reference host (the fast speed of
#: a 2-vCPU x86-64 container running CPython 3.11), in seconds.  Changing it
#: rescales every time metric, so it is fixed once for the benchmark's life.
REFERENCE_SLICE_S = 1.0e-3

_PACK = struct.Struct(">QQQ").pack
_ITERATIONS = 1400


def _slice_work() -> int:
    table = {}
    rows = []
    acc = 0
    for i in range(_ITERATIONS):
        key = (i * 2654435761) & 0xFFFF
        record = (key, i, key ^ i)
        table[key] = record
        packed = _PACK(*record)
        rows.append(packed[8:16])
        acc += len(packed)
    for key, i, mixed in sorted(table.values()):
        acc ^= mixed
    acc += len(b"".join(sorted(rows)))
    return acc


def calibration_slice() -> float:
    """Run the fixed slice once and return its wall time in seconds."""
    start = time.perf_counter()
    _slice_work()
    return time.perf_counter() - start


class Calibrator:
    """Takes calibration slices and normalises samples against them.

    :meth:`take` runs one slice and returns its index; a sample records the
    index of the slice that preceded it, and :meth:`normalise` converts the
    sample's raw time with that slice -- or, with ``half_window > 0``, with
    the mean of the slices around it, which suits samples much longer than
    the host's speed-mode periods (one slice sees one mode; a long sample
    sees their mix).
    """

    #: Slices faster than this multiple of the fastest count as fast-mode.
    FAST_CUT = 1.25

    def __init__(self) -> None:
        self.slices: list = []

    def take(self) -> int:
        self.slices.append(calibration_slice())
        return len(self.slices) - 1

    def normalise(self, raw_seconds: float, index: int, half_window: int = 0) -> float:
        """``raw_seconds`` in reference seconds, given its slice ``index``."""
        if half_window:
            around = self.slices[max(0, index - half_window):index + half_window + 1]
            slice_seconds = sum(around) / len(around)
        else:
            slice_seconds = self.slices[index]
        return raw_seconds / slice_seconds * REFERENCE_SLICE_S

    def summary(self) -> dict:
        """Median, quartiles and fast-mode share of the slices taken."""
        if not self.slices:
            return {"count": 0}
        ordered = sorted(self.slices)
        fastest = ordered[len(ordered) // 100]
        fast = sum(1 for s in ordered if s <= fastest * self.FAST_CUT)
        q1, median, q3 = (statistics.quantiles(ordered, n=4)
                          if len(ordered) > 1 else (ordered[0],) * 3)
        return {
            "count": len(ordered),
            "median_s": median,
            "q1_s": q1,
            "q3_s": q3,
            "fast_share": fast / len(ordered),
        }
