"""Host speed gauge: trial times scaled to a fixed reference speed.

The benchmark host is shared, and its speed drifts by a third or more over
tens of seconds (CPU time tracks wall time, so the process is slowed, not
descheduled). A fixed reference kernel, which never changes with the
program, is timed between trials after every SAMPLE_EVERY_S seconds of
trial time, for about SAMPLE_SHARE of that time. Each trial's wall time is
scaled by REFERENCE_UNIT_S over the mean per-unit time of the samples taken
just before and just after it: its time at the speed where one kernel unit
takes 1 ms. On this host that cut the run-to-run spread (interquartile
range over median, five to ten 30-second runs) of plain-n8-honest's median
trial time from 20-29% unscaled to 1-3%.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from collections import namedtuple

REFERENCE_UNIT_S = 0.001  # one kernel unit's time at reference speed; defines that speed
SAMPLE_EVERY_S = 0.05  # of trial time between samples
SAMPLE_SHARE = 0.1  # a sample runs about this share of the trial time since the last one
MIN_UNITS = 5

_Rec = namedtuple("_Rec", "index key head tail")


def reference_unit(rounds: int = 240) -> int:
    """Fixed work in the program's style: hashing, bytes, tuples, dicts."""
    sha = hashlib.sha256
    table = {}
    for i in range(rounds):
        key = sha(b"ref:" + i.to_bytes(4, "big")).digest()
        table[key] = _Rec(i, key, key[:8] + key[8:16], (key[16:], i & 7))
    acc = 0
    keys = list(table)
    for j in range(0, rounds, 2):
        k = keys[(j * 7919) % rounds]
        v = table[k]
        if isinstance(v, _Rec):
            blob = b"".join((v.head, v.tail[0], k, len(k).to_bytes(4, "big")))
            acc ^= blob[j % 48] + v.tail[1]
            table[sha(blob).digest()] = v._replace(index=j)
    return acc


def time_reference(units: int = 25) -> float:
    """Seconds per kernel unit, over `units` units."""
    start = time.perf_counter()
    for _ in range(units):
        reference_unit()
    return (time.perf_counter() - start) / units


class SpeedGauge:
    """Reference samples taken between timed trials, and the scaling they give."""

    def __init__(self):
        self.positions: list[int] = []  # a sample at position p ran just before trial p
        self.samples: list[float] = []  # seconds per kernel unit
        self._since = 0.0

    def before_trial(self, position: int) -> None:
        if not self.samples or self._since >= SAMPLE_EVERY_S:
            self.sample(position)

    def after_trial(self, seconds: float) -> None:
        self._since += seconds

    def sample(self, position: int) -> None:
        units = max(MIN_UNITS, round(self._since * SAMPLE_SHARE / REFERENCE_UNIT_S))
        self.positions.append(position)
        self.samples.append(time_reference(units))
        self._since = 0.0

    def scale(self, times: list[float]) -> list[float]:
        """Each time at reference speed, from the samples just before and after it."""
        out = []
        for i, t in enumerate(times):
            j = bisect.bisect_right(self.positions, i)
            around = self.samples[j - 1 : j + 1]
            out.append(t * REFERENCE_UNIT_S * len(around) / sum(around))
        return out
