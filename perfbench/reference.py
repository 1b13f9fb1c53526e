"""Host-speed normalization of measured times.

On a shared host the speed of this process swings by up to 1.8x, in
phases from seconds to minutes, for plain Python as much as for numpy;
medians of raw wall times then differ by up to 47% between runs of the
same commit. ``reference_s`` times a fixed computation that touches
neither morphguard nor BLAS. Timing it just before and just after a
measured interval and dividing gives the interval in units of the
reference, which cancels most of the host's swing. ``normalized``
scales that back to seconds on a host where the reference takes
``NOMINAL_S``: its fastest time on the 2-vCPU Xeon VM (OpenBLAS
SkylakeX kernels) the benchmark was defined on. A Stopwatch splits a
long interval into segments with a reference run between them, so that
the host's speed is sampled every second or so.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

NOMINAL_S = 0.040

_INPUT = np.linspace(-1.0, 1.0, 4096)


def reference_s() -> float:
    """Wall time of one run of the fixed reference computation."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    records = [{"kind": "bona_fide", "input": [i / 7.0] * 16} for i in range(1500)]
    json.dumps(records)
    values = _INPUT
    for _ in range(600):
        values = np.abs(values - values.mean()) * 0.5
    return perf_counter() - start


def normalized(wall_s: float, reference_before: float, reference_after: float) -> float:
    """wall_s in seconds at the nominal host speed."""
    return wall_s / ((reference_before + reference_after) / 2) * NOMINAL_S


class Stopwatch:
    """Times one interval in segments, probing the host's speed between them.

    With probing on, the reference runs at start, at every split and at
    stop, and each segment is normalized by the probes on either side.
    Probe time is counted in neither total.
    """

    def __init__(self, probing: bool):
        self.probing = probing
        self.wall_s = 0.0
        self.normalized_s = 0.0
        self._probe = None
        self._start = None

    def start(self):
        self._probe = reference_s() if self.probing else None
        self._start = perf_counter()

    def split(self):
        """End the current segment and start the next."""
        segment = perf_counter() - self._start
        self.wall_s += segment
        if self.probing:
            probe = reference_s()
            self.normalized_s += normalized(segment, self._probe, probe)
            self._probe = probe
        self._start = perf_counter()

    stop = split
