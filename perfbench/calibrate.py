"""Host-speed calibration for the end-to-end timings.

The benchmark's host shares its cores with other machines, and the same
single-threaded work runs up to 1.4 times slower from one half minute to the
next, which shows as run-to-run spread in raw wall time (figures in
README.md). ``calibration`` times a fixed job made of the operations the
simulation spends its time in (a small scipy CSC product, einsum, ``add.at``
and a Python float loop). ``Clock`` runs it before and after every timed
interval and rescales the interval's wall time to the host speed at which a
chunk of the job takes ``REFERENCE_S``. Each calibration lasts at least
``SHARE`` of the interval before it, so that it averages over the host's
sub-second speed changes as a long interval does. The job does not use
condsim, so a change to the program cannot change it."""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.0025  # s, one chunk of the job at the reference host speed
CHUNK = 100  # job repeats per chunk
MIN_CHUNKS = 6  # a calibration runs at least this many chunks...
SHARE = 0.1  # ...and at least this share of the interval before it

_rng = np.random.default_rng(0)
_M = sp.csc_matrix(sp.random(18, 18, density=0.3, random_state=1) + sp.identity(18))
_B = _rng.standard_normal(18)
_FRAMES = _rng.standard_normal((4, 3, 3))
_IDX = np.arange(12).reshape(4, 3)


def _chunk() -> None:
    x = _B.copy()
    acc = 0.0
    for _ in range(CHUNK):
        r = _M.dot(x) - _B
        e = np.einsum("mab,mb->ma", _FRAMES, x[_IDX])
        out = np.zeros(18)
        np.add.at(out, _IDX, e)
        rows = [(max(0.0, a), 0.5 * b, 0.5 * c) for a, b, c in e.tolist()]
        acc += math.sqrt(sum(v * v for row in rows for v in row))
        x = x - 1e-3 * (r + out)
    if not math.isfinite(acc):
        raise ArithmeticError("calibration job diverged")


def calibration(min_s: float = 0.0) -> float:
    """Seconds per chunk of the fixed calibration job, over at least
    ``MIN_CHUNKS`` chunks and ``min_s`` seconds."""
    t0 = perf_counter()
    n = 0
    while True:
        _chunk()
        n += 1
        elapsed = perf_counter() - t0
        if n >= MIN_CHUNKS and elapsed >= min_s:
            return elapsed / n


class Clock:
    """Times consecutive intervals, each bracketed by calibration jobs.

    ``start`` begins the first interval and ``split`` ends the current one
    and begins the next; the calibration runs between intervals, outside
    them. ``exclude`` removes time spent inside an interval on work that is
    not the program's (the benchmark's own checks).
    """

    def __init__(self):
        self.wall = []  # s per interval, excluded time taken out
        self.cal = []  # s per calibration chunk, one more than intervals
        self._mark = None
        self._excluded = 0.0

    def start(self) -> None:
        self.cal.append(calibration(SHARE * self.wall[-1] if self.wall else 0.0))
        self._excluded = 0.0
        self._mark = perf_counter()

    def split(self) -> None:
        now = perf_counter()
        self.wall.append(now - self._mark - self._excluded)
        self.start()

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def scaled(self) -> list:
        """Each interval rescaled to the reference host speed, by the mean of
        the calibration jobs on either side of it."""
        return [
            t * 2.0 * REFERENCE_S / (c0 + c1)
            for t, c0, c1 in zip(self.wall, self.cal, self.cal[1:])
        ]
