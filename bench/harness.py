"""Timed closed loop, calibration and the statistics the benchmark reports.

One caller runs the operations of a workload back to back: the next
operation starts when the previous one has returned.  Every operation is
timed on its own and bracketed by a calibration kernel, a fixed numpy loop
that shares no code with mflq, and reported in units of the kernel's time
("cal").  On a 2-core virtual machine a fixed synthesis took 1.0 s in one
stretch and 1.9 s in the next, in stretches of 10 to 20 seconds, and the
calibration kernel slowed down with it: the medians of 20-second windows
spread by 47% between their quartiles in seconds and by 7% in cal.  Each
workload uses the kernel that resembles its work: the solver's tiny numpy
calls slow down unlike the Monte Carlo sweep over large arrays.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_CAL_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])
_CAL_ROWS = np.random.default_rng(0).standard_normal((16384, 6))
_CAL_MAP = 0.1 * np.random.default_rng(1).standard_normal((6, 6))
_CAL_KEY = np.array([7, 0], dtype=np.uint64)
_svd = np.linalg.svd
# Seconds reported by the benchmark (setup_s) are seconds on a host where
# the "python" kernel takes this long: measured seconds x CAL_REF_S /
# kernel seconds.
CAL_REF_S = 0.02


def _python_kernel():
    """1,500 SVD-based inverses of a 2x2 matrix: many tiny numpy calls from
    Python, like the solver's per-node work."""
    for _ in range(1500):
        u, s, vt = _svd(_CAL_MATRIX)
        (vt.T * (1.0 / s)) @ u.T


def _array_kernel():
    """20 Euler-like steps on 16384 rows with fresh Philox draws, like one
    chunk of the Monte Carlo sweep."""
    rng = np.random.Generator(np.random.Philox(key=_CAL_KEY))
    dw = rng.standard_normal((_CAL_ROWS.shape[0], 20))
    y = _CAL_ROWS
    for k in range(20):
        y = _CAL_ROWS + y @ _CAL_MAP.T + dw[:, k:k + 1] * y
        np.einsum("bi,ij,bj->b", y, _CAL_MAP, y)


KERNELS = {"python": _python_kernel, "array": _array_kernel}


def calibrate(kernel: str = "python") -> float:
    """Seconds of one run of a calibration kernel."""
    t0 = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - t0


class CheckFailed(Exception):
    """An operation's output disagrees with what it must be."""


@dataclass
class Sample:
    entry: int
    pass_index: int
    seconds: float
    cal_seconds: float
    error: Optional[str] = None

    @property
    def cal(self) -> float:
        return self.seconds / self.cal_seconds


@dataclass
class LoopResult:
    samples: list = field(default_factory=list)
    elapsed: float = 0.0
    passes: int = 0


def run_loop(workload, seconds: float, tracer=None) -> LoopResult:
    """Run the workload's entries in order, pass after pass.

    Stops after the operation during which ``seconds`` ran out, once at
    least ``workload.min_passes`` whole passes are done.
    """
    res = LoopResult()
    entries = workload.entries
    cal_before = calibrate(workload.kernel)
    start = time.perf_counter()
    pass_index = 0
    while True:
        for i, entry in enumerate(entries):
            op = len(res.samples)
            if tracer is not None:
                tracer.begin_op(op)
            error = None
            output = None
            t0 = time.perf_counter()
            try:
                output = workload.execute(entry, pass_index)
            except Exception:  # a failed operation is counted, the run goes on
                error = "raised: " + traceback.format_exc(limit=3).strip()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    workload.check(entry, pass_index, output)
                except CheckFailed as exc:
                    error = f"check: {exc}"
            cal_after = calibrate(workload.kernel)
            res.samples.append(
                Sample(i, pass_index, dt, 0.5 * (cal_before + cal_after), error)
            )
            cal_before = cal_after
            done = pass_index + (i == len(entries) - 1)
            res.elapsed = time.perf_counter() - start
            if done >= workload.min_passes and res.elapsed >= seconds:
                res.passes = done
                return res
        pass_index += 1


def median_by_entry(samples, attr: str) -> dict:
    by = {}
    for s in samples:
        by.setdefault(s.entry, []).append(getattr(s, attr))
    return {k: statistics.median(v) for k, v in by.items()}


def pass_total(samples, attr: str) -> float:
    """One pass over the entry list: the sum of each entry's median."""
    return sum(median_by_entry(samples, attr).values())
