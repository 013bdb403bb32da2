"""Machine-speed calibration: CPU seconds of work in reference seconds.

On a shared host the same work takes tens of percent more or less time
from one minute to the next.  Two things move it.  The host may hold the
virtual CPU back (steal) or the guest may share it; neither counts in the
process's CPU time, so spans are taken in CPU time.  And the CPU itself
runs faster or slower, with its clock and with what runs on the other
hardware thread of its core; that moves CPU time too.  `SpeedSampler`
measures the second while the work runs: every INTERVAL_S a SIGALRM
handler times `kernel`, a fixed piece of work in the patterns of the
package's hot paths as they stood when the benchmark was defined, in
thread CPU time.  It is the benchmark's own code, so a change to the
package does not move it.  A span of work that took `cpu` CPU seconds,
with the handler's own time taken out, is worth

    cpu * mean(KERNEL_REF_S / kernel CPU seconds)

reference seconds: the time it would take on an unloaded host where
`kernel` takes KERNEL_REF_S.  The work is single-threaded, so on such a
host that is its wall time.  The samples are evenly spaced in time, so the
mean speed is the time-weighted speed the work saw.  A program change
moves the CPU seconds and not the kernel, so it moves reference seconds
in proportion.

The handler runs in the main thread between bytecodes, so it starts no
thread or process and runs on the CPU the work runs on.
"""
from __future__ import annotations

import signal
import time
from dataclasses import dataclass, replace

import numpy as np
import numpy.fft  # numpy loads it lazily; the handler must not import

INTERVAL_S = 0.1
# CPU seconds `kernel` takes when the sampler runs it between spells of
# the work, on a host of the kind the benchmark was defined on (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4) in a fast phase; it fixes the scale of
# reference seconds, not the comparison between runs
KERNEL_REF_S = 0.004

_RNG = np.random.default_rng(0)
_X64 = np.sort(_RNG.random(64))
_B64 = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
_CSUM = np.cumsum(_RNG.random(200))
_LOC = np.sort(_RNG.random(200))
_SIGNAL = _RNG.random(6000)
_FILTER = _RNG.random(4000)
_NFFT = 12288


@dataclass(frozen=True)
class _State:
    time: float
    positions: tuple
    step: int


def _modulus(d: float) -> float:
    return 0.75 * d


def _pairs() -> None:
    for _ in range(14):
        diff = _X64[:, None] - _X64[None, :]
        np.fill_diagonal(diff, 1.0)
        terms = (_B64[:, None] * _B64[None, :]) / diff
        np.fill_diagonal(terms, 0.0)
        s = np.zeros(64)
        comp = np.zeros(64)
        for col in range(0, 64, 4):
            y = terms[:, col] - comp
            t = s + y
            comp = (t - s) - y
            s = t


def _scan() -> None:
    best = 0.0
    for i in range(0, 200, 15):
        for j in range(i, 200):
            v = abs(_CSUM[j] - _CSUM[i]) - _modulus(_LOC[j] - _LOC[i])
            if v > best:
                best = float(v)


def _convolve() -> None:
    for _ in range(2):
        f = np.fft.rfft(_SIGNAL, _NFFT) * np.fft.rfft(_FILTER, _NFFT)
        np.fft.irfft(f, _NFFT)


def _steps() -> None:
    state = _State(0.0, (1.0, 2.0), 0)
    for i in range(500):
        state = replace(state, time=state.time + 0.1, step=i)


def kernel() -> None:
    """A fixed 3 ms of work: one part in the pattern of each workload's hot path.

    A 64-point pair matrix with compensated column sums in small-vector
    ufunc calls (the force kernel, `ladder` and `verify`), an interpreted
    double loop over numpy scalars with a callback (the AEC scan,
    `measure_aec`), an FFT convolution of some 10k points (the grid
    operator, `hj_fine`), and frozen-dataclass updates (the integrator's
    states).  The parts take about equal time.
    """
    _pairs()
    _scan()
    _convolve()
    _steps()


class SpeedSampler:
    """Times `kernel` every INTERVAL_S while running; spans are read with `mark`."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # KERNEL_REF_S / kernel CPU seconds, per sample
        self.overhead_s = 0.0  # CPU time spent in the handler
        self._busy = False

    def _handler(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        """Time `kernel` once; a tick that lands inside a sample is dropped."""
        if self._busy:
            return
        self._busy = True
        try:
            t = time.thread_time()
            kernel()
            self.speeds.append(KERNEL_REF_S / (time.thread_time() - t))
            self.overhead_s += time.thread_time() - t
        finally:
            self._busy = False

    def start(self) -> None:
        # The handler can interrupt an import that holds the import lock, so
        # everything `kernel` touches is loaded here, before the first tick.
        kernel()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """A point in time: samples so far and handler CPU seconds so far."""
        return len(self.speeds), self.overhead_s

    def span(self, start: tuple[int, float], end: tuple[int, float], cpu_s: float,
             wall_s: float) -> dict:
        """CPU and wall seconds between two marks, without handler time, and reference seconds."""
        speeds = self.speeds[start[0]:end[0]]
        if not speeds:  # a span shorter than INTERVAL_S
            self.sample()
            speeds = self.speeds[-1:]
        handler_s = end[1] - start[1]
        speed = sum(speeds) / len(speeds)
        return {"ref_s": (cpu_s - handler_s) * speed, "raw_s": wall_s - handler_s,
                "speed": speed, "samples": len(speeds)}
