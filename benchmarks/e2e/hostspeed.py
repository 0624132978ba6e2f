"""Host-speed sampling, so timings read the same on a fast or a slowed host.

The benchmark's host is a shared VM, and two kinds of neighbour slow it:

* its cores switch, every few seconds, between full speed and about half
  of it, as other tenants come and go -- the program runs, but slower;
* other processes take the core away for a while -- the program does
  not run at all.

A timed window therefore counts CPU time, not wall time, which removes
the second kind: the program is serial (one thread, one BLAS thread), so
its CPU time is its wall time minus the time it was not running.  The
count covers every thread of the process and every child process it
has waited for, so work moved onto threads or worker processes is still
charged.  For
the first kind, the window times a fixed *yardstick* every
``INTERVAL_S`` of CPU time from a ``SIGPROF`` handler: the benchmark's
own frozen reference convolution on one small problem, code of the same
kind as the program's hot paths.  Each sample gives the host's speed at
that moment, ``NOMINAL_S`` over the sample's CPU time.

A window reports:

* ``seconds``: its CPU time minus the CPU time of the samples;
* ``speed``: the mean of its samples' speeds, 1.0 being nominal.  The
  samples come at even steps of CPU time, so this is the speed weighted
  by the time ``seconds`` counts;
* ``nominal_s``: ``seconds`` times ``speed``, the time the same work
  takes at the nominal speed;
* ``wall_s``: its wall time as measured, samples included.

``NOMINAL_S`` is the yardstick's time, run back to back, on an unloaded
core of the reference host (a 2-vCPU Intel Xeon VM, Python 3.11, numpy
2.4).  It and the yardstick are fixed for good: changing either rescales
every normalized metric, so results from before and after would not
compare.
"""

from __future__ import annotations

import resource
import signal
import time
from contextlib import contextmanager

import numpy as np

#: CPU time between two yardstick samples while a window is open.
INTERVAL_S = 0.01

#: The yardstick's duration at the nominal speed, in seconds.
NOMINAL_S = 1.0e-4

_RNG = np.random.default_rng(20130611)
_IMAGE = _RNG.standard_normal((8, 18, 18)).astype(np.float32)
_FILTERS = _RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)


def yardstick() -> None:
    """A 3x3, 8-channel, 8-filter valid convolution of an 18x18 image.

    The arithmetic of ``workloads.reference_conv``, written out here so
    that no change elsewhere can alter what is sampled.
    """
    out = np.zeros((8, 16, 16), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += np.tensordot(_FILTERS[:, :, dy, dx],
                                _IMAGE[:, dy:dy + 16, dx:dx + 16],
                                axes=([1], [0]))
    out.astype(np.float32)


def cpu_time() -> float:
    """CPU seconds of this process and of its children that have ended.

    Once a profiling timer has been armed, Linux advances the process
    CPU clock only once per scheduler tick (4 ms on the reference host)
    until the process is next switched out, even after the timer is
    disarmed.  A 1 ms sleep switches it out; the clock is then exact to
    about 0.1 ms.
    """
    time.sleep(0.001)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def sample() -> float:
    """CPU seconds one yardstick takes now.

    Timed on the thread's CPU clock, which stays exact while the timer
    is armed (see :func:`cpu_time`).  The thread clock, too, now and then fails to advance across a
    yardstick (about once in 20000 on the reference host); such a
    reading, a tenth of the nominal time or less, is taken again.
    """
    while True:
        t0 = time.thread_time()
        yardstick()
        d = time.thread_time() - t0
        if d > NOMINAL_S / 10:
            return d


class Window:
    """One timed interval and the yardstick samples taken for it."""

    def __init__(self):
        self.samples = []       # CPU seconds of each yardstick
        self.stolen = 0.0       # CPU seconds of the samples inside it
        self.start = self.end = 0.0
        self.cpu_start = self.cpu_end = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return self.cpu_end - self.cpu_start - self.stolen

    @property
    def speed(self) -> float:
        return sum(NOMINAL_S / d for d in self.samples) / len(self.samples)

    @property
    def nominal_s(self) -> float:
        return self.seconds * self.speed


class HostSpeed:
    """Samples the yardstick while a :meth:`window` is open."""

    def __init__(self):
        self._window = None
        for _ in range(3):      # first calls pay numpy's lazy set-up
            yardstick()

    def _on_tick(self, signum, frame) -> None:
        window = self._window
        if window is not None:
            t0 = time.thread_time()
            window.samples.append(sample())
            window.stolen += time.thread_time() - t0

    @contextmanager
    def window(self):
        """Time the enclosed block; the yielded :class:`Window` is filled
        in when the block ends.  A sample is also taken just before and
        just after it, outside its time, so even a block shorter than
        the sampling interval has a speed."""
        window = Window()
        window.samples.append(sample())
        window.cpu_start = cpu_time()
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        self._window = window
        window.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            window.end = time.perf_counter()
            self._window = None
            signal.signal(signal.SIGPROF, previous)
            window.cpu_end = cpu_time()
            window.samples.append(sample())
