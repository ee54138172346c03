"""Interpreter-speed probe, so timings can be scaled to a reference speed.

On a shared virtual machine the speed of one core can drift by a factor
of two within a minute, and CPU time drifts just the same. The probe runs a
small fixed pure-Python loop every ``PERIOD_S`` of wall time, from a
timer signal in the measuring thread itself, and records how long each
run took. Work done in an interval is proportional to its length times
the mean speed, and a run's speed is proportional to ``1 / loop time``;
so a time measured while the probe ran, minus the probe's own time,
times the mean of ``REF_LOOP_S / loop time``, is that time scaled to a
machine that runs the loop in ``REF_LOOP_S``. Scaled times cancel most
of the drift, and a change to ``cliquesep`` cannot move the loop.
"""

from __future__ import annotations

import signal

#: Wall time between probe runs.
PERIOD_S = 0.02

#: Nominal duration of one probe loop; scaled times are in seconds at
#: this speed (near the median measured on a 2-vCPU Intel Xeon VM).
REF_LOOP_S = 1.2e-4


def _add(a: int, b: int) -> int:
    return a + b


def reference_loop() -> int:
    s = 0
    for i in range(1000):
        s = _add(s, i * i & 7)
    return s


class SpeedProbe:
    """Samples the reference loop while started; ``spent`` is the probe's
    own time, to be subtracted from what it interrupted."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = self.clock()
        reference_loop()
        dt = self.clock() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; return the scale factor for the sampled interval."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if not self.samples:  # interval shorter than one period
            t0 = self.clock()
            reference_loop()
            self.samples.append(self.clock() - t0)
        return scale_factor(self.samples)


def scale_factor(samples: list[float]) -> float:
    """Mean speed relative to the reference over probe loop times."""
    return sum(REF_LOOP_S / d for d in samples) / len(samples)
