"""Discrete-event simulation substrate.

The serving experiments in the paper run minutes of Poisson arrivals against
GPU kernels that take tens of microseconds to milliseconds.  Reproducing that
faithfully in wall-clock time would be both slow and non-deterministic, so
the whole serving stack (manager, scheduler, workers, load generator) is
written against an event loop with a virtual clock.  The same components can
also run against a real-time clock for live serving: :mod:`repro.serve`
pumps the identical event heap with ``EventLoop.run_due`` under asyncio
timers instead of advancing the clock.
"""

from repro.sim.clock import Clock, RealTimeClock, VirtualClock
from repro.sim.events import Event, EventLoop

__all__ = [
    "Clock",
    "RealTimeClock",
    "VirtualClock",
    "Event",
    "EventLoop",
]
