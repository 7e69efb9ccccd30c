"""Discrete-event simulation kernel: clock, scheduler, timers, CPU, RNG."""

from .cpu import Cpu
from .kernel import Event, SimulationError, Simulator
from .rng import SeededRng
from .timers import PeriodicTimer, Timer
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "Cpu",
    "Event",
    "NullTracer",
    "PeriodicTimer",
    "SeededRng",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceRecord",
    "Tracer",
]
