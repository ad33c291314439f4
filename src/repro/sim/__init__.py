"""Fixed-timestep simulation kernel.

The kernel advances a set of components with a constant timestep and records
signals through :class:`~repro.sim.probes.Recorder` probes.  It is the
substrate that every experiment in the reproduction runs on: the oscilloscope
waveforms of Figs. 7 and 8 are literally probe traces from this kernel.
"""

from repro.sim.engine import Component, Simulator, SimulationResult, StopCondition
from repro.sim.kernel import (
    KERNELS,
    CapacitorPhysics,
    LoadProfile,
    PowerSourcePlan,
    TransitionTable,
    VoltageSourcePlan,
)
from repro.sim.probes import Probe, Recorder, Trace
from repro.sim import waveform

__all__ = [
    "Component",
    "Simulator",
    "SimulationResult",
    "StopCondition",
    "KERNELS",
    "CapacitorPhysics",
    "LoadProfile",
    "PowerSourcePlan",
    "TransitionTable",
    "VoltageSourcePlan",
    "Probe",
    "Recorder",
    "Trace",
    "waveform",
]
