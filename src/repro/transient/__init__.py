"""Transient computing: sustaining computation across supply interruptions.

This package implements the strategies the paper situates in its taxonomy:

* :class:`~repro.transient.hibernus.Hibernus` — voltage-interrupt snapshot
  at the Eq. (4) threshold (ref [9], §III).
* :class:`~repro.transient.hibernus_pp.HibernusPP` — online self-calibrating
  Hibernus (ref [2]).
* :class:`~repro.transient.quickrecall.QuickRecall` — unified-FRAM,
  register-only snapshots (ref [8]).
* :class:`~repro.transient.mementos.Mementos` — compile-time checkpoint
  sites with threshold-gated snapshots (ref [7]).
* :class:`~repro.transient.nvp.NVProcessor` — architectural non-volatile
  processor backup (ref [10]).
* :mod:`~repro.transient.taskbased` — charge-and-fire task-based systems:
  WISPCam, Monjolo, Gomez dynamic energy burst scaling (refs [4][5][6]).

All register/RAM-level strategies drive a
:class:`~repro.transient.base.TransientPlatform`, the rail-attached device
model that owns the compute engine, power model, snapshot store and clock.
"""

from repro.transient.base import (
    InlineHooks,
    NullStrategy,
    PlatformState,
    SnapshotStore,
    Strategy,
    TransientPlatform,
    TransientPlatformConfig,
)
from repro.transient.hibernus import Hibernus, hibernate_threshold
from repro.transient.hibernus_pp import HibernusPP
from repro.transient.quickrecall import QuickRecall
from repro.transient.mementos import Mementos
from repro.transient.nvp import NVProcessor
from repro.transient.taskbased import (
    ChargeAndFireDevice,
    EnergyBurstScaler,
    MonjoloMeter,
    Task,
    WispCam,
)

__all__ = [
    "TransientPlatform",
    "TransientPlatformConfig",
    "PlatformState",
    "SnapshotStore",
    "Strategy",
    "InlineHooks",
    "NullStrategy",
    "Hibernus",
    "hibernate_threshold",
    "HibernusPP",
    "QuickRecall",
    "Mementos",
    "NVProcessor",
    "ChargeAndFireDevice",
    "Task",
    "WispCam",
    "MonjoloMeter",
    "EnergyBurstScaler",
]
