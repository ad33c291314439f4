"""Non-volatile processor (NVP) backup (ref [10]).

Architectural support: non-volatile flip-flops shadow the register file and
key state, so the whole volatile context can be flushed in a handful of
cycles when the supply collapses.  We model this as a *just-in-time*
snapshot triggered at a threshold barely above V_min — the backup is so
cheap that Eq. (4) is satisfiable with microvolts of headroom — after which
the device keeps computing until brownout (it loses only the cycles between
the flush and the actual death).

The contrast with Hibernus (software, milliseconds, needs real headroom)
and QuickRecall (software, registers only, needs unified FRAM) is the point
of including it in the ablation benches.
"""

from __future__ import annotations

import math

from repro.transient.base import (
    InlineHooks,
    PlatformState,
    Strategy,
    TransientPlatform,
)
from repro.spec.registry import register
from repro.transient.hibernus import hibernate_threshold


@register("nvp", kind="strategy")
class NVProcessor(Strategy):
    """Hardware-assisted instant backup (see module docstring).

    Args:
        v_restore: supply level at which a booted device resumes.
        backup_margin: multiplier on the (tiny) hardware backup energy
            when deriving the flush threshold.  The default is generous:
            it covers detector latency (one control period) on top of the
            backup energy itself, keeping the flush window wide enough to
            hit at simulation resolution.
    """

    name = "nvp"

    #: Words flushed by the hardware backup path: register file + PC +
    #: pipeline/peripheral shadow state.
    BACKUP_WORDS = 32

    def __init__(self, v_restore: float = 2.4, backup_margin: float = 8.0):
        self.v_restore = v_restore
        self.backup_margin = backup_margin
        self.v_flush = 0.0
        self._flushed_this_excursion = False

    def configure(self, platform: TransientPlatform) -> None:
        # The NVP flush moves BACKUP_WORDS through non-volatile flip-flops
        # in ~one cycle per word at the snapshot clock.
        __, energy = platform.power_model.snapshot_cost(
            self.BACKUP_WORDS, platform.config.snapshot_frequency, voltage=3.0
        )
        self.v_flush = hibernate_threshold(
            energy,
            platform.config.rail_capacitance,
            platform.config.v_min,
            margin=self.backup_margin,
        )

    def on_boot(self, platform: TransientPlatform, t: float, v: float) -> None:
        platform.go_sleep()

    def on_active(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v <= self.v_flush and not self._flushed_this_excursion:
            self._flushed_this_excursion = True
            # Hardware backup: the full logical state is preserved in
            # shadow NV cells, but only BACKUP_WORDS move over the NVM port.
            platform.begin_snapshot(full=True, words=self.BACKUP_WORDS)

    def on_snapshot_complete(
        self, platform: TransientPlatform, t: float, v: float
    ) -> None:
        # Keep computing on whatever charge remains; the backup is done.
        platform.go_active()

    def on_sleep(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v < self.v_restore:
            return
        self._flushed_this_excursion = False
        platform.wake()

    def inline_hooks(self, platform: TransientPlatform) -> InlineHooks:
        # The flush begins a BACKUP_WORDS snapshot at V_flush, and once
        # it has fired on_active is a no-op until brownout.  Waking
        # clears the flush latch, which moves the guard, so the wake
        # itself stays in Python.  A subclass overriding one of these
        # hooks vouches for it itself.
        kind = type(self)
        flushes = kind.on_active is NVProcessor.on_active
        guard = -math.inf if self._flushed_this_excursion else self.v_flush
        return InlineHooks(
            boot=(PlatformState.SLEEP
                  if kind.on_boot is NVProcessor.on_boot else None),
            snapshot_words=self.BACKUP_WORDS if flushes else None,
            wake_at=(self.v_restore if kind.on_sleep is NVProcessor.on_sleep
                     else None),
            guard=guard if flushes else None,
        )

    def on_power_fail(self, platform: TransientPlatform, t: float) -> None:
        self._flushed_this_excursion = False

    def reset(self) -> None:
        self._flushed_this_excursion = False
