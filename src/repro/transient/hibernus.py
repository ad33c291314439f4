"""Hibernus: interrupt-driven hibernation (ref [9], paper §III).

Behaviour, per the paper:

* A voltage interrupt fires when V_cc falls through the hibernate
  threshold V_H; the system snapshots *all* volatile state (RAM + registers)
  to NVM and sleeps.  Usually exactly one snapshot per supply failure.
* V_H is chosen from expression (4): the energy left in the capacitance
  between V_H and V_min must cover the snapshot energy E_s:

      E_s <= C * (V_H^2 - V_min^2) / 2

* When the supply recovers through the restore threshold V_R, the snapshot
  is restored and execution continues where it left off (Fig. 7).

Design-time calibration (the two items §III lists) maps to the constructor:
``v_hibernate=None`` derives V_H from the platform's C and power model
(item 1); ``v_restore`` encodes the source characterisation (item 2).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError
from repro.transient.base import (
    InlineHooks,
    PlatformState,
    Strategy,
    TransientPlatform,
)
from repro.spec.registry import register


def hibernate_threshold(
    snapshot_energy: float,
    capacitance: float,
    v_min: float,
    margin: float = 1.1,
) -> float:
    """Solve expression (4) for the minimum safe hibernate threshold V_H.

    Args:
        snapshot_energy: E_s, joules needed to save the system state.
        capacitance: total rail capacitance C in farads.
        v_min: voltage at which the system stops operating.
        margin: safety factor applied to E_s (1.0 = exact Eq. 4 equality).

    Returns:
        V_H in volts such that ``E_s * margin == C*(V_H^2 - V_min^2)/2``.
    """
    if snapshot_energy < 0.0:
        raise ConfigurationError("snapshot energy must be non-negative")
    if capacitance <= 0.0:
        raise ConfigurationError("capacitance must be positive")
    if v_min < 0.0:
        raise ConfigurationError("v_min must be non-negative")
    if margin < 1.0:
        raise ConfigurationError("margin must be >= 1")
    return math.sqrt(2.0 * snapshot_energy * margin / capacitance + v_min * v_min)


@register("hibernus", kind="strategy")
class Hibernus(Strategy):
    """Voltage-interrupt snapshot-and-sleep (see module docstring).

    Args:
        v_hibernate: hibernate threshold V_H; None derives it from Eq. (4)
            using the platform's capacitance and snapshot cost.
        v_restore: restore threshold V_R (source characterisation); must
            end up above V_H.
        margin: safety factor on E_s when deriving V_H.
        min_headroom: floor on V_H - V_min.  The voltage comparator has
            finite resolution and latency; when Eq. (4) asks for only
            millivolts of headroom (tiny snapshots), the detector — not
            the energy balance — sets the threshold.
        full_snapshot: snapshot geometry — True saves RAM + registers
            (the Hibernus design); subclasses override.
    """

    name = "hibernus"

    def __init__(
        self,
        v_hibernate: Optional[float] = None,
        v_restore: float = 2.9,
        margin: float = 1.3,
        min_headroom: float = 0.05,
        full_snapshot: bool = True,
    ):
        self.v_hibernate = v_hibernate
        self.v_restore = v_restore
        self.margin = margin
        self.min_headroom = min_headroom
        self.full_snapshot = full_snapshot
        self._explicit_v_hibernate = v_hibernate is not None
        self._snapshot_start_v = 0.0

    # -- calibration ----------------------------------------------------

    def snapshot_words(self, platform: TransientPlatform) -> int:
        """NVM words one snapshot writes (full state for Hibernus)."""
        if self.full_snapshot:
            return platform.engine.full_state_words
        return platform.engine.register_state_words

    def snapshot_energy(self, platform: TransientPlatform) -> float:
        """E_s for this platform: the Eq. (4) numerator."""
        __, energy = platform.power_model.snapshot_cost(
            self.snapshot_words(platform),
            platform.config.snapshot_frequency,
            voltage=3.0,
        )
        return energy

    def configure(self, platform: TransientPlatform) -> None:
        if not self._explicit_v_hibernate:
            self.v_hibernate = max(
                hibernate_threshold(
                    self.snapshot_energy(platform),
                    platform.config.rail_capacitance,
                    platform.config.v_min,
                    margin=self.margin,
                ),
                platform.config.v_min + self.min_headroom,
            )
        if self.v_hibernate >= self.v_restore:
            raise ConfigurationError(
                f"V_H ({self.v_hibernate:.3f} V) must sit below V_R "
                f"({self.v_restore:.3f} V); increase capacitance or V_R"
            )

    # -- callbacks -------------------------------------------------------

    def on_boot(self, platform: TransientPlatform, t: float, v: float) -> None:
        # Wait in sleep for the supply to reach V_R before doing anything;
        # on_sleep then either restores or cold starts.
        platform.go_sleep()

    def on_active(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v <= self.v_hibernate:
            # The voltage interrupt: snapshot now, as late as possible
            # (Hibernus++ calibrates V_H from the voltage it started at).
            self._snapshot_start_v = v
            platform.begin_snapshot(full=self.full_snapshot)

    def on_sleep(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v < self.v_restore:
            return
        platform.wake()

    def inline_hooks(self, platform: TransientPlatform) -> InlineHooks:
        # Boot sleeps; V_R wakes; V_H snapshots.  The thresholds are the
        # present ones: V_H and V_R move only in completion and
        # power-fail hooks, never while the device sleeps or computes.
        # A subclass overriding one of these hooks vouches for it itself.
        kind = type(self)
        wakes = kind.on_sleep is Hibernus.on_sleep
        snapshots = kind.on_active is Hibernus.on_active
        return InlineHooks(
            boot=(PlatformState.SLEEP if kind.on_boot is Hibernus.on_boot
                  else None),
            wake=wakes,
            snapshot_words=(self.snapshot_words(platform) if snapshots
                            else None),
            wake_at=self.v_restore if wakes else None,
            guard=self.v_hibernate if snapshots else None,
        )
