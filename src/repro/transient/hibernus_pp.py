"""Hibernus++: self-calibrating, adaptive Hibernus (ref [2]).

The paper's description: Hibernus needs design-time characterisation of
(1) the platform (C, hence V_H) and (2) the source (hence V_R);
Hibernus++ "performs adaptive, run-time calibration and management of the
platform and energy harvesting source" so neither needs to be known.

Implementation here:

* **Platform calibration** — V_H starts conservatively high.  Every
  completed snapshot measures the *actual* energy it cost through the rail
  voltage drop across the operation (E = C_est*(v_start^2 - v_end^2)/2 is
  unavailable without knowing C, so the strategy instead measures the
  voltage drop dV directly and maintains V_H = V_min + dV * margin, which
  needs no C at all).  If a snapshot ever aborts (supply died mid-write),
  V_H is raised sharply.
* **Source calibration** — V_R adapts to the source dynamics: when the
  supply consistently races through V_R (fast sources), V_R drifts down
  toward V_H + guard band to recover active time; when the device browns
  out soon after restoring (slow ramps), V_R drifts up.

Compared to a hand-calibrated Hibernus the overheads of starting
conservative make it slightly less efficient on the nominal platform, but
it keeps working when C differs from nominal — exactly the trade-off the
paper describes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.transient.base import (
    InlineHooks,
    PlatformState,
    Strategy,
    TransientPlatform,
)
from repro.spec.registry import register


@register("hibernus++", kind="strategy")
class HibernusPP(Strategy):
    """Self-calibrating hibernate/restore thresholds (see module docstring).

    Args:
        v_hibernate_initial: conservative starting V_H (well above any
            plausible requirement); None picks 85% of the way from v_min
            to v_restore_initial.
        v_restore_initial: starting V_R.
        margin: multiplier on the measured snapshot voltage drop.
        guard: minimum gap kept between V_H and both rails of its range.
        adapt_rate: fractional step for V_R drift per observation.
    """

    name = "hibernus++"

    def __init__(
        self,
        v_hibernate_initial: float = None,
        v_restore_initial: float = 3.1,
        margin: float = 1.25,
        guard: float = 0.05,
        adapt_rate: float = 0.1,
    ):
        if adapt_rate <= 0.0 or adapt_rate >= 1.0:
            raise ConfigurationError("adapt_rate must be in (0, 1)")
        self._v_hibernate_initial = v_hibernate_initial
        self._v_restore_initial = v_restore_initial
        self.margin = margin
        self.guard = guard
        self.adapt_rate = adapt_rate
        self.v_hibernate = 0.0
        self.v_restore = v_restore_initial
        self._snapshot_start_v = 0.0

    def configure(self, platform: TransientPlatform) -> None:
        v_min = platform.config.v_min
        if self._v_hibernate_initial is None:
            self.v_hibernate = v_min + 0.85 * (self._v_restore_initial - v_min)
        else:
            self.v_hibernate = self._v_hibernate_initial
        self.v_restore = self._v_restore_initial
        if self.v_hibernate >= self.v_restore:
            raise ConfigurationError("initial V_H must sit below initial V_R")

    # -- callbacks -------------------------------------------------------

    def on_boot(self, platform: TransientPlatform, t: float, v: float) -> None:
        platform.go_sleep()

    def on_active(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v <= self.v_hibernate:
            self._snapshot_start_v = v
            platform.begin_snapshot(full=True)

    def on_sleep(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v < self.v_restore:
            return
        if platform.store.has_snapshot():
            platform.begin_restore()
        else:
            platform.cold_start()

    def sleep_wake_threshold(self, platform: TransientPlatform):
        # V_R adapts only at wake/brownout events, never mid-sleep, so the
        # present value is a valid chunk boundary.  Subclasses overriding
        # on_sleep must declare their own.
        if type(self).on_sleep is not HibernusPP.on_sleep:
            return None
        return self.v_restore

    def active_guard(self, platform: TransientPlatform):
        # V_H adapts only in snapshot/brownout callbacks, which fire
        # per-step, so the present value is a valid chunk boundary while
        # the device computes.
        if type(self).on_active is not HibernusPP.on_active:
            return None
        return self.v_hibernate

    def inline_hooks(self, platform: TransientPlatform) -> InlineHooks:
        # The trigger hook only records the snapshot's start voltage,
        # which the table does not read, and the wake hook records
        # nothing; the adaptation (snapshot/restore completion, power failure) moves
        # the thresholds, so those transitions return to Python.
        kind = type(self)
        return InlineHooks(
            boot=(PlatformState.SLEEP if kind.on_boot is HibernusPP.on_boot
                  else None),
            wake=kind.on_sleep is HibernusPP.on_sleep,
            snapshot_words=(platform.engine.full_state_words
                            if kind.on_active is HibernusPP.on_active
                            else None),
        )

    def on_snapshot_complete(
        self, platform: TransientPlatform, t: float, v: float
    ) -> None:
        # Runtime platform characterisation: the observed voltage cost of a
        # snapshot replaces the design-time Eq. (4) calculation.
        drop = max(0.0, self._snapshot_start_v - v)
        v_min = platform.config.v_min
        target = v_min + self.guard + drop * self.margin
        # Move most of the way to the measured target each time (snapshot
        # cost is deterministic, so convergence is fast and stable).
        self.v_hibernate += 0.7 * (target - self.v_hibernate)
        self._clamp(platform)

    def on_restore_complete(
        self, platform: TransientPlatform, t: float, v: float
    ) -> None:
        # Source characterisation: if the supply is already well above V_R
        # right after the restore finishes, the source ramps fast and V_R
        # can afford to sit lower (more active time per burst).
        if v > self.v_restore + 2.0 * self.guard:
            self.v_restore -= self.adapt_rate * (self.v_restore - self._floor())
            self._clamp(platform)

    def on_power_fail(self, platform: TransientPlatform, t: float) -> None:
        # Dying means calibration was too optimistic somewhere: raise both
        # thresholds (an aborted snapshot raises V_H; a brownout shortly
        # after restore raises V_R).
        self.v_hibernate += 0.1
        self.v_restore += self.adapt_rate * (3.4 - self.v_restore)
        self._clamp(platform)

    def reset(self) -> None:
        self.v_restore = self._v_restore_initial
        self._snapshot_start_v = 0.0

    # -- internals --------------------------------------------------------

    def _floor(self) -> float:
        return self.v_hibernate + self.guard

    def _clamp(self, platform: TransientPlatform) -> None:
        v_min = platform.config.v_min
        self.v_hibernate = max(self.v_hibernate, v_min + self.guard)
        if self.v_restore < self._floor() + self.guard:
            self.v_restore = self._floor() + self.guard
