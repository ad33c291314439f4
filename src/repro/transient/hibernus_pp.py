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
from repro.spec.registry import register
from repro.transient.base import TransientPlatform
from repro.transient.hibernus import Hibernus


@register("hibernus++", kind="strategy")
class HibernusPP(Hibernus):
    """Self-calibrating hibernate/restore thresholds (see module docstring).

    A :class:`Hibernus` whose V_H and V_R move: it boots, snapshots and
    wakes by Hibernus's hooks (and the transition table follows them at
    the present thresholds); only the calibration below is its own.

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
        super().__init__(v_hibernate=0.0, v_restore=v_restore_initial,
                         margin=margin)
        self._v_hibernate_initial = v_hibernate_initial
        self._v_restore_initial = v_restore_initial
        self.guard = guard
        self.adapt_rate = adapt_rate

    def configure(self, platform: TransientPlatform) -> None:
        v_min = platform.config.v_min
        if self._v_hibernate_initial is None:
            self.v_hibernate = v_min + 0.85 * (self._v_restore_initial - v_min)
        else:
            self.v_hibernate = self._v_hibernate_initial
        self.v_restore = self._v_restore_initial
        if self.v_hibernate >= self.v_restore:
            raise ConfigurationError("initial V_H must sit below initial V_R")

    # -- adaptation ------------------------------------------------------

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
