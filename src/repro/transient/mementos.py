"""Mementos: compile-time checkpoints (ref [7]).

Checkpoints are placed at *program sites* chosen at design/compile time
(our programs carry ``ckpt`` markers at loop boundaries — the Mementos
loop-latch heuristic).  At each site the runtime compares V_cc against a
threshold and snapshots if the supply looks weak.  The paper lists the
three downsides this reproduction makes measurable:

1. redundant snapshots add time and energy overhead;
2. a snapshot can start but not complete before the supply dies;
3. code executed since the last snapshot is re-executed after restore.

Unlike Hibernus there is no hibernate-then-sleep: Mementos keeps running
after a snapshot and simply dies at brownout.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.transient.base import InlineHooks, Strategy, TransientPlatform
from repro.spec.registry import register


@register("mementos", kind="strategy")
class Mementos(Strategy):
    """Threshold-gated snapshots at compile-time checkpoint sites.

    Args:
        v_checkpoint: snapshot when V_cc is at or below this at a site.
        v_operate: minimum supply at which a freshly booted device starts
            running (a simple oracle against booting into a dying supply).
        timer_interval: optional timer-aided mode — also snapshot at the
            first site after every ``timer_interval`` seconds, regardless
            of voltage (the Mementos timer heuristic).
    """

    name = "mementos"

    def __init__(
        self,
        v_checkpoint: float = 2.8,
        v_operate: float = 2.5,
        timer_interval: Optional[float] = None,
    ):
        if v_checkpoint <= 0.0 or v_operate <= 0.0:
            raise ConfigurationError("thresholds must be positive")
        if timer_interval is not None and timer_interval <= 0.0:
            raise ConfigurationError("timer interval must be positive")
        self.v_checkpoint = v_checkpoint
        self.v_operate = v_operate
        self.timer_interval = timer_interval
        self._last_snapshot_time = 0.0

    def configure(self, platform: TransientPlatform) -> None:
        platform.stop_at_checkpoints = True

    def on_boot(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v < self.v_operate:
            platform.go_sleep()
            return
        platform.wake()

    def on_sleep(self, platform: TransientPlatform, t: float, v: float) -> None:
        if v >= self.v_operate:
            platform.wake()

    def inline_hooks(self, platform: TransientPlatform) -> InlineHooks:
        # Waking at V_operate restores or cold-starts.  The boot hook
        # may do the same at once, which a table row cannot say, and
        # snapshots start at checkpoint sites: both stay in Python.
        hooks = super().inline_hooks(platform)
        if type(self).on_sleep is not Mementos.on_sleep:
            return hooks  # subclass changed sleep behaviour; stay per-step
        return hooks._replace(wake=True, wake_at=self.v_operate)

    def on_checkpoint_site(
        self, platform: TransientPlatform, t: float, v: float
    ) -> None:
        timer_due = (
            self.timer_interval is not None
            and t - self._last_snapshot_time >= self.timer_interval
        )
        if v <= self.v_checkpoint or timer_due:
            self._last_snapshot_time = t
            platform.begin_snapshot(full=True)

    def on_snapshot_complete(
        self, platform: TransientPlatform, t: float, v: float
    ) -> None:
        # Mementos does not hibernate: execution continues immediately.
        platform.go_active()

    def reset(self) -> None:
        self._last_snapshot_time = 0.0
