"""Structured strategy comparison: the quantitative-evaluation harness.

Ref [13] (Rodriguez et al., ENSsys'15) compares transient-computing
approaches quantitatively; this module is that experiment as a reusable
API.  Give it a workload factory, a supply description and a set of
strategies; it runs each strategy on an identical system and returns a
comparison table of the metrics that matter (completion, overheads,
energy, availability).

Used by ``benchmarks/bench_ablation_strategies.py`` consumers and
downstream users sizing a design.

Since the results-pipeline refactor every run is summarised through the
metric-extractor registry into a typed
:class:`~repro.results.run_result.RunResult` (one per strategy, keyed by
a content hash of the scenario conditions), so a comparison can be
persisted to, or resumed from, a :class:`ResultStore` shard like any
sweep — pass ``store=`` to :func:`compare_strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import RunReport
from repro.core.system import EnergyDrivenSystem
from repro.errors import ConfigurationError
from repro.harvest.base import PowerHarvester
from repro.mcu.clock import ClockPlan, OperatingPoint
from repro.mcu.engine import ComputeEngine
from repro.mcu.power_model import McuPowerModel
from repro.power.rail import ResistiveLoad
from repro.results.run_result import RunResult
from repro.results.store import ResultStore
from repro.storage.capacitor import Capacitor
from repro.transient.base import Strategy, TransientPlatform, TransientPlatformConfig


@dataclass(frozen=True)
class ComparisonScenario:
    """The common conditions every strategy is run under.

    Attributes:
        harvester_factory: builds a fresh power source per run.
        capacitance: rail capacitance (F).
        duration: simulated seconds per run.
        dt: timestep.
        clock_frequency: core frequency (single-point plan).
        bleed_resistance: optional parallel drain forcing real brownouts.
        v_max: rail clamp voltage.
        label: distinguishes scenarios that a store could not otherwise
            tell apart — see :meth:`key_payload`.
    """

    harvester_factory: Callable[[], PowerHarvester]
    capacitance: float = 22e-6
    duration: float = 6.0
    dt: float = 1e-4
    clock_frequency: float = 1e6
    bleed_resistance: Optional[float] = 10000.0
    v_max: float = 3.3
    label: str = ""

    def __post_init__(self) -> None:
        if self.capacitance <= 0.0 or self.duration <= 0.0 or self.dt <= 0.0:
            raise ConfigurationError("invalid scenario parameters")

    def key_payload(self, strategy: str) -> Dict[str, object]:
        """The JSON-able identity of one (scenario, strategy) run.

        Imperatively wired comparisons have no ScenarioSpec to hash, so
        this payload is what keys their :class:`RunResult` rows in a
        store.  The harvester factory itself is not hashable; its
        qualified name stands in for it — two scenarios whose factories
        are *different lambdas with identical qualnames* (e.g. built in
        the same function with different captured parameters) must set
        distinct ``label``\\ s to share a persistent store safely.
        """
        factory = self.harvester_factory
        return {
            "experiment": "strategy-comparison",
            "label": self.label,
            "strategy": strategy,
            "harvester": getattr(factory, "__qualname__", repr(factory)),
            "capacitance": self.capacitance,
            "duration": self.duration,
            "dt": self.dt,
            "clock_frequency": self.clock_frequency,
            "bleed_resistance": self.bleed_resistance,
            "v_max": self.v_max,
        }


@dataclass
class StrategyResult:
    """One strategy's outcome under the scenario.

    ``platform`` is the live device for freshly simulated strategies and
    None for rows resumed from a store (the counters survive in
    ``result``/``report``; the object graph does not).
    """

    name: str
    report: RunReport
    platform: Optional[TransientPlatform]
    result: RunResult

    def row(self) -> List[object]:
        """Table row: the ENSsys-style comparison columns.

        Rendered from the pipeline's :class:`RunResult` metrics — the
        same counters :class:`RunReport` condenses, extracted once by
        the registry.
        """
        m = self.result.metrics
        return [
            self.name,
            m["completed"],
            f"{m['completion_time']:.3f}" if m["completed"] else "-",
            m["snapshots"],
            m["snapshots_aborted"],
            m["restores"],
            f"{m['energy_overhead'] * 1e6:.1f}",
            f"{m['energy_total'] * 1e3:.3f}",
            f"{100.0 * m['availability']:.1f}%",
        ]


#: Header matching :meth:`StrategyResult.row`.
COMPARISON_HEADERS = [
    "strategy", "completed", "t_complete (s)", "snapshots", "aborted",
    "restores", "overhead (uJ)", "energy (mJ)", "availability",
]


def compare_strategies(
    scenario: ComparisonScenario,
    entries: Sequence[Tuple[str, Callable[[], Strategy], Callable[[], ComputeEngine], McuPowerModel]],
    store: Optional[ResultStore] = None,
) -> Dict[str, StrategyResult]:
    """Run every (name, strategy factory, engine factory, power model)
    entry under identical conditions.

    Factories are called per run so no state leaks between strategies.
    Pass ``store`` to persist one :class:`RunResult` row per strategy
    and to skip strategies whose key the store already holds — the
    comparison resumes like a sweep (resumed entries carry
    ``platform=None``; their counters live on in the report/result).
    """
    from repro.results.run_result import content_hash

    results: Dict[str, StrategyResult] = {}
    for name, strategy_factory, engine_factory, power_model in entries:
        if store is not None:
            cached = store.get(content_hash(scenario.key_payload(name)))
            if cached is not None and cached.ok:
                results[name] = StrategyResult(
                    name=name,
                    report=_report_from_metrics(cached.metrics),
                    platform=None,
                    result=cached,
                )
                continue
        platform = TransientPlatform(
            engine_factory(),
            strategy_factory(),
            power_model=power_model,
            clock=ClockPlan([OperatingPoint(scenario.clock_frequency, 3.0)]),
            config=TransientPlatformConfig(rail_capacitance=scenario.capacitance),
        )
        system = EnergyDrivenSystem(scenario.dt)
        system.set_storage(Capacitor(scenario.capacitance, v_max=scenario.v_max))
        system.add_power_source(scenario.harvester_factory())
        system.set_platform(platform)
        if scenario.bleed_resistance:
            system.add_load(ResistiveLoad(scenario.bleed_resistance))
        system.install_probes(names=())  # rows only: record no trace
        run = system.run(scenario.duration)
        result = RunResult.from_system_run(
            run,
            overrides={"strategy": name},
            name=f"comparison-{name}",
            key_payload=scenario.key_payload(name),
        )
        if store is not None:
            store.add(result, overwrite=True)
        results[name] = StrategyResult(
            name=name,
            report=RunReport.from_run(platform, run.t_end),
            platform=platform,
            result=result,
        )
    return results


def _report_from_metrics(metrics: Dict[str, object]) -> RunReport:
    """Rebuild a :class:`RunReport` from a stored metrics row.

    Every report field is (or derives from) a registry column, so a
    resumed comparison row reads exactly like a fresh one.
    """
    t_end = float(metrics["t_end"])
    return RunReport(
        completed=bool(metrics["completed"]),
        completion_time=metrics["completion_time"],
        brownouts=int(metrics["brownouts"]),
        snapshots=int(metrics["snapshots"]),
        snapshots_aborted=int(metrics["snapshots_aborted"]),
        restores=int(metrics["restores"]),
        cycles_executed=int(metrics["cycles_executed"]),
        active_time=float(metrics["availability"]) * t_end,
        total_time=t_end,
        energy_total=float(metrics["energy_total"]),
        energy_overhead=float(metrics["energy_overhead"]),
    )


def comparison_store(results: Dict[str, StrategyResult]) -> ResultStore:
    """An in-memory :class:`ResultStore` over a comparison's rows.

    The query surface the neutral/ablation reports consume — e.g.
    ``comparison_store(results).best("energy_overhead")``.
    """
    store = ResultStore()
    for result in results.values():
        store.add(result.result)
    return store


def winner_by(results: Dict[str, StrategyResult], metric: str) -> str:
    """Name of the completing strategy minimising ``metric``.

    Supported metrics: 'completion_time', 'energy_total',
    'energy_overhead', 'snapshots'.  A store query underneath: only
    strategies that completed the workload compete.
    """
    completed = comparison_store(results).select(
        lambda r: r.metrics["completed"]
    )
    if not completed:
        raise ConfigurationError("no strategy completed the workload")
    return min(completed, key=lambda r: float(r.metrics[metric]))["strategy"]
