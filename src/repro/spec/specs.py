"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is a frozen, plain-data description of one
energy-driven system — storage, harvesting front ends, the transient
platform and its strategy — that:

* validates eagerly (unknown registry keys and misspelled parameters fail
  at construction with actionable messages, not at run time),
* round-trips losslessly through plain dicts and JSON
  (``ScenarioSpec.from_json(spec.to_json()) == spec``),
* :meth:`~ScenarioSpec.build`\\ s into a ready-to-run
  :class:`~repro.core.system.EnergyDrivenSystem` — the imperative API
  stays the engine underneath,
* expands into parameter-grid variants via :meth:`~ScenarioSpec.sweep`,
  which is what :class:`repro.spec.runner.SweepRunner` parallelises
  (frozen plain-data specs are picklable for free).

Component references are string keys into :mod:`repro.spec.registry`;
see ``python -m repro.cli components`` for the catalog.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError
from repro.spec.registry import accepted_parameters, create, validate_params


def _plain(value: Any) -> Any:
    """Deep-copy ``value`` into plain JSON-compatible containers."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _check_keys(payload: Mapping[str, Any], allowed: Sequence[str], what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SpecError(
            f"unknown key(s) {unknown} in {what}; allowed keys: {sorted(allowed)}"
        )


# ---------------------------------------------------------------------------
# Component-level specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarvesterSpec:
    """One harvesting front end: the source plus its conditioning.

    Voltage-domain harvesters (``SignalGenerator``, ``MicroWindTurbine``,
    ...) may name a ``rectifier``; power-domain harvesters may name a
    ``converter`` and/or ``mppt`` stage.  The domain is determined by the
    registered class when the spec is built.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    rectifier: Optional[str] = None
    rectifier_params: Dict[str, Any] = field(default_factory=dict)
    converter: Optional[str] = None
    converter_params: Dict[str, Any] = field(default_factory=dict)
    mppt: Optional[str] = None
    mppt_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params))
        object.__setattr__(self, "rectifier_params", _plain(self.rectifier_params))
        object.__setattr__(self, "converter_params", _plain(self.converter_params))
        object.__setattr__(self, "mppt_params", _plain(self.mppt_params))
        if self.rectifier is not None and (self.converter or self.mppt):
            raise SpecError(
                f"harvester {self.kind!r}: a rectifier (voltage domain) cannot "
                "be combined with a converter/mppt (power domain)"
            )
        validate_params("harvester", self.kind, self.params)
        if self.rectifier is not None:
            validate_params("rectifier", self.rectifier, self.rectifier_params)
        if self.converter is not None:
            validate_params("converter", self.converter, self.converter_params)
        if self.mppt is not None:
            validate_params("mppt", self.mppt, self.mppt_params)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            payload["params"] = _plain(self.params)
        for stage in ("rectifier", "converter", "mppt"):
            name = getattr(self, stage)
            if name is not None:
                payload[stage] = name
                stage_params = getattr(self, f"{stage}_params")
                if stage_params:
                    payload[f"{stage}_params"] = _plain(stage_params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HarvesterSpec":
        _check_keys(
            payload,
            ["kind", "params", "rectifier", "rectifier_params",
             "converter", "converter_params", "mppt", "mppt_params"],
            "harvester spec",
        )
        if "kind" not in payload:
            raise SpecError("harvester spec needs a 'kind'")
        return cls(
            kind=payload["kind"],
            params=dict(payload.get("params", {})),
            rectifier=payload.get("rectifier"),
            rectifier_params=dict(payload.get("rectifier_params", {})),
            converter=payload.get("converter"),
            converter_params=dict(payload.get("converter_params", {})),
            mppt=payload.get("mppt"),
            mppt_params=dict(payload.get("mppt_params", {})),
        )


@dataclass(frozen=True)
class StorageSpec:
    """The storage element the supply rail is built around."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params))
        validate_params("storage", self.kind, self.params)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            payload["params"] = _plain(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StorageSpec":
        _check_keys(payload, ["kind", "params"], "storage spec")
        if "kind" not in payload:
            raise SpecError("storage spec needs a 'kind'")
        return cls(kind=payload["kind"], params=dict(payload.get("params", {})))


@dataclass(frozen=True)
class LoadSpec:
    """An additional (non-platform) rail load, e.g. a bleed resistor."""

    kind: str = "resistive"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params))
        validate_params("load", self.kind, self.params)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            payload["params"] = _plain(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LoadSpec":
        _check_keys(payload, ["kind", "params"], "load spec")
        return cls(
            kind=payload.get("kind", "resistive"),
            params=dict(payload.get("params", {})),
        )


@dataclass(frozen=True)
class PlatformSpec:
    """The transient MCU platform: engine, workload, strategy, electrics.

    Attributes:
        strategy: registry key of the checkpointing strategy.
        strategy_params: keyword arguments for the strategy.
        engine: ``"machine"`` (the mini-ISA interpreter running
            ``program``) or ``"synthetic"`` (a cycle-counting workload).
        engine_params: keyword arguments for the engine — for
            ``"synthetic"`` these go to ``SyntheticEngine`` (must include
            ``total_cycles``); for ``"machine"`` they are the extra
            ``MachineEngine`` options (``include_peripherals``, ...).
        program / program_params: registry key and arguments of the
            mini-ISA program generator (``"machine"`` engine only).
        machine_params: ``MachineConfig`` fields (``data_space_words``,
            ``data_in_fram``, ...).
        power_model: registry key of the MCU power model, or None for the
            platform default.
        clock_frequency / clock_voltage: when set, pins the clock plan to
            a single operating point; None keeps the MSP430-like default.
        store_slots: NVM snapshot slots.
        config: ``TransientPlatformConfig`` fields. ``rail_capacitance``
            defaults to the scenario storage's capacitance when omitted,
            so Eq. (4) calibration follows a storage sweep automatically.
    """

    strategy: str
    strategy_params: Dict[str, Any] = field(default_factory=dict)
    engine: str = "machine"
    engine_params: Dict[str, Any] = field(default_factory=dict)
    program: Optional[str] = None
    program_params: Dict[str, Any] = field(default_factory=dict)
    machine_params: Dict[str, Any] = field(default_factory=dict)
    power_model: Optional[str] = None
    clock_frequency: Optional[float] = None
    clock_voltage: float = 3.0
    store_slots: int = 2
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("strategy_params", "engine_params", "program_params",
                     "machine_params", "config"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        validate_params("strategy", self.strategy, self.strategy_params)
        if self.engine == "machine":
            if self.program is None:
                raise SpecError("a 'machine' engine needs a 'program'")
            validate_params("program", self.program, self.program_params)
            _check_keys(self.machine_params, _machine_config_fields(),
                        "machine_params")
            # build() supplies machine and power_model itself; the rest of
            # MachineEngine's keywords are fair game for engine_params.
            machine_engine_keys = [
                name for name in accepted_parameters("engine", "machine")[0]
                if name not in ("machine", "power_model")
            ]
            _check_keys(self.engine_params, machine_engine_keys,
                        "machine engine_params")
        elif self.engine == "synthetic":
            if self.program is not None:
                raise SpecError("a 'synthetic' engine takes no 'program'")
            if "total_cycles" not in self.engine_params:
                raise SpecError(
                    "a 'synthetic' engine needs engine_params['total_cycles']"
                )
            validate_params("engine", "synthetic", self.engine_params)
        else:
            raise SpecError(
                f"unknown engine {self.engine!r}; choose 'machine' or 'synthetic'"
            )
        if self.power_model is not None:
            validate_params("power-model", self.power_model, {})
        if self.clock_frequency is not None and self.clock_frequency <= 0.0:
            raise SpecError("clock_frequency must be positive")
        if self.store_slots < 1:
            raise SpecError("store_slots must be >= 1")
        _check_keys(self.config, _platform_config_fields(), "platform config")

    # -- building --------------------------------------------------------

    def build(self, default_rail_capacitance: Optional[float] = None):
        """Construct the live :class:`TransientPlatform` this spec describes."""
        from repro.mcu.clock import ClockPlan, OperatingPoint
        from repro.mcu.engine import MachineEngine
        from repro.mcu.machine import Machine, MachineConfig
        from repro.transient.base import (
            SnapshotStore,
            TransientPlatform,
            TransientPlatformConfig,
        )

        power_model = (
            create("power-model", self.power_model, {})
            if self.power_model is not None
            else None
        )
        if self.engine == "synthetic":
            engine = create("engine", "synthetic", self.engine_params)
        else:
            source = _program_source(
                self.program, json.dumps(self.program_params, sort_keys=True)
            )
            machine = Machine.from_source(
                source, MachineConfig(**self.machine_params)
            )
            engine = MachineEngine(
                machine, power_model=power_model, **self.engine_params
            )
        strategy = create("strategy", self.strategy, self.strategy_params)
        clock = None
        if self.clock_frequency is not None:
            clock = ClockPlan(
                [OperatingPoint(self.clock_frequency, self.clock_voltage)]
            )
        config_kwargs = dict(self.config)
        if "rail_capacitance" not in config_kwargs and default_rail_capacitance:
            config_kwargs["rail_capacitance"] = default_rail_capacitance
        return TransientPlatform(
            engine,
            strategy,
            power_model=power_model,
            clock=clock,
            config=TransientPlatformConfig(**config_kwargs),
            store=SnapshotStore(self.store_slots),
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"strategy": self.strategy}
        if self.strategy_params:
            payload["strategy_params"] = _plain(self.strategy_params)
        if self.engine != "machine":
            payload["engine"] = self.engine
        if self.engine_params:
            payload["engine_params"] = _plain(self.engine_params)
        if self.program is not None:
            payload["program"] = self.program
        if self.program_params:
            payload["program_params"] = _plain(self.program_params)
        if self.machine_params:
            payload["machine_params"] = _plain(self.machine_params)
        if self.power_model is not None:
            payload["power_model"] = self.power_model
        if self.clock_frequency is not None:
            payload["clock_frequency"] = self.clock_frequency
        if self.clock_voltage != 3.0:
            payload["clock_voltage"] = self.clock_voltage
        if self.store_slots != 2:
            payload["store_slots"] = self.store_slots
        if self.config:
            payload["config"] = _plain(self.config)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlatformSpec":
        _check_keys(
            payload,
            ["strategy", "strategy_params", "engine", "engine_params",
             "program", "program_params", "machine_params", "power_model",
             "clock_frequency", "clock_voltage", "store_slots", "config"],
            "platform spec",
        )
        if "strategy" not in payload:
            raise SpecError("platform spec needs a 'strategy'")
        return cls(
            strategy=payload["strategy"],
            strategy_params=dict(payload.get("strategy_params", {})),
            engine=payload.get("engine", "machine"),
            engine_params=dict(payload.get("engine_params", {})),
            program=payload.get("program"),
            program_params=dict(payload.get("program_params", {})),
            machine_params=dict(payload.get("machine_params", {})),
            power_model=payload.get("power_model"),
            clock_frequency=payload.get("clock_frequency"),
            clock_voltage=payload.get("clock_voltage", 3.0),
            store_slots=payload.get("store_slots", 2),
            config=dict(payload.get("config", {})),
        )


def _platform_config_fields() -> List[str]:
    from repro.transient.base import TransientPlatformConfig

    return [f.name for f in dataclasses.fields(TransientPlatformConfig)]


def _machine_config_fields() -> List[str]:
    from repro.mcu.machine import MachineConfig

    return [f.name for f in dataclasses.fields(MachineConfig)]


@functools.lru_cache(maxsize=64)
def _program_source(name: str, params: str) -> str:
    """Program ``name``'s source for JSON-encoded ``params``, memoised
    per process: program generators are pure functions of their
    parameters."""
    return create("program", name, json.loads(params))


# ---------------------------------------------------------------------------
# Scenario spec
# ---------------------------------------------------------------------------


#: Top-level scalar fields that sweeps may override by bare name.
_SWEEPABLE_SCALARS = ("dt", "duration", "decimate", "kernel", "seed")


@dataclass(frozen=True)
class _OverrideTarget:
    """One place a sweep override can land."""

    qualified: str
    aliases: Tuple[str, ...]
    param: str
    apply: Callable[[Any], "ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable, runnable scenario description."""

    name: str = "scenario"
    dt: float = 50e-6
    duration: float = 1.0
    storage: StorageSpec = field(
        default_factory=lambda: StorageSpec("capacitor", {"capacitance": 22e-6})
    )
    harvesters: Tuple[HarvesterSpec, ...] = ()
    platform: Optional[PlatformSpec] = None
    loads: Tuple[LoadSpec, ...] = ()
    decimate: int = 1
    stop_on_completion: bool = False
    kernel: str = "reference"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.sim.kernel import validate_kernel

        if self.dt <= 0.0:
            raise SpecError(f"dt must be positive, got {self.dt!r}")
        if self.duration <= 0.0:
            raise SpecError(f"duration must be positive, got {self.duration!r}")
        if self.decimate < 1:
            raise SpecError(f"decimate must be >= 1, got {self.decimate!r}")
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
            or self.seed < 0
        ):
            raise SpecError(
                f"seed must be a non-negative integer or None, got {self.seed!r}"
            )
        try:
            validate_kernel(self.kernel)
        except ValueError as error:
            raise SpecError(str(error)) from error
        object.__setattr__(self, "harvesters", tuple(self.harvesters))
        object.__setattr__(self, "loads", tuple(self.loads))

    # -- building / running ---------------------------------------------

    def build(self):
        """Wire up the :class:`EnergyDrivenSystem` this spec describes."""
        from repro.core.system import EnergyDrivenSystem
        from repro.harvest.base import PowerHarvester, VoltageHarvester

        system = EnergyDrivenSystem(dt=self.dt, kernel=self.kernel)
        storage = create("storage", self.storage.kind, self.storage.params)
        system.set_storage(storage)
        for index, spec in enumerate(self.harvesters):
            harvester = create(
                "harvester", spec.kind, self._harvester_params(index, spec)
            )
            if isinstance(harvester, VoltageHarvester):
                if spec.converter is not None or spec.mppt is not None:
                    raise SpecError(
                        f"harvester {spec.kind!r} is voltage-domain; it takes "
                        "a rectifier, not a converter/mppt"
                    )
                rectifier = (
                    create("rectifier", spec.rectifier, spec.rectifier_params)
                    if spec.rectifier is not None
                    else None
                )
                system.add_voltage_source(harvester, rectifier)
            elif isinstance(harvester, PowerHarvester):
                if spec.rectifier is not None:
                    raise SpecError(
                        f"harvester {spec.kind!r} is power-domain; it takes a "
                        "converter/mppt, not a rectifier"
                    )
                converter = (
                    create("converter", spec.converter, spec.converter_params)
                    if spec.converter is not None
                    else None
                )
                mppt = (
                    create("mppt", spec.mppt, spec.mppt_params)
                    if spec.mppt is not None
                    else None
                )
                system.add_power_source(harvester, converter=converter, mppt=mppt)
            else:
                raise SpecError(
                    f"harvester {spec.kind!r} built a {type(harvester).__name__}, "
                    "which is neither a VoltageHarvester nor a PowerHarvester"
                )
        if self.platform is not None:
            platform = self.platform.build(
                default_rail_capacitance=getattr(storage, "capacitance", None)
            )
            system.set_platform(platform)
            if self.stop_on_completion:
                # Completion can only happen on the workload's halting
                # step, which the engine's active_plan always leaves to
                # per-step execution: safe to keep chunking.
                system.stop_when(
                    lambda t: platform.metrics.first_completion_time is not None,
                    chunk_safe=True,
                )
        for load in self.loads:
            system.add_load(create("load", load.kind, load.params))
        return system

    def _harvester_params(self, index: int, spec: HarvesterSpec) -> Dict[str, Any]:
        """Harvester factory kwargs, with the scenario seed threaded in.

        When the scenario carries a ``seed``, every RNG-backed harvester
        whose factory accepts one (and whose spec does not pin it
        explicitly) is seeded ``seed + index`` — deterministic per grid
        point and part of the spec dict, so it participates in the
        results pipeline's spec hash (reproducible *and* cache-keyable).
        """
        if self.seed is None or "seed" in spec.params:
            return spec.params
        accepted, _ = accepted_parameters("harvester", spec.kind)
        if "seed" not in accepted:
            return spec.params
        return dict(spec.params, seed=self.seed + index)

    def run(self, duration: Optional[float] = None):
        """Build and run; returns the :class:`SystemRunResult`."""
        return self.build().run(
            self.duration if duration is None else duration,
            decimate=self.decimate,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "dt": self.dt,
            "duration": self.duration,
            "storage": self.storage.to_dict(),
            "harvesters": [h.to_dict() for h in self.harvesters],
        }
        if self.platform is not None:
            payload["platform"] = self.platform.to_dict()
        if self.loads:
            payload["loads"] = [l.to_dict() for l in self.loads]
        if self.decimate != 1:
            payload["decimate"] = self.decimate
        if self.stop_on_completion:
            payload["stop_on_completion"] = True
        if self.kernel != "reference":
            payload["kernel"] = self.kernel
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        _check_keys(
            payload,
            ["name", "dt", "duration", "storage", "harvesters", "platform",
             "loads", "decimate", "stop_on_completion", "kernel", "seed"],
            "scenario spec",
        )
        if "storage" not in payload:
            raise SpecError("scenario spec needs a 'storage' section")
        platform = payload.get("platform")
        if platform is not None:
            # An explicitly present (even empty) platform section must
            # validate as one, not be silently dropped.
            platform = PlatformSpec.from_dict(platform)
        return cls(
            name=payload.get("name", "scenario"),
            dt=payload.get("dt", 50e-6),
            duration=payload.get("duration", 1.0),
            storage=StorageSpec.from_dict(payload["storage"]),
            harvesters=tuple(
                HarvesterSpec.from_dict(h) for h in payload.get("harvesters", [])
            ),
            platform=platform,
            loads=tuple(LoadSpec.from_dict(l) for l in payload.get("loads", [])),
            decimate=payload.get("decimate", 1),
            stop_on_completion=payload.get("stop_on_completion", False),
            kernel=payload.get("kernel", "reference"),
            seed=payload.get("seed"),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"invalid scenario JSON: {error}") from error
        if not isinstance(payload, dict):
            raise SpecError("scenario JSON must be an object")
        return cls.from_dict(payload)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())

    # -- sweeps ----------------------------------------------------------

    def _override_targets(self) -> List[_OverrideTarget]:
        targets: List[_OverrideTarget] = []

        for scalar in _SWEEPABLE_SCALARS:
            targets.append(_OverrideTarget(
                qualified=scalar, aliases=(), param=scalar,
                apply=lambda v, _f=scalar: replace(self, **{_f: v}),
            ))

        def storage_setter(param: str):
            def apply(value: Any) -> "ScenarioSpec":
                params = dict(self.storage.params)
                params[param] = value
                return replace(self, storage=replace(self.storage, params=params))
            return apply

        for param in accepted_parameters("storage", self.storage.kind)[0]:
            targets.append(_OverrideTarget(
                qualified=f"storage__{param}", aliases=(), param=param,
                apply=storage_setter(param),
            ))

        def harvester_setter(index: int, param: str):
            def apply(value: Any) -> "ScenarioSpec":
                harvesters = list(self.harvesters)
                params = dict(harvesters[index].params)
                params[param] = value
                harvesters[index] = replace(harvesters[index], params=params)
                return replace(self, harvesters=tuple(harvesters))
            return apply

        for index, harvester in enumerate(self.harvesters):
            for param in accepted_parameters("harvester", harvester.kind)[0]:
                aliases = (f"harvester__{param}",) if len(self.harvesters) == 1 else ()
                targets.append(_OverrideTarget(
                    qualified=f"harvester{index}__{param}", aliases=aliases,
                    param=param, apply=harvester_setter(index, param),
                ))

        if self.platform is not None:
            def platform_dict_setter(field_name: str, param: str):
                def apply(value: Any) -> "ScenarioSpec":
                    params = dict(getattr(self.platform, field_name))
                    params[param] = value
                    return replace(
                        self, platform=replace(self.platform, **{field_name: params})
                    )
                return apply

            sections = [
                ("strategy",
                 accepted_parameters("strategy", self.platform.strategy)[0],
                 "strategy_params"),
                ("config", _platform_config_fields(), "config"),
            ]
            if self.platform.engine == "synthetic":
                sections.append(
                    ("engine", accepted_parameters("engine", "synthetic")[0],
                     "engine_params")
                )
            else:
                sections.append(
                    ("program",
                     accepted_parameters("program", self.platform.program)[0],
                     "program_params")
                )
                sections.append(("machine", _machine_config_fields(),
                                 "machine_params"))
            for prefix, names, field_name in sections:
                for param in names:
                    targets.append(_OverrideTarget(
                        qualified=f"{prefix}__{param}", aliases=(), param=param,
                        apply=platform_dict_setter(field_name, param),
                    ))

            def platform_scalar_setter(field_name: str):
                def apply(value: Any) -> "ScenarioSpec":
                    return replace(
                        self, platform=replace(self.platform, **{field_name: value})
                    )
                return apply

            for scalar in ("strategy", "clock_frequency", "clock_voltage",
                           "store_slots", "power_model"):
                # Bare keys resolve through the param-name branch; only the
                # qualified form needs listing here.  'strategy' swaps the
                # checkpointing strategy *kind* (strategy_params must suit
                # every kind swept — PlatformSpec revalidates per point),
                # which is what lets explorations search over strategies.
                targets.append(_OverrideTarget(
                    qualified=f"platform__{scalar}", aliases=(),
                    param=scalar, apply=platform_scalar_setter(scalar),
                ))

        return targets

    def with_override(self, key: str, value: Any) -> "ScenarioSpec":
        """A copy of this spec with one parameter replaced.

        ``key`` is either a bare parameter name (resolved by unique match
        across storage, harvesters, strategy, engine, program, machine and
        platform config parameters — e.g. ``"capacitance"``) or a
        qualified ``section__param`` path (``"storage__capacitance"``,
        ``"harvester0__frequency"``, ``"config__v_min"``).
        """
        targets = self._override_targets()
        if "__" in key or key in _SWEEPABLE_SCALARS:
            matches = [t for t in targets
                       if key == t.qualified or key in t.aliases]
        else:
            matches = [t for t in targets if key == t.param]
        if not matches:
            known = sorted({t.param for t in targets})
            raise SpecError(
                f"override key {key!r} matches nothing in scenario "
                f"{self.name!r}; bare sweepable parameters: {known}"
            )
        if len(matches) > 1:
            choices = sorted(t.qualified for t in matches)
            raise SpecError(
                f"override key {key!r} is ambiguous; qualify it as one of "
                f"{choices}"
            )
        return matches[0].apply(value)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Apply several :meth:`with_override` replacements at once."""
        spec = self
        for key, value in overrides.items():
            spec = spec.with_override(key, value)
        return spec

    def sweep(self, **grid: Sequence[Any]) -> List["ScenarioSpec"]:
        """Expand a parameter grid into one spec per grid point.

        ``spec.sweep(capacitance=[10e-6, 22e-6, 47e-6], frequency=[2, 10, 40])``
        produces the 9-point cartesian product, in deterministic order
        (later keys vary fastest).  Keys follow :meth:`with_override`
        resolution.  Use :class:`repro.spec.runner.SweepRunner` to execute
        the grid in parallel.
        """
        return [self.with_overrides(point) for point in expand_grid(grid)]


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """The cartesian product of a parameter grid as override mappings.

    Order is deterministic: keys keep their mapping order and later keys
    vary fastest, matching nested for-loops.
    """
    if not grid:
        return [{}]
    keys = list(grid)
    for key in keys:
        values = grid[key]
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise SpecError(
                f"sweep grid values for {key!r} must be a non-empty "
                f"list/tuple, got {values!r}"
            )
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[key] for key in keys))
    ]
