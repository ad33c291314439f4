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
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SpecError
from repro.spec.registry import accepted_parameters, create, validate_params


def _plain(value: Any) -> Any:
    """Deep-copy ``value`` into plain JSON-compatible containers."""
    if value is None or isinstance(value, (str, int, float)):
        return value  # the common leaf, without the abstract Mapping check
    if isinstance(value, (dict, Mapping)):
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


@functools.lru_cache(maxsize=None)
def _defaults(cls: Any) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` per dataclass field of ``cls``, in order;
    ``dataclasses.MISSING`` for a field without one."""
    return tuple(
        (f.name, f.default if f.default_factory is dataclasses.MISSING
         else f.default_factory())
        for f in dataclasses.fields(cls)
    )


def _fields_of(cls: Any, payload: Mapping[str, Any], what: str) -> Mapping:
    """``payload``, checked to name only ``cls``'s dataclass fields."""
    _check_keys(payload, [name for name, _ in _defaults(cls)], what)
    return payload


def _copy_params(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Constructor keywords, each ``*params``/``config`` dict copied."""
    return {
        name: dict(value) if name.endswith("params") or name == "config"
        else value
        for name, value in payload.items()
    }


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
        for name in ("params", "rectifier_params", "converter_params",
                     "mppt_params"):
            object.__setattr__(self, name, _plain(getattr(self, name)))
        if self.rectifier is not None and (self.converter or self.mppt):
            raise SpecError(
                f"harvester {self.kind!r}: a rectifier (voltage domain) cannot "
                "be combined with a converter/mppt (power domain)"
            )
        validate_params("harvester", self.kind, self.params)
        for stage in ("rectifier", "converter", "mppt"):
            if getattr(self, stage) is not None:
                validate_params(stage, getattr(self, stage),
                                getattr(self, f"{stage}_params"))

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
        if "kind" not in _fields_of(cls, payload, "harvester spec"):
            raise SpecError("harvester spec needs a 'kind'")
        return cls(**_copy_params(payload))


@dataclass(frozen=True)
class _KindSpec:
    """A registry ``kind`` of :attr:`family` plus its factory's params."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    family: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _plain(self.params))
        validate_params(self.family, self.kind, self.params)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.params:
            payload["params"] = _plain(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Any:
        _fields_of(cls, payload, f"{cls.family} spec")
        if "kind" not in payload and not hasattr(cls, "kind"):
            raise SpecError(f"{cls.family} spec needs a 'kind'")
        return cls(**_copy_params(payload))


@dataclass(frozen=True)
class StorageSpec(_KindSpec):
    """The storage element the supply rail is built around."""

    family: ClassVar[str] = "storage"


@dataclass(frozen=True)
class LoadSpec(_KindSpec):
    """An additional (non-platform) rail load, e.g. a bleed resistor."""

    kind: str = "resistive"
    family: ClassVar[str] = "load"


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
            _check_ports(self.program, json.dumps(self.program_params,
                                                  sort_keys=True))
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
        return {
            name: _plain(getattr(self, name))
            for name, default in _defaults(type(self))
            if default is dataclasses.MISSING or getattr(self, name) != default
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PlatformSpec":
        if "strategy" not in _fields_of(cls, payload, "platform spec"):
            raise SpecError("platform spec needs a 'strategy'")
        return cls(**_copy_params(payload))


@functools.lru_cache(maxsize=None)
def _platform_config_fields() -> Tuple[str, ...]:
    from repro.transient.base import TransientPlatformConfig

    return tuple(f.name for f in dataclasses.fields(TransientPlatformConfig))


@functools.lru_cache(maxsize=None)
def _machine_config_fields() -> Tuple[str, ...]:
    from repro.mcu.machine import MachineConfig

    return tuple(f.name for f in dataclasses.fields(MachineConfig))


@functools.lru_cache(maxsize=64)
def _program_source(name: str, params: str) -> str:
    """Program ``name``'s source for JSON-encoded ``params``, memoised
    per process: program generators are pure functions of their
    parameters."""
    return create("program", name, json.loads(params))


@functools.lru_cache(maxsize=64)
def _check_ports(name: str, params: str) -> None:
    """Refuse a program whose generator rejects its parameters, or that
    names a port ``build()`` never attaches."""
    from repro.mcu.assembler import assemble
    from repro.mcu.machine import OUTPUT_PORT

    try:
        image = assemble(_program_source(name, params))
    except ConfigurationError as error:
        raise SpecError(f"program {name!r} rejects parameters {params}: "
                        f"{error}") from error
    for ins in image.instructions:
        if "p" in ins.spec.signature:
            port = ins.operands[ins.spec.signature.index("p")]
            if port != OUTPUT_PORT:
                raise SpecError(f"program {name!r} uses port {port}, "
                                "where build() attaches no peripheral")


# ---------------------------------------------------------------------------
# Scenario spec
# ---------------------------------------------------------------------------


#: How a scenario dict's nested sections parse, in validation order.
_SECTIONS: Dict[str, Callable[[Any], Any]] = {
    # An explicitly present (even empty) platform section must validate
    # as one, not be silently dropped.
    "platform": lambda p: None if p is None else PlatformSpec.from_dict(p),
    "storage": StorageSpec.from_dict,
    "harvesters": lambda hs: tuple(HarvesterSpec.from_dict(h) for h in hs),
    "loads": lambda loads: tuple(LoadSpec.from_dict(l) for l in loads),
}

#: Top-level scalar fields that sweeps may override by bare name.
_SWEEPABLE_SCALARS = ("dt", "duration", "decimate", "kernel", "seed")

#: Keys that swap the strategy *kind*: later keys resolve against the new
#: strategy's parameters, so compiled plans are keyed by their values too.
_KIND_KEYS = ("strategy", "platform__strategy")

#: Compiled plans a base spec keeps before it starts over.
_PLAN_CACHE_SIZE = 64


def _with_path(node: Any, path: Tuple[Any, ...], value: Any) -> Any:
    """A copy of ``node`` with ``value`` at ``path``, copying only the
    containers on the way (a section ``to_dict`` omits starts empty)."""
    copy = list(node) if isinstance(node, list) else dict(node)
    head = path[0]
    if len(path) > 1:
        value = _with_path(
            copy[head] if isinstance(copy, list) else copy.get(head, {}),
            path[1:], value,
        )
    copy[head] = value
    return copy


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

    def canonical_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict`, computed once per instance and shared: read
        it, never mutate it."""
        payload = self.__dict__.get("_canonical")
        if payload is None:
            payload = self.__dict__["_canonical"] = self.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        if "storage" not in _fields_of(cls, payload, "scenario spec"):
            raise SpecError("scenario spec needs a 'storage' section")
        kwargs = dict(payload)
        for name, parse in _SECTIONS.items():
            if name in payload:
                kwargs[name] = parse(payload[name])
        return cls(**kwargs)

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

    def __getstate__(self) -> Dict[str, Any]:
        # Pickle the fields only: compiled plans stay with their process.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def _override_table(self, strategy: Optional[str]) -> List[Tuple]:
        """Every place an override can land, as ``(qualified, aliases,
        param, path in the canonical dict)``; ``strategy`` stands in
        for the platform's own."""
        sections = [("storage", accepted_parameters(
            "storage", self.storage.kind)[0], ("storage", "params"))]
        sections += [
            (f"harvester{index}", accepted_parameters("harvester", h.kind)[0],
             ("harvesters", index, "params"))
            for index, h in enumerate(self.harvesters)
        ]
        platform = self.platform
        if platform is not None:
            sections += [
                ("strategy", accepted_parameters("strategy", strategy)[0],
                 ("platform", "strategy_params")),
                ("config", _platform_config_fields(), ("platform", "config")),
                # Bare keys resolve through the param-name match.
                ("platform", ("strategy", "clock_frequency", "clock_voltage",
                              "store_slots", "power_model"), ("platform",)),
            ]
            if platform.engine == "synthetic":
                sections.append(("engine", accepted_parameters(
                    "engine", "synthetic")[0], ("platform", "engine_params")))
            else:
                sections += [
                    ("program", accepted_parameters(
                        "program", platform.program)[0],
                     ("platform", "program_params")),
                    ("machine", _machine_config_fields(),
                     ("platform", "machine_params")),
                ]
        alias = len(self.harvesters) == 1
        return [(name, (), name, (name,)) for name in _SWEEPABLE_SCALARS] + [
            (f"{prefix}__{param}",
             (f"harvester__{param}",) if alias and prefix == "harvester0"
             else (), param, where + (param,))
            for prefix, names, where in sections for param in names
        ]

    def _resolve(self, table: List[Tuple], key: str) -> Tuple[Any, ...]:
        """The path ``key`` names in ``table``, or a :class:`SpecError`."""
        if "__" in key or key in _SWEEPABLE_SCALARS:
            matches = [t for t in table if key == t[0] or key in t[1]]
        else:
            matches = [t for t in table if key == t[2]]
        if not matches:
            known = sorted({t[2] for t in table})
            raise SpecError(
                f"override key {key!r} matches nothing in scenario "
                f"{self.name!r}; bare sweepable parameters: {known}"
            )
        if len(matches) > 1:
            choices = sorted(t[0] for t in matches)
            raise SpecError(
                f"override key {key!r} is ambiguous; qualify it as one of "
                f"{choices}"
            )
        return matches[0][3]

    def _plan(self, overrides: Mapping[str, Any]) -> Tuple:
        """Each key's path, in order; empty when two keys share a path
        (only the key-by-key chain validates the replaced value).
        Cached per key tuple and swapped strategy kind."""
        swaps = tuple(overrides[key] for key in _KIND_KEYS if key in overrides)
        plans = self.__dict__.setdefault("_plans", {})
        cache_key = (tuple(overrides), swaps)
        cacheable = all(isinstance(kind, str) for kind in swaps)
        plan = plans.get(cache_key) if cacheable else None
        if plan is not None:
            return plan
        table = self._override_table(
            self.platform.strategy if self.platform is not None else None
        )
        paths = []
        for key, value in overrides.items():
            paths.append(self._resolve(table, key))
            if key in _KIND_KEYS:
                table = self._override_table(value)
        plan = tuple(paths) if len(set(paths)) == len(paths) else ()
        if cacheable:
            if len(plans) >= _PLAN_CACHE_SIZE:
                plans.clear()
            plans[cache_key] = plan
        return plan

    def with_override(self, key: str, value: Any) -> "ScenarioSpec":
        """A copy of this spec with one parameter replaced.

        ``key`` is either a bare parameter name (resolved by unique match
        across storage, harvesters, strategy, engine, program, machine and
        platform config parameters — e.g. ``"capacitance"``) or a
        qualified ``section__param`` path (``"storage__capacitance"``,
        ``"harvester0__frequency"``, ``"config__v_min"``).
        """
        return self.with_overrides({key: value})

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Apply several :meth:`with_override` replacements at once.

        Means applying them one at a time, in order.  The keys compile
        once per base into paths in :meth:`to_dict`'s form; a point sets
        them on a copy of it, parses (validates) only the sections they
        touch and shares the base's others.  Two keys on one path, or a
        point that fails, go key by key, so an error is the one the
        first failing key raises alone.
        """
        if not overrides:
            return self
        try:
            plan = self._plan(overrides)
            if plan:
                payload = self.canonical_dict()
                for path, value in zip(plan, overrides.values()):
                    payload = _with_path(payload, path, value)
                return dataclasses.replace(self, **{
                    name: _SECTIONS.get(name, lambda v: v)(payload[name])
                    for name in {path[0] for path in plan}
                })
        except Exception:
            if len(overrides) == 1:
                raise
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
