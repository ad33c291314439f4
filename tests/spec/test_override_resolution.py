"""Compiled override resolution against the key-by-key chain.

``ScenarioSpec.with_overrides`` compiles its keys once per base into
paths in the canonical dict and builds a point with one ``from_dict``.
That must mean exactly what applying the keys one at a time with
``with_override`` means, for every key shape and every order: equal
specs, byte-identical spec hashes, and the same error text for unknown,
ambiguous and invalid keys.  The override sets are generated (seeded),
not hand-picked, and ``tests/data/override_resolution.json`` pins each
case's outcome as the closure-based resolver this one replaced computed
it, so a resolution change that both paths share still shows.
"""

import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest

from repro.errors import SpecError
from repro.results.run_result import spec_hash
from repro.spec import HarvesterSpec, PlatformSpec, ScenarioSpec, StorageSpec
from repro.spec.presets import preset, preset_names
from repro.spec.registry import accepted_parameters, available
from repro.spec.specs import _PLAN_CACHE_SIZE

PINNED = Path(__file__).resolve().parents[1] / "data" / "override_resolution.json"

#: Cases generated per base spec.
CASES_PER_BASE = 40

SCALARS = ("dt", "duration", "decimate", "kernel", "seed")
PLATFORM_SCALARS = ("strategy", "clock_frequency", "clock_voltage",
                    "store_slots", "power_model")
PLATFORM_CONFIG = ("v_min", "v_por", "rail_capacitance",
                   "snapshot_frequency", "on_complete")
MACHINE_CONFIG = ("data_space_words", "data_in_fram", "fram_fetch_wait",
                  "fram_data_wait")

#: Values for component parameters: specs check parameter names, not
#: values, so any JSON value is a valid spec (scalars, dicts, lists).
PARAM_VALUES = (0.5, 22e-6, 3, "half", True, None,
                {"nested": [1, 2.5]}, [0.25, {"k": "v"}])

#: Per-scalar value pools, each with its default and an invalid value.
SCALAR_VALUES = {
    "dt": (50e-6, 1e-4, 2e-4, -1.0),
    "duration": (1.0, 0.5, 2.0, 0.0),
    "decimate": (1, 2, 4, 0),
    "kernel": ("reference", "fast", "warp"),
    "seed": (None, 0, 7, -3),
    "clock_voltage": (3.0, 2.5, 3.3),
    "clock_frequency": (None, 8e6, -1.0),
    "store_slots": (2, 3, 0),
    "power_model": (None, "msp430-sram", "msp430-fram", "quantum"),
    "strategy": tuple(available("strategy")) + ("bogus",),
}


def base_specs():
    """Every preset, plus bases with two harvesters and no platform."""
    bases = {name: preset(name) for name in preset_names()}
    bases["two-harvesters"] = ScenarioSpec(
        name="two-harvesters",
        storage=StorageSpec("capacitor", {}),
        harvesters=(
            HarvesterSpec("signal-generator", {"amplitude": 3.3}),
            HarvesterSpec("trapezoid-supply", {"frequency": 10.0}),
        ),
        platform=PlatformSpec(
            "quickrecall", engine="synthetic",
            engine_params={"total_cycles": 1000},
        ),
    )
    bases["no-platform"] = ScenarioSpec(
        name="no-platform",
        harvesters=(HarvesterSpec("signal-generator"),),
    )
    return bases


def _strategy_keys(strategy):
    """Keys naming ``strategy``'s parameters, bare and qualified."""
    try:
        names = accepted_parameters("strategy", strategy)[0]
    except SpecError:
        return ["v_restore", "strategy__margin"]
    return [name for name in names] + [f"strategy__{name}" for name in names]


def _both(prefix, names):
    """Each name bare and qualified as ``prefix__name``."""
    return list(names) + [f"{prefix}__{name}" for name in names]


def key_pools(spec):
    """``(keys that name something in spec, keys that cannot)``."""
    keys = list(SCALARS)
    keys += _both("storage", accepted_parameters("storage", spec.storage.kind)[0])
    for index, harvester in enumerate(spec.harvesters):
        names = accepted_parameters("harvester", harvester.kind)[0]
        keys += _both(f"harvester{index}", names)
        # The alias names the only harvester; with two it is unknown.
        keys += [f"harvester__{name}" for name in names]
    platform = spec.platform
    if platform is not None:
        keys += list(PLATFORM_SCALARS)
        keys += [f"platform__{name}" for name in PLATFORM_SCALARS]
        keys += _both("config", PLATFORM_CONFIG)
        keys += _strategy_keys(platform.strategy)
        if platform.engine == "synthetic":
            keys += _both("engine", accepted_parameters("engine", "synthetic")[0])
        else:
            keys += _both("program", accepted_parameters(
                "program", platform.program)[0])
            keys += _both("machine", MACHINE_CONFIG)
    unknown = ["bogus_knob", "storage__bogus", "harvester7__frequency",
               "platform__engine", "strategy__v_nope", "program__n",
               "engine__total_cycles", "machine__data_in_fram"]
    return sorted(set(keys)), sorted(set(unknown) - set(keys))


def draw_value(rng, key):
    name = key.split("__")[-1]
    return rng.choice(SCALAR_VALUES.get(name, PARAM_VALUES))


def override_sets(name, spec):
    """The seeded override sets for one base, in a fixed order."""
    cases = [
        # Scalars set to their defaults, which to_dict omits.
        {"kernel": "reference"},
        {"platform__clock_voltage": 3.0},
        {"kernel": "reference", "platform__clock_voltage": 3.0,
         "platform__store_slots": 2, "seed": None},
        # Bare keys two harvesters share are ambiguous there.
        {"frequency": 5.0},
        {"dt": 1e-4, "source_resistance": 50.0},
    ]
    known, unknown = key_pools(spec)
    for k in range(CASES_PER_BASE - len(cases)):
        rng = random.Random(f"override-resolution/{name}/{k}")
        items = [(key, draw_value(rng, key))
                 for key in rng.sample(known, rng.randint(1, 4))]
        if rng.random() < 0.15:
            items.insert(rng.randint(0, len(items)),
                         (rng.choice(unknown), 1.0))
        if spec.platform is not None and rng.random() < 0.35:
            # A strategy swap, then keys of the new strategy.
            swap = rng.choice(("strategy", "platform__strategy"))
            strategy = rng.choice(SCALAR_VALUES["strategy"])
            items.insert(rng.randint(0, len(items)), (swap, strategy))
            later = _strategy_keys(strategy)
            for key in rng.sample(later, min(len(later), rng.randint(1, 2))):
                items.append((key, draw_value(rng, key)))
        cases.append(dict(items))
    return cases


def chain(spec, overrides):
    for key, value in overrides.items():
        spec = spec.with_override(key, value)
    return spec


def outcome(apply, spec, overrides):
    """``("ok", spec)`` or ``("error", "Type: message")``."""
    try:
        return "ok", apply(spec, overrides)
    except Exception as error:  # the comparison covers every failure
        return "error", f"{type(error).__name__}: {error}"


def describe(result):
    kind, value = result
    return "hash " + spec_hash(value) if kind == "ok" else value


def digest(result):
    return hashlib.sha256(describe(result).encode("utf-8")).hexdigest()[:16]


def generated_cases():
    for name, spec in base_specs().items():
        for index, overrides in enumerate(override_sets(name, spec)):
            yield name, index, spec, overrides


def test_generated_sets_cover_every_key_shape():
    shapes = {"bare": 0, "qualified": 0, "alias": 0, "swap-then-key": 0,
              "error": 0, "ok": 0, "dict-or-list": 0}
    for _, _, spec, overrides in generated_cases():
        keys = list(overrides)
        shapes["bare"] += any("__" not in key for key in keys)
        shapes["qualified"] += any("__" in key for key in keys)
        shapes["alias"] += any(key.startswith("harvester__") for key in keys)
        shapes["dict-or-list"] += any(
            isinstance(value, (dict, list)) for value in overrides.values()
        )
        swaps = [i for i, key in enumerate(keys)
                 if key in ("strategy", "platform__strategy")]
        shapes["swap-then-key"] += bool(swaps) and swaps[0] < len(keys) - 1
        shapes[outcome(ScenarioSpec.with_overrides, spec, overrides)[0]] += 1
    assert all(count >= 10 for count in shapes.values()), shapes


def test_compiled_resolution_equals_the_chain():
    mismatches = []
    for name, index, spec, overrides in generated_cases():
        compiled = outcome(ScenarioSpec.with_overrides, spec, overrides)
        sequential = outcome(chain, spec, overrides)
        if compiled[0] != sequential[0] or compiled[1] != sequential[1] \
                or describe(compiled) != describe(sequential):
            mismatches.append((name, index, overrides, describe(compiled),
                               describe(sequential)))
    assert not mismatches, mismatches[:3]


def test_outcomes_match_the_pinned_resolver():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    bases = base_specs()
    assert sorted(pinned) == sorted(bases)
    mismatches = []
    for name, index, spec, overrides in generated_cases():
        result = outcome(ScenarioSpec.with_overrides, spec, overrides)
        if digest(result) != pinned[name][index]:
            mismatches.append((name, index, overrides, describe(result)))
    assert not mismatches, mismatches[:3]


def test_errors_read_as_the_first_failing_key_alone():
    base = preset("fig7")
    with pytest.raises(SpecError, match="'bogus_knob' matches nothing"):
        base.with_overrides({"bogus_knob": 1, "dt": -1.0})
    with pytest.raises(SpecError, match="dt must be positive"):
        base.with_overrides({"dt": -1.0, "bogus_knob": 1})
    # Two keys on one path: the chain validates the replaced value.
    with pytest.raises(SpecError, match="clock_frequency must be positive"):
        base.with_overrides(
            {"clock_frequency": -1.0, "platform__clock_frequency": 8e6}
        )
    with pytest.raises(SpecError, match="is ambiguous"):
        base_specs()["two-harvesters"].with_overrides(
            {"capacitance": 1e-5, "source_resistance": 10.0}
        )


def test_a_swept_strategy_resolves_later_keys_against_itself():
    base = preset("fig7")
    grid = {"strategy": ["hibernus", "mementos", "nvp"],
            "platform__store_slots": [3]}
    specs = base.sweep(**grid)
    assert [s.platform.strategy for s in specs] == grid["strategy"]
    # The same key tuple with another strategy compiles its own paths.
    swapped = base.with_overrides({"strategy": "mementos",
                                   "v_checkpoint": 2.4})
    assert swapped.platform.strategy_params == {"v_checkpoint": 2.4}
    with pytest.raises(SpecError, match="'v_checkpoint' matches nothing"):
        base.with_overrides({"strategy": "nvp", "v_checkpoint": 2.4})
    again = base.with_overrides({"strategy": "mementos",
                                 "v_checkpoint": 2.6})
    assert again == chain(base, {"strategy": "mementos",
                                 "v_checkpoint": 2.6})


def test_plans_stay_bounded_and_out_of_pickles():
    base = preset("crossover-hibernus")
    names = ["capacitance", "frequency", "v_hibernate", "v_restore",
             "margin", "dt", "duration", "total_cycles"]
    rng = random.Random(5)
    for _ in range(4 * _PLAN_CACHE_SIZE):
        base.with_overrides({key: 1.0 for key in rng.sample(names, 3)})
    assert 0 < len(base.__dict__["_plans"]) <= _PLAN_CACHE_SIZE
    clone = pickle.loads(pickle.dumps(base))
    assert clone == base and "_plans" not in clone.__dict__
    assert len(pickle.dumps(base)) == len(pickle.dumps(preset(
        "crossover-hibernus")))


def test_the_base_is_never_mutated():
    base = preset("fig7")
    before = base.to_dict()
    value = {"nested": [1, 2]}
    point = base.with_overrides({"capacitance": value, "n": 64})
    value["nested"].append(3)
    assert base.to_dict() == before
    assert point.storage.params["capacitance"] == {"nested": [1, 2]}
    assert base.with_overrides({"n": 128}).platform.program_params == {
        "n": 128}


def test_a_point_shares_the_sections_its_keys_do_not_touch():
    """Only touched sections are parsed; a grid of points holds one
    copy of the base's untouched sections, not one per point."""
    base = preset("fig7")
    overrides = {"capacitance": 33e-6, "frequency": 5.0}
    point = base.with_overrides(overrides)
    assert point.platform is base.platform
    assert point.storage is not base.storage
    assert point.harvesters[0] is not base.harvesters[0]
    assert point == chain(base, overrides)
    assert base.with_overrides({"dt": 1e-4}).storage is base.storage
