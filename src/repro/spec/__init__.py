"""repro.spec: the declarative scenario layer.

Three pieces (see DESIGN.md):

* :mod:`repro.spec.registry` — the string-keyed component registry every
  component family registers itself into via ``@register(name, kind=...)``.
* :mod:`repro.spec.specs` — frozen spec dataclasses (`HarvesterSpec`,
  `StorageSpec`, `PlatformSpec`, `ScenarioSpec`) that round-trip through
  dicts/JSON and ``build()`` into a runnable ``EnergyDrivenSystem``.
* :mod:`repro.spec.runner` — ``SweepRunner``: parameter-grid expansion and
  parallel execution collecting per-point summaries.

Everything but the registry is imported lazily (PEP 562): component
modules import ``repro.spec.registry`` at class-definition time, and a
lazy package init keeps that import acyclic.
"""

from repro.spec.registry import (
    available,
    create,
    ensure_catalog,
    kinds,
    register,
    resolve,
)

_LAZY = {
    "HarvesterSpec": "repro.spec.specs",
    "StorageSpec": "repro.spec.specs",
    "LoadSpec": "repro.spec.specs",
    "PlatformSpec": "repro.spec.specs",
    "ScenarioSpec": "repro.spec.specs",
    "expand_grid": "repro.spec.specs",
    "SweepRunner": "repro.spec.runner",
    "SweepResult": "repro.spec.runner",
    "preset": "repro.spec.presets",
    "preset_names": "repro.spec.presets",
    "fig7_spec": "repro.spec.presets",
    "crossover_spec": "repro.spec.presets",
    "quickstart_spec": "repro.spec.presets",
}

__all__ = [
    "register",
    "resolve",
    "create",
    "available",
    "kinds",
    "ensure_catalog",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.spec' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
