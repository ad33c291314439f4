"""The metric-extractor registry behind the unified results pipeline.

Mirrors the component registry (:mod:`repro.spec.registry`): each layer
of the framework registers the columns it knows how to extract from a
finished run, instead of the sweep runner hard-coding one summary shape::

    @register_metric("platform", columns=("completed", "brownouts"),
                     order=10)
    def _platform_metrics(run, spec):
        ...

An extractor is a callable ``(run, spec) -> dict`` mapping a subset of
its declared columns to values; undeclared keys are rejected, missing
declared keys come back as ``None`` (the "not applicable" marker — e.g.
platform columns on a platform-less scenario).  ``run`` is the
:class:`~repro.core.system.SystemRunResult`; ``spec`` is the
:class:`~repro.spec.specs.ScenarioSpec` that produced it.

Column order is deterministic by construction — extractors sort by their
registered ``order`` (then name), never by import order — so every
process of a sharded sweep agrees on the table layout.

Like the component registry, this module depends only on
:mod:`repro.errors`, so any layer can import :func:`register_metric`
without creating a cycle; :func:`ensure_extractors` imports the
contributing modules on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import SpecError

#: The pipeline-level column: worker failures land here, never in an
#: extractor.  Always last.
ERROR_COLUMN = "error"

MetricExtractor = Callable[..., Dict[str, Any]]


@dataclass(frozen=True)
class _Entry:
    name: str
    columns: Tuple[str, ...]
    order: int
    fn: MetricExtractor


_EXTRACTORS: Dict[str, _Entry] = {}

_extractors_loaded = False


def register_metric(
    name: str, *, columns: Tuple[str, ...], order: int = 100
) -> Callable[[MetricExtractor], MetricExtractor]:
    """Decorator registering an extractor contributing ``columns``.

    Args:
        name: the extractor's key (one per contributing layer/aspect).
        columns: the column names this extractor may emit.
        order: sort rank for column layout; lower comes first.  Ties
            break by name, so layout never depends on import order.
    """
    if not name or not columns:
        raise SpecError("a metric extractor needs a name and columns")
    if ERROR_COLUMN in columns:
        raise SpecError(
            f"column {ERROR_COLUMN!r} is reserved for the results pipeline"
        )

    def decorator(fn: MetricExtractor) -> MetricExtractor:
        existing = _EXTRACTORS.get(name)
        if existing is not None and existing.fn is not fn:
            raise SpecError(f"metric extractor {name!r} is already registered")
        claimed = {
            column: entry.name
            for entry in _EXTRACTORS.values()
            if entry.name != name
            for column in entry.columns
        }
        for column in columns:
            if column in claimed:
                raise SpecError(
                    f"metric column {column!r} is already contributed by "
                    f"extractor {claimed[column]!r}"
                )
        _EXTRACTORS[name] = _Entry(name, tuple(columns), order, fn)
        return fn

    return decorator


def ensure_extractors() -> None:
    """Import the contributing layers so their registrations run.

    Deferred for the same reason the component catalog is: the layers
    import :func:`register_metric` from here at module load.
    """
    global _extractors_loaded
    if _extractors_loaded:
        return
    # Each import triggers that layer's @register_metric decorators.
    import repro.results.extractors  # noqa: F401  (trace columns)
    import repro.transient.base  # noqa: F401      (platform columns)
    import repro.mcu.engine  # noqa: F401          (engine columns)
    import repro.power.rail  # noqa: F401          (rail columns)
    import repro.storage.base  # noqa: F401        (storage columns)
    import repro.neutral.power_neutral  # noqa: F401  (governor columns)

    _extractors_loaded = True


def _entries() -> List[_Entry]:
    ensure_extractors()
    return sorted(_EXTRACTORS.values(), key=lambda e: (e.order, e.name))


def extractor_names() -> List[str]:
    """Registered extractor names in column-layout order."""
    return [entry.name for entry in _entries()]


def metric_columns() -> List[str]:
    """Every contributed column, in deterministic layout order."""
    return [column for entry in _entries() for column in entry.columns]


def result_columns() -> List[str]:
    """The full results-pipeline column set: metrics plus ``error``."""
    return metric_columns() + [ERROR_COLUMN]


def empty_metrics() -> Dict[str, Any]:
    """An all-``None`` metrics mapping (the failed-point summary shape)."""
    metrics: Dict[str, Any] = {column: None for column in metric_columns()}
    metrics[ERROR_COLUMN] = None
    return metrics


def extract_metrics(run: Any, spec: Any) -> Dict[str, Any]:
    """Run every registered extractor over a finished run.

    Returns one mapping covering :func:`result_columns`: columns an
    extractor does not emit (or that do not apply to this system) are
    None, and ``error`` is None — a pipeline that got this far ran.
    """
    metrics = empty_metrics()
    for entry in _entries():
        emitted = entry.fn(run, spec)
        if emitted is None:
            continue
        unknown = sorted(set(emitted) - set(entry.columns))
        if unknown:
            raise SpecError(
                f"metric extractor {entry.name!r} emitted undeclared "
                f"column(s) {unknown}; declared: {sorted(entry.columns)}"
            )
        metrics.update(emitted)
    return metrics
