"""Empirical crossover finding for the Eq. (5) experiment.

:func:`find_crossover` is the numeric core over bare curves;
:func:`crossover_from_store` lifts it onto the results pipeline — it
selects two series out of a :class:`~repro.results.store.ResultStore`
by a grouping column (typically the scenario ``name``), aligns them on
a shared x column and interpolates the crossing, which is how the CLI's
``crossover`` experiment runs since the pipeline refactor.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.results.run_result import RunResult
    from repro.results.store import ResultStore


def find_crossover(
    xs: Sequence[float],
    ys_a: Sequence[float],
    ys_b: Sequence[float],
) -> Optional[float]:
    """The x where curve A stops beating curve B (sign change of A - B).

    Values are compared pointwise; the crossing is linearly interpolated
    between the bracketing samples.  Returns None when the difference never
    changes sign (one curve dominates over the whole sweep).

    Args:
        xs: strictly increasing sweep values.
        ys_a / ys_b: metric per sweep point (same orientation: lower or
            higher is better for both — the caller decides).
    """
    if not (len(xs) == len(ys_a) == len(ys_b)):
        raise ConfigurationError("sequences must share a length")
    if len(xs) < 2:
        raise ConfigurationError("need at least two sweep points")
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            raise ConfigurationError("xs must be strictly increasing")
    diffs = [a - b for a, b in zip(ys_a, ys_b)]
    for i in range(1, len(diffs)):
        d0, d1 = diffs[i - 1], diffs[i]
        if d0 == 0.0:
            return float(xs[i - 1])
        if (d0 < 0.0) != (d1 < 0.0):
            frac = abs(d0) / (abs(d0) + abs(d1))
            return float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
    return None


def series_from_store(
    store: "ResultStore", x: str, y: str, **filters: Any
) -> Tuple[List[float], List[float], List["RunResult"]]:
    """One (xs, ys, rows) series out of a store, sorted by ascending x.

    Rows are selected by column-equality ``filters`` (e.g.
    ``name="crossover-hibernus"``); rows missing either column — failed
    points — are dropped, so an infeasible corner shortens the series
    instead of poisoning the interpolation.  Rows of equal x keep their
    insertion order (a stable sort).
    """
    return store.view(
        ("series", x, y, tuple(sorted(filters.items()))),
        lambda: _Series(x, y, filters),
    )


class _Series:
    """The :func:`series_from_store` view: matching rows kept x-sorted.

    A few new rows are inserted after their equal-x peers, which is
    where a stable sort puts them.  A large batch (more than a quarter
    of the view), or any NaN x, which has no place in a sorted order,
    re-sorts every matching row in insertion order instead.
    """

    def __init__(self, x: str, y: str, filters: Dict[str, Any]):
        self.x, self.y, self.filters = x, y, filters
        self.arrivals: List[Tuple[float, float, "RunResult"]] = []
        self.xs: List[float] = []
        self.ys: List[float] = []
        self.rows: List["RunResult"] = []
        self.nan = False

    def extend(self, rows: Sequence["RunResult"]) -> None:
        from repro.results.store import matches

        x, y = self.x, self.y
        picked = [
            result for result in rows
            if matches(result, self.filters)
            and result.get(x) is not None and result.get(y) is not None
        ]
        if not picked:
            return
        fresh = list(zip(
            [float(result[x]) for result in picked],
            [float(result[y]) for result in picked],
            picked,
        ))
        self.arrivals.extend(fresh)
        self.nan = self.nan or any(math.isnan(fx) for fx, _, _ in fresh)
        if self.nan or 4 * len(fresh) > len(self.rows):
            ordered = sorted(self.arrivals, key=itemgetter(0))
            self.xs = [fx for fx, _, _ in ordered]
            self.ys = [fy for _, fy, _ in ordered]
            self.rows = [result for _, _, result in ordered]
            return
        for fx, fy, result in fresh:
            at = bisect_right(self.xs, fx)
            self.xs.insert(at, fx)
            self.ys.insert(at, fy)
            self.rows.insert(at, result)

    def answer(self) -> Tuple[List[float], List[float], List["RunResult"]]:
        return list(self.xs), list(self.ys), list(self.rows)


def crossover_from_store(
    store: "ResultStore",
    x: str,
    y: str,
    group: str,
    a: Any,
    b: Any,
) -> Optional[float]:
    """The empirical crossover between two stored sweep series.

    Series ``a`` and ``b`` are the rows whose ``group`` column equals
    each value (typically ``group="name"`` distinguishing the two base
    scenarios of an Eq. (5) experiment).  Both series must cover the same
    x grid — a point that failed in one series is excluded from both.
    """
    xs_a, ys_a, _ = series_from_store(store, x, y, **{group: a})
    xs_b, ys_b, _ = series_from_store(store, x, y, **{group: b})
    shared = sorted(set(xs_a) & set(xs_b))
    if len(shared) < 2:
        return None
    map_a = dict(zip(xs_a, ys_a))
    map_b = dict(zip(xs_b, ys_b))
    return find_crossover(
        shared, [map_a[v] for v in shared], [map_b[v] for v in shared]
    )
