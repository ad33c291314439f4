"""Pareto-frontier extraction over multi-objective results.

Three entry points: :func:`pareto_points` is the numeric core over bare
(cost, benefit) sequences; :func:`non_dominated_indices` is the general
k-objective dominance filter (all objectives minimized) that the
exploration engine's evolutionary optimizer ranks populations with; and
:func:`pareto_from_store` runs the same dominance rule over a
:class:`~repro.results.store.ResultStore` and hands back the
non-dominated :class:`RunResult` rows themselves, so downstream tools
keep the full metric row (and spec hash) of every frontier design.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.results.run_result import RunResult
    from repro.results.store import ResultStore


def pareto_points(
    costs: Sequence[float], benefits: Sequence[float]
) -> List[Tuple[float, float]]:
    """Non-dominated (cost, benefit) pairs, sorted by ascending cost.

    A point dominates another when it has lower-or-equal cost and strictly
    higher benefit (or equal benefit at strictly lower cost).
    """
    if len(costs) != len(benefits):
        raise ConfigurationError("costs and benefits must share a length")
    pairs = sorted(zip(costs, benefits), key=lambda p: (p[0], -p[1]))
    frontier: List[Tuple[float, float]] = []
    best = float("-inf")
    for cost, benefit in pairs:
        if benefit > best:
            frontier.append((cost, benefit))
            best = benefit
    return frontier


def non_dominated_indices(rows: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the rows no other row dominates (minimise everything).

    ``rows`` is a point per entry, one value per objective, every
    objective oriented so lower is better (callers flip signs for
    maximised metrics).  Row *a* dominates row *b* when it is
    less-or-equal in every objective and strictly less in at least one;
    duplicated points dominate nothing, so ties all stay on the
    frontier.  Non-finite values (NaN/inf) mark an infeasible point:
    such rows are never returned and never dominate.

    Returns indices in input order — stable, so callers can zip them
    back onto whatever the rows summarised.
    """
    if not rows:
        return []
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ConfigurationError(
                "every row must have one value per objective"
            )
    feasible = [
        i for i, row in enumerate(rows)
        if all(math.isfinite(float(v)) for v in row)
    ]

    def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    return [
        i for i in feasible
        if not any(
            dominates(rows[j], rows[i]) for j in feasible if j != i
        )
    ]


def pareto_from_store(
    store: "ResultStore",
    cost: str,
    benefit: str,
    *,
    maximize_benefit: bool = True,
) -> List["RunResult"]:
    """The store rows on the (cost, benefit) Pareto frontier.

    Columns resolve like :meth:`RunResult.__getitem__` (overrides first,
    then metrics).  Failed points, rows with non-finite (NaN/inf) or
    non-numeric values, and sub-full-fidelity screening rows (the
    exploration driver's shortened-horizon evaluations, which
    accumulate less of every metric) are skipped *with a warning*
    rather than corrupting the dominance ordering — error rows in
    particular would otherwise compete on their override columns alone.
    Rows an extractor marked not-applicable (either column None) are
    silently excluded, as before.  ``maximize_benefit=False`` flips the
    benefit axis (minimise both), e.g. energy vs completion time.
    Dominance matches :func:`pareto_points` exactly.
    """
    from repro.results.store import warn_skipped

    frontier, skipped = store.view(
        ("pareto", cost, benefit, maximize_benefit),
        lambda: _Frontier(cost, benefit, maximize_benefit),
    )
    warn_skipped(
        skipped, f"pareto_from_store({cost!r}, {benefit!r})", stacklevel=2
    )
    if not frontier:
        raise ConfigurationError(
            f"no stored result records both {cost!r} and {benefit!r}"
        )
    return frontier


class _Frontier:
    """The :func:`pareto_from_store` view: the frontier kept as rows land.

    Equal to sorting the rankable rows stably by ``(cost, -benefit)``
    and keeping each that beats the best benefit so far: a new row
    sorts after every frontier row with a key up to its own (it came
    later), joins the frontier when its benefit beats the one before
    that position, and then evicts the following rows it now beats.
    """

    def __init__(self, cost: str, benefit: str, maximize_benefit: bool):
        self.columns = (cost, benefit)
        self.sign = 1.0 if maximize_benefit else -1.0
        #: Sort keys of the frontier rows; ``key[1]`` is minus the
        #: (oriented) benefit, so it falls along the frontier.
        self.keys: List[Tuple[float, float]] = []
        self.rows: List["RunResult"] = []
        self.skipped = 0

    def extend(self, rows: Sequence["RunResult"]) -> None:
        from repro.results.store import rank_status

        cost, benefit = self.columns
        keys = self.keys
        for result in rows:
            status = rank_status(result, self.columns)
            if status is None:
                continue
            if not status:
                self.skipped += 1
                continue
            key = (float(result[cost]), -self.sign * float(result[benefit]))
            at = bisect_right(keys, key)
            if at and keys[at - 1][1] <= key[1]:
                continue
            end = at
            while end < len(keys) and keys[end][1] >= key[1]:
                end += 1
            keys[at:end] = [key]
            self.rows[at:end] = [result]

    def answer(self) -> "Tuple[List[RunResult], int]":
        return list(self.rows), self.skipped
