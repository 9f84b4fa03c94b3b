"""Approximate aggregate answers with error bounds (paper §5, future work).

"The introduction of techniques that offer approximate query answers is
reasonable in our setting and may yield performance improvements; if we
are interested in maintaining, e.g., aggregate values with certain error
bounds, we might be able to improve performance."

The idea, made concrete: a materialised aggregate tuple carrying value
``v`` does not need to expire at the first *change* of the aggregate, only
at the first time the true value leaves the tolerance region around ``v``.
Tolerances widen every interval of the value timeline into an *acceptance
band*, which can only push the expiration (and the validity intervals)
later -- Equation (9) is the special case of zero tolerance.

Two tolerance kinds are supported:

* :class:`AbsoluteTolerance` -- ``|true - v| <= epsilon``;
* :class:`RelativeTolerance` -- ``|true - v| <= rho · |v|``.

Non-numeric aggregate values (or the partition's death) always count as a
change -- a tolerance never keeps a tuple alive past its partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from repro.core.aggregates import AggregateFunction, PartitionItem, value_timeline
from repro.core.intervals import Interval, IntervalSet
from repro.core.timestamps import INFINITY, Timestamp
from repro.errors import AggregateError

__all__ = [
    "Tolerance",
    "AbsoluteTolerance",
    "RelativeTolerance",
    "EXACT_TOLERANCE",
    "approximate_count_validity",
    "approximate_expiration",
    "approximate_validity",
    "max_observed_error",
]


class Tolerance:
    """Base class: decides whether a drifted value is still acceptable."""

    def accepts(self, reported: Any, true_value: Any) -> bool:
        """Whether answering ``reported`` while the truth is ``true_value``
        stays within the bound."""
        raise NotImplementedError


@dataclass(frozen=True)
class AbsoluteTolerance(Tolerance):
    """``|true - reported| <= epsilon``."""

    epsilon: Any

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise AggregateError(f"tolerance must be non-negative, got {self.epsilon}")

    def accepts(self, reported: Any, true_value: Any) -> bool:
        if reported is None or true_value is None:
            return reported is None and true_value is None
        try:
            return abs(true_value - reported) <= self.epsilon
        except TypeError:
            return reported == true_value


@dataclass(frozen=True)
class RelativeTolerance(Tolerance):
    """``|true - reported| <= rho * |reported|``."""

    rho: float

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise AggregateError(f"tolerance must be non-negative, got {self.rho}")

    def accepts(self, reported: Any, true_value: Any) -> bool:
        if reported is None or true_value is None:
            return reported is None and true_value is None
        try:
            return abs(true_value - reported) <= self.rho * abs(reported)
        except TypeError:
            return reported == true_value


#: Zero tolerance: degrades exactly to Equation (9).
EXACT_TOLERANCE = AbsoluteTolerance(0)


def approximate_expiration(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    tolerance: Tolerance,
) -> Timestamp:
    """First time the true value leaves the tolerance band around the
    query-time value -- a generalised ``ν(τ, P, f)``.

    Monotone in the tolerance: a wider band never expires earlier; zero
    tolerance reproduces :func:`repro.core.aggregates.exact_expiration`.
    The partition's death always expires the tuple (there is no value to
    approximate any more).
    """
    timeline = value_timeline(partition, function, tau)
    if not timeline:
        raise AggregateError(f"partition fully expired at τ = {tau}")
    reported = timeline[0][1]
    for interval, value in timeline:
        if not tolerance.accepts(reported, value):
            return interval.start
    # Every value stays in band; the tuple survives until the partition
    # dies (the last interval's end, ∞ if some member never expires).
    return timeline[-1][0].end


def approximate_validity(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    tolerance: Tolerance,
) -> IntervalSet:
    """All times at which serving the query-time value stays in band.

    The tolerance-widened analogue of
    :func:`repro.core.aggregates.tuple_validity_intervals`: the union of
    timeline intervals whose value the tolerance accepts.
    """
    timeline = value_timeline(partition, function, tau)
    if not timeline:
        raise AggregateError(f"partition fully expired at τ = {tau}")
    reported = timeline[0][1]
    return IntervalSet(
        interval
        for interval, value in timeline
        if tolerance.accepts(reported, value)
    )


def approximate_count_validity(
    texps: Sequence[Timestamp],
    tau: Timestamp,
    tolerance: Tolerance,
) -> "tuple[int, IntervalSet]":
    """``(count, validity)`` for COUNT under expiration-only drift.

    The COUNT special case of :func:`approximate_validity` without the
    :func:`~repro.core.aggregates.value_timeline` machinery: a count over
    an expiring partition only ever *decreases* as time passes, so the
    accepted region is one contiguous interval ``[τ, h)`` where ``h`` is
    the first expiration instant at which the cumulative drop leaves the
    tolerance band -- computable with a sort and a single scan.  It is the
    oracle for the standing counts of :mod:`repro.workloads.streaming`,
    which derive the same ``I(e)`` incrementally from their own
    expiration heaps; the test suite checks every refresh against it.

    ``texps`` are the partition members' stored expirations; members dead
    at ``τ`` are ignored.  Like the general machinery, the partition's
    death bounds the validity even when every drop stays in band.
    Equivalent to ``approximate_validity`` with
    :class:`~repro.core.aggregates.CountAggregate` on every input (a
    property the test suite pins down).
    """
    finite: list = []
    immortal = 0
    for texp in texps:
        if texp <= tau:
            continue
        if texp.is_finite:
            finite.append(texp.value)
        else:
            immortal += 1
    count = immortal + len(finite)
    if count == 0:
        raise AggregateError(f"partition fully expired at τ = {tau}")
    finite.sort()
    index = 0
    total = len(finite)
    while index < total:
        run_end = index
        while run_end + 1 < total and finite[run_end + 1] == finite[index]:
            run_end += 1
        # Once the clock reaches this expiration instant, every member up
        # to the end of the equal run is dead.
        if not tolerance.accepts(count, count - (run_end + 1)):
            return count, IntervalSet.single(tau, finite[index])
        index = run_end + 1
    death = INFINITY if immortal else finite[-1]
    return count, IntervalSet.single(tau, death)


def max_observed_error(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    until: Timestamp,
) -> Any:
    """The largest absolute drift of the true value from the query-time
    value over ``[τ, until)`` -- the error actually incurred by *not*
    expiring the tuple in that window (used by the bench to verify that
    tolerances bound the real error, not just the change count)."""
    timeline = value_timeline(partition, function, tau)
    if not timeline:
        raise AggregateError(f"partition fully expired at τ = {tau}")
    reported = timeline[0][1]
    worst = 0
    window = IntervalSet.single(tau, until) if tau < until else IntervalSet.empty()
    for interval, value in timeline:
        if (IntervalSet((interval,)) & window).is_empty:
            continue
        try:
            drift = abs(value - reported)
        except TypeError:
            drift = 0 if value == reported else None
        if drift is None:
            continue
        if drift > worst:
            worst = drift
    return worst
