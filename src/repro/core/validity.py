"""Schrödinger validity semantics and validity oracles (Sections 3.3-3.4).

A materialised expression "is only required to contain correct values when
a user queries it" -- the paper's Schrödinger's cat semantics.  Instead of
the single expiration time ``texp(e)``, the model associates an *interval
set* ``I(e)`` with each materialisation; queries arriving inside the set
are answered directly, others are recomputed, delayed (moved forward in
time), or answered slightly stale (moved backward).

This module provides:

* :func:`difference_validity_paper` -- Equation (12) exactly as printed,
  which removes a single interval bounded by the critical tuples'
  ``texp_S`` values;
* :func:`difference_validity_exact` -- the per-critical-tuple union
  ``[τ,∞) − ⋃ [texp_S(t), texp_R(t))``.  Equation (12)'s upper bound
  appears to be a typo (the paper's own prose says the difference is valid
  again "after all critical tuples have expired", i.e. after their
  ``texp_R``); the exact form follows the prose and Table 2 and is what the
  evaluator computes;
* :func:`recompute_equals_materialised` -- the ground-truth check behind
  Theorems 1 and 2: does ``exp_τ'(e materialised at τ)`` equal a fresh
  evaluation of ``e`` at ``τ'``?
* :func:`validity_oracle` -- the brute-force interval set obtained by
  running that check at every relevant time point; property tests compare
  it against the analytic ``I(e)`` from the evaluator;
* :class:`QueryAnswerer` -- the Section 3.3 query policies (ANSWER /
  MOVE_BACKWARD / MOVE_FORWARD / RECOMPUTE) over a materialisation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.core.algebra.evaluator import Catalog, EvalResult, evaluate
from repro.core.algebra.expressions import Expression
from repro.core.intervals import IntervalSet
from repro.core.relation import Relation
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts, ts_min, ts_max

__all__ = [
    "critical_tuples",
    "difference_validity_paper",
    "difference_validity_exact",
    "recompute_equals_materialised",
    "relevant_times",
    "validity_oracle",
    "QueryPolicy",
    "QueryAnswer",
    "QueryAnswerer",
]


def critical_tuples(left: Relation, right: Relation) -> List[Tuple[tuple, Timestamp, Timestamp]]:
    """The recomputation-triggering set of Section 3.1 for ``R −exp S``.

    Returns ``(row, texp_R, texp_S)`` for every ``t ∈ R ∩ S`` with
    ``texp_R(t) > texp_S(t)`` -- the tuples that must re-appear in the
    difference when their S-side match expires (Table 2, case 3a).
    """
    result = []
    for row, left_texp in left.items():
        right_texp = right.expiration_or_none(row)
        if right_texp is not None and right_texp < left_texp:
            result.append((row, left_texp, right_texp))
    return result


def difference_validity_paper(left: Relation, right: Relation, tau: TimeLike) -> IntervalSet:
    """Equation (12) exactly as printed in the paper.

    ``I(R −exp S) = [τ,∞) − [min texp_S(t), max texp_S(t))`` over the
    critical tuples.  Kept verbatim for the reproduction benches; see
    :func:`difference_validity_exact` for the corrected/exact form.
    """
    start = ts(tau)
    critical = critical_tuples(left, right)
    base = IntervalSet.from_onwards(start)
    if not critical:
        return base
    lower = ts_min(texp_s for _, _, texp_s in critical)
    upper = ts_max(texp_s for _, _, texp_s in critical)
    if not lower < upper:
        return base
    return base - IntervalSet.single(lower, upper)


def difference_validity_exact(left: Relation, right: Relation, tau: TimeLike) -> IntervalSet:
    """The exact validity of a difference materialised at ``τ``.

    Each critical tuple ``t`` makes the materialisation disagree with a
    recomputation exactly on ``[texp_S(t), texp_R(t))``: it should be
    present (its S match expired) but the materialisation cannot contain
    it.  Outside the union of those intervals, the two agree.
    """
    invalid = IntervalSet.from_pairs(
        (texp_s, texp_r) for _, texp_r, texp_s in critical_tuples(left, right)
    )
    return IntervalSet.from_onwards(ts(tau)) - invalid


def recompute_equals_materialised(
    expression: Expression,
    catalog: Catalog,
    materialised: EvalResult,
    at: TimeLike,
) -> bool:
    """Ground truth for Theorems 1 and 2 at a single time point.

    Compares ``exp_at(materialised result)`` with a fresh evaluation of the
    expression at ``at`` -- content equality including expiration times, as
    the theorems' ``exp_τ'(e) = exp_τ'(exp_τ(e))`` demands.
    """
    aged = materialised.relation.exp_at(at)
    fresh = evaluate(expression, catalog, tau=at).relation
    return aged.same_content(fresh)


def relevant_times(expression: Expression, catalog: Catalog, tau: TimeLike) -> List[Timestamp]:
    """All finite time points at which anything can change.

    The materialisation and every recomputation are step functions of time
    whose steps occur only at tuple-expiration times of the base relations
    (and of derived tuples, whose expirations are mins/maxes of base ones,
    hence drawn from the same set).  Checking validity at each expiration
    time, one tick before, and one tick after therefore covers every
    behaviour change.
    """
    start = ts(tau)
    points: Set[int] = set()
    names = expression.base_names()
    lookup = (lambda name: catalog(name)) if callable(catalog) else catalog.__getitem__
    for name in names:
        for _, texp in lookup(name).items():
            if texp.is_finite:
                points.update({max(texp.value - 1, 0), texp.value, texp.value + 1})
    # Literal nodes carry inline relations.
    from repro.core.algebra.expressions import Literal

    for node in expression.walk():
        if isinstance(node, Literal):
            for _, texp in node.relation.items():
                if texp.is_finite:
                    points.update({max(texp.value - 1, 0), texp.value, texp.value + 1})
    stamps = sorted(p for p in points if p >= (start.value if start.is_finite else 0))
    return [ts(p) for p in stamps]


def validity_oracle(
    expression: Expression,
    catalog: Catalog,
    tau: TimeLike = 0,
    extra_times: Iterable[TimeLike] = (),
) -> IntervalSet:
    """Brute-force the exact validity interval set of a materialisation.

    Materialises ``expression`` at ``tau`` and checks
    :func:`recompute_equals_materialised` at every relevant time point,
    assembling the resulting step function into an :class:`IntervalSet`.
    Intended for tests and benches (it recomputes the expression at every
    point); the evaluator's analytic ``validity`` must equal this.
    """
    start = ts(tau)
    materialised = evaluate(expression, catalog, tau=start)
    checkpoints = relevant_times(expression, catalog, start)
    for extra in extra_times:
        stamp = ts(extra)
        if stamp.is_finite and not stamp < start:
            checkpoints.append(stamp)
    checkpoints = sorted(set(checkpoints + [start]))

    valid_from: Optional[Timestamp] = None
    pairs: List[Tuple[Timestamp, Timestamp]] = []
    for point in checkpoints:
        ok = recompute_equals_materialised(expression, catalog, materialised, point)
        if ok and valid_from is None:
            valid_from = point
        elif not ok and valid_from is not None:
            pairs.append((valid_from, point))
            valid_from = None
    if valid_from is not None:
        # Beyond the last expiration nothing changes any more; if the last
        # checkpoint was valid, validity extends to infinity.
        pairs.append((valid_from, INFINITY))
    return IntervalSet.from_pairs(pairs)


class QueryPolicy(enum.Enum):
    """What to do with a query that misses the validity set (Section 3.3)."""

    #: Re-evaluate the expression against the base relations.
    RECOMPUTE = "recompute"

    #: Answer from the nearest earlier valid time (slightly outdated).
    MOVE_BACKWARD = "move_backward"

    #: Delay the query to the next valid time.
    MOVE_FORWARD = "move_forward"

    #: Refuse: raise an error for the caller to handle.
    REJECT = "reject"


@dataclass(frozen=True)
class QueryAnswer:
    """The outcome of answering a query against a materialisation."""

    relation: Relation
    #: The time whose database state the answer reflects.
    effective_time: Timestamp
    #: Whether the answer came straight from the materialisation.
    from_materialisation: bool
    #: Whether a recomputation against the base relations was needed.
    recomputed: bool


class QueryAnswerer:
    """Answers time-stamped queries against one materialised expression.

    Wraps an :class:`EvalResult` and its validity set; queries inside the
    set are served from the materialisation (after ``exp_τ`` filtering),
    others follow the configured :class:`QueryPolicy`.

    >>> # answers inside I(e) never touch the base relations
    """

    def __init__(
        self,
        expression: Expression,
        catalog: Catalog,
        materialised: EvalResult,
        policy: QueryPolicy = QueryPolicy.RECOMPUTE,
    ) -> None:
        self.expression = expression
        self.catalog = catalog
        self.materialised = materialised
        self.policy = policy
        #: Counters for the benches: how often each path was taken.
        self.served_from_view = 0
        self.recomputations = 0
        self.moved_backward = 0
        self.moved_forward = 0

    def answer(self, at: TimeLike) -> QueryAnswer:
        """Answer a query issued at time ``at``."""
        stamp = ts(at)
        validity = self.materialised.validity
        if validity.contains(stamp):
            self.served_from_view += 1
            return QueryAnswer(
                self.materialised.relation.exp_at(stamp), stamp, True, False
            )
        if self.policy is QueryPolicy.MOVE_BACKWARD:
            earlier = validity.previous_valid_time(stamp)
            if earlier is not None:
                self.moved_backward += 1
                return QueryAnswer(
                    self.materialised.relation.exp_at(earlier), earlier, True, False
                )
        elif self.policy is QueryPolicy.MOVE_FORWARD:
            later = validity.next_valid_time(stamp)
            if later is not None:
                self.moved_forward += 1
                return QueryAnswer(
                    self.materialised.relation.exp_at(later), later, True, False
                )
        elif self.policy is QueryPolicy.REJECT:
            from repro.errors import StaleViewError

            raise StaleViewError(
                f"materialisation invalid at {stamp}; valid in {validity!r}"
            )
        # Fall through (RECOMPUTE, or a move policy with nowhere to move).
        self.recomputations += 1
        fresh = evaluate(self.expression, self.catalog, tau=stamp)
        return QueryAnswer(fresh.relation, stamp, False, True)
