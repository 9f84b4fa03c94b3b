"""Physical implementations of the difference operator (paper §3.4.2).

"The difference operator can be implemented in a variety of ways, most
notably as a left outer anti-semijoin, which may be executed as a hash
join, a nested-loop join, or a sort-merge join.  Whichever method we use,
we can always gather the information necessary to build the priority queue
in O(n log n) time."

All three executors below compute, in a single pass,

* the materialised ``exp_τ(L) −exp exp_τ(R)`` (tuples keep ``texp_L``), and
* the Theorem-3 patch list (critical tuples with their due/expiry times),

so the helper priority queue really is gathered "while executing the
difference", at no extra asymptotic cost:

* :func:`hash_difference`        -- O(|L| + |R|), the evaluator's default;
* :func:`sort_merge_difference`  -- O(n log n), useful when inputs arrive
  sorted or memory for a hash table is tight;
* :func:`nested_loop_difference` -- O(|L|·|R|), the baseline that needs no
  auxiliary structure at all.

``bench_difference_algorithms.py`` confirms the asymptotic shapes and the
byte-identical outputs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.patching import Patch
from repro.core.relation import Relation
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.core.tuples import Row
from repro.errors import AlgebraError

__all__ = [
    "hash_difference",
    "sort_merge_difference",
    "nested_loop_difference",
    "ALGORITHMS",
    "difference_with_patches",
]

#: The result type: (materialised difference, patch list in due order).
DifferenceResult = Tuple[Relation, List[Patch]]


def _visible(relation: Relation, tau: Timestamp) -> List[Tuple[Row, Timestamp]]:
    return [(row, texp) for row, texp in relation.items() if tau < texp]


def hash_difference(left: Relation, right: Relation, tau: TimeLike = 0) -> DifferenceResult:
    """Hash anti-semijoin: build on R, probe with L."""
    stamp = ts(tau)
    left.schema.check_union_compatible(right.schema)
    matches: Dict[Row, Timestamp] = {
        row: texp for row, texp in _visible(right, stamp)
    }
    result = Relation(left.schema)
    patches: List[Patch] = []
    for row, left_texp in _visible(left, stamp):
        right_texp = matches.get(row)
        if right_texp is None:
            result.insert(row, expires_at=left_texp)
        elif right_texp < left_texp:
            patches.append(Patch(row, right_texp, left_texp))
    patches.sort(key=lambda patch: (patch.due, patch.row))
    return result, patches


def sort_merge_difference(
    left: Relation, right: Relation, tau: TimeLike = 0
) -> DifferenceResult:
    """Sort both inputs by row, merge once.

    Row values must be mutually comparable (true for the homogeneous
    relations this library's workloads produce).
    """
    stamp = ts(tau)
    left.schema.check_union_compatible(right.schema)
    left_sorted = sorted(_visible(left, stamp), key=lambda item: item[0])
    right_sorted = sorted(_visible(right, stamp), key=lambda item: item[0])
    result = Relation(left.schema)
    patches: List[Patch] = []
    position = 0
    for row, left_texp in left_sorted:
        while position < len(right_sorted) and right_sorted[position][0] < row:
            position += 1
        if position < len(right_sorted) and right_sorted[position][0] == row:
            right_texp = right_sorted[position][1]
            if right_texp < left_texp:
                patches.append(Patch(row, right_texp, left_texp))
        else:
            result.insert(row, expires_at=left_texp)
    patches.sort(key=lambda patch: (patch.due, patch.row))
    return result, patches


def nested_loop_difference(
    left: Relation, right: Relation, tau: TimeLike = 0
) -> DifferenceResult:
    """The quadratic baseline: scan R for every tuple of L."""
    stamp = ts(tau)
    left.schema.check_union_compatible(right.schema)
    right_visible = _visible(right, stamp)
    result = Relation(left.schema)
    patches: List[Patch] = []
    for row, left_texp in _visible(left, stamp):
        right_texp = None
        for other_row, other_texp in right_visible:
            if other_row == row:
                right_texp = other_texp
                break
        if right_texp is None:
            result.insert(row, expires_at=left_texp)
        elif right_texp < left_texp:
            patches.append(Patch(row, right_texp, left_texp))
    patches.sort(key=lambda patch: (patch.due, patch.row))
    return result, patches


ALGORITHMS: Dict[str, Callable[[Relation, Relation, TimeLike], DifferenceResult]] = {
    "hash": hash_difference,
    "sort_merge": sort_merge_difference,
    "nested_loop": nested_loop_difference,
}


def difference_with_patches(
    left: Relation, right: Relation, tau: TimeLike = 0, algorithm: str = "hash"
) -> DifferenceResult:
    """Dispatch by algorithm name (``hash`` / ``sort_merge`` / ``nested_loop``)."""
    try:
        executor = ALGORITHMS[algorithm]
    except KeyError:
        raise AlgebraError(
            f"unknown difference algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    return executor(left, right, tau)
