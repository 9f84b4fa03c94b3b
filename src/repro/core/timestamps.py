"""The time domain of the expiration-time model.

The paper (Section 2.2) works over a *totally ordered time domain* that
comprises finite times -- "for simplicity, we identify finite times with the
non-negative integers" -- plus the symbol ``∞`` that is larger than any other
time value.  A tuple whose expiration time is ``∞`` never expires, and all
operators degrade to their textbook equivalents when every tuple carries
``∞``.

Time has exactly one representation: an ``int``.  :class:`Timestamp` is an
``int`` subclass, finite times are its non-negative values below
:data:`RAW_INFINITY`, and :data:`INFINITY` is the one instance whose value
*is* :data:`RAW_INFINITY` (``2^63 - 1``).  Ordering, equality and hashing
are therefore ``int``'s own -- ``∞`` compares above every finite time
because its integer does -- and columnar ``array('q')`` storage, the
expiration indexes and the compiled kernels hold the same integers the
public API hands out.

This module provides:

* :data:`INFINITY` -- the unique infinite timestamp (aliased ``FOREVER``);
* :class:`Timestamp` -- a finite or infinite time with saturating
  arithmetic and the ``is_finite``/``is_infinite``/``value`` accessors;
* :func:`ts` -- a permissive coercion helper used throughout the library;
* :func:`from_raw` -- boxing of a stored integer (sentinel included);
* :func:`encode_exp` / :func:`decode_exp` -- the JSON form shared by the
  WAL, snapshots, serialised expressions and the wire protocol, where
  ``null`` stands for ``∞`` (the sentinel never reaches JSON);
* :func:`ts_min` / :func:`ts_max` -- n-ary minimum / maximum, the ``min`` and
  ``max`` functions of arbitrary arity from the paper's data model.

Arithmetic saturates at infinity: ``INFINITY + d == INFINITY`` for any
finite ``d``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from repro.errors import TimeError

__all__ = [
    "Timestamp",
    "INFINITY",
    "FOREVER",
    "RAW_INFINITY",
    "TimeLike",
    "decode_exp",
    "encode_exp",
    "from_raw",
    "ts",
    "ts_min",
    "ts_max",
]

#: The integer value of :data:`INFINITY`.  Finite times stay strictly below
#: it, so ``texp > tau`` on plain integers keeps the order of the time
#: domain; ``int64`` max fits ``array('q')`` and numpy's native dtype.
RAW_INFINITY = (1 << 63) - 1

_new_int = int.__new__
_int_add = int.__add__


class Timestamp(int):
    """A point on the totally ordered time domain.

    A timestamp is either *finite* (a non-negative integer tick) or the
    distinguished *infinite* timestamp :data:`INFINITY`.  Being an ``int``,
    it compares, hashes and mixes with plain integers as its value does::

        >>> Timestamp(5) < 7
        True
        >>> INFINITY > 10**9
        True
        >>> Timestamp(3) + 4
        Timestamp(7)
    """

    __slots__ = ()

    def __new__(cls, value: Union[int, "Timestamp", None] = None) -> "Timestamp":
        if type(value) is int and 0 <= value < RAW_INFINITY:
            return _new_int(cls, value)
        if value is None:
            return INFINITY
        if isinstance(value, Timestamp):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise TimeError(f"timestamps are integers or INFINITY, got {value!r}")
        if value < 0:
            raise TimeError(f"timestamps are non-negative, got {value}")
        raise TimeError(
            f"finite timestamps stay below {RAW_INFINITY} (the value of "
            f"INFINITY), got {value}"
        )

    # -- introspection -----------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        """Whether this is the infinite timestamp ``∞``."""
        return self == RAW_INFINITY

    @property
    def is_finite(self) -> bool:
        """Whether this timestamp is a finite tick."""
        return self != RAW_INFINITY

    @property
    def value(self) -> int:
        """The finite tick value; raises :class:`TimeError` on ``∞``."""
        if self == RAW_INFINITY:
            raise TimeError("the infinite timestamp has no finite value")
        return int.__int__(self)

    # -- arithmetic (saturating at infinity) --------------------------------

    def __add__(self, delta: int) -> "Timestamp":
        if type(delta) is not int and (
            not isinstance(delta, int) or isinstance(delta, bool)
        ):
            return NotImplemented
        if self == RAW_INFINITY:
            return self
        result = _int_add(self, delta)
        if 0 <= result < RAW_INFINITY:
            return _new_int(Timestamp, result)
        if result < 0:
            raise TimeError(f"timestamp arithmetic went negative: {self} + {delta}")
        raise TimeError(f"timestamp arithmetic overflowed: {self} + {delta}")

    __radd__ = __add__

    def __sub__(self, delta: int) -> "Timestamp":
        if type(delta) is not int and (
            not isinstance(delta, int) or isinstance(delta, bool)
        ):
            return NotImplemented
        return self.__add__(-delta)

    def __reduce__(self):
        return from_raw, (int.__int__(self),)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if self == RAW_INFINITY:
            return "INFINITY"
        return f"Timestamp({int.__repr__(self)})"

    def __str__(self) -> str:
        if self == RAW_INFINITY:
            return "inf"
        return int.__repr__(self)


#: The unique infinite timestamp: larger than every finite time.  Used for
#: tuples with no expiration time, making every operator behave exactly like
#: its textbook (SPCU) equivalent.
INFINITY = _new_int(Timestamp, RAW_INFINITY)

#: Alias for :data:`INFINITY`, reads better in application code
#: (``table.insert(row, expires=FOREVER)``).
FOREVER = INFINITY

#: Anything accepted where a timestamp is expected.
TimeLike = Union[Timestamp, int, None]

#: Interned finite timestamps, so boxing a stored column does not allocate
#: a fresh Timestamp per row for the (few, repeated) tick values of a
#: workload.  Bounded to keep pathological tick ranges from leaking.
_TS_CACHE: Dict[int, Timestamp] = {}
_TS_CACHE_LIMIT = 1 << 16


def ts(value: TimeLike) -> Timestamp:
    """Coerce ``value`` to a :class:`Timestamp`.

    ``None`` coerces to :data:`INFINITY`, matching the model's convention
    that a missing expiration time means "never expires".

    >>> ts(5)
    Timestamp(5)
    >>> ts(None)
    INFINITY
    """
    if type(value) is Timestamp:
        return value
    if type(value) is int and 0 <= value < RAW_INFINITY:
        return _new_int(Timestamp, value)
    return Timestamp(value)


def from_raw(raw: int) -> Timestamp:
    """Box a stored integer (``RAW_INFINITY`` included) as an interned stamp."""
    if raw == RAW_INFINITY:
        return INFINITY
    cached = _TS_CACHE.get(raw)
    if cached is None:
        cached = Timestamp(int(raw))
        if len(_TS_CACHE) < _TS_CACHE_LIMIT:
            _TS_CACHE[raw] = cached
    return cached


def encode_exp(stamp: int) -> Optional[int]:
    """JSON form of an expiration time: ``None`` (``null``) is ``∞``."""
    return None if stamp == RAW_INFINITY else stamp


def decode_exp(value: Optional[int]) -> Timestamp:
    """Inverse of :func:`encode_exp`; rejects a stray sentinel integer."""
    return ts(value)


def ts_min(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary minimum over the time domain (the paper's ``min`` function).

    The minimum of an empty collection is :data:`INFINITY` -- the identity
    of ``min`` on this domain.  This matches the expiration time assigned to
    expressions over operators that never invalidate (Section 2.3).
    """
    return min(map(ts, times), default=INFINITY)


def ts_max(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary maximum over the time domain (the paper's ``max`` function).

    The maximum of an empty collection is ``Timestamp(0)``: every tuple set
    that is already empty "has fully expired" at time 0.
    """
    return max(map(ts, times), default=Timestamp(0))
