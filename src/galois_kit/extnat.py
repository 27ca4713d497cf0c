"""Arithmetic over N extended with infinity.

Infinity is the float ``math.inf`` throughout the toolkit; all other
values are plain non-negative ints, so the builtin ``min`` and ``max``
order them.  ``ext_sub`` gives the one rule the builtins lack: truncated
subtraction, with inf - n = inf.
"""

import math

from .errors import GaloisKitError

__all__ = ["INF"]

INF = math.inf


def is_extnat(x):
    return isinstance(x, int) and x >= 0 and not isinstance(x, bool) or x == INF


def ext_sub(a, b):
    """Truncated subtraction; inf - n = inf for finite n."""
    if a == INF:
        if b == INF:
            raise GaloisKitError("inf - inf is undefined")
        return INF
    if b == INF:
        return 0
    return max(a - b, 0)


_EXACT_BASE = 1 << 64


def power_upto(base, exp, limit):
    """min(base ** exp, limit), building no power past twice a finite limit,
    so a tuple count k^m stays cheap however large m is.  A power of a
    base below 2^64 with an exponent below 64 has at most 4,032 bits: it
    is built exactly, with no logarithm taken."""
    if exp < 64 and base < _EXACT_BASE:
        return min(base ** exp, limit)
    return _power_upto_by_logs(base, exp, limit)


def _power_upto_by_logs(base, exp, limit):
    """``power_upto``, told from the logarithms whether the power passes
    twice the limit before building it."""
    if limit != INF and exp * math.log2(base) > math.log2(limit + 1) + 1:
        return limit
    return min(base ** exp, limit)


def parse_extnat(text):
    if text in ("inf", "INF", "oo"):
        return INF
    value = int(text)
    if value < 0:
        raise ValueError(f"negative count: {text}")
    return value


def format_extnat(x):
    return "inf" if x == INF else str(x)
