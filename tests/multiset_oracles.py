"""Multiset algebra that only the test oracles use.

Truncated difference, the submultiset test and duplicate-free
partitions of a ``FiniteMultiset``.  The reference bodies in
``test_kernels.py`` build members and antichains with them, and
``test_multisets.py`` checks their laws.
"""

from galois_kit import FiniteMultiset, GaloisKitError
from galois_kit.multisets import _set_partitions


def _check_arities(a, b):
    if a.arity != b.arity:
        raise GaloisKitError("multiset arity mismatch")


def ms_diff(s, s2):
    """Truncated difference: max(count - count', 0)."""
    _check_arities(s, s2)
    counts = {t: c - s2.multiplicity(t) for t, c in s.counts.items()}
    return FiniteMultiset(s.arity, {t: c for t, c in counts.items() if c > 0})


def ms_sub(s2, s):
    """Submultiset test: every multiplicity of s2 bounded by s."""
    _check_arities(s2, s)
    return all(c <= s.multiplicity(t) for t, c in s2.counts.items())


def ms_partitions(s):
    """All partitions of s into non-empty submultisets, duplicate-free.

    A partition is returned as a sorted tuple of blocks, each block a
    FiniteMultiset; identical blocks may repeat within a partition.
    """
    items = s.elements()
    seen = set()
    out = []
    for blocks in _set_partitions(items):
        part = tuple(
            sorted(
                (FiniteMultiset.from_tuples(s.arity, b) for b in blocks),
                key=lambda m: m._key,
            )
        )
        key = tuple(m._key for m in part)
        if key not in seen:
            seen.add(key)
            out.append(part)
    out.sort(key=lambda part: (len(part), [m._key for m in part]))
    return out
