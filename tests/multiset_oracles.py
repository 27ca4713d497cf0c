"""Multiset algebra and the multiset streams that only the test oracles use.

Truncated difference, the submultiset test, duplicate-free partitions
of a ``FiniteMultiset``, the bounded multisets over a box and the
ordered column selections from bounded columns, both listed by plain
recursion.  The reference bodies in ``test_kernels.py`` build
members, minors and antichains with them, and ``test_multisets.py``
checks their laws and holds the library's multiset walk to the
recursive stream.
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


def recursive_nondecreasing_selections(support, bound, cap):
    """Reference stream: every multiset over ``support`` with at most
    bound(t) copies of each tuple t and at most ``cap`` elements, by the
    depth-first recursion over nondecreasing support positions, each
    selection with a snapshot of its counts, before its extensions."""
    out, chosen, counts = [], [], {}

    def rec(idx, remaining):
        out.append((tuple(chosen), dict(counts)))
        if remaining == 0:
            return
        for i in range(idx, len(support)):
            t = support[i]
            c = counts.get(t, 0)
            if c < bound(t):
                counts[t] = c + 1
                chosen.append(t)
                rec(i, remaining - 1)
                chosen.pop()
                if c:
                    counts[t] = c
                else:
                    del counts[t]

    rec(0, cap)
    return out


def bounded_multisets(arity, support, bound, cap):
    """The multisets of ``recursive_nondecreasing_selections`` as
    FiniteMultisets, in its order."""
    return [FiniteMultiset(arity, counts)
            for _, counts in recursive_nondecreasing_selections(support, bound, cap)]


def recursive_ordered_selections(support, bound, n, used):
    """Every sequence of n >= 1 columns from ``support`` using each column
    t at most bound(t) times, in lexicographic order of support positions;
    ``used`` counts the columns of the sequence just yielded."""
    chosen = []
    bounded = [(col, bound(col)) for col in support]

    def rec(pos):
        last = pos == n - 1
        for col, b in bounded:
            c = used.get(col, 0)
            if c < b:
                used[col] = c + 1
                chosen.append(col)
                if last:
                    yield tuple(chosen)
                else:
                    yield from rec(pos + 1)
                chosen.pop()
                used[col] = c

    yield from rec(0)
