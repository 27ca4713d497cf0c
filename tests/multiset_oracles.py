"""Multiset algebra and the multiset streams that only the test oracles use.

Truncated difference, the submultiset test, duplicate-free partitions
of a ``FiniteMultiset``, the bounded multisets over a box and the
ordered column selections from bounded columns, both listed by plain
recursion, and the member walk that narrowed its candidate list
whenever its live generators shrank.  The reference bodies in
``test_kernels.py`` build members, minors and antichains with them, and
``test_multisets.py`` checks their laws and holds the library's
multiset walk to the recursive stream and to the narrowing walk.
"""

from bisect import bisect_left

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


def narrowing_walk(caps, allows, exact, top, counts, chosen):
    """The member walk as it was while it narrowed its candidates, kept as
    the oracle of ``multisets._walk``, which yields the same stream.

    Every multiset of cardinality <= top that some ``_compiled``
    generator admits, each once, the empty one first, as its live mask:
    the generators that admit it.

    The multisets are the selections over the union of the supports in
    nondecreasing support order, so each selection comes right before its
    extensions; a selection is extended only while the AND of its tuples'
    masks and the cap suffix is non-zero, and the union of the boxes is
    downward closed, so none is missed.  ``chosen`` holds the tuples of the
    selection just yielded, in that order, and ``counts`` their
    multiplicities, in sorted tuple order; neither is copied, so a step
    costs time in the support, not in the cardinality.  The candidate
    tuples are narrowed to those some live generator allows only when the
    live set shrinks.  The search keeps an explicit stack.
    """
    if not caps:
        return
    low = caps[0]  # below the smallest cap, no cap drops a generator
    frames = []  # (candidates, index of the chosen tuple there, live before it)
    cands, i, live = sorted(allows), 0, (1 << len(caps)) - 1
    yield live
    while True:
        size, new = len(chosen), 0
        if size < top:
            # only generators whose cap admits size + 1 stay live
            keep = live
            if size >= low:
                j = bisect_left(caps, size + 1)
                keep = keep >> j << j
            while keep and i < len(cands):
                t = cands[i]
                c = counts.get(t, 0)
                # every live box allows c copies of t: drop those allowing no more
                new = keep & ~exact[t].get(c, 0) if c else keep & allows[t]
                if new:
                    break
                i += 1
        if new:
            counts[t] = c + 1
            chosen.append(t)
            frames.append((cands, i, live))
            if new != live:
                cands, i = [u for u in cands[i:] if new & allows[u]], 0
            live = new
            yield live
            continue
        if not frames:
            return
        cands, i, live = frames.pop()
        t = chosen.pop()
        i += 1
        if counts[t] > 1:
            counts[t] -= 1
        else:
            del counts[t]
