"""Finite multisets of m-tuples and matrices as column sequences.

A matrix is an ordered sequence of columns (m-tuples); its multiset of
columns forgets the order.  Row-wise application of an operation to a
matrix is the workhorse of every satisfaction check.
"""

from dataclasses import dataclass

from .errors import GaloisKitError, _current_meter

__all__ = [
    "FiniteMultiset",
    "TupleMatrix",
    "apply_op_rows",
    "columns_multiset",
    "enumerate_matrices_leq",
    "ms_join",
    "split_enumerate",
]


class FiniteMultiset:
    """Multiplicity function over m-tuples; absent keys have multiplicity 0."""

    __slots__ = ("arity", "counts", "_key")

    def __init__(self, arity, counts=None):
        if arity < 1:
            raise GaloisKitError("multiset arity must be positive")
        counts = {tuple(t): c for t, c in dict(counts or {}).items() if c}
        for t, c in counts.items():
            if len(t) != arity:
                raise GaloisKitError(f"tuple {t!r} has wrong length for arity {arity}")
            if not isinstance(c, int) or c < 0:
                raise GaloisKitError(f"multiplicity {c!r} must be a nonnegative int")
        self.arity = arity
        self.counts = counts
        self._key = (arity, tuple(sorted(counts.items())))

    @classmethod
    def from_tuples(cls, arity, tuples):
        return cls(arity, _counts(tuple(t) for t in tuples))

    @classmethod
    def empty(cls, arity):
        return cls(arity)

    def multiplicity(self, t):
        return self.counts.get(tuple(t), 0)

    @property
    def cardinality(self):
        return sum(self.counts.values())

    def support(self):
        return sorted(self.counts)

    def elements(self):
        """All elements with multiplicity, sorted."""
        out = []
        for t in sorted(self.counts):
            out.extend([t] * self.counts[t])
        return out

    def __eq__(self, other):
        if not isinstance(other, FiniteMultiset):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{t}:{c}" for t, c in sorted(self.counts.items()))
        return "{" + inner + "}"


def _counts(columns):
    """The multiplicity dict of a sequence of m-tuples."""
    counts = {}
    for t in columns:
        counts[t] = counts.get(t, 0) + 1
    return counts


def ms_join(s, s2):
    """Additive union: multiplicities add."""
    if s.arity != s2.arity:
        raise GaloisKitError("multiset arity mismatch")
    counts = dict(s.counts)
    for t, c in s2.counts.items():
        counts[t] = counts.get(t, 0) + c
    return FiniteMultiset(s.arity, counts)


def _set_partitions(items):
    """Set partitions of a list of labeled items via restricted growth."""
    n = len(items)
    if n == 0:
        yield []
        return

    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


@dataclass(frozen=True)
class TupleMatrix:
    """A matrix viewed as an ordered sequence of columns (m-tuples)."""

    row_count: int
    columns: tuple

    def __post_init__(self):
        if self.row_count < 1:
            raise GaloisKitError("a matrix needs at least one row")
        cols = tuple(tuple(c) for c in self.columns)
        if any(len(c) != self.row_count for c in cols):
            raise GaloisKitError("column length must equal row count")
        object.__setattr__(self, "columns", cols)

    @classmethod
    def from_rows(cls, rows):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise GaloisKitError("a matrix needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise GaloisKitError("ragged rows")
        cols = tuple(tuple(r[j] for r in rows) for j in range(n))
        return cls(len(rows), cols)

    @property
    def column_count(self):
        return len(self.columns)

    def row(self, i):
        return tuple(c[i] for c in self.columns)

    def rows(self):
        return [self.row(i) for i in range(self.row_count)]


def columns_multiset(m):
    """The multiset of columns of m (the matrix characteristic)."""
    return FiniteMultiset.from_tuples(m.row_count, m.columns)


def apply_op_rows(f, m):
    """Row-wise application: component i is f applied to row i of m."""
    if m.column_count != f.arity:
        raise GaloisKitError(
            f"matrix has {m.column_count} columns but f has arity {f.arity}"
        )
    k = f.domain_size
    if any(not 0 <= x < k for col in m.columns for x in col):
        raise GaloisKitError("argument out of domain range")
    return _apply_columns(f, m.columns)


def _row_ranks(k, columns):
    """The rank of each row of the matrix with these columns over domain
    size k, built column by column (leftmost column most significant), as
    a sequence."""
    ranks = columns[0]
    for col in columns[1:]:
        ranks = [r * k + x for r, x in zip(ranks, col)]
    return ranks


def _apply_columns(f, columns):
    """f applied row-wise to the matrix with these columns, unchecked.

    Each row's rank is read straight from ``f.table``; callers guarantee
    len(columns) == f.arity and entries below f.domain_size.
    """
    table = f.table
    return tuple([table[r] for r in _row_ranks(f.domain_size, columns)])


def _nondecreasing_selections(support, bound, cap, counts):
    """Every multiset over ``support`` with at most bound(t) copies of each
    tuple t and at most ``cap`` elements, each once, the empty one first.

    A multiset is yielded as its columns in support order (a
    nondecreasing index sequence), so the stream is in lexicographic
    order of support positions within each size: each selection comes
    right before its extensions.  The columns come as one live list and
    ``counts`` holds the multiplicities of the selection just yielded;
    neither is copied, so a step costs time in the support, not in the
    cardinality, and a caller that keeps the columns copies them.  The
    search keeps an explicit stack, so the depth of a selection is not
    limited by the recursion limit.
    """
    bounds = [bound(t) for t in support]
    chosen = []
    positions = []  # support index of each chosen tuple
    i = 0  # next support index to try after the current selection
    yield chosen
    while True:
        if len(chosen) < cap:
            while i < len(support) and counts.get(support[i], 0) >= bounds[i]:
                i += 1
            if i < len(support):
                t = support[i]
                counts[t] = counts.get(t, 0) + 1
                chosen.append(t)
                positions.append(i)
                yield chosen
                continue
        if not chosen:
            return
        t = chosen.pop()
        i = positions.pop() + 1
        if counts[t] > 1:
            counts[t] -= 1
        else:
            del counts[t]


def _prefixes(bounded, n, k, used, cols=(), ranks=None):
    """Every sequence of n columns from ``bounded`` after ``cols``, as
    ``(cols, ranks)``, with ``used`` counting its columns while it is
    current; ``ranks`` is None for the empty sequence."""
    if not n:
        yield cols, ranks
        return
    for col, b in bounded:
        c = used.get(col, 0)
        if c < b:
            used[col] = c + 1
            yield from _prefixes(bounded, n - 1, k, used, cols + (col,),
                                 col if ranks is None else [r * k + x for r, x in zip(ranks, col)])
            used[col] = c


def _ranked_selections(bounded, n, k, used, meter, phase):
    """Every sequence of n >= 1 columns from the ``(column, bound)`` pairs
    of ``bounded``, using each column at most its bound times, in
    lexicographic order of positions in ``bounded``, as ``(cols, ranks)``.

    ``ranks`` is the row-rank vector of the matrix with these columns
    over domain size k (leftmost column most significant), built one
    column at a time: a prefix's ranks are computed once, for all its
    extensions.  ``used`` counts the columns of the sequence just
    yielded.  Each sequence is one ``phase`` step of ``meter``, refused
    as ``Meter.counted`` refuses: as soon as the phase passes the budget,
    the steps taken charged once when the stream ends or is dropped.
    """
    left, taken = meter.budget - meter.done.get(phase, 0), 0
    try:
        # a one-column stream has only the empty prefix: no generator for it
        prefixes = _prefixes(bounded, n - 1, k, used) if n > 1 else [((), None)]
        for prefix, prefix_ranks in prefixes:
            for col, b in bounded:
                c = used.get(col, 0)
                if c < b:
                    taken += 1
                    if taken > left:  # refuse, leaving nothing to charge again
                        steps, taken = taken, 0
                        meter.charge(phase, steps)
                    used[col] = c + 1
                    yield prefix + (col,), (
                        col if prefix_ranks is None
                        else [r * k + x for r, x in zip(prefix_ranks, col)])
                    used[col] = c
    finally:
        if taken:
            meter.charge(phase, taken)


def _matrices(phi, n):
    """Every n-column matrix M < phi as ``(cols, ranks)``, columns chosen
    in lexicographic order position by position.

    ``ranks`` is the row-rank vector of M, so an operation f maps M to
    the tuple of f.table at those ranks.  Each matrix is a "constraint
    matrices" step of the open meter.
    """
    bounded = [(t, phi.value(t)) for t in phi.positive_support()]
    return _ranked_selections(bounded, n, phi.domain_size, {}, _current_meter(),
                              "constraint matrices")


def _splits(counts, n, k, used, meter):
    """Every ordered selection of n columns from the multiset with these
    counts over domain size k, as ``(cols, ranks)``; identical columns
    give one ordering.  ``used`` counts the columns of the selection just
    yielded, so the remainder is counts minus used.  Each selection is a
    "cluster splits" step of ``meter``.
    """
    bounded = sorted(counts.items())
    return _ranked_selections(bounded, n, k, used, meter, "cluster splits")


def enumerate_matrices_leq(phi, n):
    """All n-column matrices whose column multiset respects phi.

    Each m-tuple may appear as a column at most phi(tuple) times.
    Matrices are emitted once each, columns chosen in lexicographic
    order position by position (so the stream order is column-rank
    lexicographic and restartable).  Each matrix is a "constraint
    matrices" step of the open meter.
    """
    if n < 1:
        raise GaloisKitError("column count must be positive")
    for cols, _ in _matrices(phi, n):
        yield TupleMatrix(phi.arity, cols)


def split_enumerate(s, n):
    """All ordered selections of n columns from s with their remainders.

    Yields (matrix, remainder) pairs; the matrix column order is
    significant, the remainder is kept as a multiset.  Identical columns
    produce a single distinct ordering.  Empty stream if |s| < n.  Each
    selection is a "cluster splits" step of the open meter.
    """
    if n < 1:
        raise GaloisKitError("selection size must be positive")
    if s.cardinality < n:
        return
    counts, used = s.counts, {}
    k = 1 + max(max(t) for t in counts)  # an alphabet holding every entry
    for cols, _ in _splits(counts, n, k, used, _current_meter()):
        rest = {t: c - used.get(t, 0) for t, c in counts.items()}
        yield TupleMatrix(s.arity, cols), FiniteMultiset(s.arity, rest)
