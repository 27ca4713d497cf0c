"""Finite multisets of m-tuples and matrices as column sequences.

A matrix is an ordered sequence of columns (m-tuples); its multiset of
columns forgets the order.  Row-wise application of an operation to a
matrix is the workhorse of every satisfaction check.
"""

from dataclasses import dataclass

from .errors import GaloisKitError

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
    right before its extensions.  ``counts`` holds the multiplicities of
    the selection just yielded.  The search keeps an explicit stack, so
    the depth of a selection is not limited by the recursion limit.
    """
    bounds = [bound(t) for t in support]
    chosen = []
    positions = []  # support index of each chosen tuple
    i = 0  # next support index to try after the current selection
    yield ()
    while True:
        if len(chosen) < cap:
            while i < len(support) and counts.get(support[i], 0) >= bounds[i]:
                i += 1
            if i < len(support):
                t = support[i]
                counts[t] = counts.get(t, 0) + 1
                chosen.append(t)
                positions.append(i)
                yield tuple(chosen)
                continue
        if not chosen:
            return
        t = chosen.pop()
        i = positions.pop() + 1
        if counts[t] > 1:
            counts[t] -= 1
        else:
            del counts[t]


def _ordered_selections(support, bound, n, used):
    """Every sequence of n >= 1 columns from ``support`` using each column
    t at most bound(t) times, in lexicographic order of support positions.

    ``used`` counts the columns of the sequence just yielded, so the
    caller can read the remainder off it before resuming the stream.
    """
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


def enumerate_matrices_leq(phi, n):
    """All n-column matrices whose column multiset respects phi.

    Each m-tuple may appear as a column at most phi(tuple) times.
    Matrices are emitted once each, columns chosen in lexicographic
    order position by position (so the stream order is column-rank
    lexicographic and restartable).
    """
    if n < 1:
        raise GaloisKitError("column count must be positive")
    for cols in _ordered_selections(phi.positive_support(), phi.value, n, {}):
        yield TupleMatrix(phi.arity, cols)


def split_enumerate(s, n):
    """All ordered selections of n columns from s with their remainders.

    Yields (matrix, remainder) pairs; the matrix column order is
    significant, the remainder is kept as a multiset.  Identical columns
    produce a single distinct ordering.  Empty stream if |s| < n.
    """
    if n < 1:
        raise GaloisKitError("selection size must be positive")
    if s.cardinality < n:
        return
    used = {}
    for cols in _ordered_selections(sorted(s.counts), s.counts.get, n, used):
        remainder = {t: c - used.get(t, 0) for t, c in s.counts.items()}
        yield TupleMatrix(s.arity, cols), FiniteMultiset(s.arity, remainder)
