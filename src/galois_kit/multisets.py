"""Finite multisets of m-tuples and matrices as column sequences.

A matrix is an ordered sequence of columns (m-tuples); its multiset of
columns forgets the order.  Row-wise application of an operation to a
matrix is the workhorse of every satisfaction check.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, itemgetter

from .errors import (
    GaloisKitError, _check_entries, _check_int, _current_meter, _refuse_non_sequence,
)
from .extnat import INF
from .operations import _gather

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
        _check_int("multiset arity", arity)
        if arity < 1:
            raise GaloisKitError("multiset arity must be positive")
        try:
            counts = dict(counts or {})
        except (TypeError, ValueError):
            raise GaloisKitError(f"multiset counts {counts!r} is not a mapping of tuples "
                                 "to multiplicities") from None
        try:
            # a zero that is not an int is kept, for the check below to refuse
            counts = {tuple(t): c for t, c in counts.items() if c or not isinstance(c, int)}
        except TypeError:
            _refuse_non_sequence("multiset key", counts)
            raise
        _check_entries("multiset key", counts)
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
        _check_int("row count", self.row_count)
        if self.row_count < 1:
            raise GaloisKitError("a matrix needs at least one row")
        try:
            cols = tuple([tuple(c) for c in self.columns])
        except TypeError:
            try:
                iter(self.columns)
            except TypeError:
                raise GaloisKitError(
                    f"matrix columns {self.columns!r} is not a sequence of columns") from None
            _refuse_non_sequence("matrix column", self.columns)
            raise
        _check_entries("matrix column", cols)
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
    return _gather(f.table, _row_ranks(k, m.columns))


def _row_ranks(k, columns):
    """The rank of each row of the matrix with these columns over domain
    size k, built column by column (leftmost column most significant), as
    a sequence."""
    ranks = columns[0]
    for col in columns[1:]:
        ranks = [r * k + x for r, x in zip(ranks, col)]
    return ranks


def _compiled(generators):
    """The ``(box, cap)`` pairs of ``generators`` as bitmasks, bit i
    standing for the i-th pair, as ``(caps, allows, exact)``.

    The pairs come in ascending cap order, so the generators whose cap
    admits a size are a suffix of ``caps``.  ``allows`` maps each tuple
    some box of cap >= 1 allows to those of its generators whose box
    allows one copy of it, and ``exact`` maps it to ``{c: generators
    whose box allows exactly c copies}`` for each finite c > 0.  Built in
    one pass over the positive supports of the boxes of cap >= 1.
    """
    caps, allows, exact = [], {}, {}
    for i, (box, cap) in enumerate(generators):
        bit = 1 << i
        exceptions, default = box.exceptions, box.default
        caps.append(cap)
        if not cap:  # it admits only the empty multiset, which every walk yields
            continue
        # canonically, a default-0 box has only positive exceptions
        support = (exceptions.items() if not default else
                   [(t, exceptions.get(t, default)) for t in box.positive_support()])
        for t, v in support:
            if t in allows:
                allows[t] |= bit
            else:
                allows[t], exact[t] = bit, {}
            if v != INF:
                at = exact[t]
                at[v] = at.get(v, 0) | bit
    return caps, allows, exact


def _walk(caps, allows, exact, top, counts, chosen):
    """Every multiset of cardinality <= top that some ``_compiled``
    generator admits, each once, the empty one first, as its live mask:
    the generators that admit it.

    The multisets are the selections over the union of the supports in
    nondecreasing support order, so each selection comes right before its
    extensions; a selection is extended only while the AND of its tuples'
    masks and the cap suffix is non-zero, and the union of the boxes is
    downward closed, so none is missed.  ``chosen`` holds the tuples of the
    selection just yielded, in that order, and ``counts`` their
    multiplicities, in sorted tuple order; neither is copied.  The walk
    scans one sorted candidate list, the tuples with their masks, skipping
    those no live generator allows, and keeps an explicit stack.
    """
    if not caps:
        return
    low = caps[0]  # below the smallest cap, no cap drops a generator
    cands, width = sorted(allows.items()), len(allows)  # (tuple, its mask)
    frames = []  # (index of the chosen tuple in cands, live before it)
    i, live = 0, (1 << len(caps)) - 1
    yield live
    while True:
        size, new = len(chosen), 0
        if size < top:
            # only generators whose cap admits size + 1 stay live
            keep = live
            if size >= low:
                j = bisect_left(caps, size + 1)
                keep = keep >> j << j
            while keep and i < width:
                t, mask = cands[i]
                c = counts.get(t, 0)
                # every live box allows c copies of t: drop those allowing no more
                new = keep & ~exact[t].get(c, 0) if c else keep & mask
                if new:
                    break
                i += 1
        if new:
            counts[t] = c + 1
            chosen.append(t)
            frames.append((i, live))
            live = new
            yield live
            continue
        if not frames:
            return
        i, live = frames.pop()
        t = chosen.pop()
        i += 1
        if counts[t] > 1:
            counts[t] -= 1
        else:
            del counts[t]


def _matrices(phi, n):
    """Every n-column matrix M < phi as ``(prefix, col, ranks)``: its
    first n - 1 columns, its last one and an iterator over its row ranks
    (leftmost column most significant), columns chosen in lexicographic
    order position by position.

    The prefixes are the ``_split_selections`` of n - 1 positions in phi's
    positive support, each used at most min(phi(t), n) times, and each is
    extended by every column that has room left.  A prefix's ranks are
    computed once for all its extensions, carried times k.  An operation
    f maps M to the tuple of f.table at the ranks.  Each matrix is a
    "constraint matrices" step of ``Meter.counted``; nothing, not even
    the support, is charged before the first matrix is drawn.
    """
    return _current_meter().counted("constraint matrices", _unmetered_matrices(phi, n))


def _unmetered_matrices(phi, n):
    """The stream of ``_matrices``, uncharged but for the support."""
    support = phi.positive_support()
    shape = tuple([min(phi.value(t), n) for t in support])
    k = phi.domain_size
    for _, _, positions in _split_selections(shape, n - 1) if n > 1 else [(0, 0, ())]:
        free = list(shape)
        for p in positions:
            free[p] -= 1
        prefix = tuple([support[p] for p in positions])
        scaled = [k * r for r in _row_ranks(k, prefix)] if prefix else None
        for col, left in zip(support, free):
            if left:
                yield prefix, col, col if scaled is None else map(add, scaled, col)


# the phases _matrices charges, whose steps phi._ranks keeps
_COMPILE_PHASES = ("support tuples", "constraint matrices")


def _rank_vectors(phi, n):
    """The row ranks of every n-column matrix M < phi, grouped by their
    largest rank, as ``(r, getters)`` pairs: ``getters`` holds one
    ``itemgetter`` of the ranks of each matrix whose largest row rank is
    r, in ``_matrices`` order, and reads an operation's image of M off
    its table (on one rank, as the bare entry).

    The cold compile: it streams ``_matrices`` and keeps, in phi, by width,
    its steps, ``{phase: steps}`` of ``_COMPILE_PHASES``, and the groups,
    for ``_rank_checks``.
    """
    with _current_meter() as meter:  # the stream charges the open meter, or this new one
        done = meter.done
        before = [done.get(phase, 0) for phase in _COMPILE_PHASES]
        groups = {}  # largest rank -> the getters of the rank vectors there
        for _, _, ranks in _matrices(phi, n):
            ranks = tuple(ranks)
            groups.setdefault(max(ranks), []).append(itemgetter(*ranks))
    groups = tuple([(r, tuple(getters)) for r, getters in groups.items()])
    if phi._ranks is None:
        phi._ranks = {}
    phi._ranks[n] = {p: done.get(p, 0) - b for p, b in zip(_COMPILE_PHASES, before)}, groups
    return groups


def _rank_checks(consequents, n):
    """The checks that an operation maps every n-column matrix M < phi
    into ``allowed``, for each ``(phi, allowed)`` of ``consequents``, as a
    dict from a row rank to the checks whose largest rank it is, in the
    order of ``consequents`` and then of ``_matrices``: each check pairs a
    getter of ``_rank_vectors`` with the images it must read.  A getter of
    one rank reads the bare entry, so a one-row phi's allowed 1-tuples
    are unwrapped to their entries here.

    A phi that keeps its width-n groups reads them if its kept steps fit
    the budget (``Meter.charge_kept``).  Any other phi is compiled by
    ``_rank_vectors``, so a kept read that does not fit refuses as the
    first read did: in the same phase, at the same count.
    """
    meter = _current_meter()
    checks = {}  # rank -> the checks whose largest rank it is
    for phi, allowed in consequents:
        kept = phi._ranks and phi._ranks.get(n)
        if kept and meter.charge_kept(kept[0]):
            by_rank = kept[1]
        else:
            by_rank = _rank_vectors(phi, n)
        if phi.arity == 1:
            allowed = frozenset([x for x, in allowed])
        for r, getters in by_rank:
            checks.setdefault(r, []).extend(zip(getters, repeat(allowed)))
    return checks


def _split_selections(shape, n):
    """Every ordered selection of n >= 1 positions from a multiset with
    this count shape, position i used at most shape[i] times, in
    lexicographic order of positions, as ``(q, p, positions)``: q is the
    index of its first n - 1 positions among the distinct such prefixes,
    in order (0 when n = 1), and p its last position.

    A member's count shape is the tuple of min(count, n) over its distinct
    tuples in sorted order, so members of one shape have the same
    selections.
    """
    if sum(shape) < n:  # no selection; otherwise every prefix reaches one
        return
    free, prefix, width = list(shape), [], len(shape)
    d = p = 0  # the depth being chosen, and the first position to try there
    q = 0 if n == 1 else -1  # the index of the last prefix of n - 1 positions
    while True:
        while p < width and not free[p]:
            p += 1
        if p == width:  # no position left at depth d: back up one
            if not d:
                return
            d -= 1
            p = prefix.pop()
            free[p] += 1
            p += 1
        elif d == n - 1:
            yield q, p, (*prefix, p)
            p += 1
        else:
            free[p] -= 1
            prefix.append(p)
            if d == n - 2:
                q += 1
            d, p = d + 1, 0


def _split_orders(shape, n, limit=None):
    """The first ``limit`` ``_split_selections`` of this shape, all of
    them when ``limit`` is None: a list to be read by every member of
    the shape."""
    return list(islice(_split_selections(shape, n), limit))


def enumerate_matrices_leq(phi, n):
    """All n-column matrices whose column multiset respects phi.

    Each m-tuple may appear as a column at most phi(tuple) times.
    Matrices are emitted once each, columns chosen in lexicographic
    order position by position (so the stream order is column-rank
    lexicographic and restartable).  Each matrix is a "constraint
    matrices" step of the open meter.
    """
    _check_int("column count", n, positive=True)
    for prefix, col, _ in _matrices(phi, n):
        yield TupleMatrix(phi.arity, (*prefix, col))


def split_enumerate(s, n):
    """All ordered selections of n columns from s with their remainders.

    Yields (matrix, remainder) pairs; the matrix column order is
    significant, the remainder is kept as a multiset.  Identical columns
    produce a single distinct ordering.  Empty stream if |s| < n.  Each
    selection is a "cluster splits" step of the open meter.
    """
    _check_int("selection size", n, positive=True)
    if s.cardinality < n:
        return
    items = sorted(s.counts.items())
    shape = tuple([min(c, n) for _, c in items])
    tuples = [t for t, _ in items]
    selections = _split_selections(shape, n)
    for _, _, positions in _current_meter().counted("cluster splits", selections):
        rest = dict(items)
        for p in positions:
            rest[tuples[p]] -= 1
        yield (TupleMatrix(s.arity, tuple([tuples[p] for p in positions])),
               FiniteMultiset(s.arity, rest))
