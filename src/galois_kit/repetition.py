"""Repetition functions: maps from m-tuples to N union {inf}.

Stored as a default value plus a finite exception map, so a function
that is almost-everywhere 0 (or almost-everywhere inf) stays small even
when the tuple space k^m is large.  The representation is canonical:
exception entries equal to the default are dropped, and if the
exceptions happen to cover the whole tuple space the default is
re-derived, so structural equality coincides with pointwise equality.
"""

from itertools import product
from operator import itemgetter

from .errors import GaloisKitError, _check_entries, _check_int, _current_meter
from .extnat import INF, is_extnat, power_upto

__all__ = ["RepetitionFunction", "rf_leq"]


class RepetitionFunction:

    # _hash: None until first hashed; _ranks: None, or width -> what
    # ``multisets._rank_vectors`` compiled; _deletions: None, or what
    # ``_row_deletions`` built
    __slots__ = ("arity", "domain_size", "default", "exceptions", "_hash", "_ranks",
                 "_deletions")

    def __init__(self, arity, domain_size, default=0, exceptions=None):
        _check_int("arity", arity)
        _check_int("domain size", domain_size)
        if arity < 1 or domain_size < 1:
            raise GaloisKitError("arity and domain size must be positive")
        if not is_extnat(default):
            raise GaloisKitError(f"invalid default value {default!r}")
        exceptions = dict(exceptions or {})
        _check_entries("exception key", exceptions)
        for t, v in exceptions.items():
            if len(t) != arity or min(t) < 0 or max(t) >= domain_size:
                raise GaloisKitError(f"invalid exception key {t!r}")
            if not is_extnat(v):
                raise GaloisKitError(f"invalid exception value {v!r}")
        if default in exceptions.values():
            exceptions = {t: v for t, v in exceptions.items() if v != default}
        self._store(arity, domain_size, default, exceptions)

    def _store(self, arity, domain_size, default, exceptions):
        """Set the fields from valid parts whose exceptions hold no value
        equal to ``default``, in canonical form.  The checked constructor
        and the build that skips it (``clusters._antichain_cluster``) both
        end here, so both keep the canonical form.

        Canonical default: the most frequent value, ties going to the
        larger (inf the largest), so pointwise-equal functions are
        structurally equal even when the exceptions nearly cover the tuple
        space.  On more than twice the exceptions' count of tuples the
        default holds a strict majority, so only a smaller space, never
        k^m, is counted out.
        """
        twice = 2 * len(exceptions)
        space = power_upto(domain_size, arity, twice + 1)
        if space <= twice:
            hist = {default: space - len(exceptions)}
            for v in exceptions.values():
                hist[v] = hist.get(v, 0) + 1
            best = max(zip(hist.values(), hist))[1]
            if best != default:
                exceptions = {
                    t: exceptions.get(t, default)
                    for t in product(range(domain_size), repeat=arity)
                    if exceptions.get(t, default) != best
                }
                default = best
        self.arity = arity
        self.domain_size = domain_size
        self.default = default
        self.exceptions = exceptions
        self._hash = None
        self._ranks = None
        self._deletions = None

    @classmethod
    def constant(cls, arity, domain_size, value):
        return cls(arity, domain_size, default=value)

    @classmethod
    def from_counts(cls, arity, domain_size, counts):
        """Default-0 function from a tuple -> count map (e.g. a chi_M)."""
        return cls(arity, domain_size, default=0, exceptions=counts)

    def value(self, t):
        return self.exceptions.get(tuple(t), self.default)

    def all_tuples(self):
        return product(range(self.domain_size), repeat=self.arity)

    def positive_support(self):
        """Tuples with value > 0, in lexicographic order.

        When the default is positive this walks the whole tuple space, so
        its k^m tuples of m entries each are charged up front to the
        "support tuples" phase, one step per entry.
        """
        if self.default > 0:
            _current_meter().charge_power("support tuples", self.domain_size, self.arity,
                                          times=self.arity)
            return [t for t in self.all_tuples() if self.value(t) > 0]
        return sorted(t for t, v in self.exceptions.items() if v > 0)

    def total(self, limit=INF):
        """Sum of all values, with inf propagation, or ``limit`` if smaller.

        No tuple enumeration: k^m is built only as far as ``limit`` needs.
        """
        values = self.exceptions.values()
        # canonically the default is the most frequent value, so it is taken
        # at least once
        if self.default == INF or INF in values:
            return limit
        total = sum(values)
        if self.default:
            space = power_upto(self.domain_size, self.arity, limit + len(values) + 1)
            total += self.default * (space - len(values))
        return min(total, limit)

    def bounds(self, counts):
        """True iff every count is at most this function's value at its tuple.

        ``counts`` maps m-tuples to multiplicities, as in
        ``FiniteMultiset.counts``; this is the box test M < phi.
        """
        exceptions, default = self.exceptions, self.default
        return all(c <= exceptions.get(t, default) for t, c in counts.items())

    def __eq__(self, other):
        if not isinstance(other, RepetitionFunction):
            return NotImplemented
        return (self.arity == other.arity and self.domain_size == other.domain_size
                and self.default == other.default and self.exceptions == other.exceptions)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, self.domain_size, self.default,
                               frozenset(self.exceptions.items())))
        return self._hash

    def __repr__(self):
        exc = {t: v for t, v in sorted(self.exceptions.items())}
        return (
            f"RepetitionFunction(m={self.arity}, k={self.domain_size}, "
            f"default={self.default}, exceptions={exc})"
        )


def _row_deletions(phi):
    """phi's m >= 2 rows deleted in turn, as m pairs (psi, get): psi is
    the function of arity m - 1 that maps each (m-1)-tuple u to the sum
    of phi over the m-tuples that read u without entry i, and ``get``
    reads an m-tuple without its entry i, as a tuple.  So the columns of
    an M < phi with row i deleted are bounded by psi, and every M' < psi
    is such an M with row i deleted.  Built once, psi through the checked
    constructor, and kept in phi."""
    if phi._deletions is None:
        k, m, default, exceptions = phi.domain_size, phi.arity, phi.default, phi.exceptions
        deletions = []
        for i in range(m):
            counts = {}
            if default:  # each u an exception reads sums its k extensions
                for t in exceptions:
                    u = t[:i] + t[i + 1:]
                    if u not in counts:
                        counts[u] = sum([exceptions.get((*u[:i], x, *u[i:]), default)
                                         for x in range(k)])
            else:
                for t, v in exceptions.items():
                    u = t[:i] + t[i + 1:]
                    counts[u] = counts.get(u, 0) + v
            # on one entry left, a slice keeps the 1-tuple
            get = itemgetter(*[j for j in range(m) if j != i]) if m > 2 else itemgetter(
                slice(1 - i, 2 - i))
            deletions.append((RepetitionFunction(m - 1, k, k * default, counts), get))
        phi._deletions = tuple(deletions)
    return phi._deletions


def rf_leq(phi, phi2):
    """Pointwise comparison phi <= phi2."""
    if (phi.arity, phi.domain_size) != (phi2.arity, phi2.domain_size):
        raise GaloisKitError("repetition function arity/domain mismatch")
    if phi.default > phi2.default:
        return False
    keys = set(phi.exceptions) | set(phi2.exceptions)
    return all(phi.value(t) <= phi2.value(t) for t in keys)
