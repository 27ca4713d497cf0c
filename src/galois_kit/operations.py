"""Finite operations as value tables, variable manipulations, and closures.

An operation f: {0..k_in-1}^n -> {0..k_out-1} is a flat table indexed by
the lexicographic rank of the input tuple, leftmost variable most
significant.  The five table rewrites zeta, tau, delta, nabla, star are
the classical variable manipulations: cyclic shift, transposition,
identification of the first two variables, dummy first variable, and
substitution into the first argument.
"""

from dataclasses import dataclass
from itertools import chain, permutations, product

from .errors import GaloisKitError, _current_meter
from .extnat import power_upto

__all__ = [
    "Operation",
    "OperationClass",
    "all_operations",
    "close_composition",
    "close_perm_dummy",
    "delta",
    "linear_class_fixture",
    "minor_by_injection",
    "nabla",
    "projection",
    "star",
    "tau",
    "zeta",
]


@dataclass(frozen=True, slots=True)
class Operation:
    """A total finitary function stored as a rank-indexed value table."""

    domain_size: int
    codomain_size: int
    arity: int
    table: tuple

    def __post_init__(self):
        if self.arity < 1:
            raise GaloisKitError("nullary operations are not supported")
        if self.domain_size < 1 or self.codomain_size < 1:
            raise GaloisKitError("domain sizes must be positive")
        table = self.table
        if len(table) != power_upto(self.domain_size, self.arity, len(table) + 1):
            raise GaloisKitError(
                f"table length {len(table)} != {self.domain_size}^{self.arity}"
            )
        if min(table) < 0 or max(table) >= self.codomain_size:
            raise GaloisKitError("table entry out of codomain range")
        object.__setattr__(self, "table", tuple(table))

    def rank(self, inputs):
        r = 0
        k = self.domain_size
        for x in inputs:
            r = r * k + x
        return r

    def __call__(self, *inputs):
        if len(inputs) == 1 and isinstance(inputs[0], (tuple, list)):
            inputs = tuple(inputs[0])
        if len(inputs) != self.arity:
            raise GaloisKitError(
                f"arity mismatch: got {len(inputs)} arguments for arity {self.arity}"
            )
        if any(not (0 <= x < self.domain_size) for x in inputs):
            raise GaloisKitError("argument out of domain range")
        return self.table[self.rank(inputs)]

    @classmethod
    def from_callable(cls, domain_size, codomain_size, arity, fn):
        table = tuple(
            fn(*xs) for xs in product(range(domain_size), repeat=arity)
        )
        return cls(domain_size, codomain_size, arity, table)


def projection(n, i, k):
    """The i-th n-ary projection (1-based i) over domain size k."""
    if not 1 <= i <= n:
        raise GaloisKitError(f"projection index {i} out of range 1..{n}")
    return Operation(k, k, n, tuple(_source_ranks(k, n, (i - 1,))))


def _source_ranks(k, arity, positions):
    """The source-rank map of g(x_0, ..., x_{arity-1}) = f(x_{p_1}, ..., x_{p_n}).

    ``positions`` lists one 0-based variable of g per argument of f; entry
    r of the map is the rank in f's table of the tuple that g's r-th input
    maps to, so g's table is f's table gathered at the map.
    """
    n = len(positions)
    weights = [0] * arity
    for j, p in enumerate(positions):
        weights[p] += k ** (n - 1 - j)
    ranks = [0]
    for w in weights:
        ranks = [r + x * w for r in ranks for x in range(k)]
    return ranks


def _gather(table, ranks):
    return tuple(map(table.__getitem__, ranks))


def _substitute(f, arity, positions):
    ranks = _source_ranks(f.domain_size, arity, positions)
    return Operation(f.domain_size, f.codomain_size, arity, _gather(f.table, ranks))


def _shift(n):
    """zeta's positions: f(x_2, ..., x_n, x_1)."""
    return (*range(1, n), 0)


def _swap(n):
    """tau's positions: f(x_2, x_1, x_3, ..., x_n)."""
    return (1, 0, *range(2, n))


def zeta(op):
    """Cyclic shift: (zeta f)(x1, ..., xn) = f(x2, ..., xn, x1)."""
    if op.arity == 1:
        return op
    return _substitute(op, op.arity, _shift(op.arity))


def tau(op):
    """Transposition: (tau f)(x1, x2, ...) = f(x2, x1, ...)."""
    if op.arity == 1:
        return op
    return _substitute(op, op.arity, _swap(op.arity))


def delta(op):
    """Identification: (delta f)(x1, ..., x_{n-1}) = f(x1, x1, x2, ...)."""
    if op.arity == 1:
        return op
    return _substitute(op, op.arity - 1, (0, *range(op.arity - 1)))


def nabla(op):
    """Dummy variable: (nabla f)(x1, ..., x_{n+1}) = f(x2, ..., x_{n+1})."""
    return _substitute(op, op.arity + 1, range(1, op.arity + 1))


def _rows(table, k):
    """f's table cut into its k rows, one per value of the first argument."""
    rest = len(table) // k
    return [table[v * rest:(v + 1) * rest] for v in range(k)]


def _star_table(f_rows, g_table):
    """The table of f * g: entry i * k^(n-1) + j is f[g[i] * k^(n-1) + j]."""
    return tuple(chain.from_iterable(map(f_rows.__getitem__, g_table)))


def star(f, g):
    """Substitution into the first argument.

    (f * g)(x_1, ..., x_{m+n-1}) = f(g(x_1, ..., x_m), x_{m+1}, ...)
    where g is m-ary and f is n-ary.  Entry i * k^(n-1) + j of the result
    is entry g(i) * k^(n-1) + j of f.
    """
    if g.codomain_size != f.domain_size:
        raise GaloisKitError("codomain of g must equal domain of f")
    if g.domain_size != f.domain_size:
        raise GaloisKitError("star requires equal domain sizes")
    table = _star_table(_rows(f.table, f.domain_size), g.table)
    return Operation(f.domain_size, f.codomain_size, g.arity + f.arity - 1, table)


def minor_by_injection(f, sigma, target_arity):
    """g(x_1, ..., x_N) = f(x_{sigma(1)}, ..., x_{sigma(n)}).

    ``sigma`` is a sequence of 1-based positions in 1..target_arity, one
    per argument of f; it must be injective.  This is the combined
    permutation-plus-dummy form of variable manipulation.
    """
    sigma = tuple(sigma)
    if len(sigma) != f.arity:
        raise GaloisKitError("sigma must have one entry per argument of f")
    if len(set(sigma)) != len(sigma):
        raise GaloisKitError("sigma must be injective")
    if any(not 1 <= s <= target_arity for s in sigma):
        raise GaloisKitError("sigma value out of range")
    return _substitute(f, target_arity, [s - 1 for s in sigma])


class OperationClass:
    """Per-arity sets of operations with a fixed domain and codomain.

    Members are deduplicated by table equality; iteration is in the
    canonical order (arity ascending, table lexicographic ascending).
    """

    __slots__ = ("domain_size", "codomain_size", "_by_arity")

    def __init__(self, domain_size, codomain_size=None, members=()):
        self.domain_size = domain_size
        self.codomain_size = codomain_size if codomain_size is not None else domain_size
        self._by_arity = {}
        for op in members:
            self.add(op)

    def add(self, op):
        if op.domain_size != self.domain_size or op.codomain_size != self.codomain_size:
            raise GaloisKitError("operation domain/codomain mismatch with class")
        self._by_arity.setdefault(op.arity, {})[op.table] = op

    def arity_part(self, n):
        return [self._by_arity[n][t] for t in sorted(self._by_arity.get(n, {}))]

    def arities(self):
        return sorted(self._by_arity)

    @property
    def max_arity(self):
        return max(self._by_arity) if self._by_arity else 0

    def __iter__(self):
        for n in sorted(self._by_arity):
            for t in sorted(self._by_arity[n]):
                yield self._by_arity[n][t]

    def __len__(self):
        return sum(len(d) for d in self._by_arity.values())

    def __contains__(self, op):
        return (
            op.domain_size == self.domain_size
            and op.codomain_size == self.codomain_size
            and op.table in self._by_arity.get(op.arity, {})
        )

    def __eq__(self, other):
        if not isinstance(other, OperationClass):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and self.codomain_size == other.codomain_size
            and {n: set(d) for n, d in self._by_arity.items() if d}
            == {n: set(d) for n, d in other._by_arity.items() if d}
        )

    def __le__(self, other):
        return all(op in other for op in self)

    def __repr__(self):
        sizes = {n: len(d) for n, d in sorted(self._by_arity.items())}
        return f"OperationClass(k={self.domain_size}->{self.codomain_size}, {sizes})"


def all_operations(k, arity, codomain_size=None):
    """All operations of the given arity over domain size k, canonical order."""
    k_out = codomain_size if codomain_size is not None else k
    for table in product(range(k_out), repeat=k ** arity):
        yield Operation(k, k_out, arity, table)


def close_perm_dummy(cls_, arity_cap):
    """Least superclass closed under permutation and dummy variables, arity <= cap.

    Equivalently all minor_by_injection images with target arity <= cap;
    one pass suffices because injections compose to injections.
    """
    if cls_.max_arity > arity_cap:
        raise GaloisKitError("arity cap below an existing member arity")
    out = OperationClass(cls_.domain_size, cls_.codomain_size)
    meter = _current_meter()
    for f in cls_:
        for target in range(f.arity, arity_cap + 1):
            for sigma in permutations(range(1, target + 1), f.arity):
                meter.charge("closure", cls_.domain_size ** target)
                out.add(minor_by_injection(f, sigma, target))
    return out


def close_composition(cls_, arity_cap):
    """Fixpoint closure under zeta, tau, nabla, star with all projections.

    Only zeta, tau and star are applied: nabla f = f * p, with p the second
    binary projection, so a star already adds each dummy variable.
    All intermediate arities stay <= arity_cap, and the closure is exact at
    every arity up to the cap: no rewrite lowers arity (f * g is (m+n-1)-ary),
    so an n-ary member is derived through arities <= n only.

    The worklist holds raw tables, kept by arity.  A popped n-ary f is
    composed only with itself and, in both orders, with the members popped
    before it of arity <= cap - n + 1: any later member meets f when it is
    popped, and every other pair is over the cap.  An ``Operation`` is
    built once per member, at the end.
    """
    if cls_.domain_size != cls_.codomain_size:
        raise GaloisKitError("composition closure requires domain == codomain")
    if arity_cap < 1 or cls_.max_arity > arity_cap:
        raise GaloisKitError("invalid arity cap")
    k = cls_.domain_size
    members = {n: {} for n in range(1, arity_cap + 1)}  # arity -> {table: None}
    worklist = []
    meter = _current_meter()

    def add(n, table):
        if table not in members[n]:
            members[n][table] = None
            worklist.append((n, table))

    def push(n, table):
        meter.charge("closure", len(table))
        add(n, table)

    for n in range(1, arity_cap + 1):
        for i in range(n):
            meter.charge_power("closure", k, n)  # before its k^n entries are built
            add(n, tuple(_source_ranks(k, n, (i,))))
    # the source-rank maps of zeta and tau on n-ary members, built once
    # every projection is charged, so no map outgrows the charges; both
    # are the identity at n = 1 and agree at n = 2
    rewrites = {
        n: [_source_ranks(k, n, p) for p in dict.fromkeys((_shift(n), _swap(n)))]
        for n in range(2, arity_cap + 1)
    }
    for op in cls_:
        push(op.arity, op.table)

    popped = {n: [] for n in range(1, arity_cap + 1)}  # arity -> [(table, rows)]
    while worklist:
        n, f = worklist.pop()
        for ranks in rewrites.get(n, ()):
            push(n, _gather(f, ranks))
        f_rows = _rows(f, k)
        popped[n].append((f, f_rows))
        partners = [(m, g) for m in range(1, arity_cap - n + 2) for g in popped[m]]
        meter.charge("closure", len(partners))
        for m, (g, g_rows) in partners:
            push(n + m - 1, _star_table(f_rows, g))
            if g is not f:
                push(n + m - 1, _star_table(g_rows, f))

    out = OperationClass(k, k)
    for n, tables in members.items():
        for table in tables:
            out.add(Operation(k, k, n, table))
    return out


def _is_prime(k):
    if k < 2:
        return False
    return all(k % d for d in range(2, int(k ** 0.5) + 1))


def linear_class_fixture(k, p, arity_cap):
    """Linear functions sum(c_i * x_i) mod k with nonzero-coefficient count = 1 mod p.

    Requires prime k and p >= 2; the combination p = 2 with k = 2 is
    rejected (there the class degenerates and is closed under
    identification, defeating its purpose as a fixture).
    """
    if not _is_prime(k):
        raise GaloisKitError(f"k={k} must be prime for field arithmetic")
    if p < 2:
        raise GaloisKitError("p must be at least 2")
    if p == 2 and k == 2:
        raise GaloisKitError("the combination p=2, k=2 is excluded")
    out = OperationClass(k, k)
    for n in range(1, arity_cap + 1):
        for coeffs in product(range(k), repeat=n):
            nonzero = sum(1 for c in coeffs if c)
            if nonzero % p != 1 % p:
                continue
            out.add(
                Operation.from_callable(
                    k, k, n,
                    lambda *xs, cs=coeffs: sum(c * x for c, x in zip(cs, xs)) % k,
                )
            )
    return out
