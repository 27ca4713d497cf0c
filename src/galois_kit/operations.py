"""Finite operations as value tables, variable manipulations, and closures.

An operation f: {0..k_in-1}^n -> {0..k_out-1} is a flat table indexed by
the lexicographic rank of the input tuple, leftmost variable most
significant.  The five table rewrites zeta, tau, delta, nabla, star are
the classical variable manipulations: cyclic shift, transposition,
identification of the first two variables, dummy first variable, and
substitution into the first argument.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product

from .errors import GaloisKitError, _check_entries, _check_int, _current_meter, _iterate
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
        _check_int("domain size", self.domain_size)
        _check_int("codomain size", self.codomain_size)
        _check_int("arity", self.arity)
        if self.arity < 1:
            raise GaloisKitError("nullary operations are not supported")
        if self.domain_size < 1 or self.codomain_size < 1:
            raise GaloisKitError("domain sizes must be positive")
        table = self.table
        try:
            length = len(table)
        except TypeError:
            raise GaloisKitError(f"table {table!r} is not a sequence") from None
        if length != power_upto(self.domain_size, self.arity, length + 1):
            raise GaloisKitError(f"table length {length} != {self.domain_size}^{self.arity}")
        _check_entries("table", (table,))
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
        try:
            if any(not (0 <= x < self.domain_size) for x in inputs):
                raise GaloisKitError("argument out of domain range")
            return self.table[self.rank(inputs)]
        except TypeError:
            x = next((x for x in inputs if not isinstance(x, int)), None)
            if x is None:
                raise
            raise GaloisKitError(f"argument {x!r} is not an int") from None

    @classmethod
    def from_callable(cls, domain_size, codomain_size, arity, fn):
        table = tuple(
            fn(*xs) for xs in product(range(domain_size), repeat=arity)
        )
        return cls(domain_size, codomain_size, arity, table)


def projection(n, i, k):
    """The i-th n-ary projection (1-based i) over domain size k."""
    _check_int("arity", n)
    _check_int("projection index", i)
    _check_int("domain size", k)
    if not 1 <= i <= n:
        raise GaloisKitError(f"projection index {i} out of range 1..{n}")
    return Operation(k, k, n, _source_ranks(k, n, (i - 1,)))


# a source-rank map of at most this many entries is kept: its entries are
# then below 256, ints the interpreter shares, so a kept map costs only
# its pointers and the memo at most 256 * 256 * 8 bytes = 512 KB.  The
# workloads' maps have at most 9 entries, 22 keys for a roundtrip batch.
_KEPT_LENGTH = 256


def _source_ranks(k, arity, positions):
    """The source-rank map of g(x_0, ..., x_{arity-1}) = f(x_{p_1}, ..., x_{p_n}).

    ``positions`` is a tuple of one 0-based variable of g per argument of
    f; entry r of the map is the rank in f's table of the tuple that g's
    r-th input maps to, so g's table is f's table gathered at the map.
    The map depends on no class, so a short one is kept (see
    ``_kept_source_ranks``); a longer one is built on each call.
    """
    if k ** arity <= _KEPT_LENGTH:
        return _kept_source_ranks(k, arity, positions)
    return _build_source_ranks(k, arity, positions)


@lru_cache(maxsize=256)
def _kept_source_ranks(k, arity, positions):
    """``_source_ranks`` for maps of at most ``_KEPT_LENGTH`` entries: each
    built once and kept, only the most recent 256."""
    return _build_source_ranks(k, arity, positions)


def _build_source_ranks(k, arity, positions):
    n = len(positions)
    weights = [0] * arity
    for j, p in enumerate(positions):
        weights[p] += k ** (n - 1 - j)
    ranks = [0]
    for w in weights:
        ranks = [r + x * w for r in ranks for x in range(k)]
    return tuple(ranks)


def _gather(table, ranks):
    # built from a list, as the kernels build theirs: a tuple of an
    # iterator is sized twice, and its dropped copies crowd the free lists
    return tuple([*map(table.__getitem__, ranks)])


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
    return _substitute(op, op.arity + 1, tuple(range(1, op.arity + 1)))


def _rows(table, k):
    """f's table cut into its k rows, one per value of the first argument."""
    rest = len(table) // k
    return [table[v * rest:(v + 1) * rest] for v in range(k)]


def _star_table(f_rows, g_table):
    """The table of f * g: entry i * k^(n-1) + j is f[g[i] * k^(n-1) + j]."""
    return tuple([*chain.from_iterable(map(f_rows.__getitem__, g_table))])


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
    _check_int("target arity", target_arity)
    _check_entries("sigma", (sigma,))
    if len(sigma) != f.arity:
        raise GaloisKitError("sigma must have one entry per argument of f")
    if len(set(sigma)) != len(sigma):
        raise GaloisKitError("sigma must be injective")
    if any(not 1 <= s <= target_arity for s in sigma):
        raise GaloisKitError("sigma value out of range")
    return _substitute(f, target_arity, tuple([s - 1 for s in sigma]))


class OperationClass:
    """Operations with a fixed domain and codomain, kept as bare value tables.

    One dict maps each member table, stored as its ``_code``, to the
    bitmask of the arities holding it: a code names one table per arity
    (the table of k^n entries), and over a one-letter domain every arity
    shares its tables.  Members are deduplicated by table equality; the
    public reads build each ``Operation`` through its checked
    constructor, in the canonical order (arity ascending, table
    lexicographic ascending, which is code order).  The closure kernels
    read a class through ``_pairs``, and tables are added through
    ``_add``.
    """

    __slots__ = ("domain_size", "codomain_size", "_arities")

    def __init__(self, domain_size, codomain_size=None, members=()):
        self.domain_size = domain_size
        self.codomain_size = codomain_size if codomain_size is not None else domain_size
        _check_int("domain size", domain_size, positive=True)
        _check_int("codomain size", self.codomain_size, positive=True)
        self._arities = {}  # table code -> bit n set for each arity n holding it
        for op in _iterate("class members", members):
            self.add(op)

    def add(self, op):
        if not isinstance(op, Operation):
            raise GaloisKitError(f"class member {op!r} is not an operation")
        if op.domain_size != self.domain_size or op.codomain_size != self.codomain_size:
            raise GaloisKitError("operation domain/codomain mismatch with class")
        self._add(op.arity, op.table)

    def _add(self, n, table):
        """Add the n-ary member with this table, valid for the class's alphabet."""
        code = _code(table, self.codomain_size)
        self._arities[code] = self._arities.get(code, 0) | 1 << n

    def _tables(self, n):
        """The tables of the n-ary members, in order."""
        bit, k_out, length = 1 << n, self.codomain_size, self.domain_size ** n
        return [_table(code, k_out, length)
                for code in sorted([c for c, mask in self._arities.items() if mask & bit])]

    def _pairs(self):
        """Every member as (arity, table), in the canonical order."""
        return [(n, table) for n in self.arities() for table in self._tables(n)]

    def arity_part(self, n):
        k, k_out = self.domain_size, self.codomain_size
        return [Operation(k, k_out, n, t) for t in self._tables(n)]

    def arities(self):
        held = 0
        for mask in self._arities.values():
            held |= mask
        return [n for n in range(held.bit_length()) if held >> n & 1]

    @property
    def max_arity(self):
        arities = self.arities()
        return arities[-1] if arities else 0

    def __iter__(self):
        k, k_out = self.domain_size, self.codomain_size
        for n, t in self._pairs():
            yield Operation(k, k_out, n, t)

    def __len__(self):
        return sum(mask.bit_count() for mask in self._arities.values())

    def __contains__(self, op):
        return (
            op.domain_size == self.domain_size
            and op.codomain_size == self.codomain_size
            and self._arities.get(_code(op.table, self.codomain_size), 0) >> op.arity & 1 == 1
        )

    def __eq__(self, other):
        if not isinstance(other, OperationClass):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and self.codomain_size == other.codomain_size
            and self._arities == other._arities
        )

    def __le__(self, other):
        return all(op in other for op in self)

    def __repr__(self):
        sizes = {n: sum(mask >> n & 1 for mask in self._arities.values())
                 for n in self.arities()}
        return f"OperationClass(k={self.domain_size}->{self.codomain_size}, {sizes})"


def _code(table, k_out):
    """The table's entries read as one base-k_out numeral, first entry
    most significant: tables of one length compare as their codes do."""
    code = 0
    for x in table:
        code = code * k_out + x
    return code


def _table(code, k_out, length):
    """The table of ``length`` entries whose ``_code`` is ``code``."""
    entries = [0] * length
    for i in range(length - 1, -1, -1):
        code, entries[i] = divmod(code, k_out)
    return tuple(entries)


def all_operations(k, arity, codomain_size=None):
    """All operations of the given arity over domain size k, canonical order.

    Once the sizes are checked, every table of ``product`` is valid by
    construction: k^arity int entries in range.  So each ``Operation``
    is built without running its checks again, the one place in the
    package that skips the checked constructor, and a candidate that
    ``c_pol`` sweeps costs a bare object.
    """
    k_out = codomain_size if codomain_size is not None else k
    _check_int("domain size", k, positive=True)
    _check_int("codomain size", k_out, positive=True)
    _check_int("arity", arity, positive=True)
    new = object.__new__
    # each slot set through its descriptor, past the frozen __setattr__
    put_k, put_k_out = Operation.domain_size.__set__, Operation.codomain_size.__set__
    put_arity, put_table = Operation.arity.__set__, Operation.table.__set__
    for table in product(range(k_out), repeat=k ** arity):
        op = new(Operation)
        put_k(op, k)
        put_k_out(op, k_out)
        put_arity(op, arity)
        put_table(op, table)
        yield op


def _check_arity_cap(arity_cap):
    """Refuse an arity cap that is not an int, or one below 0."""
    if not isinstance(arity_cap, int) or isinstance(arity_cap, bool):
        raise GaloisKitError(f"arity cap must be an int, not {arity_cap!r}")
    if arity_cap < 0:
        raise GaloisKitError(f"arity cap must be nonnegative, not {arity_cap}")


def close_perm_dummy(cls_, arity_cap):
    """Least superclass closed under permutation and dummy variables, arity <= cap.

    Equivalently all minor_by_injection images with target arity <= cap;
    one pass suffices because injections compose to injections.  A cap
    below a member's arity is refused; the tables come from
    ``_perm_dummy_tables``.
    """
    _check_arity_cap(arity_cap)
    if cls_.max_arity > arity_cap:
        raise GaloisKitError("arity cap below an existing member arity")
    return _class_of(cls_.domain_size, cls_.codomain_size, _perm_dummy_tables(cls_, arity_cap))


def _perm_dummy_tables(cls_, arity_cap):
    """The tables of ``close_perm_dummy`` at the larger of ``arity_cap``
    and the class's largest arity, as {arity: sorted tables}, holding
    only the arities that have members.  The members are read once,
    through ``_pairs``, which gives that arity too.

    Each image is taken as k^target "closure" steps against the meter's
    room, then gathered as a raw table, and the steps are charged once:
    a refusal comes at the image whose steps pass the budget, with none
    gathered past it.  The images of one member come target arity by
    target arity, injection by injection.
    """
    pairs = cls_._pairs()
    arity_cap = max(arity_cap, pairs[-1][0] if pairs else 0)
    k = cls_.domain_size
    found = {}  # arity -> its tables
    meter = _current_meter()
    room, taken = meter.room("closure"), 0
    for n, table in pairs:
        for target in range(n, arity_cap + 1):
            add = found.setdefault(target, set()).add
            steps = k ** target
            for positions in permutations(range(target), n):
                taken += steps
                if taken > room:
                    meter.charge("closure", taken)  # refuses
                add(_gather(table, _source_ranks(k, target, positions)))
    if taken:
        meter.charge("closure", taken)
    return {n: sorted(tables) for n, tables in sorted(found.items())}


def close_composition(cls_, arity_cap):
    """Fixpoint closure under zeta, tau, nabla, star with all projections,
    at arities <= arity_cap.  A cap below 1 or below a member's arity is
    refused; the tables come from ``_composition_tables``."""
    if cls_.domain_size != cls_.codomain_size:
        raise GaloisKitError("composition closure requires domain == codomain")
    _check_arity_cap(arity_cap)
    if arity_cap < 1 or cls_.max_arity > arity_cap:
        raise GaloisKitError("invalid arity cap")
    return _class_of(cls_.domain_size, cls_.codomain_size, _composition_tables(cls_, arity_cap))


def _composition_tables(cls_, arity_cap):
    """The tables of ``close_composition`` at the larger of ``arity_cap``
    and the class's largest arity, as {arity: sorted tables}, for every
    arity from 1 to that cap.  The members are read once, through
    ``_pairs``, which gives that arity too.

    Only zeta, tau and star are applied: nabla f = f * p, with p the second
    binary projection, so a star already adds each dummy variable.
    All intermediate arities stay <= arity_cap, and the closure is exact at
    every arity up to the cap: no rewrite lowers arity (f * g is (m+n-1)-ary),
    so an n-ary member is derived through arities <= n only.

    The worklist holds raw tables, kept by arity.  A popped n-ary f is
    composed only with itself and, in both orders, with the members popped
    before it of arity <= cap - n + 1: any later member meets f when it is
    popped, and every other pair is over the cap.  The projections are
    charged arity by arity, before their entries are built; every later
    step, a table pushed or a partner list, is taken against the meter's
    room and charged once, at the end, so a refusal comes at the same
    count as a charge per step.
    """
    if cls_.domain_size != cls_.codomain_size:
        raise GaloisKitError("composition closure requires domain == codomain")
    pairs = cls_._pairs()
    arity_cap = max(arity_cap, pairs[-1][0] if pairs else 0)
    k = cls_.domain_size
    members = {}  # arity -> {table: None}, each made as its projections are charged
    worklist = []
    meter = _current_meter()

    def add(n, table):
        if table not in members[n]:
            members[n][table] = None
            worklist.append((n, table))

    def push(n, table):
        nonlocal taken
        taken += len(table)
        if taken > room:
            meter.charge("closure", taken)  # refuses
        add(n, table)

    for n in range(1, arity_cap + 1):
        members[n] = {}
        for i in range(n):
            meter.charge_power("closure", k, n)  # before its k^n entries are built
            add(n, _source_ranks(k, n, (i,)))
    # the source-rank maps of zeta and tau on n-ary members, built once
    # every projection is charged, so no map outgrows the charges; both
    # are the identity at n = 1 and agree at n = 2
    rewrites = {
        n: [_source_ranks(k, n, p) for p in dict.fromkeys((_shift(n), _swap(n)))]
        for n in range(2, arity_cap + 1)
    }
    room, taken = meter.room("closure"), 0
    for n, table in pairs:
        push(n, table)

    popped = {n: [] for n in range(1, arity_cap + 1)}  # arity -> [(table, rows)]
    while worklist:
        n, f = worklist.pop()
        for ranks in rewrites.get(n, ()):
            push(n, _gather(f, ranks))
        f_rows = _rows(f, k)
        popped[n].append((f, f_rows))
        partners = [(m, g) for m in range(1, arity_cap - n + 2) for g in popped[m]]
        taken += len(partners)
        if taken > room:
            meter.charge("closure", taken)  # refuses
        for m, (g, g_rows) in partners:
            push(n + m - 1, _star_table(f_rows, g))
            if g is not f:
                push(n + m - 1, _star_table(g_rows, f))
    if taken:
        meter.charge("closure", taken)
    return {n: sorted(tables) for n, tables in members.items()}


def _class_of(k, k_out, tables):
    """The class over these domain and codomain sizes whose members have
    these tables, given as {arity: tables}."""
    out = OperationClass(k, k_out)
    for n, arity_tables in tables.items():
        for table in arity_tables:
            out._add(n, table)
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
    _check_int("k", k)
    _check_int("p", p)
    _check_int("arity cap", arity_cap, positive=True)
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
