"""The two Galois connections at bounded parameters.

Functions vs generalized constraints (f_pol / gc_inv) and operations vs
clusters (c_pol / cl_inv), plus the separating-object constructions: on
a finite domain the disagreement row set can always be taken to be the
whole input space, which makes both separators exact at the arity of
the function being excluded.  ``f_pol`` searches for its tables entry by
entry, so a failing prefix rules out every table extending it; ``c_pol``
sweeps every candidate table, charged up front.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import attrgetter, itemgetter

from .errors import GaloisKitError, Meter, NotSeparableError, _current_meter
from .extnat import power_upto
from .operations import (
    OperationClass, _source_ranks, all_operations, close_composition, close_perm_dummy,
)
from .multisets import FiniteMultiset, _counts, _rank_checks, _set_partitions, apply_op_rows
from .repetition import RepetitionFunction
from .constraints import GeneralizedConstraint, _check_alphabets
from .clusters import (
    _Excluding, _Scaled, _antichain_cluster, _cluster_tests, _compiled_cluster, _members, _share,
    cluster_member, satisfies_cluster,
)

__all__ = [
    "GaloisConfig",
    "c_pol",
    "cl_inv",
    "class_image",
    "f_pol",
    "gc_inv",
    "separating_cluster",
    "separating_constraint",
]


@dataclass(frozen=True)
class GaloisConfig:
    """Caps that make the unbounded connections effective.

    n_max bounds function arities and the matrix widths of gc_inv,
    m_max bounds constraint arities, breadth bounds cluster member
    cardinalities.
    """

    domain_size: int
    n_max: int
    m_max: int
    breadth: int
    codomain_size: int = None

    def __post_init__(self):
        if self.codomain_size is None:
            object.__setattr__(self, "codomain_size", self.domain_size)
        for name in ("domain_size", "n_max", "m_max", "breadth", "codomain_size"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise GaloisKitError(f"{name} must be an int of at least 1, not {value!r}")


def class_image(cls_, m):
    """C M: the set of row-wise images f M over the matching arity part."""
    return frozenset(
        apply_op_rows(f, m) for f in cls_.arity_part(m.column_count)
    )


@lru_cache(maxsize=4096)
def _antecedent(k, n, ranks):
    """chi_M for the matrix M of the n-tuples over domain size k at these
    ranks, in order: the multiset of M's columns.

    Column j of M is the table of the projection x_j read at the ranks.
    chi_M depends on no class, so every ``gc_inv`` at one configuration
    shares these objects, and with them the rank vectors ``f_pol``
    compiles into each (see ``multisets._rank_vectors``); only the most
    recent 4,096 are kept.
    """
    # x_j's table holds digit j of each rank, leftmost most significant
    columns = [tuple([r // k ** (n - 1 - j) % k for r in ranks]) for j in range(n)]
    return RepetitionFunction.from_counts(len(ranks), k, _counts(columns))


def _images(tables, ranks):
    """Each table read at the ranks, as a tuple, by one ``itemgetter``: on
    one rank that gives the bare entry, which ``zip`` wraps as a 1-tuple."""
    images = map(itemgetter(*ranks), tables)
    return images if len(ranks) > 1 else zip(images)


def _invariant_constraint(tables, k, n, ranks, codomain_size):
    """The constraint (chi_M, C M) of the matrix M of the n-tuples over
    domain size k at these ranks, in order, for the class whose n-ary
    members have these tables.

    f M is f's table read at the ranks.  Every member of a class closed
    under permutation and dummy variables satisfies the constraint.  The
    tables are valid, so each image is a tuple of len(ranks) ints in
    range(codomain_size), and the constraint is built without running
    its checks again; the antecedent comes checked from ``_antecedent``.
    """
    c = object.__new__(GeneralizedConstraint)
    put = object.__setattr__
    put(c, "antecedent", _antecedent(k, n, ranks))
    put(c, "consequent", frozenset(_images(tables, ranks)))
    put(c, "codomain_size", codomain_size)
    return c


def _check_config_domain(cls_, cfg):
    """Refuse a configuration over another domain than the class's."""
    if cfg.domain_size != cls_.domain_size:
        raise GaloisKitError(
            f"config domain_size {cfg.domain_size} does not match the class's "
            f"domain size {cls_.domain_size}")


def gc_inv(cls_, cfg):
    """The proof-canonical invariant constraints of a class.

    One constraint (chi_M, C M) per matrix M with distinct rows, for
    every width n <= n_max and row count m <= m_max.  M's rows are the
    n-tuples at m increasing ranks, so the matrices come in the order of
    their row lists.  The class is closed under permutation and dummy
    variables first, which is exactly the hypothesis making every
    emitted constraint satisfied by every member; its tables of each
    width are read once.  The C(k^n, m) matrices of each width and row
    count are charged up front, so an oversized request builds none of
    them.  The antecedents come from ``_antecedent``, so calls at one
    configuration return the same antecedent objects.
    """
    _check_config_domain(cls_, cfg)
    k = cls_.domain_size
    blocks = []  # (width, row count); no matrix has more than k^n distinct rows
    with Meter() as meter:
        for n in range(1, cfg.n_max + 1):
            for m in range(1, min(cfg.m_max, k ** n) + 1):
                meter.charge("invariant matrices", comb(k ** n, m))
                blocks.append((n, m))
        closed = close_perm_dummy(cls_, max(cfg.n_max, cls_.max_arity or 1))
        tables = {n: closed._tables(n) for n in range(1, cfg.n_max + 1)}
        return [
            _invariant_constraint(tables[n], k, n, ranks, cls_.codomain_size)
            for n, m in blocks
            for ranks in combinations(range(k ** n), m)
        ]


def _charge_tables(meter, cfg, codomain_size):
    """Charge the codomain_size^(k^n) tables of each arity, k^n entries
    each, up front, in order of arity, so an oversized sweep refuses
    before building any."""
    for n in range(1, cfg.n_max + 1):
        k_n = cfg.domain_size ** n
        meter.charge_power("operation tables", codomain_size, k_n, k_n)


def _unwrapped(allowed):
    """The entries of an allowed set of 1-tuples, a complement kept as one."""
    entries = [x for x, in allowed]
    return _Excluding(entries) if type(allowed) is _Excluding else frozenset(entries)


def _sweep(tests, tables, k_out):
    """The tables meeting every test: ``tests`` maps a rank vector to the
    image tuples allowed there, a table's image being its entries at the
    ranks.

    Each table meets the tests most restrictive first (the smallest share
    of the k_out^m tuples allowed, ties by rank vector), so a rejected
    table usually fails its first few, most often the first, which is
    read before the loop over the rest; each test evaluated is a "sweep
    tests" step, refused as ``Meter.counted`` refuses, at the table whose
    tests pass the budget, and charged once when the stream ends or is
    dropped.  A test is read as one ``itemgetter`` of its ranks; on
    one rank that gives the bare entry, so the allowed 1-tuples are
    unwrapped to their entries.
    """
    order = sorted(tests.items(), key=lambda t: (_share(t[1], k_out ** len(t[0])), t[0]))
    tests = [(itemgetter(*ranks), allowed if len(ranks) > 1 else _unwrapped(allowed))
             for ranks, allowed in order]
    meter, phase, width = _current_meter(), "sweep tests", len(tests)
    # with no tests, a first test that every table meets, at no step
    (first, first_allowed), *rest = tests or [(len, _Excluding())]
    room, taken = meter.room(phase), 0
    met = False  # some table met every test: with no tests, it charges 0 steps
    try:
        for table in tables:
            if first(table) not in first_allowed:
                failed = 1
            else:
                for failed, (get, allowed) in enumerate(rest, 2):
                    if get(table) not in allowed:
                        break
                else:
                    failed = 0
            taken += failed or width
            if taken > room:  # refuse, leaving nothing to charge again
                over, taken, met = taken, 0, False
                meter.charge(phase, over)
            if not failed:
                met = True
                yield table
    finally:
        if taken or met:
            meter.charge(phase, taken)


def _search(checks, size, k_out):
    """The tables of ``size`` entries in range(k_out) that meet every
    check, in table order: ``checks`` maps a rank to the ``(get,
    allowed)`` pairs whose largest rank it is, and a table meets a check
    when ``get`` reads an image in ``allowed`` off it.

    A depth-first search: it assigns the entries in rank order, tries the
    values of each in ascending order, and reads the checks of a rank as
    soon as its entry is assigned, so no prefix failing a check is
    extended.  Each entry assigned is 1 + c "table search" steps, c the
    checks at its rank, which bounds the checks it reads; each table
    yielded is ``size`` more, its entries.  So every step is one entry or
    one check read.  The steps are refused as ``Meter.counted`` refuses,
    at the step past the budget, and charged once when the stream ends or
    is dropped.  The table holds only the entries assigned so far, so it
    never outgrows the steps charged.
    """
    meter, phase = _current_meter(), "table search"
    room, taken = meter.room(phase), 0
    at, table, top = checks.get, [0], k_out - 1
    try:
        while True:
            tests = at(len(table) - 1, ())
            taken += 1 + len(tests)
            if taken > room:  # refuse, leaving nothing to charge again
                taken = 0
                meter.refuse(phase, room)
            for get, allowed in tests:
                if get(table) not in allowed:
                    break
            else:
                if len(table) < size:
                    table.append(0)
                    continue
                taken += size
                if taken > room:
                    taken = 0
                    meter.refuse(phase, room)
                yield tuple(table)
            while table[-1] == top:  # the next prefix in table order
                table.pop()
                if not table:
                    return
            table[-1] += 1
    finally:
        if taken:
            meter.charge(phase, taken)


def _satisfying_tables(constraints, cfg):
    """Every table of arity <= n_max satisfying all the constraints, as
    (arity, table), in order of arity and then of table.

    The constraints are merged by antecedent first, allowing the
    intersection of the consequents that share one.  An antecedent whose
    allowed set holds every image is met by every table, so it is
    dropped and never compiled.  At each arity n the other antecedents'
    checks are read together, grouped by their largest rank
    (``multisets._rank_checks``), and the tables are then searched for
    (``_search``).
    """
    k, k_out = cfg.domain_size, cfg.codomain_size
    consequents = {}  # antecedent -> the tuples every constraint on it allows
    for c in constraints:
        allowed = consequents.get(c.antecedent)
        consequents[c.antecedent] = c.consequent if allowed is None else allowed & c.consequent
    consequents = [(phi, allowed) for phi, allowed in consequents.items()
                   if power_upto(k_out, phi.arity, len(allowed) + 1) > len(allowed)]
    for n in range(1, cfg.n_max + 1):
        for table in _search(_rank_checks(consequents, n), k ** n, k_out):
            yield n, table


def f_pol(constraints, cfg):
    """All operations of arity <= n_max satisfying every constraint.

    The tables of each arity are searched for entry by entry (see
    ``_search``), each step charged as the search takes it; no table is
    charged up front.  A constraint over another alphabet than the
    configuration's is an error once some table satisfies every
    constraint before it, as it is for
    ``satisfies_constraint`` on that table; if none does, the class is
    empty.
    """
    constraints = list(constraints)
    k, k_out = cfg.domain_size, cfg.codomain_size
    out = OperationClass(k, k_out)
    with Meter():
        for j, c in enumerate(constraints):
            try:
                _check_alphabets(k, k_out, c)
            except GaloisKitError:
                if next(_satisfying_tables(constraints[:j], cfg), None):
                    raise
                return out  # no table reaches the mismatched constraint
        for n, table in _satisfying_tables(constraints, cfg):
            out._add(n, table)
    return out


def _inv_cluster_for_arity(tables, k, n):
    """The separating cluster built from the all-rows matrix of width n
    over domain size k, whose columns are the tables of the projections
    x_1, ..., x_n, for the composition-closed class whose j-ary members
    have the tables ``tables[j]``, for every j <= n.

    For every set partition of the columns, a member takes one class
    image f B per block B, computed once per block: f's table read at
    the block's source-rank map.  The cluster is the members' downward
    closure, stored as an explicit antichain.  No column is left
    unmapped: the composition-closed class contains the unary projection,
    so an unmapped column is the image of its one-column block.
    """
    images = {}  # block -> its class images
    members = set()  # each as its sorted elements
    for blocks in _set_partitions(list(range(n))):
        image_sets = []
        for block in map(tuple, blocks):
            if block not in images:
                images[block] = set(_images(tables[len(block)], _source_ranks(k, n, block)))
            image_sets.append(images[block])
        _current_meter().charge("invariant cluster members", prod(map(len, image_sets)))
        members.update(tuple(sorted(d)) for d in product(*image_sets))
    return _antichain_cluster(k ** n, k, map(_counts, members))


def cl_inv(cls_, cfg):
    """The proof-canonical invariant clusters of a class, one per arity
    <= n_max.  The composition closure's tables of each arity are decoded
    once and read by every cluster of that arity or above."""
    _check_config_domain(cls_, cfg)
    with Meter():
        closed = close_composition(cls_, max(cfg.n_max, cls_.max_arity or 1))
        tables = {j: closed._tables(j) for j in range(1, cfg.n_max + 1)}
        return [_inv_cluster_for_arity(tables, cls_.domain_size, n)
                for n in range(1, cfg.n_max + 1)]


def c_pol(clusters, cfg):
    """All operations of arity <= n_max satisfying every cluster at the breadth cap.

    The candidate tables are charged up front.  Each cluster's members
    at the breadth cap are listed once per call.  At each arity n every
    split of every member compiles to a test on the row ranks of its
    first n columns, merged by rank vector (see ``_cluster_tests``).
    Every arity is compiled before any table is swept, so an oversized
    compile refuses before the sweep; then the candidate tables of
    ``all_operations`` are swept through the merged tests.  A cluster
    over another alphabet is an error once some table satisfies every
    cluster before it, as it is for ``satisfies_cluster`` on that table;
    the unary projection always does, so it is refused when it is
    reached.  Clusters have one alphabet, so a configuration whose
    codomain differs from its domain is refused.
    """
    clusters = list(clusters)
    if cfg.codomain_size != cfg.domain_size:
        raise GaloisKitError(
            f"c_pol needs codomain_size equal to domain_size {cfg.domain_size}, "
            f"not {cfg.codomain_size}: a cluster has one alphabet")
    if cfg.breadth < cfg.n_max:
        raise GaloisKitError("breadth cap must be at least n_max")
    k = cfg.domain_size
    out = OperationClass(k, k)
    with Meter() as meter:
        _charge_tables(meter, cfg, k)
        listed = []  # (cluster, its _compiled masks, its members at the breadth cap)
        for phi in clusters:
            if phi.domain_size != k:
                raise GaloisKitError("operation alphabet does not match the cluster")
            compiled = _compiled_cluster(phi)
            listed.append((phi, compiled, _members(compiled, cfg.breadth, meter)))
        arities = range(1, cfg.n_max + 1)
        tests = {n: {} for n in arities}  # arity -> rank vector -> the images allowed
        for n in arities:
            scaled = _Scaled(k, n)
            for phi, compiled, members in listed:
                _cluster_tests(phi, compiled, members, n, scaled, tests[n], meter)
        for n in arities:
            for table in _sweep(tests.pop(n), map(attrgetter("table"), all_operations(k, n)), k):
                out._add(n, table)
    return out


def _check_class_alphabet(cls_, g):
    """Refuse a g over another domain or codomain than the class's: the
    separators read g's table as the image of the class's all-rows
    matrix, and test it against the class's images."""
    if g.domain_size != cls_.domain_size:
        raise GaloisKitError("operation domain does not match the class")
    if g.codomain_size != cls_.codomain_size:
        raise GaloisKitError("operation codomain does not match the class")


def separating_constraint(cls_, g):
    """A constraint satisfied by the whole class but violated by g.

    Uses the all-rows matrix of g's arity, so f M is the value table of
    f and the separation is exact: it exists iff g is outside the
    permutation-and-dummy closure at g's arity.
    """
    if len(cls_) == 0:
        raise GaloisKitError("cannot separate from the empty class")
    _check_class_alphabet(cls_, g)
    n = g.arity
    closed = close_perm_dummy(cls_, max(n, cls_.max_arity))
    k = cls_.domain_size
    c = _invariant_constraint(closed._tables(n), k, n, range(k ** n), cls_.codomain_size)
    if g.table in c.consequent:
        raise NotSeparableError(
            "no separating constraint: g is in the closed class at its arity"
        )
    return c


def separating_cluster(cls_, g, cfg):
    """A cluster satisfied by the whole class but violated by g.

    The class is composition-closed first; the postcondition is verified
    on both sides before returning (members at arities <= n_max checked
    at the configured breadth, g checked on the all-rows witness).
    """
    _check_class_alphabet(cls_, g)
    _check_config_domain(cls_, cfg)
    with Meter():
        n = g.arity
        closed = close_composition(cls_, max(n, cls_.max_arity or 1, cfg.n_max))
        if g in closed:
            raise NotSeparableError("no separating cluster: g is in the closed class")
        tables = {j: closed._tables(j) for j in range(1, n + 1)}
        cluster = _inv_cluster_for_arity(tables, cls_.domain_size, n)
        if cluster_member(FiniteMultiset.from_tuples(len(g.table), [g.table]), cluster):
            raise GaloisKitError("separation failed: g image unexpectedly admitted")
        for f in closed:
            if f.arity <= cfg.n_max:
                verdict = satisfies_cluster(f, cluster, max(cfg.breadth, f.arity))
                if not verdict:
                    raise GaloisKitError(
                        f"separation failed: class member {f} violates the cluster"
                    )
        return cluster
