"""The two Galois connections at bounded parameters.

Functions vs generalized constraints (f_pol / gc_inv) and operations vs
clusters (c_pol / cl_inv), plus the separating-object constructions: on
a finite domain the disagreement row set can always be taken to be the
whole input space, which makes both separators exact at the arity of
the function being excluded.  ``f_pol`` searches for its tables entry by
entry, so a failing prefix rules out every table extending it; ``c_pol``
sweeps every candidate table, charged up front.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from operator import attrgetter, itemgetter

from .errors import GaloisKitError, Meter, NotSeparableError, _current_meter, _kept
from .extnat import power_upto
from .operations import (
    Operation, OperationClass, _composition_tables, _perm_dummy_tables, _source_ranks,
    all_operations,
)
from .multisets import FiniteMultiset, _counts, _rank_checks, _set_partitions, apply_op_rows
from .repetition import RepetitionFunction, _row_deletions
from .constraints import GeneralizedConstraint, _check_alphabets
from .clusters import (
    _Excluding, _antichain_cluster, _boxes, _cluster_tests, _compiled_cluster, _kept_scaled,
    _members, _share, cluster_member, satisfies_cluster,
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


def _columns(k, n, ranks):
    """The columns of the matrix of the n-tuples over domain size k at these
    ranks: column j is the projection x_j's table read at the ranks."""
    # x_j's table holds digit j of each rank, leftmost most significant
    return [tuple([r // k ** (n - 1 - j) % k for r in ranks]) for j in range(n)]


def _antecedent(k, n, ranks):
    """chi_M for the matrix M of the n-tuples over domain size k at these
    ranks, in order: the multiset of M's columns."""
    return RepetitionFunction.from_counts(len(ranks), k, _counts(_columns(k, n, ranks)))


def _image_getter(ranks):
    """The getter of a table's image at the ranks, as a tuple: one
    ``itemgetter`` of the ranks, or on one rank, where that would read
    the bare entry, of the slice that holds it."""
    return itemgetter(*ranks) if len(ranks) > 1 else itemgetter(slice(ranks[0], ranks[0] + 1))


def _invariant_constraint(antecedent, images, codomain_size):
    """The constraint (chi_M, C M) for the antecedent chi_M of a matrix M
    and C M, the images f M of the class's members of M's width.

    f M is f's table read at M's row ranks.  Every member of a class
    closed under permutation and dummy variables satisfies the
    constraint.  The tables are valid, so each image is a tuple of
    len(M's rows) ints in range(codomain_size), and the constraint is
    built without running its checks again; the antecedent comes checked
    from ``_antecedent``.
    """
    c = object.__new__(GeneralizedConstraint)
    put = object.__setattr__
    put(c, "antecedent", antecedent)
    put(c, "consequent", frozenset(images))
    put(c, "codomain_size", codomain_size)
    return c


def _check_config_domain(cls_, cfg):
    """Refuse a configuration over another domain than the class's."""
    if cfg.domain_size != cls_.domain_size:
        raise GaloisKitError(
            f"config domain_size {cfg.domain_size} does not match the class's "
            f"domain size {cls_.domain_size}")


def _matrix_blocks(k, n_max, m_max):
    """``gc_inv``'s blocks of matrices, in order: (width n, row count m,
    C(k^n, m)) for every n <= n_max and m <= m_max, since no matrix has
    more than k^n distinct rows.  Each count is computed only once the
    blocks before it are taken."""
    for n in range(1, n_max + 1):
        for m in range(1, min(m_max, k ** n) + 1):
            yield n, m, comb(k ** n, m)


# a configuration's readers are kept while it has at most this many matrices
_KEPT_MATRICES = 4096


@_kept(8, lambda k, sizes, total: total <= _KEPT_MATRICES)
def _readers(k, sizes, total):
    """``gc_inv``'s blocks of the (width n, row count m) ``sizes``, of
    ``total`` matrices in all, as (n, each distinct ``_antecedent`` with
    the getter of its image).  The matrices, the n-tuples at m increasing
    ranks, come in the order of their row lists, and each antecedent is
    built from the first with its columns.  Kept for a configuration of
    at most ``_KEPT_MATRICES`` matrices, only the most recent 8; a larger
    one's blocks are streamed."""
    for n, m in sizes:
        first = {}  # sorted columns -> the ranks of the first matrix with them
        for ranks in combinations(range(k ** n), m):
            first.setdefault(tuple(sorted(_columns(k, n, ranks))), ranks)
        yield n, tuple([(_antecedent(k, n, ranks), _image_getter(ranks))
                        for ranks in first.values()])


def gc_inv(cls_, cfg):
    """The proof-canonical invariant constraints of a class.

    One constraint (chi_M, C M) per antecedent chi_M, the multiset of the
    columns of a matrix M with distinct rows, for every width n <= n_max
    and row count m <= m_max.  The class is closed under permutation and
    dummy variables first, which is exactly the hypothesis making every
    emitted constraint satisfied by every member, and C M then depends on
    M only through chi_M, so the first M with each chi_M is read.  The
    C(k^n, m) matrices of each width and row count are charged up front,
    so an oversized request builds none of them; then the class's tables
    of each width are built once, and the antecedents read through
    ``_readers``.
    """
    _check_config_domain(cls_, cfg)
    k = cls_.domain_size
    with Meter() as meter:
        sizes, total = [], 0
        for n, m, count in _matrix_blocks(k, cfg.n_max, cfg.m_max):
            meter.charge("invariant matrices", count)
            sizes.append((n, m))
            total += count
        tables = _perm_dummy_tables(cls_, cfg.n_max)
        return [_invariant_constraint(phi, map(get, tables.get(n, ())), cls_.codomain_size)
                for n, pairs in _readers(k, tuple(sizes), total) for phi, get in pairs]


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


# a plan is kept for a sequence of at most this many antecedents
_KEPT_PLAN = 4096

# no allowed set holds this many images: the size an arity's image space
# is capped at, so a set that reaches it allows every image
_NO_SET = 1 << 64


@_kept(8, lambda k_out, antecedents: len(antecedents) <= _KEPT_PLAN)
def _plan(k_out, antecedents):
    """The merge plan of a sequence of antecedents over codomain size
    k_out, as (distinct, positions, spaces, links): the distinct antecedents, in
    order of first occurrence; each antecedent's position among them; the
    size of each one's space of images, capped at ``_NO_SET``; and each
    one's one-row deletions (``_row_deletions``) as ``(i, get)`` links, i
    the position of the deletion among the distinct antecedents, or
    len(distinct) when it is none of them, and get the getter that reads
    a tuple without the deleted row.  A one-row antecedent has no links.
    Kept for a sequence of at most ``_KEPT_PLAN`` antecedents, only the
    most recent 8: keyed by the antecedents, so equal ones share a plan,
    which holds the first objects seen.
    """
    at = {}  # antecedent -> its position among the distinct ones
    positions = tuple([at.setdefault(phi, len(at)) for phi in antecedents])
    distinct, absent = tuple(at), len(at)
    spaces = tuple([power_upto(k_out, phi.arity, _NO_SET) for phi in distinct])
    links = tuple([tuple([(at.get(psi, absent), get) for psi, get in _row_deletions(phi)])
                   if phi.arity > 1 else () for phi in distinct])
    return distinct, positions, spaces, links


def _merged(constraints, k_out):
    """The constraints merged by antecedent, as ``(phi, allowed)`` pairs in
    order of first occurrence: allowed is the intersection of the
    consequents on phi.  A pair whose allowed set holds every image is
    met by every table, so it is dropped, and so is each that a kept
    pair of one more row implies.  The plan of the antecedent sequence
    (``_plan``) gives each pair's place and its row-deletion links, so a
    call only reads its own consequents.

    (phi_A, S_A) implies (phi_B, S_B) when phi_B is phi_A with row i
    deleted and S_A, each tuple read without entry i, lies inside S_B:
    every M < phi_B is some M' < phi_A with row i deleted, and f M is f
    M' without entry i, so an f meeting A meets B.  A pair is implied
    only by one with more rows, so each dropped pair is implied by a
    kept one.  Each link read is one "row deletions" step, and one to a
    pair still kept is |S_A| more, for projecting S_A; the steps are
    refused at the step past the budget and charged once.
    """
    distinct, positions, spaces, links = _plan(k_out, tuple([c.antecedent for c in constraints]))
    allowed = [None] * len(distinct)
    for j, c in zip(positions, constraints):
        held = allowed[j]
        allowed[j] = c.consequent if held is None else held & c.consequent
    allowed = [None if len(s) >= space else s for s, space in zip(allowed, spaces)]
    kept = [*allowed, None]  # the last slot stands for a deletion that is no antecedent
    meter, phase = _current_meter(), "row deletions"
    room, taken = meter.room(phase), 0
    for s, deletions in zip(allowed, links):
        if s is None:
            continue
        for i, get in deletions:
            held = kept[i]
            taken += 1 if held is None else 1 + len(s)
            if taken > room:
                meter.refuse(phase, room)
            if held is not None and held.issuperset(map(get, s)):
                kept[i] = None
    if taken:
        meter.charge(phase, taken)
    return [(phi, s) for phi, s in zip(distinct, kept) if s is not None]


def _satisfying_tables(constraints, cfg):
    """Every table of arity <= n_max satisfying all the constraints, as
    (arity, table), in order of arity and then of table.

    The constraints are merged by antecedent first, less those every
    table meets or a wider one implies (``_merged``).  At each arity n
    the other antecedents' checks are read together, grouped by their
    largest rank (``multisets._rank_checks``), and the tables are then
    searched for (``_search``).
    """
    k, k_out = cfg.domain_size, cfg.codomain_size
    consequents = _merged(constraints, k_out)
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


# the set partitions of at most this many columns are kept: 203 at 6
_KEPT_COLUMNS = 6


@_kept(_KEPT_COLUMNS, lambda n: n <= _KEPT_COLUMNS)
def _column_partitions(n):
    """The set partitions of n columns, each a tuple of blocks, each block
    a tuple of columns, in ``_set_partitions`` order; kept for n <=
    ``_KEPT_COLUMNS``, 278 partitions in all, streamed for more."""
    return (tuple(map(tuple, blocks)) for blocks in _set_partitions(list(range(n))))


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
    for blocks in _column_partitions(n):
        image_sets = []
        for block in blocks:
            if block not in images:
                images[block] = set(map(_image_getter(_source_ranks(k, n, block)), tables[len(block)]))
            image_sets.append(images[block])
        _current_meter().charge("invariant cluster members", prod(map(len, image_sets)))
        members.update(tuple(sorted(d)) for d in product(*image_sets))
    return _antichain_cluster(k ** n, k, map(_counts, members))


def cl_inv(cls_, cfg):
    """The proof-canonical invariant clusters of a class, one per arity
    <= n_max.  The composition closure's tables of each arity are read by
    every cluster of that arity or above."""
    _check_config_domain(cls_, cfg)
    with Meter():
        tables = _composition_tables(cls_, cfg.n_max)
        return [_inv_cluster_for_arity(tables, cls_.domain_size, n)
                for n in range(1, cfg.n_max + 1)]


def c_pol(clusters, cfg):
    """All operations of arity <= n_max satisfying every cluster at the breadth cap.

    The candidate tables are charged up front.  Each cluster lists, once
    per call, the members whose splits it tests.  For the same M1, a
    split of a member allows every image that the split of a larger
    member allows, so only the maximal members, those below no other,
    need testing.  When every generator is a default-0 box within its
    cap and the breadth cap, as in every ``cl_inv`` antichain, those are
    among the distinct boxes, which are listed without a walk (``_boxes``);
    any other cluster walks all its members at the breadth cap
    (``_members``), in the walk's order.  The merged tests, the charges
    and a refusal's count do not depend on the members' order, so they
    are not sorted.  At each arity n every split of every listed member
    compiles to a test on the row ranks of its first n columns, merged
    by rank vector (see ``_cluster_tests``).
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
        listed = []  # (cluster, its _compiled masks, the members whose splits it tests)
        for phi in clusters:
            if phi.domain_size != k:
                raise GaloisKitError("operation alphabet does not match the cluster")
            compiled = _compiled_cluster(phi)
            members = _boxes(phi, cfg.breadth, meter)
            if members is None:
                members = [member[:2] for member in _members(compiled, cfg.breadth, meter)]
            listed.append((phi, compiled, members))
        arities = range(1, cfg.n_max + 1)
        tests = {n: {} for n in arities}  # arity -> rank vector -> the images allowed
        for n in arities:
            scaled = _kept_scaled(k, n)
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
    tables = _perm_dummy_tables(cls_, n)
    k = cls_.domain_size
    # f M of the all-rows matrix M is f's table
    c = _invariant_constraint(_antecedent(k, n, range(k ** n)), tables.get(n, ()),
                              cls_.codomain_size)
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
        n, k = g.arity, cls_.domain_size
        tables = _composition_tables(cls_, max(n, cfg.n_max))
        held = tables[n]
        at = bisect_left(held, g.table)
        if at < len(held) and held[at] == g.table:
            raise NotSeparableError("no separating cluster: g is in the closed class")
        cluster = _inv_cluster_for_arity(tables, k, n)
        if cluster_member(FiniteMultiset.from_tuples(len(g.table), [g.table]), cluster):
            raise GaloisKitError("separation failed: g image unexpectedly admitted")
        for j in range(1, cfg.n_max + 1):
            for table in tables[j]:
                f = Operation(k, k, j, table)
                if not satisfies_cluster(f, cluster, max(cfg.breadth, j)):
                    raise GaloisKitError(
                        f"separation failed: class member {f} violates the cluster"
                    )
        return cluster
