"""The two Galois connections at bounded parameters.

Functions vs generalized constraints (f_pol / gc_inv) and operations vs
clusters (c_pol / cl_inv), plus the separating-object constructions: on
a finite domain the disagreement row set can always be taken to be the
whole input space, which makes both separators exact at the arity of
the function being excluded.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

from .errors import GaloisKitError, Meter, NotSeparableError, _current_meter
from .operations import (
    Operation, OperationClass, _gather, _source_ranks, all_operations, close_composition,
    close_perm_dummy,
)
from .multisets import FiniteMultiset, _counts, _matrices, _set_partitions, apply_op_rows
from .repetition import RepetitionFunction
from .constraints import GeneralizedConstraint, _check_alphabets
from .clusters import (
    _antichain_cluster, _compiled_cluster, _violation, cluster_member, satisfies_cluster,
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


def _invariant_constraint(closed, n, ranks, codomain_size):
    """The constraint (chi_M, C M) of the matrix M of the n-tuples at
    these ranks, in order.

    Column j of M is the table of the projection x_j read at the ranks,
    and f M is f's table read there.  Every member of a class closed
    under permutation and dummy variables satisfies the constraint.
    """
    k = closed.domain_size
    # x_j's table holds digit j of each rank, leftmost most significant
    columns = [tuple([r // k ** (n - 1 - j) % k for r in ranks]) for j in range(n)]
    chi = RepetitionFunction.from_counts(len(ranks), k, _counts(columns))
    image = frozenset(_gather(f.table, ranks) for f in closed.arity_part(n))
    return GeneralizedConstraint(chi, image, codomain_size)


def gc_inv(cls_, cfg):
    """The proof-canonical invariant constraints of a class.

    One constraint (chi_M, C M) per matrix M with distinct rows, for
    every width n <= n_max and row count m <= m_max.  M's rows are the
    n-tuples at m increasing ranks, so the matrices come in the order of
    their row lists.  The class is closed under permutation and dummy
    variables first, which is exactly the hypothesis making every
    emitted constraint satisfied by every member.  The C(k^n, m)
    matrices of each width and row count are charged up front, so an
    oversized request builds none of them.
    """
    k = cls_.domain_size
    blocks = []  # (width, row count); no matrix has more than k^n distinct rows
    with Meter() as meter:
        for n in range(1, cfg.n_max + 1):
            for m in range(1, min(cfg.m_max, k ** n) + 1):
                meter.charge("invariant matrices", comb(k ** n, m))
                blocks.append((n, m))
        closed = close_perm_dummy(cls_, max(cfg.n_max, cls_.max_arity or 1))
        return [
            _invariant_constraint(closed, n, ranks, cls_.codomain_size)
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


def _satisfying_tables(constraints, cfg):
    """Every table of arity <= n_max satisfying all the constraints, as
    (arity, table), in order of arity and then of table.

    At each arity n the tests of every constraint are read once and
    merged by rank vector: one test per distinct rank vector, allowing
    the intersection of the consequents that share it.  Each table meets
    the merged tests most restrictive first (the smallest share of the
    k_out^m tuples allowed, ties by rank vector), so a rejected table
    usually fails its first few; each test evaluated is a "sweep tests"
    step.
    """
    k, k_out = cfg.domain_size, cfg.codomain_size
    meter = _current_meter()
    for n in range(1, cfg.n_max + 1):
        merged = {}  # rank vector -> the tuples every constraint allows there
        for c in constraints:
            for _, ranks in _matrices(c.antecedent, n):
                ranks = tuple(ranks)
                allowed = merged.get(ranks)
                merged[ranks] = c.consequent if allowed is None else allowed & c.consequent
        tests = sorted(merged.items(), key=lambda t: (len(t[1]) / k_out ** len(t[0]), t[0]))
        for table in product(range(k_out), repeat=k ** n):
            for i, (ranks, allowed) in enumerate(tests):
                if tuple([table[r] for r in ranks]) not in allowed:
                    meter.charge("sweep tests", i + 1)
                    break
            else:
                meter.charge("sweep tests", len(tests))
                yield n, table


def f_pol(constraints, cfg):
    """All operations of arity <= n_max satisfying every constraint.

    The candidate tables are charged up front.  A constraint over another
    alphabet than the configuration's is an error once some table
    satisfies every constraint before it, as it is for
    ``satisfies_constraint`` on that table; if none does, the class is
    empty.
    """
    constraints = list(constraints)
    k, k_out = cfg.domain_size, cfg.codomain_size
    out = OperationClass(k, k_out)
    with Meter() as meter:
        _charge_tables(meter, cfg, k_out)
        for j, c in enumerate(constraints):
            try:
                _check_alphabets(k, k_out, c)
            except GaloisKitError:
                if next(_satisfying_tables(constraints[:j], cfg), None):
                    raise
                return out  # no table reaches the mismatched constraint
        for n, table in _satisfying_tables(constraints, cfg):
            out.add(Operation(k, k_out, n, table))
    return out


def _inv_cluster_for_arity(closed, n):
    """The separating cluster built from the all-rows matrix of width n,
    whose columns are the tables of the projections x_1, ..., x_n.

    For every set partition of the columns, a member takes one class
    image f B per block B, computed once per block: f's table read at
    the block's source-rank map.  The cluster is the members' downward
    closure, stored as an explicit antichain.  No column is left
    unmapped: the composition-closed class contains the unary projection,
    so an unmapped column is the image of its one-column block.
    """
    k = closed.domain_size
    images = {}  # block -> its class images
    members = set()  # each as its sorted elements
    for blocks in _set_partitions(list(range(n))):
        image_sets = []
        for block in map(tuple, blocks):
            if block not in images:
                ranks = _source_ranks(k, n, block)
                images[block] = {_gather(f.table, ranks) for f in closed.arity_part(len(block))}
            image_sets.append(images[block])
        _current_meter().charge("invariant cluster members", prod(map(len, image_sets)))
        members.update(tuple(sorted(d)) for d in product(*image_sets))
    return _antichain_cluster(k ** n, k, map(_counts, members))


def cl_inv(cls_, cfg):
    """The proof-canonical invariant clusters of a class, one per arity <= n_max."""
    with Meter():
        closed = close_composition(cls_, max(cfg.n_max, cls_.max_arity or 1))
        return [_inv_cluster_for_arity(closed, n) for n in range(1, cfg.n_max + 1)]


def c_pol(clusters, cfg):
    """All operations of arity <= n_max satisfying every cluster at the breadth cap.

    Each cluster is compiled once per call, when the first candidate table
    reaches it, and every candidate runs the check of ``satisfies_cluster``
    on that compile.  A cluster over another alphabet is an error once some
    table satisfies every cluster before it, as it is for
    ``satisfies_cluster`` on that table; the unary projection always does.
    """
    clusters = list(clusters)
    if cfg.breadth < cfg.n_max:
        raise GaloisKitError("breadth cap must be at least n_max")
    k = cfg.domain_size
    out = OperationClass(k, k)
    compiled = {}  # cluster position -> its _compiled masks
    with Meter() as meter:
        _charge_tables(meter, cfg, k)
        for n in range(1, cfg.n_max + 1):
            for op in all_operations(k, n):
                for j, phi in enumerate(clusters):
                    if j not in compiled:
                        if phi.domain_size != k:
                            raise GaloisKitError("operation alphabet does not match the cluster")
                        compiled[j] = _compiled_cluster(phi)
                    if _violation(op.table, n, k, compiled[j], cfg.breadth, meter):
                        break
                else:
                    out.add(op)
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
    c = _invariant_constraint(closed, n, range(cls_.domain_size ** n), cls_.codomain_size)
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
    with Meter():
        n = g.arity
        closed = close_composition(cls_, max(n, cls_.max_arity or 1, cfg.n_max))
        if g in closed:
            raise NotSeparableError("no separating cluster: g is in the closed class")
        cluster = _inv_cluster_for_arity(closed, n)
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
