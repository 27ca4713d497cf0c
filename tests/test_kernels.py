"""The predicate and cluster kernels against their object-based reference bodies.

The ranked selection stream of ``_matrices``, the split orders of
``satisfies_cluster`` and ``split_enumerate``, ``satisfies_constraint``,
``satisfies_cluster``, the two rf-minor predicates, cluster member
enumeration, the cluster minors and the invariant cluster of ``cl_inv``
work on raw column tuples and count dicts; ``gc_inv`` and both
separators work on row ranks of the all-rows matrix.  The reference
versions below are the earlier bodies, which build and validate a
``TupleMatrix`` or ``FiniteMultiset`` for every matrix, split, member,
block and Skolem candidate, and which walk every ordering of each column
multiset.  Their multisets come from the
recursive stream of ``multiset_oracles``: ``ref_members`` walks each
generator's box in full with it, where ``clusters._members`` walks the
union of the boxes once, by generator bitmask.  On randomized instances both sides
must give the same verdict, the same first witness, the same members in
the same order, the same clusters and constraints, and refuse the same
cases.
"""

import random
import time
from contextvars import Context
from functools import cache, lru_cache
from itertools import combinations, groupby, product
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from galois_kit import (
    BoxedGenerator,
    BudgetExceededError,
    Cluster,
    ClusterVerdict,
    ConstraintVerdict,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    GeneralizedConstraint,
    INF,
    MinorScheme,
    MinorVerdict,
    Operation,
    OperationClass,
    RepetitionFunction,
    all_operations,
    apply_op_rows,
    apply_scheme_map,
    c_pol,
    cl_inv,
    class_image,
    close_composition,
    close_perm_dummy,
    cluster_minor_member,
    cluster_union,
    columns_multiset,
    empty_cluster,
    enumerate_cluster_members,
    enumerate_matrices_leq,
    f_pol,
    format_cluster,
    gc_inv,
    is_extensive_rf_minor,
    is_restrictive_rf_minor,
    materialize_minor,
    ms_join,
    order_cluster,
    relation_cluster,
    satisfies_cluster,
    satisfies_constraint,
    separating_cluster,
    separating_constraint,
    split_enumerate,
    trivial_cluster,
    TupleMatrix,
)
from galois_kit import clusters
from galois_kit.clusters import _antichain_cluster, _members
from galois_kit.errors import DEFAULT_BUDGET, Meter, NotSeparableError, _current_meter

UNLIMITED = float("inf")
from galois_kit.minors import default_col_cap, skolem_maps
from galois_kit.multisets import (
    _compiled, _matrices, _rank_checks, _split_orders, _split_selections,
)
from multiset_oracles import (
    bounded_multisets,
    ms_diff,
    ms_partitions,
    ms_sub,
    recursive_nondecreasing_selections,
    recursive_ordered_selections,
)


# --- reference bodies -------------------------------------------------


def ref_satisfies_constraint(f, c):
    phi = c.antecedent
    for m in enumerate_matrices_leq(phi, f.arity):
        if apply_op_rows(f, m) not in c.consequent:
            return ConstraintVerdict(False, m)
    return ConstraintVerdict(True)


def ref_row_ranks(k, columns):
    """The rank of each row of the matrix with these columns over domain
    size k, leftmost column most significant, rebuilt from scratch."""
    ranks = columns[0]
    for col in columns[1:]:
        ranks = [r * k + x for r, x in zip(ranks, col)]
    return ranks


@lru_cache(maxsize=256)
def _reference_walk(cluster, limit):
    """The per-generator member walk: each generator's box is walked in
    full, in ``sorted_generators`` order, so a member in g boxes is
    listed, and charged, g times.  Returns each member once as
    ``(counts, box)``, ``box`` that of the first generator listing it, by
    cardinality, then by sorted (tuple, count) items; the mask of the
    generators admitting each member; and the walk's steps per phase.
    All three depend on (cluster, limit) alone, so each is walked once,
    in an empty context: its steps are counted apart from any open meter."""
    found = {}
    gens = cluster.sorted_generators()
    meter = Meter(UNLIMITED)

    def walk():
        with meter:
            for gen in gens:
                box = gen.box
                support = box.positive_support()
                cap = min(gen.cap, limit)
                if cap == INF:
                    raise GaloisKitError("member enumeration needs a finite cardinality limit")
                selections = recursive_nondecreasing_selections(support, box.value, int(cap))
                for _, counts in meter.counted("cluster members", selections):
                    key = frozenset(counts.items())
                    if key not in found:
                        found[key] = (counts, box)

    Context().run(walk)
    members = sorted(found.values(), key=lambda m: (sum(m[0].values()), sorted(m[0].items())))
    lives = [sum(1 << i for i, g in enumerate(gens) if g.admits(counts, sum(counts.values())))
             for counts, _ in members]
    return members, lives, dict(meter.done)


def ref_members(cluster, limit, meter):
    """The members of ``_reference_walk``, its steps charged to ``meter``
    as one lump per phase, which is exact only under an unlimited meter."""
    assert meter.budget == UNLIMITED
    members, _, done = _reference_walk(cluster, limit)
    for phase, steps in done.items():
        meter.charge(phase, steps)
    return members


def ref_full_test_satisfies_cluster(f, cluster, breadth_cap):
    """The count-dict kernel on the per-generator walk and without the
    admission shortcut: every split's output f M1 + M2 is built and
    tested against each generator whose cap admits its size, and its row
    ranks are rebuilt per split."""
    if f.domain_size != cluster.domain_size or f.codomain_size != cluster.domain_size:
        raise GaloisKitError("operation alphabet does not match the cluster")
    if breadth_cap < f.arity:
        raise GaloisKitError(
            f"breadth cap {breadth_cap} is below the arity {f.arity}: no split exists"
        )
    n, k = f.arity, cluster.domain_size
    boxes = [(g.cap, g.box.bounds) for g in cluster.generators]
    with Meter() as meter:
        for counts, _ in ref_members(cluster, breadth_cap, meter):
            size = sum(counts.values()) - n + 1
            if size <= 0:
                continue
            live = [bounds for cap, bounds in boxes if size <= cap]
            used = {}
            selections = recursive_ordered_selections(sorted(counts), counts.get, n, used)
            for cols in meter.counted("cluster splits", selections):
                out = {t: c - used.get(t, 0) for t, c in counts.items()}
                image = tuple(f.table[r] for r in ref_row_ranks(k, cols))
                out[image] = out.get(image, 0) + 1
                if not any(bounds(out) for bounds in live):
                    rest = dict(out)
                    rest[image] -= 1
                    witness = (
                        TupleMatrix(cluster.arity, cols),
                        FiniteMultiset(cluster.arity, rest),
                        FiniteMultiset(cluster.arity, out),
                    )
                    return ClusterVerdict(False, breadth_cap, witness)
    return ClusterVerdict(True, breadth_cap)


def _ref_generator_members(gen, limit):
    box = gen.box
    total_cap = min(gen.cap, limit)
    if total_cap == INF:
        raise GaloisKitError("member enumeration needs a finite cardinality limit")
    return bounded_multisets(
        box.arity, box.positive_support(), box.value, int(total_cap)
    )


def ref_enumerate_cluster_members(cluster, limit):
    seen = set()
    for gen in cluster.sorted_generators():
        for s in _ref_generator_members(gen, limit):
            if s not in seen:
                seen.add(s)
    return sorted(seen, key=lambda s: (s.cardinality, sorted(s.counts.items())))


def ref_cluster_member(s, cluster):
    return any(
        s.cardinality <= g.cap and g.box.bounds(s.counts) for g in cluster.generators
    )


def ref_satisfies_cluster(f, cluster, breadth_cap):
    for s in ref_enumerate_cluster_members(cluster, breadth_cap):
        if s.cardinality < f.arity:
            continue
        for m1, m2 in split_enumerate(s, f.arity):
            image = apply_op_rows(f, m1)
            out = ms_join(FiniteMultiset.from_tuples(cluster.arity, [image]), m2)
            if not ref_cluster_member(out, cluster):
                return ClusterVerdict(False, breadth_cap, (m1, m2, out))
    return ClusterVerdict(True, breadth_cap)


def _ref_family_respected(m, sigmas, scheme, phis):
    for h, phi in zip(scheme.maps, phis):
        cols = tuple(
            apply_scheme_map(col, sigma, h) for col, sigma in zip(m.columns, sigmas)
        )
        mapped = TupleMatrix(len(h), cols)
        if any(
            c > phi.value(t) for t, c in columns_multiset(mapped).counts.items()
        ):
            return False
    return True


def _ref_exists_sigmas(m, scheme, phis, k):
    per_column = list(skolem_maps(scheme.indeterminates, k))
    for sigmas in product(per_column, repeat=m.column_count):
        if _ref_family_respected(m, sigmas, scheme, phis):
            return True
    return False


def ref_is_restrictive_rf_minor(phi, phis, scheme, col_cap=None):
    if col_cap is None:
        col_cap = default_col_cap(scheme)
    for n in range(1, col_cap + 1):
        for m in enumerate_matrices_leq(phi, n):
            if not _ref_exists_sigmas(m, scheme, phis, phi.domain_size):
                return MinorVerdict(False, col_cap, m)
    return MinorVerdict(True, col_cap)


def ref_is_extensive_rf_minor(phi, phis, scheme, col_cap=None):
    if col_cap is None:
        col_cap = default_col_cap(scheme)
    k = phi.domain_size
    everything = RepetitionFunction.constant(phi.arity, k, INF)
    for n in range(1, col_cap + 1):
        for m in enumerate_matrices_leq(everything, n):
            if _ref_exists_sigmas(m, scheme, phis, k):
                if any(
                    c > phi.value(t) for t, c in columns_multiset(m).counts.items()
                ):
                    return MinorVerdict(False, col_cap, m)
    return MinorVerdict(True, col_cap)


def ref_cluster_minor_member(m, clusters, scheme):
    clusters = list(clusters)
    if len(clusters) != len(scheme.maps):
        raise GaloisKitError("need one cluster per scheme map")
    if m.row_count != scheme.target:
        raise GaloisKitError("matrix row count must equal the scheme target")
    k = clusters[0].domain_size
    n = m.column_count
    per_column = list(skolem_maps(scheme.indeterminates, k))
    for sigmas in product(per_column, repeat=n):
        ok = True
        for h, phi_cluster in zip(scheme.maps, clusters):
            cols = tuple(
                apply_scheme_map(col, sigma, h)
                for col, sigma in zip(m.columns, sigmas)
            )
            mapped = FiniteMultiset.from_tuples(len(h), cols)
            if not ref_cluster_member(mapped, phi_cluster):
                ok = False
                break
        if ok:
            return True
    return False


def ref_antichain_cluster(m, k, members):
    gens = frozenset(
        BoxedGenerator(RepetitionFunction.from_counts(m, k, s.counts), s.cardinality)
        for s in members
        if not any(t != s and ms_sub(s, t) for t in members)
    )
    return Cluster(m, k, gens)


def ref_materialize_minor(clusters, scheme, breadth_cap):
    clusters = list(clusters)
    k = clusters[0].domain_size
    m = scheme.target
    members = []
    tuples = list(product(range(k), repeat=m))
    for s in bounded_multisets(m, tuples, lambda t: INF, breadth_cap):
        matrix = TupleMatrix(m, tuple(s.elements()))
        if ref_cluster_minor_member(matrix, clusters, scheme):
            members.append(s)
    return ref_antichain_cluster(m, k, members)


def _all_rows(k, n):
    """The matrix whose rows are all n-tuples over k, in lexicographic order.

    Row-wise application of an n-ary f to it gives f's value table.
    """
    return TupleMatrix.from_rows(product(range(k), repeat=n))


def ref_inv_cluster_for_arity(closed, matrix):
    m = matrix.row_count
    mstar = columns_multiset(matrix)

    members = set()
    submultisets = bounded_multisets(
        m, mstar.support(), mstar.multiplicity, mstar.cardinality
    )
    for x in submultisets:
        rest = ms_diff(mstar, x)
        for blocks in ms_partitions(rest):
            image_sets = []
            for block in blocks:
                block_matrix = TupleMatrix(m, tuple(block.elements()))
                image_sets.append(sorted(class_image(closed, block_matrix)))
            for d in product(*image_sets):
                members.add(ms_join(x, FiniteMultiset.from_tuples(m, d)))
    return ref_antichain_cluster(m, closed.domain_size, members)


def ref_invariant_constraint(closed, matrix, codomain_size):
    chi = RepetitionFunction.from_counts(
        matrix.row_count, closed.domain_size, columns_multiset(matrix).counts
    )
    return GeneralizedConstraint(chi, class_image(closed, matrix), codomain_size)


def ref_gc_inv(cls_, cfg):
    k = cls_.domain_size
    closed = close_perm_dummy(cls_, max(cfg.n_max, cls_.max_arity or 1))
    return [
        ref_invariant_constraint(closed, TupleMatrix.from_rows(rows), cls_.codomain_size)
        for n in range(1, cfg.n_max + 1)
        for m in range(1, min(cfg.m_max, k ** n) + 1)
        for rows in combinations(product(range(k), repeat=n), m)
    ]


def ref_separating_constraint(cls_, g):
    if len(cls_) == 0:
        raise GaloisKitError("cannot separate from the empty class")
    n = g.arity
    closed = close_perm_dummy(cls_, max(n, cls_.max_arity))
    matrix = _all_rows(cls_.domain_size, n)
    c = ref_invariant_constraint(closed, matrix, cls_.codomain_size)
    if apply_op_rows(g, matrix) in c.consequent:
        raise NotSeparableError(
            "no separating constraint: g is in the closed class at its arity"
        )
    return c


def ref_separating_cluster(cls_, g, cfg):
    n = g.arity
    closed = close_composition(cls_, max(n, cls_.max_arity or 1, cfg.n_max))
    if g in closed:
        raise NotSeparableError("no separating cluster: g is in the closed class")
    matrix = _all_rows(cls_.domain_size, n)
    cluster = ref_inv_cluster_for_arity(closed, matrix)
    image = FiniteMultiset.from_tuples(matrix.row_count, [apply_op_rows(g, matrix)])
    if ref_cluster_member(image, cluster):
        raise GaloisKitError("separation failed: g image unexpectedly admitted")
    for f in closed:
        if f.arity <= cfg.n_max:
            if not ref_satisfies_cluster(f, cluster, max(cfg.breadth, f.arity)):
                raise GaloisKitError(
                    f"separation failed: class member {f} violates the cluster"
                )
    return cluster


# --- random instances -------------------------------------------------


def _outcome(fn, *args):
    """The result, or the kind and message of a refusal other than the budget's."""
    try:
        return fn(*args)
    except BudgetExceededError:
        raise
    except GaloisKitError as e:
        return ("refused", type(e).__name__, str(e))


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    assert got == want  # dataclass equality: verdict, caps and witness


def _assert_agrees(want, kernel, *args, budget):
    """The kernel gives the oracle's outcome ``want`` at an unlimited budget,
    and at ``budget`` gives it too or refuses having done more steps than
    ``budget``, which is then below the default.  Returns the outcome at
    ``budget``, or "refused"."""
    with Meter(UNLIMITED):
        _assert_same(_outcome(kernel, *args), want)
    try:
        with Meter(budget):
            got = _outcome(kernel, *args)
    except BudgetExceededError as e:
        assert e.done > e.budget == budget
        assert budget < DEFAULT_BUDGET
        return "refused"
    _assert_same(got, want)
    return got


def _random_rf(rng, m, k, positive_default=False):
    if positive_default:
        default = rng.choice([1, 2, INF])
    else:
        default = rng.choice([0, 0, 0, 1, INF])
    exc = {}
    for _ in range(rng.randint(0, 4)):
        t = tuple(rng.randrange(k) for _ in range(m))
        exc[t] = rng.choice([0, 1, 2, 3, INF])
    return RepetitionFunction(m, k, default, exc)


def _random_op(rng, k, n, k_out=None):
    k_out = k if k_out is None else k_out
    return Operation(k, k_out, n, tuple(rng.randrange(k_out) for _ in range(k ** n)))


def _random_boxed_cluster(rng, m, k):
    gens = set()
    for _ in range(rng.randint(1, 3)):
        box = _random_rf(rng, m, k, positive_default=rng.random() < 0.3)
        gens.add(BoxedGenerator(box, rng.choice([0, 1, 2, 3, INF])))
    return Cluster(m, k, frozenset(gens))


def test_constraint_kernel_matches_reference():
    rng = random.Random(3101)
    verdicts = {True: 0, False: 0, "refused": 0}
    for i in range(400):
        k = rng.choice([2, 3])
        n = rng.randint(1, 3)
        m = rng.randint(1, 3 if k == 2 else 2)
        k_out = rng.choice([k, k, 2, 3])
        phi = _random_rf(rng, m, k, positive_default=rng.random() < 0.2)
        space = list(product(range(k_out), repeat=m))
        consequent = frozenset(rng.sample(space, rng.randint(0, len(space))))
        c = GeneralizedConstraint(phi, consequent, k_out)
        f = _random_op(rng, k, n, k_out)
        budget = rng.choice([2_000_000, 2_000_000, 50, 5])
        want = _outcome(ref_satisfies_constraint, f, c)
        if _assert_agrees(want, satisfies_constraint, f, c, budget=budget) == "refused":
            verdicts["refused"] += 1
        verdicts[want.satisfied] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_constraint_tests_are_the_matrices_in_order_with_their_row_ranks():
    rng = random.Random(3102)
    for _ in range(150):
        k = rng.choice([2, 3])
        n = rng.randint(1, 3)
        m = rng.randint(1, 3 if k == 2 else 2)
        phi = _random_rf(rng, m, k, positive_default=rng.random() < 0.2)
        with Meter(UNLIMITED) as stream_meter:
            tests = list(_matrices(phi, n))
        with Meter(UNLIMITED):
            want = list(enumerate_matrices_leq(phi, n))
        assert [TupleMatrix(m, (*prefix, col)) for prefix, col, _ in tests] == want
        want_ranks = [
            tuple(sum(x * k ** (n - 1 - j) for j, x in enumerate(row)) for row in matrix.rows())
            for matrix in want]
        assert [tuple(ranks) for _, _, ranks in tests] == want_ranks
        # the rank vectors grouped by their largest rank, each read by its getter
        want_groups = {}
        for ranks in want_ranks:
            want_groups.setdefault(max(ranks), []).append(ranks)
        probe = range(k ** n)  # a getter reads its ranks off it
        for read in ("cold", "warm"):  # the warm read charges what the stream charged
            with Meter(UNLIMITED) as meter:
                checks = _rank_checks([(phi, frozenset())], n)
            assert meter.done == stream_meter.done
            assert {r: [get(probe) if m > 1 else (get(probe),) for get, _ in tests]
                    for r, tests in checks.items()} == want_groups
            assert list(checks) == list(want_groups)
            if read == "cold":
                kept = phi._ranks[n]
            assert phi._ranks[n] is kept  # the warm read streamed nothing


def _cluster_cases(rng):
    """(operation, cluster, breadth cap, budget) over the three cluster kinds."""
    for _ in range(150):
        k = rng.choice([2, 3])
        m = rng.randint(1, 2)
        n = rng.randint(1, 3 if k == 2 else 2)
        cluster = _random_boxed_cluster(rng, m, k)
        yield _random_op(rng, k, n), cluster, n + rng.randint(0, 1), rng.choice(
            [2_000_000, 2_000_000, 3]
        )
    chain2 = {(0, 0), (0, 1), (1, 1)}
    chain3 = {(a, b) for a in range(3) for b in range(3) if a <= b}
    vee3 = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
    orders = [order_cluster(chain2, 2), order_cluster(chain3, 3), order_cluster(vee3, 3)]
    for f in all_operations(2, 2):
        yield f, orders[0], 3, 2_000_000
    for _ in range(12):
        yield _random_op(rng, 3, 1), rng.choice(orders[1:]), 2, 2_000_000
    for _ in range(6):
        yield _random_op(rng, 3, 2), rng.choice(orders[1:]), 2, 2_000_000
    for _ in range(6):
        cls_ = OperationClass(2)
        for _ in range(rng.randint(1, 2)):
            cls_.add(_random_op(rng, 2, rng.randint(1, 2)))
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
        for cluster in cl_inv(cls_, cfg):
            for _ in range(4):
                n = rng.randint(1, 2)
                yield _random_op(rng, 2, n), cluster, n + rng.randint(0, 2), 2_000_000


def test_cluster_kernel_matches_reference():
    rng = random.Random(3102)
    verdicts = {True: 0, False: 0, "refused": 0}
    for f, cluster, breadth_cap, budget in _cluster_cases(rng):
        want = _outcome(ref_satisfies_cluster, f, cluster, breadth_cap)
        got = _assert_agrees(want, satisfies_cluster, f, cluster, breadth_cap,
                             budget=budget)
        if got == "refused":
            verdicts["refused"] += 1
        verdicts[want.satisfied] += 1
    assert min(verdicts.values()) >= 10, verdicts


def _random_scheme(rng, target, with_vars):
    names = ("u", "v")[: rng.randint(1, 2)] if with_vars else ()
    entries = list(range(target)) + list(names)
    maps = tuple(
        tuple(rng.choice(entries) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 2))
    )
    return MinorScheme(target, names, maps)


def test_minor_kernels_match_reference():
    rng = random.Random(3103)
    verdicts = {True: 0, False: 0}
    for i in range(240):
        k = rng.choice([2, 2, 3])
        target = rng.randint(1, 2)
        scheme = _random_scheme(rng, target, with_vars=i % 2 == 1)
        col_cap = rng.randint(1, 3)
        # the references walk (k^(target + vars))^col_cap candidates
        while (k ** (target + len(scheme.indeterminates))) ** col_cap > 4096:
            col_cap -= 1
        phi = _random_rf(rng, target, k, positive_default=rng.random() < 0.2)
        phis = [
            _random_rf(rng, len(h), k, positive_default=rng.random() < 0.3)
            for h in scheme.maps
        ]
        for ref, kernel in (
            (ref_is_restrictive_rf_minor, is_restrictive_rf_minor),
            (ref_is_extensive_rf_minor, is_extensive_rf_minor),
        ):
            want = ref(phi, phis, scheme, col_cap)
            _assert_same(kernel(phi, phis, scheme, col_cap), want)
            verdicts[want.holds] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_minor_kernels_match_reference_at_default_cap():
    rng = random.Random(3104)
    for i in range(30):
        scheme = _random_scheme(rng, rng.randint(1, 2), with_vars=i % 3 == 0)
        phi = _random_rf(rng, scheme.target, 2)
        phis = [_random_rf(rng, len(h), 2) for h in scheme.maps]
        for ref, kernel in (
            (ref_is_restrictive_rf_minor, is_restrictive_rf_minor),
            (ref_is_extensive_rf_minor, is_extensive_rf_minor),
        ):
            _assert_same(kernel(phi, phis, scheme), ref(phi, phis, scheme))


def test_cluster_members_match_reference():
    rng = random.Random(3105)
    outcomes = {"members": 0, "BudgetExceededError": 0, "GaloisKitError": 0}
    for i in range(300):
        k = rng.choice([2, 3])
        m = rng.randint(1, 2)
        if i % 25 == 0:
            cluster = empty_cluster(m, k)
        else:
            cluster = _random_boxed_cluster(rng, m, k)
        limit = rng.choice([0, 1, 2, 3, 4, INF])
        budget = rng.choice([DEFAULT_BUDGET, DEFAULT_BUDGET, 3, 8])
        want = _outcome(ref_enumerate_cluster_members, cluster, limit)
        got = _assert_agrees(want, enumerate_cluster_members, cluster, limit,
                             budget=budget)
        if got == "refused":
            outcomes["BudgetExceededError"] += 1
        if isinstance(want, tuple):
            outcomes[want[1]] += 1
        else:
            assert got == "refused" or all(type(s) is FiniteMultiset for s in got)
            outcomes["members"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _random_composition_classes(rng):
    """(class, n): 1-2 random generators of arity <= n, k=2 with n <= 3
    or k=3 with n <= 2."""
    for i in range(160):
        k, n = ((2, 1), (2, 2), (2, 3), (2, 3), (3, 1), (3, 2))[i % 6]
        cls_ = OperationClass(k)
        for _ in range(rng.randint(1, 2)):
            cls_.add(_random_op(rng, k, rng.randint(1, n)))
        yield cls_, n


def test_inv_clusters_match_reference():
    rng = random.Random(3106)
    classes = 0
    for cls_, n in _random_composition_classes(rng):
        k = cls_.domain_size
        got = cl_inv(cls_, GaloisConfig(k, n_max=n, m_max=1, breadth=n))
        closed = close_composition(cls_, n)
        for a, cluster in enumerate(got, start=1):
            want = ref_inv_cluster_for_arity(closed, _all_rows(k, a))
            assert format_cluster("c", cluster) == format_cluster("c", want)
            assert cluster == want
        classes += 1
    assert classes >= 150


def _random_classes(rng, count):
    """(class, n_max): 0-2 random generators of arity <= 2; k=2 with
    n_max <= 3, or k=3 with n_max <= 2, and now and then n_max = 3."""
    for i in range(count):
        k, n = ((2, 1), (2, 2), (2, 3), (2, 3), (3, 1), (3, 2), (3, 2))[i % 7]
        if k == 3 and i % 21 == 6:
            n = 3
        k_out = rng.choice([k, k, 2])
        cls_ = OperationClass(k, k_out)
        for _ in range(rng.choice([0, 1, 1, 2, 2])):
            cls_.add(_random_op(rng, k, rng.randint(1, min(n, 2)), k_out))
        yield cls_, n


def test_inv_constraints_match_reference():
    rng = random.Random(3110)
    for cls_, n in _random_classes(rng, 42):
        k = cls_.domain_size
        m_max = 3 if k ** n == 27 else rng.randint(1, 3)
        cfg = GaloisConfig(k, n_max=n, m_max=m_max, breadth=n,
                           codomain_size=cls_.codomain_size)
        assert gc_inv(cls_, cfg) == first_occurrences(ref_gc_inv(cls_, cfg))


def first_occurrences(constraints):
    """The constraints with each antecedent once, at its first occurrence;
    each repeat's consequent must be the one kept."""
    first = {}
    for c in constraints:
        assert first.setdefault(c.antecedent, c).consequent == c.consequent
    return list(first.values())


@st.composite
def classes_and_caps(draw):
    """(class, cfg): 0-2 random generators of arity <= 2 over k = 2 or 3,
    a codomain size k_out mostly unlike k, and n_max, m_max of 1 to 3, with
    n_max <= 2 over k = 3."""
    k = draw(st.sampled_from([2, 3]))
    k_out = draw(st.sampled_from([c for c in (1, 2, 3) if c != k] + [k]))
    n_max = draw(st.integers(1, 5 - k))
    cls_ = OperationClass(k, k_out)
    for _ in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, min(n_max, 2)))
        cls_.add(Operation(k, k_out, n, tuple(draw(st.lists(
            st.integers(0, k_out - 1), min_size=k ** n, max_size=k ** n)))))
    return cls_, GaloisConfig(k, n_max=n_max, m_max=draw(st.integers(1, 3)), breadth=n_max,
                              codomain_size=k_out)


@settings(max_examples=80, deadline=None)
@given(classes_and_caps())
def test_gc_inv_gives_each_antecedent_once_and_f_pol_the_same_class(case):
    cls_, cfg = case
    got, per_matrix = gc_inv(cls_, cfg), ref_gc_inv(cls_, cfg)
    assert len({c.antecedent for c in got}) == len(got)
    assert got == first_occurrences(per_matrix)
    answers = []
    for constraints in (got, per_matrix):
        with Meter(UNLIMITED) as meter:
            answers.append((f_pol(constraints, cfg)._pairs(), meter.done))
    assert answers[0] == answers[1]


def test_separating_constraint_matches_reference():
    rng = random.Random(3111)
    outcomes = {"separated": 0, "NotSeparableError": 0}
    for cls_, n in _random_classes(rng, 140):
        k, k_out = cls_.domain_size, cls_.codomain_size
        closed = close_perm_dummy(cls_, n)
        for _ in range(3):
            a = rng.randint(1, n)
            members = closed.arity_part(a)
            if members and rng.random() < 0.4:
                g = rng.choice(members)
            else:
                g = _random_op(rng, k, a, k_out)
            want = _outcome(ref_separating_constraint, cls_, g)
            assert _outcome(separating_constraint, cls_, g) == want
            if not isinstance(want, tuple):
                outcomes["separated"] += 1
                assert not satisfies_constraint(g, want)
            elif len(cls_):
                outcomes[want[1]] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_separating_cluster_matches_reference():
    rng = random.Random(3112)
    outcomes = {"separated": 0, "NotSeparableError": 0}
    for cls_, n in _random_composition_classes(rng):
        k = cls_.domain_size
        if k ** n > 8:
            continue  # the reference walks every submultiset of the all-rows columns
        cfg = GaloisConfig(k, n_max=n, m_max=1, breadth=n)
        closed = close_composition(cls_, n)
        a = rng.randint(1, n)
        members = closed.arity_part(a)
        g = rng.choice(members) if members and rng.random() < 0.4 else _random_op(rng, k, a)
        want = _outcome(ref_separating_cluster, cls_, g, cfg)
        got = _outcome(separating_cluster, cls_, g, cfg)
        if isinstance(want, tuple):
            assert got == want
            outcomes[want[1]] += 1
        else:
            assert format_cluster("c", got) == format_cluster("c", want)
            assert got == want
            outcomes["separated"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_separators_refuse_an_operation_over_another_domain():
    cls_ = OperationClass(2, members=[Operation(2, 2, 1, (0, 1))])
    cfg = GaloisConfig(2, n_max=1, m_max=1, breadth=1)
    for g in (Operation(3, 2, 1, (0, 1, 1)), Operation(1, 2, 1, (0,))):
        for separate in (lambda: separating_constraint(cls_, g),
                         lambda: separating_cluster(cls_, g, cfg)):
            with pytest.raises(GaloisKitError, match="operation domain does not match"):
                separate()


def test_separators_refuse_an_operation_over_another_codomain():
    cls_ = OperationClass(2, members=[Operation(2, 2, 2, (0, 0, 0, 1))])
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    # the first has the member's table, the second leaves the class's codomain
    for g in (Operation(2, 3, 2, (0, 0, 0, 1)), Operation(2, 3, 1, (0, 2))):
        assert g not in cls_
        for separate in (lambda: separating_constraint(cls_, g),
                         lambda: separating_cluster(cls_, g, cfg)):
            with pytest.raises(GaloisKitError, match="operation codomain does not match"):
                separate()


def _random_cluster_minor(rng):
    k = rng.choice([2, 2, 3])
    target = rng.randint(1, 2)
    scheme = _random_scheme(rng, target, with_vars=rng.random() < 0.5)
    clusters = [_random_boxed_cluster(rng, len(h), k) for h in scheme.maps]
    return k, scheme, clusters


def test_cluster_minor_member_matches_reference():
    rng = random.Random(3107)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        k, scheme, clusters = _random_cluster_minor(rng)
        for _ in range(4):
            columns = tuple(
                tuple(rng.randrange(k) for _ in range(scheme.target))
                for _ in range(rng.randint(0, 3))
            )
            matrix = TupleMatrix(scheme.target, columns)
            want = ref_cluster_minor_member(matrix, clusters, scheme)
            assert cluster_minor_member(matrix, clusters, scheme) == want
            verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_cluster_minor_member_refusals_match_reference():
    scheme = MinorScheme(2, (), ((0,), (1,)))
    one = [_random_boxed_cluster(random.Random(1), 1, 2)]
    short = TupleMatrix(1, ((0,),))
    for clusters, matrix in ((one, short), (one * 2, short), (one * 3, short)):
        want = _outcome(ref_cluster_minor_member, matrix, clusters, scheme)
        assert _outcome(cluster_minor_member, matrix, clusters, scheme) == want
        assert isinstance(want, tuple)


def test_materialized_minors_match_reference():
    rng = random.Random(3108)
    outcomes = {"cluster": 0, "refused": 0}
    for _ in range(120):
        k, scheme, clusters = _random_cluster_minor(rng)
        breadth_cap = rng.randint(0, 3)
        budget = rng.choice([DEFAULT_BUDGET, 10])
        want = _outcome(ref_materialize_minor, clusters, scheme, breadth_cap)
        got = _assert_agrees(want, materialize_minor, clusters, scheme, breadth_cap,
                             budget=budget)
        if got == "refused":
            outcomes["refused"] += 1
        else:
            assert format_cluster("c", got) == format_cluster("c", want)
        outcomes["cluster"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _random_count_family(rng):
    """Distinct count dicts over few tuples, so many lie below others."""
    k, m = rng.choice([2, 3]), rng.randint(1, 2)
    tuples = list(product(range(k), repeat=m))
    family = {}
    for _ in range(rng.randint(0, 40)):
        support = rng.sample(tuples, rng.randint(0, min(len(tuples), 4)))
        counts = {t: rng.randint(1, 3) for t in support}
        family[frozenset(counts.items())] = counts
    return m, k, list(family.values())


def kept_antichain_cluster(m, k, members):
    """The earlier build: each member, largest first, against every
    maximal member kept so far, one "antichain comparisons" step each."""
    meter = _current_meter()
    kept = []
    members = sorted(((sum(s.values()), s) for s in members), key=itemgetter(0), reverse=True)
    for size, group in groupby(members, key=itemgetter(0)):
        fresh = []
        for _, s in group:
            keys, items = s.keys(), s.items()
            hit = next((i for i, (_, t) in enumerate(kept, 1)
                        if keys <= t.keys() and all(c <= t[x] for x, c in items)), 0)
            meter.charge("antichain comparisons", hit or len(kept))
            if not hit:
                fresh.append((size, s))
        kept += fresh
    gens = frozenset(
        BoxedGenerator(RepetitionFunction.from_counts(m, k, s), size) for size, s in kept
    )
    return Cluster(m, k, gens)


def test_antichain_cluster_matches_reference():
    rng = random.Random(3109)
    dropped = 0
    for _ in range(300):
        m, k, members = _random_count_family(rng)
        want = ref_antichain_cluster(m, k, [FiniteMultiset(m, s) for s in members])
        with Meter() as old:
            assert kept_antichain_cluster(m, k, members) == want
        with Meter() as new:
            got = _antichain_cluster(m, k, members)
        assert got == want
        assert new.done.get("antichain comparisons", 0) <= old.done.get("antichain comparisons", 0)
        dropped += len(members) - len(got.generators)
    assert dropped >= 1000


def test_antichain_comparisons_are_metered():
    x, y, z, w = {(0,): 1, (1,): 2}, {(0,): 2}, {(0,): 1, (2,): 1}, {(2,): 1}
    # largest first, each against the larger maxima kept that hold its
    # rarest tuple: x against none; z holds (2,), which x lacks, so none;
    # y holds only (0,), so x; w holds only (2,), so z, which holds it:
    # 0 + 0 + 1 + 1
    members = [w, z, x, y]
    with pytest.raises(BudgetExceededError) as info, Meter(1):
        _antichain_cluster(1, 3, members)
    assert str(info.value) == "refusing antichain comparisons: 2 steps exceed budget 1"
    with Meter(2) as meter:
        got = _antichain_cluster(1, 3, members)
    assert meter.done == {"antichain comparisons": 2}
    assert got == ref_antichain_cluster(1, 3, [FiniteMultiset(1, s) for s in members])
    assert sorted(g.cap for g in got.generators) == [2, 2, 3]


# --- the ranked selection stream and the admission shortcut -----------

EXTNATS = st.sampled_from([0, 1, 2, 3, INF])


@st.composite
def bounded_columns(draw):
    """(k, n, support, bounds): up to four columns over k = 2 or 3 with
    random bounds, and a selection length n of 1 to 4."""
    k = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 3 if k == 2 else 2))
    space = list(product(range(k), repeat=m))
    support = sorted(draw(st.sets(st.sampled_from(space), max_size=4)))
    bounds = {t: draw(EXTNATS) for t in support}
    return k, draw(st.integers(1, 4)), support, bounds


def _antecedent(k, support, bounds):
    """The repetition function with these bounds on the support, 0
    elsewhere, over domain size k."""
    return RepetitionFunction(len(support[0]) if support else 1, k, 0, bounds)


@settings(max_examples=300, deadline=None)
@given(bounded_columns())
def test_ranked_selections_match_the_ordered_selections(case):
    k, n, support, bounds = case
    want = [(cols, list(ref_row_ranks(k, cols)))
            for cols in recursive_ordered_selections(support, bounds.get, n, {})]
    with Meter(UNLIMITED) as meter:
        stream = _matrices(_antecedent(k, support, bounds), n)
        got = [((*prefix, col), list(ranks)) for prefix, col, ranks in stream]
    assert got == want
    assert meter.done.get("constraint matrices", 0) == len(want)


def _drive(stream, stop):
    """The items a stream yields, read until it ends, refuses, or has
    yielded ``stop`` items, and the refusal if any."""
    items, refusal = [], None
    try:
        for item in stream:
            if len(items) == stop:
                break
            items.append(item)
    except BudgetExceededError as e:
        refusal = (e.phase, e.done, e.budget)
    stream.close()
    return items, refusal


@settings(max_examples=300, deadline=None)
@given(bounded_columns(), st.data())
def test_ranked_selections_charge_and_refuse_like_the_counted_stream(case, data):
    k, n, support, bounds = case
    total = sum(1 for _ in recursive_ordered_selections(support, bounds.get, n, {}))
    budget = data.draw(st.integers(0, total + 2), label="budget")
    stop = data.draw(st.integers(0, total + 1), label="stop")
    before = data.draw(st.integers(0, 3), label="steps already charged")
    phi = _antecedent(k, support, bounds)

    def selections():
        phi.positive_support()  # charged as _matrices charges it
        yield from recursive_ordered_selections(support, bounds.get, n, {})

    runs = []
    for ranked in (False, True):
        with Meter(budget + before) as meter:
            meter.charge("constraint matrices", before)
            if ranked:
                items, refusal = _drive(_matrices(phi, n), stop)
                items = [(*prefix, col) for prefix, col, _ in items]
            else:
                items, refusal = _drive(meter.counted("constraint matrices", selections()), stop)
        runs.append((items, refusal, meter.done))
    assert runs[1] == runs[0]


@st.composite
def member_counts(draw):
    """(counts, n): the counts of one to four distinct tuples, 1 to 5
    each, and a selection length n of 1 to 6, so that counts fall both
    above and below n and n may exceed the member's size."""
    counts = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    return counts, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(member_counts())
def test_split_orders_match_the_ordered_selections(case):
    counts, n = case
    # the member's i-th tuple in sorted order stands as (i,)
    support = [(i,) for i in range(len(counts))]
    want = list(recursive_ordered_selections(support, lambda t: counts[t[0]], n, {}))
    shape = tuple(min(c, n) for c in counts)
    orders = _split_orders(shape, n)
    assert [tuple((p,) for p in positions) for _, _, positions in orders] == want
    assert list(_split_selections(shape, n)) == orders
    # q indexes the first n - 1 positions among the distinct prefixes, in order
    prefixes = list(dict.fromkeys(positions[:-1] for _, _, positions in orders))
    assert [(prefixes[q], p) for q, p, positions in orders] == [
        (positions[:-1], positions[-1]) for _, _, positions in orders]
    # a list cut short is the start of the whole
    for limit in {0, 1, len(orders) // 3, len(orders) - 1, len(orders), len(orders) + 1}:
        assert _split_orders(shape, n, max(limit, 0)) == orders[:limit]


def test_split_orders_are_built_no_further_than_the_budget():
    # a member of 12 distinct tuples has 12! splits at arity 12, so the
    # orders of its shape must not be listed past the budget's room
    space = list(product(range(2), repeat=4))
    box = RepetitionFunction(4, 2, 0, {t: 1 for t in space[:12]})
    cluster = Cluster(4, 2, frozenset({BoxedGenerator(box, 12)}))
    # the first column of M1 is a tuple of the member, so every split passes
    f = Operation(2, 2, 12, tuple(r >> 11 for r in range(2 ** 12)))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refusal:
        with Meter(10_000) as meter:
            satisfies_cluster(f, cluster, 12)
    assert time.perf_counter() - start < 1
    assert (refusal.value.phase, refusal.value.done) == ("cluster splits", 10_001)
    assert (meter.done["cluster members"], meter.done["cluster splits"]) == (4096, 10_001)
    # split_enumerate stays a lazy stream of the same orders
    s = FiniteMultiset(4, {t: 1 for t in space[:12]})
    with Meter(10_000):
        first = next(split_enumerate(s, 12))
    assert first[0].columns == tuple(space[:12])
    assert time.perf_counter() - start < 1


def test_kept_orders_hold_at_most_the_bound(monkeypatch):
    monkeypatch.setattr(clusters, "_KEEP", 10)
    kept = clusters._KeptOrders()
    assert kept.build((1, 1, 1), 3, UNLIMITED) == _split_orders((1, 1, 1), 3)
    assert (list(kept), kept.held) == ([(1, 1, 1)], 6)
    assert len(kept.build((1, 1, 1, 1), 3, UNLIMITED)) == 24  # never kept
    assert (list(kept), kept.held) == ([(1, 1, 1)], 6)
    kept.build((1, 1), 1, UNLIMITED)
    assert (list(kept), kept.held) == ([(1, 1, 1), (1, 1)], 8)
    kept.build((2, 1), 2, UNLIMITED)  # would pass the bound: the lists before it are dropped
    assert (list(kept), kept.held) == ([(2, 1)], 3)
    # a list the room cuts short is built one order past it, and not kept
    assert kept.build((1, 1, 1), 3, 2) == _split_orders((1, 1, 1), 3)[:3]
    assert (list(kept), kept.held) == ([(2, 1)], 3)
    # a check answers and charges the same with its orders kept or not
    cluster = relation_cluster({(0, 0), (0, 1), (1, 1), (2, 2), (1, 2)}, 2, 3)
    f = Operation(3, 3, 2, (0, 1, 2, 1, 1, 2, 2, 2, 2))
    runs = [_metered_outcome(satisfies_cluster, (f, cluster, 5), UNLIMITED) for _ in range(2)]
    clusters._kept_orders.cache_clear()
    runs.append(_metered_outcome(satisfies_cluster, (f, cluster, 5), UNLIMITED))
    assert runs[0] == runs[1] == runs[2]


def test_c_pol_compile_shares_the_kept_orders():
    # c_pol's compile reads and fills the store of satisfies_cluster's
    # check: it answers and charges alike cold, warm and after a check,
    # and a budget that cuts a member's orders short keeps only complete
    # lists.  The 72 operation tables are charged first.
    cluster = relation_cluster({(0, 0), (0, 1), (1, 1)}, 2, 2)
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
    clusters._kept_orders.cache_clear()
    runs = [_metered_outcome(c_pol, ([cluster], cfg), UNLIMITED) for _ in range(2)]
    f = Operation(2, 2, 2, (0, 1, 1, 1))
    assert _metered_outcome(satisfies_cluster, (f, cluster, 5), UNLIMITED)[0]
    runs.append(_metered_outcome(c_pol, ([cluster], cfg), UNLIMITED))
    assert runs[0] == runs[1] == runs[2]
    done = runs[0][1]
    assert (done["operation tables"], done["cluster splits"]) == (72, 150)
    for budget in range(72, 150):
        clusters._kept_orders.cache_clear()
        assert _metered_outcome(c_pol, ([cluster], cfg), budget)[0] == (
            "refused", "cluster splits", budget + 1)
        _assert_kept_orders_complete()
    assert clusters._kept_orders(2)
    # satisfies_cluster's check reads through the same lookup: under every
    # budget that refuses in its splits, it too keeps only complete lists
    with Meter(UNLIMITED) as meter:
        satisfies_cluster(f, cluster, 5)
    splits, refused = meter.done["cluster splits"], 0
    for budget in range(splits):
        clusters._kept_orders.cache_clear()
        outcome = _metered_outcome(satisfies_cluster, (f, cluster, 5), budget)[0]
        refused += outcome == ("refused", "cluster splits", budget + 1)
        _assert_kept_orders_complete()
    assert refused and clusters._kept_orders(2)


def _assert_kept_orders_complete():
    for n in (1, 2, 3):  # every arity these checks read
        for counts, orders in clusters._kept_orders(n).items():
            assert orders == _split_orders(tuple([min(c, n) for c in counts]), n)


def test_single_image_outputs_admit_by_cap_and_one_copy():
    # |S| = n leaves M2 empty, so the output {f M1} is admitted exactly by
    # the generators whose cap is at least 1 and whose box allows one copy
    # of the image: over {0, 1, 2}, the cap-0 box allows every tuple but
    # admits no single image, the cap-1 box allows one (1), and the INF box
    # allows any number of (0), so an image (2) is refused
    cluster = Cluster(1, 3, frozenset({
        BoxedGenerator(RepetitionFunction.constant(1, 3, INF), 0),
        BoxedGenerator(RepetitionFunction(1, 3, 0, {(1,): 1}), 1),
        BoxedGenerator(RepetitionFunction(1, 3, 0, {(0,): INF}), INF)}))
    rng = random.Random(3120)
    ops = list(all_operations(3, 1)) + [_random_op(rng, 3, 2) for _ in range(60)]
    verdicts, single = {True: 0, False: 0}, 0
    for f in ops:
        for breadth_cap in (f.arity, f.arity + 1):
            case = (f, cluster, breadth_cap)
            want = _metered_outcome(ref_full_test_satisfies_cluster, case, UNLIMITED)
            got = _metered_outcome(satisfies_cluster, case, UNLIMITED)
            # the reference charges a member once per generator listing it
            assert got[0] == want[0]
            assert got[1].get("cluster splits") == want[1].get("cluster splits")
            verdicts[want[0].satisfied] += 1
            if not want[0]:
                single += want[0].witness[1] == FiniteMultiset.empty(1)
    assert min(verdicts.values()) >= 10 and single >= 10, (verdicts, single)


@st.composite
def boxed_cluster_cases(draw):
    """(f, cluster, breadth cap): a random boxed cluster of arity 1 or 2
    over k = 2 or 3, and an operation of arity 1 to 4 over the same k."""
    k, m = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]))
    space = list(product(range(k), repeat=m))
    gens = set()
    for _ in range(draw(st.integers(1, 3))):
        default = draw(st.sampled_from([0, 0, 1, 2, INF]))
        exceptions = draw(st.dictionaries(st.sampled_from(space), EXTNATS, max_size=4))
        box = RepetitionFunction(m, k, default, exceptions)
        gens.add(BoxedGenerator(box, draw(EXTNATS)))
    n = draw(st.integers(1, 4 if k ** m <= 4 else 2))
    f = Operation(k, k, n, tuple(draw(st.lists(st.integers(0, k - 1),
                                                min_size=k ** n, max_size=k ** n))))
    return f, Cluster(m, k, frozenset(gens)), n + draw(st.integers(0, 1))


ORDERS = {
    2: [{(0, 0), (0, 1), (1, 1)}],
    3: [{(a, b) for a in range(3) for b in range(3) if a <= b},
        {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}],
}


@cache
def _order_clusters(k):
    """The order clusters of ``ORDERS[k]``, built once."""
    return tuple(order_cluster(leq, k) for leq in ORDERS[k])


@st.composite
def order_cluster_cases(draw):
    """(f, order cluster, breadth cap) over a chain or a vee; k = 2 with
    arity 1 to 3, or k = 3 with arity 1 or 2."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3 if k == 2 else 2))
    f = Operation(k, k, n, tuple(draw(st.lists(st.integers(0, k - 1),
                                                min_size=k ** n, max_size=k ** n))))
    return f, draw(st.sampled_from(_order_clusters(k))), n + draw(st.integers(0, 1))


@cache
def _inv_clusters():
    """The cl_inv clusters of a few seeded binary classes at n_max = 2."""
    rng = random.Random(3113)
    clusters = []
    for _ in range(4):
        cls_ = OperationClass(2)
        for _ in range(rng.randint(1, 2)):
            cls_.add(_random_op(rng, 2, rng.randint(1, 2)))
        clusters += cl_inv(cls_, GaloisConfig(2, n_max=2, m_max=1, breadth=2))
    return tuple(clusters)


@st.composite
def inv_cluster_cases(draw):
    """(f, cl_inv cluster, breadth cap) over k = 2, arity 1 to 3."""
    n = draw(st.integers(1, 3))
    f = Operation(2, 2, n, tuple(draw(st.lists(st.integers(0, 1),
                                                min_size=2 ** n, max_size=2 ** n))))
    return f, draw(st.sampled_from(_inv_clusters())), n + draw(st.integers(0, 2))


def _metered_outcome(fn, args, budget):
    """The verdict or the refusal of fn(*args) under Meter(budget), and the
    meter's steps per phase."""
    with Meter(budget) as meter:
        try:
            outcome = fn(*args)
        except BudgetExceededError as e:
            outcome = ("refused", e.phase, e.done)
    return outcome, meter.done


def _expected_under(budget, cluster, members, want):
    """The outcome of ``satisfies_cluster`` under ``Meter(budget)``, from
    the unlimited reference outcome ``want`` with its steps per phase: the
    walk charges the support of every generator of cap at least 1 first,
    then lists each member once, then splits."""
    outcome, done = want
    with Meter(budget):
        try:
            for gen in _listed(cluster):
                gen.box.positive_support()
        except BudgetExceededError as e:
            return ("refused", e.phase, e.done)
    if members > budget:
        return ("refused", "cluster members", budget + 1)
    if done.get("cluster splits", 0) > budget:
        return ("refused", "cluster splits", budget + 1)
    return outcome


def _listed(cluster):
    """The generators whose boxes the walk lists: a cap-0 generator admits
    only the empty multiset, which the walk yields first anyway."""
    return [g for g in cluster.sorted_generators() if g.cap >= 1]


def _assert_walk_exact(case, budget):
    """The one-pass member walk and the bitmask admission give the
    reference walk's members, in its order once sorted, each with the
    mask of the generators admitting it, and the full test's verdict,
    witness, split steps and refusal, with one member step per distinct
    member."""
    f, cluster, breadth_cap = case
    want_members, want_lives, _ = _reference_walk(cluster, breadth_cap)
    compiled = _compiled([(g.box, g.cap) for g in cluster.sorted_generators()])
    with Meter(UNLIMITED) as meter:
        got_members = sorted(_members(compiled, breadth_cap, meter))
    assert [dict(items) for _, items, _ in got_members] == [c for c, _ in want_members]
    assert meter.done.get("cluster members", 0) == len(got_members)
    assert [size for size, _, _ in got_members] == [sum(c.values()) for c, _ in want_members]
    assert [live for _, _, live in got_members] == want_lives
    want = _metered_outcome(ref_full_test_satisfies_cluster, case, UNLIMITED)
    got = _metered_outcome(satisfies_cluster, case, UNLIMITED)
    assert got[0] == want[0]
    assert got[1].get("cluster splits") == want[1].get("cluster splits")
    assert got[1].get("support tuples", 0) == sum(
        g.box.arity * g.box.domain_size ** g.box.arity for g in _listed(cluster) if g.box.default)
    assert got[1].get("cluster members", 0) == len(got_members)
    assert (_metered_outcome(satisfies_cluster, case, budget)[0]
            == _expected_under(budget, cluster, len(got_members), want))
    return want[0]


@settings(max_examples=300, deadline=None)
@given(boxed_cluster_cases(), st.integers(0, 60))
def test_cluster_shortcut_matches_the_full_test_on_boxed_clusters(case, budget):
    _assert_walk_exact(case, budget)


@settings(max_examples=120, deadline=None)
@given(order_cluster_cases(), st.integers(0, 200))
def test_cluster_shortcut_matches_the_full_test_on_order_clusters(case, budget):
    _assert_walk_exact(case, budget)


@settings(max_examples=120, deadline=None)
@given(inv_cluster_cases(), st.integers(0, 200))
def test_cluster_shortcut_matches_the_full_test_on_inv_clusters(case, budget):
    _assert_walk_exact(case, budget)


def test_a_cap_zero_box_is_left_out_of_the_walk():
    """The union of a cap-0 box over all 1,024 Boolean 10-tuples and an
    8-tuple relation has the relation's 495 members of size <= 4, in the
    reference walk's order once sorted and with its live masks; the cap-0
    box is not listed, so no support tuple is charged."""
    rng = random.Random(1)
    relation = rng.sample(list(product(range(2), repeat=10)), 8)
    cluster = cluster_union([trivial_cluster(10, 0, 2), relation_cluster(relation, 10, 2)])
    want_members, want_lives, _ = _reference_walk(cluster, 4)
    with Meter(UNLIMITED) as meter:
        compiled = _compiled([(g.box, g.cap) for g in cluster.sorted_generators()])
        got = sorted(_members(compiled, 4, meter))
    assert [dict(items) for _, items, _ in got] == [c for c, _ in want_members]
    assert [live for _, _, live in got] == want_lives
    assert len(got) == 495
    assert meter.done == {"cluster members": 495}
