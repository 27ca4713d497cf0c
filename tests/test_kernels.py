"""The predicate and cluster kernels against their object-based reference bodies.

``satisfies_constraint``, ``satisfies_cluster``, the two rf-minor
predicates, cluster member enumeration, the cluster minors and the
invariant cluster of ``cl_inv`` work on raw column tuples and count
dicts.  The reference versions below are the earlier bodies, which
build and validate a ``TupleMatrix`` or ``FiniteMultiset`` for every
matrix, split, member, block and Skolem candidate, and which walk every
ordering of each column multiset.  On randomized instances both sides
must give the same verdict, the same first witness, the same members in
the same order, the same clusters, and refuse the same cases.
"""

import random
from itertools import product

import pytest

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
    cl_inv,
    class_image,
    close_composition,
    cluster_minor_member,
    columns_multiset,
    empty_cluster,
    enumerate_cluster_members,
    enumerate_matrices_leq,
    format_cluster,
    is_extensive_rf_minor,
    is_restrictive_rf_minor,
    materialize_minor,
    ms_join,
    order_cluster,
    satisfies_cluster,
    satisfies_constraint,
    split_enumerate,
    TupleMatrix,
)
from galois_kit.clusters import _antichain_cluster
from galois_kit.constraints import _tests
from galois_kit.errors import DEFAULT_BUDGET, Meter

UNLIMITED = float("inf")
from galois_kit.extnat import ext_min
from galois_kit.galois import _all_rows
from galois_kit.minors import default_col_cap, skolem_maps
from galois_kit.multisets import _nondecreasing_selections
from multiset_oracles import ms_diff, ms_partitions, ms_sub


# --- reference bodies -------------------------------------------------


def ref_satisfies_constraint(f, c):
    phi = c.antecedent
    for m in enumerate_matrices_leq(phi, f.arity):
        if apply_op_rows(f, m) not in c.consequent:
            return ConstraintVerdict(False, m)
    return ConstraintVerdict(True)


def ref_bounded_multisets(arity, support, bound, cap):
    counts = {}
    for _ in _nondecreasing_selections(support, bound, cap, counts):
        yield FiniteMultiset(arity, dict(counts))


def _ref_generator_members(gen, limit):
    box = gen.box
    total_cap = ext_min(gen.cap, limit)
    if total_cap == INF:
        raise GaloisKitError("member enumeration needs a finite cardinality limit")
    return ref_bounded_multisets(
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
    for s in ref_bounded_multisets(m, tuples, lambda t: INF, breadth_cap):
        matrix = TupleMatrix(m, tuple(s.elements()))
        if ref_cluster_minor_member(matrix, clusters, scheme):
            members.append(s)
    return ref_antichain_cluster(m, k, members)


def ref_inv_cluster_for_arity(closed, matrix):
    m = matrix.row_count
    mstar = columns_multiset(matrix)

    members = set()
    submultisets = ref_bounded_multisets(
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
        with Meter(UNLIMITED):
            tests = list(_tests(phi, n))
            want = list(enumerate_matrices_leq(phi, n))
        assert [TupleMatrix(m, cols) for cols, _ in tests] == want
        assert [list(ranks) for _, ranks in tests] == [
            [sum(x * k ** (n - 1 - j) for j, x in enumerate(row)) for row in matrix.rows()]
            for matrix in want]


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


def test_antichain_cluster_matches_reference():
    rng = random.Random(3109)
    dropped = 0
    for _ in range(300):
        m, k, members = _random_count_family(rng)
        want = ref_antichain_cluster(m, k, [FiniteMultiset(m, s) for s in members])
        got = _antichain_cluster(m, k, members)
        assert got == want
        dropped += len(members) - len(got.generators)
    assert dropped >= 1000


def test_antichain_comparisons_are_metered():
    x, y, z, w = {(0,): 1, (1,): 2}, {(0,): 2}, {(0,): 1, (2,): 1}, {(2,): 1}
    # largest first, each against the larger maxima kept: x against none,
    # z and y against x, w against x and then z, which holds it: 0 + 1 + 1 + 2
    members = [w, z, x, y]
    with pytest.raises(BudgetExceededError) as info, Meter(3):
        _antichain_cluster(1, 3, members)
    assert str(info.value) == "refusing antichain comparisons: 4 steps exceed budget 3"
    with Meter(4) as meter:
        got = _antichain_cluster(1, 3, members)
    assert meter.done == {"antichain comparisons": 4}
    assert got == ref_antichain_cluster(1, 3, [FiniteMultiset(1, s) for s in members])
    assert sorted(g.cap for g in got.generators) == [2, 2, 3]
