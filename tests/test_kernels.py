"""The predicate kernels against their object-based reference bodies.

``satisfies_constraint``, ``satisfies_cluster`` and the two rf-minor
predicates work on raw column tuples and count dicts.  The reference
versions below are the earlier bodies, which build and validate a
``TupleMatrix`` or ``FiniteMultiset`` for every matrix, split and Skolem
candidate, and which walk every ordering of each column multiset.  On
randomized instances both sides must give the same verdict, the same
first witness, and refuse the same budget cases.
"""

import random
from itertools import product

from galois_kit import (
    BoxedGenerator,
    BudgetExceededError,
    Cluster,
    ClusterVerdict,
    ConstraintVerdict,
    FiniteMultiset,
    GaloisConfig,
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
    cluster_member,
    columns_multiset,
    enumerate_cluster_members,
    enumerate_matrices_leq,
    is_extensive_rf_minor,
    is_restrictive_rf_minor,
    ms_join,
    order_cluster,
    satisfies_cluster,
    satisfies_constraint,
    split_enumerate,
    TupleMatrix,
)
from galois_kit.minors import default_col_cap, skolem_maps


# --- reference bodies -------------------------------------------------


def ref_satisfies_constraint(f, c, budget):
    phi = c.antecedent
    estimate = phi.support_size() ** f.arity
    if estimate > budget:
        raise BudgetExceededError(estimate, budget, "constraint satisfaction check")
    for m in enumerate_matrices_leq(phi, f.arity):
        if apply_op_rows(f, m) not in c.consequent:
            return ConstraintVerdict(False, m)
    return ConstraintVerdict(True)


def ref_satisfies_cluster(f, cluster, breadth_cap, budget):
    for s in enumerate_cluster_members(cluster, breadth_cap, budget):
        if s.cardinality < f.arity:
            continue
        for m1, m2 in split_enumerate(s, f.arity):
            image = apply_op_rows(f, m1)
            out = ms_join(FiniteMultiset.from_tuples(cluster.arity, [image]), m2)
            if not cluster_member(out, cluster):
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


# --- random instances -------------------------------------------------


def _outcome(fn, *args):
    """The verdict, or the refusal message when the budget is exceeded."""
    try:
        return fn(*args)
    except BudgetExceededError as e:
        return ("refused", str(e))


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    assert got == want  # dataclass equality: verdict, caps and witness


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
        want = _outcome(ref_satisfies_constraint, f, c, budget)
        got = _outcome(satisfies_constraint, f, c, budget)
        _assert_same(got, want)
        verdicts[want[0] if isinstance(want, tuple) else want.satisfied] += 1
    assert min(verdicts.values()) >= 20, verdicts


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
        want = _outcome(ref_satisfies_cluster, f, cluster, breadth_cap, budget)
        got = _outcome(satisfies_cluster, f, cluster, breadth_cap, budget)
        _assert_same(got, want)
        verdicts[want[0] if isinstance(want, tuple) else want.satisfied] += 1
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
