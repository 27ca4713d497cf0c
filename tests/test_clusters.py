import random
import re

import pytest
from itertools import permutations, product

from galois_kit import (
    BoxedGenerator,
    BudgetExceededError,
    Cluster,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    INF,
    Meter,
    MinorScheme,
    Operation,
    OperationClass,
    RepetitionFunction,
    all_operations,
    breadth,
    breadth_restrict,
    cl_inv,
    cluster_member,
    cluster_minor_member,
    cluster_union,
    empty_cluster,
    enumerate_cluster_members,
    equality_cluster,
    materialize_minor,
    ms_join,
    order_cluster,
    quotient,
    relation_cluster,
    satisfies_cluster,
    trivial_cluster,
    TupleMatrix,
)
from galois_kit.extnat import ext_sub
from galois_kit.verify import _monotone_ops


def all_multisets(m, k, card):
    tuples = sorted(product(range(k), repeat=m))
    out = []

    def rec(idx, remaining, counts):
        out.append(FiniteMultiset(m, dict(counts)))
        if remaining == 0:
            return
        for i in range(idx, len(tuples)):
            t = tuples[i]
            counts[t] = counts.get(t, 0) + 1
            rec(i, remaining - 1, counts)
            counts[t] -= 1
            if not counts[t]:
                del counts[t]

    rec(0, card, {})
    return out


def naive_satisfies(f, cluster, b):
    """Independent oracle for cluster satisfaction, written from the
    definition with no shared enumeration code."""
    m = cluster.arity
    for s in all_multisets(m, cluster.domain_size, b):
        if not cluster_member(s, cluster) or s.cardinality < f.arity:
            continue
        for sel in set(permutations(s.elements(), f.arity)):
            rest = dict(s.counts)
            for col in sel:
                rest[col] -= 1
            rest = {t: c for t, c in rest.items() if c}
            image = tuple(
                f(*[sel[j][i] for j in range(f.arity)]) for i in range(m)
            )
            out = dict(rest)
            out[image] = out.get(image, 0) + 1
            if not cluster_member(FiniteMultiset(m, out), cluster):
                return False
    return True


def random_cluster(rng, m, k=2):
    gens = set()
    for _ in range(rng.randint(1, 3)):
        exc = {}
        for _ in range(rng.randint(1, 3)):
            t = tuple(rng.randrange(k) for _ in range(m))
            exc[t] = rng.choice([0, 1, 2, INF])
        gens.add(
            BoxedGenerator(
                RepetitionFunction(m, k, 0, exc),
                rng.choice([0, 1, 2, 3, INF]),
            )
        )
    return Cluster(m, k, frozenset(gens))


def reference_generator_key(g):
    """Generator order with INF encoded as a flag and a 0 placeholder."""
    return (
        g.cap == INF,
        g.cap if g.cap != INF else 0,
        g.box.default == INF,
        g.box.default if g.box.default != INF else 0,
        sorted(
            g.box.exceptions.items(),
            key=lambda kv: (kv[0], kv[1] == INF, kv[1] if kv[1] != INF else 0),
        ),
    )


class TestMembership:
    def test_generator_box_and_cap(self):
        gen = BoxedGenerator(RepetitionFunction(1, 2, 0, {(0,): 2, (1,): 1}), 2)
        cluster = Cluster(1, 2, frozenset({gen}))
        ok = FiniteMultiset.from_tuples(1, [(0,), (1,)])
        assert cluster_member(ok, cluster)
        over_cap = FiniteMultiset.from_tuples(1, [(0,), (0,), (1,)])
        assert not cluster_member(over_cap, cluster)
        over_box = FiniteMultiset.from_tuples(1, [(1,), (1,)])
        assert not cluster_member(over_box, cluster)

    def test_downward_closure(self):
        rng = random.Random(3)
        for _ in range(20):
            cluster = random_cluster(rng, 2)
            for s in all_multisets(2, 2, 3):
                if not cluster_member(s, cluster):
                    continue
                for t in s.counts:
                    smaller = FiniteMultiset(
                        2, {**s.counts, t: s.counts[t] - 1}
                    )
                    assert cluster_member(smaller, cluster)

    def test_enumerate_members_matches_filter(self):
        rng = random.Random(5)
        for _ in range(20):
            cluster = random_cluster(rng, 2)
            got = set(enumerate_cluster_members(cluster, 3))
            expected = {
                s for s in all_multisets(2, 2, 3) if cluster_member(s, cluster)
            }
            assert got == expected

    def test_deep_breadth_enumeration(self):
        box = RepetitionFunction(1, 2, 0, {(0,): INF})
        cluster = Cluster(1, 2, frozenset({BoxedGenerator(box, INF)}))
        members = enumerate_cluster_members(cluster, 5000)
        assert len(members) == 5001
        assert members[-1] == FiniteMultiset(1, {(0,): 5000})

    @pytest.mark.parametrize("limit, members", [(2, 595), (3, 3190)])
    def test_each_member_of_overlapping_boxes_is_one_step(self, limit, members):
        # the 3-chain order cluster has 55 generators sharing every free tuple;
        # walked box by box it took 3,565 and 15,070 steps
        chain = {(a, b) for a in range(3) for b in range(3) if a <= b}
        with Meter(10**9) as meter:
            got = enumerate_cluster_members(order_cluster(chain, 3), limit)
        assert len(got) == meter.done["cluster members"] == members

    def test_invariant_clusters_of_mono_list_each_member_once(self):
        # walked box by box: 6 / 34 / 224 / 1,835 steps
        cfg = GaloisConfig(2, n_max=4, m_max=1, breadth=4)
        steps = {}
        for cluster in cl_inv(OperationClass(2, members=_monotone_ops(2)), cfg):
            with Meter(10**9) as meter:
                got = enumerate_cluster_members(cluster, 4)
            assert len(got) == meter.done["cluster members"]
            steps[cluster.arity] = meter.done["cluster members"]
        assert steps == {2: 4, 4: 15, 8: 70, 16: 452}

    def test_sorted_generators_matches_reference_key(self):
        rng = random.Random(37)
        for _ in range(300):
            m, k = rng.randint(1, 2), rng.randint(2, 3)
            gens = set()
            for _ in range(rng.randint(1, 6)):
                exc = {
                    tuple(rng.randrange(k) for _ in range(m)): rng.choice([0, 1, 2, INF])
                    for _ in range(rng.randint(0, 3))
                }
                box = RepetitionFunction(m, k, rng.choice([0, 1, INF]), exc)
                gens.add(BoxedGenerator(box, rng.choice([0, 1, 2, 3, INF])))
            cluster = Cluster(m, k, frozenset(gens))
            expected = sorted(cluster.generators, key=reference_generator_key)
            assert cluster.sorted_generators() == expected

    def test_empty_cluster_has_no_members(self):
        c = empty_cluster(2, 2)
        assert not cluster_member(FiniteMultiset.empty(2), c)
        assert enumerate_cluster_members(c, 3) == []


class TestSatisfaction:
    def test_agrees_with_naive_oracle(self):
        rng = random.Random(9)
        ops = list(all_operations(2, 1)) + list(all_operations(2, 2))
        for _ in range(15):
            cluster = random_cluster(rng, 2)
            for f in ops:
                assert bool(satisfies_cluster(f, cluster, 3)) == naive_satisfies(
                    f, cluster, 3
                )

    def test_breadth_below_arity_rejected(self):
        c = trivial_cluster(2, 3, 2)
        f = Operation(2, 2, 2, (0, 0, 0, 1))
        with pytest.raises(GaloisKitError):
            satisfies_cluster(f, c, 1)

    def test_witness_is_a_real_violation(self):
        leq = {(0, 0), (0, 1), (1, 1)}
        c = order_cluster(leq, 2)
        lxor = Operation(2, 2, 2, (0, 1, 1, 0))
        verdict = satisfies_cluster(lxor, c, 4)
        assert not verdict
        m1, m2, out = verdict.witness
        assert cluster_member(
            ms_join(FiniteMultiset.from_tuples(4, m1.columns), m2), c
        )
        assert not cluster_member(out, c)

    def test_budget_guard_on_broad_boxes(self):
        wide = Cluster(
            3, 2,
            frozenset({BoxedGenerator(RepetitionFunction.constant(3, 2, 1), 2)}),
        )
        f = Operation(2, 2, 1, (0, 1))
        with pytest.raises(BudgetExceededError), Meter(3):
            satisfies_cluster(f, wide, 2)


class TestAlgebra:
    def test_quotient_law_exhaustive(self):
        rng = random.Random(13)
        for _ in range(20):
            cluster = random_cluster(rng, 2)
            for s in enumerate_cluster_members(cluster, 2)[:4]:
                q = quotient(cluster, s)
                for s2 in all_multisets(2, 2, 2):
                    assert cluster_member(s2, q) == cluster_member(
                        ms_join(s, s2), cluster
                    )

    def test_union_law(self):
        rng = random.Random(17)
        for _ in range(20):
            a = random_cluster(rng, 2)
            b = random_cluster(rng, 2)
            u = cluster_union([a, b])
            for s in all_multisets(2, 2, 3):
                assert cluster_member(s, u) == (
                    cluster_member(s, a) or cluster_member(s, b)
                )

    def test_breadth_restrict_caps_cardinality(self):
        c = trivial_cluster(1, 5, 2)
        r = breadth_restrict(c, 2)
        assert cluster_member(FiniteMultiset.from_tuples(1, [(0,)] * 2), r)
        assert not cluster_member(FiniteMultiset.from_tuples(1, [(0,)] * 3), r)

    def test_breadth_value(self):
        assert breadth(trivial_cluster(1, 5, 2)) == 5
        tight = Cluster(
            1, 2,
            frozenset({BoxedGenerator(RepetitionFunction(1, 2, 0, {(0,): 2}), INF)}),
        )
        assert breadth(tight) == 2
        assert breadth(equality_cluster(2)) == INF
        # 3^(10^8) tuples of mass 1 each, capped at 2
        huge = Cluster(10**8, 3, frozenset({BoxedGenerator(RepetitionFunction(10**8, 3, 1), 2)}))
        assert breadth(huge) == 2


class TestDistinguishedClusters:
    def test_trivial_cluster_members(self):
        c = trivial_cluster(1, 2, 2)
        assert cluster_member(FiniteMultiset.from_tuples(1, [(0,), (1,)]), c)
        assert not cluster_member(
            FiniteMultiset.from_tuples(1, [(0,), (0,), (1,)]), c
        )

    def test_equality_cluster_diagonal_support(self):
        c = equality_cluster(2)
        assert cluster_member(
            FiniteMultiset.from_tuples(2, [(0, 0), (1, 1), (1, 1)]), c
        )
        assert not cluster_member(FiniteMultiset.from_tuples(2, [(0, 1)]), c)

    def test_relation_cluster_membership(self):
        leq = {(0, 0), (0, 1), (1, 1)}
        c = relation_cluster(leq, 2, 2)
        assert cluster_member(
            FiniteMultiset.from_tuples(2, [(0, 1)] * 4), c
        )
        assert not cluster_member(FiniteMultiset.from_tuples(2, [(1, 0)]), c)

    def test_relation_cluster_satisfaction_is_preservation(self):
        leq = {(0, 0), (0, 1), (1, 1)}
        c = relation_cluster(leq, 2, 2)
        land = Operation(2, 2, 2, (0, 0, 0, 1))
        lxor = Operation(2, 2, 2, (0, 1, 1, 0))
        assert satisfies_cluster(land, c, 3)
        assert not satisfies_cluster(lxor, c, 3)

    def test_order_cluster_poset_validated(self):
        with pytest.raises(GaloisKitError):
            order_cluster({(0, 1), (1, 1)}, 2)  # not reflexive
        with pytest.raises(GaloisKitError):
            order_cluster({(0, 0), (1, 1), (0, 1), (1, 0)}, 2)  # not antisym

    def test_order_cluster_classifies_boolean_ops(self):
        c = order_cluster({(0, 0), (0, 1), (1, 1)}, 2)
        monotone_or_antitone_each_var = []
        for f in all_operations(2, 2):
            per_var = []
            for var in (0, 1):
                dirs = set()
                for fixed in (0, 1):
                    args0 = [fixed, fixed]
                    args1 = [fixed, fixed]
                    args0[var] = 0
                    args1[var] = 1
                    lo, hi = f(*args0), f(*args1)
                    if lo < hi:
                        dirs.add("up")
                    elif lo > hi:
                        dirs.add("down")
                per_var.append(len(dirs) <= 1)
            monotone_or_antitone_each_var.append(all(per_var))
        for f, expected in zip(all_operations(2, 2), monotone_or_antitone_each_var):
            assert bool(satisfies_cluster(f, c, 4)) == expected


class TestClusterMinors:
    def test_intersection_via_shared_target_scheme(self):
        rng = random.Random(23)
        scheme = MinorScheme(2, (), ((0, 1), (0, 1)))
        for _ in range(10):
            a = random_cluster(rng, 2)
            b = random_cluster(rng, 2)
            for s in all_multisets(2, 2, 3):
                matrix = TupleMatrix(2, tuple(s.elements()))
                assert cluster_minor_member(matrix, [a, b], scheme) == (
                    cluster_member(s, a) and cluster_member(s, b)
                )

    def test_materialize_minor_agrees_with_oracle(self):
        rng = random.Random(29)
        scheme = MinorScheme(1, ("u",), ((0, "u"),))
        for _ in range(5):
            a = random_cluster(rng, 2)
            minor = materialize_minor([a], scheme, 3)
            for s in all_multisets(1, 2, 3):
                matrix = TupleMatrix(1, tuple(s.elements()))
                assert cluster_member(s, minor) == cluster_minor_member(
                    matrix, [a], scheme
                )


def test_negative_limits_are_refused():
    # the empty multiset has cardinality 0, above any negative limit
    c = trivial_cluster(1, 3, 2)
    with pytest.raises(GaloisKitError, match="limit must be nonnegative"):
        enumerate_cluster_members(c, -1)
    with pytest.raises(GaloisKitError, match="breadth cap must be nonnegative"):
        materialize_minor([c], MinorScheme(1, (), ((0,),)), -1)
    assert enumerate_cluster_members(c, 0) == [FiniteMultiset.empty(1)]


@pytest.mark.parametrize("limit", [1.5, "2", None])
def test_limits_that_are_not_whole_are_refused(limit):
    # a fractional limit would otherwise be read as its floor
    c = trivial_cluster(1, 3, 2)
    f = Operation(2, 2, 1, (0, 1))
    with pytest.raises(GaloisKitError, match="limit must be nonnegative"):
        enumerate_cluster_members(c, limit)
    with pytest.raises(GaloisKitError, match="breadth cap must be nonnegative"):
        satisfies_cluster(f, c, limit)
    with pytest.raises(GaloisKitError, match="breadth cap must be nonnegative"):
        materialize_minor([c], MinorScheme(1, (), ((0,),)), limit)


def test_an_infinite_limit_stops_at_the_largest_cap():
    c = trivial_cluster(1, 3, 2)
    assert enumerate_cluster_members(c, INF) == enumerate_cluster_members(c, 3)
    f = Operation(2, 2, 2, (0, 1, 1, 0))
    assert satisfies_cluster(f, c, INF).satisfied == satisfies_cluster(f, c, 3).satisfied
    with pytest.raises(GaloisKitError, match="needs a finite cardinality limit"):
        enumerate_cluster_members(relation_cluster({(0,)}, 1, 2), INF)


def test_materialize_minor_needs_one_cluster_per_map():
    with pytest.raises(GaloisKitError, match="one cluster per scheme map"):
        materialize_minor([], MinorScheme(1, (), ((0,),)), 2)


def test_inf_minus_inf_raises_toolkit_error():
    with pytest.raises(GaloisKitError):
        ext_sub(INF, INF)


@pytest.mark.parametrize("bad", [(0, 5), (0,), (0, 1, 1)])
def test_order_pairs_outside_the_domain_are_refused(bad):
    with Meter() as meter:
        with pytest.raises(GaloisKitError, match=rf"order pair {re.escape(repr(bad))} is not a pair"):
            order_cluster({(0, 0), (1, 1), bad}, 2)
    assert meter.done == {}
