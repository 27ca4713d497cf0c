import pytest
from itertools import product

from galois_kit import (
    BudgetExceededError,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    Operation,
    OperationClass,
    RepetitionFunction,
    TupleMatrix,
    all_operations,
    c_pol,
    cl_inv,
    class_image,
    close_composition,
    cluster_member,
    columns_multiset,
    f_pol,
    gc_inv,
    linear_class_fixture,
    nabla,
    projection,
    relation_cluster,
    satisfies_cluster,
    satisfies_constraint,
    separating_cluster,
    separating_constraint,
    GeneralizedConstraint,
    INF,
    empty_constraint,
    equality_constraint,
    trivial_constraint,
)
from galois_kit.errors import DEFAULT_BUDGET, Meter, NotSeparableError
from galois_kit.galois import _inv_cluster_for_arity
from galois_kit.verify import _monotone_ops

LEQ = frozenset({(0, 0), (0, 1), (1, 1)})
AND = Operation(2, 2, 2, (0, 0, 0, 1))
NOT = Operation(2, 2, 1, (1, 0))


def projections2():
    return OperationClass(
        2, members=[projection(1, 1, 2), projection(2, 1, 2), projection(2, 2, 2)]
    )


def monotone_ops(n_max=2):
    out = OperationClass(2)
    for n in range(1, n_max + 1):
        for f in all_operations(2, n):
            if all(
                f(*x) <= f(*y)
                for x in product(range(2), repeat=n)
                for y in product(range(2), repeat=n)
                if all(a <= b for a, b in zip(x, y))
            ):
                out.add(f)
    return out


class TestClassImage:
    def test_projections_image_is_matrix_columns(self):
        m = TupleMatrix.from_rows(sorted(product(range(2), repeat=2)))
        img = class_image(projections2(), m)
        assert img == frozenset({(0, 0, 1, 1), (0, 1, 0, 1)})


class TestGcInvFPol:
    def test_gc_inv_members_satisfy_everything(self):
        cfg = GaloisConfig(2, n_max=2, m_max=2, breadth=2)
        cls_ = monotone_ops()
        for c in gc_inv(cls_, cfg):
            for f in cls_:
                assert satisfies_constraint(f, c)

    def test_f_pol_of_trivial_family_is_everything(self):
        cfg = GaloisConfig(2, n_max=2, m_max=2, breadth=2)
        t = [equality_constraint(2, 2), empty_constraint(2, 2),
             trivial_constraint(2, 2)]
        assert len(f_pol(t, cfg)) == 4 + 16

    def test_f_pol_of_order_constraint_is_monotone(self):
        phi = RepetitionFunction(2, 2, 0, {t: 99 for t in LEQ})
        c = GeneralizedConstraint(phi, LEQ, 2)
        cfg = GaloisConfig(2, n_max=2, m_max=2, breadth=2)
        got = f_pol([c], cfg)
        assert got == monotone_ops()
        assert len(got) == 9

    def test_unsatisfiable_constraint_filters_by_arity(self):
        # nonzero antecedent with empty consequent: violated by exactly
        # the ops whose arity admits a matrix (here the unary ones, since
        # the single support tuple cannot fill two columns)
        phi = RepetitionFunction(1, 2, 0, {(0,): 1})
        c = GeneralizedConstraint(phi, frozenset(), 2)
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
        survivors = f_pol([c], cfg)
        assert len(survivors) == 16
        assert all(f.arity == 2 for f in survivors)

    def test_gc_inv_refuses_matrices_over_budget(self):
        proj = OperationClass(2, members=[projection(2, 1, 2)])
        # C(k^n, m) for n <= 2, m <= 4, charged in order: 2 + 1 + 0 + 0 + 4 + 6
        # passes 10 before any matrix is built; all of them make 18
        cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=2)
        with pytest.raises(BudgetExceededError) as info, Meter(10):
            gc_inv(proj, cfg)
        error = info.value
        assert (error.phase, error.done, error.budget) == ("invariant matrices", 13, 10)
        with Meter(18):
            assert len(gc_inv(proj, cfg)) == 18

    def test_nested_calls_share_the_meter(self):
        # each of the 20 checks c_pol makes walks at most 6 members, 120 in all
        cluster = relation_cluster({(0,), (1,)}, 1, 2)
        ops = [f for n in (1, 2) for f in all_operations(2, n)]
        for f in ops:
            with Meter(6):
                assert satisfies_cluster(f, cluster, 2)
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
        with pytest.raises(BudgetExceededError) as info, Meter(100):
            c_pol([cluster], cfg)
        assert str(info.value) == "refusing cluster members: 101 steps exceed budget 100"
        with Meter() as meter:
            assert len(c_pol([cluster], cfg)) == 20  # joins the open meter
        # c_pol compiles the cluster once: its box allows both unary tuples
        # without bound, so its canonical default is INF and listing its
        # positive support builds the k^m = 2 tuples of m = 1 entry: 2 steps
        assert meter.done == {"operation tables": 72, "support tuples": 2,
                              "cluster members": 120, "cluster splits": 88}

    def test_invariant_cluster_members_are_metered(self):
        # cl_inv's closure charges more steps first, so this is asked directly
        closed = close_composition(OperationClass(2, members=[projection(2, 1, 2)]), 2)
        with pytest.raises(BudgetExceededError) as info, Meter(2):
            _inv_cluster_for_arity(closed, 2)
        # one member from the partition {0} {1}, two from {0, 1}
        assert str(info.value) == "refusing invariant cluster members: 3 steps exceed budget 2"

    def test_antitone_law(self):
        cfg = GaloisConfig(2, n_max=1, m_max=2, breadth=1)
        t1 = [equality_constraint(2, 2)]
        t2 = t1 + [GeneralizedConstraint(
            RepetitionFunction(1, 2, 0, {(0,): 1}), {(0,)}, 2
        )]
        assert f_pol(t2, cfg) <= f_pol(t1, cfg)


class TestClInvCPol:
    def test_all_columns_multiset_is_a_member(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        clusters = cl_inv(projections2(), cfg)
        m = TupleMatrix.from_rows(sorted(product(range(2), repeat=2)))
        assert cluster_member(columns_multiset(m), clusters[1])

    def test_projection_invariants_exclude_and_image(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        clusters = cl_inv(projections2(), cfg)
        bad = FiniteMultiset.from_tuples(4, [(0, 0, 0, 1)])
        assert not cluster_member(bad, clusters[1])

    def test_members_satisfy_emitted_clusters(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        cls_ = projections2()
        for cluster in cl_inv(cls_, cfg):
            for f in cls_:
                assert satisfies_cluster(f, cluster, 4)

    def test_c_pol_of_nothing_is_everything(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
        assert len(c_pol([], cfg)) == 20

    def test_c_pol_agrees_with_f_pol_on_order_relation(self):
        cfg = GaloisConfig(2, n_max=2, m_max=2, breadth=3)
        via_cluster = c_pol([relation_cluster(LEQ, 2, 2)], cfg)
        phi = RepetitionFunction(2, 2, 0, {t: 99 for t in LEQ})
        via_constraint = f_pol([GeneralizedConstraint(phi, LEQ, 2)], cfg)
        assert via_cluster == via_constraint

    def test_breadth_must_cover_arity_cap(self):
        cfg = GaloisConfig(2, n_max=3, m_max=1, breadth=2)
        with pytest.raises(GaloisKitError):
            c_pol([], cfg)

    @pytest.mark.parametrize("field", ["n_max", "breadth"])
    @pytest.mark.parametrize("value", [2.5, INF, "2", 0])
    def test_caps_must_be_whole(self, field, value):
        # c_pol would otherwise read a breadth of 2.5 as 2
        caps = dict(n_max=2, m_max=1, breadth=2)
        caps[field] = value
        with pytest.raises(GaloisKitError, match=f"{field} must be an int of at least 1"):
            GaloisConfig(2, **caps)

    def test_monotone_invariants_to_arity_five_fit_the_default_budget(self):
        # the arity-32 antichain keeps 2,744 of its members;
        # comparing each with every kept one takes 3.6M steps, past the budget
        mono = OperationClass(2, members=_monotone_ops(2))
        cfg = GaloisConfig(2, n_max=5, m_max=1, breadth=5)
        with Meter(DEFAULT_BUDGET) as meter:
            clusters = cl_inv(mono, cfg)
        assert [len(c.generators) for c in clusters] == [3, 10, 46, 304, 2744]
        assert meter.done["antichain comparisons"] == 9982


class TestSeparatingConstraint:
    def test_projections_vs_and(self):
        c = separating_constraint(projections2(), AND)
        assert c.consequent == frozenset({(0, 0, 1, 1), (0, 1, 0, 1)})
        assert not satisfies_constraint(AND, c)
        for f in projections2():
            assert satisfies_constraint(f, c)

    def test_monotone_vs_spread_negation(self):
        mono = monotone_ops()
        g = nabla(NOT)  # binary, value is the negation of the second input
        c = separating_constraint(mono, g)
        assert not satisfies_constraint(g, c)
        for f in mono:
            assert satisfies_constraint(f, c)

    def test_member_has_no_separator(self):
        with pytest.raises(GaloisKitError):
            separating_constraint(projections2(), projection(2, 1, 2))

    def test_empty_class_rejected_distinctly(self):
        with pytest.raises(GaloisKitError, match="empty class"):
            separating_constraint(OperationClass(2), AND)


class TestSeparatingCluster:
    def test_projections_vs_and(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        cluster = separating_cluster(projections2(), AND, cfg)
        assert not satisfies_cluster(AND, cluster, 4)
        for f in projections2():
            assert satisfies_cluster(f, cluster, 4)

    def test_negation_closure_vs_and(self):
        from galois_kit import close_composition

        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        cls_ = close_composition(OperationClass(2, members=[NOT]), 2)
        cluster = separating_cluster(cls_, AND, cfg)
        assert not satisfies_cluster(AND, cluster, 4)
        for f in cls_:
            assert satisfies_cluster(f, cluster, 4)

    def test_member_rejected(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        with pytest.raises(GaloisKitError):
            separating_cluster(projections2(), projection(2, 1, 2), cfg)


class TestRoundTrips:
    def test_constraint_round_trip_on_monotone(self):
        mono = monotone_ops()
        cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=4)
        assert f_pol(gc_inv(mono, cfg), cfg) == mono

    def test_cluster_round_trip_on_projections(self):
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
        proj = projections2()
        assert c_pol(cl_inv(proj, cfg), cfg) == proj

    def test_cluster_round_trip_on_linear_fixture(self):
        lin = linear_class_fixture(3, 2, 2)
        cfg = GaloisConfig(3, n_max=2, m_max=1, breadth=2)
        assert c_pol(cl_inv(lin, cfg), cfg) == lin


def test_separating_a_member_raises_not_separable():
    proj = OperationClass(2, members=[projection(2, 1, 2)])
    member = projection(2, 2, 2)
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    with pytest.raises(NotSeparableError):
        separating_constraint(proj, member)
    with pytest.raises(NotSeparableError):
        separating_cluster(proj, member, cfg)


def test_not_separable_error_is_exported():
    import galois_kit

    assert "NotSeparableError" in galois_kit.errors.__all__
    assert galois_kit.NotSeparableError is galois_kit.errors.NotSeparableError
    with pytest.raises(galois_kit.NotSeparableError):
        separating_constraint(projections2(), projection(2, 1, 2))
