import ast
import subprocess
import sys
from itertools import combinations, product
from operator import itemgetter
from pathlib import Path

import pytest

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
    close_perm_dummy,
    cluster_member,
    columns_multiset,
    delta,
    f_pol,
    gc_inv,
    linear_class_fixture,
    minor_by_injection,
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
    trivial_cluster,
    trivial_constraint,
    tau,
    zeta,
)
from galois_kit.errors import DEFAULT_BUDGET, Meter, NotSeparableError
from galois_kit import clusters, galois, operations
from galois_kit.galois import _inv_cluster_for_arity
from galois_kit.multisets import _set_partitions
from galois_kit.verify import _monotone_ops
from package_memos import clear_memos, module_memos

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
        # passes 10 before any matrix is built; all of them make 18, of 14
        # antecedents
        cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=2)
        with pytest.raises(BudgetExceededError) as info, Meter(10):
            gc_inv(proj, cfg)
        error = info.value
        assert (error.phase, error.done, error.budget) == ("invariant matrices", 13, 10)
        with Meter(18):
            assert len(gc_inv(proj, cfg)) == 14

    @pytest.mark.parametrize("n_max, m_max, antecedents, matrices", [
        (2, 4, 14, 18), (3, 8, 161, 273), (4, 3, 166, 805), (5, 3, 495, 6293)])
    def test_gc_inv_gives_each_antecedent_once(self, n_max, m_max, antecedents, matrices):
        cfg = GaloisConfig(2, n_max=n_max, m_max=m_max, breadth=n_max)
        with Meter() as meter:
            got = gc_inv(monotone_ops(), cfg)
        assert meter.done["invariant matrices"] == matrices
        assert len(got) == len({c.antecedent for c in got}) == antecedents

    def test_nested_calls_share_the_meter(self):
        # each of the 20 checks satisfies_cluster makes walks at most 6 members
        cluster = relation_cluster({(0,), (1,)}, 1, 2)
        ops = [f for n in (1, 2) for f in all_operations(2, n)]
        for f in ops:
            with Meter(6):
                assert satisfies_cluster(f, cluster, 2)
        cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
        # c_pol lists the 6 members once, joining the open meter's 95
        with pytest.raises(BudgetExceededError) as info, Meter(100) as meter:
            meter.charge("cluster members", 95)
            c_pol([cluster], cfg)
        assert str(info.value) == "refusing cluster members: 101 steps exceed budget 100"
        with Meter() as meter:
            assert len(c_pol([cluster], cfg)) == 20  # joins the open meter
        # c_pol compiles the cluster once: its box allows both unary tuples
        # without bound, so its canonical default is INF and listing its
        # positive support builds the k^m = 2 tuples of m = 1 entry: 2
        # steps.  Its 6 members split 10 ways at arities 1 and 2, and every
        # split allows every image, so no test is left to sweep.
        assert meter.done == {"operation tables": 72, "support tuples": 2,
                              "cluster members": 6, "cluster splits": 10, "sweep tests": 0}

    def test_invariant_cluster_members_are_metered(self):
        # cl_inv's closure charges more steps first, so this is asked directly
        closed = close_composition(OperationClass(2, members=[projection(2, 1, 2)]), 2)
        with pytest.raises(BudgetExceededError) as info, Meter(2):
            _inv_cluster_for_arity({j: closed._tables(j) for j in (1, 2)}, 2, 2)
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

    def test_codomain_must_be_the_domain(self):
        # a cluster has one alphabet: the codomain of 3 was ignored, and the
        # four binary-valued unary operations came back
        cfg = GaloisConfig(2, n_max=1, m_max=1, breadth=1, codomain_size=3)
        with pytest.raises(GaloisKitError, match="codomain_size equal to domain_size 2, not 3"), \
                Meter(1) as meter:
            c_pol([trivial_cluster(1, 1, 2)], cfg)
        assert meter.done == {}

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


@pytest.mark.parametrize("build", [
    lambda cls_, cfg: gc_inv(cls_, cfg),
    lambda cls_, cfg: cl_inv(cls_, cfg),
    lambda cls_, cfg: separating_cluster(cls_, AND, cfg),
])
def test_a_config_over_another_domain_is_refused(build):
    # f_pol with this config sweeps k = 3 tables, so an answer over k = 2
    # would not be the one asked for
    cfg = GaloisConfig(3, 1, 1, 1)
    with Meter() as meter:
        with pytest.raises(GaloisKitError, match="config domain_size 3 does not match"):
            build(projections2(), cfg)
    assert meter.done == {}


def test_not_separable_error_is_exported():
    import galois_kit

    assert "NotSeparableError" in galois_kit.errors.__all__
    assert galois_kit.NotSeparableError is galois_kit.errors.NotSeparableError
    with pytest.raises(galois_kit.NotSeparableError):
        separating_constraint(projections2(), projection(2, 1, 2))


class TestAntecedentMemo:
    """gc_inv's antecedents are held by one memo, the kept configurations
    of ``galois._readers``."""

    def test_classes_share_antecedents_and_keep_their_consequents(self):
        cfg = GaloisConfig(2, n_max=2, m_max=3, breadth=2)
        mono, proj = gc_inv(monotone_ops(), cfg), gc_inv(projections2(), cfg)
        assert len(mono) == len(proj)
        assert all(a.antecedent is b.antecedent for a, b in zip(mono, proj))
        assert [c.consequent for c in mono] != [c.consequent for c in proj]
        galois._readers.cache_clear()
        fresh_mono, fresh_proj = gc_inv(monotone_ops(), cfg), gc_inv(projections2(), cfg)
        assert not any(a.antecedent is b.antecedent for a, b in zip(mono, fresh_mono))
        assert (mono, proj) == (fresh_mono, fresh_proj)


def _ints_and_tuples(x):
    return type(x) is int or type(x) is tuple and all(map(_ints_and_tuples, x))


def _sizes(k, n_max, m_max):
    """The arguments of ``galois._readers`` after the configuration's k:
    its (width, row count) blocks and their matrices in all."""
    blocks = list(galois._matrix_blocks(k, n_max, m_max))
    return tuple([(n, m) for n, m, _ in blocks]), sum(count for _, _, count in blocks)


class TestModuleMemos:
    """The module-level memos hold what depends on no class: each fills as
    calls run, keeps a bounded number of entries, and holds only ints and
    tuples of them, except the memos that hold antecedents with getters
    (``galois._readers``, see TestAntecedentMemo, and ``galois._plan``),
    and the stores of split orders and scaled vectors
    (``clusters._kept_orders``, ``clusters._kept_scaled``)."""

    def test_every_memo_is_empty_at_import(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from package_memos import module_memos; "
                "print(sorted((n, m.cache_info().currsize) for n, m in module_memos().items()))")
        out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                             capture_output=True, text=True, check=True).stdout
        sizes = dict(ast.literal_eval(out))
        assert {"operations._source_ranks", "galois._readers",
                "galois._plan", "galois._column_partitions", "clusters._kept_scaled",
                "clusters._kept_orders"} <= set(sizes)
        assert set(sizes.values()) == {0}, sizes

    def test_clear_memos_empties_every_memo(self):
        mono = monotone_ops()
        cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=2)
        f_pol(gc_inv(mono, cfg), cfg)
        c_pol(cl_inv(mono, cfg), cfg)
        satisfies_cluster(AND, relation_cluster({(0, 0), (1, 1)}, 2, 2), 3)
        memos = module_memos()
        assert all(memos[name].cache_info().currsize for name in (
            "galois._readers", "galois._plan", "clusters._kept_scaled", "clusters._kept_orders"))
        clear_memos()
        assert {m.cache_info().currsize for m in memos.values()} == {0}

    def test_the_plan_memo_keeps_8_plans(self):
        galois._plan.cache_clear()
        mono = monotone_ops()
        for m_max in range(1, 11):
            cfg = GaloisConfig(2, n_max=2, m_max=m_max, breadth=2)
            f_pol(gc_inv(mono, cfg), cfg)
        info = galois._plan.cache_info()
        # m_max of 4 and above give one sequence: every matrix has at most 4 rows
        assert (info.misses, info.currsize, info.maxsize) == (4, 4, 8)
        for k_out in (1, 2, 3):
            for n_max in (1, 2):
                cfg = GaloisConfig(2, n_max=n_max, m_max=2, breadth=2, codomain_size=k_out)
                f_pol([c for c in gc_inv(OperationClass(2, k_out), cfg)], cfg)
        assert galois._plan.cache_info().currsize == 8

    def test_the_scaled_memo_keeps_16_domain_and_width_pairs(self):
        clusters._kept_scaled.cache_clear()
        # 12 widths over k = 1, 5 over k = 2 and 3 over k = 3
        for k, top in ((1, 12), (2, 5), (3, 3)):
            cluster = relation_cluster({(a, a) for a in range(k)}, 2, k)
            for n in range(1, top + 1):
                satisfies_cluster(projection(n, 1, k), cluster, n)
        info = clusters._kept_scaled.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (20, 16, 16)
        assert all(type(v) is list and all(map(_ints_and_tuples, v))
                   for k_n in ((3, 3), (2, 5)) for v in clusters._kept_scaled(*k_n).values())
        assert clusters._kept_scaled(2, 5)[(1, 1)] == [(16, 16), (8, 8), (4, 4), (2, 2)]

    def test_the_order_memo_keeps_one_store_per_arity(self):
        clusters._kept_orders.cache_clear()
        cluster = relation_cluster({(0, 0), (0, 1), (1, 1)}, 2, 2)
        for n in (1, 2, 3, 2, 1):
            satisfies_cluster(projection(n, 1, 2), cluster, 3)
        info = clusters._kept_orders.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (3, 3, None)
        # each store maps a member's counts to its complete split orders
        assert all(type(counts) is tuple and all(map(_ints_and_tuples, orders))
                   for n in (1, 2, 3) for counts, orders in clusters._kept_orders(n).items())

    def test_the_kept_plans_and_readers_hold_no_consequent_image_or_class(self):
        mono = monotone_ops()
        cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=2)
        f_pol(gc_inv(mono, cfg), cfg)
        held = (galois._readers(2, *_sizes(2, 2, 4)),
                galois._plan(2, tuple([c.antecedent for c in gc_inv(mono, cfg)])))

        def leaves(x):
            if type(x) is tuple:
                return [y for item in x for y in leaves(item)]
            return [x]

        assert {type(x) for x in leaves(held)} == {int, RepetitionFunction, itemgetter}

    def test_the_source_rank_memo_keeps_at_most_256_maps(self):
        operations._source_ranks.cache_clear()
        # 504 maps, of 16 to 64 entries, for the 4-ary member at arities 4 to 6
        close_perm_dummy(OperationClass(2, members=[Operation(2, 2, 4, (0, 1) * 8)]), 6)
        info = operations._source_ranks.cache_info()
        assert info.misses == 504
        assert info.currsize == info.maxsize == 256

    def test_the_source_rank_memo_keeps_no_map_over_256_entries(self):
        operations._source_ranks.cache_clear()
        assert projection(9, 1, 2) == Operation(2, 2, 9, (0,) * 256 + (1,) * 256)
        assert operations._source_ranks.cache_info().misses == 0
        # the projections of arities 1 to 10 and the zeta and tau maps of
        # arities 2 to 10 (one map at arity 2): only those up to arity 8 are kept
        close_composition(OperationClass(2), 10)
        assert operations._source_ranks.cache_info().currsize == sum(range(1, 9)) + 1 + 2 * 6

    def test_the_matrix_memo_keeps_8_configurations_of_at_most_4096_matrices(self, monkeypatch):
        galois._readers.cache_clear()
        blocks = galois._readers(2, *_sizes(2, 4, 3))
        # 805 matrices, of 166 antecedents
        assert sum(len(pairs) for _, pairs in blocks) == 166
        assert [n for n, _ in blocks] == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
        built = []
        monkeypatch.setattr(galois, "combinations",
                            lambda *args: built.append(args) or combinations(*args))
        # a configuration whose count passes any budget is refused before
        # any row list is built
        with pytest.raises(BudgetExceededError, match="invariant matrices"):
            gc_inv(projections2(), GaloisConfig(2, n_max=10 ** 9, m_max=3, breadth=1))
        assert built == []
        # 6,293 matrices: streamed a block at a time, and never kept
        sizes, total = _sizes(2, 5, 3)
        stream = galois._readers(2, sizes, total)
        assert (total, built) == (6293, [])
        n, pairs = next(stream)
        assert (n, len(pairs), built) == (1, 2, [(range(2), 1)])
        gc_inv(projections2(), GaloisConfig(2, n_max=5, m_max=3, breadth=5))
        assert galois._readers.cache_info().currsize == 1
        for n_max in range(1, 7):  # 2 to 2,536 matrices each
            for m_max in (1, 2):
                galois._readers(2, *_sizes(2, n_max, m_max))
        info = galois._readers.cache_info()
        assert info.misses == 13 and info.currsize == info.maxsize == 8

    def test_the_matrix_memo_keeps_each_matrix_antecedent_and_image_getter(self):
        galois._readers.cache_clear()
        readers = galois._readers(2, *_sizes(2, 3, 2))
        assert galois._readers(2, *_sizes(2, 3, 2)) is readers
        rows = [combinations(range(2 ** n), m) for n in (1, 2, 3) for m in (1, 2)]
        assert [n for n, _ in readers] == [1, 1, 2, 2, 3, 3]
        # of 2, 1, 4, 6, 8 and 28 matrices
        assert tuple([len(pairs) for _, pairs in readers]) == (2, 1, 3, 4, 4, 10)
        for (n, pairs), block in zip(readers, rows):
            first = {}  # each antecedent's first matrix, in order of row lists
            for ranks in block:
                first.setdefault(galois._antecedent(2, n, ranks), ranks)
            # each antecedent once, with the getter of its first matrix's image
            assert [(phi, get(tuple(range(8)))) for phi, get in pairs] == list(first.items())

    def test_kept_and_streamed_matrices_charge_and_refuse_alike(self, monkeypatch):
        cfg = GaloisConfig(2, n_max=3, m_max=3, breadth=3)

        def outcomes():
            got = []
            # 3, 17 and 109 matrices up to widths 1, 2 and 3
            for budget in (DEFAULT_BUDGET, 109, 108, 17, 16, 2, 0):
                with Meter(budget) as meter:
                    try:
                        answer = gc_inv(monotone_ops(), cfg)
                    except BudgetExceededError as e:
                        answer = e.phase, e.done
                got.append((answer, meter.done))
            return got

        galois._readers.cache_clear()
        want = outcomes()
        assert [answer for answer, _ in want[2:]] == [
            ("invariant matrices", 109), ("invariant matrices", 25),
            ("invariant matrices", 17), ("invariant matrices", 3), ("invariant matrices", 2)]
        monkeypatch.setattr(galois, "_KEPT_MATRICES", 0)  # every configuration streamed
        assert outcomes() == want

    def test_the_partition_memo_keeps_the_partitions_of_at_most_6_columns(self):
        galois._column_partitions.cache_clear()
        cl_inv(OperationClass(1), GaloisConfig(1, n_max=7, m_max=1, breadth=7))
        info = galois._column_partitions.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (6, 6, 6)
        # the Bell numbers: 1 + 2 + 5 + 15 + 52 + 203
        assert sum(len(galois._column_partitions(n)) for n in range(1, 7)) == 278
        streamed = galois._column_partitions(7)
        assert type(streamed) is not tuple
        streamed = list(streamed)
        assert streamed == [tuple(map(tuple, p)) for p in _set_partitions(list(range(7)))]
        assert len(streamed) == 877
        assert galois._column_partitions.cache_info().currsize == 6

    def test_keys_and_values_are_ints_and_tuples(self, monkeypatch):
        seen = {}

        def recording(name, read):
            def call(*args):
                got = read(*args)
                seen.setdefault(name, []).append((args, got))
                return got
            return call

        ranks = recording("_source_ranks", operations._source_ranks)
        for module in (operations, galois):  # both bind the read
            monkeypatch.setattr(module, "_source_ranks", ranks)
        monkeypatch.setattr(galois, "_column_partitions",
                            recording("_column_partitions", galois._column_partitions))
        mono = monotone_ops()
        cfg = GaloisConfig(2, n_max=3, m_max=2, breadth=3)
        c_pol(cl_inv(mono, cfg), cfg)
        f_pol(gc_inv(mono, cfg), cfg)
        separating_cluster(projections2(), AND, cfg)
        close_perm_dummy(mono, 3)
        for rewrite in (zeta, tau, delta, nabla):
            rewrite(AND)
        minor_by_injection(AND, [True, 3], 3)
        projection(3, 2, 2)
        assert set(seen) == {"_source_ranks", "_column_partitions"}
        assert all(_ints_and_tuples(call) for calls in seen.values() for call in calls)
