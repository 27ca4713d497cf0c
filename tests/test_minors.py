import random
from functools import partial

import pytest
from itertools import product

from galois_kit import (
    BudgetExceededError,
    GaloisKitError,
    GeneralizedConstraint,
    INF,
    MinorScheme,
    RepetitionFunction,
    TupleMatrix,
    apply_scheme_map,
    cluster_minor_member,
    compose_schemes,
    empty_constraint,
    equality_constraint,
    is_conjunctive_minor_constraint,
    is_extensive_rf_minor,
    is_restrictive_rf_minor,
    materialize_minor,
    scheme_fixture,
    tight_relation_minor,
    trivial_cluster,
    trivial_constraint,
)
from galois_kit.errors import DEFAULT_BUDGET, Meter
from galois_kit.minors import skolem_maps
from multiset_oracles import recursive_nondecreasing_selections


class TestMinorScheme:
    def test_validation(self):
        with pytest.raises(GaloisKitError):
            MinorScheme(2, (), ((0, 2),))  # index out of range
        with pytest.raises(GaloisKitError):
            MinorScheme(2, ("u",), (("w",),))  # unknown name
        with pytest.raises(GaloisKitError):
            MinorScheme(2, ("u", "u"), ((0,),))  # duplicate names
        with pytest.raises(GaloisKitError):
            MinorScheme(2, (), ())  # no maps

    def test_apply_scheme_map(self):
        h = (1, "u", 0)
        assert apply_scheme_map((7, 9), {"u": 3}, h) == (9, 3, 7)

    def test_skolem_maps_exhaust_assignments(self):
        maps = list(skolem_maps(("u", "v"), 2))
        assert len(maps) == 4
        assert {tuple(sorted(m.items())) for m in maps} == {
            (("u", a), ("v", b)) for a in (0, 1) for b in (0, 1)
        }

    def test_identity_scheme(self):
        s = MinorScheme.identity(3)
        assert s.maps == ((0, 1, 2),)


class TestTightRelationMinor:
    def test_identity_scheme_returns_relation(self):
        r = frozenset({(0, 1), (1, 1)})
        assert tight_relation_minor(MinorScheme.identity(2), [r], 2) == r

    def test_chain_builds_transitive_join(self):
        scheme = MinorScheme(3, (), ((0, 1), (1, 2)))
        leq = frozenset({(0, 0), (0, 1), (1, 1)})
        got = tight_relation_minor(scheme, [leq, leq], 2)
        assert got == frozenset({(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)})

    def test_indeterminates_are_existential(self):
        # h = (u,): member iff some value of u lies in the relation
        scheme = MinorScheme(1, ("u",), (("u",),))
        assert tight_relation_minor(scheme, [frozenset({(1,)})], 2) == frozenset(
            {(0,), (1,)}
        )
        assert tight_relation_minor(scheme, [frozenset()], 2) == frozenset()

    def test_relation_count_validated(self):
        with pytest.raises(GaloisKitError):
            tight_relation_minor(MinorScheme.identity(2), [], 2)


class TestComposeSchemes:
    def test_identity_composition(self):
        s = MinorScheme.identity(2)
        assert compose_schemes(s, [MinorScheme.identity(2)]) == s

    def test_entries_resolve_through_outer_map(self):
        outer = MinorScheme(3, ("u",), ((2, 0, "u"),))
        inner = MinorScheme(3, ("w",), ((1, "w", 0),))
        comp = compose_schemes(outer, [inner])
        assert comp.target == 3
        assert comp.maps == ((0, "w", 2),)
        assert set(comp.indeterminates) == {"u", "w"}

    def test_variable_collision_renamed(self):
        outer = MinorScheme(1, ("u",), (("u",),))
        inner = MinorScheme(1, ("u",), (("u",),))
        comp = compose_schemes(outer, [inner])
        assert len(set(comp.indeterminates)) == 2

    def test_membership_agreement_random(self):
        rng = random.Random(7)
        for _ in range(40):
            target = rng.randint(1, 3)
            outer_maps = tuple(
                tuple(rng.randrange(target) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            )
            outer = MinorScheme(target, (), outer_maps)
            inners = [
                MinorScheme(
                    len(h),
                    (),
                    tuple(
                        tuple(rng.randrange(len(h)) for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 2))
                    ),
                )
                for h in outer.maps
            ]
            rels = [
                [
                    frozenset(
                        t
                        for t in product(range(2), repeat=len(hm))
                        if rng.random() < 0.5
                    )
                    for hm in inner.maps
                ]
                for inner in inners
            ]
            comp = compose_schemes(outer, inners)
            flat = [r for rs in rels for r in rs]
            mids = [
                tight_relation_minor(inner, rs, 2)
                for inner, rs in zip(inners, rels)
            ]
            assert tight_relation_minor(comp, flat, 2) == tight_relation_minor(
                outer, mids, 2
            )

    def test_inner_target_validated(self):
        outer = MinorScheme(2, (), ((0, 1),))
        with pytest.raises(GaloisKitError):
            compose_schemes(outer, [MinorScheme.identity(3)])


class TestRfMinorPredicates:
    def test_identity_scheme_reduces_to_pointwise_order(self):
        phi = RepetitionFunction(1, 2, 0, {(0,): 1})
        hi = RepetitionFunction(1, 2, 0, {(0,): 2})
        scheme = MinorScheme.identity(1)
        assert is_restrictive_rf_minor(phi, [hi], scheme)
        assert not is_restrictive_rf_minor(hi, [phi], scheme)
        assert is_extensive_rf_minor(hi, [phi], scheme)
        assert not is_extensive_rf_minor(phi, [hi], scheme)

    def test_verdicts_are_labeled_bounded(self):
        phi = RepetitionFunction(1, 2, 0, {(0,): 1})
        v = is_restrictive_rf_minor(phi, [phi], MinorScheme.identity(1))
        assert v.bounded and v.col_cap >= 1

    def test_counterexample_matrix_reported(self):
        phi = RepetitionFunction(1, 2, 0, {(0,): 2})
        low = RepetitionFunction(1, 2, 0, {(0,): 1})
        v = is_restrictive_rf_minor(phi, [low], MinorScheme.identity(1))
        assert not v
        assert v.counterexample.columns == ((0,), (0,))

    def test_family_size_validated(self):
        phi = RepetitionFunction(1, 2, 0)
        with pytest.raises(GaloisKitError):
            is_restrictive_rf_minor(phi, [], MinorScheme.identity(1))

    @pytest.mark.parametrize("predicate", [is_restrictive_rf_minor, is_extensive_rf_minor])
    @pytest.mark.parametrize("col_cap", [0, -3])
    def test_column_cap_below_one_is_refused(self, predicate, col_cap):
        # no width is checked below 1, so a verdict would assert nothing
        phi = RepetitionFunction(1, 2, 0, {(0,): 1})
        args = (phi, [RepetitionFunction(1, 2, 0, {})], MinorScheme(1, (), ((0,),)))
        with pytest.raises(GaloisKitError, match="column cap must be positive"):
            predicate(*args, col_cap=col_cap)
        if predicate is is_restrictive_rf_minor:
            v = predicate(*args, col_cap=1)
            assert not v and v.counterexample.columns == ((0,),)

    @pytest.mark.parametrize("predicate", [is_restrictive_rf_minor, is_extensive_rf_minor])
    @pytest.mark.parametrize("col_cap", [INF, 1.5, True])
    def test_column_cap_that_is_no_int_is_refused(self, predicate, col_cap):
        # INF and 1.5 would otherwise reach range() and raise TypeError
        phi = RepetitionFunction(1, 2, 0, {(0,): 1})
        args = (phi, [RepetitionFunction(1, 2, 0, {})], MinorScheme(1, (), ((0,),)))
        with pytest.raises(GaloisKitError, match="column cap must be positive: an int"):
            predicate(*args, col_cap=col_cap)


class TestConjunctiveMinorConstraint:
    def test_relaxation_via_identity_scheme(self):
        c = equality_constraint(2, 2)
        relaxed = GeneralizedConstraint(
            RepetitionFunction(2, 2, 0, {(0, 0): INF}),
            set(c.consequent) | {(0, 1)},
            2,
        )
        assert is_conjunctive_minor_constraint(
            relaxed, [c], MinorScheme.identity(2)
        )

    def test_equality_three_from_two_copies(self):
        scheme = MinorScheme(3, (), ((0, 1), (1, 2)))
        assert is_conjunctive_minor_constraint(
            equality_constraint(3, 2),
            [equality_constraint(2, 2)] * 2,
            scheme,
        )

    def test_failing_consequent_reported(self):
        scheme = MinorScheme.identity(2)
        too_small = GeneralizedConstraint(
            equality_constraint(2, 2).antecedent, {(0, 0)}, 2
        )
        v = is_conjunctive_minor_constraint(
            too_small, [equality_constraint(2, 2)], scheme
        )
        assert not v and v.counterexample == (1, 1)

    def test_arity_validated(self):
        with pytest.raises(GaloisKitError):
            is_conjunctive_minor_constraint(
                equality_constraint(3, 2),
                [equality_constraint(2, 2)],
                MinorScheme.identity(2),
            )


class TestSchemeFixtures:
    def test_trivial_from_equality_shape(self):
        scheme, arities = scheme_fixture("trivial_from_equality", 3)
        assert scheme.target == 3 and scheme.maps == ((0, 0),) and arities == (2,)

    def test_fixture_predicates_hold(self):
        for m in (1, 2, 3, 4):
            scheme, _ = scheme_fixture("trivial_from_equality", m)
            assert is_conjunctive_minor_constraint(
                trivial_constraint(m, 2), [equality_constraint(2, 2)], scheme
            )
            scheme, _ = scheme_fixture("empty_spread", m)
            assert is_conjunctive_minor_constraint(
                empty_constraint(m, 2), [empty_constraint(1, 2)], scheme
            )
        for m in (2, 3, 4):
            scheme, arities = scheme_fixture("equality_chain", m)
            assert is_conjunctive_minor_constraint(
                equality_constraint(m, 2),
                [equality_constraint(2, 2)] * len(arities),
                scheme,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(GaloisKitError):
            scheme_fixture("bogus", 2)


def _refusal(call, budget):
    """The message of the refusal of call() inside a meter of this budget."""
    with pytest.raises(BudgetExceededError) as info, Meter(budget):
        call()
    assert info.value.done > info.value.budget == budget
    return str(info.value)


class TestMetering:
    """The minor phases are unreachable from the command line; each refuses
    here, naming the phase, the steps done and the budget."""

    def test_tight_minor_charges_skolem_maps(self):
        # four Skolem maps fail for a = (0,), then a = (1,) tries a fifth and sixth
        scheme = MinorScheme(1, ("u", "v"), ((0, "u", "v"),))
        call = partial(tight_relation_minor, scheme, [set()], 2)
        assert _refusal(call, 5) == "refusing Skolem maps: 6 steps exceed budget 5"

    def test_rf_minor_column_loop_charges_minor_multisets(self):
        phi = RepetitionFunction(1, 2, 0, {(0,): 2, (1,): 1})
        call = partial(is_restrictive_rf_minor, phi, [phi], MinorScheme.identity(1), 3)
        assert _refusal(call, 4) == "refusing minor multisets: 5 steps exceed budget 4"
        assert call()

    @pytest.mark.parametrize("extensive, phi, col_cap", [
        (False, RepetitionFunction(2, 2, 0, {(0, 0): 2, (0, 1): 1, (1, 1): INF}), 3),
        (False, RepetitionFunction(2, 3, 1, {(0, 0): 0, (1, 2): 2, (2, 2): INF}), 2),
        (True, RepetitionFunction(2, 2, 0, {(0, 1): 2, (1, 0): 1}), 3),
    ], ids=["default-0", "positive-default", "all-inf-box"])
    def test_rf_minor_work_matches_the_recursive_stream(self, extensive, phi, col_cap):
        # each predicate holds, so it walks every multiset of every width;
        # a positive default is charged one step per entry of its k^m tuples
        predicate = is_extensive_rf_minor if extensive else is_restrictive_rf_minor
        m, k = phi.arity, phi.domain_size
        walked = RepetitionFunction.constant(m, k, INF) if extensive else phi
        tuples = list(product(range(k), repeat=m))
        multisets = sum(len(recursive_nondecreasing_selections(tuples, walked.value, n))
                        for n in range(1, col_cap + 1))
        with Meter(10 ** 9) as meter:
            assert predicate(phi, [phi], MinorScheme.identity(m), col_cap)
        assert meter.done["minor multisets"] == multisets
        assert meter.done.get("support tuples", 0) == (k ** m * m if walked.default else 0)

    def test_materialized_minor_charges_minor_multisets(self):
        # the six multisets of breadth <= 2 are (), (0), (0 0), (0 1), (1) and
        # (1 1); each tries its one Skolem choice, and the columns (0) and (1)
        # charge their one image each on first use, so (1 1) takes the eighth
        # Skolem maps step
        args = ([trivial_cluster(1, 3, 2)], MinorScheme(1, (), ((0,),)), 2)
        with pytest.raises(BudgetExceededError) as info, Meter(7):
            materialize_minor(*args)
        assert str(info.value) == "refusing Skolem maps: 8 steps exceed budget 7"
        with Meter(8) as meter:
            assert len(materialize_minor(*args).generators) == 3
        assert meter.done["minor multisets"] == 6 and meter.done["Skolem maps"] == 8

    def test_skolem_maps_and_their_images_are_charged_before_they_are_built(self):
        # 3 entries in each of the 8 Skolem maps, the 8 images of each of the
        # columns (0) and (1), then one choice for each of (0), (1) and (0 1)
        phi = RepetitionFunction(1, 2, 0, {(0,): 1, (1,): 1})
        scheme = MinorScheme(1, ("u", "v", "w"), ((0, "u", "v", "w"),))
        call = partial(is_restrictive_rf_minor, phi, [RepetitionFunction.constant(4, 2, INF)],
                       scheme, 2)
        with Meter() as meter:
            assert call()
        assert meter.done["Skolem maps"] == 3 * 8 + 2 * 8 + 3
        assert _refusal(call, 42) == "refusing Skolem maps: 43 steps exceed budget 42"

    @pytest.mark.parametrize("budget", [10, DEFAULT_BUDGET])
    def test_indeterminates_are_refused_before_their_maps_are_listed(self, budget):
        # 20 entries in each of 2^20 Skolem maps: listing them would take
        # seconds and hundreds of MB
        names = tuple(f"v{i}" for i in range(20))
        phi = RepetitionFunction(1, 2, 0, {(0,): 2, (1,): 1})
        family = [RepetitionFunction.constant(21, 2, INF)]
        call = partial(is_restrictive_rf_minor, phi, family, MinorScheme(1, names, ((0, *names),)))
        assert _refusal(call, budget) == (
            f"refusing Skolem maps: {20 * 2 ** 20} steps exceed budget {budget}")

    @pytest.mark.parametrize("unused", [1, 3, 20])
    def test_unused_indeterminates_cost_what_the_scheme_without_them_costs(self, unused):
        # a name no map reads changes no image, so it lists no Skolem map
        spare = tuple(f"spare{i}" for i in range(unused))
        phi = RepetitionFunction(2, 2, 0, {(0, 0): 2, (0, 1): 1, (1, 1): INF})
        relation = RepetitionFunction(3, 2, 0, {(0, 0, 1): 2, (0, 1, 0): 1, (1, 1, 1): INF})
        for maps, family in ((((0,),), [RepetitionFunction.constant(1, 2, INF)]),
                             (((1, "u", 0),), [relation]),
                             (((0, "u", "v"), (1,)), [relation, RepetitionFunction(1, 2, 1)])):
            names = tuple(sorted({e for h in maps for e in h if isinstance(e, str)}))
            outcomes = []
            for scheme in (MinorScheme(2, names, maps), MinorScheme(2, spare + names, maps),
                           MinorScheme(2, names[:1] + spare + names[1:], maps)):
                for predicate in (is_restrictive_rf_minor, is_extensive_rf_minor):
                    with Meter() as meter:
                        verdict = predicate(phi, family, scheme, 3)
                    outcomes.append((predicate.__name__, verdict, meter.done))
            assert outcomes[:2] == outcomes[2:4] == outcomes[4:], maps


def _refused_before_any_work(call, match):
    """``call`` raises a GaloisKitError matching ``match`` and charges no step."""
    with Meter() as meter:
        with pytest.raises(GaloisKitError, match=match):
            call()
    assert meter.done == {}


ID1 = MinorScheme.identity(1)


class TestIllShapedFamiliesAreRefused:
    def test_phi_arity_differs_from_the_target(self):
        phi = RepetitionFunction(2, 2, INF)
        _refused_before_any_work(
            lambda: is_restrictive_rf_minor(phi, [RepetitionFunction(1, 2, INF)], ID1),
            r"phi has arity 2, but the scheme target is 1")

    def test_member_arity_differs_from_its_map(self):
        phi = RepetitionFunction(1, 2, INF)
        _refused_before_any_work(
            lambda: is_restrictive_rf_minor(phi, [RepetitionFunction(2, 2, INF)], ID1),
            r"repetition function 0 has arity 2, but map 0 has 1")

    def test_domain_sizes_differ(self):
        phi = RepetitionFunction(1, 2, INF)
        _refused_before_any_work(
            lambda: is_extensive_rf_minor(phi, [RepetitionFunction(1, 3, 0)], ID1),
            r"repetition function 0 has domain size 3, not 2")

    def test_codomain_sizes_differ(self):
        _refused_before_any_work(
            lambda: is_conjunctive_minor_constraint(
                trivial_constraint(1, 2), [trivial_constraint(1, 2, 3)], ID1),
            r"constraint 0 has codomain size 3, not 2")

    def test_cluster_arity_differs_from_its_map(self):
        _refused_before_any_work(
            lambda: cluster_minor_member(TupleMatrix(1, ((0,),)), [trivial_cluster(2, 2, 2)], ID1),
            r"cluster 0 has arity 2, but map 0 has 1")

    def test_cluster_domain_sizes_differ(self):
        scheme = MinorScheme(1, (), ((0,), (0,)))
        _refused_before_any_work(
            lambda: materialize_minor([trivial_cluster(1, 2, 2), trivial_cluster(1, 2, 3)],
                                      scheme, 2),
            r"cluster 1 has domain size 3, not 2")

    def test_relation_tuple_has_the_wrong_length(self):
        _refused_before_any_work(
            lambda: tight_relation_minor(ID1, [{(0, 1)}], 2),
            r"relation 0 tuple \(0, 1\) has length 2, but map 0 has 1")

    def test_relation_entry_is_outside_the_domain(self):
        _refused_before_any_work(
            lambda: tight_relation_minor(ID1, [{(5,)}], 2),
            r"relation 0 tuple \(5,\) has an entry outside domain size 2")
