"""Every refusal the package can raise, one case per raise site, each
with its exact message.  ``test_public_api.py`` holds every message in
``src/`` to a mention under ``tests/``; these cases are where most of
them are checked."""

import re

import pytest

from galois_kit import (
    INF,
    BoxedGenerator,
    Cluster,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    GeneralizedConstraint,
    MinorScheme,
    Operation,
    OperationClass,
    RepetitionFunction,
    TupleMatrix,
    Workspace,
    all_operations,
    apply_op_rows,
    breadth_restrict,
    c_pol,
    close_composition,
    close_perm_dummy,
    cluster_member,
    cluster_union,
    compose_schemes,
    empty_cluster,
    empty_constraint,
    enumerate_cluster_members,
    enumerate_matrices_leq,
    equality_cluster,
    equality_constraint,
    extend_consequent,
    gc_inv,
    intersect_consequents,
    is_conjunctive_minor_constraint,
    is_extensive_rf_minor,
    is_restrictive_rf_minor,
    linear_class_fixture,
    minor_by_injection,
    ms_join,
    order_cluster,
    parse_workspace,
    parse_workspace_file,
    precedes,
    projection,
    quotient,
    relation_cluster,
    restrict_antecedent,
    rf_leq,
    run_suite,
    satisfies_constraint,
    scheme_fixture,
    separating_constraint,
    split_enumerate,
    star,
    tight_relation_minor,
    trivial_cluster,
    trivial_constraint,
)
from galois_kit.cli import main
from galois_kit.extnat import ext_sub

RF1 = RepetitionFunction(1, 2)
ID2 = projection(1, 1, 2)  # the unary identity over {0, 1}
AND = Operation(2, 2, 2, (0, 0, 0, 1))
EQ2 = equality_constraint(2, 2)
ONE_MAP = MinorScheme(1, (), ((0,),))


# (id, call, exact message)
LIBRARY = [
    # sizes that are not ints, refused before any work
    ("tight-minor-float-size",
     lambda: tight_relation_minor(MinorScheme.identity(1), [{(0,)}], 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("order-cluster-float-size", lambda: order_cluster({(0, 0)}, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("equality-cluster-float-size", lambda: equality_cluster(1.5),
     "domain size must be positive: an int, not 1.5"),
    ("relation-cluster-float-size", lambda: relation_cluster({(0,)}, 1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("projection-float-size", lambda: projection(1, 1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("all-operations-float-size", lambda: list(all_operations(1.5, 1)),
     "domain size must be positive: an int, not 1.5"),
    ("equality-constraint-float-size", lambda: equality_constraint(1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("trivial-constraint-float-arity", lambda: trivial_constraint(1.5, 2),
     "arity must be positive: an int, not 1.5"),
    ("linear-fixture-float-k", lambda: linear_class_fixture(3.0, 2, 2),
     "k must be positive: an int, not 3.0"),
    ("rf-float-size", lambda: RepetitionFunction(1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("rf-float-arity", lambda: RepetitionFunction(1.5, 2),
     "arity must be positive: an int, not 1.5"),
    ("cluster-float-size", lambda: Cluster(1, 1.5, frozenset()),
     "domain size must be positive: an int, not 1.5"),
    ("trivial-cluster-float-size", lambda: trivial_cluster(1, 2, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("empty-cluster-float-size", lambda: empty_cluster(1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("empty-constraint-float-size", lambda: empty_constraint(1, 1.5),
     "domain size must be positive: an int, not 1.5"),
    ("constraint-float-codomain",
     lambda: GeneralizedConstraint(RepetitionFunction(1, 2), frozenset(), 1.5),
     "codomain size must be positive: an int, not 1.5"),
    ("operation-float-size", lambda: Operation(2.0, 2, 1, (0, 1)),
     "domain size must be positive: an int, not 2.0"),
    ("operation-bool-arity", lambda: Operation(2, 2, True, (0, 1)),
     "arity must be positive: an int, not True"),
    ("class-float-size", lambda: OperationClass(1.5),
     "domain size must be positive: an int, not 1.5"),
    ("scheme-float-target", lambda: MinorScheme(1.5, (), ((0,),)),
     "scheme target must be positive: an int, not 1.5"),
    ("identity-scheme-float-target", lambda: MinorScheme.identity(1.5),
     "scheme target must be positive: an int, not 1.5"),
    ("multiset-float-arity", lambda: FiniteMultiset(1.5, {}),
     "multiset arity must be positive: an int, not 1.5"),
    ("matrix-float-rows", lambda: TupleMatrix(1.5, ()),
     "row count must be positive: an int, not 1.5"),
    # sizes below 1, refused before any work
    ("class-zero-size", lambda: OperationClass(0),
     "domain size must be positive: an int, not 0"),
    ("class-negative-size", lambda: OperationClass(-1),
     "domain size must be positive: an int, not -1"),
    ("class-zero-codomain", lambda: OperationClass(2, 0),
     "codomain size must be positive: an int, not 0"),
    ("constraint-zero-codomain",
     lambda: GeneralizedConstraint(RepetitionFunction(1, 2), frozenset(), 0),
     "codomain size must be positive: an int, not 0"),
    ("constraint-negative-codomain",
     lambda: GeneralizedConstraint(RepetitionFunction(1, 2), frozenset(), -1),
     "codomain size must be positive: an int, not -1"),
    ("empty-constraint-zero-codomain", lambda: empty_constraint(1, 2, 0),
     "codomain size must be positive: an int, not 0"),
    ("equality-constraint-zero-codomain", lambda: equality_constraint(1, 2, 0),
     "codomain size must be positive: an int, not 0"),
    ("trivial-constraint-zero-codomain", lambda: trivial_constraint(1, 2, 0),
     "codomain size must be positive: an int, not 0"),
    ("trivial-constraint-negative-arity", lambda: trivial_constraint(-1, 2),
     "arity and domain size must be positive"),
    ("tight-minor-zero-size", lambda: tight_relation_minor(MinorScheme.identity(1), [set()], 0),
     "domain size must be positive: an int, not 0"),
    ("all-operations-negative-size", lambda: list(all_operations(-1, 1)),
     "domain size must be positive: an int, not -1"),
    ("all-operations-negative-arity", lambda: list(all_operations(2, -1)),
     "arity must be positive: an int, not -1"),
    ("all-operations-zero-codomain", lambda: list(all_operations(2, 1, 0)),
     "codomain size must be positive: an int, not 0"),
    ("linear-fixture-zero-cap", lambda: linear_class_fixture(3, 2, 0),
     "arity cap must be positive: an int, not 0"),
    # clusters
    ("generator-cap", lambda: BoxedGenerator(RF1, -1), "invalid generator cap -1"),
    ("cluster-arity", lambda: Cluster(0, 2, frozenset()),
     "cluster arity and domain size must be positive"),
    ("cluster-generator-shape",
     lambda: Cluster(2, 2, frozenset({BoxedGenerator(RF1, 1)})),
     "generator arity/domain mismatch with cluster"),
    ("member-arity", lambda: cluster_member(FiniteMultiset(2), trivial_cluster(1, 1, 2)),
     "multiset arity does not match the cluster"),
    ("member-limit", lambda: enumerate_cluster_members(trivial_cluster(1, 1, 2), -1),
     "limit must be nonnegative: an int or inf, not -1"),
    ("quotient-arity", lambda: quotient(trivial_cluster(1, 1, 2), FiniteMultiset(2)),
     "multiset arity does not match the cluster"),
    ("union-empty", lambda: cluster_union([]), "union of an empty family"),
    ("union-arities",
     lambda: cluster_union([trivial_cluster(1, 1, 2), trivial_cluster(2, 1, 2)]),
     "cluster arity mismatch in union"),
    ("trivial-cluster-breadth", lambda: trivial_cluster(1, -1, 2),
     "breadth must be nonnegative: an int or inf, not -1"),
    ("trivial-cluster-str-breadth", lambda: trivial_cluster(1, "x", 2),
     "breadth must be nonnegative: an int or inf, not 'x'"),
    ("breadth-restrict-str", lambda: breadth_restrict(trivial_cluster(1, 1, 2), "x"),
     "breadth must be nonnegative: an int or inf, not 'x'"),
    ("breadth-restrict-negative", lambda: breadth_restrict(trivial_cluster(1, 1, 2), -1),
     "breadth must be nonnegative: an int or inf, not -1"),
    ("generator-int-box", lambda: BoxedGenerator(5, 1),
     "generator box 5 is not a repetition function"),
    ("cluster-int-generator", lambda: Cluster(1, 2, [5]),
     "cluster generator 5 is not a boxed generator"),
    ("relation-tuple", lambda: relation_cluster({(0, 2)}, 2, 2),
     "relation tuple (0, 2) invalid"),
    ("order-pair", lambda: order_cluster({(0, 0), (1, 1), (0, 2)}, 2),
     "order pair (0, 2) is not a pair over domain size 2"),
    ("order-reflexive", lambda: order_cluster({(0, 0)}, 2), "order must be reflexive"),
    ("order-antisymmetric", lambda: order_cluster({(0, 0), (1, 1), (0, 1), (1, 0)}, 2),
     "order must be antisymmetric"),
    ("order-transitive",
     lambda: order_cluster({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}, 3),
     "order must be transitive"),
    # constraints
    ("precedes-rows", lambda: precedes(TupleMatrix(1, ((0,),)), RepetitionFunction(2, 2)),
     "matrix row count must equal the antecedent arity"),
    ("constraint-codomain",
     lambda: satisfies_constraint(ID2, GeneralizedConstraint(RF1, frozenset(), 3)),
     "operation codomain does not match the consequent alphabet"),
    ("restrict-antecedent",
     lambda: restrict_antecedent(empty_constraint(1, 2), RepetitionFunction(1, 2, 1)),
     "restriction requires phi' <= phi pointwise"),
    ("extend-consequent", lambda: extend_consequent(EQ2, {(0, 0)}),
     "extension requires S' to contain S"),
    ("intersect-empty", lambda: intersect_consequents([]), "intersecting an empty family"),
    ("intersect-antecedents",
     lambda: intersect_consequents([EQ2, trivial_constraint(2, 2)]),
     "family members must share the antecedent"),
    ("equality-constraint-arity", lambda: equality_constraint(0, 2),
     "arity must be positive"),
    # extended naturals
    ("inf-minus-inf", lambda: ext_sub(INF, INF), "inf - inf is undefined"),
    # Galois connections
    ("config-size", lambda: GaloisConfig(0, 1, 1, 1),
     "domain_size must be an int of at least 1, not 0"),
    ("config-domain",
     lambda: gc_inv(OperationClass(3), GaloisConfig(2, 1, 1, 1)),
     "config domain_size 2 does not match the class's domain size 3"),
    ("c-pol-codomain",
     lambda: c_pol([trivial_cluster(1, 1, 2)], GaloisConfig(2, 1, 1, 1, codomain_size=3)),
     "c_pol needs codomain_size equal to domain_size 2, not 3: a cluster has one alphabet"),
    ("separate-domain",
     lambda: separating_constraint(OperationClass(2, members=[ID2]), projection(1, 1, 3)),
     "operation domain does not match the class"),
    # minor schemes
    ("scheme-target", lambda: MinorScheme(0, (), ((0,),)), "scheme target must be positive"),
    ("scheme-no-map", lambda: MinorScheme(1, (), ()), "a scheme needs at least one map"),
    ("scheme-duplicate-names", lambda: MinorScheme(1, ("x", "x"), ((0,),)),
     "duplicate indeterminate names"),
    ("scheme-empty-map", lambda: MinorScheme(1, (), ((),)), "source arities must be positive"),
    ("scheme-index", lambda: MinorScheme(1, (), ((1,),)), "index 1 out of target range"),
    ("scheme-unknown-name", lambda: MinorScheme(1, (), (("y",),)), "unknown indeterminate 'y'"),
    ("scheme-int-map", lambda: MinorScheme(2, (), (5,)), "scheme map 5 is not a sequence"),
    ("compose-count", lambda: compose_schemes(ONE_MAP, []),
     "need exactly one inner scheme per outer map"),
    ("compose-target", lambda: compose_schemes(ONE_MAP, [MinorScheme.identity(2)]),
     "inner scheme target must equal the outer source arity"),
    ("tight-minor-count", lambda: tight_relation_minor(ONE_MAP, [], 2),
     "need one relation per scheme map"),
    ("conjunctive-count", lambda: is_conjunctive_minor_constraint(EQ2, [], ONE_MAP),
     "need one constraint per scheme map"),
    ("conjunctive-target", lambda: is_conjunctive_minor_constraint(EQ2, [EQ2], ONE_MAP),
     "scheme target must equal the constraint arity"),
    ("rf-minor-column-cap", lambda: is_restrictive_rf_minor(RF1, [RF1], ONE_MAP, 0),
     "column cap must be positive: an int, not 0"),
    ("fixture-arity", lambda: scheme_fixture("empty_spread", 0), "arity must be positive"),
    ("fixture-chain", lambda: scheme_fixture("equality_chain", 1),
     "equality_chain needs m >= 2"),
    ("fixture-kind", lambda: scheme_fixture("bogus", 2),
     "unknown scheme fixture kind 'bogus'"),
    # multisets and matrices
    ("multiset-arity", lambda: FiniteMultiset(0), "multiset arity must be positive"),
    ("multiset-tuple", lambda: FiniteMultiset(2, {(0,): 1}),
     "tuple (0,) has wrong length for arity 2"),
    ("multiset-count", lambda: FiniteMultiset(1, {(0,): -1}),
     "multiplicity -1 must be a nonnegative int"),
    ("multiset-non-sequence-key", lambda: FiniteMultiset(1, {0: 1}),
     "multiset key 0 is not a sequence"),
    ("multiset-float-entry", lambda: FiniteMultiset(1, {(0.5,): 1}),
     "multiset key (0.5,): entry 0.5 is not an int"),
    ("multiset-int-counts", lambda: FiniteMultiset(1, 5),
     "multiset counts 5 is not a mapping of tuples to multiplicities"),
    ("join-arities", lambda: ms_join(FiniteMultiset(1), FiniteMultiset(2)),
     "multiset arity mismatch"),
    ("matrix-rows", lambda: TupleMatrix(0, ()), "a matrix needs at least one row"),
    ("matrix-column-length", lambda: TupleMatrix(2, ((0,),)),
     "column length must equal row count"),
    ("matrix-non-sequence-column", lambda: TupleMatrix(1, (5,)),
     "matrix column 5 is not a sequence"),
    ("matrix-float-entry", lambda: TupleMatrix(2, ((0, 1.5),)),
     "matrix column (0, 1.5): entry 1.5 is not an int"),
    ("matrix-int-columns", lambda: TupleMatrix(2, 5),
     "matrix columns 5 is not a sequence of columns"),
    ("matrix-no-rows", lambda: TupleMatrix.from_rows([]), "a matrix needs at least one row"),
    ("matrix-ragged", lambda: TupleMatrix.from_rows([(0, 1), (0,)]), "ragged rows"),
    ("apply-columns", lambda: apply_op_rows(AND, TupleMatrix(1, ((0,),))),
     "matrix has 1 columns but f has arity 2"),
    ("apply-range", lambda: apply_op_rows(ID2, TupleMatrix(1, ((2,),))),
     "argument out of domain range"),
    # operations
    ("call-arity", lambda: AND(0), "arity mismatch: got 1 arguments for arity 2"),
    ("call-range", lambda: AND(0, 2), "argument out of domain range"),
    ("call-float", lambda: Operation(2, 2, 1, (1, 0))(0.5), "argument 0.5 is not an int"),
    ("call-str", lambda: AND(0, "1"), "argument '1' is not an int"),
    ("projection-index", lambda: projection(2, 3, 2), "projection index 3 out of range 1..2"),
    ("star-codomain", lambda: star(ID2, Operation(2, 3, 1, (0, 2))),
     "codomain of g must equal domain of f"),
    ("star-domains", lambda: star(ID2, Operation(3, 2, 1, (0, 1, 1))),
     "star requires equal domain sizes"),
    ("sigma-length", lambda: minor_by_injection(AND, (1,), 2),
     "sigma must have one entry per argument of f"),
    ("sigma-injective", lambda: minor_by_injection(AND, (1, 1), 2),
     "sigma must be injective"),
    ("sigma-range", lambda: minor_by_injection(AND, (1, 3), 2), "sigma value out of range"),
    ("sigma-float-entry", lambda: minor_by_injection(AND, (1.0, 2), 2),
     "sigma (1.0, 2): entry 1.0 is not an int"),
    ("sigma-float-target", lambda: minor_by_injection(AND, (1, 2), 2.0),
     "target arity must be positive: an int, not 2.0"),
    ("class-alphabet", lambda: OperationClass(3).add(ID2),
     "operation domain/codomain mismatch with class"),
    ("class-int-member", lambda: OperationClass(2, 2, [5]), "class member 5 is not an operation"),
    ("closure-cap", lambda: close_perm_dummy(OperationClass(2, members=[AND]), 1),
     "arity cap below an existing member arity"),
    # a negative cap is refused as such, whether or not the class has members
    ("perm-dummy-negative-cap", lambda: close_perm_dummy(OperationClass(2), -1),
     "arity cap must be nonnegative, not -1"),
    ("composition-negative-cap", lambda: close_composition(OperationClass(2), -1),
     "arity cap must be nonnegative, not -1"),
    ("composition-zero-cap", lambda: close_composition(OperationClass(2), 0),
     "invalid arity cap"),
    ("linear-fixture-prime", lambda: linear_class_fixture(4, 3, 2),
     "k=4 must be prime for field arithmetic"),
    ("linear-fixture-p", lambda: linear_class_fixture(3, 1, 2), "p must be at least 2"),
    ("linear-fixture-pair", lambda: linear_class_fixture(2, 2, 2),
     "the combination p=2, k=2 is excluded"),
    # repetition functions
    ("rf-exception-value", lambda: RepetitionFunction(1, 2, 0, {(0,): -1}),
     "invalid exception value -1"),
    ("rf-leq-shapes", lambda: rf_leq(RF1, RepetitionFunction(2, 2)),
     "repetition function arity/domain mismatch"),
    # suites
    ("unknown-suite", lambda: run_suite("x"), "unknown suite 'x'"),
    ("unknown-entity-kind", lambda: Workspace().add("bogus", "x", None),
     "unknown entity kind 'bogus'"),
    # entries that are not ints, refused where the entity is built
    ("operation-float-entry", lambda: Operation(2, 2, 1, (1.0, 0.0)),
     "table (1.0, 0.0): entry 1.0 is not an int"),
    ("operation-none-entry", lambda: Operation(2, 2, 1, [0, None]),
     "table (0, None): entry None is not an int"),
    ("rf-float-key-entry", lambda: RepetitionFunction(1, 2, 0, {(0.5,): 1}),
     "exception key (0.5,): entry 0.5 is not an int"),
    ("constraint-float-entry", lambda: GeneralizedConstraint(RF1, frozenset({(0.5,)}), 2),
     "consequent tuple (0.5,): entry 0.5 is not an int"),
    # a table, exception key or consequent tuple that is not a sequence
    ("operation-int-table", lambda: Operation(2, 2, 1, 5), "table 5 is not a sequence"),
    ("rf-int-key", lambda: RepetitionFunction(1, 2, 0, {0: 1}),
     "exception key 0 is not a sequence"),
    ("constraint-int-tuple", lambda: GeneralizedConstraint(RepetitionFunction(1, 2), {0}, 2),
     "consequent tuple 0 is not a sequence"),
    ("constraint-iterator-tuple",
     lambda: GeneralizedConstraint(RepetitionFunction(1, 2), iter([(1,), 0]), 2),
     "consequent tuple 0 is not a sequence"),
    ("constraint-int-consequent", lambda: GeneralizedConstraint(RepetitionFunction(1, 2), 5, 2),
     "consequent 5 is not a collection of tuples"),
    ("constraint-list-entry", lambda: GeneralizedConstraint(RepetitionFunction(1, 2), [[[0]]], 2),
     "consequent tuple ([0],): entry [0] is not an int"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in LIBRARY],
                         ids=[c[0] for c in LIBRARY])
def test_library_refusal(call, message):
    with pytest.raises(GaloisKitError, match=f"^{re.escape(message)}$"):
        call()


def test_bool_entries_are_ints():
    """Tables built from comparisons hold bools, and stay accepted."""
    leq = Operation.from_callable(2, 2, 2, lambda x, y: x <= y)
    assert leq.table == (1, 1, 0, 1)
    assert RepetitionFunction(1, 2, 0, {(True,): 1}) == RepetitionFunction(1, 2, 0, {(1,): 1})
    assert GeneralizedConstraint(RF1, {(False,)}, 2).consequent == {(0,)}


# (id, a call given one public size parameter, the others valid)
SIZE_PARAMETERS = [
    ("Operation-domain", lambda v: Operation(v, 2, 1, (0, 1))),
    ("Operation-codomain", lambda v: Operation(2, v, 1, (0, 0))),
    ("Operation-arity", lambda v: Operation(2, 2, v, (0, 1))),
    ("projection-arity", lambda v: projection(v, 1, 2)),
    ("projection-index", lambda v: projection(1, v, 2)),
    ("projection-domain", lambda v: projection(1, 1, v)),
    ("OperationClass-domain", lambda v: OperationClass(v)),
    ("OperationClass-codomain", lambda v: OperationClass(2, v)),
    ("all_operations-domain", lambda v: list(all_operations(v, 1))),
    ("all_operations-arity", lambda v: list(all_operations(2, v))),
    ("all_operations-codomain", lambda v: list(all_operations(2, 1, v))),
    ("close_composition-cap", lambda v: close_composition(OperationClass(2), v)),
    ("linear_class_fixture-k", lambda v: linear_class_fixture(v, 2, 1)),
    ("linear_class_fixture-p", lambda v: linear_class_fixture(3, v, 1)),
    ("linear_class_fixture-cap", lambda v: linear_class_fixture(3, 2, v)),
    ("RepetitionFunction-arity", lambda v: RepetitionFunction(v, 2)),
    ("RepetitionFunction-domain", lambda v: RepetitionFunction(1, v)),
    ("GeneralizedConstraint-codomain", lambda v: GeneralizedConstraint(RF1, frozenset(), v)),
    ("equality_constraint-arity", lambda v: equality_constraint(v, 2)),
    ("equality_constraint-domain", lambda v: equality_constraint(1, v)),
    ("equality_constraint-codomain", lambda v: equality_constraint(1, 2, v)),
    ("empty_constraint-arity", lambda v: empty_constraint(v, 2)),
    ("empty_constraint-domain", lambda v: empty_constraint(1, v)),
    ("empty_constraint-codomain", lambda v: empty_constraint(1, 2, v)),
    ("trivial_constraint-arity", lambda v: trivial_constraint(v, 2)),
    ("trivial_constraint-domain", lambda v: trivial_constraint(1, v)),
    ("trivial_constraint-codomain", lambda v: trivial_constraint(1, 2, v)),
    ("FiniteMultiset-arity", lambda v: FiniteMultiset(v)),
    ("TupleMatrix-rows", lambda v: TupleMatrix(v, ())),
    ("enumerate_matrices_leq-columns", lambda v: list(enumerate_matrices_leq(RF1, v))),
    ("split_enumerate-size", lambda v: list(split_enumerate(FiniteMultiset(1), v))),
    ("Cluster-arity", lambda v: Cluster(v, 2, frozenset())),
    ("Cluster-domain", lambda v: Cluster(1, v, frozenset())),
    ("trivial_cluster-arity", lambda v: trivial_cluster(v, 1, 2)),
    ("trivial_cluster-domain", lambda v: trivial_cluster(1, 1, v)),
    ("empty_cluster-arity", lambda v: empty_cluster(v, 2)),
    ("empty_cluster-domain", lambda v: empty_cluster(1, v)),
    ("equality_cluster-domain", lambda v: equality_cluster(v)),
    ("relation_cluster-arity", lambda v: relation_cluster(set(), v, 2)),
    ("relation_cluster-domain", lambda v: relation_cluster(set(), 1, v)),
    ("order_cluster-domain", lambda v: order_cluster(set(), v)),
    ("MinorScheme-target", lambda v: MinorScheme(v, (), ((0,),))),
    ("MinorScheme.identity-arity", lambda v: MinorScheme.identity(v)),
    ("scheme_fixture-arity", lambda v: scheme_fixture("empty_spread", v)),
    ("tight_relation_minor-domain", lambda v: tight_relation_minor(ONE_MAP, [set()], v)),
    ("is_restrictive_rf_minor-cap", lambda v: is_restrictive_rf_minor(RF1, [RF1], ONE_MAP, v)),
    ("is_extensive_rf_minor-cap", lambda v: is_extensive_rf_minor(RF1, [RF1], ONE_MAP, v)),
    ("is_conjunctive_minor_constraint-cap",
     lambda v: is_conjunctive_minor_constraint(EQ2, [EQ2], MinorScheme.identity(2), v)),
    *((f"GaloisConfig-{name}", lambda v, i=i: GaloisConfig(*[v if j == i else 1 for j in range(5)]))
      for i, name in enumerate(["domain_size", "n_max", "m_max", "breadth", "codomain_size"])),
]


@pytest.mark.parametrize("value", [0, -1, 1.5, True], ids=["0", "-1", "1.5", "True"])
@pytest.mark.parametrize("call", [c[1] for c in SIZE_PARAMETERS],
                         ids=[c[0] for c in SIZE_PARAMETERS])
def test_every_size_below_one_or_not_an_int_is_refused(call, value):
    with pytest.raises(GaloisKitError):
        call(value)


def test_perm_dummy_closure_at_cap_zero_is_the_empty_class():
    assert close_perm_dummy(OperationClass(2), 0) == OperationClass(2)


# (id, the line after the header, exact message without the "line 2: " prefix)
TEXTIO = [
    ("op-integers", "op f k=2 arity=1 : 0 x", "expected integers, got ['0', 'x']"),
    ("op-key", "op f k=2 1 : 0 1", "expected arity=..., got '1'"),
    ("op-head", "op f k=2 : 0 1", "malformed op line head 'f k=2 '"),
    ("ms-line", "ms s { 0 * 1 }", "malformed ms line 's { 0 * 1 }'"),
    ("ms-entry", "ms s arity=1 { 0 }", "ms entry '0' needs '* <count>'"),
    ("mat-colon", "mat m rows=1 cols=1 col(0)", "mat line needs ':' before the columns"),
    ("mat-head", "mat m rows=1 : col(0)", "malformed mat line head 'm rows=1 '"),
    ("mat-count", "mat m rows=1 cols=2 : col(0)", "mat declares cols=2 but lists 1 columns"),
    ("rf-body", "rf r arity=1 k=2 { } x", "malformed rf body 'arity=1 k=2 { } x'"),
    ("rf-token", "rf r arity=1 k=2 x { }", "unexpected token 'x' in rf head"),
    ("rf-field", "rf r arity=1 k=2 size=3 { }", "unknown rf field 'size'"),
    ("rf-shape", "rf r arity=1 { }", "rf needs arity= and k= (here or from context)"),
    ("rf-entry", "rf r arity=1 k=2 { 0 }", "rf entry '0' needs '-> <value>'"),
    ("rf-name", "rf  arity=1 k=2 { }", "rf line needs a name"),
    ("cluster-line", "cluster c arity=1 { }", "malformed cluster line 'c arity=1 { }'"),
    ("class-line", "class c k=2 {", "malformed class line 'c k=2 {'"),
]

# scheme blocks: (id, the lines after the header, exact message)
TEXTIO_BLOCKS = [
    ("scheme-line", "scheme s target=1", "line 2: malformed scheme line 's target=1'"),
    ("map-colon", "scheme s target=1 vars=[]\nmap j=0 arity=1 0",
     "line 3: map line needs ':' before the entries"),
    ("map-head", "scheme s target=1 vars=[]\nmap j=0 : 0",
     "line 3: malformed map line head 'j=0 '"),
    ("map-arity", "scheme s target=1 vars=[]\nmap j=0 arity=2 : 0",
     "line 3: map declares arity=2 but lists 1 entries"),
    ("no-header", "# only a comment", "missing header line 'galois-kit v1'"),
]


@pytest.mark.parametrize("line, message", [c[1:] for c in TEXTIO],
                         ids=[c[0] for c in TEXTIO])
def test_textio_refusal(line, message):
    with pytest.raises(GaloisKitError, match=f"^{re.escape('line 2: ' + message)}$"):
        parse_workspace(f"galois-kit v1\n{line}\n")


@pytest.mark.parametrize("text, message", [c[1:] for c in TEXTIO_BLOCKS],
                         ids=[c[0] for c in TEXTIO_BLOCKS])
def test_textio_block_refusal(text, message):
    if not text.startswith("#"):
        text = f"galois-kit v1\n{text}"
    with pytest.raises(GaloisKitError, match=f"^{re.escape(message)}$"):
        parse_workspace(text + "\n")


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "ws.gk"
    path.write_bytes(b"galois-kit v1\n\xff\n")
    with pytest.raises(GaloisKitError,
                       match=f"^{re.escape(f'{path} is not UTF-8 text: invalid start byte')}$"):
        parse_workspace_file(str(path))


CLI_WORKSPACE = """\
galois-kit v1
op f k=2 arity=1 : 0 1
class c {
  op p k=2 arity=1 : 0 1
}
"""

CLOSE_OPS = "supported op sets: zeta,tau,nabla (variable permutation and dummy addition) or zeta,tau,nabla,star (full composition)"

CLI = [
    ("satisfies-target", ["satisfies", "--fn", "f"],
     "give exactly one of --constraint / --cluster"),
    ("close-ops", ["close", "--class", "c", "--ops", "zeta", "--cap", "2"],
     CLOSE_OPS),
    ("pol-names", ["pol", "--kind", "cluster", "--names", ",", "--cap", "1"],
     "--names must list at least one entity"),
]


@pytest.mark.parametrize("argv, message", [c[1:] for c in CLI], ids=[c[0] for c in CLI])
def test_cli_refusal(argv, message, tmp_path, capsys):
    path = tmp_path / "ws.gk"
    path.write_text(CLI_WORKSPACE)
    assert main([*argv, "-w", str(path)]) == 2
    assert capsys.readouterr().out == f"error: {message}\n"


def test_cli_refuses_a_budget_that_is_not_an_int(capsys):
    assert main(["pol", "--kind", "cluster", "--names", "c", "--cap", "1",
                 "--budget", "x"]) == 2
    assert "argument --budget: invalid int value: 'x'" in capsys.readouterr().err
