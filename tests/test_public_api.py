"""The public surface of ``galois_kit``: a name is exported or dropped on purpose."""

import galois_kit

PUBLIC_NAMES = [
    "BoxedGenerator", "BudgetExceededError", "CheckResult", "Cluster",
    "ClusterVerdict", "ConstraintVerdict", "DEFAULT_BUDGET", "FiniteMultiset",
    "GaloisConfig", "GaloisKitError", "GeneralizedConstraint", "HEADER", "INF",
    "Meter", "MinorScheme", "MinorVerdict", "NotSeparableError", "Operation",
    "OperationClass", "RepetitionFunction", "SUITE_NAMES", "TupleMatrix",
    "Workspace", "all_operations", "apply_op_rows", "apply_scheme_map", "breadth",
    "breadth_restrict", "c_pol", "cl_inv", "class_image", "close_composition",
    "close_perm_dummy", "cluster_member", "cluster_minor_member", "cluster_union",
    "columns_multiset", "compose_schemes", "delta", "empty_cluster",
    "empty_constraint", "enumerate_cluster_members", "enumerate_matrices_leq",
    "equality_cluster", "equality_constraint", "extend_consequent", "f_pol",
    "finite_restriction", "format_class", "format_cluster", "format_constraint",
    "format_matrix", "format_multiset", "format_operation", "format_rf",
    "format_scheme", "gc_inv", "intersect_consequents",
    "is_conjunctive_minor_constraint", "is_extensive_rf_minor",
    "is_restrictive_rf_minor", "linear_class_fixture", "materialize_minor",
    "minor_by_injection", "ms_join", "nabla", "order_cluster", "parse_workspace",
    "parse_workspace_file", "precedes", "projection", "quotient",
    "relation_cluster", "restrict_antecedent", "rf_leq", "run_suite",
    "satisfies_cluster", "satisfies_constraint", "scheme_fixture",
    "separating_cluster", "separating_constraint", "split_enumerate", "star", "tau",
    "tight_relation_minor", "trivial_cluster", "trivial_constraint", "zeta",
]


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(galois_kit.__all__) == PUBLIC_NAMES
    assert len(galois_kit.__all__) == len(PUBLIC_NAMES) == 88  # each name once
