"""The public surface of ``galois_kit``: a name is exported or dropped on
purpose, and no private name or import in the package is dead."""

import ast
from pathlib import Path

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


# --- no dead private names and no unused imports in the package ---------

SRC = Path(galois_kit.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _read_names(node):
    """The names read in the tree under ``node``: loaded names, attribute
    names and names imported from another module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defined_names(statement):
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign) else
               [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_private_name_is_read_outside_its_definition():
    statements = [(module, s) for module, tree in _trees().items() for s in tree.body]
    reads = [_read_names(s) for _, s in statements]
    dead = [
        f"{module}: {name}"
        for i, (module, statement) in enumerate(statements)
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert dead == []


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for module, tree in _trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.value.id for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                if alias.name == "*" and module == "__init__.py":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert unused == []


# --- every refusal message is checked somewhere under tests/ -------------

REFUSALS = ("GaloisKitError", "NotSeparableError")


def _message_fragment(call):
    """The longest literal piece of a refusal's message, or None when the
    message has no literal text."""
    message = call.args[0] if call.args else None
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        pieces = [message.value]
    elif isinstance(message, ast.JoinedStr):
        pieces = [v.value for v in message.values if isinstance(v, ast.Constant)]
    else:
        pieces = []
    return max(pieces, key=len, default=None)


def test_every_refusal_message_is_mentioned_under_tests():
    tests = Path(__file__).parent
    text = "\n".join(p.read_text(errors="ignore") for p in sorted(tests.rglob("*"))
                     if p.is_file() and "__pycache__" not in p.parts)
    unchecked = [
        f"{module}:{node.lineno}: {fragment!r}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) in REFUSALS
        for fragment in [_message_fragment(node.exc)]
        if fragment is None or fragment not in text
    ]
    assert unchecked == []


# --- one unchecked construction path ------------------------------------

def _new_reads(node, where=None):
    """(innermost enclosing function, line) of every ``__new__`` read under
    ``node``: each builds an object without running its checks."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    found = []
    if isinstance(node, ast.Attribute) and node.attr == "__new__":
        found.append((where, node.lineno))
    for child in ast.iter_child_nodes(node):
        found += _new_reads(child, where)
    return found


def test_only_all_operations_skips_the_checked_constructor():
    """Its tables come from ``product`` with checked sizes, so they are
    valid by construction; every other object is built through checks."""
    reads = [(module, where, line) for module, tree in _trees().items()
             for where, line in _new_reads(tree)]
    assert [(module, where) for module, where, _ in reads] == [
        ("operations.py", "all_operations")], reads
