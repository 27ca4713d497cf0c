"""The parser and the validating constructors behave exactly as the reference
in ``textio_oracle.py``: the same entities built, and the same inputs
rejected with the same messages.

Workspaces are formatted random entities, with or without damage (a
character deleted or inserted, a number made zero, negative or huge, a
stray line of arbitrary text), plus the workspaces of the command-line
fuzz test.  Constructor arguments are random, invalid ones included, and
include exceptions covering half or more of the tuple space, where the
canonical default is counted out.
"""

from itertools import product

from hypothesis import HealthCheck, example, given, settings, strategies as st

import textio_oracle as oracle
from galois_kit import (
    GaloisKitError,
    GeneralizedConstraint,
    HEADER,
    INF,
    Operation,
    RepetitionFunction,
    Workspace,
    format_class,
    format_cluster,
    format_constraint,
    format_matrix,
    format_multiset,
    format_operation,
    format_rf,
    format_scheme,
    parse_workspace,
)
from test_cli_fuzz import workspaces as fuzz_workspaces
from test_textio import classes, clusters, constraints, matrices, multisets, operations, schemes

ORACLE_SETTINGS = settings(max_examples=300, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def outcome(run, *args):
    """("ok", result) or ("error", message) for a call; other exceptions propagate."""
    try:
        return "ok", run(*args)
    except GaloisKitError as e:
        return "error", str(e)


# --- workspaces ---

_rfs = st.builds(
    lambda m, k, default, exceptions: RepetitionFunction(m, k, default, {
        t[:m]: v for t, v in exceptions.items() if max(t[:m]) < k}),
    st.integers(1, 2), st.integers(1, 3), st.sampled_from([0, 1, INF]),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    st.sampled_from([0, 1, 2, INF]), max_size=4))


@st.composite
def entity_lines(draw, name):
    """One formatted entity; a constraint or cluster may name an rf line instead
    of spelling its body out."""
    kind = draw(st.sampled_from(
        ["op", "class", "ms", "mat", "rf", "constraint", "scheme", "cluster", "ref"]))
    if kind == "ref":
        phi = draw(_rfs)
        user = draw(st.sampled_from([
            f"constraint {name}.c : rf=@{name} consequent={{ ({' '.join(['0'] * phi.arity)}) }}",
            f"cluster {name}.cl arity={phi.arity} k={phi.domain_size} "
            f"{{ gen cap=2 rf=@{name} ; gen cap=inf rf=@{name} }}",
            f"constraint {name}.c : rf=@missing consequent={{ }}"]))
        return [format_rf(name, phi), user]
    strategy, fmt = {
        "op": (operations(), format_operation), "class": (classes(), format_class),
        "ms": (multisets(), format_multiset), "mat": (matrices(), format_matrix),
        "rf": (_rfs, format_rf), "constraint": (constraints(), format_constraint),
        "scheme": (schemes(), format_scheme), "cluster": (clusters(), format_cluster),
    }[kind]
    return fmt(name, draw(strategy)).splitlines()


_NUMBERS = st.sampled_from(["0", "-1", "1", "3", "1400", "100000000", "inf", "x"])
_CHARS = st.sampled_from(list(" \t;[]{}()=:->@,#0123456789kx") + ["->", "inf", "\n"])


@st.composite
def damaged(draw, text):
    """The text with up to three of: a character deleted, a character or token
    inserted, a number replaced, a line of arbitrary text inserted."""
    for _ in range(draw(st.integers(0, 3))):
        damage = draw(st.sampled_from(["delete", "insert", "number", "line"]))
        at = draw(st.integers(0, len(text)))
        if damage == "delete":
            text = text[:at] + text[at + 1:]
        elif damage == "insert":
            text = text[:at] + draw(_CHARS) + text[at:]
        elif damage == "number":
            digits = [i for i, ch in enumerate(text) if ch.isdigit()]
            if digits:
                start = end = draw(st.sampled_from(digits))
                while start and text[start - 1].isdigit():
                    start -= 1
                while end < len(text) and text[end].isdigit():
                    end += 1
                text = text[:start] + draw(_NUMBERS) + text[end:]
        else:
            lines = text.split("\n")
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.text(st.characters(blacklist_categories=("Cs",)),
                                      max_size=30)))
            text = "\n".join(lines)
    return text


@st.composite
def workspace_texts(draw):
    lines = [HEADER]
    for i in range(draw(st.integers(0, 5))):
        lines += draw(entity_lines(f"e{i}"))
    return draw(damaged("\n".join(lines) + "\n"))


def parsed(parse, text):
    ws = parse(text)
    # entities with their types and the order they were named in
    return {kind: [(name, type(value), value) for name, value in ws.entities[kind].items()]
            for kind in Workspace.KINDS}


@ORACLE_SETTINGS
@given(text=st.one_of(workspace_texts(), fuzz_workspaces()))
@example(text=f"{HEADER}\ncluster c arity=1 k=2 {{ gen cap=1 rf=[default=0 {{ 0 -> 1 ; 1 -> 2 }}] }}\n")
@example(text=f"{HEADER}\nconstraint c : rf=[arity=1 k=2 default=0 {{ 0 -> 1 }}] "
              "consequent={ (0), ((1) 2), (3 }\n")
@example(text=f"{HEADER}\ncluster c arity=1 k=2 {{ gen cap=1 rf=[default=0 {{ }}]] ; ; "
              "gen cap=2 rf=[default=1 {{ }}] }}\n")
def test_parse_workspace_matches_reference(text):
    assert outcome(parsed, parse_workspace, text) == outcome(parsed, oracle.parse_workspace, text)


# --- constructors ---

# entries that are not ints, and a bool, which is one
NON_INTS = st.sampled_from([0.5, 1.0, None, "0", True])

@st.composite
def rf_arguments(draw):
    """(arity, domain size, default, exceptions): anything in small ranges, or
    valid exceptions covering at least half of a small tuple space."""
    if draw(st.booleans()):
        m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        space = list(product(range(k), repeat=m))
        keys = draw(st.lists(st.sampled_from(space), min_size=(len(space) + 1) // 2,
                             max_size=len(space), unique=True))
        values = st.sampled_from([0, 1, 2, INF])
        return m, k, draw(values), {t: draw(values) for t in keys}
    m, k = draw(st.sampled_from([1, 2, 3, 0, -1])), draw(st.sampled_from([1, 2, 3, 0]))
    # mostly of the right length, with coordinates in range or just outside
    # it, and now and then one that is not an int
    coordinates = st.one_of(st.integers(-1, max(k, 0)), st.integers(-1, max(k, 0)),
                            st.integers(-1, max(k, 0)), NON_INTS)
    keys = st.one_of(st.lists(coordinates, min_size=max(m, 0), max_size=max(m, 0)),
                     st.lists(st.integers(-1, 4), max_size=4)).map(tuple)
    values = st.sampled_from([0, 1, 2, INF, -1, True, 1.5, None])
    exceptions = st.one_of(st.none(), st.dictionaries(keys, values, max_size=4))
    return m, k, draw(values), draw(exceptions)


def rf_fields(phi):
    return phi.arity, phi.domain_size, phi.default, list(phi.exceptions.items()), hash(phi)


@ORACLE_SETTINGS
@given(args=rf_arguments())
@example(args=(1, 2, 0, {(0,): 1}))  # a tie over half the space, won by the larger value
@example(args=(1, 2, 1, {(0,): 0}))
@example(args=(2, 2, 0, {(0, 0): 1, (0, 2): 1}))
@example(args=(1, 2, 0, {(0.5,): 1}))
@example(args=(1, 2, 0, {(True,): 1}))
@example(args=(1, 2, 0, {0: 1}))  # a key that is not a sequence
def test_repetition_function_matches_reference(args):
    assert (outcome(lambda: rf_fields(RepetitionFunction(*args)))
            == outcome(lambda: rf_fields(oracle.RepetitionFunction(*args))))


@st.composite
def operation_arguments(draw):
    sizes = st.sampled_from([1, 2, 2, 3, 3, 0, -1])
    k, k_out, n = draw(sizes), draw(sizes), draw(sizes)
    size = k ** n if k > 0 and n > 0 else draw(st.integers(0, 4))
    size = max(size + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    # mostly in range, so that the range check decides
    values = st.integers(-1, 0) if k_out < 1 else st.one_of(
        st.integers(0, k_out - 1), st.integers(0, k_out - 1), st.integers(-1, k_out),
        st.integers(0, k_out - 1), st.integers(0, k_out - 1), NON_INTS)
    table = draw(st.lists(values, min_size=size, max_size=size))
    return k, k_out, n, draw(st.sampled_from([tuple, list]))(table)


def operation_fields(op):
    return op.domain_size, op.codomain_size, op.arity, op.table


@ORACLE_SETTINGS
@given(args=operation_arguments())
@example(args=(2, 2, 1, (0, 2)))
@example(args=(2, 2, 1, (1.0, 0.0)))
@example(args=(2, 2, 1, (True, False)))
@example(args=(2, 2, 1, 5))
def test_operation_matches_reference(args):
    assert (outcome(lambda: operation_fields(Operation(*args)))
            == outcome(lambda: operation_fields(oracle.Operation(*args))))


@st.composite
def constraint_arguments(draw):
    m, k, k_out = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    entries = st.one_of(st.integers(-1, k_out), st.integers(-1, k_out), NON_INTS)
    tuples = st.lists(entries, min_size=m - 1, max_size=m + 1)
    consequent = draw(st.lists(st.one_of(tuples, tuples.map(tuple)), max_size=5))
    return RepetitionFunction(m, k), consequent, k_out


def constraint_fields(c):
    return c.antecedent, list(c.consequent), c.codomain_size


@ORACLE_SETTINGS
@given(args=constraint_arguments())
@example(args=(RepetitionFunction(1, 2), [(0,), (2,)], 2))
@example(args=(RepetitionFunction(1, 2), [(0.5,)], 2))
@example(args=(RepetitionFunction(1, 2), [(0,), 0], 2))
@example(args=(RepetitionFunction(1, 2), [(0.5,), 0], 2))
@example(args=(RepetitionFunction(1, 2), [[[0]]], 2))
@example(args=(RepetitionFunction(1, 2), 5, 2))
def test_constraint_matches_reference(args):
    assert (outcome(lambda: constraint_fields(GeneralizedConstraint(*args)))
            == outcome(lambda: constraint_fields(oracle.GeneralizedConstraint(*args))))
