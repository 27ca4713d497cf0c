import pytest
from hypothesis import example, given, strategies as st

from galois_kit import (
    BoxedGenerator,
    Cluster,
    FiniteMultiset,
    GaloisKitError,
    GeneralizedConstraint,
    HEADER,
    INF,
    MinorScheme,
    Operation,
    OperationClass,
    RepetitionFunction,
    TupleMatrix,
    equality_cluster,
    format_class,
    format_cluster,
    format_constraint,
    format_matrix,
    format_multiset,
    format_operation,
    format_rf,
    format_scheme,
    empty_cluster,
    order_cluster,
    parse_workspace,
    trivial_cluster,
)


def parse_one(kind, text):
    ws = parse_workspace(HEADER + "\n" + text)
    names = ws.names(kind)
    assert len(names) == 1
    return ws.get(kind, names[0])


class TestRoundTrips:
    def test_operation(self):
        f = Operation(3, 2, 2, tuple(i % 2 for i in range(9)))
        assert parse_one("operation", format_operation("f", f)) == f

    def test_operation_distinct_codomain_preserved(self):
        f = Operation(2, 3, 1, (0, 2))
        text = format_operation("f", f)
        assert "k=2,3" in text
        assert parse_one("operation", text) == f

    def test_class_block(self):
        cls_ = OperationClass(
            2, members=[Operation(2, 2, 1, (1, 0)), Operation(2, 2, 2, (0, 0, 0, 1))]
        )
        assert parse_one("class", format_class("c", cls_)) == cls_

    def test_multiset(self):
        s = FiniteMultiset(2, {(0, 1): 2, (1, 1): 1})
        assert parse_one("multiset", format_multiset("s", s)) == s

    def test_empty_multiset(self):
        s = FiniteMultiset.empty(3)
        assert parse_one("multiset", format_multiset("s", s)) == s

    def test_matrix(self):
        m = TupleMatrix(3, ((0, 1, 2), (2, 2, 0)))
        assert parse_one("matrix", format_matrix("m", m)) == m

    def test_rf_with_infinities(self):
        phi = RepetitionFunction(2, 3, INF, {(0, 1): 2, (2, 2): 0})
        assert parse_one("rf", format_rf("phi", phi)) == phi

    def test_constraint_inline_rf(self):
        c = GeneralizedConstraint(
            RepetitionFunction(2, 2, 0, {(0, 0): INF}), {(0, 0), (1, 1)}, 2
        )
        assert parse_one("constraint", format_constraint("c", c)) == c

    def test_constraint_distinct_codomain(self):
        c = GeneralizedConstraint(
            RepetitionFunction(1, 2, 1), {(0,), (2,)}, 3
        )
        assert parse_one("constraint", format_constraint("c", c)) == c

    def test_constraint_rf_reference(self):
        text = "\n".join([
            HEADER,
            "rf phi arity=2 k=2 default=0 { 0 0 -> inf ; 1 1 -> inf }",
            "constraint eq : rf=@phi consequent={ (0 0), (1 1) }",
        ])
        ws = parse_workspace(text)
        c = ws.get("constraint", "eq")
        assert c.antecedent == ws.get("rf", "phi")

    def test_scheme(self):
        s = MinorScheme(3, ("u", "v"), ((0, "u", 1), (2, "v")))
        assert parse_one("scheme", format_scheme("s", s)) == s

    def test_scheme_without_vars(self):
        s = MinorScheme(2, (), ((0, 1), (1, 0)))
        assert parse_one("scheme", format_scheme("s", s)) == s

    def test_clusters(self):
        for c in (trivial_cluster(2, 3, 2), equality_cluster(3),
                  order_cluster({(0, 0), (0, 1), (1, 1)}, 2)):
            assert parse_one("cluster", format_cluster("c", c)) == c

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            st.sampled_from([0, 1, 5, INF]),
            max_size=4,
        ),
        st.sampled_from([0, 2, INF]),
    )
    def test_rf_round_trip_property(self, exc, default):
        phi = RepetitionFunction(2, 2, default, exc)
        assert parse_one("rf", format_rf("phi", phi)) == phi


_values = st.sampled_from([0, 1, INF])


@st.composite
def clusters(draw):
    k = draw(st.integers(2, 3))
    m = draw(st.integers(1, 2))
    boxes = st.builds(
        lambda default, exceptions: RepetitionFunction(m, k, default, exceptions),
        _values,
        st.dictionaries(
            st.tuples(*[st.integers(0, k - 1)] * m), _values, max_size=4
        ),
    )
    generators = st.builds(BoxedGenerator, boxes, st.sampled_from([0, 1, 2, 3, INF]))
    return Cluster(m, k, frozenset(draw(st.lists(generators, max_size=3))))


@st.composite
def schemes(draw):
    target = draw(st.integers(1, 3))
    names = draw(st.sampled_from([(), ("u",), ("u", "v")]))
    entries = st.sampled_from(list(range(target)) + list(names))
    maps = draw(
        st.lists(st.lists(entries, min_size=1, max_size=3).map(tuple),
                 min_size=1, max_size=3)
    )
    return MinorScheme(target, names, tuple(maps))


@st.composite
def operations(draw, k=None, k_out=None):
    k = draw(st.integers(1, 3)) if k is None else k
    k_out = draw(st.integers(1, 3)) if k_out is None else k_out
    arity = draw(st.integers(1, 2))
    table = draw(st.lists(st.integers(0, k_out - 1), min_size=k ** arity,
                          max_size=k ** arity))
    return Operation(k, k_out, arity, tuple(table))


@st.composite
def classes(draw):
    k, k_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return OperationClass(k, k_out, draw(st.lists(operations(k, k_out), max_size=4)))


@st.composite
def multisets(draw):
    m = draw(st.integers(1, 3))
    counts = st.dictionaries(st.tuples(*[st.integers(0, 2)] * m), st.integers(0, 4),
                             max_size=4)
    return FiniteMultiset(m, draw(counts))


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 3))
    column = st.tuples(*[st.integers(0, 2)] * rows)
    return TupleMatrix(rows, tuple(draw(st.lists(column, max_size=4))))


@st.composite
def constraints(draw):
    k, k_out, m = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    phi = RepetitionFunction(m, k, draw(_values), draw(
        st.dictionaries(st.tuples(*[st.integers(0, k - 1)] * m), _values, max_size=4)))
    consequent = draw(st.sets(st.tuples(*[st.integers(0, k_out - 1)] * m), max_size=5))
    return GeneralizedConstraint(phi, consequent, k_out)


class TestRoundTripProperties:
    """parse_workspace gives back an equal value that formats to the same bytes."""

    @pytest.mark.parametrize("kind, fmt, values", [
        ("operation", format_operation, operations()),
        ("class", format_class, classes()),
        ("multiset", format_multiset, multisets()),
        ("matrix", format_matrix, matrices()),
        ("constraint", format_constraint, constraints()),
    ])
    @given(data=st.data())
    def test_round_trip(self, kind, fmt, values, data):
        value = data.draw(values)
        text = fmt("x", value)
        parsed = parse_one(kind, text)
        assert parsed == value
        assert fmt("x", parsed) == text

    @given(clusters())
    @example(empty_cluster(1, 2))
    def test_cluster_round_trip(self, cluster):
        text = format_cluster("c", cluster)
        parsed = parse_one("cluster", text)
        assert parsed == cluster
        assert format_cluster("c", parsed) == text

    @given(schemes())
    def test_scheme_round_trip(self, scheme):
        text = format_scheme("s", scheme)
        parsed = parse_one("scheme", text)
        assert parsed == scheme
        assert format_scheme("s", parsed) == text


class TestSerializationDeterminism:
    def test_identical_values_identical_bytes(self):
        a = order_cluster({(0, 0), (0, 1), (1, 1)}, 2)
        b = parse_one("cluster", format_cluster("c", a))
        assert format_cluster("c", a) == format_cluster("c", b)


class TestParsingErrors:
    def test_header_required(self):
        with pytest.raises(GaloisKitError, match="header"):
            parse_workspace("op f k=2 arity=1 : 0 1")

    def test_duplicate_names_rejected(self):
        text = "\n".join([
            HEADER,
            "op f k=2 arity=1 : 0 1",
            "op f k=2 arity=1 : 1 0",
        ])
        with pytest.raises(GaloisKitError, match="duplicate"):
            parse_workspace(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GaloisKitError, match="unknown entity"):
            parse_workspace(HEADER + "\nwidget w : 1 2 3")

    def test_bad_table_rejected(self):
        with pytest.raises(GaloisKitError):
            parse_workspace(HEADER + "\nop f k=2 arity=2 : 0 1")

    def test_unterminated_class_rejected(self):
        with pytest.raises(GaloisKitError, match="unterminated"):
            parse_workspace(HEADER + "\nclass c {\n  op f k=2 arity=1 : 0 1")

    def test_class_alphabet_comes_from_members_or_header(self):
        with pytest.raises(GaloisKitError, match="line 3: an empty class block needs k="):
            parse_workspace(HEADER + "\nclass c {\n}")
        with pytest.raises(GaloisKitError, match="line 4: operation domain/codomain"):
            parse_workspace(HEADER + "\nclass c k=3,3 {\n  op f k=2 arity=1 : 0 1\n}")
        assert parse_one("class", "class c k=3,2 {\n}") == OperationClass(3, 2)

    def test_map_line_outside_scheme_rejected(self):
        with pytest.raises(GaloisKitError, match="outside"):
            parse_workspace(HEADER + "\nmap j=0 arity=1 : 0")

    def test_missing_reference_rejected(self):
        with pytest.raises(GaloisKitError, match="no rf"):
            parse_workspace(
                HEADER + "\nconstraint c : rf=@nope consequent={ (0) }"
            )

    def test_comments_and_blank_lines_ignored(self):
        text = "\n".join([
            "# leading comment",
            HEADER,
            "",
            "# another",
            "op f k=2 arity=1 : 0 1",
        ])
        ws = parse_workspace(text)
        assert ws.names("operation") == ["f"]
