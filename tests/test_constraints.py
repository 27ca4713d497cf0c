import pytest
from hypothesis import given, settings, strategies as st
from itertools import product

from galois_kit import (
    BudgetExceededError,
    GaloisKitError,
    GeneralizedConstraint,
    INF,
    Meter,
    Operation,
    RepetitionFunction,
    TupleMatrix,
    empty_constraint,
    equality_constraint,
    extend_consequent,
    finite_restriction,
    intersect_consequents,
    precedes,
    restrict_antecedent,
    rf_leq,
    satisfies_constraint,
    trivial_constraint,
    all_operations,
)


def naive_satisfies(f, c):
    """Independent oracle: filter the full matrix space, no incremental
    enumeration, no witness logic."""
    phi = c.antecedent
    tuples = list(product(range(phi.domain_size), repeat=phi.arity))
    for cols in product(tuples, repeat=f.arity):
        counts = {}
        for col in cols:
            counts[col] = counts.get(col, 0) + 1
        if any(v > phi.value(t) for t, v in counts.items()):
            continue
        image = tuple(
            f(*[cols[j][i] for j in range(f.arity)])
            for i in range(phi.arity)
        )
        if image not in c.consequent:
            return False
    return True


small_rfs = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from([0, 1, 2, INF]),
    max_size=3,
).map(lambda d: RepetitionFunction(2, 2, 0, d))

binary_ops = st.tuples(*[st.integers(0, 1)] * 4).map(
    lambda t: Operation(2, 2, 2, t)
)

consequents = st.frozensets(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=4
)


class TestRepetitionFunctionCanonical:
    def test_default_entries_dropped(self):
        phi = RepetitionFunction(1, 2, 3, {(0,): 3, (1,): 1})
        assert phi.exceptions == {(1,): 1}

    def test_covering_exceptions_rederive_default(self):
        a = RepetitionFunction(1, 2, 0, {(0,): INF, (1,): INF})
        b = RepetitionFunction.constant(1, 2, INF)
        assert a == b and a.default == INF and not a.exceptions

    def test_pointwise_equality_is_structural(self):
        a = RepetitionFunction(1, 2, 1, {(0,): 2})
        b = RepetitionFunction(1, 2, 2, {(1,): 1})
        assert a == b

    def test_total_closed_form(self):
        phi = RepetitionFunction(2, 2, 1, {(0, 0): 5, (1, 1): 0})
        assert phi.total() == 5 + 0 + 1 + 1
        assert RepetitionFunction(1, 2, INF).total() == INF

    def test_total_up_to_a_limit(self):
        phi = RepetitionFunction(2, 2, 1, {(0, 0): 5, (1, 1): 0})
        assert [phi.total(limit) for limit in (0, 6, 7, 8, INF)] == [0, 6, 7, 7, 7]
        assert RepetitionFunction(1, 2, INF).total(3) == 3

    def test_huge_tuple_space_is_not_built(self):
        # 3^(10^8) tuples: the default and a capped total never need them all
        phi = RepetitionFunction(10**8, 3, 1)
        assert phi.default == 1 and not phi.exceptions
        assert phi.total(10) == 10
        assert RepetitionFunction(10**8, 3, INF).total(10) == 10
        assert RepetitionFunction(10**8, 3, 0).total() == 0


def old_key(phi):
    """The key a repetition function was once stored with, and hashed and
    compared by."""
    return phi.arity, phi.domain_size, phi.default, frozenset(phi.exceptions.items())


@st.composite
def few_tuple_rfs(draw):
    """Repetition functions over tuple spaces of at most 4 tuples, so that
    two draws are often equal, sometimes through different arguments."""
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    values = st.sampled_from([0, 1, INF])
    keys = st.tuples(*[st.integers(0, k - 1)] * m)
    return RepetitionFunction(m, k, draw(values), draw(st.dictionaries(keys, values)))


@settings(max_examples=300, deadline=None)
@given(a=few_tuple_rfs(), b=few_tuple_rfs())
def test_equality_and_hash_match_the_old_key(a, b):
    assert (a == b) == (old_key(a) == old_key(b))
    assert (a != b) == (old_key(a) != old_key(b))
    assert hash(a) == hash(old_key(a))
    assert a != old_key(a) and a != 5


tuples_k3 = st.tuples(st.integers(0, 2), st.integers(0, 2))

rfs_with_inf = st.builds(
    lambda default, exc: RepetitionFunction(2, 3, default, exc),
    st.sampled_from([0, 1, 2, INF]),
    st.dictionaries(tuples_k3, st.sampled_from([0, 1, 2, 3, INF]), max_size=5),
)


class TestTotal:
    @settings(max_examples=200, deadline=None)
    @given(rfs_with_inf, st.sampled_from([0, 1, 5, 9, 12, 30, INF]))
    def test_limit_caps_the_exact_total(self, phi, limit):
        total = phi.total()
        assert phi.total(limit) == (total if total <= limit else limit)


class TestBounds:
    @settings(max_examples=200, deadline=None)
    @given(rfs_with_inf, st.dictionaries(tuples_k3, st.integers(0, 4), max_size=5))
    def test_bounds_is_the_per_tuple_comparison(self, phi, counts):
        expected = all(c <= phi.value(t) for t, c in counts.items())
        assert phi.bounds(counts) == expected


class TestPrecedes:
    def test_counts_bounded_by_values(self):
        phi = RepetitionFunction(2, 2, 0, {(0, 1): 2})
        m = TupleMatrix(2, ((0, 1), (0, 1)))
        assert precedes(m, phi)
        m3 = TupleMatrix(2, ((0, 1), (0, 1), (0, 1)))
        assert not precedes(m3, phi)

    def test_row_count_validated(self):
        phi = RepetitionFunction(2, 2, 1)
        with pytest.raises(GaloisKitError):
            precedes(TupleMatrix(3, ((0, 0, 0),)), phi)


class TestSatisfiesConstraint:
    @settings(max_examples=60, deadline=None)
    @given(small_rfs, consequents, binary_ops)
    def test_agrees_with_naive_oracle(self, phi, s, f):
        c = GeneralizedConstraint(phi, s, 2)
        assert bool(satisfies_constraint(f, c)) == naive_satisfies(f, c)

    def test_witness_is_a_real_violation(self):
        lnot = Operation(2, 2, 1, (1, 0))
        assert satisfies_constraint(lnot, equality_constraint(2, 2))
        bad = GeneralizedConstraint(
            RepetitionFunction(1, 2, 1), frozenset({(0,)}), 2
        )
        ident = Operation(2, 2, 1, (0, 1))
        verdict = satisfies_constraint(ident, bad)
        assert not verdict
        m = verdict.witness
        assert precedes(m, bad.antecedent)
        image = tuple(ident(*m.row(i)) for i in range(m.row_count))
        assert image not in bad.consequent

    def test_every_op_satisfies_equality_and_trivial(self):
        for n in (1, 2):
            for f in all_operations(2, n):
                assert satisfies_constraint(f, equality_constraint(3, 2))
                assert satisfies_constraint(f, trivial_constraint(2, 2))

    def test_empty_constraint_vacuously_satisfied(self):
        # the antecedent admits no matrix at all
        for f in all_operations(2, 1):
            assert satisfies_constraint(f, empty_constraint(2, 2))

    def test_budget_refusal(self):
        c = trivial_constraint(2, 2)
        f = Operation(2, 2, 2, (0, 0, 0, 1))
        with pytest.raises(BudgetExceededError), Meter(3):
            satisfies_constraint(f, c)

    @pytest.mark.parametrize("tuple_, message", [
        ((2,), "consequent tuple (2,): entry 2 out of range for codomain size 2"),
        ((0, -1), "consequent tuple (0, -1) invalid for arity 1"),
        ((-1,), "consequent tuple (-1,): entry -1 out of range for codomain size 2"),
    ])
    def test_bad_consequent_tuple_names_what_is_wrong(self, tuple_, message):
        with pytest.raises(GaloisKitError) as e:
            GeneralizedConstraint(RepetitionFunction(1, 2), [tuple_], 2)
        assert str(e.value) == message

    def test_alphabet_mismatch_rejected(self):
        c = equality_constraint(2, 3)
        with pytest.raises(GaloisKitError):
            satisfies_constraint(Operation(2, 2, 1, (0, 1)), c)


class TestRelaxations:
    @settings(max_examples=40, deadline=None)
    @given(small_rfs, consequents, binary_ops)
    def test_relaxation_preserves_satisfaction(self, phi, s, f):
        c = GeneralizedConstraint(phi, s, 2)
        if not satisfies_constraint(f, c):
            return
        smaller = RepetitionFunction(
            2, 2, 0, {t: v for t, v in phi.exceptions.items() if v != INF}
        )
        if rf_leq(smaller, phi):
            assert satisfies_constraint(f, restrict_antecedent(c, smaller))
        bigger = extend_consequent(c, set(s) | {(0, 0)})
        assert satisfies_constraint(f, bigger)

    def test_restrict_antecedent_validated(self):
        c = equality_constraint(2, 2)
        with pytest.raises(GaloisKitError):
            restrict_antecedent(c, RepetitionFunction.constant(2, 2, INF))

    def test_extend_consequent_validated(self):
        c = equality_constraint(2, 2)
        with pytest.raises(GaloisKitError):
            extend_consequent(c, {(0, 0)})

    def test_intersect_consequents(self):
        phi = RepetitionFunction.constant(2, 2, 1)
        a = GeneralizedConstraint(phi, {(0, 0), (0, 1)}, 2)
        b = GeneralizedConstraint(phi, {(0, 1), (1, 1)}, 2)
        assert intersect_consequents([a, b]).consequent == frozenset({(0, 1)})

    def test_intersect_requires_shared_antecedent(self):
        a = equality_constraint(2, 2)
        b = trivial_constraint(2, 2)
        with pytest.raises(GaloisKitError):
            intersect_consequents([a, b])

    def test_finite_restriction_zeroes_outside(self):
        c = trivial_constraint(2, 2)
        r = finite_restriction(c, {(0, 1)})
        assert r.antecedent.value((0, 1)) == INF
        assert r.antecedent.value((1, 1)) == 0

