import pytest
from hypothesis import example, given, settings, strategies as st
from itertools import permutations, product

from galois_kit import (
    GaloisKitError,
    Operation,
    OperationClass,
    TupleMatrix,
    all_operations,
    apply_op_rows,
    close_composition,
    close_perm_dummy,
    delta,
    linear_class_fixture,
    minor_by_injection,
    nabla,
    projection,
    star,
    tau,
    zeta,
)
from galois_kit.errors import Meter


def op(table, arity, k=2):
    return Operation(k, k, arity, tuple(table))


AND = op((0, 0, 0, 1), 2)
OR = op((0, 1, 1, 1), 2)
XOR = op((0, 1, 1, 0), 2)
NOT = op((1, 0), 1)


def random_ops(k, arity):
    return st.tuples(
        *[st.integers(0, k - 1) for _ in range(k ** arity)]
    ).map(lambda t: Operation(k, k, arity, t))


class TestOperation:
    def test_rank_is_lexicographic_leftmost_significant(self):
        f = Operation(2, 8, 3, tuple(range(8)))
        # table index of (x1, x2, x3) is x1*4 + x2*2 + x3
        assert f(1, 0, 1) == 5
        assert f(0, 1, 1) == 3

    def test_call_matches_table_everywhere(self):
        f = op((2, 0, 1, 1, 2, 0, 0, 1, 2), 2, 3)
        for i, xs in enumerate(product(range(3), repeat=2)):
            assert f(*xs) == f.table[i]

    def test_from_callable_round_trip(self):
        f = Operation.from_callable(2, 2, 2, lambda x, y: x & y)
        assert f == AND

    def test_nullary_rejected(self):
        with pytest.raises(GaloisKitError):
            Operation(2, 2, 0, ())

    def test_bad_table_length_rejected(self):
        with pytest.raises(GaloisKitError):
            Operation(2, 2, 2, (0, 1))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(GaloisKitError):
            Operation(2, 2, 1, (0, 2))


class TestVariableManipulations:
    def test_projection_values(self):
        p = projection(3, 2, 2)
        assert all(p(x, y, z) == y for x, y, z in product(range(2), repeat=3))

    def test_projection_index_validated(self):
        with pytest.raises(GaloisKitError):
            projection(2, 3, 2)

    def test_zeta_shifts_cyclically(self):
        f = Operation.from_callable(2, 2, 3, lambda x, y, z: (x + 2 * y) % 2)
        g = zeta(f)
        assert all(
            g(x, y, z) == f(y, z, x) for x, y, z in product(range(2), repeat=3)
        )

    def test_tau_swaps_first_two(self):
        g = tau(AND)
        assert g == AND  # AND is symmetric
        h = tau(projection(2, 1, 2))
        assert h == projection(2, 2, 2)

    def test_delta_identifies_first_two(self):
        f = Operation.from_callable(2, 2, 3, lambda x, y, z: x ^ y ^ z)
        g = delta(f)
        assert g.arity == 2
        assert all(g(x, y) == f(x, x, y) for x, y in product(range(2), repeat=2))

    def test_nabla_adds_dummy_first(self):
        g = nabla(NOT)
        assert g.arity == 2
        assert all(g(x, y) == NOT(y) for x, y in product(range(2), repeat=2))

    def test_star_substitutes_into_first_argument(self):
        # (AND * OR)(x1, x2, x3) = AND(OR(x1, x2), x3)
        g = star(AND, OR)
        assert g.arity == 3
        assert g.table == (0, 0, 0, 1, 0, 1, 0, 1)

    @given(random_ops(2, 2))
    def test_zeta_tau_agree_on_binary(self, f):
        assert zeta(f) == tau(f)

    @given(random_ops(2, 3))
    def test_zeta_order_three(self, f):
        assert zeta(zeta(zeta(f))) == f

    @given(random_ops(2, 3))
    def test_tau_involution(self, f):
        assert tau(tau(f)) == f

    @given(random_ops(2, 2))
    def test_delta_nabla_identity(self, f):
        assert delta(nabla(f)) == f

    def test_unary_manipulations_fix(self):
        assert zeta(NOT) == tau(NOT) == delta(NOT) == NOT

    def test_minor_by_injection(self):
        # place AND's arguments at positions 3 and 1 of a ternary function
        g = minor_by_injection(AND, (3, 1), 3)
        assert all(
            g(x, y, z) == AND(z, x) for x, y, z in product(range(2), repeat=3)
        )

    def test_minor_by_injection_requires_injective(self):
        with pytest.raises(GaloisKitError):
            minor_by_injection(AND, (1, 1), 2)


class TestOperationClass:
    def test_iteration_is_deterministic(self):
        cls_ = OperationClass(2, members=[XOR, AND, NOT])
        assert list(cls_) == sorted([XOR, AND, NOT], key=lambda f: f.sort_key())

    def test_membership_and_equality(self):
        a = OperationClass(2, members=[AND, NOT])
        b = OperationClass(2, members=[NOT, AND])
        assert a == b and AND in a and OR not in a

    def test_all_operations_counts(self):
        assert len(list(all_operations(2, 1))) == 4
        assert len(list(all_operations(2, 2))) == 16
        assert len(list(all_operations(3, 1))) == 27

    def test_close_perm_dummy_is_closed(self):
        cls_ = close_perm_dummy(OperationClass(2, members=[AND]), 3)
        for f in cls_:
            for g in (zeta(f), tau(f)):
                assert g in cls_
            if f.arity < 3:
                assert nabla(f) in cls_

    def test_close_composition_contains_projections_and_is_closed(self):
        cls_ = close_composition(OperationClass(2, members=[NOT]), 2)
        for n in (1, 2):
            for i in range(1, n + 1):
                assert projection(n, i, 2) in cls_
        for f in cls_:
            assert zeta(f) in cls_ and tau(f) in cls_
            if f.arity < 2:
                assert nabla(f) in cls_
            for g in cls_:
                if f.arity + g.arity - 1 <= 2:
                    assert star(f, g) in cls_


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 2), (1, 3), (2, 3)]),
       st.lists(st.one_of(random_ops(2, 1), random_ops(2, 2)), max_size=2))
@example((2, 3), [NOT, AND])  # AND(NOT x, y) is a star at the cap
def test_close_composition_is_exact_below_its_cap(caps, generators):
    """No rewrite lowers arity, so a larger cap adds no member of lower arity."""
    lower, cap = caps
    cls_ = OperationClass(2, members=[f for f in generators if f.arity <= lower])
    closed = close_composition(cls_, cap)
    below = OperationClass(2, members=[f for f in closed if f.arity <= lower])
    assert below == close_composition(cls_, lower)


def test_closures_charge_table_entries_and_member_pairs():
    with Meter() as meter:
        close_perm_dummy(OperationClass(2, members=[NOT]), 2)
    # NOT itself, then its two binary images of 4 entries each
    assert meter.done == {"closure": 2 + 2 * 4}
    with Meter() as meter:
        close_composition(OperationClass(2, members=[NOT]), 1)
    # the projection and NOT are pushed (2 entries each); popping either
    # pushes zeta, tau and four stars (2 entries each) and scans 2 pairs
    assert meter.done == {"closure": 2 + 2 + 2 * (6 * 2 + 2)}


class TestLinearClassFixture:
    def test_size_and_membership(self):
        lin = linear_class_fixture(3, 2, 2)
        # odd nonzero-coefficient count: 2 unary + 4 binary
        assert len(lin) == 6
        x_plus_zero = Operation.from_callable(3, 3, 2, lambda x, y: x % 3)
        assert x_plus_zero in lin
        x_plus_y = Operation.from_callable(3, 3, 2, lambda x, y: (x + y) % 3)
        assert x_plus_y not in lin

    def test_closed_under_composition_ops(self):
        lin = linear_class_fixture(3, 2, 2)
        for f in lin:
            assert zeta(f) in lin and tau(f) in lin
            if f.arity < 2:
                assert nabla(f) in lin
            for g in lin:
                if f.arity + g.arity - 1 <= 2:
                    assert star(f, g) in lin

    def test_not_closed_under_identification(self):
        cap3 = linear_class_fixture(3, 2, 3)
        xyz = Operation.from_callable(3, 3, 3, lambda x, y, z: (x + y + z) % 3)
        assert xyz in cap3
        assert delta(xyz) not in cap3

    def test_parameter_validation(self):
        with pytest.raises(GaloisKitError):
            linear_class_fixture(4, 2, 2)  # not prime
        with pytest.raises(GaloisKitError):
            linear_class_fixture(2, 2, 2)  # degenerate case rejected


# Reference rewrites: the pointwise definitions, evaluated through
# from_callable and Operation.__call__, as the oracle for the gathers.

def ref_zeta(op):
    if op.arity == 1:
        return op
    return Operation.from_callable(
        op.domain_size, op.codomain_size, op.arity,
        lambda *xs: op(*xs[1:], xs[0]),
    )


def ref_tau(op):
    if op.arity == 1:
        return op
    return Operation.from_callable(
        op.domain_size, op.codomain_size, op.arity,
        lambda *xs: op(xs[1], xs[0], *xs[2:]),
    )


def ref_delta(op):
    if op.arity == 1:
        return op
    return Operation.from_callable(
        op.domain_size, op.codomain_size, op.arity - 1,
        lambda *xs: op(xs[0], *xs),
    )


def ref_nabla(op):
    return Operation.from_callable(
        op.domain_size, op.codomain_size, op.arity + 1,
        lambda *xs: op(*xs[1:]),
    )


def ref_star(f, g):
    m = g.arity
    return Operation.from_callable(
        f.domain_size, f.codomain_size, m + f.arity - 1,
        lambda *xs: f(g(*xs[:m]), *xs[m:]),
    )


def ref_minor_by_injection(f, sigma, target_arity):
    return Operation.from_callable(
        f.domain_size, f.codomain_size, target_arity,
        lambda *xs: f(*(xs[s - 1] for s in sigma)),
    )


def ops_upto(k, max_arity, k_out=None):
    return [
        f for n in range(1, max_arity + 1) for f in all_operations(k, n, k_out)
    ]


class TestGathersMatchReference:
    @pytest.mark.parametrize("ops", [
        pytest.param(lambda: ops_upto(2, 3), id="k2-arity3"),
        pytest.param(lambda: ops_upto(3, 2), id="k3-arity2"),
        pytest.param(lambda: ops_upto(2, 2, 3), id="k2to3-arity2"),
    ])
    def test_unary_rewrites(self, ops):
        pairs = [(zeta, ref_zeta), (tau, ref_tau), (delta, ref_delta),
                 (nabla, ref_nabla)]
        for f in ops():
            for rewrite, reference in pairs:
                assert rewrite(f) == reference(f), (rewrite.__name__, f)

    def test_star_all_boolean_pairs(self):
        ops = ops_upto(2, 2)
        for f in ops:
            for g in ops:
                assert star(f, g) == ref_star(f, g), (f, g)

    def test_every_injection(self):
        for f in ops_upto(2, 3):
            for target in range(f.arity, 4):
                for sigma in permutations(range(1, target + 1), f.arity):
                    assert minor_by_injection(f, sigma, target) == (
                        ref_minor_by_injection(f, sigma, target)
                    ), (f, sigma, target)


class TestRowApplication:
    def test_matches_pointwise_calls(self):
        for f in ops_upto(3, 2):
            rows = list(product(range(3), repeat=f.arity))
            m = TupleMatrix.from_rows(rows)
            assert apply_op_rows(f, m) == tuple(f(*row) for row in rows)

    def test_out_of_range_entry_rejected_even_when_rank_fits(self):
        # rank of (0, 2) at k=2 is 2, a valid table index
        with pytest.raises(GaloisKitError):
            apply_op_rows(AND, TupleMatrix.from_rows([(0, 2)]))
