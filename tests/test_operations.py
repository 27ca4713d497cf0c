import pytest
from hypothesis import example, given, settings, strategies as st
from itertools import permutations, product

from galois_kit import (
    DEFAULT_BUDGET,
    BudgetExceededError,
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
from galois_kit import operations
from galois_kit.errors import Meter, _current_meter
from galois_kit.verify import _monotone_ops


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
        assert list(cls_) == sorted([XOR, AND, NOT], key=lambda f: (f.arity, f.table))

    def test_membership_and_equality(self):
        a = OperationClass(2, members=[AND, NOT])
        b = OperationClass(2, members=[NOT, AND])
        assert a == b and AND in a and OR not in a
        assert Operation(2, 3, 2, AND.table) not in a  # another codomain

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
    # Every term below is independent of the pop order: each member is
    # rewritten once, and each pair within the cap is composed once, when
    # the later of the two is popped.
    with Meter() as meter:
        close_composition(OperationClass(2, members=[NOT]), 1)
    # members x, NOT.  The projection and NOT: 2 + 2 entries.  zeta and
    # tau are the identity on unary members, so no rewrite.  Pairs
    # {NOT, NOT}, {x, NOT}, {x, x}: 3 steps; their stars NOT*NOT, x*NOT,
    # NOT*x, x*x: 4 tables of 2 entries.  15 in all.
    assert meter.done == {"closure": 2 + 2 + 3 + 4 * 2}
    with Meter() as meter:
        close_composition(OperationClass(2, members=[NOT]), 2)
    # members x, NOT and the binary p1, p2, NOT x1, NOT x2.  Projections
    # x, p1, p2: 2 + 2 * 4 entries; NOT: 2.  One swap (zeta = tau) of each
    # of the 4 binary members: 4 tables of 4 entries.  No nabla: NOT x2
    # is NOT * p2, a star below.  Pairs: 3 unary-unary and 2 * 4
    # unary-binary; a binary member is never paired with a binary one,
    # since the star would be ternary.  Stars: the 4 unary ones above (2
    # entries) and both orders of each unary-binary pair, 16 tables of 4
    # entries.  111 in all.
    assert meter.done == {
        "closure": (2 + 2 * 4) + 2 + 4 * 4 + (3 + 2 * 4) + (4 * 2 + 16 * 4)
    }


def test_close_composition_frontier():
    """The monotone Boolean class (arity <= 2) closed at caps 5 and 6: the
    work, not the time, is pinned."""
    mono = _monotone_ops()
    with Meter(10 ** 8) as meter:
        closed = close_composition(mono, 6)
    assert {n: len(closed.arity_part(n)) for n in closed.arities()} == {
        1: 3, 2: 6, 3: 19, 4: 102, 5: 839, 6: 9314,
    }
    # nabla is no rewrite of its own, which saves one table of 2^(n+1)
    # entries per n-ary member below the cap: 3*4 + 6*8 + 19*16 + 102*32
    # + 839*64 = 57,324 of the 6,041,833 steps it took with nabla
    assert meter.done == {"closure": 5_984_509}
    with pytest.raises(BudgetExceededError) as refusal:
        close_composition(mono, 6)
    assert refusal.value.phase == "closure"
    assert refusal.value.budget == DEFAULT_BUDGET
    assert len(close_composition(mono, 5)) == 969


def test_close_composition_charges_every_projection_before_any_map(monkeypatch):
    built = []

    def recording(k, arity, positions):
        built.append(arity)
        return source_ranks(k, arity, positions)

    source_ranks = operations._source_ranks
    monkeypatch.setattr(operations, "_source_ranks", recording)
    with pytest.raises(BudgetExceededError) as refusal:
        close_composition(OperationClass(3000), 2)
    assert refusal.value.done == 3000 + 3000 ** 2
    # only the unary projection: no arity-2 map of 9,000,000 entries
    assert built == [1]


def ref_close_composition(cls_, arity_cap):
    """The earlier worklist: each popped member is composed with every
    member found so far, through the validated public rewrites."""
    if cls_.domain_size != cls_.codomain_size:
        raise GaloisKitError("composition closure requires domain == codomain")
    if arity_cap < 1 or cls_.max_arity > arity_cap:
        raise GaloisKitError("invalid arity cap")
    k = cls_.domain_size
    out = OperationClass(k, k)
    worklist = []
    meter = _current_meter()

    def push(op):
        meter.charge("closure", len(op.table))
        if op not in out:
            out.add(op)
            worklist.append(op)

    for n in range(1, arity_cap + 1):
        for i in range(1, n + 1):
            meter.charge_power("closure", k, n)  # before its k^n entries are built
            worklist.append(projection(n, i, k))  # the projections are distinct
            out.add(worklist[-1])
    for op in cls_:
        push(op)

    while worklist:
        f = worklist.pop()
        push(zeta(f))
        push(tau(f))
        if f.arity + 1 <= arity_cap:
            push(nabla(f))
        meter.charge("closure", len(out))
        for g in list(out):
            if f.arity + g.arity - 1 <= arity_cap:
                push(star(f, g))
            if g.arity + f.arity - 1 <= arity_cap:
                push(star(g, f))
    return out


CLOSURE_BUDGET = 200_000


def _closure_outcome(close, cls_, cap):
    """The class and its closure steps, or the refusal's type (and its
    message, unless the budget refused)."""
    try:
        with Meter(CLOSURE_BUDGET) as meter:
            return close(cls_, cap), meter.done["closure"]
    except BudgetExceededError as e:
        return BudgetExceededError, e.phase
    except GaloisKitError as e:
        return GaloisKitError, str(e)


def closure_inputs():
    """(k, cap) and 0 to 3 generators over k, of arity <= 3 (k = 2) or
    <= 2 (k = 3); a generator over the cap makes both closures refuse."""
    def generators(case):
        arities = (1, 2, 3) if case[0] == 2 else (1, 2)
        ops = st.one_of(*(random_ops(case[0], n) for n in arities))
        return st.tuples(st.just(case), st.lists(ops, max_size=3))

    cases = [(2, cap) for cap in (1, 2, 3, 4)] + [(3, cap) for cap in (1, 2, 3)]
    return st.sampled_from(cases).flatmap(generators)


@settings(max_examples=200, deadline=None)
@given(closure_inputs())
@example(((2, 3), [NOT, AND]))
def test_close_composition_matches_reference(inputs):
    """The same class as the earlier worklist, in no more closure steps.
    Where the reference answers, so must the closure, as its steps are
    no more; where the budget refuses the reference, the closure may
    still answer."""
    (k, cap), generators = inputs
    cls_ = OperationClass(k, members=generators)
    want = _closure_outcome(ref_close_composition, cls_, cap)
    got = _closure_outcome(close_composition, cls_, cap)
    if isinstance(want[0], OperationClass):
        assert got[0] == want[0]
        assert got[1] <= want[1]
    elif want[0] is GaloisKitError:
        assert got == want
    else:
        assert got == want or isinstance(got[0], OperationClass)


@pytest.mark.parametrize("cls_, cap", [
    pytest.param(OperationClass(2, 3, [Operation(2, 3, 1, (2, 0))]), 2, id="k2to3"),
    pytest.param(OperationClass(2, 3), 1, id="k2to3-empty"),
    pytest.param(OperationClass(2, members=[AND]), 1, id="cap-below-arity"),
    pytest.param(OperationClass(2, members=[NOT]), 0, id="cap-zero"),
])
def test_close_composition_refuses_like_reference(cls_, cap):
    with pytest.raises(GaloisKitError) as want:
        ref_close_composition(cls_, cap)
    with pytest.raises(GaloisKitError) as got:
        close_composition(cls_, cap)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


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
