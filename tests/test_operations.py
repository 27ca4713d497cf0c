import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from itertools import permutations, product
from unittest.mock import patch

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


def random_ops(k, arity, k_out=None):
    k_out = k if k_out is None else k_out
    return st.tuples(
        *[st.integers(0, k_out - 1) for _ in range(k ** arity)]
    ).map(lambda t: Operation(k, k_out, arity, t))


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


def ref_close_perm_dummy(cls_, arity_cap):
    """The earlier closure: every injection image built through the
    validated public ``minor_by_injection`` and added to the class."""
    operations._check_arity_cap(arity_cap)
    if cls_.max_arity > arity_cap:
        raise GaloisKitError("arity cap below an existing member arity")
    out = OperationClass(cls_.domain_size, cls_.codomain_size)
    meter = _current_meter()
    for f in cls_:
        for target in range(f.arity, arity_cap + 1):
            for sigma in permutations(range(1, target + 1), f.arity):
                meter.charge("closure", cls_.domain_size ** target)
                out.add(minor_by_injection(f, sigma, target))
    return out


def _perm_dummy_outcome(cls_, cap, budget, close):
    """The class and its closure steps, or the refusal (its phase and
    steps, or its message), and how many images were gathered."""
    gathered = []
    gather = operations._gather

    def counted_gather(table, ranks):
        gathered.append(len(ranks))
        return gather(table, ranks)

    with patch.object(operations, "_gather", counted_gather), Meter(budget) as meter:
        try:
            outcome = close(cls_, cap), meter.done.get("closure", 0)
        except BudgetExceededError as e:
            outcome = BudgetExceededError, e.phase, e.done
        except GaloisKitError as e:
            outcome = GaloisKitError, str(e)
    return outcome, gathered


def perm_dummy_inputs():
    """(k, k_out, cap), 0 to 3 generators over k -> k_out, of arity <= 3
    (k = 2) or <= 2 (k = 3), and a budget: the closures' own, or one that
    may refuse.  A cap that is not an int, or one below a generator's
    arity, makes both closures refuse."""
    def generators(case):
        k, k_out, _ = case
        arities = (1, 2, 3) if k == 2 else (1, 2)
        ops = st.one_of(*(random_ops(k, n, k_out) for n in arities))
        budgets = st.one_of(st.just(CLOSURE_BUDGET), st.integers(0, 300))
        return st.tuples(st.just(case), st.lists(ops, max_size=3), budgets)

    cases = ([(2, k_out, cap) for k_out in (2, 3) for cap in (1, 2, 3, 4, 2.0, True)]
             + [(3, k_out, cap) for k_out in (3, 2) for cap in (1, 2, 3)])
    return st.sampled_from(cases).flatmap(generators)


@settings(max_examples=200, deadline=None)
@given(perm_dummy_inputs())
@example(((2, 2, 3), [NOT, AND], CLOSURE_BUDGET))
@example(((2, 3, 2), [Operation(2, 3, 2, (0, 1, 2, 2))], 10))
def test_close_perm_dummy_matches_reference(inputs):
    """The class and the closure steps of the closure through
    ``minor_by_injection``, or its refusal at the same step; each image
    is gathered after its charge, so none past a refusal."""
    (k, k_out, cap), generators, budget = inputs
    cls_ = OperationClass(k, k_out, generators)
    want, want_gathered = _perm_dummy_outcome(cls_, cap, budget, ref_close_perm_dummy)
    got, got_gathered = _perm_dummy_outcome(cls_, cap, budget, close_perm_dummy)
    assert got == want
    assert got_gathered == want_gathered


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


def kernel_inputs():
    """(k, k_out, cap), 0 to 3 generators over k -> k_out of arity <= cap
    (<= 2 at k = 3), and a budget: one that lets the closures answer or
    refuse late, or a small one.  k_out differs from k in half the
    cases; only the perm-dummy closure takes those."""
    def generators(case):
        k, k_out, cap = case
        arities = range(1, min(cap, 2 if k == 3 else 3) + 1)
        ops = st.one_of(*(random_ops(k, n, k_out) for n in arities))
        budgets = st.one_of(st.just(20_000), st.integers(0, 400))
        return st.tuples(st.just(case), st.lists(ops, max_size=3), budgets)

    cases = [(k, k_out, cap) for k in (1, 2, 3) for k_out in (k, k % 3 + 1)
             for cap in (1, 2, 3)]
    return st.sampled_from(cases).flatmap(generators)


def _metered(close, cls_, cap, budget):
    """What the closure returns, or its refusal's phase and steps, and
    the meter's steps."""
    with Meter(budget) as meter:
        try:
            return close(cls_, cap), meter.done
        except BudgetExceededError as e:
            return (e.phase, e.done), meter.done


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
@example(((1, 1, 3), [Operation(1, 1, 2, (0,))], 20_000))
@example(((2, 3, 3), [Operation(2, 3, 2, (0, 1, 2, 2))], 20_000))
def test_raw_table_kernels_match_their_public_closures(inputs):
    """Each closure's raw-table kernel gives, at each arity, the public
    closure's ``_tables``, in the same order, and holds exactly the
    arities that have members; it charges the same steps, and refuses
    in the same phase at the same count."""
    (k, k_out, cap), generators, budget = inputs
    cls_ = OperationClass(k, k_out, generators)
    kernels = [(operations._perm_dummy_tables, close_perm_dummy)]
    if k_out == k:
        kernels.append((operations._composition_tables, close_composition))
    for kernel, close in kernels:
        got, got_done = _metered(kernel, cls_, cap, budget)
        want, want_done = _metered(close, cls_, cap, budget)
        assert got_done == want_done
        if isinstance(want, OperationClass):
            assert list(got) == want.arities()
            assert all(got[n] == want._tables(n) for n in got)
        else:
            assert got == want


@pytest.mark.parametrize("close, refusals", [
    # the projections of arities 1 to 3 take 2 + 8 + 24 steps, charged
    # arity by arity; every later step is taken against the room
    (close_composition, {0: 2, 10: 18, 30: 34, 100: 106, 1000: 1003, 6244: 6245}),
    # each image of a member is k^target steps: 2, 4 or 8
    (close_perm_dummy, {0: 2, 10: 18, 30: 34, 60: 66, 89: 90}),
])
def test_closures_refuse_at_the_recorded_counts(close, refusals):
    """Each closure takes its steps against the meter's room and charges
    them once, and refuses, under each budget, at the count a charge per
    step gave (recorded from that version); at the budget past the last
    refusal it answers."""
    cls_ = OperationClass(2, members=[NOT, AND])
    for budget, done in refusals.items():
        with pytest.raises(BudgetExceededError) as info, Meter(budget):
            close(cls_, 3)
        assert (info.value.phase, info.value.done) == ("closure", done)
    with Meter(done) as meter:
        close(cls_, 3)
    assert meter.done == {"closure": done}


def test_a_huge_cap_refuses_before_its_arities_are_built():
    """The composition closure makes each arity's table dict as it
    charges that arity's projections, so under a budget of 100 a cap of
    a million refuses at arity 5 with only those five dicts built, not
    a million of them (about 100 MB)."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info, Meter(100):
            operations._composition_tables(OperationClass(2), 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2 + 8 + 24 + 64 steps for the projections of arities 1 to 4
    assert (info.value.phase, info.value.done) == ("closure", 98 + 32)
    assert peak < 100_000


@pytest.mark.parametrize("close", [close_perm_dummy, close_composition])
@pytest.mark.parametrize("cap", [1.5, "2", True])
def test_closures_refuse_an_arity_cap_that_is_not_an_int(close, cap):
    with Meter() as meter:
        with pytest.raises(GaloisKitError, match=f"arity cap must be an int, not {cap!r}"):
            close(OperationClass(2, members=[AND]), cap)
    assert meter.done == {}


class RefOperationClass:
    """The earlier ``OperationClass``: per-arity dicts from each table to
    its ``Operation``, built when it is added."""

    def __init__(self, domain_size, codomain_size=None, members=()):
        self.domain_size = domain_size
        self.codomain_size = codomain_size if codomain_size is not None else domain_size
        self._by_arity = {}
        for f in members:
            self.add(f)

    def add(self, f):
        if f.domain_size != self.domain_size or f.codomain_size != self.codomain_size:
            raise GaloisKitError("operation domain/codomain mismatch with class")
        self._by_arity.setdefault(f.arity, {})[f.table] = f

    def arity_part(self, n):
        return [self._by_arity[n][t] for t in sorted(self._by_arity.get(n, {}))]

    def arities(self):
        return sorted(self._by_arity)

    @property
    def max_arity(self):
        return max(self._by_arity) if self._by_arity else 0

    def __iter__(self):
        for n in sorted(self._by_arity):
            for t in sorted(self._by_arity[n]):
                yield self._by_arity[n][t]

    def __len__(self):
        return sum(len(d) for d in self._by_arity.values())

    def __contains__(self, f):
        return (
            f.domain_size == self.domain_size
            and f.codomain_size == self.codomain_size
            and f.table in self._by_arity.get(f.arity, {})
        )

    def __eq__(self, other):
        return (
            self.domain_size == other.domain_size
            and self.codomain_size == other.codomain_size
            and {n: set(d) for n, d in self._by_arity.items() if d}
            == {n: set(d) for n, d in other._by_arity.items() if d}
        )

    def __repr__(self):
        sizes = {n: len(d) for n, d in sorted(self._by_arity.items())}
        return f"OperationClass(k={self.domain_size}->{self.codomain_size}, {sizes})"


@st.composite
def class_steps(draw):
    """An alphabet k -> k_out and up to 30 steps, each on one of two
    classes: add an operation over k -> k_out (now and then over another
    codomain), test one, or read the class.  Over k = 1 every arity has
    the same one-entry tables."""
    k, k_out = draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 2)]))
    arities = (1, 2, 3, 4) if k == 1 else (1, 2, 3) if k == 2 else (1, 2)
    ops = st.one_of(*(random_ops(k, n, k_out) for n in arities))
    strangers = st.one_of(*(random_ops(k, n, k_out + 1) for n in arities[:2]))
    step = st.one_of(
        st.tuples(st.just("add"), st.integers(0, 1), ops),
        st.tuples(st.just("add"), st.integers(0, 1), strangers),
        st.tuples(st.just("in"), st.integers(0, 1), st.one_of(ops, strangers)),
        st.tuples(st.just("arity_part"), st.integers(0, 1), st.integers(0, 5)),
        st.tuples(st.sampled_from(["iter", "==", "len", "arities", "max_arity", "repr"]),
                  st.integers(0, 1), st.none()),
    )
    return k, k_out, draw(st.lists(step, max_size=30))


def _class_read(cls_, other, step, arg):
    """What one step returns: a value, or the refusal's message."""
    try:
        if step == "add":
            return cls_.add(arg)
        if step == "in":
            return arg in cls_
        if step == "arity_part":
            return cls_.arity_part(arg)
        if step == "iter":
            return list(cls_)
        if step == "==":
            return cls_ == other
        if step == "max_arity":
            return cls_.max_arity
        return {"len": len, "arities": type(cls_).arities, "repr": repr}[step](cls_)
    except GaloisKitError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(class_steps())
@example((1, 1, [("add", 0, Operation(1, 1, 1, (0,))), ("add", 0, Operation(1, 1, 3, (0,))),
                 ("add", 1, Operation(1, 1, 3, (0,))), ("==", 0, None), ("iter", 0, None),
                 ("repr", 0, None), ("arity_part", 0, 3), ("len", 0, None)]))
def test_operation_class_reads_like_the_reference(case):
    """Every read of the class returns what the per-arity class returns:
    equal operations, in the canonical order."""
    k, k_out, steps = case
    got = [OperationClass(k, k_out), OperationClass(k, k_out)]
    want = [RefOperationClass(k, k_out), RefOperationClass(k, k_out)]
    for step, i, arg in steps:
        result = _class_read(got[i], got[1 - i], step, arg)
        assert result == _class_read(want[i], want[1 - i], step, arg), step
        if step in ("iter", "arity_part"):
            assert all(type(f) is Operation for f in result)
    for cls_, ref in zip(got, want):
        assert list(cls_) == list(ref)
