"""The compiled ``f_pol`` and ``c_pol`` sweeps against the sweeps they
replaced.

The oracles are the earlier bodies: a sweep over every table, keeping
the operations for which ``satisfies_constraint`` (``satisfies_cluster``)
holds on every constraint (cluster) in turn.  The compiled sweeps must
return the same class, or refuse with the same error, on randomized
families.
"""

import random
from itertools import product

import pytest

from galois_kit import (
    BoxedGenerator,
    BudgetExceededError,
    Cluster,
    GaloisConfig,
    GaloisKitError,
    GeneralizedConstraint,
    Meter,
    OperationClass,
    RepetitionFunction,
    all_operations,
    c_pol,
    cl_inv,
    empty_cluster,
    enumerate_matrices_leq,
    f_pol,
    gc_inv,
    order_cluster,
    satisfies_cluster,
    satisfies_constraint,
    trivial_constraint,
)
from galois_kit import galois
from galois_kit.errors import DEFAULT_BUDGET
from galois_kit.extnat import INF
from galois_kit.verify import _monotone_ops


def ref_f_pol(constraints, cfg):
    constraints = list(constraints)
    out = OperationClass(cfg.domain_size, cfg.codomain_size)
    for n in range(1, cfg.n_max + 1):
        for op in all_operations(cfg.domain_size, n, cfg.codomain_size):
            if all(satisfies_constraint(op, c) for c in constraints):
                out.add(op)
    return out


def ref_c_pol(clusters, cfg, reached=None):
    """The earlier ``c_pol``; adds to ``reached`` the position of every
    cluster some table is checked against."""
    clusters = list(clusters)
    if cfg.breadth < cfg.n_max:
        raise GaloisKitError("breadth cap must be at least n_max")
    k = cfg.domain_size
    out = OperationClass(k, k)
    with Meter() as meter:
        galois._charge_tables(meter, cfg, k)
        for n in range(1, cfg.n_max + 1):
            for op in all_operations(k, n):
                for j, phi in enumerate(clusters):
                    if reached is not None:
                        reached.add(j)
                    if not satisfies_cluster(op, phi, cfg.breadth):
                        break
                else:
                    out.add(op)
    return out


def _outcome(fn, *args):
    with Meter(INF):
        try:
            return fn(*args)
        except GaloisKitError as e:
            return (type(e).__name__, str(e))


def _random_constraint(rng, m, k, k_out, phi=None):
    if phi is None:
        exc = {}
        for _ in range(rng.randint(0, 4)):
            exc[tuple(rng.randrange(k) for _ in range(m))] = rng.choice([0, 1, 2, 3, INF])
        phi = RepetitionFunction(m, k, rng.choice([0, 0, 0, 1, INF]), exc)
    space = list(product(range(k_out), repeat=m))
    consequent = rng.sample(space, rng.randint(0, len(space)))
    return GeneralizedConstraint(phi, consequent, k_out)


def _random_case(rng):
    k = rng.choice([2, 3])
    k_out = rng.choice([k, k, 2, 3])
    # at most 4,096 tables of the top arity, so the oracle stays quick
    n_max = rng.randint(1, max(n for n in (1, 2, 3) if k_out ** (k ** n) <= 4096))
    family = []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, 3 if k == 2 else 2)
        if family and rng.random() < 0.3:
            # a second consequent on an earlier antecedent: shared rank vectors
            m = family[-1].arity
            family.append(_random_constraint(rng, m, k, k_out, family[-1].antecedent))
        else:
            family.append(_random_constraint(rng, m, k, k_out))
    if rng.random() < 0.15:
        # one constraint over another alphabet
        k2, k2_out = (k, 5 - k_out) if rng.random() < 0.5 else (5 - k, k_out)
        family.insert(rng.randrange(len(family) + 1),
                      _random_constraint(rng, rng.randint(1, 2), k2, k2_out))
    return family, GaloisConfig(k, n_max=n_max, m_max=3, breadth=n_max, codomain_size=k_out)


def test_compiled_sweep_matches_reference_sweep():
    rng = random.Random(9001)
    seen = {"error": 0, "empty": 0, "members": 0}
    for _ in range(300):
        family, cfg = _random_case(rng)
        want = _outcome(ref_f_pol, family, cfg)
        assert _outcome(f_pol, family, cfg) == want
        if isinstance(want, tuple):
            seen["error"] += 1
        else:
            seen["members" if len(want) else "empty"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("first", ["mismatched", "rejects all"])
def test_mismatched_constraint_is_reached_only_past_the_ones_before(first):
    # the reference checks a constraint's alphabet only on a table that
    # satisfies every constraint before it
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    rejects_all = GeneralizedConstraint(trivial_constraint(1, 2).antecedent, (), 2)
    mismatched = trivial_constraint(1, 3)
    family = [mismatched, rejects_all] if first == "mismatched" else [rejects_all, mismatched]
    want = _outcome(ref_f_pol, family, cfg)
    assert _outcome(f_pol, family, cfg) == want
    if first == "mismatched":
        assert want == ("GaloisKitError",
                        "operation domain does not match the antecedent domain")
    else:
        assert want == OperationClass(2)


def test_tables_are_charged_before_the_alphabets_are_checked():
    cfg = GaloisConfig(2, n_max=3, m_max=1, breadth=3)
    with pytest.raises(BudgetExceededError) as info, Meter(100):
        f_pol([trivial_constraint(1, 3)], cfg)
    assert info.value.phase == "operation tables"


def test_each_constraint_is_compiled_once_per_arity():
    rng = random.Random(17)
    family = [_random_constraint(rng, 2, 2, 2) for _ in range(4)]
    cfg = GaloisConfig(2, n_max=3, m_max=2, breadth=3)
    with Meter() as meter:
        f_pol(family, cfg)
    assert meter.done.get("constraint matrices", 0) == sum(
        len(list(enumerate_matrices_leq(c.antecedent, n)))
        for c in family for n in range(1, 4))


def test_sweep_refuses_in_its_own_phase():
    cfg = GaloisConfig(2, n_max=2, m_max=2, breadth=2)
    family = gc_inv(OperationClass(2, members=_monotone_ops(2)), cfg)
    with Meter() as meter:
        f_pol(family, cfg)
    tests = meter.done.pop("sweep tests")
    budget = tests - 1
    assert max(meter.done.values()) <= budget  # every other phase fits
    with pytest.raises(BudgetExceededError) as info, Meter(budget):
        f_pol(family, cfg)
    assert info.value.phase == "sweep tests"
    assert budget < info.value.done <= tests


def test_monotone_frontier_answers_at_the_default_budget():
    # f_pol(gc_inv(mono)) at n_max=4, m_max=3: 805 constraints, 65,536 4-ary tables
    mono = OperationClass(2, members=_monotone_ops(2))
    cfg = GaloisConfig(2, n_max=4, m_max=3, breadth=4)
    with Meter(DEFAULT_BUDGET) as meter:
        got = f_pol(gc_inv(mono, cfg), cfg)
    assert {n: len(got.arity_part(n)) for n in got.arities()} == {1: 3, 2: 6, 3: 20, 4: 168}
    assert meter.done["sweep tests"] <= DEFAULT_BUDGET


def _random_box(rng, m, k):
    exc = {}
    for _ in range(rng.randint(0, 4)):
        exc[tuple(rng.randrange(k) for _ in range(m))] = rng.choice([0, 1, 2, INF])
    return RepetitionFunction(m, k, rng.choice([0, 0, 1, 2, INF]), exc)


def _random_cluster(rng, k, n_max):
    kind = rng.choice(["boxed", "boxed", "boxed", "order", "empty", "cl_inv"])
    if kind == "order":
        leq = {(a, b) for a in range(k) for b in range(k) if a <= b}
        return order_cluster(leq if rng.random() < 0.7 else {(a, a) for a in range(k)}, k)
    if kind == "empty":
        return empty_cluster(rng.randint(1, 2), k)
    if kind == "cl_inv":
        members = rng.sample(list(all_operations(k, 1)), rng.randint(1, 3))
        cfg = GaloisConfig(k, n_max=min(n_max, 2 if k == 2 else 1), m_max=1, breadth=2)
        return rng.choice(cl_inv(OperationClass(k, members=members), cfg))
    m = rng.randint(1, 2)
    gens = [BoxedGenerator(_random_box(rng, m, k), rng.choice([0, 1, 2, 3, INF]))
            for _ in range(rng.randint(0, 3))]
    return Cluster(m, k, frozenset(gens))


def _random_cluster_case(rng):
    k = rng.choice([2, 2, 3])
    n_max = rng.randint(1, 2) if k == 2 else 1
    family = [_random_cluster(rng, k, n_max) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.15:
        # one cluster over another alphabet
        family.insert(rng.randrange(len(family) + 1), _random_cluster(rng, 5 - k, 1))
    breadth = rng.choice([n_max, n_max, n_max + 1, n_max - 1 or 1])
    return family, GaloisConfig(k, n_max=n_max, m_max=1, breadth=breadth)


def _metered_outcome(fn, *args):
    with Meter(INF) as meter:
        try:
            got = fn(*args)
        except GaloisKitError as e:
            got = (type(e).__name__, str(e))
    return got, meter.done


def _support_tuples(cluster):
    """The steps of listing each positive-default box's k^m tuples of m
    entries, once per generator."""
    k, m = cluster.domain_size, cluster.arity
    return sum(k ** m * m for g in cluster.generators if g.box.default)


def test_compiled_c_pol_matches_reference_sweep():
    rng = random.Random(1717)
    seen = {"breadth": 0, "alphabet": 0, "every table": 0, "proper": 0}
    for _ in range(200):
        family, cfg = _random_cluster_case(rng)
        reached = set()
        want, want_done = _metered_outcome(ref_c_pol, family, cfg, reached)
        got, got_done = _metered_outcome(c_pol, family, cfg)
        assert got == want
        for phase in ("operation tables", "cluster members", "cluster splits"):
            assert got_done.get(phase, 0) == want_done.get(phase, 0), phase
        # one compile per reached cluster; one over another alphabet
        # raises first
        assert got_done.get("support tuples", 0) == sum(
            _support_tuples(family[j]) for j in reached
            if family[j].domain_size == cfg.domain_size)
        if isinstance(want, tuple):
            seen["breadth" if "breadth" in want[1] else "alphabet"] += 1
        else:
            every = sum(cfg.domain_size ** cfg.domain_size ** n for n in range(1, cfg.n_max + 1))
            seen["every table" if len(want) == every else "proper"] += 1
    assert min(seen.values()) >= 15, seen

