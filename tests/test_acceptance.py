"""Acceptance gate: one exact pass/fail check per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and asserts the exact, tolerance-zero condition.
"""

import random
from itertools import combinations, product

import pytest

from galois_kit import (
    FiniteMultiset,
    GaloisConfig,
    GeneralizedConstraint,
    Operation,
    OperationClass,
    RepetitionFunction,
    TupleMatrix,
    all_operations,
    c_pol,
    cl_inv,
    cluster_member,
    columns_multiset,
    compose_schemes,
    delta,
    empty_constraint,
    equality_constraint,
    f_pol,
    gc_inv,
    is_conjunctive_minor_constraint,
    linear_class_fixture,
    MinorScheme,
    nabla,
    order_cluster,
    projection,
    relation_cluster,
    satisfies_cluster,
    satisfies_constraint,
    scheme_fixture,
    separating_cluster,
    tau,
    tight_relation_minor,
    trivial_constraint,
    zeta,
)
from galois_kit.verify import (
    _candidate_antecedent,
    _iterate_n,
    _monotone_ops,
    _random_closed_class,
    suite_cluster_lemmas,
)


def report(number, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_acceptance_1_malcev_identities():
    ops = [f for n in (1, 2, 3) for f in all_operations(2, n)]
    ok = all(
        _iterate_n(zeta, f, f.arity) == f
        and tau(tau(f)) == f
        and delta(nabla(f)) == f
        and (f.arity != 1 or zeta(f) == tau(f) == delta(f) == f)
        for f in ops
    )
    report(1, ok, f"table-rewrite identities over all {len(ops)} Boolean "
           "operations of arity <= 3")


def test_acceptance_2_characteristic_constraint_lemma():
    rng = random.Random(2026)
    ok = True
    for _ in range(50):
        cls_ = _random_closed_class(rng)
        for n in (1, 2, 3):
            all_rows = sorted(product(range(2), repeat=n))
            for m in (1, 2, 3):
                for rows in combinations(all_rows, m):
                    matrix = TupleMatrix.from_rows(rows)
                    chi = RepetitionFunction.from_counts(
                        m, 2, columns_multiset(matrix).counts
                    )
                    image = frozenset(
                        tuple(f(*matrix.row(i)) for i in range(m))
                        for f in cls_.arity_part(n)
                    )
                    c = GeneralizedConstraint(chi, image, 2)
                    if not all(satisfies_constraint(f, c) for f in cls_):
                        ok = False
    report(2, ok, "every member of 50 random closed classes satisfies the "
           "characteristic constraint of every small distinct-row matrix")


def test_acceptance_3_conjunctive_minor_preservation():
    rng = random.Random(2027)
    ops = [f for n in (1, 2) for f in all_operations(2, n)]
    ok = True
    verified = 0
    for _ in range(200):
        target = rng.randint(1, 3)
        vars_ = ("u", "v")[: rng.randint(0, 2)]
        maps = tuple(
            tuple(
                rng.choice(vars_) if vars_ and rng.random() < 0.3
                else rng.randrange(target)
                for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 2))
        )
        scheme = MinorScheme(target, vars_, maps)
        family = []
        for h in scheme.maps:
            exc = {
                tuple(rng.randrange(2) for _ in range(len(h))):
                rng.choice([0, 1, 2, float("inf")])
                for _ in range(rng.randint(1, 3))
            }
            family.append(
                GeneralizedConstraint(
                    RepetitionFunction(len(h), 2, 0, exc),
                    frozenset(
                        t for t in product(range(2), repeat=len(h))
                        if rng.random() < 0.6
                    ),
                    2,
                )
            )
        candidate = GeneralizedConstraint(
            _candidate_antecedent(scheme, [c.antecedent for c in family], 2),
            tight_relation_minor(scheme, [c.consequent for c in family], 2),
            2,
        )
        if not is_conjunctive_minor_constraint(candidate, family, scheme, col_cap=3):
            continue
        verified += 1
        for f in ops:
            if all(satisfies_constraint(f, c) for c in family):
                if not satisfies_constraint(f, candidate):
                    ok = False
    report(3, ok and verified >= 50,
           f"satisfaction transfers through every verified conjunctive minor "
           f"({verified} of 200 random instances verified)")


def test_acceptance_4_distinguished_constraints_from_fixtures():
    ok = True
    for m in range(1, 5):
        cases = [
            ("trivial_from_equality", trivial_constraint(m, 2),
             [equality_constraint(2, 2)]),
            ("empty_spread", empty_constraint(m, 2), [empty_constraint(1, 2)]),
        ]
        if m >= 2:
            cases.append(
                ("equality_chain", equality_constraint(m, 2),
                 [equality_constraint(2, 2)] * (m - 1))
            )
        for kind, expected, family in cases:
            scheme, _ = scheme_fixture(kind, m)
            built = GeneralizedConstraint(
                _candidate_antecedent(
                    scheme, [c.antecedent for c in family], 2
                ),
                tight_relation_minor(
                    scheme, [c.consequent for c in family], 2
                ),
                2,
            )
            if built != expected:
                ok = False
    report(4, ok, "scheme fixtures rebuild the trivial, equality, and empty "
           "constraints exactly for m <= 4")


def test_acceptance_5_composite_schemes():
    rng = random.Random(2028)
    ok = True
    for _ in range(100):
        target = rng.randint(1, 3)
        outer = MinorScheme(
            target,
            ("u",)[: rng.randint(0, 1)],
            tuple(
                tuple(rng.randrange(target) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            ),
        )
        inners = [
            MinorScheme(
                len(h),
                ("w",)[: rng.randint(0, 1)],
                tuple(
                    tuple(rng.randrange(len(h)) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 2))
                ),
            )
            for h in outer.maps
        ]
        relations = [
            [
                frozenset(
                    t for t in product(range(2), repeat=len(hm))
                    if rng.random() < 0.6
                )
                for hm in inner.maps
            ]
            for inner in inners
        ]
        composite = compose_schemes(outer, inners)
        flat = [r for rs in relations for r in rs]
        mids = [
            tight_relation_minor(inner, rs, 2)
            for inner, rs in zip(inners, relations)
        ]
        if tight_relation_minor(composite, flat, 2) != tight_relation_minor(
            outer, mids, 2
        ):
            ok = False
    report(5, ok, "tight relation minor through 100 random composite schemes "
           "equals the tight minor of tight minors")


def test_acceptance_6_cluster_lemma_suite():
    results = suite_cluster_lemmas()
    ok = all(r.passed for r in results)
    report(6, ok, "quotient, union, quotient-satisfaction, dividend, and "
           "breadth-restriction laws on 100 random clusters")


def test_acceptance_7_galois_round_trips():
    mono = _monotone_ops(2)
    cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=4)
    first = f_pol(gc_inv(mono, cfg), cfg) == mono and len(mono) == 9

    proj = OperationClass(2, members=[
        projection(1, 1, 2), projection(2, 1, 2), projection(2, 2, 2)
    ])
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
    second = c_pol(cl_inv(proj, cfg), cfg) == proj

    lin = linear_class_fixture(3, 2, 2)
    cfg = GaloisConfig(3, n_max=2, m_max=1, breadth=2)
    third = c_pol(cl_inv(lin, cfg), cfg) == lin

    report(7, first and second and third,
           "f_pol/gc_inv and c_pol/cl_inv round trips are exact on the "
           "monotone, projection, and linear fixtures")


def test_acceptance_8_separation_regressions():
    proj = OperationClass(2, members=[
        projection(1, 1, 2), projection(2, 1, 2), projection(2, 2, 2)
    ])
    land = Operation(2, 2, 2, (0, 0, 0, 1))
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
    cluster = separating_cluster(proj, land, cfg)
    part_a = (
        not cluster_member(FiniteMultiset.from_tuples(4, [(0, 0, 0, 1)]), cluster)
        and not satisfies_cluster(land, cluster, 4)
        and satisfies_cluster(projection(2, 1, 2), cluster, 4)
        and satisfies_cluster(projection(2, 2, 2), cluster, 4)
    )

    ord_cluster = order_cluster({(0, 0), (0, 1), (1, 1)}, 2)
    lxor = Operation(2, 2, 2, (0, 1, 1, 0))
    verdict = satisfies_cluster(lxor, ord_cluster, 4)
    part_b = (
        not verdict
        and set(verdict.witness[0].columns) == {(0, 1, 0, 1), (0, 0, 1, 1)}
        and all(
            satisfies_cluster(f, ord_cluster, 4)
            for f in (
                Operation(2, 2, 2, (0, 0, 0, 1)),  # AND
                Operation(2, 2, 2, (0, 1, 1, 1)),  # OR
                Operation(2, 2, 1, (1, 0)),        # NOT
                Operation(2, 2, 1, (0, 0)),
                Operation(2, 2, 1, (1, 1)),
            )
        )
    )

    lin = linear_class_fixture(3, 2, 2)
    xyz = Operation.from_callable(3, 3, 3, lambda x, y, z: (x + y + z) % 3)
    bad = delta(xyz)
    cfg = GaloisConfig(3, n_max=2, m_max=1, breadth=2)
    part_c = any(
        not satisfies_cluster(bad, c, max(2, bad.arity))
        for c in cl_inv(lin, cfg)
    )

    report(8, part_a and part_b and part_c,
           "separating cluster, order-cluster witness, and linear-class "
           "identification regressions all hold")


def _preserves_relation(f, relation, m):
    """Independent polymorphism oracle: closed over tuples of relation
    members, written directly from the preservation definition."""
    rel = sorted(relation)
    for choice in product(rel, repeat=f.arity):
        image = tuple(
            f(*[choice[j][i] for j in range(f.arity)]) for i in range(m)
        )
        if image not in relation:
            return False
    return True


def test_acceptance_9_cluster_vs_polymorphism_oracle():
    ops = [f for n in (1, 2) for f in all_operations(2, n)]
    ok = True
    checked = 0
    for bits in product((0, 1), repeat=4):
        relation = frozenset(
            t for t, b in zip(product(range(2), repeat=2), bits) if b
        )
        cluster = relation_cluster(relation, 2, 2)
        for f in ops:
            expected = _preserves_relation(f, relation, 2)
            got = bool(satisfies_cluster(f, cluster, 4))
            if got != expected:
                ok = False
            checked += 1
    report(9, ok, f"cluster satisfaction coincides with the independent "
           f"polymorphism oracle on {checked} relation/operation pairs")
