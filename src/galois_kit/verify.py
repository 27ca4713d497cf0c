"""Named verification suites with fixed seeds and counterexample reporting.

Each suite function returns a list of CheckResult records; a suite
passes when every record does.  Seeds are fixed so reports are
byte-identical across runs.
"""

import random
from dataclasses import dataclass
from itertools import product

from .errors import GaloisKitError
from .extnat import INF, ext_max
from .operations import (
    Operation,
    OperationClass,
    all_operations,
    close_perm_dummy,
    delta,
    linear_class_fixture,
    nabla,
    projection,
    tau,
    zeta,
)
from .multisets import (
    FiniteMultiset,
    apply_op_rows,
    ms_join,
    split_enumerate,
)
from .repetition import RepetitionFunction
from .constraints import (
    GeneralizedConstraint,
    empty_constraint,
    equality_constraint,
    satisfies_constraint,
    trivial_constraint,
)
from .minors import (
    MinorScheme,
    apply_scheme_map,
    compose_schemes,
    is_conjunctive_minor_constraint,
    scheme_fixture,
    skolem_maps,
    tight_relation_minor,
)
from .clusters import (
    BoxedGenerator,
    Cluster,
    breadth_restrict,
    cluster_member,
    cluster_union,
    enumerate_cluster_members,
    order_cluster,
    quotient,
    satisfies_cluster,
    trivial_cluster,
)
from .galois import (
    GaloisConfig,
    c_pol,
    cl_inv,
    f_pol,
    gc_inv,
    separating_cluster,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

# the fixed size and seed of each randomized suite
CHI_M_CLASSES, CHI_M_SEED = 50, 1202
MINORS_INSTANCES, MINORS_SEED = 200, 1203
CLAIM1_INSTANCES, CLAIM1_SEED = 100, 1205
CLUSTER_LEMMAS_INSTANCES, CLUSTER_LEMMAS_SEED = 100, 1206


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        suffix = f"  {self.detail}" if self.detail else ""
        return f"{status} {self.name}{suffix}"


def _iterate_n(fn, x, times):
    for _ in range(times):
        x = fn(x)
    return x


def suite_malcev():
    """The table-rewrite identities over every Boolean operation of arity <= 3."""
    ops = []
    for n in (1, 2, 3):
        ops.extend(all_operations(2, n))
    results = []
    checks = [
        ("zeta^n f = f", lambda f: _iterate_n(zeta, f, f.arity) == f),
        ("tau tau f = f", lambda f: tau(tau(f)) == f),
        ("delta nabla f = f", lambda f: delta(nabla(f)) == f),
        (
            "unary zeta f = tau f = delta f = f",
            lambda f: f.arity != 1 or zeta(f) == tau(f) == delta(f) == f,
        ),
    ]
    for name, check in checks:
        bad = next((f for f in ops if not check(f)), None)
        results.append(
            CheckResult(
                f"malcev: {name} over {len(ops)} operations",
                bad is None,
                "" if bad is None else f"counterexample {bad!r}",
            )
        )
    return results


def _random_closed_class(rng, k=2, cap=3):
    cls_ = OperationClass(k)
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(1, 2)
        table = tuple(rng.randrange(k) for _ in range(k ** n))
        cls_.add(Operation(k, k, n, table))
    return close_perm_dummy(cls_, cap)


def suite_chi_m():
    """Every member of a closed class satisfies (chi_M, C M) for every
    distinct-row matrix with at most 3 rows and 3 columns."""
    rng = random.Random(CHI_M_SEED)
    cfg = GaloisConfig(2, n_max=3, m_max=3, breadth=1)
    for i in range(CHI_M_CLASSES):
        cls_ = _random_closed_class(rng)
        for c in gc_inv(cls_, cfg):
            for f in cls_:
                verdict = satisfies_constraint(f, c)
                if not verdict:
                    return [
                        CheckResult(
                            f"chi-m: {CHI_M_CLASSES} random closed classes",
                            False,
                            f"class #{i}, member {f!r} violates {c!r} "
                            f"at {verdict.witness!r}",
                        )
                    ]
    return [CheckResult(f"chi-m: {CHI_M_CLASSES} random closed classes", True)]


def _random_scheme(rng, max_target=3, max_maps=2, max_vars=2, max_arity=3):
    target = rng.randint(1, max_target)
    vars_ = ("u", "v")[: rng.randint(0, max_vars)]
    maps = []
    for _ in range(rng.randint(1, max_maps)):
        arity = rng.randint(1, max_arity)
        entries = []
        for _ in range(arity):
            if vars_ and rng.random() < 0.3:
                entries.append(rng.choice(vars_))
            else:
                entries.append(rng.randrange(target))
        maps.append(tuple(entries))
    return MinorScheme(target, vars_, tuple(maps))


def _random_rf(rng, arity, k=2, values=(0, 1, 2, INF)):
    exc = {}
    for _ in range(rng.randint(1, 3)):
        t = tuple(rng.randrange(k) for _ in range(arity))
        exc[t] = rng.choice(values)
    return RepetitionFunction(arity, k, 0, exc)


def _candidate_antecedent(scheme, phis, k):
    """Pointwise best guess: max over Skolem maps of min over family values."""
    exc = {}
    for a in product(range(k), repeat=scheme.target):
        best = 0
        for sigma in skolem_maps(scheme.indeterminates, k):
            v = min(
                phi.value(apply_scheme_map(a, sigma, h))
                for h, phi in zip(scheme.maps, phis)
            )
            best = ext_max(best, v)
        exc[a] = best
    return RepetitionFunction(scheme.target, k, 0, exc)


def suite_minors():
    """Verified conjunctive minors transfer satisfaction from the family."""
    rng = random.Random(MINORS_SEED)
    k = 2
    ops = list(all_operations(k, 1)) + list(all_operations(k, 2))
    verified = 0
    for i in range(MINORS_INSTANCES):
        scheme = _random_scheme(rng)
        phis = [_random_rf(rng, len(h), k) for h in scheme.maps]
        family = [
            GeneralizedConstraint(
                phi,
                frozenset(
                    t
                    for t in product(range(k), repeat=phi.arity)
                    if rng.random() < 0.6
                ),
                k,
            )
            for phi in phis
        ]
        candidate = GeneralizedConstraint(
            _candidate_antecedent(scheme, [c.antecedent for c in family], k),
            tight_relation_minor(scheme, [c.consequent for c in family], k),
            k,
        )
        if not is_conjunctive_minor_constraint(candidate, family, scheme, col_cap=3):
            continue
        verified += 1
        for f in ops:
            if all(satisfies_constraint(f, c) for c in family):
                if not satisfies_constraint(f, candidate):
                    return [
                        CheckResult(
                            f"minors: {MINORS_INSTANCES} random instances",
                            False,
                            f"instance #{i}: {f!r} satisfies the family but "
                            f"violates the verified minor",
                        )
                    ]
    return [
        CheckResult(
            f"minors: {MINORS_INSTANCES} random instances "
            f"({verified} with a verified minor predicate)",
            True,
        )
    ]


def suite_lemma_all():
    """The scheme fixtures rebuild the trivial, equality, and empty
    constraints exactly, and the minor predicate confirms each."""
    k = 2
    results = []
    cases = []
    for m in range(1, 5):
        cases.append(("trivial_from_equality", m, trivial_constraint(m, k),
                      [equality_constraint(2, k)]))
        if m >= 2:
            cases.append(("equality_chain", m, equality_constraint(m, k),
                          [equality_constraint(2, k)] * (m - 1)))
        cases.append(("empty_spread", m, empty_constraint(m, k),
                      [empty_constraint(1, k)]))
    for kind, m, expected, family in cases:
        scheme, arities = scheme_fixture(kind, m)
        ok = tuple(len(h) for h in scheme.maps) == arities == tuple(
            c.arity for c in family
        )
        built = GeneralizedConstraint(
            _candidate_antecedent(scheme, [c.antecedent for c in family], k),
            tight_relation_minor(scheme, [c.consequent for c in family], k),
            k,
        )
        ok = ok and built == expected
        ok = ok and bool(
            is_conjunctive_minor_constraint(expected, family, scheme)
        )
        results.append(
            CheckResult(
                f"lemma-all: {kind} rebuilds the m={m} constraint",
                ok,
                "" if ok else f"built {built!r}, expected {expected!r}",
            )
        )
    return results


def suite_claim1():
    """Tight minor through a composite scheme equals the tight minor of
    tight minors, on random two-level stacks."""
    rng = random.Random(CLAIM1_SEED)
    k = 2
    for i in range(CLAIM1_INSTANCES):
        outer = _random_scheme(rng, max_vars=1)
        inners = [
            _random_scheme(rng, max_vars=1, max_target=len(h), max_arity=3)
            for h in outer.maps
        ]
        # inner target must equal the outer source arity
        inners = [
            MinorScheme(len(h), inner.indeterminates, inner.maps)
            for h, inner in zip(outer.maps, inners)
        ]
        relations = [
            [
                frozenset(
                    t
                    for t in product(range(k), repeat=len(hm))
                    if rng.random() < 0.6
                )
                for hm in inner.maps
            ]
            for inner in inners
        ]
        composite = compose_schemes(outer, inners)
        flat = [r for rs in relations for r in rs]
        via_composite = tight_relation_minor(composite, flat, k)
        mids = [
            tight_relation_minor(inner, rs, k)
            for inner, rs in zip(inners, relations)
        ]
        nested = tight_relation_minor(outer, mids, k)
        if via_composite != nested:
            return [
                CheckResult(
                    f"claim1: {CLAIM1_INSTANCES} random two-level stacks",
                    False,
                    f"instance #{i}: composite {sorted(via_composite)} != "
                    f"nested {sorted(nested)}",
                )
            ]
    return [CheckResult(f"claim1: {CLAIM1_INSTANCES} random two-level stacks", True)]


def _random_cluster(rng, m, k=2):
    gens = set()
    for _ in range(rng.randint(1, 3)):
        box = _random_rf(rng, m, k, values=(0, 1, 2, 3, INF))
        cap = rng.choice((0, 1, 2, 3, 4, 5, INF))
        gens.add(BoxedGenerator(box, cap))
    return Cluster(m, k, frozenset(gens))


def suite_cluster_lemmas():
    """Quotient, union, quotient-satisfaction, dividend, and
    breadth-restriction laws on random boxed-generator clusters."""
    rng = random.Random(CLUSTER_LEMMAS_SEED)
    k = 2
    ops = list(all_operations(k, 1)) + list(all_operations(k, 2))
    name = f"cluster-lemmas: {CLUSTER_LEMMAS_INSTANCES} random clusters"
    for i in range(CLUSTER_LEMMAS_INSTANCES):
        m = rng.randint(1, 3)
        b = rng.randint(2, 4)
        phi = _random_cluster(rng, m, k)
        phi2 = _random_cluster(rng, m, k)

        # union law, by full enumeration up to the breadth bound
        union = cluster_union([phi, phi2])
        for s in enumerate_cluster_members(trivial_cluster(m, b, k), b):
            if cluster_member(s, union) != (
                cluster_member(s, phi) or cluster_member(s, phi2)
            ):
                return [CheckResult(name, False, f"instance #{i}: union law at {s!r}")]

        # quotient law: S' in Phi/S iff S + S' in Phi
        members = enumerate_cluster_members(phi, 2)
        for s in members[: 3]:
            q = quotient(phi, s)
            rest = b - s.cardinality
            for s2 in enumerate_cluster_members(trivial_cluster(m, rest, k), rest):
                if cluster_member(s2, q) != cluster_member(ms_join(s, s2), phi):
                    return [
                        CheckResult(
                            name, False,
                            f"instance #{i}: quotient law at S={s!r}, S'={s2!r}",
                        )
                    ]

        for f in ops:
            direct = bool(satisfies_cluster(f, phi, b))

            # quotient-satisfaction: every split lands in the quotient
            via_quotient = True
            for s in enumerate_cluster_members(phi, b):
                if s.cardinality < f.arity:
                    continue
                for m1, m2 in split_enumerate(s, f.arity):
                    image = FiniteMultiset.from_tuples(m, [apply_op_rows(f, m1)])
                    if not cluster_member(image, quotient(phi, m2)):
                        via_quotient = False
                        break
                if not via_quotient:
                    break
            if direct != via_quotient:
                return [
                    CheckResult(
                        name, False,
                        f"instance #{i}: quotient-satisfaction disagrees for {f!r}",
                    )
                ]

            # dividend: satisfaction passes to quotients by small members
            if direct:
                for s in members:
                    if s.cardinality > b - 2:
                        continue
                    if not satisfies_cluster(f, quotient(phi, s), b - s.cardinality):
                        return [
                            CheckResult(
                                name, False,
                                f"instance #{i}: dividend law fails for {f!r} at {s!r}",
                            )
                        ]

            # breadth restriction: satisfaction at p = exact satisfaction
            # of the p-restriction
            for p in (2, b):
                if bool(satisfies_cluster(f, phi, p)) != bool(
                    satisfies_cluster(f, breadth_restrict(phi, p), b)
                ):
                    return [
                        CheckResult(
                            name, False,
                            f"instance #{i}: breadth restriction at p={p} for {f!r}",
                        )
                    ]
    return [CheckResult(name, True)]


def _monotone_ops(n_max=2):
    """Independent oracle: pointwise order comparison of argument tuples."""
    out = OperationClass(2)
    for n in range(1, n_max + 1):
        for f in all_operations(2, n):
            if all(
                f(*x) <= f(*y)
                for x in product(range(2), repeat=n)
                for y in product(range(2), repeat=n)
                if all(a <= b for a, b in zip(x, y))
            ):
                out.add(f)
    return out


def suite_roundtrip():
    """The three bounded Galois round trips, exact set equality."""
    results = []

    mono = _monotone_ops()
    cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=4)
    back = f_pol(gc_inv(mono, cfg), cfg)
    results.append(
        CheckResult(
            "roundtrip: f_pol(gc_inv(monotone)) = monotone (9 ops)",
            back == mono and len(mono) == 9,
            "" if back == mono else f"got {len(back)} ops",
        )
    )

    proj = OperationClass(2, members=[projection(1, 1, 2), projection(2, 1, 2),
                                      projection(2, 2, 2)])
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
    back = c_pol(cl_inv(proj, cfg), cfg)
    results.append(
        CheckResult(
            "roundtrip: c_pol(cl_inv(projections)) = projections",
            back == proj,
            "" if back == proj else f"got {len(back)} ops",
        )
    )

    lin = linear_class_fixture(3, 2, 2)
    cfg = GaloisConfig(3, n_max=2, m_max=1, breadth=2)
    back = c_pol(cl_inv(lin, cfg), cfg)
    results.append(
        CheckResult(
            "roundtrip: c_pol(cl_inv(linear fixture k=3 p=2)) = fixture",
            back == lin,
            "" if back == lin else f"got {len(back)} ops, expected {len(lin)}",
        )
    )
    return results


def suite_separation():
    """The separating-cluster regressions."""
    results = []
    k = 2

    proj = OperationClass(2, members=[projection(1, 1, 2), projection(2, 1, 2),
                                      projection(2, 2, 2)])
    land = Operation(2, 2, 2, (0, 0, 0, 1))
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=4)
    cluster = separating_cluster(proj, land, cfg)
    image = FiniteMultiset.from_tuples(4, [(0, 0, 0, 1)])
    ok = (
        not cluster_member(image, cluster)
        and satisfies_cluster(projection(2, 1, 2), cluster, 4)
        and satisfies_cluster(projection(2, 2, 2), cluster, 4)
        and not satisfies_cluster(land, cluster, 4)
    )
    results.append(
        CheckResult("separation: projections vs AND via cluster", ok)
    )

    leq = {(0, 0), (0, 1), (1, 1)}
    ord_cluster = order_cluster(leq, k)
    lxor = Operation(2, 2, 2, (0, 1, 1, 0))
    verdict = satisfies_cluster(lxor, ord_cluster, 4)
    witness_ok = not verdict
    if witness_ok:
        m1 = verdict.witness[0]
        witness_ok = set(m1.columns) == {(0, 1, 0, 1), (0, 0, 1, 1)}
    keepers = [
        Operation(2, 2, 2, (0, 0, 0, 1)),  # AND
        Operation(2, 2, 2, (0, 1, 1, 1)),  # OR
        Operation(2, 2, 1, (1, 0)),        # NOT
        Operation(2, 2, 1, (0, 0)),
        Operation(2, 2, 1, (1, 1)),
    ]
    ok = witness_ok and all(
        satisfies_cluster(f, ord_cluster, 4) for f in keepers
    )
    results.append(
        CheckResult(
            "separation: XOR violates the order cluster with the "
            "documented witness; AND/OR/NOT/constants satisfy it",
            ok,
            "" if ok else f"verdict {verdict!r}",
        )
    )

    lin = linear_class_fixture(3, 2, 2)
    xyz = Operation.from_callable(3, 3, 3, lambda x, y, z: (x + y + z) % 3)
    bad = delta(xyz)  # 2x + y mod 3: even nonzero-coefficient count
    cfg = GaloisConfig(3, n_max=2, m_max=1, breadth=2)
    clusters = cl_inv(lin, cfg)
    excluded = any(
        not satisfies_cluster(bad, c, max(2, bad.arity)) for c in clusters
    )
    in_class = bad in lin
    results.append(
        CheckResult(
            "separation: delta(x+y+z) over GF(3) is excluded by "
            "cl_inv of the linear fixture",
            excluded and not in_class,
        )
    )
    return results


SUITES = {
    "malcev": suite_malcev,
    "chi-m": suite_chi_m,
    "minors": suite_minors,
    "lemma-all": suite_lemma_all,
    "claim1": suite_claim1,
    "cluster-lemmas": suite_cluster_lemmas,
    "roundtrip": suite_roundtrip,
    "separation": suite_separation,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name):
    """Run one named suite (or all of them); returns (passed, results)."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(SUITES[key]())
    elif name in SUITES:
        results = SUITES[name]()
    else:
        raise GaloisKitError(f"unknown suite {name!r}")
    return all(r.passed for r in results), results
