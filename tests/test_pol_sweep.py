"""``f_pol``'s search and ``c_pol``'s compiled sweep against blind sweeps.

The oracles are the earlier bodies: a sweep over every table, keeping
the operations for which ``satisfies_constraint`` (``satisfies_cluster``)
holds on every constraint (cluster) in turn, and, for ``f_pol``, a sweep
of every table through the tests read off ``enumerate_matrices_leq``.
Both must return the same class, or refuse with the same error, on
randomized families; ``f_pol``'s search takes the steps that a level by
level count of the prefixes meeting those tests gives, and ``c_pol``'s
compile the member and split counts that ``_compile_counts`` derives
from the reference member walk.
"""

import random
from itertools import product, repeat
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from galois_kit import (
    BoxedGenerator,
    BudgetExceededError,
    Cluster,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    GeneralizedConstraint,
    Meter,
    Operation,
    OperationClass,
    RepetitionFunction,
    all_operations,
    c_pol,
    cl_inv,
    close_composition,
    empty_cluster,
    enumerate_matrices_leq,
    f_pol,
    gc_inv,
    order_cluster,
    satisfies_cluster,
    satisfies_constraint,
    trivial_cluster,
    trivial_constraint,
)
from galois_kit import galois, multisets
from galois_kit.clusters import _Excluding, _share
from galois_kit.errors import DEFAULT_BUDGET, _current_meter
from galois_kit.extnat import INF
from galois_kit.verify import _monotone_ops
from multiset_oracles import recursive_ordered_selections
from test_kernels import ref_enumerate_cluster_members


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


def _forget_compiles(family):
    """Drop the rank vectors and row deletions kept in the family's
    antecedents, so the next ``f_pol`` on it builds them cold."""
    galois._antecedent.cache_clear()
    for c in family:
        c.antecedent._ranks = c.antecedent._deletions = None


def test_compiled_sweep_matches_reference_sweep():
    rng = random.Random(9001)
    seen = {"error": 0, "empty": 0, "members": 0}
    for _ in range(300):
        family, cfg = _random_case(rng)
        want = _outcome(ref_f_pol, family, cfg)
        # cold, then warm: the second run reads the rank vectors the first compiled
        _forget_compiles(family)
        cold, cold_done = _metered_outcome(f_pol, family, cfg)
        warm, warm_done = _metered_outcome(f_pol, family, cfg)
        assert cold == warm == want
        assert warm_done == cold_done
        if isinstance(want, tuple):
            seen["error"] += 1
        else:
            seen["members" if len(want) else "empty"] += 1
    assert min(seen.values()) >= 20, seen


def blind_tests(constraints, k, n):
    """The tests of arity n: each rank vector of an n-column matrix
    M < phi, listed by ``enumerate_matrices_leq``, mapped to the images
    that every constraint reaching it allows."""
    tests = {}
    for c in constraints:
        for matrix in enumerate_matrices_leq(c.antecedent, n):
            ranks = tuple(sum(x * k ** (n - 1 - j) for j, x in enumerate(row))
                          for row in matrix.rows())
            tests[ranks] = tests.get(ranks, c.consequent) & c.consequent
    return tests


def blind_deleted(phi, i):
    """phi with row i deleted, built pointwise: at every (m-1)-tuple u,
    the sum of phi over the k m-tuples that read u without entry i."""
    k = phi.domain_size
    return RepetitionFunction(phi.arity - 1, k, 0, {
        u: sum(phi.value((*u[:i], x, *u[i:])) for x in range(k))
        for u in product(range(k), repeat=phi.arity - 1)})


def blind_merged(constraints, k_out):
    """Each distinct antecedent whose constraints together exclude some
    image, in order of first appearance, with the images they allow."""
    allowed = {}
    for c in constraints:
        allowed[c.antecedent] = allowed.get(c.antecedent, c.consequent) & c.consequent
    return {phi: images for phi, images in allowed.items() if len(images) < k_out ** phi.arity}


def blind_kept(constraints, k_out):
    """The antecedents a search compiles, with their allowed images: the
    ``blind_merged`` ones less each (phi_B, S_B) that a kept or dropped
    (phi_A, S_A) of one more row implies (phi_B is phi_A with a row i
    deleted, and S_A read without entry i lies inside S_B); and the "row
    deletions" steps of finding them: each row of each phi_A looked up,
    and each image of S_A projected onto a phi_B not yet dropped."""
    allowed = blind_merged(constraints, k_out)
    implied, steps = set(), 0
    for phi, images in allowed.items():
        for i in range(phi.arity if phi.arity > 1 else 0):
            steps += 1
            deleted = blind_deleted(phi, i)
            for psi in allowed:
                if psi not in implied and psi == deleted:
                    steps += len(images)
                    if {t[:i] + t[i + 1:] for t in images} <= allowed[psi]:
                        implied.add(psi)
    return {phi: images for phi, images in allowed.items() if phi not in implied}, steps


def blind_checks(kept, k, n):
    """How many checks a search reads at each rank of arity n: one per
    n-column matrix M < phi, listed by ``enumerate_matrices_leq``, at its
    largest row rank, for each kept antecedent phi."""
    checks = {}
    for phi in kept:
        for matrix in enumerate_matrices_leq(phi, n):
            r = max(sum(x * k ** (n - 1 - j) for j, x in enumerate(row))
                    for row in matrix.rows())
            checks[r] = checks.get(r, 0) + 1
    return checks


def _meets(table, tests):
    return all(tuple(table[r] for r in ranks) in allowed for ranks, allowed in tests)


def blind_f_pol(constraints, cfg):
    """The class of every table meeting the tests of its arity, each
    table of each arity tested; the "table search" steps of a search
    through the kept antecedents' tests alone (``blind_kept``), counted
    level by level: k_out entries are assigned under each prefix meeting
    every kept test inside it, each charged with the checks at its
    rank, and each table found is charged its entries again; and the
    "row deletions" steps.  The search must find the class: a dropped
    antecedent's tests are implied by the kept ones."""
    k, k_out = cfg.domain_size, cfg.codomain_size
    kept, deletions = blind_kept(constraints, k_out)
    searched = [c for c in constraints if c.antecedent in kept]
    out, steps = OperationClass(k, k_out), 0
    with Meter(INF):
        for n in range(1, cfg.n_max + 1):
            tests, size = blind_tests(constraints, k, n), k ** n
            checks = blind_checks(kept, k, n)
            for table in product(range(k_out), repeat=size):
                if _meets(table, tests.items()):
                    out._add(n, table)
            prefixes, kept_tests = [()], blind_tests(searched, k, n)
            for r in range(size):
                steps += k_out * len(prefixes) * (1 + checks.get(r, 0))
                at = [(ranks, allowed) for ranks, allowed in kept_tests.items()
                      if max(ranks) == r]
                prefixes = [p for q in prefixes for p in (q + (x,) for x in range(k_out))
                            if _meets(p, at)]
            assert prefixes == out._tables(n)
            steps += size * len(prefixes)
    return out, steps, deletions


def _asymmetric_case(rng):
    """Random constraints over k = 1 to 3 and k_out = 1 to 3, at most
    4,096 tables of the top arity: one-rank tests, and now and then an
    antecedent whose columns repeat a row, so its rank vectors repeat a
    rank."""
    k, k_out = rng.randint(1, 3), rng.randint(1, 3)
    n_max = rng.randint(1, max(n for n in (1, 2, 3) if k_out ** (k ** n) <= 4096))
    family = []
    for _ in range(rng.randint(1, 4)):
        m = rng.choice([1, 1, 2, 2, 3] if k < 3 else [1, 1, 2])
        phi = None
        if m > 1 and rng.random() < 0.3:
            # constant columns: every row of M is the same tuple
            phi = RepetitionFunction(m, k, 0, {(x,) * m: rng.choice([1, 2, INF])
                                               for x in rng.sample(range(k), rng.randint(1, k))})
        family.append(_random_constraint(rng, m, k, k_out, phi))
    return family, GaloisConfig(k, n_max=n_max, m_max=3, breadth=n_max, codomain_size=k_out)


def test_search_matches_the_blind_sweep_and_its_steps():
    rng = random.Random(2828)
    seen = {"empty": 0, "members": 0, "one-rank": 0, "repeated rank": 0, "refused": 0}
    for _ in range(250):
        family, cfg = _asymmetric_case(rng)
        want, steps, deletions = blind_f_pol(family, cfg)
        _forget_compiles(family)
        cold, cold_done = _metered_outcome(f_pol, family, cfg)
        warm, warm_done = _metered_outcome(f_pol, family, cfg)
        assert cold == warm == want
        assert cold_done == warm_done
        assert cold_done.get("table search", 0) == steps
        assert cold_done.get("row deletions", 0) == deletions
        vectors = [ranks for n in range(1, cfg.n_max + 1)
                   for ranks in blind_tests(family, cfg.domain_size, n)]
        seen["members" if len(want) else "empty"] += 1
        seen["one-rank"] += any(len(ranks) == 1 for ranks in vectors)
        seen["repeated rank"] += any(len(set(ranks)) < len(ranks) for ranks in vectors)
        # under a smaller budget, cold and warm refuse alike, in a phase
        # that needs more; the search refuses at the step past the budget
        for budget in {rng.randrange(max(cold_done.values())) for _ in range(2)}:
            _forget_compiles(family)
            refused = _refusal(family, cfg, budget)
            assert _refusal(family, cfg, budget) == refused  # warm
            phase, done, _ = refused[0]
            assert done > budget and cold_done[phase] > budget
            if phase == "table search":
                assert done == budget + 1
                seen["refused"] += 1
    assert min(seen.values()) >= 20, seen


def _deletion_case(rng):
    """A family built down from one wide constraint (phi, S): phi has 2 or
    3 rows, counts up to INF and a default of 0, 1 or INF, and S excludes
    some image.  Then phi with a row deleted, again and again, each with
    a consequent that holds the projection of the one above (implied),
    misses one of its tuples (not implied: it must stay), or is random;
    now and then a second consequent on phi, or an unrelated constraint.
    Shuffled, over k and k_out from 1 to 3, at most 4,096 tables of the
    top arity.  Also the kinds of consequent drawn."""
    k, k_out = rng.randint(1, 3), rng.randint(1, 3)
    n_max = rng.randint(1, max(n for n in (1, 2, 3) if k_out ** (k ** n) <= 4096))
    m = rng.choice([2, 3] if k < 3 else [2])
    exc = {tuple(rng.randrange(k) for _ in range(m)): rng.choice([1, 2, 3, INF])
           for _ in range(rng.randint(1, 4))}
    phi = RepetitionFunction(m, k, rng.choice([0, 0, 0, 1, INF]), exc)
    space = list(product(range(k_out), repeat=m))
    allowed = set(rng.sample(space, rng.randint(0, len(space) - 1)))
    family, kinds = [GeneralizedConstraint(phi, allowed, k_out)], set()
    if rng.random() < 0.2:
        family.append(_random_constraint(rng, m, k, k_out, phi))
    while phi.arity > 1 and rng.random() < 0.85:
        i = rng.randrange(phi.arity)
        phi, projected = blind_deleted(phi, i), {t[:i] + t[i + 1:] for t in allowed}
        space = list(product(range(k_out), repeat=phi.arity))
        kind = rng.choice(["implied", "not implied", "random"])
        if kind == "implied":
            allowed = projected | set(rng.sample(space, rng.randint(0, 1)))
        elif kind == "not implied" and projected:
            allowed = projected - {rng.choice(sorted(projected))}
        else:
            kind, allowed = "random", set(rng.sample(space, rng.randint(0, len(space))))
        kinds.add(kind)
        family.append(GeneralizedConstraint(phi, allowed, k_out))
    if rng.random() < 0.3:
        family.append(_random_constraint(rng, rng.randint(1, m), k, k_out))
    rng.shuffle(family)
    cfg = GaloisConfig(k, n_max=n_max, m_max=3, breadth=n_max, codomain_size=k_out)
    return family, cfg, kinds


def test_search_drops_only_the_constraints_a_wider_one_implies():
    """On families of one-row deletions, the search finds the blind
    sweep's class with the steps of a search through the kept
    antecedents alone, cold and warm; a deletion whose consequent misses
    a projected tuple is kept.  Under a budget below the row deletions,
    it refuses there, at the step past the budget."""
    rng = random.Random(3232)
    seen = {"dropped": 0, "kept deletion": 0, "INF": 0, "members": 0, "empty": 0,
            "refused": 0}
    for _ in range(200):
        family, cfg, kinds = _deletion_case(rng)
        want, steps, deletions = blind_f_pol(family, cfg)
        _forget_compiles(family)
        cold, cold_done = _metered_outcome(f_pol, family, cfg)
        warm, warm_done = _metered_outcome(f_pol, family, cfg)
        assert cold == warm == want
        assert cold_done == warm_done
        assert cold_done.get("table search", 0) == steps
        assert cold_done.get("row deletions", 0) == deletions
        kept, _ = blind_kept(family, cfg.codomain_size)
        antecedents = {c.antecedent for c in family}
        seen["dropped"] += len(kept) < len(blind_merged(family, cfg.codomain_size))
        seen["kept deletion"] += "not implied" in kinds and any(
            blind_deleted(phi, i) in kept for phi in antecedents if phi.arity > 1
            for i in range(phi.arity))
        seen["INF"] += any(INF in (phi.default, *phi.exceptions.values()) for phi in antecedents)
        seen["members" if len(want) else "empty"] += 1
        for budget in range(min(deletions, 3)):
            for _ in ("cold", "warm"):
                assert _refusal(family, cfg, budget)[0] == ("row deletions", budget + 1, budget)
            seen["refused"] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("first", ["mismatched", "rejects all", "shared antecedent"])
def test_mismatched_constraint_is_reached_only_past_the_ones_before(first):
    # the reference checks a constraint's alphabet only on a table that
    # satisfies every constraint before it
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=2)
    rejects_all = GeneralizedConstraint(trivial_constraint(1, 2).antecedent, (), 2)
    mismatched = trivial_constraint(1, 3)
    family = [mismatched, rejects_all] if first == "mismatched" else [rejects_all, mismatched]
    if first == "shared antecedent":
        # an earlier constraint's antecedent, its consequent over another
        # codomain: it is refused, never merged into the earlier one
        allows_all = trivial_constraint(1, 2)
        family = [allows_all, GeneralizedConstraint(allows_all.antecedent, (), 3)]
    want = _outcome(ref_f_pol, family, cfg)
    assert _outcome(f_pol, family, cfg) == want
    if first == "mismatched":
        assert want == ("GaloisKitError",
                        "operation domain does not match the antecedent domain")
    elif first == "shared antecedent":
        assert want == ("GaloisKitError",
                        "operation codomain does not match the consequent alphabet")
    else:
        assert want == OperationClass(2)


def test_tables_are_charged_before_the_alphabets_are_checked():
    # a mismatched constraint is refused once some table satisfies the
    # constraints before it, here none; the search for that table is
    # charged first: two entries assigned, then the table's two entries
    cfg = GaloisConfig(2, n_max=3, m_max=1, breadth=3)
    with pytest.raises(BudgetExceededError) as info, Meter(3):
        f_pol([trivial_constraint(1, 3)], cfg)
    assert (info.value.phase, info.value.done) == ("table search", 4)
    with pytest.raises(GaloisKitError, match="operation domain"), Meter(4) as meter:
        f_pol([trivial_constraint(1, 3)], cfg)
    assert meter.done == {"table search": 4}


def _repeated_antecedents():
    """Six constraints on four distinct antecedents: two more consequents,
    one on an earlier antecedent object and one on an equal copy."""
    rng = random.Random(17)
    family = [_random_constraint(rng, 2, 2, 2) for _ in range(4)]
    phi = family[1].antecedent
    family.append(_random_constraint(rng, 2, 2, 2, family[0].antecedent))
    family.append(_random_constraint(rng, 2, 2, 2, RepetitionFunction(
        phi.arity, phi.domain_size, phi.default, phi.exceptions)))
    return family


@pytest.mark.parametrize("kind", ["repeated antecedents", "gc_inv(mono)"])
def test_each_antecedent_is_compiled_once_per_arity(kind):
    cfg = GaloisConfig(2, n_max=3, m_max=2, breadth=3)
    if kind == "gc_inv(mono)":
        family = gc_inv(OperationClass(2, members=_monotone_ops(2)), cfg)
    else:
        family = _repeated_antecedents()
    distinct = set(c.antecedent for c in family)
    assert len(distinct) < len(family)
    allowed = {}
    for c in family:
        allowed[c.antecedent] = allowed.get(c.antecedent, c.consequent) & c.consequent
    excluding = [phi for phi in distinct if len(allowed[phi]) < 2 ** phi.arity]
    assert 0 < len(excluding)
    for cold in (True, False):
        if cold:
            _forget_compiles(family)
        with Meter() as meter:
            f_pol(family, cfg)
        # an antecedent whose constraints allow every image is not compiled
        assert meter.done.get("constraint matrices", 0) == sum(
            len(list(enumerate_matrices_leq(phi, n))) for phi in excluding
            for n in range(1, 4))
        # a positive default lists the k^m tuples of m entries, once per arity
        assert meter.done.get("support tuples", 0) == 3 * sum(
            phi.arity * 2 ** phi.arity for phi in excluding if phi.default)


def _refusal(family, cfg, budget):
    with Meter(budget) as meter:
        try:
            f_pol(family, cfg)
        except BudgetExceededError as e:
            return (e.phase, e.done, e.budget), meter.done
    return None, meter.done


def test_warm_compile_refuses_as_the_cold_one_at_every_budget():
    # positive defaults: 24 support tuples and 8 or 63 matrices per
    # antecedent and arity, so budgets up to the matrices refuse
    # mid-compile in both compile phases; each consequent excludes one
    # image, so every antecedent is compiled
    family = [GeneralizedConstraint(RepetitionFunction(3, 2, INF, {t: 1}),
                                    set(product(range(2), repeat=3)) - {(1, 0, 1)}, 2)
              for t in [(0, 0, 0), (0, 1, 1), (1, 1, 0)]]
    cfg = GaloisConfig(2, n_max=2, m_max=3, breadth=2)
    _forget_compiles(family)
    with Meter() as meter:
        f_pol(family, cfg)
    phases = set()
    for budget in range(meter.done["constraint matrices"] + 1):
        _forget_compiles(family)
        cold = _refusal(family, cfg, budget)
        # warm: past the cold call's refusal, then with every arity kept
        assert _refusal(family, cfg, budget) == cold, budget
        _outcome(f_pol, family, cfg)
        assert _refusal(family, cfg, budget) == cold, budget
        phases.add(cold[0] and cold[0][0])
    assert {"support tuples", "constraint matrices"} <= phases, phases


def ref_read_groups(phi, n):
    """An antecedent's width-n groups, read on their own: the kept groups,
    with the kept "support tuples" and "constraint matrices" steps
    charged, if both fit the budget; otherwise a stream of ``_matrices``
    grouped by largest rank, its steps and groups kept in phi, so a kept
    read that does not fit refuses as the first read did."""
    tuples, matrices = "support tuples", "constraint matrices"
    meter = _current_meter()
    done, kept = meter.done, phi._ranks and phi._ranks.get(n)
    if kept:
        steps = done.get(tuples, 0) + kept[0], done.get(matrices, 0) + kept[1]
        if max(steps) <= meter.budget:
            if kept[0]:
                done[tuples] = steps[0]
            if kept[1]:
                done[matrices] = steps[1]
            return kept[2]
    with meter:
        before = done.get(tuples, 0), done.get(matrices, 0)
        groups = {}
        for _, _, ranks in multisets._matrices(phi, n):
            ranks = tuple(ranks)
            groups.setdefault(max(ranks), []).append(itemgetter(*ranks))
        kept = (done.get(tuples, 0) - before[0], done.get(matrices, 0) - before[1],
                tuple([(r, tuple(getters)) for r, getters in groups.items()]))
    if phi._ranks is None:
        phi._ranks = {}
    phi._ranks[n] = kept
    return kept[2]


def per_antecedent_checks(consequents, n):
    """The checks by rank that ``multisets._rank_checks`` returns, each
    antecedent's groups read in turn through ``ref_read_groups``, each
    read with its own fit test and charge."""
    checks = {}
    for phi, allowed in consequents:
        if phi.arity == 1:
            allowed = frozenset([x for x, in allowed])
        for r, getters in ref_read_groups(phi, n):
            checks.setdefault(r, []).extend(zip(getters, repeat(allowed)))
    return checks


def _read_widths(read, consequents, n_max, budget):
    """Each width's checks, up to n_max, read in turn under one meter,
    the getters shown by their ranks, then the refusal as (phase, done,
    budget) if one comes; and ``meter.done``."""
    got = []
    with Meter(budget) as meter:
        try:
            for n in range(1, n_max + 1):
                got.append({r: [(repr(get), allowed) for get, allowed in checks]
                            for r, checks in read(consequents, n).items()})
        except BudgetExceededError as e:
            got.append((e.phase, e.done, e.budget))
    return got, meter.done


def test_kept_read_per_width_matches_the_read_per_antecedent(monkeypatch):
    reads = []  # the antecedents _rank_checks compiles, by streaming
    compile_groups = multisets._rank_vectors
    monkeypatch.setattr(multisets, "_rank_vectors",
                        lambda phi, n: reads.append(phi) or compile_groups(phi, n))
    rng = random.Random(2929)
    seen = {"one-row": 0, "kept read": 0, "refused": 0, "mixed": 0}
    alphabets = set()  # (k, k_out)
    for _ in range(150):
        family, cfg = _asymmetric_case(rng)
        consequents = [(c.antecedent, c.consequent) for c in family]
        # cold: nothing is kept, so both read antecedent by antecedent
        _forget_compiles(family)
        cold = _read_widths(multisets._rank_checks, consequents, cfg.n_max, INF)
        _forget_compiles(family)
        assert _read_widths(per_antecedent_checks, consequents, cfg.n_max, INF) == cold
        # warm, at an unlimited budget, then, reading the widths up to n,
        # at the kept steps summed over them and one step below: every
        # kept read fits at the sums, and below them some kept read does
        # not, so its antecedent streams again
        warm = _read_widths(multisets._rank_checks, consequents, cfg.n_max, INF)
        assert warm == cold
        assert _read_widths(per_antecedent_checks, consequents, cfg.n_max, INF) == cold
        totals = [0, 0]
        for n in range(1, cfg.n_max + 1):
            for phi, _ in consequents:
                totals[0] += phi._ranks[n][0]
                totals[1] += phi._ranks[n][1]
            fits = max(totals)
            for budget in (fits, fits - 1) if fits else (fits,):
                del reads[:]
                got = _read_widths(multisets._rank_checks, consequents, n, budget)
                assert bool(reads) == (budget < fits)
                assert _read_widths(per_antecedent_checks, consequents, n, budget) == got
                seen["kept read"] += budget == fits
                seen["refused"] += isinstance(got[0][-1], tuple)
        # mixed: some antecedents kept by the reads above, the rest fresh
        if len(consequents) > 1:
            fresh = rng.sample(consequents, rng.randint(1, len(consequents) - 1))
            for budget in (INF, fits, fits - 1, fits // 2) if fits else (INF, fits):
                got = []
                for read in (multisets._rank_checks, per_antecedent_checks):
                    for phi, _ in fresh:
                        phi._ranks = None
                    got.append(_read_widths(read, consequents, cfg.n_max, budget))
                assert got[0] == got[1]
            seen["mixed"] += 1
        seen["one-row"] += any(phi.arity == 1 for phi, _ in consequents)
        alphabets.add((cfg.domain_size, cfg.codomain_size))
    assert min(seen.values()) >= 20, seen
    assert len(alphabets) == 9, alphabets


def test_sweep_refuses_in_its_own_phase():
    cfg = GaloisConfig(2, n_max=3, m_max=2, breadth=3)
    family = gc_inv(OperationClass(2, members=_monotone_ops(2)), cfg)
    with Meter() as meter:
        f_pol(family, cfg)
    steps = meter.done.pop("table search")
    budget = steps - 1
    assert max(meter.done.values()) <= budget  # every other phase fits
    with pytest.raises(BudgetExceededError) as info, Meter(budget):
        f_pol(family, cfg)
    # refused at the step past the budget, as Meter.counted refuses
    assert (info.value.phase, info.value.done) == ("table search", steps)


def test_monotone_frontier_answers_at_the_default_budget():
    # f_pol(gc_inv(mono)) at n_max=4, m_max=3: 805 constraints, 65,536 4-ary tables
    mono = OperationClass(2, members=_monotone_ops(2))
    cfg = GaloisConfig(2, n_max=4, m_max=3, breadth=4)
    with Meter(DEFAULT_BUDGET) as meter:
        got = f_pol(gc_inv(mono, cfg), cfg)
    assert {n: len(got.arity_part(n)) for n in got.arities()} == {1: 3, 2: 6, 3: 20, 4: 168}
    assert meter.done["table search"] <= DEFAULT_BUDGET


# Post's maximal Boolean clones as Pol of one relation R: the constraint
# whose antecedent is INF on R and 0 elsewhere, with consequent R; each
# count at arity n comes from its closed form, or from OEIS A000372
POST_CLONES = {
    "T0": ({(0,)}, lambda n: 2 ** (2 ** n - 1)),
    "T1": ({(1,)}, lambda n: 2 ** (2 ** n - 1)),
    "D": ({(0, 1), (1, 0)}, lambda n: 2 ** (2 ** (n - 1))),
    "M": ({(0, 0), (0, 1), (1, 1)}, lambda n: [3, 6, 20, 168][n - 1]),
    "L": ({t for t in product(range(2), repeat=4) if sum(t) % 2 == 0}, lambda n: 2 ** (n + 1)),
}


@pytest.mark.parametrize("clone", POST_CLONES)
def test_post_clones_are_pol_of_one_relational_constraint(clone):
    relation, count = POST_CLONES[clone]
    m = len(next(iter(relation)))
    constraint = GeneralizedConstraint(
        RepetitionFunction(m, 2, 0, {t: INF for t in relation}), relation, 2)
    cfg = GaloisConfig(2, n_max=4, m_max=1, breadth=4)
    with Meter(DEFAULT_BUDGET):
        got = f_pol([constraint], cfg)
    assert {n: len(got.arity_part(n)) for n in got.arities()} == {
        n: count(n) for n in range(1, 5)}


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
    entries, once per generator of cap at least 1 (a cap-0 generator
    admits only the empty multiset, so its box is not listed)."""
    k, m = cluster.domain_size, cluster.arity
    return sum(k ** m * m for g in cluster.generators if g.box.default and g.cap >= 1)


def blind_boxes(cluster, breadth):
    """The distinct boxes of the cluster as multisets, when every box is
    0 at all but finitely many tuples and finite at those, every tuple
    listed, and holds at most min(cap, breadth) elements; else None."""
    k, m = cluster.domain_size, cluster.arity
    boxes = set()
    for g in cluster.generators:
        counts = {t: g.box.value(t) for t in product(range(k), repeat=m) if g.box.value(t)}
        if g.box.default or INF in counts.values() or sum(counts.values()) > min(g.cap, breadth):
            return None
        boxes.add(FiniteMultiset(m, counts))
    return boxes


def _compile_counts(family, cfg, reached, answered):
    """The "cluster members" and "cluster splits" steps of ``c_pol``'s
    compile: each reached cluster over the configured domain lists, once,
    its distinct boxes if ``blind_boxes`` finds them, or else its members
    at the breadth cap, and, unless a cluster over another alphabet was
    reached, each listed S is split at every arity n <= n_max into its
    ordered selections of n columns."""
    listed = []
    for j in sorted(reached):
        if family[j].domain_size == cfg.domain_size:
            boxes = blind_boxes(family[j], cfg.breadth)
            listed.append(ref_enumerate_cluster_members(family[j], cfg.breadth)
                          if boxes is None else boxes)
    splits = sum(
        sum(1 for _ in recursive_ordered_selections(s.support(), s.multiplicity, n, {}))
        for members in listed for s in members for n in range(1, cfg.n_max + 1)
        if s.cardinality >= n)
    return {"cluster members": sum(map(len, listed)), "cluster splits": splits if answered else 0}


def test_compiled_c_pol_matches_reference_sweep():
    rng = random.Random(1717)
    seen = {"breadth": 0, "alphabet": 0, "every table": 0, "proper": 0}
    for _ in range(200):
        family, cfg = _random_cluster_case(rng)
        reached = set()
        want, want_done = _metered_outcome(ref_c_pol, family, cfg, reached)
        got, got_done = _metered_outcome(c_pol, family, cfg)
        assert got == want
        assert got_done.get("operation tables", 0) == want_done.get("operation tables", 0)
        counts = _compile_counts(family, cfg, reached, not isinstance(want, tuple))
        for phase, steps in counts.items():
            assert got_done.get(phase, 0) == steps, phase
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


def _box_cluster_case(rng):
    """1 to 3 clusters of 0 to 4 generators, each a finite default-0 box
    within its cap and the breadth, so ``c_pol`` lists the boxes; in the
    mixed cases one generator is changed so that its cluster is walked:
    a cap below its box's total, an INF count, a positive default, or a
    total past the breadth.  Also the change made, or "boxes"."""
    k = rng.choice([2, 2, 3])
    n_max = rng.randint(1, 2) if k == 2 else 1
    breadth = rng.randint(n_max, n_max + 2)
    family = []
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(1, 2)
        space = list(product(range(k), repeat=m))
        gens = []
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(0, breadth)
            box = RepetitionFunction(m, k, 0, multisets._counts(
                rng.choice(space) for _ in range(size)))
            gens.append(BoxedGenerator(box, rng.choice([size, size, size + 1, INF])))
        family.append((m, k, gens))
    kind = rng.choice(["boxes", "boxes", "cap below", "INF count", "positive default",
                       "past breadth"])
    m, k, gens = rng.choice(family)
    space = list(product(range(k), repeat=m))
    counts = {rng.choice(space): rng.randint(1, 2)}
    if kind == "cap below":
        gens.append(BoxedGenerator(RepetitionFunction(m, k, 0, counts),
                                   sum(counts.values()) - 1))
    elif kind == "INF count":
        gens.append(BoxedGenerator(RepetitionFunction(m, k, 0, {**counts, space[0]: INF}),
                                   rng.choice([breadth, INF])))
    elif kind == "positive default":
        gens.append(BoxedGenerator(RepetitionFunction(m, k, rng.choice([1, INF]), counts),
                                   rng.choice([breadth, INF])))
    elif kind == "past breadth":
        gens.append(BoxedGenerator(RepetitionFunction(m, k, 0, {space[-1]: breadth + 1}), INF))
    family = [Cluster(m, k, frozenset(gens)) for m, k, gens in family]
    return family, GaloisConfig(k, n_max=n_max, m_max=1, breadth=breadth), kind


def test_c_pol_compiles_the_boxes_or_walks():
    """On clusters of finite boxes, c_pol lists the distinct boxes, and
    walks every member of a cluster with a generator of another shape:
    it finds the blind sweep's class with the members and splits that
    ``_compile_counts`` gives, and walking every cluster instead
    merges tests that sweep alike, so they are the same tests."""
    rng = random.Random(4343)
    seen = dict.fromkeys(["boxes", "cap below", "INF count", "positive default",
                          "past breadth"], 0)
    seen.update({"all boxes": 0, "fewer members": 0, "proper": 0})
    for _ in range(150):
        family, cfg, kind = _box_cluster_case(rng)
        reached = set()
        want = _outcome(ref_c_pol, family, cfg, reached)
        got, got_done = _metered_outcome(c_pol, family, cfg)
        assert got == want
        for phase, steps in _compile_counts(family, cfg, reached, True).items():
            assert got_done.get(phase, 0) == steps, phase
        # a default-0 box that holds one count at most tuples is stored
        # with that count as its default, so "boxes" may walk too
        walked_some = any(blind_boxes(phi, cfg.breadth) is None for phi in family)
        assert walked_some or kind == "boxes"
        with patch.object(galois, "_boxes", lambda *args: None):
            walked, walked_done = _metered_outcome(c_pol, family, cfg)
        assert walked == got
        assert walked_done["sweep tests"] == got_done["sweep tests"]
        seen[kind] += 1
        seen["all boxes"] += not walked_some
        seen["fewer members"] += (walked_done.get("cluster members", 0)
                                  > got_done.get("cluster members", 0))
        every = sum(cfg.domain_size ** cfg.domain_size ** n for n in range(1, cfg.n_max + 1))
        seen["proper"] += len(want) < every
    assert min(seen.values()) >= 15, seen


# --- the compile of c_pol against the reference sweep, as a property ---

CAPS = st.sampled_from([0, 1, 2, 3, INF])


@st.composite
def boxes(draw, m, k):
    """A repetition function over k^m, its default 0 or positive."""
    space = list(product(range(k), repeat=m))
    exceptions = draw(st.dictionaries(st.sampled_from(space), st.sampled_from([0, 1, 2, 3, INF]),
                                      max_size=4))
    return RepetitionFunction(m, k, draw(st.sampled_from([0, 0, 1, 2, INF])), exceptions)


@st.composite
def random_clusters(draw, k):
    kind = draw(st.sampled_from(["boxed", "boxed", "boxed", "order", "empty", "trivial",
                                 "cl_inv"]))
    if kind == "order":
        chain = {(a, b) for a in range(k) for b in range(k) if a <= b}
        return order_cluster(draw(st.sampled_from([chain, {(a, a) for a in range(k)}])), k)
    if kind == "empty":
        return empty_cluster(draw(st.integers(1, 2)), k)
    if kind == "trivial":
        return trivial_cluster(draw(st.integers(1, 2)), draw(st.integers(0, 3)), k)
    if kind == "cl_inv":
        unary = list(all_operations(k, 1))
        members = draw(st.lists(st.sampled_from(unary), min_size=1, max_size=3))
        cfg = GaloisConfig(k, n_max=2 if k == 2 else 1, m_max=1, breadth=2)
        return draw(st.sampled_from(cl_inv(OperationClass(k, members=members), cfg)))
    m = draw(st.integers(1, 3 if k == 2 else 2))
    gens = draw(st.lists(st.builds(BoxedGenerator, boxes(m, k), CAPS), max_size=3))
    return Cluster(m, k, frozenset(gens))


@st.composite
def cluster_families(draw):
    """A family of 1 to 3 clusters over k = 2 or 3, now and then one over
    the other alphabet, and a config whose breadth may pass n_max by up
    to 2 or fall below it."""
    k = draw(st.sampled_from([2, 3]))
    n_max = draw(st.integers(1, 2)) if k == 2 else 1
    family = draw(st.lists(random_clusters(k), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        family.insert(draw(st.integers(0, len(family))), draw(random_clusters(5 - k)))
    breadth = draw(st.integers(max(n_max - 1, 1), n_max + (2 if k == 2 else 1)))
    return family, GaloisConfig(k, n_max=n_max, m_max=1, breadth=breadth)


@settings(max_examples=150, deadline=None)
@given(cluster_families())
@example(([Cluster(1, 2, frozenset({BoxedGenerator(RepetitionFunction(1, 2, 0, {(0,): 1}), 1)}))],
          GaloisConfig(2, n_max=1, m_max=1, breadth=1)))
@example(([order_cluster({(0, 0), (0, 1), (1, 1)}, 2), trivial_cluster(2, 0, 2)],
          GaloisConfig(2, n_max=2, m_max=1, breadth=3)))
# M2 may hold two copies of (0, 0), which the cap-3 box allows once
@example(([Cluster(2, 2, frozenset({
    BoxedGenerator(RepetitionFunction(2, 2, 2, {(1, 0): 0, (1, 1): 0}), INF),
    BoxedGenerator(RepetitionFunction(2, 2, 2, {(0, 0): 1}), 3)}))],
    GaloisConfig(2, n_max=2, m_max=1, breadth=4)))
def test_compiled_c_pol_matches_reference_on_random_families(case):
    family, cfg = case
    assert _outcome(c_pol, family, cfg) == _outcome(ref_c_pol, family, cfg)


# --- budgets -------------------------------------------------------------

@pytest.mark.parametrize("phase", ["cluster members", "cluster splits"])
def test_c_pol_compile_refuses_before_the_sweep(phase):
    # 185 members and 1,050 splits at breadth 3, past the 72 tables
    family = [order_cluster({(0, 0), (0, 1), (1, 1)}, 2)]
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=3)
    with Meter() as meter:
        c_pol(family, cfg)
    budget = meter.done[phase] - 1
    assert meter.done["operation tables"] <= budget
    if phase == "cluster splits":
        assert meter.done["cluster members"] <= budget
    with pytest.raises(BudgetExceededError) as info, Meter(budget) as meter:
        c_pol(family, cfg)
    assert (info.value.phase, info.value.done) == (phase, budget + 1)
    assert "sweep tests" not in meter.done


def test_c_pol_reads_the_members_in_any_order(monkeypatch):
    """c_pol reads each cluster's walked members in the order of the walk,
    and its boxes in the order of a set: its merged tests, its charges
    and its refusals do not depend on either order, so the members and
    the boxes reversed or sorted give the same class, the same
    ``meter.done`` and the same refusal at every budget."""
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=3)
    # the order cluster walks 185 members; cl_inv's two antichains give
    # 13 boxes
    family = [order_cluster({(0, 0), (0, 1), (1, 1)}, 2),
              *cl_inv(OperationClass(2, members=_monotone_ops(2)), cfg)]

    def outcomes():
        got = []
        # 198 members and 1,083 splits: the last four budgets refuse, two
        # in the splits, one in the boxes and one in the walk
        for budget in (DEFAULT_BUDGET, 1000, 300, 190, 150):
            with Meter(budget) as meter:
                try:
                    answer = c_pol(family, cfg)
                except BudgetExceededError as e:
                    answer = e.phase, e.done
            got.append((answer, meter.done))
        return got

    want = outcomes()
    assert [answer for answer, _ in want[1:]] == [
        ("cluster splits", 1001), ("cluster splits", 301), ("cluster members", 191),
        ("cluster members", 151)]
    members, boxes = galois._members, galois._boxes
    for order in (reversed, sorted):
        monkeypatch.setattr(galois, "_members", lambda *args: list(order(members(*args))))
        monkeypatch.setattr(galois, "_boxes", lambda *args: (
            None if (listed := boxes(*args)) is None else list(order(listed))))
        assert outcomes() == want


def test_c_pol_sweep_refuses_in_its_own_phase():
    cfg = GaloisConfig(2, n_max=3, m_max=1, breadth=3)
    family = cl_inv(OperationClass(2, members=_monotone_ops(2)), cfg)
    with Meter() as meter:
        c_pol(family, cfg)
    tests = meter.done.pop("sweep tests")
    budget = tests - 1
    assert max(meter.done.values()) <= budget  # every other phase fits
    with pytest.raises(BudgetExceededError) as info, Meter(budget):
        c_pol(family, cfg)
    assert info.value.phase == "sweep tests"
    assert budget < info.value.done <= tests


def test_monotone_cluster_frontier_answers_at_the_default_budget():
    # c_pol(cl_inv(mono)) at n_max=4: the Pol-Inv theorem for clusters
    # gives the composition closure, 65,536 4-ary candidate tables
    mono = OperationClass(2, members=_monotone_ops(2))
    cfg = GaloisConfig(2, n_max=4, m_max=1, breadth=4)
    with Meter(DEFAULT_BUDGET):
        got = c_pol(cl_inv(mono, cfg), cfg)
    assert got == close_composition(mono, 4)
    assert {n: len(got.arity_part(n)) for n in got.arities()} == {1: 3, 2: 6, 3: 19, 4: 102}


# --- the sweep and its candidates against their earlier forms ---

def ref_sweep(tests, tables, k_out):
    """The tables meeting every test: ``tests`` maps a rank vector to the
    image tuples allowed there, a table's image being its entries at the
    ranks.

    Each table meets the tests most restrictive first (the smallest share
    of the k_out^m tuples allowed, ties by rank vector), so a rejected
    table usually fails its first few; each test evaluated is a "sweep
    tests" step.
    """
    tests = sorted(tests.items(), key=lambda t: (_share(t[1], k_out ** len(t[0])), t[0]))
    meter = _current_meter()
    for table in tables:
        for i, (ranks, allowed) in enumerate(tests):
            if tuple([table[r] for r in ranks]) not in allowed:
                meter.charge("sweep tests", i + 1)
                break
        else:
            meter.charge("sweep tests", len(tests))
            yield table


@st.composite
def sweep_cases(draw):
    """(tests, tables, k_out, budget): rank vectors of 1 to 3 ranks,
    repeats allowed, each allowing a set of images, an empty one
    included, or every image but a set."""
    k_out, length = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(st.integers(0, length - 1), min_size=1, max_size=3)
                            .map(tuple), unique=True, max_size=6))
    tests = {}
    for ranks in vectors:
        images = draw(st.frozensets(st.tuples(*[st.integers(0, k_out - 1)] * len(ranks)),
                                    max_size=k_out ** len(ranks)))
        tests[ranks] = _Excluding(images) if draw(st.booleans()) else images
    tables = draw(st.lists(st.tuples(*[st.integers(0, k_out - 1)] * length), max_size=12))
    return tests, tables, k_out, draw(st.sampled_from([0, 1, 2, 5, 20, INF]))


def _swept(sweep, tests, tables, k_out, budget):
    """The tables a sweep yields, then its refusal as (phase, done,
    budget) if it refuses, and the steps it charged."""
    got = []
    with Meter(budget) as meter:
        try:
            got.extend(sweep(dict(tests), iter(tables), k_out))
        except BudgetExceededError as e:
            got.append((e.phase, e.done, e.budget))
    return got, meter.done


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
@example(({(0,): frozenset({(1,)}), (1, 1): _Excluding({(0, 0)})},
          [(0, 0), (1, 0), (1, 1)], 2, INF))
@example(({(0,): _Excluding({(0,)}), (0, 1): frozenset()}, [(0, 1), (1, 1)], 2, 2))
def test_sweep_matches_reference(case):
    tests, tables, k_out, budget = case
    assert (_swept(galois._sweep, tests, tables, k_out, budget)
            == _swept(ref_sweep, tests, tables, k_out, budget))


def field_types(op):
    """The types of an operation's fields and of its table's entries."""
    return (type(op.domain_size), type(op.codomain_size), type(op.arity), type(op.table),
            *map(type, op.table))


def test_unchecked_candidates_equal_checked_operations():
    for k, k_out, n in product(range(1, 4), range(1, 4), range(1, 3)):
        got = list(all_operations(k, n, k_out))
        want = [Operation(k, k_out, n, t) for t in product(range(k_out), repeat=k ** n)]
        assert got == want
        assert list(map(hash, got)) == list(map(hash, want))
        assert list(map(repr, got)) == list(map(repr, want))
        assert list(map(field_types, got)) == list(map(field_types, want))
