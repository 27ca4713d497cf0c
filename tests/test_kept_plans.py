"""What a round trip keeps per configuration answers and charges as a
fresh build does: ``f_pol``'s merge plan against the dict merge it
replaced, the kept scaled vectors of the cluster kernels against fresh
ones, and a cluster's kept walk against a fresh compile and walk."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from galois_kit import (
    INF, BoxedGenerator, BudgetExceededError, Cluster, GaloisConfig,
    GeneralizedConstraint, Meter, Operation, OperationClass, RepetitionFunction, f_pol, gc_inv,
    order_cluster, satisfies_cluster, separating_cluster,
)
from galois_kit import clusters, galois
from galois_kit.errors import _current_meter
from galois_kit.extnat import power_upto
from galois_kit.repetition import _row_deletions
from galois_kit.verify import _monotone_ops


# --- the oracle: the merge by a dict of antecedents ----------------------

def ref_unimplied(consequents):
    """The merged ``(phi, allowed)`` pairs of a dict, in order, less each
    one that a pair of one more row implies; each deletion looked up is
    one "row deletions" step, and one found among the pairs still kept is
    |S_A| more, refused at the step past the budget."""
    meter, phase = _current_meter(), "row deletions"
    room, taken = meter.room(phase), 0
    kept = dict(consequents)
    for phi, allowed in consequents.items():
        if phi.arity < 2:
            continue
        for psi, get in _row_deletions(phi):
            held = kept.get(psi)
            taken += 1 if held is None else 1 + len(allowed)
            if taken > room:
                meter.refuse(phase, room)
            if held is not None and held.issuperset(map(get, allowed)):
                del kept[psi]
    if taken:
        meter.charge(phase, taken)
    return list(kept.items())


def ref_merged(constraints, k_out):
    """The constraints merged in a dict by antecedent, less those that
    allow every image, then ``ref_unimplied``."""
    consequents = {}
    for c in constraints:
        allowed = consequents.get(c.antecedent)
        consequents[c.antecedent] = c.consequent if allowed is None else allowed & c.consequent
    return ref_unimplied({phi: allowed for phi, allowed in consequents.items()
                          if power_upto(k_out, phi.arity, len(allowed) + 1) > len(allowed)})


def _metered(call, budget=INF):
    """call()'s answer, or its refusal as (phase, done), and ``meter.done``."""
    with Meter(budget) as meter:
        try:
            got = call()
        except BudgetExceededError as e:
            got = (e.phase, e.done)
    return got, meter.done


def _answer(got):
    """An f_pol answer as its (arity, table) pairs, or a refusal as it is."""
    return got._pairs() if isinstance(got, OperationClass) else got


@st.composite
def antecedent_boxes(draw, m, k):
    """A repetition function over k^m with a default of 0 or positive and
    counts that may be INF."""
    space = list(product(range(k), repeat=m))
    exceptions = draw(st.dictionaries(st.sampled_from(space),
                                      st.sampled_from([0, 1, 2, 3, INF]), max_size=4))
    return RepetitionFunction(m, k, draw(st.sampled_from([0, 0, 1, 2, INF])), exceptions)


@st.composite
def merge_cases(draw):
    """(constraints, cfg): constraints over one alphabet, shuffled, whose
    antecedents are gc_inv's matrices (``galois._antecedent``), equal
    copies of them built afresh, or other boxes, one-row ones among them;
    a matrix's consequent is mostly the images of a few tables at its
    rows, and some matrices are earlier ones less a row, so wider
    constraints often imply narrower ones; some allow every image."""
    k = draw(st.sampled_from([1, 2, 2, 3]))
    k_out = draw(st.sampled_from([1, 2, 2, 3]))
    n = draw(st.integers(1, 2))
    width = k ** n
    tables = draw(st.lists(st.tuples(*[st.integers(0, k_out - 1)] * width),
                           min_size=1, max_size=4))
    constraints, rows = [], []  # rows: those of each matrix so far
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["matrix", "matrix", "row less", "box", "copy", "again"]))
        ranks = None  # the rows of a matrix, whose images of the tables imply its deletions'
        wide = [r for r in rows if len(r) > 1]
        if kind == "row less" and wide:
            ranks = draw(st.sampled_from(wide))
            ranks = ranks[:1] + ranks[2:] if draw(st.booleans()) else ranks[1:]
            phi = galois._antecedent(k, n, ranks)
        elif kind in ("copy", "again") and constraints:
            phi = draw(st.sampled_from(constraints)).antecedent
            if kind == "copy":  # an equal antecedent that is another object
                phi = RepetitionFunction(phi.arity, phi.domain_size, phi.default, phi.exceptions)
        elif kind == "box":
            phi = draw(antecedent_boxes(draw(st.integers(1, 3 if k < 3 else 2)), k))
        else:
            m = draw(st.integers(1, min(3, width)))
            ranks = tuple(sorted(draw(st.sets(st.integers(0, width - 1), min_size=m, max_size=m))))
            phi = galois._antecedent(k, n, ranks)
        if ranks:
            rows.append(ranks)
        space = list(product(range(k_out), repeat=phi.arity))
        how = draw(st.sampled_from(["tables", "tables", "tables", "tables", "every", "some"]))
        if how == "tables" and phi.arity <= width:
            ranks = ranks or draw(st.permutations(range(width)))[:phi.arity]
            images = {tuple([t[r] for r in ranks]) for t in tables}
        elif how == "every":
            images = space
        else:
            images = draw(st.sets(st.sampled_from(space), max_size=len(space)))
        constraints.append(GeneralizedConstraint(phi, images, k_out))
    constraints = draw(st.permutations(constraints))
    # at most 4,096 tables of the top arity, so f_pol stays quick
    n_max = max(j for j in (1, 2) if k_out ** (k ** j) <= 4096)
    return constraints, GaloisConfig(k, n_max=draw(st.integers(1, n_max)), m_max=1, breadth=2,
                                     codomain_size=k_out)


def _budgets(steps):
    """Budgets that run out inside a phase of ``steps`` steps, and one
    that does not."""
    return sorted({0, steps // 2, max(steps - 1, 0), steps, INF})


@settings(max_examples=200, deadline=None)
@given(merge_cases())
@example(([GeneralizedConstraint(galois._antecedent(2, 1, (0, 1)), {(0, 1), (1, 1)}, 2),
           GeneralizedConstraint(galois._antecedent(2, 1, (1,)), {(1,)}, 2)],
          GaloisConfig(2, n_max=1, m_max=1, breadth=2)))
def test_the_plan_merges_as_the_dict_merge(case):
    constraints, cfg = case
    k_out = cfg.codomain_size
    want, done = _metered(lambda: ref_merged(constraints, k_out))
    galois._kept_plan.cache_clear()
    for run in ("cold", "warm"):
        assert _metered(lambda: galois._merged(constraints, k_out)) == (want, done), run
    # antecedents compare by value: a kept plan holds the equal ones seen first
    for budget in _budgets(done.get("row deletions", 0)):
        want = _metered(lambda: ref_merged(constraints, k_out), budget)
        galois._kept_plan.cache_clear()
        for run in ("cold", "warm"):
            assert _metered(lambda: galois._merged(constraints, k_out), budget) == want, (
                run, budget)


@settings(max_examples=100, deadline=None)
@given(merge_cases())
def test_f_pol_answers_and_charges_as_with_the_dict_merge(case):
    constraints, cfg = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(galois, "_merged", ref_merged)
        want = _metered(lambda: f_pol(constraints, cfg))
        outcomes = [_metered(lambda: f_pol(constraints, cfg), budget)
                    for budget in _budgets(want[1].get("row deletions", 0))]
    galois._kept_plan.cache_clear()
    for run in ("cold", "warm"):
        got = _metered(lambda: f_pol(constraints, cfg))
        assert (_answer(got[0]), got[1]) == (_answer(want[0]), want[1]), run
    galois._kept_plan.cache_clear()
    for run in ("cold", "warm"):
        got = [_metered(lambda: f_pol(constraints, cfg), budget)
               for budget in _budgets(want[1].get("row deletions", 0))]
        assert ([(_answer(a), d) for a, d in got]
                == [(_answer(a), d) for a, d in outcomes]), run


def test_the_plan_reads_positions_not_antecedents():
    # gc_inv's 18 antecedents at (k=2, n_max=2, m_max=4), each once and in
    # order; every row deletion of a matrix is the matrix of the rows left
    cfg = GaloisConfig(2, n_max=2, m_max=4, breadth=2)
    got = gc_inv(OperationClass(2, members=_monotone_ops(2)), cfg)
    antecedents = tuple([c.antecedent for c in got])
    galois._kept_plan.cache_clear()
    galois._merged(got, 2)
    distinct, positions, spaces, links = galois._kept_plan(2, antecedents)
    # two matrices whose columns are one multiset in two orders share chi_M
    assert distinct == tuple(dict.fromkeys(antecedents)) and len(distinct) == 14
    assert [distinct[j] for j in positions] == list(antecedents)
    assert spaces == tuple([2 ** phi.arity for phi in distinct])
    assert [len(deletions) for deletions in links] == [
        phi.arity if phi.arity > 1 else 0 for phi in distinct]
    absent = len(distinct)
    assert all(i < absent and distinct[i] == psi
               for phi, deletions in zip(distinct, links) if phi.arity > 1
               for (i, _), (psi, _) in zip(deletions, _row_deletions(phi)))
    # the next class's call reads the same plan
    galois._merged(gc_inv(OperationClass(2), cfg), 2)
    assert galois._kept_plan.cache_info()[:2] == (2, 1)


def test_a_sequence_of_more_than_4096_antecedents_keeps_no_plan():
    # gc_inv at n_max=5 gives 6,293 antecedents
    cfg = GaloisConfig(2, n_max=5, m_max=3, breadth=5)
    constraints = gc_inv(OperationClass(2), cfg)
    galois._kept_plan.cache_clear()
    for size in (4097, len(constraints)):
        galois._merged(constraints[:size], 2)
    assert galois._kept_plan.cache_info().currsize == 0
    galois._merged(constraints[:4096], 2)
    assert galois._kept_plan.cache_info().currsize == 1


# --- the kept scaled vectors and a cluster's kept walk ------------------

@st.composite
def interleaved_checks(draw):
    """A run of (f, cluster, breadth cap) checks over k = 1 to 3 and
    operation arities 1 to 3, some clusters checked more than once at
    several caps."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.sampled_from([1, 2, 2, 3]))
        if k > 1 and draw(st.integers(0, 4)) == 0:
            cluster = order_cluster({(a, b) for a in range(k) for b in range(k) if a <= b}, k)
        else:
            m = draw(st.integers(1, 3 if k < 3 else 2))
            gens = draw(st.lists(st.builds(BoxedGenerator, antecedent_boxes(m, k),
                                           st.sampled_from([0, 1, 2, 3, INF])),
                                 min_size=1, max_size=3))
            cluster = Cluster(m, k, frozenset(gens))
        pool.append(cluster)
    checks = []
    for _ in range(draw(st.integers(1, 8))):
        cluster = draw(st.sampled_from(pool))
        k = cluster.domain_size
        n = draw(st.integers(1, 3 if k < 3 else 2))
        table = tuple(draw(st.lists(st.integers(0, k - 1), min_size=k ** n, max_size=k ** n)))
        checks.append((Operation(k, k, n, table), cluster, draw(st.integers(n, n + 1))))
    return checks


def _checked(checks, budget=INF):
    """Each check's verdict and witness, or refusal, with ``meter.done``."""
    out = []
    for f, cluster, cap in checks:
        got, done = _metered(lambda: satisfies_cluster(f, cluster, cap), budget)
        out.append(((got.satisfied, got.witness) if hasattr(got, "witness") else got, done))
    return out


@settings(max_examples=150, deadline=None)
@given(interleaved_checks(), st.sampled_from([2, 8, clusters._KEEP_SCALED]))
def test_kept_scaled_vectors_and_walks_check_as_fresh_ones(checks, bound):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusters, "_kept_scaled", lambda k, n: clusters._Scaled(k, n))
        # a fresh copy of each cluster has no kept walk
        fresh = [(f, Cluster(c.arity, c.domain_size, c.generators), cap)
                 for f, c, cap in checks]
        want = _checked(fresh)
        members = max(done.get("cluster members", 0) for _, done in want)
        refused = _checked([(f, Cluster(c.arity, c.domain_size, c.generators), cap)
                            for f, c, cap in checks], max(members - 1, 0))
    clusters._kept_scaled.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clusters, "_KEEP_SCALED", bound)
        assert _checked(checks) == want
        assert _checked(checks, max(members - 1, 0)) == refused


def test_kept_scaled_vectors_hold_at_most_the_bound(monkeypatch):
    monkeypatch.setattr(clusters, "_KEEP_SCALED", 10)
    scaled = clusters._Scaled(2, 3)  # two vectors of m entries per m-tuple
    assert scaled[(1, 0)] == [(4, 0), (2, 0)]
    assert (list(scaled), scaled.held) == ([(1, 0)], 5)
    assert scaled[(1, 1, 1, 1, 1)] == [(4,) * 5, (2,) * 5]  # 11: never kept
    assert (list(scaled), scaled.held) == ([(1, 0)], 5)
    scaled[(0, 1)]
    assert (list(scaled), scaled.held) == ([(1, 0), (0, 1)], 10)
    scaled[(1, 1)]  # would pass the bound: the entries before it are dropped
    assert (list(scaled), scaled.held) == ([(1, 1)], 5)


def test_separating_cluster_compiles_and_walks_its_cluster_once(monkeypatch):
    cls_ = OperationClass(2, members=_monotone_ops(2))
    g = Operation(2, 2, 2, (1, 0, 0, 0))
    cfg = GaloisConfig(2, n_max=2, m_max=1, breadth=3)
    want = _metered(lambda: separating_cluster(cls_, g, cfg))
    compiles, walks = [], []
    compile_cluster, walk = clusters._compiled_cluster, clusters._members
    monkeypatch.setattr(clusters, "_compiled_cluster",
                        lambda c: compiles.append(c) or compile_cluster(c))
    monkeypatch.setattr(clusters, "_members", lambda *args: walks.append(args) or walk(*args))
    assert _metered(lambda: separating_cluster(cls_, g, cfg)) == want
    # 6 binary and 3 unary members of the closure are checked
    assert (len(compiles), len(walks)) == (1, 1)
    # with nothing kept, each check compiles and walks again, and charges alike
    del compiles[:], walks[:]
    monkeypatch.setattr(clusters, "_KEEP", -1)
    assert _metered(lambda: separating_cluster(cls_, g, cfg)) == want
    assert len(compiles) == len(walks) == 9
    assert want[1]["cluster members"] == 9 * 15


def test_a_kept_walk_is_read_only_at_its_breadth_cap():
    box = RepetitionFunction(2, 2, 0, {(0, 0): 2, (1, 1): 1})
    cluster = Cluster(2, 2, frozenset({BoxedGenerator(box, 3)}))
    f = Operation(2, 2, 1, (1, 0))
    rng = random.Random(7)
    caps = [rng.choice([1, 2, 3]) for _ in range(12)]
    fresh = [_metered(lambda: satisfies_cluster(f, Cluster(2, 2, cluster.generators), cap))
             for cap in caps]
    assert [_metered(lambda: satisfies_cluster(f, cluster, cap)) for cap in caps] == fresh
    assert cluster.__dict__["_walked"][0] == caps[-1]
    # a positive default's support is charged by the compile: nothing is kept
    positive = Cluster(1, 2, frozenset({BoxedGenerator(RepetitionFunction(1, 2, 1), 2)}))
    satisfies_cluster(f, positive, 2)
    assert "_walked" not in positive.__dict__


def test_a_refused_walk_is_not_kept():
    box = RepetitionFunction(2, 2, 0, {(0, 0): 3})
    cluster = Cluster(2, 2, frozenset({BoxedGenerator(box, 3)}))
    f = Operation(2, 2, 1, (0, 0))
    with pytest.raises(BudgetExceededError), Meter(2):
        satisfies_cluster(f, cluster, 3)
    assert "_walked" not in cluster.__dict__
