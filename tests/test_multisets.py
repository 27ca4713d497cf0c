import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations_with_replacement, permutations, product

from galois_kit import (
    INF,
    BudgetExceededError,
    FiniteMultiset,
    GaloisConfig,
    GaloisKitError,
    Meter,
    Operation,
    OperationClass,
    RepetitionFunction,
    TupleMatrix,
    apply_op_rows,
    cl_inv,
    columns_multiset,
    enumerate_matrices_leq,
    ms_join,
    split_enumerate,
)
from galois_kit.multisets import _compiled, _walk
from galois_kit.verify import _monotone_ops
from multiset_oracles import (
    bounded_multisets,
    ms_diff,
    ms_partitions,
    ms_sub,
    narrowing_walk,
    recursive_nondecreasing_selections,
)

pairs = st.tuples(st.integers(0, 1), st.integers(0, 1))
multisets = st.dictionaries(pairs, st.integers(0, 3), max_size=4).map(
    lambda d: FiniteMultiset(2, d)
)


class TestFiniteMultiset:
    def test_zero_counts_dropped(self):
        s = FiniteMultiset(2, {(0, 0): 0, (0, 1): 2})
        assert s.counts == {(0, 1): 2}
        assert s == FiniteMultiset(2, {(0, 1): 2})

    def test_cardinality_and_elements(self):
        s = FiniteMultiset.from_tuples(2, [(0, 1), (0, 1), (1, 1)])
        assert s.cardinality == 3
        assert s.elements() == [(0, 1), (0, 1), (1, 1)]

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(GaloisKitError):
            FiniteMultiset(2, {(0, 0): -1})

    @given(multisets, multisets)
    def test_join_commutes(self, a, b):
        assert ms_join(a, b) == ms_join(b, a)

    @given(multisets, multisets)
    def test_diff_then_join_bounds(self, a, b):
        assert ms_sub(ms_diff(a, b), a)
        assert ms_sub(a, ms_join(ms_diff(a, b), b))

    @given(multisets, multisets)
    def test_sub_iff_pointwise(self, a, b):
        expected = all(
            a.multiplicity(t) <= b.multiplicity(t) for t in a.counts
        )
        assert ms_sub(a, b) == expected

    @given(multisets, multisets)
    def test_join_cancels_exactly(self, a, b):
        assert ms_diff(ms_join(a, b), b) == a


class TestPartitions:
    def count(self, tuples):
        return len(ms_partitions(FiniteMultiset.from_tuples(1, tuples)))

    def test_identical_elements_give_integer_partitions(self):
        # partitions of n identical items: 1, 2, 3, 5
        assert self.count([(0,)]) == 1
        assert self.count([(0,)] * 2) == 2
        assert self.count([(0,)] * 3) == 3
        assert self.count([(0,)] * 4) == 5

    def test_distinct_elements_give_bell_numbers(self):
        assert self.count([(0,), (1,)]) == 2
        s = FiniteMultiset.from_tuples(1, [(0,), (1,), (2,)])
        assert len(ms_partitions(s)) == 5

    def test_blocks_rebuild_the_multiset(self):
        s = FiniteMultiset.from_tuples(1, [(0,), (0,), (1,)])
        for blocks in ms_partitions(s):
            acc = FiniteMultiset.empty(1)
            for b in blocks:
                assert b.counts
                acc = ms_join(acc, b)
            assert acc == s

    def test_empty_multiset_has_one_partition(self):
        assert ms_partitions(FiniteMultiset.empty(1)) == [()]


class TestTupleMatrix:
    def test_from_rows_transposes(self):
        m = TupleMatrix.from_rows([(0, 1), (1, 1), (0, 0)])
        assert m.columns == ((0, 1, 0), (1, 1, 0))
        assert m.rows() == [(0, 1), (1, 1), (0, 0)]

    def test_ragged_rows_rejected(self):
        with pytest.raises(GaloisKitError):
            TupleMatrix.from_rows([(0, 1), (1,)])

    def test_apply_op_rows(self):
        land = Operation(2, 2, 2, (0, 0, 0, 1))
        m = TupleMatrix.from_rows([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert apply_op_rows(land, m) == (0, 0, 0, 1)

    def test_apply_op_rows_arity_checked(self):
        land = Operation(2, 2, 2, (0, 0, 0, 1))
        with pytest.raises(GaloisKitError):
            apply_op_rows(land, TupleMatrix(2, ((0, 1),)))


class TestEnumerateMatrices:
    def brute(self, phi, n):
        """Oracle: filter the full matrix space by the column bound."""
        tuples = list(product(range(phi.domain_size), repeat=phi.arity))
        out = []
        for cols in product(tuples, repeat=n):
            counts = {}
            for c in cols:
                counts[c] = counts.get(c, 0) + 1
            if all(v <= phi.value(t) for t, v in counts.items()):
                out.append(cols)
        return sorted(out)

    def test_matches_brute_force(self):
        phi = RepetitionFunction(2, 2, 0, {(0, 0): 2, (1, 0): 1})
        for n in (1, 2, 3):
            got = sorted(m.columns for m in enumerate_matrices_leq(phi, n))
            assert got == self.brute(phi, n)

    def test_no_duplicates_and_deterministic(self):
        phi = RepetitionFunction(1, 2, 2)
        first = [m.columns for m in enumerate_matrices_leq(phi, 2)]
        second = [m.columns for m in enumerate_matrices_leq(phi, 2)]
        assert first == second
        assert len(first) == len(set(first))

    def test_zero_function_yields_nothing(self):
        phi = RepetitionFunction(2, 2, 0)
        assert list(enumerate_matrices_leq(phi, 1)) == []

    PHI = RepetitionFunction(2, 2, 0, {(0, 0): 2, (0, 1): 1, (1, 1): INF})

    def test_refused_past_the_budget(self):
        # PHI's default is inf, so its 4 tuples of 2 entries, 8 support tuple
        # steps, are charged first and fit
        with pytest.raises(BudgetExceededError) as info, Meter(8):
            list(enumerate_matrices_leq(self.PHI, 3))
        assert (info.value.phase, info.value.done) == ("constraint matrices", 9)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, 0, INF, "2"])
    def test_column_count_must_be_a_positive_int(self, n):
        # PHI has an INF entry: a count of 1.5 recursed without end, and
        # 2.0 read as 2
        with pytest.raises(GaloisKitError, match="column count must be positive: an int"), \
                Meter(10 ** 9) as meter:
            list(enumerate_matrices_leq(self.PHI, n))
        assert meter.done == {}

    def test_charges_each_matrix(self):
        matrices = len(self.brute(self.PHI, 3))
        with Meter(10 ** 9) as meter:
            assert len(list(enumerate_matrices_leq(self.PHI, 3))) == matrices
        assert meter.done["constraint matrices"] == matrices


class TestSplitEnumerate:
    def test_all_ordered_selections_covered(self):
        s = FiniteMultiset.from_tuples(1, [(0,), (0,), (1,)])
        got = {
            (m1.columns, tuple(sorted(m2.counts.items())))
            for m1, m2 in split_enumerate(s, 2)
        }
        expected = set()
        for sel in set(permutations(s.elements(), 2)):
            rest = ms_diff(s, FiniteMultiset.from_tuples(1, sel))
            expected.add((sel, tuple(sorted(rest.counts.items()))))
        assert got == expected

    def test_remainder_plus_selection_is_whole(self):
        s = FiniteMultiset.from_tuples(2, [(0, 1), (1, 1), (1, 1)])
        for m1, m2 in split_enumerate(s, 2):
            assert ms_join(columns_multiset(m1), m2) == s

    def test_too_small_multiset_yields_nothing(self):
        s = FiniteMultiset.from_tuples(1, [(0,)])
        assert list(split_enumerate(s, 2)) == []

    S = FiniteMultiset.from_tuples(1, [(0,), (0,), (1,), (2,)])

    def test_refused_past_the_budget(self):
        with pytest.raises(BudgetExceededError) as info, Meter(5):
            list(split_enumerate(self.S, 3))
        assert (info.value.phase, info.value.done) == ("cluster splits", 6)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, 0, INF, "2"])
    def test_selection_size_must_be_a_positive_int(self, n):
        # a size of 1.5 yielded nothing, and 2.0 read as 2
        s = FiniteMultiset(2, {(0, 1): 2, (1, 0): 1})
        with pytest.raises(GaloisKitError, match="selection size must be positive: an int"), \
                Meter(10 ** 9) as meter:
            list(split_enumerate(s, n))
        assert meter.done == {}

    def test_charges_each_split(self):
        splits = len(set(permutations(self.S.elements(), 3)))
        with Meter(10 ** 9) as meter:
            assert len(list(split_enumerate(self.S, 3))) == splits
        assert meter.done == {"cluster splits": splits}


def random_box(rng, arity, k=2):
    """A random support with random per-tuple bounds, some infinite."""
    tuples = list(product(range(k), repeat=arity))
    support = sorted(rng.sample(tuples, rng.randint(0, len(tuples))))
    bounds = {t: rng.choice((0, 1, 2, 3, INF)) for t in support}
    return support, bounds


class TestBoundedMultisets:
    """The recursive reference stream lists every bounded multiset once;
    ``TestStreamOrder`` holds the library's walk to that stream."""

    def oracle(self, arity, support, bounds, cap):
        """combinations_with_replacement filtered by the bounds and the cap."""
        top = cap if cap != INF else sum(bounds.values())
        out = []
        for r in range(int(top) + 1):
            for combo in combinations_with_replacement(support, r):
                s = FiniteMultiset.from_tuples(arity, combo)
                if all(c <= bounds[t] for t, c in s.counts.items()):
                    out.append(s)
        return out

    def test_matches_oracle_on_random_boxes(self):
        rng = random.Random(17)
        for _ in range(200):
            arity = rng.randint(1, 2)
            support, bounds = random_box(rng, arity)
            if INF in bounds.values():
                cap = rng.choice((0, 1, 2, 3, 4))
            else:
                cap = rng.choice((0, 1, 2, 3, 4, INF))
            got = list(bounded_multisets(arity, support, bounds.get, cap))
            expected = self.oracle(arity, support, bounds, cap)
            assert got[0] == FiniteMultiset.empty(arity)
            assert len(got) == len(set(got))
            assert set(got) == set(expected)

    def test_cap_zero_yields_only_the_empty_multiset(self):
        got = list(bounded_multisets(1, [(0,), (1,)], lambda t: INF, 0))
        assert got == [FiniteMultiset.empty(1)]


class TestStreamOrder:
    """The first witness of every check depends on these stream orders."""

    def test_matrices_in_increasing_lexicographic_order(self):
        rng = random.Random(23)
        for _ in range(50):
            arity = rng.randint(1, 2)
            support, bounds = random_box(rng, arity)
            phi = RepetitionFunction(arity, 2, 0, bounds)
            for n in (1, 2, 3):
                seq = [m.columns for m in enumerate_matrices_leq(phi, n)]
                assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_splits_in_increasing_lexicographic_order(self):
        rng = random.Random(29)
        for _ in range(50):
            arity = rng.randint(1, 2)
            tuples = list(product(range(2), repeat=arity))
            s = FiniteMultiset(arity, {t: rng.randint(0, 3) for t in tuples})
            for n in (1, 2, 3):
                seq = [m1.columns for m1, _ in split_enumerate(s, n)]
                assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_nondecreasing_selections_match_the_recursive_stream(self):
        # the member walk over one box with no cardinality cap is the
        # selection stream of that box, item for item
        rng = random.Random(31)
        for _ in range(300):
            arity = rng.randint(1, 2)
            k = rng.randint(2, 3)
            support, bounds = random_box(rng, arity, k=k)
            cap = rng.choice((0, 1, 2, 3, 4, 6))
            caps, allows, exact = _compiled([(RepetitionFunction(arity, k, 0, bounds), INF)])
            counts, chosen = {}, []
            got = [(tuple(chosen), dict(counts), live)
                   for live in _walk(caps, allows, exact, cap, counts, chosen)]
            want = recursive_nondecreasing_selections(support, bounds.get, cap)
            assert got == [(cols, c, 1) for cols, c in want]
            assert counts == {} and chosen == []


def _walk_stream(walk, compiled, top):
    """Each yield of the walk as (live, chosen, counts items), copied."""
    counts, chosen = {}, []
    return [(live, tuple(chosen), tuple(counts.items()))
            for live in walk(*compiled, top, counts, chosen)]


@st.composite
def compiled_generators(draw):
    """The ``_compiled`` masks of 0-4 random (box, cap) pairs in ascending
    cap order: caps 0-4 or inf, boxes whose default is 0, positive or inf,
    with random exceptions."""
    arity, k = draw(st.integers(1, 2)), draw(st.integers(2, 3))
    space = list(product(range(k), repeat=arity))
    values = st.sampled_from((0, 1, 2, 3, INF))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        default = draw(st.sampled_from((0, 1, 2, INF)))
        exceptions = draw(st.dictionaries(st.sampled_from(space), values))
        cap = draw(st.sampled_from((0, 1, 2, 3, 4, INF)))
        gens.append((RepetitionFunction(arity, k, default, exceptions), cap))
    return _compiled(sorted(gens, key=lambda g: g[1]))


@settings(max_examples=300, deadline=None)
@given(compiled_generators(), st.integers(0, 5))
def test_walk_matches_the_narrowing_walk(compiled, top):
    # one scan of the sorted candidates skips what narrowing dropped
    assert _walk_stream(_walk, compiled, top) == _walk_stream(narrowing_walk, compiled, top)


@lru_cache(maxsize=1)
def _mono_invariant_clusters():
    cfg = GaloisConfig(2, n_max=4, m_max=1, breadth=4)
    return cl_inv(OperationClass(2, members=_monotone_ops(2)), cfg)


@pytest.mark.parametrize("arity", [2, 4, 8, 16])
def test_walk_matches_the_narrowing_walk_on_antichain_clusters(arity):
    cluster, = (c for c in _mono_invariant_clusters() if c.arity == arity)
    compiled = _compiled([(g.box, g.cap) for g in cluster.sorted_generators()])
    for top in range(6):
        assert _walk_stream(_walk, compiled, top) == _walk_stream(narrowing_walk, compiled, top)
